"""Command-line front end.

Commands: ``enumerate``, ``packet``, ``transfer``, ``cohomology-sum``,
``innerforms``, ``verify``, ``dump-weyl``.  Machine output is JSON with
sorted keys (``--format json``); the default is a human table.  Output is
deterministic: no timestamps, canonical ordering everywhere.

Exit codes: 0 success, 2 malformed input, 3 unsupported group or
embedding, 4 internal cross-check failure, 5 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .cohomology import (
    innerform_sum_compact,
    innerform_sum_quasisplit,
    packet_cohomology_sum,
    partition_independence,
    so_even_dichotomy,
)
from .cohomology import _COMPACT_RE  # descriptor dispatch shared with innerforms
from .errors import (
    InvalidWeightError,
    MathCheckError,
    UnsupportedGroupError,
    WeylSizeError,
)
from .halfint import HalfIntVector
from .packets import packet
from .params import (
    CohomParameter,
    central_value_report,
    enumerate_cohomological,
    enumerate_gl_real,
    parse_gl_parameter,
    route_selfdual,
    standard_rep_parameter,
    tempered_companion,
    transfer_cohom,
)
from .rootdata import build_classical_dual
from .weyl import compact_weyl_catalog

# embeddings are named by their parameter-side (dual) picture; the values
# are the transfer kinds, which are named by the real source group
EMBEDDINGS = {
    "sp-gl": "so-odd-to-gl",
    "so-odd-gl": "sp-to-gl",
    "diag": "gl-to-complex",
    "so-odd-in-so-even": "sp-to-so-even",
}


# ---------------------------------------------------------------------------
# input parsing


def _parse_subset(text: str | None) -> frozenset[int]:
    if not text:
        return frozenset()
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise InvalidWeightError(f"bad subset {text!r}") from None


# count flags and the least value each accepts
_COUNT_FLAGS = {"max_size": 1, "elements": 0, "max_n": 0, "max_rank": 0}


def _check_counts(args) -> None:
    for name, least in _COUNT_FLAGS.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            need = "positive" if least else "non-negative"
            raise InvalidWeightError(f"{flag} must be {need}, got {value}")


def _weight_or_zero(args, datum) -> HalfIntVector:
    if getattr(args, "weight", None):
        return HalfIntVector.parse(args.weight)
    return HalfIntVector((0,) * datum.ambient_dim)


def _print(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


def cmd_enumerate(args) -> int:
    datum = build_classical_dual(args.group)
    lam = _weight_or_zero(args, datum)
    params = enumerate_cohomological(datum, lam)
    entries = []
    lines = []
    for c in params:
        img = standard_rep_parameter(c)
        kind = "complex" if datum.family in ("GL_C", "U") else "real"
        entries.append(
            {
                "subset": sorted(c.S),
                "parameter": img.text(),
                "type": kind,
                "infinitesimal": str(c.inf_char),
            }
        )
        lines.append(img.text())
    payload = {
        "group": datum.descriptor,
        "weight": str(lam),
        "count": len(entries),
        "parameters": entries,
    }
    _print(args, payload, lines)
    return 0


def cmd_packet(args) -> int:
    datum = build_classical_dual(args.group)
    S = _parse_subset(args.subset)
    lam = _weight_or_zero(args, datum)
    pkt = packet(args.group, CohomParameter(datum, S, lam), max_size=args.max_size)
    payload = pkt.to_json()
    lines = [
        f"group        {pkt.group}",
        f"levi subset  {sorted(pkt.levi_subset)}",
        f"size         {pkt.size}",
        f"total        {pkt.h_total}",
    ]
    for m in pkt.members:
        label = f"  {m.label}" if m.label else ""
        lines.append(f"  member {str(m.rep):16s} h={m.h_dim}{label}")
    _print(args, payload, lines)
    return 0


def _locate_cohomological(descriptor: str, text: str):
    """Find the weight-zero subset parameter whose image is `text`.

    Exact canonical text first, then the order-two twist orbit.
    """
    target = parse_gl_parameter(text)
    fallback = None
    for c in enumerate_cohomological(descriptor):
        img = standard_rep_parameter(c)
        if img.text() == target.text():
            return c, ""
        if img.orbit_key() == target.orbit_key():
            fallback = c
    if fallback is not None:
        return fallback, "matched up to the order-two twist"
    raise InvalidWeightError(
        f"{text!r} is not in the weight-zero enumeration of {descriptor}"
    )


def cmd_transfer(args) -> int:
    kind = EMBEDDINGS.get(args.embedding)
    if kind is None:
        raise UnsupportedGroupError(
            f"unknown embedding {args.embedding!r}; choose from "
            f"{sorted(EMBEDDINGS)}"
        )
    if args.disc != "trivial":
        raise UnsupportedGroupError(
            "only the trivial normalized discriminant is supported"
        )
    param = parse_gl_parameter(args.param)
    if kind == "gl-to-complex":
        source = f"GL({param.dimension},R)"
    else:
        route = route_selfdual(param)
        if route.target is None:
            raise UnsupportedGroupError(
                f"{args.param!r} does not route to a classical group: "
                f"{route.reason}"
            )
        source = route.target
    datum = build_classical_dual(source)
    if args.n is not None and datum.ambient_dim != args.n:
        raise InvalidWeightError(
            f"--n {args.n} does not match {source} (rank {datum.ambient_dim})"
        )
    cohom, twist_note = _locate_cohomological(source, args.param)
    result = transfer_cohom(cohom, kind)
    payload = result.to_json()
    payload["source_parameter"] = standard_rep_parameter(cohom).text()
    if twist_note:
        payload["twist_note"] = twist_note
    lines = [
        f"embedding    {args.embedding} ({kind})",
        f"source       {result.source_group}  {payload['source_parameter']}",
        f"target       {result.target_group}  {result.parameter.text()}",
        f"inf char     {result.inf_char}",
        f"image regular        {result.image_regular}",
        f"image cohomological  {result.image_cohomological}",
    ]
    if result.notes:
        lines.append(f"notes        {result.notes}")
    _print(args, payload, lines)
    return 0


def cmd_cohomology_sum(args) -> int:
    datum = build_classical_dual(args.group)
    S = _parse_subset(args.subset)
    lam = _weight_or_zero(args, datum)
    report = packet_cohomology_sum(args.group, CohomParameter(datum, S, lam))
    payload = report.to_json()
    lines = [
        f"group        {report.group}",
        f"levi subset  {sorted(report.levi_subset)}",
        f"total        {report.value}",
    ]
    for name, value in sorted(report.routes.items()):
        lines.append(f"  route {name:18s} {value}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    _print(args, payload, lines)
    return 0


def cmd_innerforms(args) -> int:
    if _COMPACT_RE.match(args.group.replace(" ", "")):
        report = innerform_sum_compact(args.group)
        payload = report.to_json()
        lines = [f"group  {report.group}", f"sum    {report.lhs} = 2^rank"]
        for c in report.classes:
            label = f"  {c.label}" if c.label else ""
            lines.append(
                f"  orbit size {c.orbit_size:4d}  stabilizer {c.stabilizer_order:6d}"
                f"{label}"
            )
    else:
        report = innerform_sum_quasisplit(args.group)
        payload = report.to_json()
        lines = [
            f"group   {report.group}",
            f"sum     {report.lhs}  expected {report.rhs}  [{report.status}]",
            f"betti   {report.betti_total}",
        ]
        for c in report.classes:
            lines.append(f"  {c['label']:12s} index {c['index']}")
        for note in report.notes:
            lines.append(f"  note: {note}")
    _print(args, payload, lines)
    return 0


def cmd_dump_weyl(args) -> int:
    cat = compact_weyl_catalog(args.group, max_size=args.max_size)
    payload = {
        "group": cat.descriptor,
        "full_order": cat.full_order,
        "theta_fixed_order": len(cat.w_theta),
        "k_order": len(cat.k_weyl),
        "d_exponent": cat.d_exponent,
        "n_cosets": cat.n_cosets,
        "cartan_signature": list(cat.cartan_signature),
        "k_connected_only": cat.k_connected_only,
    }
    lines = [
        f"group            {cat.descriptor}",
        f"|W|              {cat.full_order}",
        f"|W^theta|        {len(cat.w_theta)}",
        f"|K|              {len(cat.k_weyl)}",
        f"d exponent       {cat.d_exponent}",
        f"cosets           {cat.n_cosets}",
        f"cartan signature {cat.cartan_signature}",
    ]
    if args.elements:
        elems = cat.w_theta[: args.elements]
        payload["elements"] = [str(w) for w in elems]
        lines.extend(f"  {w}" for w in elems)
    _print(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# verification suites


GL_REAL_LISTS = {
    2: {"s1[1]", "w0[2]"},
    3: {"s2[1]+w0[1]", "w0[3]"},
    4: {"s2[2]", "s3[1]+s1[1]", "s3[1]+w0[2]", "w0[4]"},
    5: {"s3[2]+w0[1]", "s4[1]+s2[1]+w0[1]", "s4[1]+w0[3]", "w0[5]"},
}

SUBSET_TABLES = {
    "Sp(4,R)": {
        (): "s4[1]+s2[1]+w0[1]",
        (1,): "s3[2]+w0[1]",
        (2,): "s4[1]+w1[3]",
        (1, 2): "w0[5]",
    },
    "SO(2,3)": {
        (): "s3[1]+s1[1]",
        (1,): "s2[2]",
        (2,): "s3[1]+w0[2]",
        (1, 2): "w0[4]",
    },
    "GL(4,R)": {
        (): "s3[1]+s1[1]",
        (2,): "s3[1]+w0[2]",
        (1, 3): "s2[2]",
        (1, 2, 3): "w0[4]",
    },
    "U(2,1)": {
        (): "e1[1]+e0[1]+e-1[1]",
        (1,): "e1/2[2]+e-1[1]",
        (2,): "e1[1]+e-1/2[2]",
        (1, 2): "e0[3]",
    },
    "GL(3,C)": {
        (): "e1[1]+e0[1]+e-1[1]",
        (1, 4): "e1/2[2]+e-1[1]",
        (2, 3): "e1[1]+e-1/2[2]",
        (1, 2, 3, 4): "e0[3]",
    },
}

SWEEP_GROUPS = (
    "GL(2,R)",
    "GL(3,R)",
    "GL(4,R)",
    "GL(5,R)",
    "SL(4,R)",
    "GL(2,C)",
    "GL(3,C)",
    "U(2,1)",
    "U(2,2)",
    "Sp(4,R)",
    "Sp(6,R)",
    "SO(2,2)",
    "SO(2,3)",
    "SO(3,3)",
    "SO(2,4)",
)


def _check_equal(got, want, what: str) -> None:
    if got != want:
        raise MathCheckError(f"{what}: got {got!r}, expected {want!r}")


def _subset_images(descriptor: str) -> dict:
    return {
        tuple(sorted(c.S)): standard_rep_parameter(c).text()
        for c in enumerate_cohomological(descriptor)
    }


def _golden_table_checks() -> list[tuple[str, callable]]:
    checks = []
    for n, want in sorted(GL_REAL_LISTS.items()):
        checks.append(
            (
                f"gl-real-list-{n}",
                lambda n=n, want=want: _check_equal(
                    {p.text() for p in enumerate_gl_real(n)}, want, f"GL({n},R) list"
                ),
            )
        )
    for desc, table in sorted(SUBSET_TABLES.items()):
        checks.append(
            (
                f"subset-table-{desc}",
                lambda desc=desc, table=table: _check_equal(
                    _subset_images(desc), table, f"{desc} subset images"
                ),
            )
        )

    def both_routes() -> None:
        _check_equal(
            set(_subset_images("GL(4,R)").values()),
            {p.text() for p in enumerate_gl_real(4)},
            "GL(4,R) two enumeration routes",
        )

    checks.append(("gl4-route-agreement", both_routes))

    def companions() -> None:
        images = _subset_images("Sp(4,R)")
        tempered = parse_gl_parameter(images[()])
        for text in images.values():
            got = tempered_companion(parse_gl_parameter(text))
            _check_equal(
                got.orbit_key(), tempered.orbit_key(), f"companion of {text}"
            )

    checks.append(("sp4-tempered-companions", companions))

    def dichotomy() -> None:
        _check_equal(
            so_even_dichotomy(3, 3)["contains_trivial"], True, "SO(3,3) dichotomy"
        )
        _check_equal(
            so_even_dichotomy(2, 4)["contains_trivial"], False, "SO(2,4) dichotomy"
        )

    checks.append(("even-orthogonal-dichotomy", dichotomy))

    def central() -> None:
        for desc in SWEEP_GROUPS:
            so_even = build_classical_dual(desc).family == "SO_even"
            for c in enumerate_cohomological(desc):
                _check_equal(
                    c.central_ok, True, f"central value for {desc} S={sorted(c.S)}"
                )
                img = standard_rep_parameter(c)
                if so_even:
                    # The even orthogonal dual has 2*rho-check with all-even
                    # coordinates, so its central element acts by +1 on the
                    # standard representation.  That image is not a GL(2n,R)
                    # cohomological parameter (its exponents repeat 0), so the
                    # GL parity table reads uniformly "wrong side" here: every
                    # atom must sit on the opposite parity from the GL rule.
                    report = central_value_report(img)
                    _check_equal(
                        set(report.per_atom),
                        {False},
                        f"uniform central sign for {desc} {img.text()}",
                    )
                else:
                    report = central_value_report(img, c)
                    _check_equal(
                        report.overall,
                        True,
                        f"central value for {desc} {img.text()}",
                    )

    checks.append(("central-values", central))
    return checks


def _packet_sum_checks(max_n: int) -> list[tuple[str, callable]]:
    checks = []
    for N in range(1, max_n + 1):
        for flavor in ("O", "SO"):
            checks.append(
                (
                    f"partition-independence-{N}-{flavor}",
                    lambda N=N, flavor=flavor: _check_equal(
                        partition_independence(N, flavor)["status"],
                        "ok",
                        f"partition sweep N={N} flavor {flavor}",
                    ),
                )
            )

    def sweep(desc: str) -> None:
        totals = {
            packet_cohomology_sum(desc, c).value
            for c in enumerate_cohomological(desc)
        }
        if len(totals) != 1:
            raise MathCheckError(f"{desc}: packet totals vary: {sorted(totals)}")

    for desc in SWEEP_GROUPS:
        checks.append((f"packet-sum-{desc}", lambda desc=desc: sweep(desc)))
    return checks


def _innerform_checks(max_rank: int) -> list[tuple[str, callable]]:
    checks = []

    def compact(desc: str) -> None:
        r = innerform_sum_compact(desc)
        _check_equal(r.lhs, r.rhs, f"compact inner-form sum for {desc}")

    for rank in range(1, max_rank + 1):
        for desc in (
            f"U({rank})",
            f"Sp({rank})",
            f"SO({2 * rank})",
            f"SO({2 * rank + 1})",
        ):
            checks.append((f"compact-{desc}", lambda desc=desc: compact(desc)))

    def quasisplit(desc: str) -> None:
        r = innerform_sum_quasisplit(desc)
        _check_equal(r.status, "ok", f"quasi-split family of {desc}")

    for desc in (
        "GL(4,R)",
        "GL(5,R)",
        "GL(3,C)",
        "Sp(4,R)",
        "Sp(6,R)",
        "SO(2,3)",
        "SO(3,4)",
        "SO(2,2)",
        "SO(3,3)",
        "SO(2,4)",
    ):
        checks.append((f"quasisplit-{desc}", lambda desc=desc: quasisplit(desc)))

    def unitary_families() -> None:
        for n in range(1, max_rank + 1):
            r = innerform_sum_quasisplit(f"U({(n + 1) // 2},{n // 2})")
            _check_equal(r.lhs, 2**n, f"unitary family sum, n={n}")

    checks.append(("unitary-family-sums", unitary_families))

    def flavored_row() -> None:
        _check_equal(
            innerform_sum_quasisplit("SL(4,R)").status,
            "discrepancy",
            "connected-flavor row must be reported, not patched",
        )

    checks.append(("sl4-flavor-discrepancy", flavored_row))
    return checks


def _weyl_identity_checks() -> list[tuple[str, callable]]:
    checks = []

    def identities(desc: str) -> None:
        cat = compact_weyl_catalog(desc)
        for c in enumerate_cohomological(desc):
            pkt = packet(desc, c)
            # double cosets partition the twisted Weyl group
            _check_equal(
                sum(m.coset_size for m in pkt.members),
                len(cat.w_theta),
                f"{desc} S={sorted(c.S)}: coset sizes",
            )
            _check_equal(
                pkt.h_total,
                (2**cat.d_exponent) * cat.n_cosets,
                f"{desc} S={sorted(c.S)}: packet total",
            )

    for desc in SWEEP_GROUPS:
        checks.append((f"weyl-{desc}", lambda desc=desc: identities(desc)))
    return checks


SUITES = ("paper-tables", "packet-sums", "innerforms", "weyl-identities", "all")


def cmd_verify(args) -> int:
    checks: list[tuple[str, callable]] = []
    if args.suite in ("paper-tables", "all"):
        checks += _golden_table_checks()
    if args.suite in ("packet-sums", "all"):
        checks += _packet_sum_checks(args.max_n)
    if args.suite in ("innerforms", "all"):
        checks += _innerform_checks(args.max_rank)
    if args.suite in ("weyl-identities", "all"):
        checks += _weyl_identity_checks()

    results = []
    failed = []
    for name, fn in checks:
        try:
            fn()
            results.append({"name": name, "status": "ok"})
        except MathCheckError as exc:  # other errors propagate to exit 2 or 3
            results.append({"name": name, "status": "failed", "detail": str(exc)})
            failed.append(name)
    payload = {
        "suite": args.suite,
        "caps": {"max_n": args.max_n, "max_rank": args.max_rank},
        "checks": results,
        "failed": failed,
        "status": "failed" if failed else "ok",
    }
    lines = [f"suite {args.suite}: {len(checks)} checks"]
    lines += [
        f"  {r['name']:40s} {r['status']}"
        + (f"  ({r['detail']})" if r["status"] == "failed" else "")
        for r in results
    ]
    lines.append(f"result: {payload['status']}")
    _print(args, payload, lines)
    return 5 if failed else 0


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohoparam",
        description="Cohomological parameter combinatorics for classical "
        "real groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=("table", "json"), default="table",
            help="output format",
        )

    p = sub.add_parser("enumerate", help="list parameters for a group")
    p.add_argument("--group", required=True)
    p.add_argument("--weight", help="comma-separated half-integers")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("packet", help="double-coset packet for a Levi subset")
    p.add_argument("--group", required=True)
    p.add_argument("--subset", help="comma-separated simple-root indices")
    p.add_argument("--weight")
    p.add_argument("--max-size", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_packet)

    p = sub.add_parser("transfer", help="functorial image of a parameter")
    p.add_argument("--embedding", required=True, choices=sorted(EMBEDDINGS))
    p.add_argument("--param", required=True)
    p.add_argument("--n", type=int, default=None, help="source rank check")
    p.add_argument("--disc", default="trivial")
    common(p)
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("cohomology-sum", help="packet cohomology total")
    p.add_argument("--group", required=True)
    p.add_argument("--subset")
    p.add_argument("--weight")
    common(p)
    p.set_defaults(fn=cmd_cohomology_sum)

    p = sub.add_parser("innerforms", help="inner-form sum for a family")
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(fn=cmd_innerforms)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--max-rank", type=int, default=6)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("dump-weyl", help="compact-Weyl catalog entry")
    p.add_argument("--group", required=True)
    p.add_argument("--elements", type=int, default=0, help="list this many")
    p.add_argument("--max-size", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_dump_weyl)

    return parser


# parse_args leaves the parser as it was, so one parser serves every
# in-process call of `main`
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.fn(args)
    except (UnsupportedGroupError, WeylSizeError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except MathCheckError as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 4
    except InvalidWeightError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
