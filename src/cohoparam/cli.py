"""Command-line front end.

Commands: ``enumerate``, ``packet``, ``transfer``, ``cohomology-sum``,
``innerforms``, ``verify``, ``dump-weyl``.  Machine output is JSON with
sorted keys (``--format json``); the default is a human table.  Output is
deterministic: no timestamps, canonical ordering everywhere.

Exit codes: 0 success, 2 malformed input, 3 unsupported group or
embedding, 4 internal cross-check failure, 5 verification-suite failure;
a process whose stdout closes before its output is written exits 1.

This module holds the commands, the parser and the exit-code mapping;
the checks that ``verify`` runs live in `cohoparam.verify`.  `main` runs
one command in process; `run` is the process entry around it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import lru_cache

from .errors import (
    InvalidWeightError,
    MathCheckError,
    UnsupportedGroupError,
    WeylSizeError,
)
from .halfint import HalfIntVector
from .packets import packet
from .params import CohomParameter, enumerate_cohomological, standard_rep_parameter
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
    if args.weight is not None:  # an empty --weight is parsed, and refused
        return HalfIntVector.parse(args.weight)
    return HalfIntVector((0,) * datum.ambient_dim)


def _print(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        import json

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


def cmd_transfer(args) -> int:
    # the only command besides verify that compiles the transfer layer
    from .transfer import (
        _cohomological_preimage,
        _transfer,
        parse_gl_parameter,
        route_selfdual,
        transfer_cohom,
    )

    kind = EMBEDDINGS[args.embedding]  # argparse accepts only these choices
    if args.disc != "trivial":
        raise UnsupportedGroupError(
            "only the trivial normalized discriminant is supported"
        )
    param = parse_gl_parameter(args.param)
    if not param.atoms:
        raise InvalidWeightError(
            f"{args.param!r} is the empty parameter; give at least one atom"
        )
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
    _transfer(kind, datum)  # the family check, before the source is read
    try:
        image = standard_rep_parameter(cohom := _cohomological_preimage(datum, param))
    except InvalidWeightError:
        image = None
    if image is None or image.orbit_key() != param.orbit_key():
        raise InvalidWeightError(
            f"{args.param!r} is not the image of a cohomological parameter of {source}"
        )
    result = transfer_cohom(cohom, kind)
    payload = result.to_json()
    payload["source_parameter"] = image.text()
    if image.text() != param.text():
        payload["twist_note"] = "matched up to the order-two twist"
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
    # cohomology-sum, innerforms and verify are the commands that run the
    # cohomology layer
    from .cohomology import packet_cohomology_sum

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
    from .cohomology import _COMPACT_RE  # descriptor dispatch shared with innerforms
    from .cohomology import innerform_sum_compact, innerform_sum_quasisplit

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


# the names of `verify.SUITES`, which is imported only when a suite runs
SUITES = ("paper-tables", "packet-sums", "innerforms", "weyl-identities", "all")


def cmd_verify(args) -> int:
    from . import verify

    results = verify.verify(args.suite, args.max_n, args.max_rank)
    failed = [r["name"] for r in results if r["status"] == "failed"]
    payload = {
        "suite": args.suite,
        "caps": {"max_n": args.max_n, "max_rank": args.max_rank},
        "checks": results,
        "failed": failed,
        "status": "failed" if failed else "ok",
    }
    lines = [f"suite {args.suite}: {len(results)} checks"]
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


def _join_negative_weight(argv: list[str]) -> list[str]:
    """`--weight -1,0` as `--weight=-1,0`: argparse reads a value that starts
    with "-" as a flag, unless it is one negative number."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--weight" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_join_negative_weight(argv))
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


def run() -> None:
    """Run one command as a whole process: ``python -m cohoparam.cli`` and
    the ``cohoparam`` console script.

    A reader that closes stdout early (``| head -1``) ends the process
    with exit 1 and no traceback, whether the output broke off during the
    command or was still buffered.  Then `gc.freeze` moves every live
    object out of the collector's reach, so the collections that the
    interpreter runs at exit no longer walk everything built at import;
    atexit handlers and the final flush of the standard streams still
    run.  Argparse's own exits (usage errors, ``--help``) pass straight
    through.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the `signal` docs: a stdout that writes to devnull
        # lets the exit flush succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
