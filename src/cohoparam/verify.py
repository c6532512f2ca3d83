"""The verification suites behind ``cohoparam verify``.

Each suite re-derives identities of the paper from scratch:
``paper-tables`` the GL(n,R) lists, the subset tables and the checks that
lean on them; ``packet-sums`` partition independence and the constant
packet total; ``innerforms`` the inner-form sums; ``weyl-identities`` the
double-coset partition and the packet total of every packet.

A suite is a generator of (name, check) pairs, given the caps ``max_n``
and ``max_rank``; a check takes no arguments and raises `MathCheckError`
when its identity does not hold.  `SUITES` names each suite once, and
`verify` runs one of them, or all in table order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import partial

from .cohomology import (
    innerform_sum_compact,
    innerform_sum_quasisplit,
    packet_cohomology_sum,
    partition_independence,
    so_even_dichotomy,
)
from .errors import MathCheckError
from .packets import packet
from .params import (
    central_value_report,
    enumerate_cohomological,
    enumerate_gl_real,
    parse_gl_parameter,
    standard_rep_parameter,
    tempered_companion,
)
from .weyl import compact_weyl_catalog

Checks = Iterator[tuple[str, Callable[[], None]]]

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
    "GL(2,R)", "GL(3,R)", "GL(4,R)", "GL(5,R)", "SL(4,R)", "GL(2,C)", "GL(3,C)",
    "U(2,1)", "U(2,2)", "Sp(4,R)", "Sp(6,R)",
    "SO(2,2)", "SO(2,3)", "SO(3,3)", "SO(2,4)",
)

QUASISPLIT_GROUPS = (
    "GL(4,R)", "GL(5,R)", "GL(3,C)", "Sp(4,R)", "Sp(6,R)",
    "SO(2,3)", "SO(3,4)", "SO(2,2)", "SO(3,3)", "SO(2,4)",
)


def _check_equal(got, want, what: str) -> None:
    if got != want:
        raise MathCheckError(f"{what}: got {got!r}, expected {want!r}")


def _subset_images(descriptor: str) -> dict:
    return {
        tuple(sorted(c.S)): standard_rep_parameter(c).text()
        for c in enumerate_cohomological(descriptor)
    }


def _paper_tables(max_n: int, max_rank: int) -> Checks:
    def gl_list(n: int, want: set) -> None:
        _check_equal({p.text() for p in enumerate_gl_real(n)}, want, f"GL({n},R) list")

    def subset_table(desc: str, table: dict) -> None:
        _check_equal(_subset_images(desc), table, f"{desc} subset images")

    for n, want in sorted(GL_REAL_LISTS.items()):
        yield f"gl-real-list-{n}", partial(gl_list, n, want)
    for desc, table in sorted(SUBSET_TABLES.items()):
        yield f"subset-table-{desc}", partial(subset_table, desc, table)

    def both_routes() -> None:
        _check_equal(
            set(_subset_images("GL(4,R)").values()),
            {p.text() for p in enumerate_gl_real(4)},
            "GL(4,R) two enumeration routes",
        )

    yield "gl4-route-agreement", both_routes

    def companions() -> None:
        images = _subset_images("Sp(4,R)")
        tempered = parse_gl_parameter(images[()])
        for text in images.values():
            got = tempered_companion(parse_gl_parameter(text))
            _check_equal(
                got.orbit_key(), tempered.orbit_key(), f"companion of {text}"
            )

    yield "sp4-tempered-companions", companions

    def dichotomy() -> None:
        _check_equal(
            so_even_dichotomy(3, 3)["contains_trivial"], True, "SO(3,3) dichotomy"
        )
        _check_equal(
            so_even_dichotomy(2, 4)["contains_trivial"], False, "SO(2,4) dichotomy"
        )

    yield "even-orthogonal-dichotomy", dichotomy

    def central() -> None:
        for desc in SWEEP_GROUPS:
            for c in enumerate_cohomological(desc):
                _check_equal(
                    c.central_ok, True, f"central value for {desc} S={sorted(c.S)}"
                )
                img = standard_rep_parameter(c)
                what = f"central value for {desc} {img.text()}"
                _check_equal(central_value_report(img, c).overall, True, what)

    yield "central-values", central


def _packet_sums(max_n: int, max_rank: int) -> Checks:
    def independence(N: int, flavor: str) -> None:
        what = f"partition sweep N={N} flavor {flavor}"
        _check_equal(partition_independence(N, flavor)["status"], "ok", what)

    def sweep(desc: str) -> None:
        totals = {
            packet_cohomology_sum(desc, c).value
            for c in enumerate_cohomological(desc)
        }
        if len(totals) != 1:
            raise MathCheckError(f"{desc}: packet totals vary: {sorted(totals)}")

    for N in range(1, max_n + 1):
        for flavor in ("O", "SO"):
            name = f"partition-independence-{N}-{flavor}"
            yield name, partial(independence, N, flavor)
    for desc in SWEEP_GROUPS:
        yield f"packet-sum-{desc}", partial(sweep, desc)


def _innerforms(max_n: int, max_rank: int) -> Checks:
    def compact(desc: str) -> None:
        r = innerform_sum_compact(desc)
        _check_equal(r.lhs, r.rhs, f"compact inner-form sum for {desc}")

    def quasisplit(desc: str) -> None:
        r = innerform_sum_quasisplit(desc)
        _check_equal(r.status, "ok", f"quasi-split family of {desc}")

    for r in range(1, max_rank + 1):
        for desc in (f"U({r})", f"Sp({r})", f"SO({2 * r})", f"SO({2 * r + 1})"):
            yield f"compact-{desc}", partial(compact, desc)
    for desc in QUASISPLIT_GROUPS:
        yield f"quasisplit-{desc}", partial(quasisplit, desc)

    def unitary_families() -> None:
        for n in range(1, max_rank + 1):
            r = innerform_sum_quasisplit(f"U({(n + 1) // 2},{n // 2})")
            _check_equal(r.lhs, 2**n, f"unitary family sum, n={n}")

    yield "unitary-family-sums", unitary_families

    def flavored_row() -> None:
        _check_equal(
            innerform_sum_quasisplit("SL(4,R)").status,
            "discrepancy",
            "connected-flavor row must be reported, not patched",
        )

    yield "sl4-flavor-discrepancy", flavored_row


def _weyl_identities(max_n: int, max_rank: int) -> Checks:
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
        yield f"weyl-{desc}", partial(identities, desc)


SUITES: dict[str, Callable[[int, int], Checks]] = {
    "paper-tables": _paper_tables,
    "packet-sums": _packet_sums,
    "innerforms": _innerforms,
    "weyl-identities": _weyl_identities,
}


def verify(suite: str, max_n: int, max_rank: int) -> list[dict]:
    """Run one suite of `SUITES`, or every one for ``"all"``.

    Returns one record per check, in order: its name and status ("ok" or
    "failed"), and for a failure the detail.  Only `MathCheckError` is a
    failed check; any other error propagates, so a check over the Weyl cap
    ends the run.
    """
    results = []
    for name in SUITES if suite == "all" else (suite,):
        for check_name, check in SUITES[name](max_n, max_rank):
            try:
                check()
            except MathCheckError as exc:
                results.append(
                    {"name": check_name, "status": "failed", "detail": str(exc)}
                )
            else:
                results.append({"name": check_name, "status": "ok"})
    return results
