"""Byte-identity digests of CLI commands, one corpus per JSON file.

Each case is one `cohoparam` command line, run in-process through
`cohoparam.cli.main`; its digest is the sha256 of (stdout, stderr, exit
code).  `GROUPS` lists each supported descriptor whose twisted Weyl group
W^theta has at most 720 elements.  The corpora:

* `weyl_cli.json`: `dump-weyl` (table, JSON, and `--elements 4`),
  `packet` at the zero weight for every theta-stable subset and `packet`
  at the two weights of `nonzero_weights` for the default subset (table
  and JSON), on every group of `GROUPS`;
* `enumerate_cli.json`: `enumerate` (table and JSON) at the zero weight and
  at the two weights of `nonzero_weights`, on every group of `GROUPS` of
  rank at most 6; and `transfer` (table and JSON) along every embedding of
  each image of `TRANSFER_SOURCES` at the zero weight and at the two
  weights of `nonzero_weights`;
* `cohomology_cli.json`: `cohomology-sum` at the zero weight for every
  theta-stable subset and at the two weights of `nonzero_weights` for the
  default subset, on every group of `GROUPS`, `innerforms` on `GROUPS`,
  on the compact forms of `COMPACT_FAMILIES` up to size 8 and on the
  unitary and orthogonal forms of `LARGE_INNERFORMS`, and `verify` for
  every suite, each in table and JSON;
* `limits_cli.json`: `verify` at non-default `--max-n` and `--max-rank`
  caps (table and JSON), the error paths of `ERROR_PATHS`, one transfer
  into a large target, compact `innerforms` refused for an order past the
  int-to-str limit (table and JSON), and the `COHOPARAM_MAX_WEYL` cases.  A case that begins with
  `COHOPARAM_MAX_WEYL=value` runs with the variable set to that value, as
  in a shell; it is restored afterwards.

`tests/test_golden.py` recomputes every digest against its file.
Re-record only when an output is meant to change:

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from pathlib import Path
from unittest import mock

from cohoparam.cli import EMBEDDINGS, SUITES, main
from cohoparam.halfint import HalfIntVector
from cohoparam.params import enumerate_cohomological, standard_rep_parameter
from cohoparam.rootdata import build_classical_dual

HERE = Path(__file__).parent

# the largest member of each family has |W^theta| = 720 or 384; the next
# size up (3,840 or 5,040) is left out
GROUPS = (
    *(f"GL({n},R)" for n in range(1, 10)),
    *(f"SL({n},R)" for n in range(2, 10)),
    *(f"GL({n},C)" for n in range(1, 7)),
    "U(1,0)", "U(1,1)", "U(2,0)", "U(2,1)", "U(2,2)", "U(3,0)", "U(3,1)",
    "U(3,2)", "U(3,3)", "U(4,0)", "U(4,1)", "U(4,2)", "U(5,0)", "U(5,1)",
    "U(6,0)",
    *(f"Sp({2 * n},R)" for n in range(1, 5)),
    "SO(1,1)", "SO(2,0)", "SO(2,1)", "SO(2,2)", "SO(3,0)", "SO(3,1)",
    "SO(3,2)", "SO(3,3)", "SO(4,0)", "SO(4,1)", "SO(4,2)", "SO(4,3)",
    "SO(4,4)", "SO(5,0)", "SO(5,1)", "SO(5,2)", "SO(5,4)", "SO(6,0)",
    "SO(6,1)", "SO(6,2)", "SO(6,3)", "SO(7,0)", "SO(7,2)", "SO(8,0)",
    "SO(8,1)", "SO(9,0)",
)


def theta_stable_subsets(descriptor: str) -> list[tuple[int, ...]]:
    """Theta-stable simple-root subsets, by size and then lexicographically."""
    datum = build_classical_dual(descriptor)
    roots = range(1, datum.rank + 1)
    return [
        S
        for k in range(datum.rank + 1)
        for S in itertools.combinations(roots, k)
        if datum.theta_subset(S) == frozenset(S)
    ]


def weyl_cases() -> list[list[str]]:
    out = []
    for group in GROUPS:
        out.append(["dump-weyl", "--group", group])
        out.append(["dump-weyl", "--group", group, "--format", "json"])
        out.append(["dump-weyl", "--group", group, "--elements", "4"])
        for S in theta_stable_subsets(group):
            argv = ["packet", "--group", group]
            if S:
                argv += ["--subset", ",".join(map(str, S))]
            out.append(argv)
            out.append(argv + ["--format", "json"])
        out.extend(_at_nonzero_weights("packet", group))
    return out


def _at_nonzero_weights(command: str, group: str) -> list[list[str]]:
    """`command` at the two weights of `nonzero_weights`, default subset."""
    out = []
    for weight in nonzero_weights(group):
        argv = [command, "--group", group, "--weight", weight]
        out.append(argv)
        out.append(argv + ["--format", "json"])
    return out


# groups whose images are fed back through `transfer`
TRANSFER_SOURCES = ("Sp(4,R)", "SO(2,3)", "U(2,1)")

# the dual groups of GL(n,R), SL(n,R) and GL(n,C) have theta = -w0 on type-A
# coordinates, so a theta-fixed weight is antisymmetric under reversal
_REVERSED_THETA = ("GL_R", "SL_R", "GL_C")


def nonzero_weights(descriptor: str) -> list[str]:
    """Two fixed nonzero weights, in closed form from the family and size.

    They are dominant, integral and theta-fixed for most groups; where they
    are not (GL(1,R), the D_1 and D_2 forms with an outer theta) the case
    records the error exit instead.
    """
    datum = build_classical_dual(descriptor)
    n = datum.ambient_dim
    if datum.family in _REVERSED_THETA and n >= 2:
        first = [1] + [0] * (n - 2) + [-1]
        if n >= 4:
            second = [1, 1] + [0] * (n - 4) + [-1, -1]
        else:
            second = [2] + [0] * (n - 2) + [-2]
    else:
        first = [1] + [0] * (n - 1)
        second = [1, 1] + [0] * (n - 2) if n >= 2 else [2]
    return [",".join(map(str, w)) for w in (first, second)]


def enumerate_cases() -> list[list[str]]:
    out = []
    for group in GROUPS:
        if build_classical_dual(group).rank > 6:
            continue
        for weight in [None, *nonzero_weights(group)]:
            argv = ["enumerate", "--group", group]
            if weight is not None:
                argv += ["--weight", weight]
            out.append(argv)
            out.append(argv + ["--format", "json"])
    for group in TRANSFER_SOURCES:
        for weight in [None, *nonzero_weights(group)]:
            lam = None if weight is None else HalfIntVector.parse(weight)
            for c in enumerate_cohomological(group, lam):
                text = standard_rep_parameter(c).text()
                for embedding in sorted(EMBEDDINGS):
                    argv = ["transfer", "--embedding", embedding, "--param", text]
                    out.append(argv)
                    out.append(argv + ["--format", "json"])
    return out


# compact families whose `innerforms` sums over every real form of the type
COMPACT_FAMILIES = ("U", "Sp", "SO")

# U(n-k,k) and SO(n-k,k) past size 8, at k = 0 and k = n // 2, odd and even n
LARGE_INNERFORMS = tuple(
    f"{family}({n - k},{k})"
    for family in ("U", "SO")
    for n in (9, 12, 16, 17, 24, 32, 33)
    for k in (0, n // 2)
    if f"{family}({n - k},{k})" not in GROUPS
)


def cohomology_cases() -> list[list[str]]:
    out = []
    for group in GROUPS:
        for S in theta_stable_subsets(group):
            argv = ["cohomology-sum", "--group", group]
            if S:
                argv += ["--subset", ",".join(map(str, S))]
            out.append(argv)
            out.append(argv + ["--format", "json"])
        out.extend(_at_nonzero_weights("cohomology-sum", group))
    compact = [f"{family}({m})" for family in COMPACT_FAMILIES for m in range(1, 9)]
    for group in (*GROUPS, *compact, *LARGE_INNERFORMS):
        argv = ["innerforms", "--group", group]
        out.append(argv)
        out.append(argv + ["--format", "json"])
    for suite in SUITES:
        argv = ["verify", "--suite", suite]
        out.append(argv)
        out.append(argv + ["--format", "json"])
    return out


# (argv, exit code) of each CLI error path; `tests/test_cli.py`'s
# `TestExitCodes.test_error_paths` checks the codes
ERROR_PATHS = (
    (["enumerate", "--group", "GL(2,R)", "--weight", "0,0,1"], 2),
    (["enumerate", "--group", "GL(2,R)", "--weight", "x,0"], 2),
    (["enumerate", "--group", "GL(2,R)", "--weight", "1/3,0"], 2),
    (["enumerate", "--group", "GL(2,R)", "--weight", "1/2,-1/2"], 2),
    (["enumerate", "--group", "E8"], 3),
    (["packet", "--group", "Sp(4,R)", "--subset", "a"], 2),
    (["packet", "--group", "Sp(40,R)"], 3),
    (["enumerate", "--group", "GL(2,R)", "--weight", ",0"], 2),
    (["enumerate", "--group", "GL(2,R)", "--weight", "1/0,0"], 2),
    (["enumerate", "--group", "GL(2,R)", "--weight", "1e5000,0"], 2),
    (["transfer", "--embedding", "sp-gl", "--param", "s1[1]*nu^1/3"], 2),
    (["transfer", "--embedding", "diag", "--param", "s1[1]*nu^1e5000"], 2),
    (["transfer", "--embedding", "sp-gl", "--param", "s1[1]+w0[1]"], 3),
    (["transfer", "--embedding", "sp-gl", "--param", "s1[1]*nu^1"], 3),
    (["transfer", "--embedding", "sp-gl", "--param", "w0[1]+w0[1]+w0[1]"], 3),
    # routes to SO(20,21), whose images have distinct exponents
    (["transfer", "--embedding", "sp-gl", "--param", "s2[20]"], 2),
    # the empty parameter, which names no group
    *(
        (["transfer", "--embedding", e, "--param", p], 2)
        for e in ("sp-gl", "diag")
        for p in ("", "0")
    ),
    # an empty weight, which is parsed and refused, not read as zero
    *(
        ([command, "--group", "GL(2,R)", "--weight", ""], 2)
        for command in ("enumerate", "packet", "cohomology-sum")
    ),
)

_ENV_CAP = "COHOPARAM_MAX_WEYL"


def limits_cases() -> list[list[str]]:
    out = []
    for extra in (
        *(["packet-sums", "--max-n", n] for n in ("0", "1", "11")),
        *(["innerforms", "--max-rank", r] for r in ("0", "1", "9")),
        ["all", "--max-n", "2", "--max-rank", "2"],
    ):
        argv = ["verify", "--suite", *extra]
        out.append(argv)
        out.append(argv + ["--format", "json"])
    out.extend(list(argv) for argv, _ in ERROR_PATHS)
    # a transfer into GL(22,C), which has 2**21 compositions at the zero weight
    out.append(["transfer", "--embedding", "diag", "--param", "w0[22]"])
    for command in ("enumerate", "packet", "cohomology-sum", "innerforms", "dump-weyl"):
        for group in ("SO(1,0)", "SO(0,1)"):
            out.append([command, "--group", group])
    # compact forms whose |W| has more digits than the int-to-str limit
    for group in ("U(3000)", "Sp(1600)", "SO(3201)", "U(99999999999)"):
        out.append(["innerforms", "--group", group])
        out.append(["innerforms", "--group", group, "--format", "json"])
    for command, flag, value in (
        ("packet", "--max-size", "-5"),
        ("packet", "--max-size", "0"),
        ("dump-weyl", "--max-size", "0"),
        ("dump-weyl", "--elements", "-3"),
        ("verify", "--max-n", "-1"),
        ("verify", "--max-rank", "-2"),
    ):
        where = ["--suite", "all"] if command == "verify" else ["--group", "Sp(4,R)"]
        out.append([command, *where, flag, value])
    sp4 = ["packet", "--group", "Sp(4,R)"]
    out.append([f"{_ENV_CAP}=5", *sp4])
    out.append([f"{_ENV_CAP}=5", *sp4, "--max-size", "100"])
    out.append([f"{_ENV_CAP}=1000", "verify", "--suite", "packet-sums", "--max-n", "40"])
    out.extend([f"{_ENV_CAP}={raw}", *sp4] for raw in ("0", "-1", "abc"))
    return out


CORPORA = {
    "weyl_cli.json": weyl_cases,
    "enumerate_cli.json": enumerate_cases,
    "cohomology_cli.json": cohomology_cases,
    "limits_cli.json": limits_cases,
}


def digest(argv: list[str]) -> str:
    """sha256 of (stdout, stderr, exit code) of one in-process CLI run."""
    cap = None
    if argv[0].startswith(_ENV_CAP + "="):
        cap, argv = argv[0].partition("=")[2], argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {} if cap is None else {_ENV_CAP: cap}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    blob = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(blob.encode()).hexdigest()


def record(corpus: str) -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in CORPORA[corpus]()}


if __name__ == "__main__":
    for corpus in CORPORA:
        digests = record(corpus)
        path = HERE / corpus
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"{len(digests)} cases written to {path}")
