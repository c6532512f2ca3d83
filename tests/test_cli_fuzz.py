"""The CLI's exit contract on generated command lines.

Every argv that argparse accepts either succeeds or exits with a
documented code (2, 3, 4 or 5) and at most one line on stderr; no input
ends in a traceback.  Groups have size at most 7 (sizes 0 and 1 and
malformed descriptors included) and the Weyl cap is 5,040, so each case
stays small.
"""

import contextlib
import io
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cohoparam.cli import EMBEDDINGS, SUITES, main

MALFORMED_GROUPS = [
    "", "GL(3)", "XY(2,R)", "U(2,1", "Sp(3,R)", "SL(2,C)", "GL(2,Q)",
    "U(-1,2)", "7",
]

sizes = st.integers(0, 7)
signatures = st.integers(0, 7).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.just(n))
)
groups = st.one_of(
    st.builds("GL({},R)".format, sizes),
    st.builds("GL({},C)".format, sizes),
    st.builds("SL({},R)".format, sizes),
    st.builds("Sp({},R)".format, st.integers(0, 3).map(lambda k: 2 * k)),
    st.builds(lambda pn: f"U({pn[0]},{pn[1] - pn[0]})", signatures),
    st.builds(lambda pn: f"SO({pn[0]},{pn[1] - pn[0]})", signatures),
    st.builds("{}({})".format, st.sampled_from(["U", "SO", "Sp"]), sizes),
    st.sampled_from(MALFORMED_GROUPS),
)

half_ints = st.builds(
    lambda a, half: f"{a}/2" if half else str(a),
    st.integers(-4, 4),
    st.booleans(),
)
weights = st.one_of(
    st.lists(half_ints, max_size=7).map(",".join),
    st.sampled_from(["1,,2", "a", "1/3", "1.5,0.5", "0.25", " ", "-1,x"]),
)
subsets = st.one_of(
    st.lists(st.integers(-1, 8), max_size=4).map(lambda s: ",".join(map(str, s))),
    st.sampled_from(["1,,2", "a", " ", "1.5"]),
)
# (text, dimension); parameters stay at dimension 7 or less, like the groups
atoms = st.one_of(
    st.builds(lambda d, m: (f"s{d}[{m}]", 2 * m), st.integers(0, 6), st.integers(1, 3)),
    st.builds(lambda e, a: (f"w{e}[{a}]", a), st.integers(0, 2), st.integers(1, 4)),
    st.builds(lambda x, m: (f"e{x}[{m}]", m), half_ints, st.integers(0, 3)),
)
param_texts = st.one_of(
    st.lists(atoms, min_size=1, max_size=4)
    .filter(lambda a: sum(dim for _, dim in a) <= 7)
    .flatmap(lambda a: st.sampled_from(["", "*nu^1/2"]).map(
        lambda twist: "+".join(text for text, _ in a) + twist
    )),
    # images of the weight-zero enumerations, which the transfer can find
    st.sampled_from([
        "s2[2]", "s4[1]+s2[1]+w0[1]", "s3[2]+w0[1]", "s4[1]+w1[3]", "w0[5]",
        "s3[1]+s1[1]", "s3[1]+w0[2]", "w0[4]", "s2[1]+w0[1]",
    ]),
    st.sampled_from(["", "0", "s3[", "x3[1]", "s3[1]+", "s3[1]*nu^1/3"]),
)
small = st.integers(-1, 6)


def _option(flag, value):
    """`--flag value`, or `--flag=value` where argparse would read the value
    as a flag; a negative weight keeps the spaced form the CLI joins."""
    if value[:1] == "-" and not (flag == "--weight" and value[1:2].isdigit()):
        return [f"{flag}={value}"]
    return [flag, value]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["enumerate", "packet", "transfer", "cohomology-sum", "innerforms",
         "verify", "dump-weyl"]
    ))
    argv = [command]
    optional = {
        "enumerate": {"--weight": weights},
        "packet": {"--subset": subsets, "--weight": weights, "--max-size": small},
        "transfer": {"--n": small, "--disc": st.sampled_from(["trivial", "other"])},
        "cohomology-sum": {"--subset": subsets, "--weight": weights},
        "innerforms": {},
        "verify": {"--max-n": st.integers(-1, 8), "--max-rank": st.integers(-1, 4)},
        "dump-weyl": {"--elements": small, "--max-size": st.integers(-1, 50)},
    }[command]
    if command == "transfer":
        argv += ["--embedding", draw(st.sampled_from(sorted(EMBEDDINGS)))]
        argv += _option("--param", draw(param_texts))
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from(SUITES))]
    else:
        argv += _option("--group", draw(groups))
    for flag, values in optional.items():
        if draw(st.booleans()):
            argv += _option(flag, str(draw(values)))
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_every_accepted_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COHOPARAM_MAX_WEYL": "5040"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code)
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
