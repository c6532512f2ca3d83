import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohoparam.errors import InvalidWeightError
from cohoparam.halfint import HalfIntVector, _fmt_half, _parse_half


def test_parse_and_str_roundtrip():
    v = HalfIntVector.parse("3/2, 1, -1/2, 0")
    assert v.twice == (3, 2, -1, 0)
    assert str(v) == "3/2,1,-1/2,0"
    assert HalfIntVector.parse(str(v)) == v


def test_parse_rejects_thirds():
    with pytest.raises(ValueError):
        HalfIntVector.parse("1/3")


def test_arithmetic():
    a = HalfIntVector.from_ints(1, 2)
    b = HalfIntVector.parse("1/2,-1/2")
    assert (a + b).twice == (3, 3)
    assert (a - b).twice == (1, 5)
    assert (-b).twice == (-1, 1)
    assert a.dot(b) == Fraction(-1, 2)


def test_scale_guards_half_integrality():
    v = HalfIntVector.parse("1/2,1")
    assert v.scale(2).twice == (2, 4)
    with pytest.raises(ValueError):
        v.scale(1, 3)


halfints = st.integers(min_value=-20, max_value=20)
vectors = st.lists(halfints, min_size=1, max_size=6).map(
    lambda xs: HalfIntVector(tuple(xs))
)


@given(vectors, vectors.filter(lambda v: len(v) <= 6))
def test_dot_symmetry(u, v):
    if len(u) != len(v):
        return
    assert u.dot(v) == v.dot(u)


@given(vectors)
def test_neg_involutive(v):
    assert -(-v) == v
    assert v + (-v) == HalfIntVector.zero(len(v))


@given(vectors)
def test_str_parse_roundtrip(v):
    assert HalfIntVector.parse(str(v)) == v


@given(halfints)
def test_parse_half_inverts_fmt_half(t):
    assert _parse_half(_fmt_half(t)) == t


@given(st.integers(min_value=-50, max_value=50))
def test_parse_half_agrees_with_fraction(a):
    for text in (str(a), f"{a}/2", f"{a}.5"):
        assert Fraction(_parse_half(text), 2) == Fraction(text)


@pytest.mark.parametrize(
    "text", ["", "x", "1/0", "1/3", "0.25", "1/2/2", "1e5000", "1e5", "1_0", "inf"]
)
def test_parse_half_rejects(text):
    with pytest.raises(InvalidWeightError):
        _parse_half(text)


# The parser reads `a`, `a/b` and `a.d` with int arithmetic; this oracle is
# the Fraction route it replaced: the same pattern, then Fraction's value.
_ORACLE_RE = re.compile(r"\s*[+-]?\d+(?:/\d+|\.\d+)?\s*")


def _parse_half_by_fraction(text: str) -> int | str:
    """The doubled value, or the error text the parser must give."""
    try:
        f = Fraction(text) if _ORACLE_RE.fullmatch(text) else None
    except (ValueError, ZeroDivisionError):
        f = None
    if f is None:
        return f"bad entry {text!r}"
    if f.denominator > 2:
        return f"entry {text!r} is not half-integral"
    return int(2 * f)


def _parse_half_or_error(text: str) -> int | str:
    try:
        return _parse_half(text)
    except InvalidWeightError as exc:
        return str(exc)


_DIGITS = st.text(alphabet="0123456789\u0661\u0663\uff15\u0967", min_size=1, max_size=8)
_SPACES = st.sampled_from(["", " ", "\t", "\n ", "\u3000"])
_RATIONAL_TEXTS = st.builds(
    lambda lead, sign, num, tail, trail: lead + sign + num + tail + trail,
    _SPACES,
    st.sampled_from(["", "+", "-", "--", "+-"]),
    st.one_of(_DIGITS, st.integers(0, 10**60).map(str)),
    st.one_of(
        st.just(""),
        _DIGITS.map("/".__add__),
        _DIGITS.map(".".__add__),
        st.sampled_from(["/0", "/00", ".", "/", "e5", "E-1", "_0", "/2/2", ".5.5"]),
    ),
    _SPACES,
)


@given(st.one_of(_RATIONAL_TEXTS, st.text(max_size=12)))
def test_parse_half_agrees_with_the_fraction_oracle(text):
    assert _parse_half_or_error(text) == _parse_half_by_fraction(text)


@pytest.mark.parametrize(
    "text",
    ["1.50", " -7/2 ", "3/0", "1e5", "\u0661\u0665/\u0662", "9" * 5000, "1/" + "2" * 5000],
    ids=["decimal", "spaces", "zero-denominator", "exponent", "arabic-indic",
         "long-numerator", "long-denominator"],
)
def test_parse_half_edge_cases_agree_with_the_fraction_oracle(text):
    assert _parse_half_or_error(text) == _parse_half_by_fraction(text)
