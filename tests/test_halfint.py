from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohoparam.errors import InvalidWeightError
from cohoparam.halfint import HalfIntVector, _fmt_half, _parse_half
from cohoparam.rootdata import _expand_each_in_basis


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
    assert (v + (-v)).is_zero


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
    "text", ["", "x", "1/0", "1/3", "0.25", "1/2/2", "1e5000", "1_0", "inf"]
)
def test_parse_half_rejects(text):
    with pytest.raises(InvalidWeightError):
        _parse_half(text)


# The exact rational solve of half-integer systems lives in
# `rootdata._expand_each_in_basis`; these are its two textbook cases.


def test_solve_rational_exact():
    # 2x - y = 2 ; -x + 2y = 2  =>  x = y = 2
    columns = [HalfIntVector.from_ints(2, -1), HalfIntVector.from_ints(-1, 2)]
    (sol,) = _expand_each_in_basis(columns, [HalfIntVector.from_ints(2, 2)])
    assert sol == [Fraction(2), Fraction(2)]


def test_solve_rational_singular():
    # x + y = 1 ; 2x + 2y = 2: the columns are equal, no unique solution
    columns = [HalfIntVector.from_ints(1, 2)] * 2
    assert _expand_each_in_basis(columns, [HalfIntVector.from_ints(1, 2)]) == [None]
