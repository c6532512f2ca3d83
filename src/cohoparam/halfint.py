"""Exact half-integer vectors.

Everything downstream (weights, roots, coroots, infinitesimal characters,
the exponents of parameters) lives in (1/2)Z^n.  Entries are stored as
*doubled* integers, so all vector arithmetic is integer arithmetic,
parsing included.  The two `fractions.Fraction` views, iteration and
`dot`, import `fractions` (with the `decimal` and `numbers` it loads) when
called; no command calls them, so none loads it.  No floats anywhere.

>>> v = HalfIntVector.parse("3/2,1,-1/2")
>>> str(v)
'3/2,1,-1/2'
>>> str(v + v)
'3,2,-1'
>>> v.dot(HalfIntVector.from_ints(2, 0, 2))
Fraction(2, 1)
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from functools import cached_property

from ._record import record
from .errors import InvalidWeightError

__all__ = ["HalfIntVector"]


# a rational written `a`, `a/b` or `a.d`; exponents such as `1e5000`,
# whose value is too long to print, are refused.  Compiled on first use,
# through `re`'s cache: most commands parse no half-integer
_RATIONAL = r"\s*([+-]?)(\d+)(?:/(\d+)|\.(\d+))?\s*"


def _parse_half(text: str, what: str = "entry") -> int:
    """The doubled int of half-integer text `a`, `a/2` or `a.5`, read with
    int arithmetic: `a/b` is a / b, and `a.d` is (a 10^len(d) + d) / 10^len(d).

    >>> [_parse_half(t) for t in ("3", "-3/2", "2.5")]
    [6, -3, 5]
    """
    m = re.fullmatch(_RATIONAL, text)
    num = den = 0
    if m:
        _, whole, over, dec = m.groups()
        try:  # int() refuses a run of digits past the interpreter's limit
            num, den = int(whole), int(over or 1)
            if dec:
                den = 10 ** len(dec)
                num = num * den + int(dec)
        except ValueError:
            den = 0
    if not den:
        raise InvalidWeightError(f"bad {what} {text!r}")
    twice, rest = divmod(2 * num, den)
    if rest:
        raise InvalidWeightError(f"{what} {text!r} is not half-integral")
    return -twice if m[1] == "-" else twice


def _fmt_half(twice: int) -> str:
    """The text of the half-integer whose doubled int is `twice`.

    >>> [_fmt_half(t) for t in (6, -3, 0)]
    ['3', '-3/2', '0']
    """
    if twice % 2 == 0:
        return str(twice // 2)
    return f"{twice}/2"


@record
class HalfIntVector:
    """A vector in (1/2)Z^n, stored as the tuple of doubled entries."""

    twice: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(t, int) for t in self.twice):
            raise TypeError("doubled entries must be ints")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_ints(cls, *entries: int) -> "HalfIntVector":
        return cls(tuple(2 * e for e in entries))

    @classmethod
    def zero(cls, n: int) -> "HalfIntVector":
        return cls((0,) * n)

    @classmethod
    def parse(cls, text: str) -> "HalfIntVector":
        """Parse comma-separated entries; each entry is `a`, `a/2`, or `a.5`."""
        parts = [p.strip() for p in text.split(",")] if text.strip() else []
        if "" in parts:
            raise InvalidWeightError(f"empty entry in weight string {text!r}")
        return cls(tuple(_parse_half(p, "weight entry") for p in parts))

    # -- basic structure ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.twice)

    def __iter__(self) -> Iterator["Fraction"]:
        from fractions import Fraction

        return (Fraction(t, 2) for t in self.twice)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "HalfIntVector") -> "HalfIntVector":
        self._check_len(other)
        return HalfIntVector(tuple(a + b for a, b in zip(self.twice, other.twice)))

    def __sub__(self, other: "HalfIntVector") -> "HalfIntVector":
        self._check_len(other)
        return HalfIntVector(tuple(a - b for a, b in zip(self.twice, other.twice)))

    def __neg__(self) -> "HalfIntVector":
        return HalfIntVector(tuple(-a for a in self.twice))

    def scale(self, num: int, den: int = 1) -> "HalfIntVector":
        """Exact scalar multiple by num/den; raises if the result leaves (1/2)Z."""
        out = []
        for t in self.twice:
            q, r = divmod(t * num, den)
            if r:
                raise ValueError(f"scaling by {num}/{den} leaves half-integers")
            out.append(q)
        return HalfIntVector(tuple(out))

    def dot(self, other: "HalfIntVector") -> "Fraction":
        from fractions import Fraction

        self._check_len(other)
        return Fraction(sum(a * b for a, b in zip(self.twice, other.twice)), 4)

    def _check_len(self, other: "HalfIntVector") -> None:
        if len(self.twice) != len(other.twice):
            raise ValueError(
                f"length mismatch: {len(self.twice)} vs {len(other.twice)}"
            )

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return self._text

    # kept on the instance: a memoized infinitesimal character is printed
    # once per parameter
    _text = cached_property(lambda self: ",".join(map(_fmt_half, self.twice)))

    def __repr__(self) -> str:
        return f"HalfIntVector.parse({str(self)!r})"


if __name__ == "__main__":
    import doctest

    doctest.testmod()
