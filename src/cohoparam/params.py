"""Parameters and their arithmetic atoms.

Two coordinate systems meet here:

* the *subset side*: a self-associate set S of simple roots of the dual
  group plus a compatible twisting weight, packaged as `CohomParameter`;
* the *atom side*: formal sums of two-dimensional pieces s{d}[m] and
  one-dimensional pieces w{eps}[a], packaged as `GLParameter` (self-dual
  coefficient field R) or `ComplexParameter` (pairs (d, m) over C).

`standard_rep_parameter` maps the first to the second by pushing the
principal sl2 of each Levi block through the standard representation of
the dual group, whose strings it reads off in closed form.  Parsing,
routing and transfer live in `cohoparam.transfer`, and the direct
enumerations in `cohoparam.direct`; only the commands that run them load
them.

Conventions:

* s{d}[m] is irreducible two-dimensional with exponents +-d/2, tensored
  with the m-dimensional sl2 piece; it is symplectic iff exactly one of
  (d odd), (m even) holds; its determinant is w^(m) when d is even and
  trivial when d is odd.
* w{eps}[a] is the one-dimensional character with sign eps tensored with
  [a]; symplectic iff a is even; determinant w^(eps*a).
* a global half-integral twist nu^b is stored doubled (`twist2 = 2b`) and
  shifts every exponent by b; the exponents themselves are kept doubled
  too, as `halfint` keeps every half-integer (`doubled_exponents()`).
* where a sign eps is genuinely free (symplectic-valued parameters, and
  even-signature zero pairs), the canonical choice is eps = 0 and the
  parameter carries `omega_pair = True`; where the determinant class pins
  it down, it is solved for.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property, lru_cache
from operator import attrgetter

from ._record import record
from .errors import InvalidWeightError, MathCheckError
from .halfint import HalfIntVector, _fmt_half
from .rootdata import RootDatum, build_classical_dual, dominant_orbit_rep

__all__ = [
    "TwoDimAtom",
    "QuadAtom",
    "GLParameter",
    "ComplexParameter",
    "CohomParameter",
    "enumerate_cohomological",
    "standard_rep_parameter",
]


# ---------------------------------------------------------------------------
# atoms


@record
class TwoDimAtom:
    """s{d}[m]: the two-dimensional piece with exponents +-d/2 times [m]."""

    d: int
    m: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.m < 1:
            raise ValueError(f"bad atom s{self.d}[{self.m}]")

    @property
    def dim(self) -> int:
        return 2 * self.m

    @property
    def is_symplectic(self) -> bool:
        return (self.d % 2 == 1) != (self.m % 2 == 0)

    @property
    def det_exponent(self) -> int:
        return self.m % 2 if self.d % 2 == 0 else 0

    def text(self) -> str:
        return f"s{self.d}[{self.m}]"

    # kept on the instance; the memoized atoms of images sort and print often
    _key = cached_property(lambda self: (0, -self.d, -self.m, 0))
    _text = cached_property(text)


@record
class QuadAtom:
    """w{eps}[a]: the order-two character to the eps times [a]."""

    eps: int
    a: int

    def __post_init__(self) -> None:
        if self.eps not in (0, 1) or self.a < 1:
            raise ValueError(f"bad atom w{self.eps}[{self.a}]")

    @property
    def dim(self) -> int:
        return self.a

    @property
    def is_symplectic(self) -> bool:
        return self.a % 2 == 0

    @property
    def det_exponent(self) -> int:
        return (self.eps * self.a) % 2

    def text(self) -> str:
        return f"w{self.eps}[{self.a}]"

    _key = cached_property(lambda self: (1, -self.a, self.eps, 0))
    _text = cached_property(text)


Atom = TwoDimAtom | QuadAtom


_atom_sort_key = attrgetter("_key")
_atom_text = attrgetter("_text")


def _falling_string_entries(strings, shift2: int) -> list[int]:
    """The doubled entries of the strings (x2, m) -- x2 + m - 1, x2 + m - 3,
    ..., x2 - m + 1 -- each shifted by `shift2`, all of them falling."""
    entries = (x2 + shift2 + m - 1 - 2 * k for x2, m in strings for k in range(m))
    return sorted(entries, reverse=True)


# ---------------------------------------------------------------------------
# self-dual (real-coefficient) parameters


@record
class GLParameter:
    """A formal sum of atoms, optionally twisted by nu^(twist2/2).

    The constructor is permissive: it sorts the atoms canonically and
    checks only the atoms' own field ranges; `selfdual_type` reports the
    self-duality type, and `doubled_exponents()` the infinitesimal character,
    doubled.
    """

    atoms: tuple[Atom, ...]
    twist2: int = 0
    omega_pair: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "atoms", tuple(sorted(self.atoms, key=_atom_sort_key))
        )

    @property
    def dimension(self) -> int:
        return sum(a.dim for a in self.atoms)

    @property
    def det_exponent(self) -> int:
        return sum(a.det_exponent for a in self.atoms) % 2

    def _strings(self) -> list[tuple[int, int]]:
        """The strings (x2, m), atom by atom: (d, m) and (-d, m) for each
        s{d}[m], (0, a) for each w{eps}[a]."""
        strings = []
        for a in self.atoms:
            strings += [(a.d, a.m), (-a.d, a.m)] if isinstance(a, TwoDimAtom) else [(0, a.a)]
        return strings

    def doubled_exponents(self) -> list[int]:
        """The doubled exponents, falling: the entries of `_strings`, shifted
        by the twist."""
        return _falling_string_entries(self._strings(), self.twist2)

    @property
    def selfdual_type(self) -> str:
        """'orthogonal' | 'symplectic' | 'mixed' | 'twisted'."""
        if self.twist2 != 0:
            return "twisted"
        if not self.atoms:
            return "orthogonal"
        kinds = {a.is_symplectic for a in self.atoms}
        if kinds == {True}:
            return "symplectic"
        if kinds == {False}:
            return "orthogonal"
        return "mixed"

    def central_parity_ok(self) -> tuple[bool, list[bool]]:
        """Per-atom sign of the central element against the parity of N."""
        return _central_parity(self, (self.dimension - 1) % 2)

    def text(self) -> str:
        body = "+".join(map(_atom_text, self.atoms)) if self.atoms else "0"
        if self.twist2:
            body += f"*nu^{_fmt_half(self.twist2)}"
        return body

    def omega_twist(self) -> "GLParameter":
        """Tensor with the order-two character: flips every quad's sign."""
        flipped = tuple(
            QuadAtom(1 - a.eps, a.a) if isinstance(a, QuadAtom) else a
            for a in self.atoms
        )
        return GLParameter(flipped, self.twist2, self.omega_pair)

    def orbit_key(self) -> str:
        """Canonical text of the twist orbit {self, self (x) omega}."""
        return min(self.text(), self.omega_twist().text())


# ---------------------------------------------------------------------------
# complex-coefficient parameters


@record
class ComplexParameter:
    """A formal sum of pieces (z-exponent d, sl2-size m); d stored doubled."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for two_d, m in self.entries:
            if m < 1:
                raise ValueError(f"bad entry ({two_d}, {m})")
        object.__setattr__(
            self,
            "entries",
            tuple(sorted(self.entries, reverse=True)),
        )

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.entries)

    def doubled_exponents(self) -> list[int]:
        """The doubled exponents, falling: the string of each entry."""
        return _falling_string_entries(self.entries, 0)

    def central_parity_ok(self) -> tuple[bool, list[bool]]:
        return _central_parity(self, (self.dimension - 1) % 2)

    def text(self) -> str:
        if not self.entries:
            return "0"
        return "+".join(map(_entry_text, self.entries))


# the entries of images repeat across parameters
_entry_text = lru_cache(maxsize=1024)(lambda e: f"e{_fmt_half(e[0])}[{e[1]}]")


# ---------------------------------------------------------------------------
# subset-side parameters


@lru_cache(maxsize=128)
def _at_weight(datum: RootDatum, lam: HalfIntVector) -> tuple:
    """What a parameter reads off (datum, lam) alone, once per pair.

    Raises on a wrong length, a non-integral or a non-theta-fixed weight;
    returns 4 <lam, alpha_i-check> for i = 1..rank (both vectors are stored
    doubled), read on the coroot's at most two nonzero entries, so in O(n);
    the first i where it is negative (None for a dominant weight), the
    infinitesimal character (the dominant representative of
    W.(lam + rho-check)), the dict of `_split_cell` pieces of the Levi
    blocks met so far at this weight, and the set of i where it is zero.
    """
    if len(lam) != datum.ambient_dim:
        raise InvalidWeightError(
            f"weight has {len(lam)} coordinates, expected {datum.ambient_dim}"
        )
    if not datum.weight_is_integral(lam):
        raise InvalidWeightError(f"{lam} is not integral for {datum.descriptor}")
    if datum.theta_linear.apply(lam) != lam:
        raise InvalidWeightError(f"{lam} is not theta-fixed")
    lam2 = lam.twice
    pairings = tuple([sum([lam2[k] * t for k, t in c]) for _, c in datum._simple_pairs])
    first_negative = next((i for i, p in enumerate(pairings, 1) if p < 0), None)
    inf_char = dominant_orbit_rep(datum, lam + datum.rho_check)
    zero = frozenset(i for i, p in enumerate(pairings, 1) if not p)
    return pairings, first_negative, inf_char, {}, zero


@record
class CohomParameter:
    """A self-associate subset of simple roots plus a compatible weight.

    Validity (checked eagerly; the checks of `lam` alone run once per
    (datum, lam) in `_at_weight`, those of S for every parameter, as set
    operations on what `_at_weight` keeps):

    * `lam` is an integral dominant weight fixed by theta;
    * S is stable under theta;
    * `lam` pairs to zero with every coroot indexed by S.

    Every parameter at one (datum, lam) keeps a reference to the same
    `_at_weight` record, ``_weight``; it is not a field, so eq, hash and
    repr do not see it.
    """

    datum: RootDatum
    S: frozenset[int]
    lam: HalfIntVector

    def __post_init__(self) -> None:
        d, S = self.datum, self.S
        object.__setattr__(self, "_weight", weight := _at_weight(d, self.lam))
        # valid exactly when lam is dominant, S lies in its zero set and S is
        # theta-stable; only an invalid parameter pays for the wording scan
        if weight[1] is None and weight[4].issuperset(S) and (
            d._theta_moved.isdisjoint(S) or d.theta_subset(S) == S
        ):
            return
        rank = d.rank
        pairings, first_negative = weight[:2]
        # dominance and S-singularity are one scan over alpha_1..alpha_rank:
        # the lowest failing index decides which of the two is reported
        first_in_s = min(
            (i for i in self.S if 1 <= i <= rank and pairings[i - 1]), default=None
        )
        if first_negative is not None and (
            first_in_s is None or first_negative <= first_in_s
        ):
            raise InvalidWeightError(
                f"{self.lam} is not dominant (alpha_{first_negative})"
            )
        if first_in_s is not None:
            # 4 <lam, alpha-check> is even: every doubled coroot entry is +-2 or 4
            raise InvalidWeightError(
                f"weight pairs to {_fmt_half(pairings[first_in_s - 1] // 2)} with "
                f"alpha_{first_in_s}, which lies in S"
            )
        if not all(1 <= i <= rank for i in self.S):
            raise InvalidWeightError(f"S = {sorted(self.S)} out of range")
        if d.theta_subset(self.S) != self.S:
            raise InvalidWeightError(f"S = {sorted(self.S)} is not self-associate")

    @property
    def inf_char(self) -> HalfIntVector:
        return self._weight[2]

    @property
    def central_ok(self) -> bool:
        """(-1)^(2 chi + sl2) equals (-1)^(2 rho-check), coordinatewise.

        With rho-check_L the Levi's, chi = lam + rho-check - rho-check_L and
        sl2 = 2 rho-check_L, so 2 chi + sl2 = 2 (lam + rho-check) whatever S
        is: the check holds exactly when every entry of lam is an integer.
        """
        return not any(t % 2 for t in self.lam.twice)


def enumerate_cohomological(
    descriptor: str | RootDatum, lam: HalfIntVector | None = None
) -> tuple[CohomParameter, ...]:
    """All subset-side parameters for a group at one coefficient weight.

    Subsets run over the theta-stable subsets of the singular support of
    `lam`, ordered by (size, lexicographic).
    """
    datum = (
        descriptor
        if isinstance(descriptor, RootDatum)
        else build_classical_dual(descriptor)
    )
    if lam is None:
        lam = HalfIntVector((0,) * datum.ambient_dim)
    # validate the weight once through the parameter with S = {}
    singular = CohomParameter(datum, frozenset(), lam)._weight[4]
    # lam is theta-fixed, so the involution theta maps the singular set to
    # itself, and its theta-stable subsets are the unions of the orbits
    # {i, theta(i)} inside it: 2**len(orbits) of them, each built once
    orbits = [o for o in datum._theta_orbits if o <= singular]
    subsets = [
        tuple(sorted(itertools.chain.from_iterable(combo)))
        for r in range(len(orbits) + 1)
        for combo in itertools.combinations(orbits, r)
    ]
    subsets.sort(key=lambda t: (len(t), t))
    return tuple(CohomParameter(datum, frozenset(t), lam) for t in subsets)


# ---------------------------------------------------------------------------
# images: the strings of each Levi block -> atoms
#
# exponents are doubled ints throughout, as in `halfint`


# the two-dimensional atoms of images repeat across parameters; each is immutable
_two_dim_atom = lru_cache(maxsize=1024)(TwoDimAtom)


def _assign_quad_eps(
    quadlens: list[int],
    twodim_det: int,
    delta: int | None,
) -> tuple[list[QuadAtom], bool]:
    """Choose the signs on zero strings.

    delta None -- no determinant constraint (or, symplectic-valued, a sign
                  the form cannot see): eps = 0, flag the orbit;
    delta 0/1  -- determinant class must come out to delta, the two-dim
                  atoms contributing twodim_det: duplicated lengths split
                  {0,1} or {0,0} by parity, then the smallest single length
                  absorbs the rest.
    """
    if delta is None:
        return [QuadAtom(0, a) for a in quadlens], bool(quadlens)
    counts = Counter(quadlens)
    if any(c > 2 for c in counts.values()):
        raise MathCheckError(f"zero string repeated 3+ times: {quadlens}")
    if any(a % 2 == 0 for a in counts):
        raise MathCheckError(
            f"even zero string in a determinant-constrained parameter: {quadlens}"
        )
    doubles = sorted((a for a, c in counts.items() if c == 2), reverse=True)
    singles = sorted((a for a, c in counts.items() if c == 1), reverse=True)
    atoms: list[QuadAtom] = []
    flag = False
    need = (delta - twodim_det) % 2
    # try to settle each doubled length as {0,0} first, spending need on it
    # only if no single can absorb it
    for a in doubles:
        if need and not singles:
            atoms += QuadAtom(0, a), QuadAtom(1, a)
            need = (need - a) % 2
        else:
            atoms += QuadAtom(0, a), QuadAtom(0, a)
            flag = True
    eps_map = {a: 0 for a in singles}
    if need:
        if not singles:
            raise MathCheckError(
                f"determinant class {delta} unreachable with zero strings {quadlens}"
            )
        eps_map[singles[-1]] = 1
    atoms.extend(QuadAtom(eps_map[a], a) for a in singles)
    return atoms, flag


# the zero strings of images repeat across parameters; callers only read the shared result
_image_quad_eps = lru_cache(maxsize=256)(_assign_quad_eps)

# the zero strings of a block that holds the last simple root (for SO_even,
# both fork roots), by its number m of coordinates: the standard
# representation of SO(2m+1), Sp(2m) or SO(2m) under its principal sl2
_TAIL_STRINGS = {
    "Sp_R": lambda m: (2 * m + 1,),
    "SO_odd": lambda m: (2 * m,),
    "SO_even": lambda m: (2 * m - 1, 1),
}


def _split_cell(datum: RootDatum, lam: HalfIntVector, cell: tuple) -> tuple:
    """The strings of one block of `RootDatum._levi_blocks` in closed form,
    in two parts, and the determinant parity of the first: for U all
    (x2, m) and (); for GL_C those of each factor (parity 0); for the
    self-dual families the two-dim atoms and the zero-string lengths.

    Coordinate k carries the pair (lam2 + rho-check2 - h, h), h its entry of
    2 rho-check_L; a block of m coordinates without a tail holds one string:

    * a block with roots gives (lam2 + rho-check2 - (m - 1), m), read at its
      first coordinate: the roots lie in the zero set of lam, so lam is
      constant on the block (up to the sign of the last coordinate for a D
      block with one fork root), rho-check drops by one per coordinate, and
      h runs m - 1, m - 3, ..., -(m - 1) (the principal sl2 of GL(m));
    * a block without roots gives (lam2 + rho-check2, 1) per coordinate.

    A tail block (`RootDatum._holds_tail`) has lam = 0 and rho-check_L =
    rho-check on it, so all its pairs sit at exponent 0, and its image is
    `_TAIL_STRINGS`; Sp_R's extra (0, 0) is the centre of its string 2m + 1:

    >>> zero = HalfIntVector((0,) * 4)
    >>> _split_cell(build_classical_dual("Sp(8,R)"), zero, ((3, 4), 2, 3))
    ((), (5,), 0)
    >>> _split_cell(build_classical_dual("SO(5,4)"), zero, ((3, 4), 2, 3))
    ((), (4,), 0)
    >>> _split_cell(build_classical_dual("SO(4,4)"), zero, ((3, 4), 2, 3))
    ((), (3, 1), 0)

    In a self-dual image every string (x2, m) comes with its mirror
    (-x2, m): the pair is s|x2|[m] when x2 is not 0 and two zero strings of
    length m when it is.  For GL_R and SL_R the mirror is the string at
    theta's image of the block, k -> n-1-k, which must read -x2; a string
    that is its own mirror is one zero string, and a string after its
    mirror is left to the mirror's block.
    """
    roots, first, last = cell
    fam, n = datum.family, datum.ambient_dim
    m = last - first + 1
    if datum._holds_tail(roots):
        return (), _TAIL_STRINGS[fam](m), 0
    lam2, rho2 = lam.twice, datum.rho_check.twice
    # (first coordinate, length) of each string
    units = [(first, m)] if roots else [(k, 1) for k in range(first, last + 1)]
    strings = [(lam2[a] + rho2[a] - (k - 1), k) for a, k in units]
    if fam in ("U", "GL_C"):
        j = len(units) if fam == "U" else sum(a < n // 2 for a, _ in units)
        return tuple(strings[:j]), tuple(strings[j:]), 0
    mirrored = fam in ("GL_R", "SL_R")
    twodims, quadlens = [], []
    for (a, k), (x, _) in zip(units, strings):
        b = n - k - a  # theta's image of coordinates a..a+k-1 starts at b
        if mirrored:
            if a > b:
                continue
            mirror = lam2[b] + rho2[b] - (k - 1)
            if mirror != -x:
                raise MathCheckError(
                    f"image is not self-dual: string ({_fmt_half(x)}, {k}) "
                    f"against its mirror ({_fmt_half(mirror)}, {k})"
                )
        if x:
            twodims.append(_two_dim_atom(abs(x), k))
        else:
            quadlens += (k,) if mirrored and a == b else (k, k)
    return tuple(twodims), tuple(quadlens), sum(t.det_exponent for t in twodims)


def standard_rep_parameter(cohom: CohomParameter) -> GLParameter | ComplexParameter:
    """Push a subset-side parameter through the dual standard representation.

    Restricted to the dual Levi, the standard representation is the direct
    sum of the blocks' (Vogan-Zuckerman; Adams-Johnson), and the principal
    sl2 of each block goes through it with a known Jordan type: m for a
    type-A block of m coordinates, and 2m + 1, 2m or (2m - 1, 1) for a B_m,
    C_m or D_m tail.  So the image is the blocks' strings put together,
    each block's read off in closed form (`_split_cell`) once per
    (datum, lam) and kept in the parameter's `_at_weight` record.
    """
    datum, lam = cohom.datum, cohom.lam
    fam, n = datum.family, datum.ambient_dim
    memo = cohom._weight[3]
    one, two, det = [], [], 0
    for cell in datum._levi_blocks(cohom.S):
        piece = memo.get(cell)
        if piece is None:
            piece = memo[cell] = _split_cell(datum, lam, cell)
        one += piece[0]
        two += piece[1]
        det += piece[2]
    if fam in ("U", "GL_C"):
        if fam == "GL_C" and Counter((-x, m) for x, m in one) != Counter(two):
            raise MathCheckError("second factor is not the conjugate of the first")
        return ComplexParameter(tuple(one))
    # self-dual families: the determinant class constrains the quad signs
    delta = 0 if fam == "Sp_R" else None
    if fam == "SO_even":
        delta = (datum.signature[1] - n) % 2
    if fam == "Sp_R" and datum.rank not in cohom.S:
        two.append(1)  # the extra (0, 0) of Sp_R, alone: w[1]
    two.sort(reverse=True)
    quads, flag = _image_quad_eps(tuple(two), det % 2, delta)
    return GLParameter(tuple(one + quads), 0, flag)


# ---------------------------------------------------------------------------
# the composition walker and the central-character rule
#
# both stay here, out of `cohoparam.transfer`: `cohomology` walks the
# compositions, and the parameters' `central_parity_ok` reads the rule


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _self_dual_compositions(n: int):
    """The compositions of n equal to their own reversal: a half, an
    optional middle block, then the half reversed."""
    for m in range(n // 2 + 1):
        middle = (n - 2 * m,) if n > 2 * m else ()
        for half in _compositions(m):
            yield half + middle + half[::-1]


def _central_parity(
    param: GLParameter | ComplexParameter, parity: int
) -> tuple[bool, list[bool]]:
    """The one central-character rule: a string (x2, m) of `param` -- (d, m)
    for s{d}[m], (0, a) for w{eps}[a], an entry of a `ComplexParameter` --
    sits on the lattice of a rho-check whose doubled entries have this
    parity when x2 + m - 1 has it."""
    if isinstance(param, ComplexParameter):
        strings = param.entries
    else:
        strings = [(a.d, a.m) if isinstance(a, TwoDimAtom) else (0, a.a) for a in param.atoms]
    per = [(x2 + m - 1) % 2 == parity for x2, m in strings]
    return all(per), per


def __getattr__(name: str):
    # one consumer: `perfbench/layertrace.py`, which finds its layer
    # "params.transfer_cohom" here; the library imports from `.transfer`
    if name == "transfer_cohom":
        from .transfer import transfer_cohom

        return transfer_cohom
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
