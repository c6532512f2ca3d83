"""Parameters and their arithmetic atoms.

Two coordinate systems meet here:

* the *subset side*: a self-associate set S of simple roots of the dual
  group plus a compatible twisting weight, packaged as `CohomParameter`;
* the *atom side*: formal sums of two-dimensional pieces s{d}[m] and
  one-dimensional pieces w{eps}[a], packaged as `GLParameter` (self-dual
  coefficient field R) or `ComplexParameter` (pairs (d, m) over C).

`standard_rep_parameter` maps the first to the second by pushing the
principal sl2 of each Levi block through the standard representation of
the dual group, whose strings it reads off in closed form.
Independent direct enumerations (`enumerate_gl_real`,
`enumerate_selfdual`, `enumerate_complex_cohomological`) recover the same
sets from the infinitesimal character alone, which is what the test suite
leans on.

Conventions:

* s{d}[m] is irreducible two-dimensional with exponents +-d/2, tensored
  with the m-dimensional sl2 piece; it is symplectic iff exactly one of
  (d odd), (m even) holds; its determinant is w^(m) when d is even and
  trivial when d is odd.
* w{eps}[a] is the one-dimensional character with sign eps tensored with
  [a]; symplectic iff a is even; determinant w^(eps*a).
* a global half-integral twist nu^b is stored doubled (`twist2 = 2b`) and
  shifts every exponent by b.
* where a sign eps is genuinely free (symplectic-valued parameters, and
  even-signature zero pairs), the canonical choice is eps = 0 and the
  parameter carries `omega_pair = True`; where the determinant class pins
  it down, it is solved for.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from collections.abc import Callable
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter, mul

from ._record import record
from .errors import (
    InvalidWeightError,
    MathCheckError,
    UnsupportedGroupError,
)
from .halfint import HalfIntVector, _fmt_half, _parse_half
from .rootdata import (
    RootDatum,
    build_classical_dual,
    dominant_orbit_rep,
    is_regular_orbit,
)

__all__ = [
    "TwoDimAtom",
    "QuadAtom",
    "GLParameter",
    "ComplexParameter",
    "CohomParameter",
    "parse_gl_parameter",
    "enumerate_cohomological",
    "standard_rep_parameter",
    "enumerate_gl_real",
    "enumerate_selfdual",
    "gl_cascade_parameters",
    "enumerate_complex_cohomological",
    "gl_coefficient_weight",
    "tempered_companion",
    "route_selfdual",
    "RouteResult",
    "transfer_weight",
    "transfer_cohom",
    "TransferResult",
    "TRANSFER_KINDS",
    "central_value_report",
    "CentralReport",
]


# ---------------------------------------------------------------------------
# atoms


@record(order=True)
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

    def exponents(self) -> list[Fraction]:
        out = []
        for k in range(self.m):
            shift = Fraction(self.m - 1 - 2 * k, 2)
            out.append(Fraction(self.d, 2) + shift)
            out.append(Fraction(-self.d, 2) + shift)
        return out

    def text(self) -> str:
        return f"s{self.d}[{self.m}]"

    # kept on the instance; the memoized atoms of images sort and print often
    _key = cached_property(lambda self: (0, -self.d, -self.m, 0))
    _text = cached_property(text)


@record(order=True)
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

    def exponents(self) -> list[Fraction]:
        return [Fraction(self.a - 1 - 2 * k, 2) for k in range(self.a)]

    def text(self) -> str:
        return f"w{self.eps}[{self.a}]"

    _key = cached_property(lambda self: (1, -self.a, self.eps, 0))
    _text = cached_property(text)


Atom = TwoDimAtom | QuadAtom


_atom_sort_key = attrgetter("_key")
_atom_text = attrgetter("_text")


# ---------------------------------------------------------------------------
# self-dual (real-coefficient) parameters


@record
class GLParameter:
    """A formal sum of atoms, optionally twisted by nu^(twist2/2).

    The constructor is permissive: it sorts the atoms canonically and
    checks only the atoms' own field ranges; `selfdual_type` reports the
    self-duality type, and `exponents()` the infinitesimal character.
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

    def exponents(self) -> list[Fraction]:
        shift = Fraction(self.twist2, 2)
        out = []
        for a in self.atoms:
            out.extend(e + shift for e in a.exponents())
        return sorted(out, reverse=True)

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


_GL_ATOM_RE = re.compile(r"^(s|w)(\d+)(?:\[(\d+)\])?$")


def parse_gl_parameter(text: str) -> GLParameter:
    """Parse `s3[2]+w0[1]` style text, with optional `*nu^b` suffix."""
    body = text.strip()
    twist2 = 0
    if "*nu^" in body:
        body, _, tw = body.partition("*nu^")
        twist2 = _parse_half(tw, "twist")
    atoms: list[Atom] = []
    if body not in ("", "0"):
        for piece in body.split("+"):
            m = _GL_ATOM_RE.match(piece.strip())
            if not m:
                raise InvalidWeightError(f"bad atom {piece!r}")
            kind, first, bracket = m.groups()
            size = int(bracket) if bracket else 1
            try:
                if kind == "s":
                    atoms.append(TwoDimAtom(int(first), size))
                else:
                    atoms.append(QuadAtom(int(first), size))
            except ValueError as exc:
                raise InvalidWeightError(str(exc)) from exc
    return GLParameter(tuple(atoms), twist2)


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

    def exponents(self) -> list[Fraction]:
        out = []
        for two_d, m in self.entries:
            for k in range(m):
                out.append(Fraction(two_d, 2) + Fraction(m - 1 - 2 * k, 2))
        return sorted(out, reverse=True)

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
    doubled), the first i where it is negative (None for a dominant weight),
    the infinitesimal character (the dominant representative of
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
    pairings = tuple(sum(map(mul, lam.twice, c.twice)) for c in datum.simple_coroots)
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
            raise InvalidWeightError(
                f"weight pairs to {Fraction(pairings[first_in_s - 1], 4)} with "
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


# the atoms of images repeat across parameters; each is immutable
_two_dim_atom = lru_cache(maxsize=1024)(TwoDimAtom)
_quad_atom = lru_cache(maxsize=256)(QuadAtom)


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
        return [_quad_atom(0, a) for a in quadlens], bool(quadlens)
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
            atoms += _quad_atom(0, a), _quad_atom(1, a)
            need = (need - a) % 2
        else:
            atoms += _quad_atom(0, a), _quad_atom(0, a)
            flag = True
    eps_map = {a: 0 for a in singles}
    if need:
        if not singles:
            raise MathCheckError(
                f"determinant class {delta} unreachable with zero strings {quadlens}"
            )
        eps_map[singles[-1]] = 1
    atoms.extend(_quad_atom(eps_map[a], a) for a in singles)
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


def _cohomological_preimage(datum: RootDatum, param: GLParameter) -> CohomParameter:
    """The parameter of an Sp_R, SO_odd or GL_R datum whose image is `param`,
    at the weight its exponents give: `_split_cell` run backwards.

    lam is the first n = `ambient_dim` entries of `gl_coefficient_weight(param,
    N)`, N = 2n + 1, 2n or n; the doubled entries e of lam + rho-check are
    distinct.  An s{d}[m] is the block of m coordinates from the k where
    e = d + m - 1, its simple roots k+1..k+m-1 in S; a w[a] is the tail of
    a // 2 coordinates (Sp_R, SO_odd) or the middle a coordinates (GL_R,
    where S is closed under i -> n - i).  No quad sign is read, and `param`
    need not be an image: the caller's image comparison makes this safe.
    """
    fam, n = datum.family, datum.ambient_dim
    N = n if fam == "GL_R" else 2 * n + (fam == "Sp_R")
    lam = HalfIntVector(gl_coefficient_weight(param, N).twice[:n])
    start = {x + r: k for k, (x, r) in enumerate(zip(lam.twice, datum.rho_check.twice))}
    S = set()
    for atom in param.atoms:
        if isinstance(atom, TwoDimAtom):
            k, m = start.get(atom.d + atom.m - 1), atom.m
            if k is None:
                raise InvalidWeightError(f"no coordinate of lam + rho-check starts {atom.text()}")
        elif fam == "GL_R":
            k, m = (n - atom.a) // 2, atom.a
        else:  # a tail of a // 2 coordinates holds the last simple root too
            k, m = n - atom.a // 2, atom.a // 2 + 1
        S.update(range(k + 1, k + m))
    if fam == "GL_R":
        S.update([n - i for i in S])
    return CohomParameter(datum, frozenset(S), lam)


# ---------------------------------------------------------------------------
# direct enumerations from the infinitesimal character


def _atom_sets(rem: Counter) -> list[tuple]:
    """All splittings of a symmetric exponent multiset into raw atoms.

    Raw atoms are ('s', d, m) and ('w', a); recursion is on the largest
    remaining exponent, which every covering atom must reach.
    """
    if not rem:
        return [()]
    x = max(rem)
    out = []

    def _minus(bag: Counter) -> Counter | None:
        nxt = rem.copy()
        for v, c in bag.items():
            if nxt[v] < c:
                return None
            nxt[v] -= c
            if not nxt[v]:
                del nxt[v]
        return nxt

    # two-dimensional options: top exponent x = (d + m - 1)/2.  When d < m
    # the two chains overlap; the multiset subtraction below is the only
    # gate needed (overlaps require doubled entries, e.g. the zero pair of
    # an even orthogonal exponent set).
    m = 0
    while True:
        m += 1
        d2 = 2 * x - m + 1
        if d2.denominator != 1:
            break  # exponents of mixed parity class: no two-dim atom at x
        d = int(d2)
        if d < 1:
            break
        chain = [x - k for k in range(m)]
        nxt = _minus(Counter(chain + [-c for c in chain]))
        if nxt is not None:
            for tail in _atom_sets(nxt):
                out.append((("s", d, m),) + tail)
    # one quad option: a = 2x + 1 covering the chain x .. -x
    a2 = 2 * x + 1
    if a2.denominator == 1 and x >= 0:
        a = int(a2)
        nxt = _minus(Counter(x - k for k in range(a)))
        if nxt is not None:
            for tail in _atom_sets(nxt):
                out.append((("w", a),) + tail)
    return out


def _finish_enumeration(
    raw_sets: list[tuple],
    twist2: int,
    valued_in: str | None,
    delta: int | None,
) -> tuple[GLParameter, ...]:
    results = []
    for raw in raw_sets:
        twodims = [TwoDimAtom(r[1], r[2]) for r in raw if r[0] == "s"]
        quadlens = sorted((r[1] for r in raw if r[0] == "w"), reverse=True)
        if valued_in == "orthogonal":
            if any(t.is_symplectic for t in twodims):
                continue
            if any(a % 2 == 0 for a in quadlens):
                continue
            twodim_det = sum(t.det_exponent for t in twodims) % 2
            try:
                quads, flag = _assign_quad_eps(quadlens, twodim_det, delta or 0)
            except MathCheckError:
                continue
        else:
            if valued_in == "symplectic" and (
                any(not t.is_symplectic for t in twodims)
                or any(a % 2 == 1 for a in quadlens)
            ):
                continue
            quads, flag = _assign_quad_eps(quadlens, 0, None)
        results.append(GLParameter(tuple(twodims + quads), twist2, flag))
    results.sort(key=lambda p: p.text())
    return tuple(results)


def enumerate_gl_real(n: int, lam: HalfIntVector | None = None) -> tuple[GLParameter, ...]:
    """Every self-dual-up-to-twist parameter with the given coefficients.

    Works straight from the exponent multiset lam + rho-check of GL(n),
    independently of the subset-side construction.
    """
    if lam is None:
        lam = HalfIntVector((0,) * n)
    if len(lam) != n:
        raise InvalidWeightError(f"weight has {len(lam)} coordinates, expected {n}")
    entries = list(lam)
    if any(e.denominator != 1 for e in entries):
        raise InvalidWeightError(f"{lam} is not an integral weight")
    if any(entries[i] < entries[i + 1] for i in range(n - 1)):
        raise InvalidWeightError(f"{lam} is not dominant")
    big = [entries[i] + Fraction(n - 1 - 2 * i, 2) for i in range(n)]
    csums = {big[i] + big[n - 1 - i] for i in range(n)}
    if len(csums) != 1:
        raise InvalidWeightError(
            f"{lam} is not self-dual up to twist: exponent sums {sorted(csums)}"
        )
    c = csums.pop() / 2
    twist2 = 2 * c
    if twist2.denominator != 1:
        raise InvalidWeightError(f"twist {c} is not half-integral")
    sym = Counter(b - c for b in big)
    return _finish_enumeration(_atom_sets(sym), int(twist2), None, None)


def enumerate_selfdual(
    entries: list[Fraction] | HalfIntVector,
    valued_in: str,
    delta: int | None = None,
) -> tuple[GLParameter, ...]:
    """All orthogonal- or symplectic-valued parameters with given exponents.

    `entries` is the full symmetric exponent multiset of the standard
    representation (dimension many entries).  For 'orthogonal' a
    determinant class `delta` may be imposed.
    """
    if valued_in not in ("orthogonal", "symplectic"):
        raise ValueError(f"valued_in = {valued_in!r}")
    bag = Counter(Fraction(e) for e in entries)
    if any(bag[-v] != c for v, c in bag.items()):
        raise InvalidWeightError("exponent multiset is not symmetric")
    return _finish_enumeration(_atom_sets(bag), 0, valued_in, delta)


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


def _block_compositions(n: int, lam: HalfIntVector | None, comps):
    """(composition, doubled block exponents) for each of the compositions
    `comps` of n on whose blocks `lam` is constant; the j-th block carries
    the exponent (n - n_j)/2 - (preceding sum) + its weight."""
    twice = (0,) * n if lam is None else lam.twice
    if len(twice) != n:
        raise InvalidWeightError(f"weight has {len(twice)} coordinates")
    for comp in comps:
        exps = []
        pos = 0
        for size in comp:
            if len(set(twice[pos : pos + size])) != 1:
                break
            exps.append(n - size - 2 * pos + twice[pos])
            pos += size
        else:
            yield comp, exps


def gl_cascade_parameters(
    n: int, lam: HalfIntVector | None = None
) -> tuple[GLParameter, ...]:
    """Second independent route: blocks of mirror-symmetric compositions.

    Each composition (n_1, ..., n_k) of n with n_j = n_{k+1-j} and
    block-constant weight contributes one parameter, twisted so that its
    block exponents pair off around zero.
    """
    out = []
    for comp, exps in _block_compositions(n, lam, _self_dual_compositions(n)):
        k = len(comp)
        sums = {exps[j] + exps[k - 1 - j] for j in range(k)}
        if len(sums) != 1:
            continue
        total = sums.pop()
        if total % 2:
            continue
        twist2 = total // 2
        two_ds = [exps[j] - twist2 for j in range(k // 2)]
        if any(d <= 0 for d in two_ds):
            continue
        quadlens = []
        if k % 2 == 1:  # the middle block's own pair sum makes its exponent twist2
            quadlens.append(comp[k // 2])
        quads, flag = _assign_quad_eps(quadlens, 0, None)
        atoms = [TwoDimAtom(d, m) for d, m in zip(two_ds, comp)]
        out.append(GLParameter(tuple(atoms + quads), twist2, flag))
    out.sort(key=lambda p: p.text())
    return tuple(out)


def enumerate_complex_cohomological(
    n: int, lam: HalfIntVector | None = None
) -> tuple[ComplexParameter, ...]:
    """Direct route for complex-coefficient parameters: one per composition
    with block-constant weight."""
    seen = {}
    for comp, exps in _block_compositions(n, lam, _compositions(n)):
        p = ComplexParameter(tuple(zip(exps, comp)))
        seen.setdefault(p.text(), p)
    return tuple(sorted(seen.values(), key=lambda p: p.text()))


def gl_coefficient_weight(param: GLParameter | ComplexParameter, n: int) -> HalfIntVector:
    """The dominant weight whose exponents the parameter carries."""
    exps = param.exponents()
    if len(exps) != n:
        raise InvalidWeightError(
            f"parameter has dimension {len(exps)}, expected {n}"
        )
    rho = [Fraction(n - 1 - 2 * i, 2) for i in range(n)]
    lam = [e - r for e, r in zip(exps, rho)]
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise InvalidWeightError("exponents are not dominant after the rho shift")
    return HalfIntVector.from_fractions(lam)


def tempered_companion(param: GLParameter) -> GLParameter:
    """The tempered parameter with the same exponents and determinant."""
    atoms: list[Atom] = []
    det_acc = 0
    pending_eps: list[int] = []
    for a in param.atoms:
        if isinstance(a, TwoDimAtom):
            if a.d < a.m:
                raise MathCheckError(f"{a.text()} has colliding exponents")
            for k in range(a.m):
                atoms.append(TwoDimAtom(a.d + a.m - 1 - 2 * k, 1))
        else:
            top = a.a - 1
            for t in range(top, 0, -2):
                atoms.append(TwoDimAtom(t, 1))
            if a.a % 2 == 1:
                spread = sum(1 for t in range(top, 0, -2))
                pending_eps.append((a.eps + spread) % 2)
    for eps in pending_eps:
        atoms.append(QuadAtom(eps, 1))
    out = GLParameter(tuple(atoms), param.twist2, param.omega_pair)
    if sorted(out.exponents()) != sorted(param.exponents()):
        raise MathCheckError("companion changed the exponents")
    return out


# ---------------------------------------------------------------------------
# self-dual classification and routing


@record
class RouteResult:
    target: str | None
    normalized: GLParameter
    reason: str


def route_selfdual(param: GLParameter) -> RouteResult:
    """Which classical family a self-dual parameter belongs to.

    Odd-dimensional orthogonal parameters are normalized to determinant
    one (flipping the sign on the smallest odd zero string) and sent to
    the symplectic group; even symplectic ones to the odd orthogonal
    family; even orthogonal ones to the even orthogonal family whose
    discriminant class is the parameter's determinant.
    """
    n = param.dimension
    kind = param.selfdual_type
    if kind == "twisted":
        return RouteResult(None, param, "nonzero twist: not self-dual")
    if kind == "mixed":
        return RouteResult(None, param, "mixed atoms: not orthogonal or symplectic")
    if kind == "symplectic":
        if n % 2 == 1:
            raise MathCheckError("odd-dimensional symplectic parameter")
        half = n // 2
        a = half + 1 if half % 2 == 1 else half
        b = (n + 1) - a
        return RouteResult(f"SO({a},{b})", param, "even symplectic")
    # orthogonal
    if n % 2 == 1:
        normalized = param
        if param.det_exponent != 0:
            odd_quads = [
                q
                for q in param.atoms
                if isinstance(q, QuadAtom) and q.a % 2 == 1
            ]
            if not odd_quads:
                return RouteResult(
                    None, param, "odd orthogonal with unfixable determinant"
                )
            target_q = min(odd_quads, key=lambda q: (q.a, q.eps))
            new_atoms = list(param.atoms)
            new_atoms[new_atoms.index(target_q)] = QuadAtom(
                1 - target_q.eps, target_q.a
            )
            normalized = GLParameter(
                tuple(new_atoms), param.twist2, param.omega_pair
            )
            if normalized.det_exponent != 0:
                raise MathCheckError("determinant normalization failed")
        return RouteResult(
            f"Sp({n - 1},R)", normalized, "odd orthogonal, determinant normalized"
        )
    half = n // 2
    delta = param.det_exponent
    p, q = (half, half) if delta == 0 else (half + 1, half - 1)
    return RouteResult(
        f"SO({p},{q})",
        param,
        f"even orthogonal, discriminant class {delta}",
    )


# ---------------------------------------------------------------------------
# transfers


# kind -> (the source families, the noun its error names them by, the
# target datum's descriptor as a function of the source's n, the map on
# doubled weights).  The even orthogonal target is SO(n+1, n+1) or
# SO(n+2, n): rho-check and dominance do not depend on the signature, and
# these forms always have an unambiguous diagram action.
_TRANSFERS = {
    "so-odd-to-gl": (("SO_odd",), "an odd orthogonal", lambda n: f"GL({2 * n},R)",
                     lambda t: t + tuple(-x for x in reversed(t))),
    "sp-to-gl": (("Sp_R",), "a symplectic", lambda n: f"GL({2 * n + 1},R)",
                 lambda t: t + (0,) + tuple(-x for x in reversed(t))),
    "sp-to-so-even": (("Sp_R",), "a symplectic", lambda n: f"SO({n + 2 - n % 2},{n + n % 2})",
                      lambda t: t + (0,)),
    "gl-to-complex": (("GL_R", "SL_R"), "a general linear", lambda n: f"GL({n},C)",
                      lambda t: t + t),
}

TRANSFER_KINDS = tuple(_TRANSFERS)


def _transfer(
    kind: str, source: RootDatum
) -> tuple[RootDatum, Callable[[HalfIntVector], HalfIntVector]]:
    """The target datum of `kind` from `source`, and the kind's weight map.

    Checks once that the kind is known, that the source is of a family the
    kind starts from, and that rho-check of the source maps onto rho-check
    of the target.
    """
    if kind not in _TRANSFERS:
        raise UnsupportedGroupError(f"unknown transfer kind {kind!r}")
    families, noun, target, doubled = _TRANSFERS[kind]
    if source.family not in families:
        raise UnsupportedGroupError(f"{kind} needs {noun} source")
    check = build_classical_dual(target(source.ambient_dim))

    def weight_map(v: HalfIntVector) -> HalfIntVector:
        return HalfIntVector(doubled(v.twice))

    if dominant_orbit_rep(check, weight_map(source.rho_check)) != check.rho_check:
        raise MathCheckError(
            f"{kind}: rho-check of the source does not map onto rho-check "
            f"of the target"
        )
    return check, weight_map


def transfer_weight(kind: str, source: RootDatum, v: HalfIntVector) -> HalfIntVector:
    """Transport a weight; hard-checks that rho-check maps to rho-check."""
    return _transfer(kind, source)[1](v)


@record
class TransferResult:
    kind: str
    source_group: str
    target_group: str
    parameter: GLParameter | ComplexParameter
    inf_char: HalfIntVector
    image_regular: bool
    image_cohomological: bool | None
    notes: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "source": self.source_group,
            "target": self.target_group,
            "parameter": self.parameter.text(),
            "inf_char": str(self.inf_char),
            "image_regular": self.image_regular,
            "image_cohomological": self.image_cohomological,
            "notes": self.notes,
        }


def transfer_cohom(cohom: CohomParameter, kind: str) -> TransferResult:
    """Functorial image of a subset-side parameter along one embedding."""
    source = cohom.datum
    check, weight_map = _transfer(kind, source)
    base = standard_rep_parameter(cohom)
    image_inf = weight_map(cohom.lam + source.rho_check)
    notes = []
    coh: bool | None = None
    target_name = check.descriptor

    if kind in ("so-odd-to-gl", "sp-to-gl"):
        assert isinstance(base, GLParameter)
        image: GLParameter | ComplexParameter = base
        target_n = check.ambient_dim
        try:
            mu = gl_coefficient_weight(base, target_n)
            orbit_keys = {p.orbit_key() for p in enumerate_gl_real(target_n, mu)}
            coh = base.orbit_key() in orbit_keys
        except InvalidWeightError as exc:
            notes.append(f"image coefficients not checkable: {exc}")
        notes.append("standard-representation image")
    elif kind == "sp-to-so-even":
        assert isinstance(base, GLParameter)
        # the extra line is fixed pointwise, so it carries the trivial
        # character -- even when that repeats an atom already present
        extra = QuadAtom(0, 1)
        image = GLParameter(base.atoms + (extra,), 0, base.omega_pair)
        route = route_selfdual(image)
        if route.target is not None:
            target_name = route.target
        delta = image.det_exponent
        family = enumerate_selfdual(image.exponents(), "orthogonal", delta)
        if image.text() in {p.text() for p in family}:
            coh = True
        elif image.orbit_key() in {p.orbit_key() for p in family}:
            coh = True
            notes.append("matches the enumerated family up to the order-two twist")
        else:
            coh = False
        notes.append(f"appended {extra.text()}; discriminant class {delta}")
    else:  # gl-to-complex
        assert isinstance(base, GLParameter)
        entries = []
        for a in base.atoms:
            if isinstance(a, TwoDimAtom):
                entries.append((a.d, a.m))
                entries.append((-a.d, a.m))
            else:
                entries.append((0, a.a))
        image = ComplexParameter(tuple(entries))
        half = source.ambient_dim
        coh = image.text() in {
            p.text() for p in enumerate_complex_cohomological(half, cohom.lam)
        }
        notes.append("restriction of scalars")

    image_inf_dom = dominant_orbit_rep(check, image_inf)
    return TransferResult(
        kind=kind,
        source_group=source.descriptor,
        target_group=target_name,
        parameter=image,
        inf_char=image_inf_dom,
        image_regular=is_regular_orbit(check, image_inf_dom),
        image_cohomological=coh,
        notes="; ".join(notes),
    )


# ---------------------------------------------------------------------------
# central value and unitary bookkeeping


@record
class CentralReport:
    overall: bool
    per_atom: tuple[bool, ...]
    subset_side: bool | None


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


def central_value_report(
    param: GLParameter | ComplexParameter, cohom: CohomParameter | None = None
) -> CentralReport:
    """String-by-string central-element parity, with the subset-side check.

    A cohomological parameter has infinitesimal character lam + rho-check
    with lam integral, so the central element's sign on its image is read
    off the lattice of rho-check of the group it lands in: a string (x2, m)
    sits on it when x2 + m - 1 has the parity of rho-check's doubled
    entries (`_central_parity`).  With `cohom` that parity is read off
    ``cohom.datum.rho_check``, and ``cohom.central_ok``, which reads lam
    alone, must agree or `MathCheckError` is raised; without it the parity
    is GL(N)'s, (N - 1) mod 2 for N = ``param.dimension``.
    """
    if cohom is None:
        overall, per = param.central_parity_ok()
    else:
        overall, per = _central_parity(param, cohom.datum.rho_check.twice[0] % 2)
    side = None if cohom is None else cohom.central_ok
    if side is not None and side != overall:
        raise MathCheckError(
            "central parity differs between the subset side and the atom side"
        )
    return CentralReport(overall, tuple(per), side)

