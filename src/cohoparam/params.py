"""Parameters and their arithmetic atoms.

Two coordinate systems meet here:

* the *subset side*: a self-associate set S of simple roots of the dual
  group plus a compatible twisting weight, packaged as `CohomParameter`;
* the *atom side*: formal sums of two-dimensional pieces s{d}[m] and
  one-dimensional pieces w{eps}[a], packaged as `GLParameter` (self-dual
  coefficient field R) or `ComplexParameter` (pairs (d, m) over C).

`standard_rep_parameter` maps the first to the second by pushing the
(exponent, sl2-weight) data of each coordinate through the standard
representation of the dual group and splitting the result into strings.
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
from fractions import Fraction
from functools import lru_cache

from ._record import record
from .errors import (
    InvalidWeightError,
    MathCheckError,
    UnsupportedGroupError,
)
from .halfint import HalfIntVector, _fmt_half, _parse_half
from .rootdata import (
    RootDatum,
    StandardParabolic,
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


Atom = TwoDimAtom | QuadAtom


def _atom_sort_key(atom: Atom) -> tuple:
    if isinstance(atom, TwoDimAtom):
        return (0, -atom.d, -atom.m, 0)
    return (1, -atom.a, atom.eps, 0)


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
        n = self.dimension
        per = []
        for a in self.atoms:
            if isinstance(a, TwoDimAtom):
                per.append((a.d + a.m) % 2 == n % 2)
            else:
                per.append(a.a % 2 == n % 2)
        return all(per), per

    def text(self) -> str:
        body = "+".join(a.text() for a in self.atoms) if self.atoms else "0"
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
            tuple(sorted(self.entries, key=lambda e: (-e[0], -e[1]))),
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
        n = self.dimension
        per = [(two_d + m) % 2 == n % 2 for two_d, m in self.entries]
        return all(per), per

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
    returns <lam, alpha_i-check> for i = 1..rank, the first i where it is
    negative (None for a dominant weight), the infinitesimal character
    (the dominant representative of W.(lam + rho-check)), and the dict of
    `_split_cell` pieces of the Levi blocks met so far at this weight.
    """
    if len(lam) != datum.ambient_dim:
        raise InvalidWeightError(
            f"weight has {len(lam)} coordinates, expected {datum.ambient_dim}"
        )
    if not datum.weight_is_integral(lam):
        raise InvalidWeightError(f"{lam} is not integral for {datum.descriptor}")
    if datum.theta_linear.apply(lam) != lam:
        raise InvalidWeightError(f"{lam} is not theta-fixed")
    pairings = tuple(lam.dot(coroot) for coroot in datum.simple_coroots)
    first_negative = next((i for i, p in enumerate(pairings, 1) if p < 0), None)
    inf_char = dominant_orbit_rep(datum, lam + datum.rho_check)
    return pairings, first_negative, inf_char, {}


@record
class CohomParameter:
    """A self-associate subset of simple roots plus a compatible weight.

    Validity (checked eagerly; the checks of `lam` alone run once per
    (datum, lam) in `_at_weight`, those of S for every parameter):

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
        d = self.datum
        rank = d.rank
        object.__setattr__(self, "_weight", _at_weight(d, self.lam))
        pairings, first_negative, _, _ = self._weight
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
                f"weight pairs to {pairings[first_in_s - 1]} with alpha_{first_in_s}, "
                "which lies in S"
            )
        if not all(1 <= i <= rank for i in self.S):
            raise InvalidWeightError(f"S = {sorted(self.S)} out of range")
        if d.theta_subset(self.S) != self.S:
            raise InvalidWeightError(f"S = {sorted(self.S)} is not self-associate")

    @property
    def parabolic(self) -> StandardParabolic:
        return StandardParabolic(self.datum, self.S)

    def _chi_and_sl2(self) -> tuple[HalfIntVector, HalfIntVector]:
        """(chi, sl2) from one computation of rho-check of the Levi.

        Nothing of its own is kept on the parameter, only its reference to
        the shared per-weight record: an enumeration holds all of its
        parameters at once, and a cached value on each raised its peak memory.
        """
        rho_levi = self.parabolic.rho_check_levi
        return self.lam + self.datum.rho_check - rho_levi, rho_levi.scale(2)

    @property
    def inf_char(self) -> HalfIntVector:
        return self._weight[2]

    @property
    def central_ok(self) -> bool:
        """(-1)^(2 chi + sl2) equals (-1)^(2 rho-check), coordinatewise."""
        chi, sl2 = self._chi_and_sl2()
        two_chi = chi.scale(2)
        target = self.datum.rho_check.scale(2)
        for a, b, c in zip(two_chi.twice, sl2.twice, target.twice):
            # a, b, c are doubled integers of integral vectors: values a/2 etc.
            if ((a + b) // 2) % 2 != (c // 2) % 2:
                return False
        return True


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
    pairings = CohomParameter(datum, frozenset(), lam)._weight[0]
    singular = [i for i, p in enumerate(pairings, 1) if p == 0]
    # lam is theta-fixed, so the involution theta maps the singular set to
    # itself, and its theta-stable subsets are the unions of the orbits
    # {i, theta(i)}: 2**len(orbits) of them, each built once
    orbits = list(dict.fromkeys(frozenset({i, datum.theta(i)}) for i in singular))
    subsets = [
        tuple(sorted(itertools.chain.from_iterable(combo)))
        for r in range(len(orbits) + 1)
        for combo in itertools.combinations(orbits, r)
    ]
    subsets.sort(key=lambda t: (len(t), t))
    return tuple(CohomParameter(datum, frozenset(t), lam) for t in subsets)


# ---------------------------------------------------------------------------
# strings: (exponent, sl2-eigenvalue) data -> atoms
#
# exponents are doubled ints throughout, as in `halfint`


def _extract_strings(pairs: Counter | list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Split a table of (doubled exponent, sl2 weight) pairs into sl2-strings.

    The table is a dict of pair counts or a list of pairs, and is not used
    up.  Each returned (x2, m) certifies the presence of the m pairs
    (x2, m-1), (x2, m-3), ..., (x2, -(m-1)); the strings come longest first,
    in (m, x2)-descending order.

    By the sl2 character formula, the pairs at one exponent x are a union
    of strings exactly when mult(h) = mult(-h) and mult(h-2) >= mult(h) >=
    mult(h+2) for h >= 0, and then mult(h) - mult(h+2) strings have top h.
    That count is read off the multiplicities in one pass.  Any other input
    goes to the greedy walk, which names the first missing or unmatched
    pair in its error.
    """
    work = pairs if isinstance(pairs, dict) else Counter(pairs)
    tops = []
    for (x, h), c in work.items():
        if work.get((x, -h)) != c or (h >= 2 and work.get((x, h - 2), 0) < c):
            return _extract_strings_greedy(Counter(work))
        if h >= 0:
            k = c - work.get((x, h + 2), 0)
            if k > 0:
                tops.append((h + 1, x, k))
    tops.sort(reverse=True)
    return [(x, m) for m, x, k in tops for _ in range(k)]


def _extract_strings_greedy(work: Counter) -> list[tuple[int, int]]:
    """`_extract_strings` by walking the keys, each string from its top."""
    out = []
    # a string only uses up keys below its top, so visiting the keys from
    # the top down, each until it runs out, always takes the highest one left
    for x, h in sorted(work, key=lambda p: (p[1], p[0]), reverse=True):
        while work[(x, h)]:
            if h < 0:
                raise MathCheckError(f"unmatched sl2 weight ({_fmt_half(x)}, {h})")
            m = h + 1
            for k in range(m):
                key = (x, h - 2 * k)
                if work[key] <= 0:
                    raise MathCheckError(
                        f"broken string: missing ({_fmt_half(x)}, {key[1]})"
                    )
                work[key] -= 1
            out.append((x, m))
    return out


# the atoms of images repeat across parameters; each is immutable
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
    doubles = sorted((a for a, c in counts.items() if c == 2), reverse=True)
    singles = sorted((a for a, c in counts.items() if c == 1), reverse=True)
    if any(a % 2 == 0 for a in doubles + singles):
        raise MathCheckError(
            f"even zero string in a determinant-constrained parameter: {quadlens}"
        )
    atoms: list[QuadAtom] = []
    flag = False
    need = (delta - twodim_det) % 2
    # try to settle each doubled length as {0,0} first, spending need on it
    # only if no single can absorb it
    for a in doubles:
        if need and not singles:
            atoms.append(QuadAtom(0, a))
            atoms.append(QuadAtom(1, a))
            need = (need - a) % 2
        else:
            atoms.append(QuadAtom(0, a))
            atoms.append(QuadAtom(0, a))
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


def _selfdual_strings(
    fam: str, coords: list[tuple[int, int]], zero: bool = False
) -> tuple[list[TwoDimAtom], list[int]]:
    """Two-dimensional atoms and zero-string lengths of a self-dual image.

    The image's pairs at exponent -x mirror those at +x, so only its pairs
    with x >= 0 are split: a string at x > 0 stands for itself and its
    mirror, one at x = 0 is a quad.  Sp_R and SO images are the coordinates
    and their mirrors (and, with `zero`, Sp_R's one (0, 0)); GL_R and SL_R
    images are the coordinates alone, which must be their own mirror image.
    """
    if fam in ("GL_R", "SL_R"):
        full = Counter(coords)
        for (x, h), c in full.items():
            mirror = full.get((-x, -h), 0)
            if mirror != c:
                raise MathCheckError(
                    f"image is not self-dual: {c} of ({_fmt_half(x)}, {h}) "
                    f"against {mirror} of ({_fmt_half(-x)}, {-h})"
                )
        table = {p: c for p, c in full.items() if p[0] >= 0}
    else:
        # a zero coordinate's mirror (0, -h) is counted first, (0, h) second
        table = Counter([(x, h) if x > 0 else (-x, -h) for x, h in coords]
                        + [(0, h) for x, h in coords if not x])
        if zero:
            table[(0, 0)] += 1
    twodims, quadlens = [], []
    for x, m in _extract_strings(table):
        if x:
            twodims.append(_two_dim_atom(x, m))
        else:
            quadlens.append(m)
    return twodims, quadlens


def _split_cell(datum: RootDatum, lam: HalfIntVector, cell: tuple) -> tuple:
    """The strings of one block of `RootDatum._levi_blocks` (for GL_R and
    SL_R, the block and its mirror), in two parts: for U all (x2, m) and ();
    for GL_C those of each factor; for the self-dual families the two-dim
    atoms and the zero-string lengths.  Coordinate k gives the pair
    (lam2 + rho-check2 - h, h), h its entry of the block's 2 rho-check_L.
    """
    roots, first, last = cell
    fam, n = datum.family, datum.ambient_dim
    coords = list(range(first, last + 1))
    if fam in ("GL_R", "SL_R") and first + last < n - 1:
        roots += tuple(datum.theta_subset(roots))
        coords += range(n - 1 - last, n - first)
    sums = datum.levi_coroot_sum(roots) if roots else [0] * n
    lam2, rho2, pairs = lam.twice, datum.rho_check.twice, []
    for k in coords:
        if sums[k] % 2:
            raise MathCheckError("sl2 weights must be integers")
        h = sums[k] // 2
        pairs.append((lam2[k] + rho2[k] - h, h))
    if fam in ("U", "GL_C"):
        j = len(pairs) if fam == "U" else max(0, n // 2 - first)
        return tuple(_extract_strings(pairs[:j])), tuple(_extract_strings(pairs[j:]))
    twodims, quadlens = _selfdual_strings(fam, pairs, fam == "Sp_R" and datum.rank in roots)
    return tuple(twodims), tuple(quadlens)


def standard_rep_parameter(cohom: CohomParameter) -> GLParameter | ComplexParameter:
    """Push a subset-side parameter through the dual standard representation.

    Restricted to the dual Levi, the standard representation is the direct
    sum of the blocks' (Vogan-Zuckerman; Adams-Johnson), and the string
    counts mult(h) - mult(h+2) add over a direct sum: the image puts its
    blocks' strings together, each block split once per (datum, lam) and
    kept in the parameter's `_at_weight` record.
    """
    datum, fam, lam = cohom.datum, cohom.datum.family, cohom.lam
    memo = cohom._weight[3]
    one, two = [], []
    mirrored = fam in ("GL_R", "SL_R")  # theta: k -> n-1-k; a block stands for its mirror
    for cell in datum._levi_blocks(cohom.S):
        if mirrored and cell[1] + cell[2] >= datum.ambient_dim:
            continue
        piece = memo.get(cell)
        if piece is None:
            piece = memo[cell] = _split_cell(datum, lam, cell)
        one += piece[0]
        two += piece[1]
    if fam in ("U", "GL_C"):
        if fam == "GL_C" and Counter((-x, m) for x, m in one) != Counter(two):
            raise MathCheckError("second factor is not the conjugate of the first")
        return ComplexParameter(tuple(one))
    # self-dual families: the determinant class constrains the quad signs
    if fam not in ("GL_R", "SL_R", "SO_odd", "Sp_R", "SO_even"):  # pragma: no cover
        raise UnsupportedGroupError(f"no standard-representation rule for {fam}")
    delta = 0 if fam == "Sp_R" else None
    if fam == "SO_even":
        delta = (datum.signature[1] - datum.ambient_dim) % 2
    if fam == "Sp_R" and datum.rank not in cohom.S:
        two.append(1)  # the extra (0, 0) of Sp_R, alone: w[1]
    two.sort(reverse=True)
    twodim_det = sum(t.det_exponent for t in one) % 2
    quads, flag = _assign_quad_eps(two, twodim_det, delta)
    return GLParameter(tuple(one + quads), 0, flag)


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


TRANSFER_KINDS = ("so-odd-to-gl", "sp-to-gl", "sp-to-so-even", "gl-to-complex")


def _transfer_weight_map(kind: str, v: HalfIntVector) -> HalfIntVector:
    t = v.twice
    n = len(t)
    if kind == "so-odd-to-gl":
        return HalfIntVector(t + tuple(-x for x in reversed(t)))
    if kind == "sp-to-gl":
        return HalfIntVector(t + (0,) + tuple(-x for x in reversed(t)))
    if kind == "sp-to-so-even":
        return HalfIntVector(t + (0,))
    if kind == "gl-to-complex":
        return HalfIntVector(t + t)
    raise UnsupportedGroupError(f"unknown transfer kind {kind!r}")


def _transfer_check_datum(kind: str, source: RootDatum) -> RootDatum:
    """A representative target datum used for root-system-level checks.

    For the even orthogonal target the signature is taken even-even:
    rho-check and dominance do not depend on it, and the even-even form
    always has an unambiguous diagram action.
    """
    n = source.ambient_dim
    if kind == "so-odd-to-gl":
        if source.family != "SO_odd":
            raise UnsupportedGroupError(f"{kind} needs an odd orthogonal source")
        return build_classical_dual(f"GL({2 * n},R)")
    if kind == "sp-to-gl":
        if source.family != "Sp_R":
            raise UnsupportedGroupError(f"{kind} needs a symplectic source")
        return build_classical_dual(f"GL({2 * n + 1},R)")
    if kind == "sp-to-so-even":
        if source.family != "Sp_R":
            raise UnsupportedGroupError(f"{kind} needs a symplectic source")
        m = n + 1
        p, q = (m, m) if m % 2 == 0 else (m + 1, m - 1)
        return build_classical_dual(f"SO({p},{q})")
    if kind == "gl-to-complex":
        if source.family not in ("GL_R", "SL_R"):
            raise UnsupportedGroupError(f"{kind} needs a general linear source")
        return build_classical_dual(f"GL({n},C)")
    raise UnsupportedGroupError(f"unknown transfer kind {kind!r}")


def transfer_weight(kind: str, source: RootDatum, v: HalfIntVector) -> HalfIntVector:
    """Transport a weight; hard-checks that rho-check maps to rho-check."""
    check = _transfer_check_datum(kind, source)
    image = _transfer_weight_map(kind, v)
    rho_image = _transfer_weight_map(kind, source.rho_check)
    if dominant_orbit_rep(check, rho_image) != check.rho_check:
        raise MathCheckError(
            f"{kind}: rho-check of the source does not map onto rho-check "
            f"of the target"
        )
    return image


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
    check = _transfer_check_datum(kind, source)
    base = standard_rep_parameter(cohom)
    image_inf = transfer_weight(kind, source, cohom.lam + source.rho_check)
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
    elif kind == "gl-to-complex":
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
    else:
        raise UnsupportedGroupError(f"unknown transfer kind {kind!r}")

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


def central_value_report(
    param: GLParameter | ComplexParameter, cohom: CohomParameter | None = None
) -> CentralReport:
    """Atom-by-atom central-element parity, with the subset-side check."""
    overall, per = param.central_parity_ok()
    side = cohom.central_ok if cohom is not None else None
    if side is not None and side != overall:
        raise MathCheckError(
            "central parity differs between the subset side and the atom side"
        )
    return CentralReport(overall, tuple(per), side)

