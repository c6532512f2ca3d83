"""Based root data for duals of classical real groups.

Supported groups (descriptor grammar, ASCII, case-insensitive):

    GL(n,R) | GL(n,C) | SL(n,R) | U(p,q) | Sp(2n,R) | SO(p,q)

`build_classical_dual` returns the based root datum of the complex dual
group in epsilon-coordinates, together with the Galois action on the
Dynkin diagram determined by the real form.  Each fact of the datum is a
closed form per Cartan type (Bourbaki, *Lie Groups*, ch. VI, plates I-IV),
read factor by factor.  The simple roots and coroots, numbered 1..rank in
Bourbaki order, are kept as their nonzero entries (at most two), rho-check
is one range per factor, and each diagram involution's index map is read
on those entries, so building a datum and reading these facts is O(n).
`rho_check` checks that it pairs to 1 with every simple root; only
`simple_roots` and `simple_coroots` write out n dense vectors, on first
use.  The dense table of positive roots is the tests' independent route.

Three diagram involutions matter downstream:

* ``gamma``  -- the Galois involution of the quasi-split inner form;
* ``iota``   -- the opposition involution (-w0 as a linear map);
* ``theta``  -- iota o gamma; a standard parabolic is *self-associate*
  exactly when theta preserves its simple-root subset.

Each involution is stored twice: as a permutation of simple-root indices
and as a `WeylElement`, the signed coordinate permutation that
`cohoparam.weyl` also uses for Weyl-group elements.

Everything is exact: coordinates are `HalfIntVector`s, linear solves run
over `fractions.Fraction`.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter

from ._record import record
from .errors import MathCheckError, UnsupportedGroupError
from .halfint import HalfIntVector

__all__ = [
    "Factor",
    "RootDatum",
    "StandardParabolic",
    "WeylElement",
    "PrincipalSL2",
    "build_classical_dual",
    "parse_group",
    "is_self_associate",
    "principal_sl2_coefficients",
    "dominant_orbit_rep",
    "is_regular_orbit",
]


# ---------------------------------------------------------------------------
# signed permutations of the ambient coordinates


class WeylElement(tuple):
    """A signed permutation e_i |-> signs[i] * e_{perm[i]} (0-based), stored flat.

    The element is the tuple of its signed lookup table

        (0, w_1, ..., w_n, -w_n, ..., -w_1),   w_k = signs[k-1] * (perm[k-1] + 1),

    so entry j is the signed 1-based image of e_j, and Python's negative
    indexing reads entry -j as -w_j, the image of -e_j.  The product
    u * w (apply w first) is then u[w[j]] entry by entry, one C-level
    ``itemgetter(*w)(u)`` (`_table_getter`), and hash and equality are those of
    the one tuple.  `perm` and `signs` are decoded views of the window
    (w_1, ..., w_n), which is also the printed form.  The element is the
    tuple itself rather than an object holding one: CPython keeps up to
    2,000 freed plain tuples of each short length for reuse, but frees a
    subclass instance outright, so a sweep that drops many products does
    not leave those lists full of tables.

    The constructor stores an entry that is not a signed index (a sign
    other than +-1, an index out of range) as 0, which no signed
    permutation has; products carry the 0 along, so a check on a product
    (`RootDatum.theta_linear`) still sees it.

    One type serves both the Weyl groups of `cohoparam.weyl` and the
    diagram involutions of a datum (``galois_linear``, ``iota_linear``,
    ``theta_linear``).
    """

    __slots__ = ()

    def __new__(cls, perm: tuple[int, ...], signs: tuple[int, ...]):
        n = len(perm)
        return _from_window(
            s * (p + 1) if s in (1, -1) and 0 <= p < n else 0
            for p, s in zip(perm, signs, strict=True)
        )

    @classmethod
    def identity(cls, n: int) -> "WeylElement":
        return cls(tuple(range(n)), (1,) * n)

    @property
    def n(self) -> int:
        return len(self) // 2

    @property
    def window(self) -> tuple[int, ...]:
        return self[1 : self.n + 1]

    @property
    def perm(self) -> tuple[int, ...]:
        return tuple(map(_DECREMENT, map(abs, self.window)))

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if w > 0 else -1 for w in self.window)

    @property
    def sort_key(self) -> tuple:
        """(sign bits, perm): the order every sorted tuple of elements uses.

        Both halves are C-level maps over the window: a sign bit is 1 for
        a negative entry and 0 otherwise, a perm entry is |w_k| - 1.
        """
        window = self[1 : len(self) // 2 + 1]
        return (
            tuple(map(int, map(_NEGATIVE, window))),
            tuple(map(_DECREMENT, map(abs, window))),
        )

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """self o other (apply `other` first): entry j is self[other[j]]."""
        return _new_tuple(WeylElement, _table_getter(other)(self))

    def inverse(self) -> "WeylElement":
        inv = [0] * self.n
        for k, w in enumerate(self.window, 1):
            inv[abs(w) - 1] = k if w > 0 else -k
        return _from_window(inv)

    def apply(self, v: HalfIntVector) -> HalfIntVector:
        out = [0] * self.n
        for t, w in zip(v.twice, self.window):
            out[abs(w) - 1] = t if w > 0 else -t
        return HalfIntVector(tuple(out))

    def __str__(self) -> str:
        """Window notation: image of e_1..e_n as signed 1-based indices."""
        return "(" + " ".join(map(str, self.window)) + ")"

    def __repr__(self) -> str:
        return f"WeylElement(perm={self.perm}, signs={self.signs})"

    def __getnewargs__(self) -> tuple:
        return (self.perm, self.signs)


_new_tuple = tuple.__new__
_NEGATIVE = (0).__gt__  # _NEGATIVE(w) is w < 0
_DECREMENT = (-1).__add__


def _table_getter(w: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """u |-> the table of u * w, as `itemgetter(*w)`; for n = 0 the table
    (0,) has one entry, where `itemgetter` would return it bare."""
    return itemgetter(*w) if len(w) > 1 else lambda u: (u[w[0]],)


def _from_window(window) -> WeylElement:
    window = tuple(window)
    return _new_tuple(WeylElement, (0, *window, *(-w for w in reversed(window))))


# ---------------------------------------------------------------------------
# factors and the datum


@record
class Factor:
    """One simple (or torus) factor of the dual group, in local coordinates.

    ``cartan`` is the Dynkin type of the factor ('A', 'B', 'C', 'D'),
    ``rank`` the number of simple roots, ``dim`` the number of ambient
    coordinates the factor occupies, ``offset`` its first coordinate.
    ``flavor`` fixes the (co)character lattice: 'GL' and 'Adjoint' for
    type A, 'SO' for types B/D, 'Sp' for type C.
    """

    cartan: str
    rank: int
    dim: int
    offset: int
    flavor: str


def _simple_entries(f: Factor) -> list[tuple[tuple[tuple[int, int], ...], ...]]:
    """(root, coroot) of each simple root of the factor, in Bourbaki order,
    each as its nonzero entries: (0-based ambient coordinate, doubled entry)
    pairs, at most two.  e_k - e_{k+1} along the factor, then on its last
    coordinate z: e_z with coroot 2e_z (B), 2e_z with coroot e_z (C), or
    e_{z-1} + e_z (D of dimension >= 2; D_1 has no roots)."""
    first, z = f.offset, f.offset + f.dim - 1
    out = [(((k, 2), (k + 1, -2)),) * 2 for k in range(first, z)]
    if f.cartan == "B":
        out.append((((z, 2),), ((z, 4),)))
    elif f.cartan == "C":
        out.append((((z, 4),), ((z, 2),)))
    elif f.cartan == "D" and f.dim >= 2:
        out.append((((z - 1, 2), (z, 2)),) * 2)
    elif f.cartan not in ("A", "D"):
        raise ValueError(f"unknown Cartan type {f.cartan!r}")
    return out


# doubled rho-check of a factor of n coordinates, half the sum of its
# positive coroots
_RHO_CHECK2 = {
    "A": lambda n: range(n - 1, -n, -2),  # ((n-1)/2, ..., -(n-1)/2)
    "B": lambda n: range(2 * n, 0, -2),  # (n, ..., 1)
    "C": lambda n: range(2 * n - 1, 0, -2),  # (n - 1/2, ..., 1/2)
    "D": lambda n: range(2 * n - 2, -1, -2),  # (n - 1, ..., 0)
}


@record
class RootDatum:
    """Based root datum of the dual group, plus the Galois diagram action.

    ``galois_linear`` is the Galois diagram action as a signed coordinate
    permutation (the identity for split forms, -w0 for U(p,q), the factor
    swap for GL(n,C), the last sign flip for non-inner-split even SO);
    ``galois_index`` is derived from it, as the map of 1-based simple-root
    indices it induces.
    """

    descriptor: str
    family: str
    factors: tuple[Factor, ...]
    galois_linear: WeylElement
    signature: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        # memos keyed on a datum hash it on every lookup: hash its fields once
        fields = (self.descriptor, self.family, self.factors, self.galois_linear, self.signature)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    # -- coordinates -------------------------------------------------------

    @cached_property
    def ambient_dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @cached_property
    def _simple_pairs(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """(root, coroot) of each simple root, by index, as its nonzero
        entries, factor by factor in closed form (`_simple_entries`)."""
        return tuple(pair for f in self.factors for pair in _simple_entries(f))

    def _dense(self, entries: tuple[tuple[int, int], ...]) -> HalfIntVector:
        twice = [0] * self.ambient_dim
        for k, t in entries:
            twice[k] = t
        return HalfIntVector(tuple(twice))

    @cached_property
    def simple_roots(self) -> tuple[HalfIntVector, ...]:
        return tuple(self._dense(root) for root, _ in self._simple_pairs)

    @cached_property
    def simple_coroots(self) -> tuple[HalfIntVector, ...]:
        return tuple(self._dense(coroot) for _, coroot in self._simple_pairs)

    @cached_property
    def rank(self) -> int:
        return len(self._simple_pairs)

    def alpha(self, i: int) -> HalfIntVector:
        """Simple root by 1-based index."""
        return self.simple_roots[i - 1]

    def alpha_check(self, i: int) -> HalfIntVector:
        return self.simple_coroots[i - 1]

    @cached_property
    def rho_check(self) -> HalfIntVector:
        """Half the sum of the positive coroots, factor by factor in closed
        form (`_RHO_CHECK2`), checked to pair to 1 with each simple root."""
        twice = tuple(t for f in self.factors for t in _RHO_CHECK2[f.cartan](f.dim))
        for i, (root, _) in enumerate(self._simple_pairs, 1):
            if sum(twice[k] * t for k, t in root) != 4:  # both entries doubled
                raise MathCheckError(
                    f"{self.descriptor}: rho-check does not pair to 1 with alpha_{i}"
                )
        return HalfIntVector(twice)

    def pairing(self, i: int, j: int) -> Fraction:
        """<alpha_i, alpha_j-check> for 1-based indices."""
        return self.alpha(i).dot(self.alpha_check(j))

    # -- Levi blocks and coroot sums -----------------------------------------

    @cached_property
    def _coroot_spans(self) -> tuple[tuple[int, int], ...]:
        """(first, last) 0-based coordinate of each simple coroot, by 1-based
        index, both growing with it; entry 0 is (n, n), just past the end."""
        spans = ((c[0][0], c[-1][0]) for _, c in self._simple_pairs)
        return ((self.ambient_dim,) * 2, *spans)

    def _levi_blocks(self, S: Iterable[int]) -> list[tuple[tuple[int, ...], int, int]]:
        """The blocks of the Levi S, as (roots, first, last 0-based coordinate).

        Roots of S that share a coordinate form one block: the Dynkin
        components of S, with the two fork nodes of type D (orthogonal, so
        not Dynkin neighbours) joined.  Each run of coordinates that no root
        of S touches is a block without roots.  S must lie in 1..rank.
        """
        spans = self._coroot_spans
        out, roots, first, last = [], (), 0, -1
        for i in (*sorted(S), 0):  # 0 ends the walk: its span is (n, n)
            a, b = spans[i]
            if a > last:  # i shares no coordinate with the open block
                if roots:
                    out.append((roots, first, last))
                if a > last + 1:
                    out.append(((), last + 1, a - 1))
                roots, first = (), a
            roots += (i,)
            last = b
        return out

    def _gl_blocks(self, S: Iterable[int]) -> list[tuple[tuple[int, ...], int, int]]:
        """The blocks of `_levi_blocks`, except that each coordinate no root
        of S touches is a block of its own: the GL factors of a type-A Levi."""
        out = []
        for roots, first, last in self._levi_blocks(S):
            out += [(roots, first, last)] if roots else [((), k, k) for k in range(first, last + 1)]
        return out

    def _holds_tail(self, roots: tuple[int, ...]) -> bool:
        """Does a block with these roots hold the B, C or D tail: for Sp_R
        and SO_odd the last simple root, for SO_even both fork roots?"""
        rank, fam = self.rank, self.family
        return rank in roots and (
            fam in ("Sp_R", "SO_odd") or fam == "SO_even" and rank - 1 in roots
        )

    def levi_coroot_sum(self, S: Iterable[int]) -> list[int]:
        """Doubled entries of the sum of the Levi S's positive coroots (2 rho-check_L).

        The support of a root is connected, so the Levi's positive roots are
        those of its blocks (`_levi_blocks`), and each block's sum is read in
        closed form: a type-A block of m coordinates with roots gives
        2(m - 1), 2(m - 3), ..., -2(m - 1), with the last sign flipped when
        it holds SO_even's fork root `rank` but not `rank - 1`; a tail block
        (`_holds_tail`) gives 2 rho-check on its coordinates, as the tail's
        rho-check is the datum's there; a block without roots gives 0.  S must
        lie in 1..rank.
        """
        acc = [0] * self.ambient_dim
        rho2 = self.rho_check.twice
        for roots, first, last in self._levi_blocks(S):
            if self._holds_tail(roots):
                acc[first : last + 1] = [2 * t for t in rho2[first : last + 1]]
            elif roots:
                m = last - first + 1
                acc[first : last + 1] = range(2 * (m - 1), -2 * m, -4)
                if self.family == "SO_even" and self.rank in roots:
                    acc[last] *= -1
        return acc

    # -- diagram involutions -------------------------------------------------

    @cached_property
    def iota_linear(self) -> WeylElement:
        """-w0, factor by factor."""
        perm: list[int] = []
        signs: list[int] = []
        for f in self.factors:
            if f.cartan == "A":
                perm.extend(f.offset + f.dim - 1 - k for k in range(f.dim))
                signs.extend([-1] * f.dim)
            elif f.cartan in ("B", "C") or (f.cartan == "D" and f.rank % 2 == 0):
                perm.extend(f.offset + k for k in range(f.dim))
                signs.extend([1] * f.dim)
            elif f.cartan == "D":  # odd rank: -w0 flips the last coordinate
                perm.extend(f.offset + k for k in range(f.dim))
                signs.extend([1] * (f.dim - 1) + [-1])
            else:
                raise ValueError(f.cartan)
        return WeylElement(tuple(perm), tuple(signs))

    def _index_map(self, linear: WeylElement) -> tuple[int, ...]:
        """The simple-root indices `linear` sends each simple root to, read
        on its entries: entry (k, t) goes to (|w| - 1, sign(w) t), w = linear[k + 1]."""
        index = {root: i for i, (root, _) in enumerate(self._simple_pairs, 1)}
        out = []
        for root in index:
            moved = ((linear[k + 1], t) for k, t in root)
            image = tuple(sorted((abs(w) - 1, t if w > 0 else -t) for w, t in moved))
            if image not in index:
                raise MathCheckError(
                    f"{self.descriptor}: diagram map does not permute simple roots"
                )
            out.append(index[image])
        return tuple(out)

    @cached_property
    def iota_index(self) -> tuple[int, ...]:
        return self._index_map(self.iota_linear)

    @cached_property
    def galois_index(self) -> tuple[int, ...]:
        return self._index_map(self.galois_linear)

    @cached_property
    def theta_linear(self) -> WeylElement:
        """iota o gamma, checked once here for every later conjugation by it."""
        theta = self.iota_linear * self.galois_linear
        if sorted(theta.perm) != list(range(theta.n)):
            raise MathCheckError(
                f"{self.descriptor}: theta is not a signed permutation: {theta}"
            )
        return theta

    @cached_property
    def theta_index(self) -> tuple[int, ...]:
        return self._index_map(self.theta_linear)

    def theta(self, i: int) -> int:
        return self.theta_index[i - 1]

    @cached_property
    def _theta_moved(self) -> frozenset[int]:
        """The simple roots theta does not fix: a subset that misses them
        is theta-stable.  Empty for Sp, U and every SO but SO(odd,odd)."""
        return frozenset(i for i, j in enumerate(self.theta_index, 1) if i != j)

    @cached_property
    def _theta_orbits(self) -> tuple[frozenset[int], ...]:
        """The orbits {i, theta(i)} on the simple roots, ordered by least
        root: a subset is theta-stable exactly when it is a union of them."""
        return tuple(dict.fromkeys(
            frozenset({i, j}) for i, j in enumerate(self.theta_index, 1)
        ))

    def theta_subset(self, s: Iterable[int]) -> frozenset[int]:
        table = self.theta_index
        return frozenset(table[i - 1] for i in s)

    # -- lattices ------------------------------------------------------------

    def weight_is_integral(self, v: HalfIntVector) -> bool:
        """Is v in the (co)character lattice declared by the flavors?"""
        if len(v) != self.ambient_dim:
            raise ValueError("weight has wrong length")
        for f in self.factors:
            seg = v.twice[f.offset : f.offset + f.dim]
            if f.flavor == "Adjoint":
                # weights mod the central direction: entries congruent mod 1
                if any((t - seg[0]) % 2 != 0 for t in seg):
                    return False
            else:
                if any(t % 2 != 0 for t in seg):
                    return False
        return True


# ---------------------------------------------------------------------------
# descriptor parsing and construction

_GROUP_RE = re.compile(
    r"^\s*(GL|SL|U|SP|SO)\s*\(\s*(\d+)\s*,\s*(\d+|R|C)\s*\)\s*$", re.IGNORECASE
)


def parse_group(descriptor: str) -> tuple[str, int, int | str]:
    """Parse a group descriptor into (family, first, second).

    Accepted: GL(n,R) GL(n,C) SL(n,R) U(p,q) Sp(2n,R) SO(p,q), with
    n >= 1, p+q >= 1 for U and p+q >= 2 for SO.
    """
    m = _GROUP_RE.match(descriptor)
    if not m:
        raise UnsupportedGroupError(
            f"cannot parse group descriptor {descriptor!r}; expected one of "
            "GL(n,R), GL(n,C), SL(n,R), U(p,q), Sp(2n,R), SO(p,q)"
        )
    kind = m.group(1).upper()
    first = int(m.group(2))
    second_raw = m.group(3).upper()
    second: int | str = int(second_raw) if second_raw.isdigit() else second_raw

    if kind in ("GL", "SL"):
        if not isinstance(second, str):
            raise UnsupportedGroupError(
                f"{descriptor!r}: second argument of {kind} must be R or C"
            )
        if kind == "SL" and second == "C":
            raise UnsupportedGroupError("SL(n,C) is not supported; use GL(n,C)")
        if first < 1:
            raise UnsupportedGroupError(f"{descriptor!r}: need n >= 1")
    elif kind == "SP":
        if second != "R":
            raise UnsupportedGroupError(f"{descriptor!r}: expected Sp(2n,R)")
        if first < 2 or first % 2 != 0:
            raise UnsupportedGroupError(f"{descriptor!r}: Sp needs an even rank 2n >= 2")
    else:  # U, SO
        if not isinstance(second, int):
            raise UnsupportedGroupError(f"{descriptor!r}: expected two integers")
        if first + second < 1:
            raise UnsupportedGroupError(f"{descriptor!r}: empty signature")
        if kind == "SO" and first + second < 2:
            raise UnsupportedGroupError(f"{descriptor!r}: SO(p,q) needs p+q >= 2")
    return kind, first, second


def _canonical(kind: str, first: int, second: int | str) -> str:
    name = {"GL": "GL", "SL": "SL", "U": "U", "SP": "Sp", "SO": "SO"}[kind]
    return f"{name}({first},{second})"


def build_classical_dual(descriptor: str) -> RootDatum:
    """Based root datum of the complex dual group of a classical real group.

    The Galois diagram action is derived from the descriptor:
    trivial for split forms, the A-flip for U(p,q), the coordinate swap
    for GL(n,C), and for even SO(p,q) the last sign flip exactly when the
    form is not an inner form of the split one (q odd differs from
    (p+q)/2 odd).  SO(p,q) with p+q = 8 and p,q odd is rejected: that is
    the signature whose diagram action is triality-ambiguous.

    The descriptor is parsed on every call, so a bad one always raises;
    the datum is memoized on the parsed group, so every spelling of one
    group returns the same object and its cached properties.
    """
    return _build_classical_dual(*parse_group(descriptor))


@lru_cache(maxsize=64)
def _build_classical_dual(kind: str, first: int, second: int | str) -> RootDatum:
    signature = (first, second) if kind in ("U", "SO") else None
    if kind in ("GL", "SL") and second == "R":
        n = first
        family = "GL_R" if kind == "GL" else "SL_R"
        factors = (Factor("A", n - 1, n, 0, "GL" if kind == "GL" else "Adjoint"),)
        galois = WeylElement.identity(n)
    elif kind == "GL" and second == "C":
        n = first
        family = "GL_C"
        factors = (Factor("A", n - 1, n, 0, "GL"), Factor("A", n - 1, n, n, "GL"))
        galois = WeylElement((*range(n, 2 * n), *range(n)), (1,) * (2 * n))
    elif kind == "U":
        n = first + second
        family = "U"
        factors = (Factor("A", n - 1, n, 0, "GL"),)
        galois = WeylElement(tuple(range(n - 1, -1, -1)), (-1,) * n)
    elif kind == "SP":
        n = first // 2
        family = "Sp_R"
        factors = (Factor("B", n, n, 0, "SO"),)
        galois = WeylElement.identity(n)
    elif (first + second) % 2 == 1:
        n = (first + second) // 2
        family = "SO_odd"
        factors = (Factor("C", n, n, 0, "Sp"),)
        galois = WeylElement.identity(n)
    else:
        p, q = signature
        n = (p + q) // 2
        if p + q == 8 and p % 2 == 1:
            raise UnsupportedGroupError(
                "SO(p,q) with p+q=8 and p,q odd: the outer diagram action is "
                "triality-ambiguous and not supported"
            )
        family = "SO_even"
        factors = (Factor("D", n, n, 0, "SO"),)
        # the identity on inner forms of the split form (q = n mod 2), else the
        # last sign flip, which swaps the fork nodes e_{n-1}-e_n <-> e_{n-1}+e_n
        signs = (1,) * n if q % 2 == n % 2 else (1,) * (n - 1) + (-1,)
        galois = WeylElement(tuple(range(n)), signs)
    return RootDatum(
        descriptor=_canonical(kind, first, second),
        family=family,
        factors=factors,
        galois_linear=galois,
        signature=signature,
    )


# ---------------------------------------------------------------------------
# parabolics


@record
class StandardParabolic:
    """A standard parabolic of the dual group, named by its Levi subset S.

    S contains 1-based simple-root indices.  The Levi's rho-check is read
    on every access, block by block in closed form
    (`RootDatum.levi_coroot_sum`), and never stored per S; a caller that
    needs it twice keeps the value.
    """

    datum: RootDatum
    S: frozenset[int]

    def __post_init__(self) -> None:
        rank = self.datum.rank
        bad = [i for i in self.S if not 1 <= i <= rank]
        if bad:
            raise ValueError(
                f"Levi subset {sorted(self.S)} out of range 1..{self.datum.rank}"
            )

    @property
    def rho_check_levi(self) -> HalfIntVector:
        return HalfIntVector(tuple(self.datum.levi_coroot_sum(self.S))).scale(1, 2)


def is_self_associate(parabolic: StandardParabolic) -> bool:
    """Is the standard parabolic conjugate to its opposite in the full dual?

    Combinatorially: does iota o gamma preserve the Levi subset S.
    """
    return parabolic.datum.theta_subset(parabolic.S) == parabolic.S


# ---------------------------------------------------------------------------
# principal SL2 coefficients


@record
class PrincipalSL2:
    """Solution of the principal-SL2 linear system on a Levi subset.

    ``coeffs[alpha]`` are the unique rationals with
    sum_beta coeffs[beta] * <alpha, beta-check> = 2 for every alpha in S;
    the semisimple element is sum coeffs[beta] * beta-check = 2 rho_check_L.
    ``t_assignment`` satisfies t[alpha] * t[phi(alpha)] = coeffs[alpha]
    for the supplied diagram involution phi; indices in ``needs_sqrt``
    are phi-fixed, and their recorded value is coeffs[alpha] itself
    (a consumer takes the square root).
    """

    subset: tuple[int, ...]
    coeffs: Mapping[int, Fraction]
    t_assignment: Mapping[int, Fraction]
    needs_sqrt: frozenset[int]


def principal_sl2_coefficients(
    parabolic: StandardParabolic,
    phi: Callable[[int], int] | Mapping[int, int] | None = None,
) -> PrincipalSL2:
    """Coefficients of the principal SL2 of the Levi on simple coroots.

    Solves sum_{beta in S} a_beta <alpha, beta-check> = 2 (alpha in S)
    exactly, re-checks the residual, verifies the expansion
    sum a_beta beta-check = 2 rho_check_L, and, when a diagram involution
    phi preserving S is supplied, verifies a_alpha = a_{phi(alpha)} and
    builds a t-assignment with t_alpha t_{phi(alpha)} = a_alpha.
    """
    datum = parabolic.datum
    idx = sorted(parabolic.S)
    if phi is not None and not callable(phi):
        # an index phi lacks maps to None, which the subset check reports
        phi = dict(phi).get

    if not idx:
        return PrincipalSL2((), {}, {}, frozenset())

    rows = [[datum.pairing(i, j) for j in idx] for i in idx]
    # the Cartan columns are the basis, the all-2 vector the target
    columns = [HalfIntVector.from_fractions(col) for col in zip(*rows)]
    twos = HalfIntVector.from_ints(*[2] * len(idx))
    (sol,) = _expand_each_in_basis(columns, [twos])
    if sol is None:
        raise MathCheckError(f"Cartan matrix of {idx} is singular")
    coeffs = {i: a for i, a in zip(idx, sol)}

    # residual must vanish identically
    for r, row in enumerate(rows):
        res = sum(row[c] * sol[c] for c in range(len(idx))) - 2
        if res != 0:
            raise MathCheckError(f"principal SL2 system residual {res} at {idx[r]}")

    # the semisimple element is exactly 2 rho_check of the Levi
    acc = HalfIntVector((0,) * datum.ambient_dim)
    for i in idx:
        scaled = datum.alpha_check(i).scale(coeffs[i].numerator, coeffs[i].denominator)
        acc = acc + scaled
    if acc != parabolic.rho_check_levi.scale(2):
        raise MathCheckError(
            f"sum a_beta beta-check != 2 rho_check_L on {idx} of {datum.descriptor}"
        )

    t: dict[int, Fraction] = {}
    fixed: set[int] = set()
    if phi is None:
        fixed.update(idx)
        t.update(coeffs)
    else:
        image = {i: phi(i) for i in idx}
        if set(image.values()) != set(idx):
            raise ValueError(f"phi does not preserve the subset {idx}")
        for i in idx:
            j = image[i]
            if coeffs[i] != coeffs[j]:
                raise MathCheckError(
                    f"phi-symmetry fails: a_{i}={coeffs[i]} but a_{j}={coeffs[j]}"
                )
            if j == i:
                fixed.add(i)
                t[i] = coeffs[i]
            elif j > i:
                t[i] = coeffs[i]
                t[j] = Fraction(1)
    return PrincipalSL2(tuple(idx), coeffs, t, frozenset(fixed))


# ---------------------------------------------------------------------------
# small exact linear helpers


def _expand_each_in_basis(
    basis: list[HalfIntVector], targets: list[HalfIntVector]
) -> list[list[Fraction] | None]:
    """Coefficients of each target in the linearly independent `basis`, or
    None for a target outside its span.  One elimination of the basis
    serves every target: the targets ride along as extra columns of the
    augmented matrix, and the coordinates may be overdetermined (ambient
    dim > len(basis)).

    The elimination runs on the doubled integer entries without division:
    a row update is pivot * row - f * pivot_row, a nonzero multiple of the
    rational update, so no solution changes.  Each coefficient is divided
    out once at the end, as an exact Fraction.
    """
    if not basis:
        return [[] if t.is_zero else None for t in targets]
    dim = len(basis[0])
    if any(len(v) != dim for v in basis + targets):
        raise ValueError("basis and targets must have the same length")
    cols = len(basis)
    a = [
        [v.twice[r] for v in basis] + [t.twice[r] for t in targets]
        for r in range(dim)
    ]
    row = 0
    for col in range(cols):
        pr = next((r for r in range(row, dim) if a[r][col]), None)
        if pr is None:
            # basis not independent; callers pass simple roots
            return [None] * len(targets)
        a[row], a[pr] = a[pr], a[row]
        pivot_row = a[row]
        pivot = pivot_row[col]
        for r in range(dim):
            f = a[r][col]
            if r != row and f:
                a[r] = [pivot * x - f * y for x, y in zip(a[r], pivot_row)]
        row += 1
    # consistency: rows below the pivots must have zero rhs
    return [
        None
        if any(a[r][cols + j] for r in range(row, dim))
        else [Fraction(a[k][cols + j], a[k][k]) for k in range(cols)]
        for j in range(len(targets))
    ]


# ---------------------------------------------------------------------------
# Weyl-orbit normal forms (used by infinitesimal characters)


def dominant_orbit_rep(datum: RootDatum, v: HalfIntVector) -> HalfIntVector:
    """The dominant representative of W.v, factor by factor.

    Type A sorts; B/C sort absolute values; D sorts absolute values and
    pushes the orbit's sign-product onto the final coordinate.
    """
    out: list[int] = []
    for f in datum.factors:
        seg = list(v.twice[f.offset : f.offset + f.dim])
        if f.cartan == "A":
            seg.sort(reverse=True)
        elif f.cartan in ("B", "C"):
            seg = sorted((abs(t) for t in seg), reverse=True)
        elif f.cartan == "D":
            neg = sum(1 for t in seg if t < 0)
            has_zero = any(t == 0 for t in seg)
            seg = sorted((abs(t) for t in seg), reverse=True)
            if neg % 2 == 1 and not has_zero and seg:
                seg[-1] = -seg[-1]
        out.extend(seg)
    return HalfIntVector(tuple(out))


def is_regular_orbit(datum: RootDatum, v: HalfIntVector) -> bool:
    """Is the W-stabilizer of v trivial?  Exactly when its dominant
    representative pairs nonzero with every simple coroot, read on the
    coroot's nonzero entries."""
    dominant = dominant_orbit_rep(datum, v).twice
    return all(sum(dominant[k] * t for k, t in coroot) for _, coroot in datum._simple_pairs)
