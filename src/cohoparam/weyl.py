"""Signed-permutation Weyl machinery.

Elements are `WeylElement`s, signed permutations acting on ambient
coordinates by e_i |-> signs[i] * e_{perm[i]} (0-based).  The class lives
in `cohoparam.rootdata`, whose diagram involutions are signed permutations
too, and is re-exported here.  Each element is one flat tuple, its signed
lookup table (0, w_1..w_n, -w_n..-w_1), so a product is one C-level lookup
per entry and sets and dicts of elements hash one tuple.

Everything that returns a collection returns a tuple sorted by
`WeylElement.sort_key`, so identical inputs always serialize identically
(`theta_fixed_subgroup` filters, so it keeps the order of a sorted input).
`double_cosets` relies on it: its ambient group must come in that order,
which the catalog checks once when it is built.

`double_cosets` numbers the left cosets left*w of its ambient group once
per (left, ambient) pair and keeps that table, so the packets of one
catalog share it.  Each double coset is then an orbit of the right group
on the table: |right| products per double coset, not a pass over the
ambient group.  Tables and maps of the hot loops are built with
`operator.itemgetter`: u * w is the plain tuple itemgetter(*w)(u), which
hashes and compares like the element it equals.

The size of any group this module is asked to write down is capped:
`COHOPARAM_MAX_WEYL` (default 10**6), which a `max_size` argument can
lower but never raise.  Requests past the cap raise
`WeylSizeError` *before* enumeration starts whenever the order is known in
closed form.

`subgroup_closure` batches by cosets (Dimino): it lists the group as
right cosets of the group the earlier generators make, one C-level pass
over that subgroup per coset, and sorts once by a flat key that orders
like `sort_key`.  It raises `WeylSizeError` exactly when the group has
more elements than the cap, before the coset that would pass it is built.

`compact_weyl_catalog` packages, per supported real form, the data the
packet layer consumes: the twisted Weyl group W^theta, the compact-side
subgroup inside it, the rank split (split, complex, compact) of the
fundamental Cartan, and the dimension-shift exponent d = #split + #complex.
For the orthogonal families the compact side is taken from the *identity
component* of the maximal compact subgroup; `k_connected_only` records
this.

W^theta and K come from one table, `_CATALOG_TABLE`, as products of
blocks of type A, B or D.  A block is a run of slots; a slot is one
coordinate or a mirrored pair (i, n-1-i).  A permutes the slots, B also
flips the last slot, D flips the last two together; a flip negates a
coordinate or swaps the two of a pair.  With a..b the 0-based
coordinates a..b-1 (K = W^theta where no K is given):

    family             W^theta          K
    GL(n,R)            B on the pairs
    SL(n,R)            B on the pairs   D on the pairs when n is even
    GL(n,C)            A on the pairs
    U(p,q)             A on 0..n        A on 0..p x A on p..n
    Sp(2n,R)           B on 0..n        A on 0..n
    SO(p,q), p+q odd   B on 0..n        D on 0..a x B on a..n, 2a the even one of p, q
    SO(p,q), p,q even  D on 0..n        D on 0..p/2 x D on p/2..n
    SO(p,q), p,q odd   B on 0..n-1      B on 0..(p-1)/2 x B on (p-1)/2..n-1

In the last row every flip also negates coordinate n-1.  Each block's
order is a closed form (`_row_orders`), so both sizes are known, and
checked against the cap, before any generator is built.

No group here is generated from the datum's simple reflections.  That
route (the reflections, all of W, W_L and w_0) is the independent check
the tests hold in `tests/oracles.py`.
"""

from __future__ import annotations

import math
import os
import sys
from functools import cached_property, lru_cache
from itertools import repeat
from operator import itemgetter

from ._record import record
from .errors import (
    InvalidWeightError,
    MathCheckError,
    UnsupportedGroupError,
    WeylSizeError,
)
from .rootdata import (
    RootDatum,
    WeylElement,
    _NEGATIVE,
    _new_tuple,
    _table_getter,
    build_classical_dual,
)

__all__ = [
    "WeylElement",
    "DoubleCoset",
    "CompactWeylData",
    "max_weyl_size",
    "weyl_order",
    "subgroup_closure",
    "theta_fixed_subgroup",
    "double_cosets",
    "compact_weyl_catalog",
]

DEFAULT_MAX_WEYL = 10**6


def max_weyl_size() -> int:
    """Enumeration cap; override with the COHOPARAM_MAX_WEYL env var."""
    raw = os.environ.get("COHOPARAM_MAX_WEYL", "")
    if raw.strip():
        try:
            val = int(raw)
        except ValueError as exc:
            raise InvalidWeightError(
                f"COHOPARAM_MAX_WEYL={raw!r} is not an integer"
            ) from exc
        if val < 1:
            raise InvalidWeightError(f"COHOPARAM_MAX_WEYL={raw!r} must be positive")
        return val
    return DEFAULT_MAX_WEYL


def _cap(max_size: int | None) -> int:
    """The cap in force: an explicit `max_size` can only lower the env cap."""
    env = max_weyl_size()
    return env if max_size is None else min(max_size, env)


# ---------------------------------------------------------------------------
# closed-form orders


def _simple_weyl_order(cartan: str, r: int) -> int:
    """|W| of one simple factor of rank r, the one table of closed forms.

    A: (r+1)!, B/C: 2^r r!, D: 2^(r-1) r! for r >= 2, else 1 (D_0 and D_1
    have no roots).  r = -1 in type A, an empty block, gives 1.
    """
    if cartan == "A":
        return math.factorial(r + 1)
    if cartan in ("B", "C"):
        return (2**r) * math.factorial(r)
    if cartan == "D":
        return (2 ** (r - 1)) * math.factorial(r) if r >= 2 else 1
    raise UnsupportedGroupError(f"unknown Cartan type {cartan}")


def weyl_order(datum: RootDatum) -> int:
    """Closed-form order of the (full) Weyl group of the datum."""
    return math.prod(_simple_weyl_order(f.cartan, f.rank) for f in datum.factors)


# ---------------------------------------------------------------------------
# closure of a generating set


def subgroup_closure(
    gens: list[WeylElement] | tuple[WeylElement, ...],
    *,
    n: int | None = None,
    max_size: int | None = None,
) -> tuple[WeylElement, ...]:
    """Close a generating set under multiplication; sorted, capped.

    Dimino's closure: the group H = <g_1..g_i> is listed as right cosets
    H'x of H' = <g_1..g_{i-1}>, starting from H' itself and H'g_i.  A
    list of whole cosets is closed under right multiplication by g_j
    exactly when r*g_j lies in it for each coset's first element r, so
    the set is probed only at those products, and a new coset H'x is
    one C-level pass over H'.  A generator already in H' is skipped.

    `WeylSizeError` is raised exactly when the group has more elements
    than the cap, before the coset that would pass it is built.
    """
    cap = _cap(max_size)
    if not gens:
        if n is None:
            raise ValueError("empty generating set needs an explicit dimension n")
        return (WeylElement.identity(n),)
    dim = gens[0].n
    if any(g.n != dim for g in gens):
        raise ValueError("generators act on spaces of different dimensions")
    group = [WeylElement.identity(dim)]
    seen = set(group)
    times = []  # the getters of the generators not skipped so far
    for g in gens:
        if g in seen:
            continue
        times.append(_table_getter(g))
        sub, start = group[:], 0
        # at the identity only g itself is new, which adds the coset H'g
        while start < len(group):
            r = group[start]
            for t in times:
                x = t(r)
                if x not in seen:
                    if len(group) + len(sub) > cap:
                        raise WeylSizeError(
                            f"group closure exceeds the cap of {cap} elements"
                        )
                    # h * x is the plain tuple itemgetter(*x)(h), made an
                    # element here; sub[0] is the identity, so the coset
                    # starts at x
                    products = map(_table_getter(x), sub)
                    coset = list(map(_new_tuple, repeat(WeylElement), products))
                    group += coset
                    seen.update(coset)
            start += len(sub)
    return _sorted(group)


def _flat_keys(elements) -> list[tuple[int, ...]]:
    """(*sign bits, *|w_k|) of each element, built column by column over
    the windows with C-level maps: the same order as `sort_key`, whose
    two halves have the same length on elements of one dimension."""
    if not elements or elements[0].n == 0:
        return [()] * len(elements)
    columns = list(zip(*elements))[1 : elements[0].n + 1]
    return list(zip(*[map(_NEGATIVE, c) for c in columns], *[map(abs, c) for c in columns]))


def _sorted(elements) -> tuple[WeylElement, ...]:
    """`elements`, distinct and of one dimension, in sort_key order."""
    keys = _flat_keys(elements)
    by_key = dict(zip(keys, elements))
    return tuple(map(by_key.__getitem__, sorted(keys)))


# ---------------------------------------------------------------------------
# twisted subgroups and double cosets


def theta_fixed_subgroup(
    elements: tuple[WeylElement, ...], theta: WeylElement
) -> tuple[WeylElement, ...]:
    """Fixed points of conjugation by `theta` on a group given by listing.

    Checks that conjugation maps the listed group into itself (so the fixed
    set really is a subgroup) and raises `MathCheckError` otherwise.  The
    fixed points keep the order of `elements`, so a sorted listing (every
    group this module returns) gives a sorted subgroup without a re-sort.
    """
    pool = set(elements)
    # theta * w * theta^-1 is the table of (theta * w) * theta^-1, two
    # C-level passes; the plain tuple hashes and compares like the element
    after_inverse = _table_getter(theta.inverse())
    fixed = []
    for w in elements:
        cw = after_inverse(_table_getter(w)(theta))
        if cw not in pool:
            raise MathCheckError(
                "conjugation does not preserve the given group; element "
                f"{w} maps outside it"
            )
        if cw == w:
            fixed.append(w)
    return tuple(fixed)


@record
class DoubleCoset:
    """One (left, right) double coset: its sort_key-minimal member and size."""

    rep: WeylElement
    size: int


def double_cosets(
    left: tuple[WeylElement, ...],
    right: tuple[WeylElement, ...],
    ambient: tuple[WeylElement, ...],
) -> tuple[DoubleCoset, ...]:
    """Partition `ambient` into left*x*right double cosets.

    `ambient` must come in sort_key order, as every tuple this module
    returns does; the order is not re-checked here.  `left` and `right`
    must be subgroups contained in `ambient` (checked).  The cosets come
    back sorted by their minima.

    The work runs on the left cosets left*w, numbered in the order of
    their minima (`_left_coset_table`, built once per (left, ambient)).
    A double coset is an orbit of `right` on that table: start at the
    first left coset not yet covered, whose minimum m is the double
    coset's minimum, and collect the left cosets of m*r for r in `right`.
    That is |right| products per double coset, and the size is |orbit| *
    |left|.  Each orbit must lie inside the table, i.e. inside `ambient`
    and outside the orbits already found.
    """
    index, minima = _left_coset_table(left, ambient)
    if not all(map(index.__contains__, right)):
        raise MathCheckError("right subgroup is not inside the ambient group")
    if minima is None:
        raise MathCheckError("double coset escapes the ambient group")
    covered: set[int] = set()
    cosets = []
    for c, m in enumerate(minima):
        if c not in covered:
            orbit = set(map(index.get, map(m.__mul__, right)))
            if c not in orbit or None in orbit or not covered.isdisjoint(orbit):
                raise MathCheckError("double coset escapes the ambient group")
            covered |= orbit
            cosets.append(DoubleCoset(rep=m, size=len(orbit) * len(left)))
    return tuple(cosets)


# (id(left), id(ambient)) -> (left, ambient, table).  An entry holds both
# tuples, so neither id is reused while it stands, and tuples cannot
# change under it; keying on identity spares hashing every element of
# `ambient` on each call.  A catalog
# hands out the same tuples each time, so one table serves all of its
# packets; 32 entries is the bound `_compact_weyl_catalog` keeps too
_LEFT_COSET_TABLES: dict[tuple[int, int], tuple] = {}


def _left_coset_table(left, ambient):
    """(index, minima): `index` maps each element of `ambient` to the number
    of its left coset left*w, and minima[c] is the first element of coset
    c in `ambient`'s order, so cosets are numbered by their minima.

    Raises when `left` is not inside `ambient`.  When the left cosets do
    not partition `ambient` (one leaves it or meets another, or one is
    smaller than `left`), `minima` is None and `double_cosets` reports the
    escape after checking `right`.
    """
    key = (id(left), id(ambient))
    if key not in _LEFT_COSET_TABLES:
        table = _build_left_coset_table(left, ambient)
        if len(_LEFT_COSET_TABLES) >= 32:
            del _LEFT_COSET_TABLES[next(iter(_LEFT_COSET_TABLES))]
        _LEFT_COSET_TABLES[key] = (left, ambient, table)
    return _LEFT_COSET_TABLES[key][2]


def _build_left_coset_table(left, ambient):
    index = dict.fromkeys(ambient, -1)
    if not all(map(index.__contains__, left)):
        raise MathCheckError("left subgroup is not inside the ambient group")
    minima: list[WeylElement] = []
    for w in ambient:
        if index[w] < 0:
            # k * w is itemgetter(*w)(k), a plain tuple equal to the element;
            # the coset holds w, and each of its members lies in `ambient`
            # (get is not None) and in no coset so far (-1)
            coset = dict.fromkeys(map(_table_getter(w), left), len(minima))
            if w not in coset or set(map(index.get, coset)) != {-1}:
                return index, None
            index.update(coset)  # keeps the element keys of `ambient`
            minima.append(w)
    if len(minima) * len(left) != len(index):
        return index, None
    return index, tuple(minima)


# ---------------------------------------------------------------------------
# per-family compact-side data


@record
class CompactWeylData:
    """Twisted Weyl group and compact-side subgroup for one real form.

    * `w_theta`: fixed points of conjugation by `theta_map` on W;
    * `k_weyl`: the compact-side subgroup inside `w_theta`;
    * `cartan_signature`: (split, complex, compact) rank split of the
      fundamental (maximally compact) Cartan subgroup;
    * `d_exponent`: split + complex; each packet member carries a factor
      2**d_exponent in its dimension count;
    * `k_connected_only`: True when `k_weyl` comes from the identity
      component of the maximal compact subgroup (orthogonal families).
    """

    descriptor: str
    datum: RootDatum
    ambient_dim: int
    theta_map: WeylElement
    full_order: int
    w_theta: tuple[WeylElement, ...]
    k_weyl: tuple[WeylElement, ...]
    cartan_signature: tuple[int, int, int]
    k_connected_only: bool

    @property
    def d_exponent(self) -> int:
        return self.cartan_signature[0] + self.cartan_signature[1]

    @cached_property
    def k_weyl_set(self) -> frozenset[WeylElement]:
        return frozenset(self.k_weyl)

    @cached_property
    def window_columns(self) -> tuple[itemgetter, ...]:
        """One getter per coordinate k = 1..n: window_columns[k-1](t) is
        the tuple of t[w_k] over `w_theta` in order, with one more entry
        t[0] at the end (the extra index keeps a one-element W^theta from
        making a getter that returns a bare entry)."""
        columns = list(zip(*self.w_theta))[1 : self.ambient_dim + 1]
        return tuple(itemgetter(*column, 0) for column in columns)

    @property
    def n_cosets(self) -> int:
        # the catalog checked both orders against a row that divides
        return len(self.w_theta) // len(self.k_weyl)


def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The mirrored pairs (i, n-1-i) of n coordinates, outermost first."""
    return tuple(zip(range(n // 2), range(n - 1, -1, -1)))


def _split(left: str, right: str, a: int, hi: int, also=()) -> list[tuple]:
    """Two blocks, of types `left` on 0..a and `right` on a..hi."""
    return [(left, range(a), also), (right, range(a, hi), also)]


# The one table of the catalog: family -> (n, p, q) -> (W^theta blocks,
# K blocks, or None when K = W^theta), for ambient dimension n and
# signature (p, q).  Each group is the product of its blocks (`_block`); a
# block's slots are mirrored pairs, or a range of single coordinates.
_CATALOG_TABLE = {
    "GL_R": lambda n, p, q: ([("B", _pairs(n))], None),
    "SL_R": lambda n, p, q: (
        [("B", _pairs(n))], [("D", _pairs(n))] if n % 2 == 0 else None
    ),
    "GL_C": lambda n, p, q: ([("A", _pairs(n))], None),
    "U": lambda n, p, q: ([("A", range(n))], _split("A", "A", p, n)),
    "Sp_R": lambda n, p, q: ([("B", range(n))], [("A", range(n))]),
    "SO_odd": lambda n, p, q: (
        [("B", range(n))], _split("D", "B", (p if p % 2 == 0 else q) // 2, n)
    ),
    "SO_even": lambda n, p, q: (
        ([("D", range(n))], _split("D", "D", p // 2, n))
        if p % 2 == 0
        # SO(odd,odd): every flip also negates the last coordinate
        else (
            [("B", range(n - 1), (n - 1,))],
            _split("B", "B", p // 2, n - 1, (n - 1,)),
        )
    ),
}


def _row_orders(datum: RootDatum, signature=None, *, full: bool = False) -> tuple[int, int]:
    """(|W^theta|, |K|) of the datum's row of `_CATALOG_TABLE`, or of the row
    of the form of the same family and size at `signature`, with no
    generator built: a block of type A on r slots is S_r, one of type B or
    D has the order of that Weyl group of rank r (`_simple_weyl_order`).

    With `full` (an orthogonal row), |K| is the order of the Weyl group of
    the whole S(O(p) x O(q)), not of its identity component: each D block,
    an SO(2a), counts as the B of its O(2a), and the product is halved when
    p and q are both even, where no odd side absorbs the determinant.
    """
    n, signature = datum.ambient_dim, signature or datum.signature or (0, 0)
    w_theta, k = _CATALOG_TABLE[datum.family](n, *signature)

    def order(blocks, whole=False) -> int:
        return math.prod(
            _simple_weyl_order("B" if whole and kind == "D" else kind, len(slots) - (kind == "A"))
            for kind, slots, *_ in blocks
        )

    halve = full and signature[0] % 2 == signature[1] % 2 == 0
    return order(w_theta), order(k or w_theta, full) // (2 if halve else 1)


def _block(n: int, kind: str, slots, also=()) -> list[WeylElement]:
    """Generators of one block of `_CATALOG_TABLE`.

    A block is a run of slots, each one coordinate i or a mirrored pair
    (i, n-1-i).  Type A permutes the slots, B also flips the last slot, D
    flips the last two together.  A flip negates a coordinate, or swaps
    the two coordinates of a pair, and negates the coordinates in `also`.
    """

    def move(swaps, negate) -> WeylElement:
        perm, signs = list(range(n)), [1] * n
        for i, j in swaps:
            perm[i], perm[j] = j, i
        for i in negate:
            signs[i] = -1
        return WeylElement(tuple(perm), tuple(signs))

    def flip(slot) -> WeylElement:
        return move([slot], also) if len(slot) == 2 else move((), slot + also)

    slots = [(s,) if isinstance(s, int) else s for s in slots]
    gens = [move(zip(s, t), ()) for s, t in zip(slots, slots[1:])]
    if kind == "B" and len(slots) >= 1:
        gens.append(flip(slots[-1]))
    if kind == "D" and len(slots) >= 2:
        gens.append(flip(slots[-2]) * flip(slots[-1]))
    return gens


def _catalog_row(datum: RootDatum) -> tuple[list[WeylElement], list[WeylElement]]:
    """Generators of W^theta and of K, read off the datum's row.  A row that
    gives no K returns its W^theta list twice, the same object."""
    n = datum.ambient_dim
    w_theta, k = _CATALOG_TABLE[datum.family](n, *(datum.signature or (0, 0)))
    w_theta_gens = [g for block in w_theta for g in _block(n, *block)]
    return w_theta_gens, w_theta_gens if k is None else [g for b in k for g in _block(n, *b)]


def _order_text(order: int) -> str:
    """`order` in decimal, or its number of digits once the decimal would
    pass the interpreter's limit on int-to-str conversion."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    digits = int((order.bit_length() - 1) * math.log10(2))  # at most log10(order)
    while 10**digits <= order:
        digits += 1
    return f"a {digits}-digit number of" if limit and digits > limit else str(order)


def _checked_row(datum: RootDatum, descriptor: str, cap: int) -> tuple[int, int]:
    """`_row_orders`, refusing a twisted Weyl group over the cap and a row
    whose orders |W^theta| and |K| do not divide, before any generator is
    built."""
    w_theta_order, k_order = _row_orders(datum)
    if w_theta_order > cap:
        raise WeylSizeError(
            f"twisted Weyl group of {descriptor} has {_order_text(w_theta_order)} "
            f"elements, over the cap of {cap}"
        )
    if w_theta_order % k_order != 0:
        raise MathCheckError(
            f"|W^theta| = {_order_text(w_theta_order)} not divisible by "
            f"|K-side| = {_order_text(k_order)} for {datum.descriptor}"
        )
    return w_theta_order, k_order


def _closed_form_total(descriptor: str) -> int:
    """The catalog's 2**d_exponent * n_cosets off its row, no group built."""
    datum = build_classical_dual(descriptor)
    w_theta, k = _checked_row(datum, descriptor, _cap(None))
    split, cplx, _ = _torus_shape(datum)
    return 2 ** (split + cplx) * (w_theta // k)


def _torus_shape(datum: RootDatum) -> tuple[int, int, int]:
    """(split, complex, circle) ranks of the fundamental torus, the
    catalog's `cartan_signature`, read off theta: the coordinates it
    negates, the pairs it swaps and the coordinates it fixes."""
    window = datum.theta_linear.window
    split = sum(w == -k for k, w in enumerate(window, 1))
    circle = sum(w == k for k, w in enumerate(window, 1))
    return split, (len(window) - split - circle) // 2, circle


def compact_weyl_catalog(
    descriptor: str, *, max_size: int | None = None
) -> CompactWeylData:
    """Twisted Weyl group and compact-side subgroup for one real form.

    Both groups are closures of their row of `_CATALOG_TABLE` (see the
    module docstring), in the coordinates of the dual root datum, with
    theta the conjugation by its `theta_linear`.  A row that gives no K
    (GL(n,R), GL(n,C), SL(n,R) with n odd) closes its generators once:
    `k_weyl` is the `w_theta` tuple itself.  The table's |W^theta| is
    checked against the cap before any closure; after it, each closure's
    size against its closed form, W^theta for theta-fixedness and for the
    sort_key order `double_cosets` relies on, and K for lying in W^theta.
    SO(p,q) with p and q odd is only served through rank (p+q)/2 <= 3,
    where the diagram involution is pinned down by the signature alone.

    The cap is read on every call; the groups are built once per
    (descriptor, cap) and shared, which is safe because `CompactWeylData`
    is frozen and holds tuples.
    """
    build_classical_dual(descriptor)  # a bad descriptor is reported before a bad cap
    return _compact_weyl_catalog(descriptor, _cap(max_size))


# `verify --suite all` builds 15 (descriptor, cap) keys, the most of any
# command; 32 holds them all, so each is built once
@lru_cache(maxsize=32)
def _compact_weyl_catalog(descriptor: str, cap: int) -> CompactWeylData:
    datum = build_classical_dual(descriptor)
    n = datum.ambient_dim
    theta_map = datum.theta_linear
    full_order = weyl_order(datum)

    if datum.family == "SO_even" and datum.signature[0] % 2 == 1 and n > 3:
        raise UnsupportedGroupError(
            f"{descriptor}: packets for SO(odd,odd) are only provided through rank 3"
        )
    expected_theta, expected_k = _checked_row(datum, descriptor, cap)
    w_theta_gens, k_gens = _catalog_row(datum)
    w_theta = subgroup_closure(w_theta_gens, n=n, max_size=cap)
    if len(w_theta) != expected_theta:
        raise MathCheckError(
            f"twisted Weyl group of {descriptor}: got {len(w_theta)}, "
            f"expected {expected_theta}"
        )
    # the packet layer's W_L^theta is a stabilizer inside W^theta, so it is
    # theta-fixed only if all of W^theta is
    if theta_fixed_subgroup(w_theta, theta_map) != w_theta:
        raise MathCheckError(
            f"twisted Weyl group of {descriptor} is not fixed by theta"
        )

    # a row without K hands back its W^theta generators (`_catalog_row`)
    k_weyl = w_theta if k_gens is w_theta_gens else subgroup_closure(k_gens, n=n, max_size=cap)
    if len(k_weyl) != expected_k:
        raise MathCheckError(
            f"compact-side subgroup of {descriptor}: got {len(k_weyl)}, "
            f"expected {expected_k}"
        )
    if not set(w_theta).issuperset(k_weyl):
        raise MathCheckError(
            f"compact-side subgroup of {descriptor} is not inside W^theta"
        )
    # double_cosets takes W^theta as it comes, so its order is checked here
    keys = _flat_keys(w_theta)
    if keys != sorted(keys):
        raise MathCheckError(
            f"twisted Weyl group of {descriptor} is not in sort_key order"
        )

    return CompactWeylData(
        descriptor=datum.descriptor,
        datum=datum,
        ambient_dim=n,
        theta_map=theta_map,
        full_order=full_order,
        w_theta=w_theta,
        k_weyl=k_weyl,
        cartan_signature=_torus_shape(datum),
        k_connected_only=datum.family in ("SO_odd", "SO_even"),
    )

