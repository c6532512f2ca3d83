"""Reference routes that only the tests call.

Each one is an independent way to compute something the library computes
another way, so the tests compare the two.  None of them is merged into
the route it checks:

* `closure_by_bfs`, a breadth-first closure with one set probe per
  element and generator, sorted by `WeylElement.sort_key`, against
  `subgroup_closure`, which lists right cosets and sorts by a flat key;
* Weyl groups from the simple reflections read off the root datum
  (`simple_reflection`, `full_weyl_group`, `levi_weyl_group`, all closed
  by `closure_by_bfs`), against the catalog's block table and the packet
  layer's stabilizers;
* `longest_element`, assembled factor by factor, against the datum's
  opposition involution;
* `double_cosets_by_expansion`, each double coset grown right coset by
  right coset out of the ambient elements still uncovered, against
  `double_cosets`, which walks the orbits of the right group on a table
  of left cosets;
* the dense table of positive roots (`positive_roots`, n^2 roots of n
  coordinates each, with `rho`), and what it gives: the simple (root,
  coroot) pairs as the roots whose support is one simple root
  (`simple_root_pairs_by_table`), rho-check as half the coroot sum
  (`rho_check_by_table`) and each diagram map's indices by comparing
  images (`index_map_by_search`), against the datum's closed forms;
* `cartan_matrix`, read straight off a datum, and `positive_root_supports`
  and `levi_positive`, with each root's simple-root coefficients solved
  for by `expand_each_in_basis_oracle` (Gauss-Jordan over `Fraction`, the
  tests' one elimination, which also checks `principal_sl2_coefficients`),
  against the supports read off the roots' indices
  (`positive_root_supports_by_index`), and `levi_coroot_sum_oracle`, the
  Levi's coroot sum over that filter, against `RootDatum.levi_coroot_sum`,
  which reads each block in closed form;
* `cohom_parameter_check`, the weight and subset checks of a
  `CohomParameter` as one scan over Fraction pairings, against the
  constructor's set operations on the per-weight record;
* the mirror-symmetric compositions grown by recursion or filtered from
  all compositions, and `gl_cascade_parameters` over the filtered ones,
  against the library's one walker (a half, a middle, the half reversed);
* `standard_rep_by_whole_table`, which sums 2 rho-check_L over the Levi's
  positive coroots and splits the (exponent, sl2 weight) pairs of all
  coordinates at once into strings (`extract_strings`, `selfdual_strings`),
  against `standard_rep_parameter`, which reads one string per Levi block
  in closed form and shares no string code with it;
* `preimage_by_search`, which walks a group's whole enumeration at one
  weight and compares image texts, against `_cohomological_preimage`,
  which reads the parameter off the image in closed form;
* `transfer_by_enumeration`, which looks a transfer's image up in the
  whole enumeration of its target, against `transfer_cohom`, which reads
  membership off the image in closed form;
* `parse_complex_parameter`, which reads `e1[1]+e-1/2[2]` text back into a
  `ComplexParameter`, against the text the CLI prints for the complex
  families;
* `innerform_indices_by_formula`, the index |W^theta| / |K| of each pure
  inner form of a GL, SL, Sp or U family in closed form, against
  `innerform_sum_quasisplit`, which reads both orders off the catalog table;
* `full_orthogonal_compact_order`, the order of the Weyl group of the whole
  S(O(p) x O(q)) by its component count, against `weyl._row_orders` with
  `full`, which reads it off the catalog's blocks;
* `levi_blocks_by_concatenation`, the Levi-block walk that grows each open
  block's roots one tuple at a time, against `RootDatum._levi_blocks`,
  which slices the sorted walk once per block;
* `atom_exponents`, an atom's exponents over `Fraction`, term by term,
  against `GLParameter.doubled_exponents`, which reads each atom as
  strings of doubled ints;
* `gl_coefficient_weight_by_fractions`, the weight a parameter carries
  from its `Fraction` exponents less GL(n)'s rho, against
  `gl_coefficient_weight`, which works on the doubled exponents.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import attrgetter, itemgetter

from cohoparam.errors import InvalidWeightError, MathCheckError, WeylSizeError
from cohoparam.halfint import HalfIntVector, _fmt_half, _parse_half
from cohoparam.params import (
    CohomParameter,
    ComplexParameter,
    GLParameter,
    QuadAtom,
    TwoDimAtom,
    _assign_quad_eps,
    _compositions,
    enumerate_cohomological,
    standard_rep_parameter,
)
from cohoparam.rootdata import (
    Factor,
    RootDatum,
    StandardParabolic,
    WeylElement,
    _new_tuple,
    _table_getter,
)
from cohoparam.direct import (
    _block_compositions,
    enumerate_complex_cohomological,
    enumerate_gl_real,
    enumerate_selfdual,
)
from cohoparam.transfer import gl_coefficient_weight, parse_gl_parameter
from cohoparam.weyl import DoubleCoset, _cap, weyl_order

# ---------------------------------------------------------------------------
# closure of a generating set, breadth first

_SORT_KEY = attrgetter("sort_key")


def closure_by_bfs(
    gens: list[WeylElement] | tuple[WeylElement, ...],
    *,
    n: int | None = None,
    max_size: int | None = None,
) -> tuple[WeylElement, ...]:
    """Close a generating set under multiplication; sorted, capped."""
    cap = _cap(max_size)
    if not gens:
        if n is None:
            raise ValueError("empty generating set needs an explicit dimension n")
        return (WeylElement.identity(n),)
    dim = gens[0].n
    if any(g.n != dim for g in gens):
        raise ValueError("generators act on spaces of different dimensions")
    ident = WeylElement.identity(dim)
    seen = {ident}
    frontier = [ident]
    # w * g is the plain tuple itemgetter(*g)(w), which hashes and compares
    # like the element; only a new one is made a `WeylElement`
    times = [_table_getter(g) for g in gens]
    while frontier:
        nxt = []
        for w in frontier:
            for g in times:
                x = g(w)
                if x not in seen:
                    if len(seen) >= cap:
                        raise WeylSizeError(
                            f"group closure exceeds the cap of {cap} elements"
                        )
                    x = _new_tuple(WeylElement, x)
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return tuple(sorted(seen, key=_SORT_KEY))


# ---------------------------------------------------------------------------
# Weyl groups from simple reflections


def simple_reflection(datum: RootDatum, i: int) -> WeylElement:
    """The reflection in the i-th simple root (1-based), as an element."""
    root = datum.alpha(i)
    coroot = datum.alpha_check(i)
    n = datum.ambient_dim
    cols = []
    for k in range(n):
        basis = HalfIntVector.from_ints(*(1 if j == k else 0 for j in range(n)))
        pairing = basis.dot(coroot)
        image = basis - root.scale(pairing.numerator, pairing.denominator)
        cols.append(image.twice)
    perm = [0] * n
    signs = [1] * n
    for k, col in enumerate(cols):
        hits = [(j, t) for j, t in enumerate(col) if t != 0]
        if len(hits) != 1 or abs(hits[0][1]) != 2:
            raise MathCheckError(
                f"reflection in alpha_{i} of {datum.descriptor} is not a signed "
                f"permutation"
            )
        perm[k] = hits[0][0]
        signs[k] = 1 if hits[0][1] > 0 else -1
    return WeylElement(tuple(perm), tuple(signs))


def all_simple_reflections(datum: RootDatum) -> tuple[WeylElement, ...]:
    return tuple(simple_reflection(datum, i) for i in range(1, datum.rank + 1))


def full_weyl_group(
    datum: RootDatum, *, max_size: int | None = None
) -> tuple[WeylElement, ...]:
    """All elements of W, generated from the simple reflections; the
    catalog's table is compared with it wherever W^theta is all of W."""
    cap = _cap(max_size)
    expected = weyl_order(datum)
    if expected > cap:
        raise WeylSizeError(
            f"|W({datum.descriptor})| = {expected} exceeds the cap of {cap}"
        )
    elems = closure_by_bfs(
        list(all_simple_reflections(datum)), n=datum.ambient_dim, max_size=cap
    )
    if len(elems) != expected:
        raise MathCheckError(
            f"generated {len(elems)} elements for {datum.descriptor}, "
            f"expected {expected}"
        )
    return elems


def longest_element(datum: RootDatum) -> WeylElement:
    """w_0, assembled factor by factor and checked against rho-check; the
    tests check it against the datum's opposition involution (-w_0 = iota)."""
    n = datum.ambient_dim
    perm = list(range(n))
    signs = [1] * n
    for f in datum.factors:
        lo = f.offset
        hi = f.offset + f.dim
        if f.cartan == "A":
            for k in range(f.dim):
                perm[lo + k] = hi - 1 - k
        elif f.cartan in ("B", "C"):
            for k in range(lo, hi):
                signs[k] = -1
        elif f.cartan == "D":
            if f.rank < 2:
                continue
            for k in range(lo, hi):
                signs[k] = -1
            if f.rank % 2 == 1:
                signs[hi - 1] = 1
    w0 = WeylElement(tuple(perm), tuple(signs))
    if w0 * w0 != WeylElement.identity(n):
        raise MathCheckError("longest element is not an involution")
    if w0.apply(datum.rho_check) != -datum.rho_check:
        raise MathCheckError("longest element does not negate rho-check")
    return w0


def levi_weyl_group(
    parabolic: StandardParabolic, *, max_size: int | None = None
) -> tuple[WeylElement, ...]:
    """W_L for a standard parabolic: closure of its simple reflections.

    The packet layer takes W_L^theta as a stabilizer inside W^theta; this
    closure, with `theta_fixed_subgroup`, is that route's check.
    """
    gens = [simple_reflection(parabolic.datum, i) for i in sorted(parabolic.S)]
    return closure_by_bfs(
        gens, n=parabolic.datum.ambient_dim, max_size=max_size
    )


def conjugate_element(m: WeylElement, w: WeylElement) -> WeylElement:
    """m o w o m^{-1}."""
    return m * w * m.inverse()


def double_cosets_by_expansion(
    left: tuple[WeylElement, ...],
    right: tuple[WeylElement, ...],
    ambient: tuple[WeylElement, ...],
) -> tuple[DoubleCoset, ...]:
    """`double_cosets` by expanding right cosets, with its checks.

    Seeds are the elements of the sort_key-ordered `ambient` that no
    double coset found so far covers, in order, so each seed is its double
    coset's minimum.  A double coset is
    the union of the right cosets x*right over x in left*seed, and only an
    x that no right coset found so far covers is expanded.  Products are
    taken on the tables (u * w is itemgetter(*w)(u), a plain tuple equal
    to the element), which keeps the sweep over every catalog group short.
    """
    pool = set(ambient)
    for grp, name in ((left, "left"), (right, "right")):
        if not pool.issuperset(grp):
            raise MathCheckError(f"{name} subgroup is not inside the ambient group")
    times_right = [itemgetter(*r) for r in right]
    covered: set[tuple[int, ...]] = set()
    cosets = []
    for seed in ambient:
        if seed in covered:
            continue
        orbit: set[tuple[int, ...]] = set()
        for x in map(itemgetter(*seed), left):  # l * seed
            if x not in orbit:
                orbit.update([r(x) for r in times_right])  # x * r
        if seed not in orbit or not orbit <= pool or not covered.isdisjoint(orbit):
            raise MathCheckError("double coset escapes the ambient group")
        covered |= orbit
        cosets.append(DoubleCoset(rep=seed, size=len(orbit)))
    return tuple(cosets)


# ---------------------------------------------------------------------------
# the dense positive-root table


def _local_positive_roots(f: Factor) -> list[tuple[list[int], list[int], Iterable[int]]]:
    """(root, coroot, support) of each positive root: coordinate lists, and
    the simple roots (local, 0-based) the root is a positive sum of.  e_i - e_j
    needs i..j-1; e_i + e_j, e_i and 2e_i need i..n-1, but in type D
    e_i + e_{n-1} skips root n-2."""
    if f.cartan not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown Cartan type {f.cartan!r}")
    n = f.dim
    out: list[tuple[list[int], list[int], Iterable[int]]] = []

    def vec(items: dict[int, int]) -> list[int]:
        v = [0] * n
        for i, c in items.items():
            v[i] = c
        return v

    for i in range(n):
        for j in range(i + 1, n):
            r = vec({i: 1, j: -1})
            out.append((r, r, range(i, j)))
            if f.cartan == "A":
                continue
            r = vec({i: 1, j: 1})
            tail = (*range(i, n - 2), n - 1) if f.cartan == "D" and j == n - 1 else range(i, n)
            out.append((r, r, tail))
    for i in range(n) if f.cartan in ("B", "C") else ():
        unit, double = vec({i: 1}), vec({i: 2})
        root, coroot = (unit, double) if f.cartan == "B" else (double, unit)
        out.append((root, coroot, range(i, n)))
    return out


def _embed(local: list[int], offset: int, total: int) -> HalfIntVector:
    v = [0] * total
    v[offset : offset + len(local)] = local
    return HalfIntVector.from_ints(*v)


@lru_cache(maxsize=64)
def positive_roots(datum: RootDatum) -> tuple[tuple[HalfIntVector, HalfIntVector], ...]:
    """(root, coroot) of each positive root, factor by factor."""
    total = datum.ambient_dim
    out = []
    for f in datum.factors:
        for root, coroot, _ in _local_positive_roots(f):
            r = _embed(root, f.offset, total)
            out.append((r, r if coroot is root else _embed(coroot, f.offset, total)))
    return tuple(out)


def positive_root_supports_by_index(datum: RootDatum) -> tuple[frozenset[int], ...]:
    """Simple-root support of each positive root, in `positive_roots` order,
    read off each root's indices factor by factor (`_local_positive_roots`)."""
    out, first = [], 1
    for f in datum.factors:
        supports = [s for *_, s in _local_positive_roots(f)]
        out += (frozenset(k + first for k in s) for s in supports)
        first += sum(len(s) == 1 for s in supports)  # the factor's simple roots
    return tuple(out)


def simple_root_pairs_by_table(datum: RootDatum) -> tuple[tuple[HalfIntVector, HalfIntVector], ...]:
    """(root, coroot) of each simple root: the positive roots whose support
    is one simple root, in the order of that root's index."""
    supports = positive_root_supports_by_index(datum)
    pairs = zip(positive_roots(datum), supports)
    simple = {min(s): pair for pair, s in pairs if len(s) == 1}
    return tuple(simple[i] for i in sorted(simple))


def rho(datum: RootDatum) -> HalfIntVector:
    """Half the sum of the positive roots."""
    acc = HalfIntVector((0,) * datum.ambient_dim)
    for root, _ in positive_roots(datum):
        acc = acc + root
    return acc.scale(1, 2)


def rho_check_by_table(datum: RootDatum) -> HalfIntVector:
    """Half the sum of the positive coroots."""
    coroots = (coroot.twice for _, coroot in positive_roots(datum))
    sums = map(sum, zip((0,) * datum.ambient_dim, *coroots))
    return HalfIntVector(tuple(sums)).scale(1, 2)


def index_map_by_search(datum: RootDatum, linear: WeylElement) -> tuple[int, ...]:
    """The index of the simple root each simple root's image under `linear`
    equals, found by comparing dense vectors."""
    simple = [root for root, _ in simple_root_pairs_by_table(datum)]
    out = []
    for alpha in simple:
        image = linear.apply(alpha)
        matches = [j for j, beta in enumerate(simple, 1) if beta == image]
        if not matches:
            raise MathCheckError(f"{datum.descriptor}: diagram map does not permute simple roots")
        out.append(matches[0])
    return tuple(out)


# ---------------------------------------------------------------------------
# root-datum readings


def cartan_matrix(datum: RootDatum, subset=None) -> list[list[Fraction]]:
    """<alpha_i, alpha_j-check> over `subset` (all simple roots by default)."""
    idx = sorted(subset) if subset is not None else list(range(1, datum.rank + 1))
    return [[datum.alpha(i).dot(datum.alpha_check(j)) for j in idx] for i in idx]


def expand_each_in_basis_oracle(
    basis: list[HalfIntVector], targets: list[HalfIntVector]
) -> list[list[Fraction] | None]:
    """Coefficients of each target in the linearly independent `basis`, or
    None for a target outside its span (or for a dependent basis), by one
    Gauss-Jordan elimination over `Fraction` with the targets as extra
    columns."""
    if not basis:
        return [[] if t == HalfIntVector.zero(len(t)) else None for t in targets]
    dim = len(basis[0])
    cols = len(basis)
    a = [
        [Fraction(v.twice[r], 2) for v in basis]
        + [Fraction(t.twice[r], 2) for t in targets]
        for r in range(dim)
    ]
    row = 0
    for col in range(cols):
        pr = next((r for r in range(row, dim) if a[r][col] != 0), None)
        if pr is None:
            return [None] * len(targets)
        a[row], a[pr] = a[pr], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for r in range(dim):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        row += 1
    return [
        None
        if any(a[r][cols + j] != 0 for r in range(row, dim))
        else [a[k][cols + j] for k in range(cols)]
        for j in range(len(targets))
    ]


@lru_cache(maxsize=64)
def positive_root_supports(datum: RootDatum) -> tuple[frozenset[int], ...]:
    """The simple roots with a nonzero coefficient in each positive root, in
    the datum's order, from one exact elimination over all of them."""
    roots = [root for root, _ in positive_roots(datum)]
    supports = []
    for coeffs in expand_each_in_basis_oracle(list(datum.simple_roots), roots):
        if coeffs is None:
            raise MathCheckError("positive root outside simple-root span")
        supports.append(frozenset(i + 1 for i, c in enumerate(coeffs) if c != 0))
    return tuple(supports)


def levi_positive(
    parabolic: StandardParabolic,
) -> list[tuple[HalfIntVector, HalfIntVector]]:
    """Positive (root, coroot) pairs of the Levi: those supported on S."""
    supports = positive_root_supports(parabolic.datum)
    return [
        pair
        for pair, support in zip(positive_roots(parabolic.datum), supports)
        if support <= parabolic.S
    ]


def levi_coroot_sum_oracle(parabolic: StandardParabolic) -> list[int]:
    """Doubled entries of the Levi's coroot sum over the whole-root filter."""
    acc = [0] * parabolic.datum.ambient_dim
    for _, coroot in levi_positive(parabolic):
        acc = [a + t for a, t in zip(acc, coroot.twice)]
    return acc


def levi_blocks_by_concatenation(datum: RootDatum, S) -> list[tuple[tuple[int, ...], int, int]]:
    """The blocks of the Levi S as (roots, first, last 0-based coordinate),
    each open block's roots grown by one tuple concatenation per root."""
    spans = datum._coroot_spans
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


def cohom_parameter_check(datum: RootDatum, S, lam: HalfIntVector) -> None:
    """Raise the error `CohomParameter(datum, S, lam)` raises, or return.

    The weight checks, then one scan over alpha_1..alpha_rank with the
    pairings as Fractions: the lowest failing index decides whether a
    non-dominant weight or a nonzero pairing on S is reported, then S's
    range and its theta-stability are checked.
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
    rank = datum.rank
    first_in_s = min(
        (i for i in S if 1 <= i <= rank and pairings[i - 1]), default=None
    )
    if first_negative is not None and (
        first_in_s is None or first_negative <= first_in_s
    ):
        raise InvalidWeightError(f"{lam} is not dominant (alpha_{first_negative})")
    if first_in_s is not None:
        raise InvalidWeightError(
            f"weight pairs to {pairings[first_in_s - 1]} with alpha_{first_in_s}, "
            "which lies in S"
        )
    if not all(1 <= i <= rank for i in S):
        raise InvalidWeightError(f"S = {sorted(S)} out of range")
    if datum.theta_subset(S) != S:
        raise InvalidWeightError(f"S = {sorted(S)} is not self-associate")


# ---------------------------------------------------------------------------
# mirror-symmetric compositions


def self_dual_compositions_by_recursion(N: int) -> tuple[tuple[int, ...], ...]:
    """Ordered block shapes of N equal to their own reversal, grown from
    the outside in, sorted by (length, shape)."""
    out = []

    def grow(prefix: list[int], used: int) -> None:
        rest = N - 2 * used
        if rest >= 0:
            mirrored = prefix + list(reversed(prefix))
            if rest == 0:
                if mirrored:
                    out.append(tuple(mirrored))
            else:
                out.append(tuple(prefix + [rest] + list(reversed(prefix))))
        for size in range(1, (N - 2 * used) // 2 + 1):
            grow(prefix + [size], used + size)

    grow([], 0)
    return tuple(sorted(out, key=lambda c: (len(c), c)))


def self_dual_compositions_by_filter(N: int) -> list[tuple[int, ...]]:
    """The compositions of N equal to their reversal, kept from all 2**(N-1)."""
    return [c for c in _compositions(N) if c == c[::-1]]


def gl_cascade_by_filter(n: int, lam: HalfIntVector | None = None):
    """`gl_cascade_parameters` over every composition of n, dropping the
    ones that are not their own reversal."""
    out = []
    for comp, exps in _block_compositions(n, lam, _compositions(n)):
        k = len(comp)
        if comp != comp[::-1]:
            continue
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
        if k % 2 == 1:
            quadlens.append(comp[k // 2])
        quads, flag = _assign_quad_eps(quadlens, 0, None)
        atoms = [TwoDimAtom(d, m) for d, m in zip(two_ds, comp)]
        out.append(GLParameter(tuple(atoms + quads), twist2, flag))
    out.sort(key=lambda p: p.text())
    return tuple(out)


# ---------------------------------------------------------------------------
# standard-representation images from the whole table


def extract_strings(pairs: Counter | list[tuple[int, int]]) -> list[tuple[int, int]]:
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
    """`extract_strings` by walking the keys, each string from its top."""
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


def selfdual_strings(
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
    for x, m in extract_strings(table):
        if x:
            twodims.append(TwoDimAtom(x, m))
        else:
            quadlens.append(m)
    return twodims, quadlens


def coordinate_pairs(cohom: CohomParameter) -> list[tuple[int, int]]:
    """(doubled chi exponent, sl2 weight) of each coordinate.

    The sl2 weight h is the coordinate of 2 rho-check_L, the Levi's coroot
    sum over the whole positive-root filter (`levi_coroot_sum_oracle`),
    and chi = lam + rho-check - h/2, so in doubled ints the pair is
    (lam2 + rho-check2 - h, h).
    """
    d = cohom.datum
    out = []
    sums = levi_coroot_sum_oracle(StandardParabolic(d, cohom.S))
    for lam2, rho2, t in zip(cohom.lam.twice, d.rho_check.twice, sums):
        if t % 2:
            raise MathCheckError("sl2 weights must be integers")
        h = t // 2
        out.append((lam2 + rho2 - h, h))
    return out


def standard_rep_by_whole_table(cohom: CohomParameter):
    """The image with every coordinate's pair split in one table."""
    fam = cohom.datum.family
    coords = coordinate_pairs(cohom)
    n = cohom.datum.ambient_dim
    if fam == "U":
        return ComplexParameter(tuple(extract_strings(coords)))
    if fam == "GL_C":
        half = n // 2
        s1 = extract_strings(coords[:half])
        s2 = extract_strings(coords[half:])
        if Counter((-x, m) for x, m in s1) != Counter(s2):
            raise MathCheckError("second factor is not the conjugate of the first")
        return ComplexParameter(tuple(s1))
    if fam in ("GL_R", "SL_R", "SO_odd"):
        delta = None
    elif fam == "Sp_R":
        delta = 0
    else:
        p, q = cohom.datum.signature
        delta = (q - n) % 2
    twodims, quadlens = selfdual_strings(fam, coords, fam == "Sp_R")
    twodim_det = sum(t.det_exponent for t in twodims) % 2
    quads, flag = _assign_quad_eps(quadlens, twodim_det, delta)
    return GLParameter(tuple(twodims + quads), 0, flag)


# ---------------------------------------------------------------------------
# exponents, and the weight a parameter's exponents carry, over Fractions


def atom_exponents(atom: TwoDimAtom | QuadAtom) -> list[Fraction]:
    """The exponents of one atom: +-d/2 + (m - 1 - 2k)/2 for s{d}[m], and
    (a - 1 - 2k)/2 for w{eps}[a], k = 0, 1, ...."""
    if isinstance(atom, QuadAtom):
        return [Fraction(atom.a - 1 - 2 * k, 2) for k in range(atom.a)]
    out = []
    for k in range(atom.m):
        shift = Fraction(atom.m - 1 - 2 * k, 2)
        out.append(Fraction(atom.d, 2) + shift)
        out.append(Fraction(-atom.d, 2) + shift)
    return out


def gl_coefficient_weight_by_fractions(
    param: GLParameter | ComplexParameter, n: int
) -> HalfIntVector:
    """The dominant weight whose exponents the parameter carries."""
    exps = [Fraction(t, 2) for t in param.doubled_exponents()]
    if len(exps) != n:
        raise InvalidWeightError(
            f"parameter has dimension {len(exps)}, expected {n}"
        )
    rho = [Fraction(n - 1 - 2 * i, 2) for i in range(n)]
    lam = [e - r for e, r in zip(exps, rho)]
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise InvalidWeightError("exponents are not dominant after the rho shift")
    assert all((2 * e).denominator == 1 for e in lam), lam
    return HalfIntVector(tuple(int(2 * e) for e in lam))


# ---------------------------------------------------------------------------
# the preimage of an image, by search


def preimage_by_search(datum: RootDatum, lam: HalfIntVector, text: str):
    """Find the subset parameter at weight `lam` whose image is `text`.

    Exact canonical text first, then the order-two twist orbit.  Returns
    the parameter, its image and the note on how it matched.
    """
    target = parse_gl_parameter(text)
    target_text, target_orbit = target.text(), target.orbit_key()
    fallback = None
    for c in enumerate_cohomological(datum, lam):
        img = standard_rep_parameter(c)
        if img.text() == target_text:
            return c, img, ""
        if img.orbit_key() == target_orbit:
            fallback = c, img
    if fallback is not None:
        return *fallback, "matched up to the order-two twist"
    raise InvalidWeightError(
        f"{text!r} is not in the enumeration of {datum.descriptor} at {lam}"
    )


# ---------------------------------------------------------------------------
# a transfer's image against the whole enumeration of its target


def transfer_by_enumeration(cohom: CohomParameter, kind: str, image) -> tuple:
    """(image_cohomological, notes) of `transfer_cohom(cohom, kind)` with
    image `image`, by looking the image up in its target's list, built in
    full: `enumerate_gl_real` at the weight the exponents give (by orbit
    key), `enumerate_selfdual` in the image's determinant class (by text,
    then by orbit key, with a note), `enumerate_complex_cohomological` at
    the source's weight (by text).  A GL image whose weight the list
    refuses reads None with a note, which `transfer_cohom` no longer has.
    """
    notes, coh = [], None
    if kind in ("so-odd-to-gl", "sp-to-gl"):
        try:
            mu = gl_coefficient_weight(image, image.dimension)
            listed = {p.orbit_key() for p in enumerate_gl_real(image.dimension, mu)}
            coh = image.orbit_key() in listed
        except InvalidWeightError as exc:
            notes.append(f"image coefficients not checkable: {exc}")
        notes.append("standard-representation image")
    elif kind == "sp-to-so-even":
        delta = image.det_exponent
        exps = HalfIntVector(tuple(image.doubled_exponents()))
        family = enumerate_selfdual(exps, "orthogonal", delta)
        coh = image.orbit_key() in {p.orbit_key() for p in family}
        if coh and image.text() not in {p.text() for p in family}:
            notes.append("matches the enumerated family up to the order-two twist")
        notes.append(f"appended w0[1]; discriminant class {delta}")
    else:
        family = enumerate_complex_cohomological(cohom.datum.ambient_dim, cohom.lam)
        coh = image.text() in {p.text() for p in family}
        notes.append("restriction of scalars")
    return coh, "; ".join(notes)


# ---------------------------------------------------------------------------
# complex-parameter text


_C_ATOM_RE = re.compile(r"^e(-?\d+(?:/2)?)(?:\[(\d+)\])?$")


def parse_complex_parameter(text: str) -> ComplexParameter:
    """Parse `e1[1]+e-1/2[2]` style text."""
    entries = []
    body = text.strip()
    if body not in ("", "0"):
        for piece in body.split("+"):
            m = _C_ATOM_RE.match(piece.strip())
            if not m:
                raise InvalidWeightError(f"bad entry {piece!r}")
            d_text, bracket = m.groups()
            entries.append((_parse_half(d_text), int(bracket or 1)))
    return ComplexParameter(tuple(entries))


def innerform_indices_by_formula(descriptor: str) -> list[tuple[str, int]]:
    """(label, index) of each pure inner form in the family of `descriptor`:
    C(n, k) for U(n-k,k), 2**n for Sp(2n,R), 2 for SL(n,R) with n even, and
    1 for the other SL(n,R), GL(n,R) and GL(n,C)."""
    kind, first, second = re.fullmatch(
        r"(GL|SL|Sp|U)\((\d+),(\d+|R|C)\)", descriptor
    ).groups()
    if kind == "U":
        n = int(first) + int(second)
        return [(f"U({n - k},{k})", comb(n, k)) for k in range(n + 1)]
    if kind == "Sp":
        return [(descriptor, 2 ** (int(first) // 2))]
    if kind == "SL" and int(first) % 2 == 0:
        return [(descriptor, 2)]
    return [(descriptor, 1)]


def full_orthogonal_compact_order(p: int, q: int) -> int:
    """|W| of S(O(p) x O(q)): W(O(2a)) and W(O(2a+1)) are both the signed
    permutations of a letters, and the determinant condition halves their
    product unless an odd side has a central -1 that absorbs it.  With one
    side empty the group is SO(q), whose Weyl group is D of rank q // 2."""
    signed = [2**r * factorial(r) for r in (p // 2, q // 2)]
    if p % 2 or q % 2:
        return signed[0] * signed[1]
    if 0 in (p, q):
        r = (p + q) // 2
        return 2 ** (r - 1) * factorial(r) if r >= 2 else 1
    return signed[0] * signed[1] // 2
