"""Reference routes that only the tests call.

Each one is an independent way to compute something the library computes
another way, so the tests compare the two.  None of them is merged into
the route it checks:

* Weyl groups from the simple reflections read off the root datum
  (`simple_reflection`, `full_weyl_group`, `levi_weyl_group`), against
  the catalog's block table and the packet layer's stabilizers;
* `longest_element`, assembled factor by factor, against the datum's
  opposition involution;
* `double_cosets_by_expansion`, each double coset grown right coset by
  right coset out of the ambient elements still uncovered, against
  `double_cosets`, which walks the orbits of the right group on a table
  of left cosets;
* `cartan_matrix` and `levi_positive`, read straight off a datum or a
  standard parabolic;
* the mirror-symmetric compositions grown by recursion or filtered from
  all compositions, and `gl_cascade_parameters` over the filtered ones,
  against the library's one walker (a half, a middle, the half reversed);
* `standard_rep_by_whole_table`, which splits the (exponent, sl2 weight)
  pairs of all coordinates at once, against `standard_rep_parameter`,
  which puts together the strings of each Levi block, split once per weight;
* `parse_complex_parameter`, which reads `e1[1]+e-1/2[2]` text back into a
  `ComplexParameter`, against the text the CLI prints for the complex
  families.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from operator import itemgetter

from cohoparam.errors import InvalidWeightError, MathCheckError, WeylSizeError
from cohoparam.halfint import HalfIntVector, _parse_half
from cohoparam.params import (
    CohomParameter,
    ComplexParameter,
    GLParameter,
    TwoDimAtom,
    _assign_quad_eps,
    _block_compositions,
    _compositions,
    _extract_strings,
    _selfdual_strings,
)
from cohoparam.rootdata import RootDatum, StandardParabolic, WeylElement
from cohoparam.weyl import DoubleCoset, _cap, subgroup_closure, weyl_order

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
    elems = subgroup_closure(
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
    return subgroup_closure(
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
# root-datum readings


def cartan_matrix(datum: RootDatum, subset=None) -> list[list[Fraction]]:
    """<alpha_i, alpha_j-check> over `subset` (all simple roots by default)."""
    idx = sorted(subset) if subset is not None else list(range(1, datum.rank + 1))
    return [[datum.pairing(i, j) for j in idx] for i in idx]


def levi_positive(
    parabolic: StandardParabolic,
) -> list[tuple[HalfIntVector, HalfIntVector]]:
    """Positive (root, coroot) pairs of the Levi: those supported on S."""
    supports = parabolic.datum._positive_root_supports
    return [
        pair
        for pair, support in zip(parabolic.datum.positive_roots, supports)
        if support <= parabolic.S
    ]


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


def coordinate_pairs(cohom: CohomParameter) -> list[tuple[int, int]]:
    """(doubled chi exponent, sl2 weight) of each coordinate.

    The sl2 weight h is the coordinate of 2 rho-check_L, the Levi's coroot
    sum, and chi = lam + rho-check - h/2, so in doubled ints the pair is
    (lam2 + rho-check2 - h, h).
    """
    d = cohom.datum
    out = []
    sums = d.levi_coroot_sum(cohom.S)
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
        return ComplexParameter(tuple(_extract_strings(coords)))
    if fam == "GL_C":
        half = n // 2
        s1 = _extract_strings(coords[:half])
        s2 = _extract_strings(coords[half:])
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
    twodims, quadlens = _selfdual_strings(fam, coords, fam == "Sp_R")
    twodim_det = sum(t.det_exponent for t in twodims) % 2
    quads, flag = _assign_quad_eps(quadlens, twodim_det, delta)
    return GLParameter(tuple(twodims + quads), 0, flag)


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
