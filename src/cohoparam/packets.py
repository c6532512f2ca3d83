"""Packet parametrization by twisted-Weyl double cosets.

The members of the packet attached to a self-associate Levi subset ``S``
are the double cosets

    (compact-side subgroup)  \\  W^theta  /  (theta-fixed Levi Weyl group),

computed inside the catalog data of :func:`cohoparam.weyl.compact_weyl_catalog`.
The theta-fixed Levi Weyl group is picked out of the catalog's W^theta as a
stabilizer, so no Levi group is built and the Weyl cap applies only to the
catalog's groups.  The double cosets are the orbits of W_L^theta on the
catalog's table of K-cosets, which `double_cosets` builds once per catalog,
so a packet costs |W_L^theta| products per member.
Each member carries a cohomology total

    h_dim = 2**d * |W_L^theta| / |W_L^theta  intersect  w^{-1} K w|,

where ``d`` is the split-plus-complex rank of the fundamental Cartan; the
members therefore sum to ``2**d * |W^theta| / |K|`` by the orbit-counting
identity, and the module asserts both the per-member and the total form.
The intersection is counted by conjugating each element of W_L^theta into
K, apart from the orbit that gave the coset's size.  The stabilizer filter
and the conjugations run on `operator.itemgetter` tables, not on element
products.

The subset ``S`` lives on the dual diagram and is used there directly:
the based-root-datum identification matches simple roots by index, so no
translation step is needed (or possible) beyond validating that ``S`` is
self-associate.

For unitary groups the members admit a closed form: a Levi of block type
``(n_1, ..., n_k)`` inside ``U(A, B)`` yields one member per integer tuple
``(r_1, ..., r_k)`` with ``0 <= r_j <= n_j`` and ``sum r_j = A``, with real
form ``U(r_1, n_1 - r_1) x ...`` and cohomology total ``prod C(n_j, r_j)``
(so the packet totals telescope to ``C(A+B, A)`` by Vandermonde).  Both the
closed form and the double-coset route are exposed; they are compared in
the test suite, never merged.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import itemgetter

from ._record import record
from .errors import InvalidWeightError, MathCheckError, UnsupportedGroupError
from .params import CohomParameter
from .rootdata import StandardParabolic, _table_getter, is_self_associate
from .weyl import (
    CompactWeylData,
    DoubleCoset,
    WeylElement,
    compact_weyl_catalog,
    double_cosets,
)

__all__ = [
    "PacketDescriptor",
    "PacketMember",
    "UnitaryMember",
    "packet",
    "unitary_packet_members",
]


# ---------------------------------------------------------------------------
# member and packet containers


@record
class PacketMember:
    """One double coset: representative, real-form label, cohomology total."""

    rep: WeylElement
    label: str
    h_dim: int
    coset_size: int

    def to_json(self) -> dict:
        return {"rep": str(self.rep), "label": self.label, "h_dim": self.h_dim}


@record
class PacketDescriptor:
    """A packet: the double-coset members for one (group, Levi subset)."""

    group: str
    levi_subset: tuple[int, ...]
    members: tuple[PacketMember, ...]
    d_exponent: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def h_total(self) -> int:
        return sum(m.h_dim for m in self.members)

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "levi_subset": list(self.levi_subset),
            "size": self.size,
            "d_exponent": self.d_exponent,
            "h_total": self.h_total,
            "members": [m.to_json() for m in self.members],
        }


# ---------------------------------------------------------------------------
# double-coset route


def _unitary_label(
    rep: WeylElement, blocks: list[tuple[tuple[int, ...], int, int]], first_part: int
) -> str:
    pieces = []
    perm = rep.perm  # decoded once: each read decodes the whole window
    for _, first, last in blocks:
        r = sum(1 for i in range(first, last + 1) if perm[i] < first_part)
        pieces.append(f"U({r},{last + 1 - first - r})")
    return "x".join(pieces)


def _member_from_coset(
    cat: CompactWeylData,
    coset: DoubleCoset,
    levi_times: list[itemgetter],
    label: str,
) -> PacketMember:
    k_order = len(cat.k_weyl)
    w = coset.rep
    # w * l * w^-1 is the table itemgetter(*w^-1)(itemgetter(*l)(w)), with
    # levi_times[i] = itemgetter(*l_i) made once per packet; the plain
    # tuples hash and compare like the elements of K
    after_inverse = _table_getter(w.inverse())
    conjugates = map(after_inverse, [l(w) for l in levi_times])
    inter = sum(map(cat.k_weyl_set.__contains__, conjugates))
    if len(levi_times) % inter:
        raise MathCheckError(
            f"|W_L^theta| = {len(levi_times)} not divisible by the "
            f"intersection order {inter}"
        )
    h_dim = (2**cat.d_exponent) * (len(levi_times) // inter)
    # independent route: |K w L| = |K| * |L| / |L  intersect  w^{-1} K w|
    if (2**cat.d_exponent) * coset.size != h_dim * k_order:
        raise MathCheckError(
            f"member size bookkeeping disagrees for rep {w}: coset of "
            f"{coset.size} vs index {h_dim}"
        )
    return PacketMember(rep=w, label=label, h_dim=h_dim, coset_size=coset.size)


def _cosets_for_subset(
    cat: CompactWeylData, S: frozenset[int]
) -> tuple[tuple[DoubleCoset, ...], tuple[WeylElement, ...]]:
    parabolic = StandardParabolic(cat.datum, S)
    if not is_self_associate(parabolic):
        raise InvalidWeightError(
            f"subset {sorted(S)} of {cat.descriptor} is not self-associate"
        )
    # v pairs to zero with the simple roots in S and positively with the
    # rest, so its stabilizer in W is W_L (Chevalley) and in W^theta it is
    # W_L^theta; filtering the sorted W^theta keeps sort_key order.  With
    # vt = (0, v_1..v_n, -v_n..-v_1) laid out like an element's table, w
    # fixes v exactly when vt[w_k] = v_k for k = 1..n.  The catalog's
    # column getters read vt[w_k] for all of W^theta at once, one tuple
    # per k, and zip lines them up element by element
    v = (cat.datum.rho_check - parabolic.rho_check_levi).twice
    vt = (0, *v, *(-x for x in reversed(v)))
    images = zip(*(column(vt) for column in cat.window_columns))
    fixes_v = map(v.__eq__, images)
    levi_theta = tuple(itertools.compress(cat.w_theta, fixes_v))
    cosets = double_cosets(cat.k_weyl, levi_theta, cat.w_theta)
    return cosets, levi_theta


def packet(
    descriptor: str,
    param: CohomParameter,
    *,
    max_size: int | None = None,
) -> PacketDescriptor:
    """All members attached to ``param``'s Levi subset, one per double coset."""
    cat = compact_weyl_catalog(descriptor, max_size=max_size)
    if param.datum.descriptor != cat.descriptor:
        raise UnsupportedGroupError(
            f"parameter belongs to {param.datum.descriptor}, "
            f"not to {cat.descriptor}"
        )
    cosets, levi_theta = _cosets_for_subset(cat, param.S)

    unitary_blocks = None
    if cat.datum.family == "U":
        unitary_blocks = cat.datum._gl_blocks(param.S)
        first_part = cat.datum.signature[0]

    levi_times = [_table_getter(l) for l in levi_theta]
    members = []
    for coset in cosets:
        if unitary_blocks is not None:
            label = _unitary_label(coset.rep, unitary_blocks, first_part)
        else:
            label = str(coset.rep)
        members.append(_member_from_coset(cat, coset, levi_times, label))

    pkt = PacketDescriptor(
        group=cat.descriptor,
        levi_subset=tuple(sorted(param.S)),
        members=tuple(members),
        d_exponent=cat.d_exponent,
    )
    expected_total = (2**cat.d_exponent) * cat.n_cosets
    if pkt.h_total != expected_total:
        raise MathCheckError(
            f"packet total {pkt.h_total} for {cat.descriptor}, subset "
            f"{sorted(param.S)} differs from the closed form {expected_total}"
        )
    return pkt


# ---------------------------------------------------------------------------
# unitary closed form


@record
class UnitaryMember:
    """One member of a unitary packet in closed form."""

    r: tuple[int, ...]
    label: str
    h_dim: int


def unitary_packet_members(
    A: int, B: int, blocks: tuple[int, ...]
) -> tuple[UnitaryMember, ...]:
    """Closed-form members for U(A,B) and a Levi of the given block type.

    One member per tuple ``(r_1, ..., r_k)`` with ``0 <= r_j <= n_j`` and
    ``sum r_j = A``; the member totals multiply out binomially and sum to
    ``C(A+B, A)``.
    """
    if A < 0 or B < 0 or any(b < 1 for b in blocks):
        raise InvalidWeightError(
            f"bad unitary packet data: A={A}, B={B}, blocks={blocks}"
        )
    if sum(blocks) != A + B:
        raise InvalidWeightError(
            f"blocks {blocks} sum to {sum(blocks)}, expected {A + B}"
        )
    members = []
    for r in itertools.product(*(range(b + 1) for b in blocks)):
        if sum(r) != A:
            continue
        label = "x".join(f"U({rj},{nj - rj})" for rj, nj in zip(r, blocks))
        h_dim = 1
        for rj, nj in zip(r, blocks):
            h_dim *= comb(nj, rj)
        members.append(UnitaryMember(r=r, label=label, h_dim=h_dim))
    total = sum(m.h_dim for m in members)
    if total != comb(A + B, A):
        raise MathCheckError(
            f"unitary member totals sum to {total}, "
            f"expected C({A + B},{A}) = {comb(A + B, A)}"
        )
    return tuple(members)
