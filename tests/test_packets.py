"""Packet layer: double-coset members, unitary closed forms, counts.

The unitary closed form is cross-checked against two independent oracles:
orbits of the block symmetric group on m-element subsets, and element-level
double cosets in small symmetric groups.  Packet tables for the other
families were derived once from the double-coset route (whose totals the
module checks against the closed form 2^d * |W^theta| / |K| on every call)
and frozen below.
"""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohoparam.errors import InvalidWeightError, UnsupportedGroupError
from cohoparam.halfint import HalfIntVector
from cohoparam import packets, weyl
from cohoparam.packets import (
    _cosets_for_subset,
    packet,
    packet_size_unitary,
    theta_stable_parabolic_count,
    unitary_packet_members,
)
from cohoparam.params import CohomParameter, enumerate_cohomological
from cohoparam.rootdata import (
    StandardParabolic,
    build_classical_dual,
    is_self_associate,
    parse_group,
)
from cohoparam.weyl import (
    WeylElement,
    compact_weyl_catalog,
    double_cosets,
    theta_fixed_subgroup,
    weyl_order,
)

from oracles import (
    closure_by_bfs,
    double_cosets_by_expansion,
    full_weyl_group,
    levi_weyl_group,
)


def zero(n: int) -> HalfIntVector:
    return HalfIntVector((0,) * n)


def transposition(n: int, i: int, j: int) -> WeylElement:
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    return WeylElement(tuple(perm), (1,) * n)


def block_group(n: int, cuts: tuple[int, ...]) -> tuple[WeylElement, ...]:
    """Young subgroup of S_n with the given block sizes."""
    gens, start = [], 0
    for size in cuts:
        for i in range(start, start + size - 1):
            gens.append(transposition(n, i, i + 1))
        start += size
    return closure_by_bfs(gens, n=n)


# ---------------------------------------------------------------------------
# unitary closed form


class TestUnitaryClosedForm:
    def test_low_rank_closed_form(self):
        assert packet_size_unitary(2, 1, 2, 1) == (2, (1, 2))
        assert packet_size_unitary(2, 2, 2, 2) == (3, (0, 1, 2))
        for A, B in ((2, 1), (3, 2), (4, 0)):
            assert packet_size_unitary(A, B, A + B, 0) == (1, (A,))

    def test_errors(self):
        with pytest.raises(InvalidWeightError):
            packet_size_unitary(2, 1, 2, 2)
        with pytest.raises(InvalidWeightError):
            packet_size_unitary(-1, 2, 1, 0)
        with pytest.raises(InvalidWeightError):
            unitary_packet_members(2, 1, (2, 2))

    def test_swap_symmetry_exhaustive(self):
        for N in range(1, 9):
            for A in range(N + 1):
                for m in range(N + 1):
                    B, n = N - A, N - m
                    size, _ = packet_size_unitary(A, B, m, n)
                    swapped, _ = packet_size_unitary(B, A, n, m)
                    assert size == swapped

    def test_member_h_dims_are_binomial_products(self):
        members = unitary_packet_members(2, 2, (2, 1, 1))
        got = {(m.r, m.label, m.h_dim) for m in members}
        assert got == {
            ((0, 1, 1), "U(0,2)xU(1,0)xU(1,0)", 1),
            ((1, 0, 1), "U(1,1)xU(0,1)xU(1,0)", 2),
            ((1, 1, 0), "U(1,1)xU(1,0)xU(0,1)", 2),
            ((2, 0, 0), "U(2,0)xU(0,1)xU(0,1)", 1),
        }
        assert sum(m.h_dim for m in members) == comb(4, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_vandermonde_total(self, A, B, data):
        N = A + B
        if N == 0:
            return
        k = data.draw(st.integers(1, min(N, 4)))
        cuts = []
        rest = N
        for _ in range(k - 1):
            take = data.draw(st.integers(1, rest - (k - 1 - len(cuts))))
            cuts.append(take)
            rest -= take
        cuts.append(rest)
        members = unitary_packet_members(A, B, tuple(cuts))
        assert sum(m.h_dim for m in members) == comb(N, A)
        for m in members:
            assert sum(m.r) == A


# ---------------------------------------------------------------------------
# independent oracles for the unitary count


def subset_orbit_count(A: int, B: int, m: int) -> int:
    """Orbits of S_A x S_B on m-element subsets of {0..A+B-1}, by BFS."""
    N = A + B
    gens = [(i, i + 1) for i in range(A - 1)] + [
        (i, i + 1) for i in range(A, N - 1)
    ]
    todo = {frozenset(c) for c in itertools.combinations(range(N), m)}
    orbits = 0
    while todo:
        seed = next(iter(todo))
        orbits += 1
        frontier = [seed]
        todo.discard(seed)
        while frontier:
            s = frontier.pop()
            for i, j in gens:
                t = frozenset(
                    (j if x == i else i if x == j else x) for x in s
                )
                if t in todo:
                    todo.discard(t)
                    frontier.append(t)
    return orbits


class TestUnitaryOracles:
    def test_subset_orbits_exhaustive(self):
        for N in range(1, 9):
            for A in range(N + 1):
                for m in range(N + 1):
                    size, _ = packet_size_unitary(A, N - A, m, N - m)
                    assert size == subset_orbit_count(A, N - A, m), (A, N - A, m)

    @pytest.mark.parametrize(
        "A,B,m,n",
        [(2, 1, 2, 1), (2, 2, 2, 2), (1, 2, 2, 1), (3, 1, 2, 2), (2, 2, 3, 1), (4, 0, 2, 2)],
    )
    def test_element_level_double_cosets(self, A, B, m, n):
        N = A + B
        ambient = full_weyl_group(build_classical_dual(f"GL({N},R)"))
        left = block_group(N, (A, B) if B else (A,))
        right = block_group(N, (m, n) if n else (m,))
        cosets = double_cosets(left, right, ambient)
        assert cosets == double_cosets_by_expansion(left, right, ambient)
        size, _ = packet_size_unitary(A, B, m, n)
        assert len(cosets) == size
        # coset sizes partition the full group
        assert sum(c.size for c in cosets) == len(ambient)


# ---------------------------------------------------------------------------
# packet goldens (subset -> (size, member h_dims))


PACKET_TABLES = {
    "Sp(4,R)": {
        (): (4, (1, 1, 1, 1)),
        (1,): (3, (1, 2, 1)),
        (2,): (2, (2, 2)),
        (1, 2): (1, (4,)),
    },
    "Sp(6,R)": {
        (): (8, (1,) * 8),
        (1,): (6, (1, 1, 2, 2, 1, 1)),
        (2,): (6, (1, 2, 1, 1, 2, 1)),
        (3,): (4, (2, 2, 2, 2)),
        (1, 2): (4, (1, 3, 3, 1)),
        (1, 3): (3, (2, 4, 2)),
        (2, 3): (2, (4, 4)),
        (1, 2, 3): (1, (8,)),
    },
    "SO(2,3)": {
        (): (4, (1, 1, 1, 1)),
        (1,): (2, (2, 2)),
        (2,): (3, (1, 2, 1)),
        (1, 2): (1, (4,)),
    },
    "SO(2,2)": {
        (): (4, (1, 1, 1, 1)),
        (1,): (2, (2, 2)),
        (2,): (2, (2, 2)),
        (1, 2): (1, (4,)),
    },
    "SO(3,3)": {
        (): (2, (2, 2)),
        (1,): (1, (4,)),
        (2, 3): (2, (2, 2)),
        (1, 2, 3): (1, (4,)),
    },
    "SO(2,4)": {
        (): (6, (1, 1, 1, 1, 1, 1)),
        (1,): (4, (2, 1, 2, 1)),
        (2,): (4, (1, 2, 2, 1)),
        (3,): (4, (1, 2, 2, 1)),
        (1, 2): (2, (3, 3)),
        (1, 3): (2, (3, 3)),
        (2, 3): (3, (1, 4, 1)),
        (1, 2, 3): (1, (6,)),
    },
    "U(2,2)": {
        (): (6, (1, 1, 1, 1, 1, 1)),
        (1,): (4, (1, 2, 2, 1)),
        (2,): (4, (2, 1, 1, 2)),
        (3,): (4, (1, 2, 2, 1)),
        (1, 2): (2, (3, 3)),
        (1, 3): (3, (1, 4, 1)),
        (2, 3): (2, (3, 3)),
        (1, 2, 3): (1, (6,)),
    },
}


@pytest.mark.parametrize("desc", sorted(PACKET_TABLES))
def test_packet_tables(desc):
    table = PACKET_TABLES[desc]
    got = {}
    for c in enumerate_cohomological(desc):
        p = packet(desc, c)
        got[tuple(sorted(c.S))] = (p.size, tuple(m.h_dim for m in p.members))
    assert got == table


def test_packet_totals_independent_of_subset():
    want = {
        "Sp(4,R)": 4,
        "Sp(6,R)": 8,
        "SO(2,3)": 4,
        "SO(2,2)": 4,
        "SO(3,3)": 4,
        "SO(2,4)": 6,
        "U(2,2)": 6,
        "U(2,1)": 3,
        "GL(4,R)": 4,
        "GL(5,R)": 8,
        "GL(3,C)": 8,  # singleton member, exterior algebra on 3 generators
    }
    for desc, total in want.items():
        for c in enumerate_cohomological(desc):
            assert packet(desc, c).h_total == total, (desc, sorted(c.S))


class TestPacketStructure:
    def test_gl_real_packets_are_singletons(self):
        for n in range(1, 6):
            desc = f"GL({n},R)"
            for c in enumerate_cohomological(desc):
                assert packet(desc, c).size == 1

    def test_gl_complex_packets_are_singletons(self):
        for n in range(1, 5):
            desc = f"GL({n},C)"
            for c in enumerate_cohomological(desc):
                assert packet(desc, c).size == 1

    def test_special_flavor_splits_paired_blocks(self):
        # with the connected compact side, the no-middle-block subset
        # carries a packet of two equal halves
        d = build_classical_dual("SL(4,R)")
        c = CohomParameter(d, frozenset({1, 3}), zero(4))
        p = packet("SL(4,R)", c)
        assert p.size == 2
        assert tuple(m.h_dim for m in p.members) == (4, 4)

    def test_u21_member_labels(self):
        want = {
            (): {"U(1,0)xU(1,0)xU(0,1)", "U(1,0)xU(0,1)xU(1,0)", "U(0,1)xU(1,0)xU(1,0)"},
            (1,): {"U(2,0)xU(0,1)", "U(1,1)xU(1,0)"},
            (2,): {"U(1,0)xU(1,1)", "U(0,1)xU(2,0)"},
            (1, 2): {"U(2,1)"},
        }
        for c in enumerate_cohomological("U(2,1)"):
            p = packet("U(2,1)", c)
            assert {m.label for m in p.members} == want[tuple(sorted(c.S))]

    @pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_u_labels_match_closed_form(self, p, q):
        desc = f"U({p},{q})"
        n = p + q
        for c in enumerate_cohomological(desc):
            pkt = packet(desc, c)
            blocks, cur = [], 1
            for j in range(1, n):
                if j in c.S:
                    cur += 1
                else:
                    blocks.append(cur)
                    cur = 1
            blocks.append(cur)
            closed = unitary_packet_members(p, q, tuple(blocks))
            got = sorted((m.label, m.h_dim) for m in pkt.members)
            want = sorted((m.label, m.h_dim) for m in closed)
            assert got == want, (desc, sorted(c.S))

    def test_count_equals_packet_size(self):
        for desc in ("Sp(4,R)", "SO(2,3)", "SO(2,4)", "U(2,1)", "GL(4,R)"):
            d = build_classical_dual(desc)
            for c in enumerate_cohomological(desc):
                q = StandardParabolic(d, c.S)
                assert theta_stable_parabolic_count(desc, q) == packet(desc, c).size

    def test_borel_counts(self):
        # count over the empty subset = index of the compact-side subgroup
        cases = {"Sp(4,R)": 4, "U(2,1)": 3, "SO(2,3)": 4, "Sp(6,R)": 8}
        for desc, want in cases.items():
            d = build_classical_dual(desc)
            q = StandardParabolic(d, frozenset())
            assert theta_stable_parabolic_count(desc, q) == want

    def test_member_bookkeeping_consistency(self):
        # h_dim * |K| = 2^d * |coset| for every member, and coset sizes
        # partition W^theta
        for desc in ("Sp(6,R)", "SO(2,4)", "U(2,2)", "SL(4,R)", "GL(5,R)"):
            cat = compact_weyl_catalog(desc)
            d = build_classical_dual(desc)
            for c in enumerate_cohomological(desc):
                pkt = packet(desc, c)
                assert sum(m.coset_size for m in pkt.members) == len(cat.w_theta)
                for m in pkt.members:
                    assert m.h_dim * len(cat.k_weyl) == (
                        2**cat.d_exponent
                    ) * m.coset_size

    def test_deterministic_json(self):
        c = enumerate_cohomological("Sp(4,R)")[1]
        a = packet("Sp(4,R)", c).to_json()
        b = packet("Sp(4,R)", c).to_json()
        assert a == b
        assert set(a) == {
            "group", "levi_subset", "size", "d_exponent", "h_total", "members",
        }
        assert all(set(m) == {"rep", "label", "h_dim"} for m in a["members"])

    def test_group_parameter_mismatch(self):
        c = enumerate_cohomological("Sp(4,R)")[0]
        with pytest.raises(UnsupportedGroupError):
            packet("Sp(6,R)", c)
        d = build_classical_dual("GL(4,R)")
        with pytest.raises(UnsupportedGroupError):
            theta_stable_parabolic_count("GL(5,R)", StandardParabolic(d, frozenset()))

    def test_non_self_associate_subset_rejected(self):
        d = build_classical_dual("GL(4,R)")
        with pytest.raises(InvalidWeightError):
            theta_stable_parabolic_count("GL(4,R)", StandardParabolic(d, frozenset({1})))

    def test_unsupported_group_rejected(self):
        c = enumerate_cohomological("Sp(4,R)")[0]
        with pytest.raises(UnsupportedGroupError):
            packet("SO(3,5)", c)


# ---------------------------------------------------------------------------
# W_L^theta as a stabilizer inside W^theta, against the closure route


def _catalog_groups_up_to(order: int) -> list[str]:
    """Every descriptor the catalog serves whose Weyl group has <= order elements.

    Each family's range runs one size past the bound of 5040.
    """
    candidates = (
        [f"GL({n},R)" for n in range(1, 9)]
        + [f"SL({n},R)" for n in range(2, 9)]
        + [f"GL({n},C)" for n in range(1, 6)]
        + [f"U({p},{n - p})" for n in range(1, 9) for p in range(n + 1)]
        + [f"Sp({2 * n},R)" for n in range(1, 7)]
        + [f"SO({p},{n - p})" for n in range(2, 14) for p in range(n + 1)]
    )
    out = []
    for desc in candidates:
        kind, p, q = parse_group(desc)
        if kind == "SO" and p % 2 == q % 2 == 1 and p + q > 6:
            continue  # SO(odd,odd) is served only through rank 3
        if weyl_order(build_classical_dual(desc)) <= order:
            out.append(desc)
    return out


_CLOSURE_ROUTE: dict = {}


def _levi_theta_by_closure(parabolic: StandardParabolic, theta: WeylElement):
    # W_L depends on the roots only, which the factors fix, so real forms
    # with the same factors and theta share the closure
    key = (parabolic.datum.factors, parabolic.S, theta)
    if key not in _CLOSURE_ROUTE:
        levi = levi_weyl_group(parabolic)
        _CLOSURE_ROUTE[key] = theta_fixed_subgroup(levi, theta)
    return _CLOSURE_ROUTE[key]


def _self_associate_parabolics(d):
    for r in range(d.rank + 1):
        for S in itertools.combinations(range(1, d.rank + 1), r):
            parabolic = StandardParabolic(d, frozenset(S))
            if is_self_associate(parabolic):
                yield parabolic


@pytest.mark.parametrize("desc", _catalog_groups_up_to(5040))
def test_levi_theta_by_stabilizer_matches_closure(desc, monkeypatch):
    # only W_L^theta is compared here; the cosets are checked below
    monkeypatch.setattr(packets, "double_cosets", lambda *groups: ())
    cat = compact_weyl_catalog(desc)
    for parabolic in _self_associate_parabolics(cat.datum):
        _, levi_theta = _cosets_for_subset(cat, parabolic.S)
        expected = _levi_theta_by_closure(parabolic, cat.theta_map)
        assert levi_theta == expected, parabolic.S


@pytest.mark.parametrize("desc", _catalog_groups_up_to(5040))
def test_double_cosets_match_the_right_coset_expansion(desc):
    # same reps, sizes and order as the route that expands right cosets
    cat = compact_weyl_catalog(desc)
    for parabolic in _self_associate_parabolics(cat.datum):
        cosets, levi_theta = _cosets_for_subset(cat, parabolic.S)
        expected = double_cosets_by_expansion(cat.k_weyl, levi_theta, cat.w_theta)
        assert cosets == expected, parabolic.S


@pytest.mark.parametrize(
    "desc,S", [("Sp(8,R)", frozenset()), ("U(3,3)", frozenset(range(1, 6)))]
)
def test_double_cosets_expand_each_right_coset_once(desc, S, monkeypatch):
    cat = compact_weyl_catalog(desc)
    _, levi_theta = _cosets_for_subset(cat, S)
    mul = WeylElement.__mul__
    products = 0

    def counted(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(WeylElement, "__mul__", counted)
    cosets = double_cosets(cat.k_weyl, levi_theta, cat.w_theta)
    monkeypatch.undo()
    assert sum(c.size for c in cosets) == len(cat.w_theta)
    assert products <= sum(len(cat.k_weyl) + c.size for c in cosets)


@pytest.mark.parametrize(
    "desc,S", [("Sp(8,R)", frozenset()), ("U(3,3)", frozenset(range(1, 6)))]
)
def test_double_cosets_take_one_product_per_right_element_and_coset(
    desc, S, monkeypatch
):
    cat = compact_weyl_catalog(desc)
    _, levi_theta = _cosets_for_subset(cat, S)
    monkeypatch.setattr(weyl, "_LEFT_COSET_TABLES", {})
    build = weyl._build_left_coset_table
    builds = []

    def counted_build(left, ambient):
        builds.append(left)
        return build(left, ambient)

    mul = WeylElement.__mul__
    products = 0

    def counted(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(weyl, "_build_left_coset_table", counted_build)
    monkeypatch.setattr(WeylElement, "__mul__", counted)
    for _ in range(2):  # the second call reuses the first call's table
        products = 0
        cosets = double_cosets(cat.k_weyl, levi_theta, cat.w_theta)
        assert products == len(cosets) * len(levi_theta)
        assert len(builds) == 1
    monkeypatch.undo()
    assert sum(c.size for c in cosets) == len(cat.w_theta)
