"""Cohomology sums: polynomial tables, partition independence, inner forms.

Orbit decompositions are checked against a breadth-first oracle that acts
with honest signed permutations (demonstrating that sign flips are inert
on 2-torsion, which the implementation exploits).  Totals are frozen from
hand-expanded products and cross-checked against the catalog closed forms.
"""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohoparam import (
    CohomParameter,
    HalfIntVector,
    InvalidWeightError,
    MathCheckError,
    PoincarePolynomial,
    UnsupportedGroupError,
    WeylSizeError,
    build_classical_dual,
    enumerate_cohomological,
    innerform_sum_compact,
    innerform_sum_quasisplit,
    levi_cohomology,
    levi_member_count,
    packet_cohomology_sum,
    partition_independence,
    self_dual_compositions,
    so_even_dichotomy,
    symmetric_space_poincare,
)
from cohoparam.weyl import compact_weyl_catalog

from oracles import self_dual_compositions_by_filter, self_dual_compositions_by_recursion


def zero(n):
    return HalfIntVector((0,) * n)


# ---------------------------------------------------------------------------
# polynomials


class TestPoincarePolynomial:
    def test_product_is_convolution(self):
        a = PoincarePolynomial((1, 1))       # 1 + t
        b = PoincarePolynomial((1, 0, 1))    # 1 + t^2
        assert (a * b).coeffs == (1, 1, 1, 1)

    def test_exterior_two_generators(self):
        p = PoincarePolynomial.exterior([1, 3])
        assert p.coeffs == (1, 1, 0, 1, 1)
        assert p.total == 4

    def test_trailing_zeros_trimmed(self):
        assert PoincarePolynomial((1, 1, 0, 0)).coeffs == (1, 1)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(InvalidWeightError):
            PoincarePolynomial((1, -1))

    def test_bad_generator_degree(self):
        with pytest.raises(InvalidWeightError):
            PoincarePolynomial.exterior([0])

    @given(st.lists(st.integers(min_value=1, max_value=9), max_size=6))
    def test_exterior_palindromic_with_power_of_two_total(self, degrees):
        p = PoincarePolynomial.exterior(degrees)
        assert p.is_palindromic
        assert p.total == 2 ** len(degrees)
        assert len(p.coeffs) - 1 == sum(degrees)

    @given(
        st.lists(st.integers(min_value=1, max_value=6), max_size=4),
        st.lists(st.integers(min_value=1, max_value=6), max_size=4),
    )
    def test_product_of_palindromics_is_palindromic(self, d1, d2):
        p = PoincarePolynomial.exterior(d1) * PoincarePolynomial.exterior(d2)
        assert p.is_palindromic
        assert p.total == 2 ** (len(d1) + len(d2))


# ---------------------------------------------------------------------------
# symmetric-space tables


# hand-expanded generator products
SPACE_TABLE = {
    ("U_n", 1): (1, 1),                       # (1+t)
    ("U_n", 2): (1, 1, 0, 1, 1),              # (1+t)(1+t^3)
    ("U_n", 3): (1, 1, 0, 1, 1, 1, 1, 0, 1, 1),
    ("U/SO_odd", 1): (1, 1),
    ("U/SO_odd", 3): (1, 1, 0, 0, 0, 1, 1),   # (1+t)(1+t^5)
    ("U/SO_even", 2): (1, 1, 1, 1),           # (1+t)(1+t^2)
    ("U/SO_even", 4): (1, 1, 0, 0, 1, 2, 1, 0, 0, 1, 1),
    ("U/O_even", 2): (1, 1),
    ("U/O_even", 4): (1, 1, 0, 0, 0, 1, 1),   # (1+t)(1+t^5)
    ("U/Sp", 2): (1, 1),
    ("U/Sp", 4): (1, 1, 0, 0, 0, 1, 1),
}


class TestSymmetricSpaces:
    @pytest.mark.parametrize("key,coeffs", sorted(SPACE_TABLE.items()))
    def test_table(self, key, coeffs):
        tag, n = key
        assert symmetric_space_poincare(tag, n).coeffs == coeffs

    def test_parity_mismatch(self):
        with pytest.raises(InvalidWeightError):
            symmetric_space_poincare("U/SO_odd", 4)
        with pytest.raises(InvalidWeightError):
            symmetric_space_poincare("U/Sp", 3)

    def test_unknown_tag(self):
        with pytest.raises(UnsupportedGroupError):
            symmetric_space_poincare("U/G2", 2)

    def test_size_zero_rejected(self):
        with pytest.raises(InvalidWeightError):
            symmetric_space_poincare("U_n", 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unitary_total(self, n):
        assert symmetric_space_poincare("U_n", n).total == 2**n

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_quotient_totals(self, n):
        k = n // 2
        assert symmetric_space_poincare("U/O_even", n).total == 2**k
        assert symmetric_space_poincare("U/Sp", n).total == 2**k
        # the Euler factor doubles the connected flavor
        assert symmetric_space_poincare("U/SO_even", n).total == 2 ** (k + 1)

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_odd_quotient_total(self, n):
        assert symmetric_space_poincare("U/SO_odd", n).total == 2 ** ((n + 1) // 2)


# ---------------------------------------------------------------------------
# Levi factors and partition independence


class TestLeviCohomology:
    def test_pair_of_twos(self):
        assert levi_cohomology((2, 2), "O").total == 4
        assert levi_cohomology((2, 2), "SO").total == 4

    def test_middle_block_flavors_differ_when_even(self):
        assert levi_cohomology((1, 2, 1), "O").total == 4
        assert levi_cohomology((1, 2, 1), "SO").total == 8

    def test_odd_middle_block_flavor_blind(self):
        # the extra reflection is central on an odd block
        for shape in ((3,), (1, 3, 1), (2, 1, 2)):
            assert levi_cohomology(shape, "O").coeffs == (
                levi_cohomology(shape, "SO").coeffs
            )

    def test_not_self_dual_rejected(self):
        with pytest.raises(InvalidWeightError):
            levi_cohomology((1, 2), "O")

    def test_bad_flavor(self):
        with pytest.raises(InvalidWeightError):
            levi_cohomology((2, 2), "Sp")

    def test_member_count(self):
        assert levi_member_count((2, 2), "SO") == 2
        assert levi_member_count((2, 2), "O") == 1
        assert levi_member_count((1, 2, 1), "SO") == 1
        assert levi_member_count((4,), "SO") == 1


class TestSelfDualCompositions:
    def test_four(self):
        assert self_dual_compositions(4) == (
            (4,),
            (2, 2),
            (1, 2, 1),
            (1, 1, 1, 1),
        )

    def test_five(self):
        assert set(self_dual_compositions(5)) == {
            (5,),
            (1, 3, 1),
            (2, 1, 2),
            (1, 1, 1, 1, 1),
        }

    @pytest.mark.parametrize("N", range(1, 11))
    def test_count_matches_closed_form(self, N):
        # one composition per subset of a half-diagram
        assert len(self_dual_compositions(N)) == 2 ** (N // 2)

    @pytest.mark.parametrize("N", range(1, 11))
    def test_all_self_dual(self, N):
        for comp in self_dual_compositions(N):
            assert comp == tuple(reversed(comp))
            assert sum(comp) == N

    @pytest.mark.parametrize("N", range(1, 15))
    def test_matches_the_recursive_and_filtered_oracles(self, N):
        out = self_dual_compositions(N)
        assert out == self_dual_compositions_by_recursion(N)
        by_filter = self_dual_compositions_by_filter(N)
        assert out == tuple(sorted(by_filter, key=lambda c: (len(c), c)))

    def test_rejects_N_below_one(self):
        for N in (0, -1):
            with pytest.raises(InvalidWeightError):
                self_dual_compositions(N)


class TestPartitionIndependence:
    @pytest.mark.parametrize("N", range(2, 11, 2))
    def test_even_disconnected(self, N):
        r = partition_independence(N, "O")
        assert r["status"] == "ok"
        assert r["lhs"] == 2 ** (N // 2)
        assert "textual_variant" not in r

    @pytest.mark.parametrize("N", range(2, 11, 2))
    def test_even_connected(self, N):
        r = partition_independence(N, "SO")
        assert r["status"] == "ok"
        assert r["lhs"] == 2 ** (N // 2 + 1)

    @pytest.mark.parametrize("N", range(1, 10, 2))
    @pytest.mark.parametrize("flavor", ["O", "SO"])
    def test_odd(self, N, flavor):
        r = partition_independence(N, flavor)
        assert r["status"] == "ok"
        assert r["lhs"] == 2 ** ((N + 1) // 2)
        # the one-generator-fewer reading is reported but flagged
        assert r["textual_variant"]["total"] == 2 ** (N // 2)

    def test_witnesses_cover_every_shape(self):
        r = partition_independence(6, "SO")
        shapes = {tuple(w["partition"]) for w in r["witnesses"]}
        assert shapes == set(self_dual_compositions(6))
        assert all(w["total"] == 16 for w in r["witnesses"])

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("flavor", ["O", "SO"])
    def test_closed_form_matches_the_built_catalog(self, N, flavor):
        r = partition_independence(N, flavor)
        cat = compact_weyl_catalog(r["group"])
        assert r["rhs"] == 2**cat.d_exponent * cat.n_cosets

    def test_over_the_cap_builds_no_composition(self, monkeypatch):
        # |W^theta| of GL(40,R) is over the default cap, and the cap is
        # checked before the sweep builds any of 2**20 compositions
        from cohoparam import cohomology

        def never(N):
            pytest.fail(f"self_dual_compositions({N}) built over the cap")

        monkeypatch.setattr(cohomology, "self_dual_compositions", never)
        with pytest.raises(WeylSizeError):
            partition_independence(40, "O")

    def test_builds_no_catalog(self):
        # route (ii) reads both orders off the catalog's table, so N = 14
        # (|W^theta| = 645,120) takes no time and no memory
        from cohoparam import weyl

        # misses count every build, also once the cache is full
        before = weyl._compact_weyl_catalog.cache_info().misses
        assert partition_independence(14, "SO")["status"] == "ok"
        assert weyl._compact_weyl_catalog.cache_info().misses == before


# ---------------------------------------------------------------------------
# packet sums


PACKET_SUM_TABLE = {
    ("GL(4,R)", ()): 4,
    ("GL(4,R)", (2,)): 4,
    ("GL(4,R)", (1, 2, 3)): 4,
    ("GL(5,R)", (1, 4)): 8,
    ("SL(4,R)", ()): 8,
    ("SL(4,R)", (1, 3)): 8,
    ("GL(3,C)", ()): 8,
    ("GL(3,C)", (1, 4)): 8,
    ("U(2,1)", ()): 3,
    ("U(2,2)", (2,)): 6,
    ("Sp(4,R)", (2,)): 4,
    ("Sp(6,R)", (1, 3)): 8,
    ("SO(2,3)", (1,)): 4,
    ("SO(2,2)", ()): 4,
    ("SO(3,3)", (2, 3)): 4,
    ("SO(2,4)", ()): 6,
}


class TestPacketSum:
    @pytest.mark.parametrize("key,total", sorted(PACKET_SUM_TABLE.items()))
    def test_frozen_values(self, key, total):
        desc, S = key
        d = build_classical_dual(desc)
        c = CohomParameter(d, frozenset(S), zero(d.ambient_dim))
        r = packet_cohomology_sum(desc, c)
        assert r.value == total
        # every computed route agreed (the call would have raised otherwise)
        assert set(r.routes.values()) == {total}

    def test_routes_present_per_family(self):
        d = build_classical_dual("GL(4,R)")
        r = packet_cohomology_sum(
            "GL(4,R)", CohomParameter(d, frozenset({2}), zero(4))
        )
        assert set(r.routes) == {
            "members",
            "catalog",
            "levi_product",
            "exponent_form",
        }
        d = build_classical_dual("U(2,1)")
        r = packet_cohomology_sum("U(2,1)", CohomParameter(d, frozenset(), zero(3)))
        assert set(r.routes) == {"members", "catalog", "binomial_product"}
        d = build_classical_dual("Sp(4,R)")
        r = packet_cohomology_sum("Sp(4,R)", CohomParameter(d, frozenset(), zero(2)))
        assert set(r.routes) == {"members", "catalog"}
        assert r.notes

    def test_sum_independent_of_subset_catalog_sweep(self):
        for desc in (
            "GL(4,R)",
            "SL(4,R)",
            "GL(5,R)",
            "GL(2,C)",
            "U(2,2)",
            "Sp(6,R)",
            "SO(2,3)",
            "SO(3,3)",
        ):
            totals = {
                packet_cohomology_sum(desc, c).value
                for c in enumerate_cohomological(desc)
            }
            assert len(totals) == 1, (desc, totals)

    def test_json_schema(self):
        d = build_classical_dual("U(2,1)")
        r = packet_cohomology_sum("U(2,1)", CohomParameter(d, frozenset(), zero(3)))
        j = r.to_json()
        assert j["identity"] == "packet-sum"
        assert j["lhs"] == j["rhs"] == 3
        assert j["status"] == "ok"
        assert {w["route"] for w in j["witnesses"]} == set(r.routes)


# ---------------------------------------------------------------------------
# inner forms, compact case


def signed_orbit_oracle(rank, flip_parity, use_flips):
    """Orbit sizes of a signed permutation group on {+1,-1}^rank, by BFS.

    The action is the honest one — permute coordinates, then invert the
    flipped entries — so this oracle does not presuppose that flips act
    trivially on 2-torsion.  ``flip_parity`` restricts to even flip
    counts (the even orthogonal Weyl group); ``use_flips=False`` gives the
    plain symmetric group.
    """
    vectors = list(itertools.product((1, -1), repeat=rank))
    gens = []
    for i in range(rank - 1):  # adjacent transpositions
        perm = list(range(rank))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append((tuple(perm), (1,) * rank))
    if use_flips and rank >= 1:
        flip = [1] * rank
        if flip_parity == "even":
            if rank >= 2:
                flip[0] = flip[1] = -1
                gens.append((tuple(range(rank)), tuple(flip)))
        else:
            flip[0] = -1
            gens.append((tuple(range(rank)), tuple(flip)))

    def act(gen, vec):
        perm, signs = gen
        out = [1] * rank
        for i, v in enumerate(vec):
            out[perm[i]] = v ** (1 if signs[i] == 1 else -1)
        return tuple(out)

    seen = {}
    orbits = []
    for v in vectors:
        if v in seen:
            continue
        frontier, orbit = [v], {v}
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = act(g, cur)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        for u in orbit:
            seen[u] = True
        orbits.append(len(orbit))
    return sorted(orbits)


class TestCompactInnerForms:
    def test_unitary_three(self):
        r = innerform_sum_compact("U(3)")
        assert r.lhs == r.rhs == 8
        assert [(c.label, c.orbit_size, c.stabilizer_order) for c in r.classes] == [
            ("U(3,0)", 1, 6),
            ("U(2,1)", 3, 2),
            ("U(1,2)", 3, 2),
            ("U(0,3)", 1, 6),
        ]

    def test_unitary_rank_one(self):
        r = innerform_sum_compact("U(1)")
        assert r.lhs == 2
        assert [c.orbit_size for c in r.classes] == [1, 1]

    def test_symplectic_rank_two(self):
        r = innerform_sum_compact("Sp(2)")
        assert [c.orbit_size for c in r.classes] == [1, 2, 1]
        assert [c.stabilizer_order for c in r.classes] == [8, 4, 8]
        assert r.lhs == 4

    def test_odd_orthogonal_matches_symplectic(self):
        # same Weyl group, same torus
        a = innerform_sum_compact("SO(5)")
        b = innerform_sum_compact("Sp(2)")
        assert [c.orbit_size for c in a.classes] == [
            c.orbit_size for c in b.classes
        ]

    def test_even_orthogonal(self):
        r = innerform_sum_compact("SO(4)")
        assert [c.stabilizer_order for c in r.classes] == [4, 2, 4]

    def test_rank_zero_torus(self):
        r = innerform_sum_compact("SO(1)")
        assert r.lhs == r.rhs == 1

    def test_bad_descriptors(self):
        for bad in ("U(2,1)", "Sp(4,R)", "E8", "U(0)", "SO(-3)"):
            with pytest.raises(UnsupportedGroupError):
                innerform_sum_compact(bad)

    @pytest.mark.parametrize("rank", range(1, 9))
    def test_orbit_times_stabilizer(self, rank):
        for desc in (f"U({rank})", f"Sp({rank})", f"SO({2 * rank})", f"SO({2 * rank + 1})"):
            r = innerform_sum_compact(desc)
            assert r.lhs == r.rhs == 2 ** (len(r.classes[0].rep))
            weyl = r.classes[0].orbit_size * r.classes[0].stabilizer_order
            for c in r.classes:
                assert c.orbit_size * c.stabilizer_order == weyl

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_against_signed_bfs_oracle(self, rank):
        # unitary: plain symmetric group
        got = sorted(c.orbit_size for c in innerform_sum_compact(f"U({rank})").classes)
        assert got == signed_orbit_oracle(rank, None, use_flips=False)
        # symplectic and odd orthogonal: full flips; flips must be inert
        got = sorted(
            c.orbit_size for c in innerform_sum_compact(f"Sp({rank})").classes
        )
        assert got == signed_orbit_oracle(rank, "full", use_flips=True)
        # even orthogonal: even flip count only
        got = sorted(
            c.orbit_size
            for c in innerform_sum_compact(f"SO({2 * rank})").classes
        )
        assert got == signed_orbit_oracle(rank, "even", use_flips=True)

    def test_json_schema(self):
        j = innerform_sum_compact("U(2)").to_json()
        assert j["identity"] == "compact-innerforms"
        assert j["lhs"] == j["rhs"] == 4
        assert j["status"] == "ok"
        assert len(j["witnesses"]) == 3


# ---------------------------------------------------------------------------
# inner forms, quasi-split case


QUASISPLIT_TABLE = {
    # group: (lhs, rhs, betti, [(label, index), ...])
    "U(2,1)": (8, 8, 8, [("U(3,0)", 1), ("U(2,1)", 3), ("U(1,2)", 3), ("U(0,3)", 1)]),
    "U(2,2)": (
        16,
        16,
        16,
        [("U(4,0)", 1), ("U(3,1)", 4), ("U(2,2)", 6), ("U(1,3)", 4), ("U(0,4)", 1)],
    ),
    "GL(4,R)": (1, 1, 4, [("GL(4,R)", 1)]),
    "GL(5,R)": (1, 1, 8, [("GL(5,R)", 1)]),
    "GL(3,C)": (1, 1, 8, [("GL(3,C)", 1)]),
    "Sp(4,R)": (4, 4, 4, [("Sp(4,R)", 4)]),
    "Sp(6,R)": (8, 8, 8, [("Sp(6,R)", 8)]),
    "SO(2,3)": (4, 4, 4, [("SO(4,1)", 1), ("SO(2,3)", 2), ("SO(0,5)", 1)]),
    "SO(3,2)": (4, 4, 4, [("SO(5,0)", 1), ("SO(3,2)", 2), ("SO(1,4)", 1)]),
    "SO(3,4)": (
        8,
        8,
        8,
        [("SO(7,0)", 1), ("SO(5,2)", 3), ("SO(3,4)", 3), ("SO(1,6)", 1)],
    ),
    "SO(2,2)": (4, 4, 4, [("SO(4,0)", 1), ("SO(2,2)", 2), ("SO(0,4)", 1)]),
    "SO(3,3)": (4, 4, 8, [("SO(5,1)", 1), ("SO(3,3)", 2), ("SO(1,5)", 1)]),
    "SO(2,4)": (
        8,
        8,
        8,
        [("SO(6,0)", 1), ("SO(4,2)", 3), ("SO(2,4)", 3), ("SO(0,6)", 1)],
    ),
}


class TestQuasisplitInnerForms:
    @pytest.mark.parametrize("desc", sorted(QUASISPLIT_TABLE))
    def test_frozen_table(self, desc):
        lhs, rhs, betti, classes = QUASISPLIT_TABLE[desc]
        r = innerform_sum_quasisplit(desc)
        assert r.status == "ok"
        assert (r.lhs, r.rhs, r.betti_total) == (lhs, rhs, betti)
        assert [(c["label"], c["index"]) for c in r.classes] == classes

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unitary_family_binomials(self, n):
        r = innerform_sum_quasisplit(f"U({(n + 1) // 2},{n // 2})")
        assert r.lhs == r.rhs == 2**n
        assert len(r.classes) == n + 1
        assert [c["index"] for c in r.classes] == [
            comb(n, k) for k in range(n + 1)
        ]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_symplectic_single_form(self, n):
        r = innerform_sum_quasisplit(f"Sp({2 * n},R)")
        assert r.lhs == r.rhs == 2**n
        assert len(r.classes) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_odd_orthogonal_families(self, n):
        for q in (n, n + 1):  # both discriminant classes
            r = innerform_sum_quasisplit(f"SO({2 * n + 1 - q},{q})")
            assert r.status == "ok"
            assert r.lhs == r.rhs == 2**n
            assert len(r.classes) == n + 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_even_orthogonal_even_discriminant(self, n):
        q = n if n % 2 == 0 else n - 1
        r = innerform_sum_quasisplit(f"SO({2 * n - q},{q})")
        assert r.lhs == r.rhs == 2**n
        assert len(r.classes) == n + 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_even_orthogonal_odd_discriminant(self, n):
        q = n if n % 2 == 1 else n - 1
        r = innerform_sum_quasisplit(f"SO({2 * n - q},{q})")
        assert r.lhs == r.rhs == 2 ** (n - 1)
        assert len(r.classes) == n

    def test_connected_flavor_reports_discrepancy(self):
        r = innerform_sum_quasisplit("SL(4,R)")
        assert r.status == "discrepancy"
        assert (r.lhs, r.rhs) == (2, 1)
        assert r.notes
        # the odd-size row has the same compact side as the GL row
        assert innerform_sum_quasisplit("SL(3,R)").status == "ok"

    def test_circle_rank_matches_catalog(self):
        # the formula table mirrors the catalog's torus shapes
        for desc in ("U(2,1)", "GL(4,R)", "GL(2,C)", "Sp(4,R)", "SO(2,3)",
                     "SO(2,2)", "SO(3,3)", "SO(2,4)"):
            cat = compact_weyl_catalog(desc)
            r = innerform_sum_quasisplit(desc)
            a, b, e = cat.cartan_signature
            assert r.rhs == 2**e, desc
            assert r.betti_total == 2 ** (a + b + e), desc

    def test_betti_total_matches_packet_sums(self):
        # summing the packet total over the unitary family reproduces
        # the 2^(a+b+e) bound
        total = 0
        for p in range(4):
            q = 3 - p
            desc = f"U({p},{q})"
            d = build_classical_dual(desc)
            c = CohomParameter(d, frozenset(), zero(3))
            total += packet_cohomology_sum(desc, c).value
        assert total == innerform_sum_quasisplit("U(2,1)").betti_total

    def test_json_schema(self):
        j = innerform_sum_quasisplit("SO(2,3)").to_json()
        assert j["identity"] == "quasisplit-innerforms"
        assert j["status"] == "ok"
        assert j["lhs"] == j["rhs"] == 4
        assert j["betti_total"] == 4
        assert [w["label"] for w in j["witnesses"]] == [
            "SO(4,1)",
            "SO(2,3)",
            "SO(0,5)",
        ]


# ---------------------------------------------------------------------------
# the even orthogonal dichotomy


class TestDichotomy:
    @pytest.mark.parametrize(
        "p,q,contains",
        [
            (2, 2, True),
            (3, 3, True),
            (4, 4, True),
            (2, 4, False),
            (4, 2, False),
            (2, 6, True),
            (3, 5, None),  # triality-gated
        ],
    )
    def test_table(self, p, q, contains):
        if contains is None:
            with pytest.raises(UnsupportedGroupError):
                so_even_dichotomy(p, q)
            return
        r = so_even_dichotomy(p, q)
        assert r["contains_trivial"] is contains
        assert r["status"] == "ok"

    def test_parameter_texts(self):
        r = so_even_dichotomy(2, 4)
        assert r["parameter"] == "w0[5]+w1[1]"
        assert r["twisted_partner"] == "w1[5]+w0[1]"

    def test_odd_total_rejected(self):
        with pytest.raises(UnsupportedGroupError):
            so_even_dichotomy(2, 3)
