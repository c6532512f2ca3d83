import importlib.util
import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohoparam.errors import MathCheckError, UnsupportedGroupError
from cohoparam.halfint import HalfIntVector
from cohoparam.rootdata import (
    RootDatum,
    StandardParabolic,
    _expand_each_in_basis,
    WeylElement,
    build_classical_dual,
    dominant_orbit_rep,
    is_regular_orbit,
    is_self_associate,
    parse_group,
    principal_sl2_coefficients,
)

from oracles import cartan_matrix, levi_positive

# a spread of supported descriptors reused across tests
DESCRIPTORS = [
    "GL(1,R)", "GL(2,R)", "GL(3,R)", "GL(4,R)", "GL(5,R)",
    "SL(3,R)",
    "U(1,1)", "U(2,1)", "U(2,2)", "U(3,2)",
    "Sp(2,R)", "Sp(4,R)", "Sp(6,R)",
    "SO(2,3)", "SO(3,4)", "SO(2,2)", "SO(3,3)", "SO(2,4)", "SO(4,4)", "SO(1,5)",
    "GL(2,C)", "GL(3,C)",
]


def test_parse_group_accepts_grammar():
    assert parse_group("gl(4, r)") == ("GL", 4, "R")
    assert parse_group("U(2,1)") == ("U", 2, 1)
    assert parse_group("Sp(6,R)") == ("SP", 6, "R")
    assert parse_group("so(2,3)") == ("SO", 2, 3)


@pytest.mark.parametrize(
    "bad",
    [
        "GL(4)", "SL(2,C)", "Sp(3,R)", "Sp(4,C)", "E8", "SO(2)", "U(2,R)", "",
        "SO(1,0)", "SO(0,1)",
    ],
)
def test_parse_group_rejects(bad):
    with pytest.raises(UnsupportedGroupError):
        parse_group(bad)


def test_triality_signature_rejected():
    with pytest.raises(UnsupportedGroupError):
        build_classical_dual("SO(3,5)")
    with pytest.raises(UnsupportedGroupError):
        build_classical_dual("SO(1,7)")
    # even-even signatures at p+q=8 are unambiguous and fine
    build_classical_dual("SO(4,4)")
    build_classical_dual("SO(2,6)")


# -- rho-check closed forms (hand tables for the four classical types) ------


def test_rho_check_type_A():
    d = build_classical_dual("GL(4,R)")
    assert d.rho_check == HalfIntVector.parse("3/2,1/2,-1/2,-3/2")
    assert d.rho == d.rho_check


def test_rho_check_type_B():
    d = build_classical_dual("Sp(6,R)")  # dual SO_7, type B_3
    assert d.rho_check == HalfIntVector.from_ints(3, 2, 1)
    assert d.rho == HalfIntVector.parse("5/2,3/2,1/2")


def test_rho_check_type_C():
    d = build_classical_dual("SO(3,4)")  # dual Sp_6, type C_3
    assert d.rho_check == HalfIntVector.parse("5/2,3/2,1/2")
    assert d.rho == HalfIntVector.from_ints(3, 2, 1)


def test_rho_check_type_D():
    d = build_classical_dual("SO(4,4)")  # dual SO_8, type D_4
    assert d.rho_check == HalfIntVector.from_ints(3, 2, 1, 0)
    assert d.rho == d.rho_check


def test_rho_check_product():
    d = build_classical_dual("GL(3,C)")
    assert d.rho_check == HalfIntVector((2, 0, -2, 2, 0, -2))


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_rho_check_pairs_to_one(desc):
    d = build_classical_dual(desc)
    for i in range(1, d.rank + 1):
        assert d.rho_check.dot(d.alpha(i)) == 1
        assert d.rho.dot(d.alpha_check(i)) == 1


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_cartan_diagonal_and_integrality(desc):
    d = build_classical_dual(desc)
    c = cartan_matrix(d)
    for i in range(d.rank):
        assert c[i][i] == 2
        for j in range(d.rank):
            assert c[i][j].denominator == 1
            if i != j:
                assert c[i][j] <= 0


def test_cartan_matrix_B2_C2():
    b2 = cartan_matrix(build_classical_dual("Sp(4,R)"))
    assert b2 == [[2, -2], [-1, 2]]
    c2 = cartan_matrix(build_classical_dual("SO(2,3)"))
    assert c2 == [[2, -1], [-2, 2]]


# -- involutions -------------------------------------------------------------


def test_opposition_GL4():
    d = build_classical_dual("GL(4,R)")
    idx, lin = d.iota_index, d.iota_linear
    assert idx == (3, 2, 1)
    assert lin.apply(HalfIntVector.from_ints(1, 2, 3, 4)) == HalfIntVector.from_ints(
        -4, -3, -2, -1
    )


def test_opposition_is_identity_for_BC_and_even_D():
    for desc in ["Sp(4,R)", "SO(2,3)", "SO(4,4)", "SO(2,2)"]:
        d = build_classical_dual(desc)
        assert d.iota_linear == WeylElement.identity(d.ambient_dim)


def test_opposition_swaps_fork_for_odd_D():
    d = build_classical_dual("SO(3,3)")  # D_3
    assert d.iota_index == (1, 3, 2)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_involutions_are_involutive_diagram_maps(desc):
    d = build_classical_dual(desc)
    for idx_map in (d.iota_index, d.galois_index, d.theta_index):
        assert sorted(idx_map) == list(range(1, d.rank + 1))
        for i in range(1, d.rank + 1):
            assert idx_map[idx_map[i - 1] - 1] == i


def _gl3_with_galois(bad):
    """GL(3,R)'s datum with its Galois action replaced by `bad`."""
    d = build_classical_dual("GL(3,R)")
    return RootDatum(d.descriptor, d.family, d.factors, bad, d.signature)


@pytest.mark.parametrize(
    "bad,theta",
    [
        # index 0 twice and 1 never: theta = iota o gamma repeats -3
        pytest.param(WeylElement((0, 0, 2), (1, 1, 1)), "(-3 -3 -1)", id="bad0"),
        # a sign of 2 is stored as the entry 0, and theta carries it
        pytest.param(WeylElement((0, 1, 2), (1, 2, 1)), "(-3 0 -1)", id="bad1"),
    ],
)
def test_theta_linear_must_be_a_signed_permutation(bad, theta):
    # the one check that every conjugation by theta relies on, each input
    # rejected for its own defect
    d = _gl3_with_galois(bad)
    with pytest.raises(
        MathCheckError, match=re.escape(f"not a signed permutation: {theta}")
    ):
        d.theta_linear


def test_galois_index_must_permute_the_simple_roots():
    # negating e_1 sends alpha_1 = e_1 - e_2 to -e_1 - e_2, no simple root
    bad = WeylElement((0, 1, 2), (-1, 1, 1))
    d = _gl3_with_galois(bad)
    with pytest.raises(MathCheckError, match="does not permute simple roots"):
        d.galois_index


def test_theta_trivial_for_equal_rank_forms():
    # U(p,q), even-even SO, and non-split SO(4n+2) have discrete series:
    # every standard parabolic is self-associate.
    for desc in ["U(2,1)", "U(2,2)", "SO(2,4)", "SO(4,4)", "GL(4,R)"]:
        d = build_classical_dual(desc)
        if desc.startswith("GL"):
            continue
        assert all(d.theta(i) == i for i in range(1, d.rank + 1)), desc


def test_theta_on_split_GL_is_the_flip():
    d = build_classical_dual("GL(4,R)")
    assert d.theta_index == (3, 2, 1)


def test_self_associate_examples():
    d = build_classical_dual("GL(4,R)")
    assert is_self_associate(StandardParabolic(d, frozenset({1, 3})))
    assert is_self_associate(StandardParabolic(d, frozenset({2})))
    assert is_self_associate(StandardParabolic(d, frozenset()))
    assert not is_self_associate(StandardParabolic(d, frozenset({1})))
    # split SO(3,3): only fork-symmetric subsets
    d33 = build_classical_dual("SO(3,3)")
    assert is_self_associate(StandardParabolic(d33, frozenset({2, 3})))
    assert not is_self_associate(StandardParabolic(d33, frozenset({2})))


def test_galois_for_complex_group_swaps_factors():
    d = build_classical_dual("GL(3,C)")
    assert d.galois_index == (3, 4, 1, 2)
    v = HalfIntVector.from_ints(1, 2, 3, 4, 5, 6)
    assert d.galois_linear.apply(v) == HalfIntVector.from_ints(4, 5, 6, 1, 2, 3)
    # theta pairs factor-1 subsets with flipped factor-2 subsets
    assert d.theta_index == (4, 3, 2, 1)


# -- parabolic data ----------------------------------------------------------


def test_rho_check_levi_GL4():
    d = build_classical_dual("GL(4,R)")
    p = StandardParabolic(d, frozenset({1, 3}))
    assert p.rho_check_levi == HalfIntVector.parse("1/2,-1/2,1/2,-1/2")
    borel = StandardParabolic(d, frozenset())
    assert borel.rho_check_levi.is_zero


def test_rho_check_levi_B2_short_root():
    d = build_classical_dual("Sp(4,R)")  # B_2
    p = StandardParabolic(d, frozenset({2}))  # Levi contains the short root e_2
    assert p.rho_check_levi == HalfIntVector.from_ints(0, 1)


def test_levi_counts_full_subset():
    d = build_classical_dual("Sp(4,R)")
    full = StandardParabolic(d, frozenset({1, 2}))
    assert len(levi_positive(full)) == len(d.positive_roots)


def test_build_classical_dual_is_memoized():
    d = build_classical_dual("GL(3,R)")
    assert build_classical_dual("GL(3,R)") is d
    assert build_classical_dual(" gl( 3 , r ) ") is d  # one datum per group
    assert build_classical_dual("SL(3,R)") is not d


@pytest.mark.parametrize("bad", ["E8", "GL(0,R)", "SO(1,0)", "SO(3,5)"])
def test_bad_descriptor_raises_on_every_call(bad):
    for _ in range(2):
        with pytest.raises(UnsupportedGroupError):
            build_classical_dual(bad)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_rho_check_levi_is_half_the_levi_coroot_sum(desc):
    d = build_classical_dual(desc)
    for r in range(d.rank + 1):
        for S in itertools.combinations(range(1, d.rank + 1), r):
            p = StandardParabolic(d, frozenset(S))
            acc = HalfIntVector.zero(d.ambient_dim)
            for _, coroot in levi_positive(p):
                acc = acc + coroot
            assert p.rho_check_levi == acc.scale(1, 2)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_positive_roots_expand_with_nonnegative_integer_coefficients(desc):
    d = build_classical_dual(desc)
    simples = list(d.simple_roots)
    roots = [root for root, _ in d.positive_roots]
    for root, coeffs in zip(roots, _expand_each_in_basis(simples, roots)):
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)
        total = HalfIntVector.zero(d.ambient_dim)
        for alpha, c in zip(simples, coeffs):
            total = total + alpha.scale(int(c))
        assert total == root
        assert _expand_each_in_basis(simples, [root])[0] == coeffs


def test_expand_each_in_basis_flags_only_targets_outside_the_span():
    alpha_1 = build_classical_dual("Sp(4,R)").alpha(1)  # e_1 - e_2
    targets = [
        HalfIntVector.from_ints(1, -1),
        HalfIntVector.from_ints(1, 1),
        HalfIntVector.from_ints(-2, 2),
    ]
    assert _expand_each_in_basis([alpha_1], targets) == [[1], None, [-2]]
    assert _expand_each_in_basis([alpha_1, alpha_1], targets[:1]) == [None]
    # 2x - y = 2, -x + 2y = 2 as columns: x = y = 2
    a2 = [HalfIntVector.from_ints(2, -1), HalfIntVector.from_ints(-1, 2)]
    assert _expand_each_in_basis(a2, [HalfIntVector.from_ints(2, 2)]) == [[2, 2]]
    # x + y = 1, 2x + 2y = 2: the columns are equal, so no unique solution
    equal = [HalfIntVector.from_ints(1, 2)] * 2
    assert _expand_each_in_basis(equal, [HalfIntVector.from_ints(1, 2)]) == [None]
    with pytest.raises(ValueError):
        _expand_each_in_basis([alpha_1], [HalfIntVector.from_ints(1, -1, 0)])


def test_expand_in_basis():
    d = build_classical_dual("Sp(4,R)")
    simples = list(d.simple_roots)
    # e_1 + e_2 = alpha_1 + 2 alpha_2 in B_2
    target = HalfIntVector.from_ints(1, 1)
    assert _expand_each_in_basis(simples, [target])[0] == [Fraction(1), Fraction(2)]
    # inconsistent target: e_1 + e_2 is not a multiple of e_1 - e_2
    assert _expand_each_in_basis(simples[:1], [target])[0] is None


def expand_each_in_basis_oracle(basis, targets):
    """The Fraction elimination that the integer one replaced."""
    if not basis:
        return [[] if t.is_zero else None for t in targets]
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


@st.composite
def basis_and_targets(draw):
    """Half-integer vectors: a basis (sometimes dependent) and targets, half
    of them combinations of the basis."""
    dim = draw(st.integers(1, 5))
    vectors = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
    basis = draw(st.lists(vectors, min_size=1, max_size=dim + 1))
    targets = draw(st.lists(vectors, min_size=1, max_size=3))
    size = len(basis)
    coefficients = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    for coeffs in draw(st.lists(coefficients, max_size=3)):
        targets.append(
            [sum(c * v[r] for c, v in zip(coeffs, basis)) for r in range(dim)]
        )
    return (
        [HalfIntVector(tuple(v)) for v in basis],
        [HalfIntVector(tuple(v)) for v in targets],
    )


@settings(max_examples=300, deadline=None)
@given(basis_and_targets())
def test_expand_each_in_basis_matches_the_fraction_elimination(case):
    basis, targets = case
    assert _expand_each_in_basis(basis, targets) == expand_each_in_basis_oracle(
        basis, targets
    )


# -- the Levi's rho-check, per Dynkin component ------------------------------

_RECORD = Path(__file__).parent / "golden" / "record.py"
_spec = importlib.util.spec_from_file_location("golden_record", _RECORD)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def levi_coroot_sum_oracle(parabolic):
    """Doubled entries of the coroot sum over the whole-root filter."""
    acc = [0] * parabolic.datum.ambient_dim
    for _, coroot in levi_positive(parabolic):
        acc = [a + t for a, t in zip(acc, coroot.twice)]
    return acc


@pytest.mark.parametrize("desc", golden.GROUPS)
def test_component_sums_match_the_whole_root_filter(desc):
    d = build_classical_dual(desc)
    subsets = golden.theta_stable_subsets(desc)
    if d.family == "SO_even" and d.rank >= 2:
        # the two fork nodes are not joined; theta may swap them
        n = d.rank
        subsets += [(n - 1,), (n,), (n - 1, n)]
    for S in subsets:
        p = StandardParabolic(d, frozenset(S))
        expected = levi_coroot_sum_oracle(p)
        assert d.levi_coroot_sum(S) == expected, S
        assert p.rho_check_levi == HalfIntVector(tuple(expected)).scale(1, 2)


def test_fork_nodes_are_separate_components():
    d = build_classical_dual("SO(4,4)")  # D_4: 2 is the centre, 3 and 4 the fork
    neighbours = [{j for j in range(1, 5) if j != i and d.pairing(i, j)} for i in range(1, 5)]
    assert neighbours == [{2}, {1, 3, 4}, {2}, {2}]
    # e_3 - e_4 and e_3 + e_4 are orthogonal: their coroots add to 2 e_3;
    # they share both coordinates, so the Levi has them in one block
    assert d.levi_coroot_sum({3, 4}) == [0, 0, 4, 0]
    assert d._levi_blocks({3, 4}) == [((), 0, 1), ((3, 4), 2, 3)]


# -- principal SL2 -----------------------------------------------------------


def test_principal_sl2_A2_A3():
    d3 = build_classical_dual("GL(3,R)")
    out = principal_sl2_coefficients(StandardParabolic(d3, frozenset({1, 2})))
    assert out.coeffs == {1: 2, 2: 2}
    d4 = build_classical_dual("GL(4,R)")
    out = principal_sl2_coefficients(StandardParabolic(d4, frozenset({1, 2, 3})))
    assert out.coeffs == {1: 3, 2: 4, 3: 3}


def test_principal_sl2_B2_C2():
    b2 = build_classical_dual("Sp(4,R)")
    out = principal_sl2_coefficients(StandardParabolic(b2, frozenset({1, 2})))
    assert out.coeffs == {1: 4, 2: 3}
    c2 = build_classical_dual("SO(2,3)")
    out = principal_sl2_coefficients(StandardParabolic(c2, frozenset({1, 2})))
    assert out.coeffs == {1: 3, 2: 4}


def test_principal_sl2_phi_symmetry_and_t_assignment():
    d = build_classical_dual("GL(4,R)")
    p = StandardParabolic(d, frozenset({1, 2, 3}))
    phi = {1: 3, 2: 2, 3: 1}
    out = principal_sl2_coefficients(p, phi)
    assert out.t_assignment[1] * out.t_assignment[3] == out.coeffs[1]
    assert out.needs_sqrt == frozenset({2})
    assert out.t_assignment[2] == out.coeffs[2]


def test_principal_sl2_rejects_asymmetric_phi():
    d = build_classical_dual("GL(4,R)")
    p = StandardParabolic(d, frozenset({1, 2}))
    with pytest.raises(ValueError):
        principal_sl2_coefficients(p, {1: 3, 2: 2})  # 3 not in S


def test_principal_sl2_reports_a_phi_that_lacks_an_index():
    d = build_classical_dual("GL(4,R)")
    p = StandardParabolic(d, frozenset({1, 3}))
    with pytest.raises(ValueError, match="does not preserve the subset"):
        principal_sl2_coefficients(p, {1: 3})  # no image for 3


@pytest.mark.parametrize("desc", golden.GROUPS)
def test_principal_sl2_matches_the_fraction_elimination(desc):
    d = build_classical_dual(desc)
    for S in golden.theta_stable_subsets(desc):
        if not S:
            continue
        cartan = cartan_matrix(d, S)
        columns = [HalfIntVector.from_fractions(col) for col in zip(*cartan)]
        twos = HalfIntVector.from_ints(*[2] * len(S))
        (expected,) = expand_each_in_basis_oracle(columns, [twos])
        out = principal_sl2_coefficients(StandardParabolic(d, frozenset(S)))
        assert [out.coeffs[i] for i in S] == expected, S


def test_principal_sl2_empty_subset():
    d = build_classical_dual("GL(4,R)")
    out = principal_sl2_coefficients(StandardParabolic(d, frozenset()))
    assert out.coeffs == {}


subset_strategy = st.sets(st.integers(min_value=1, max_value=4), max_size=4)


@settings(deadline=None, max_examples=60)
@given(desc=st.sampled_from(["GL(5,R)", "Sp(4,R)", "SO(3,4)", "SO(4,4)", "U(3,2)"]),
       raw=subset_strategy)
def test_principal_sl2_residual_always_zero(desc, raw):
    d = build_classical_dual(desc)
    s = frozenset(i for i in raw if i <= d.rank)
    out = principal_sl2_coefficients(StandardParabolic(d, s))
    # in-op residual and 2*rho_check_L expansion checks did not raise
    assert set(out.coeffs) == set(s)
    assert all(a > 0 for a in out.coeffs.values())


# -- orbit normal forms -------------------------------------------------------


def test_dominant_orbit_rep_types():
    a = build_classical_dual("GL(3,R)")
    assert dominant_orbit_rep(a, HalfIntVector.from_ints(1, 3, 2)) == \
        HalfIntVector.from_ints(3, 2, 1)
    b = build_classical_dual("Sp(4,R)")
    assert dominant_orbit_rep(b, HalfIntVector.from_ints(-3, 1)) == \
        HalfIntVector.from_ints(3, 1)
    d = build_classical_dual("SO(4,4)")
    # odd number of sign flips sticks to the last coordinate in type D
    assert dominant_orbit_rep(d, HalfIntVector.from_ints(-4, 3, 2, 1)) == \
        HalfIntVector.from_ints(4, 3, 2, -1)
    assert dominant_orbit_rep(d, HalfIntVector.from_ints(-4, 3, 0, 1)) == \
        HalfIntVector.from_ints(4, 3, 1, 0)


def test_regularity():
    a = build_classical_dual("GL(3,R)")
    assert is_regular_orbit(a, HalfIntVector.from_ints(2, 1, 0))
    assert not is_regular_orbit(a, HalfIntVector.from_ints(1, 1, 0))
    b = build_classical_dual("Sp(4,R)")
    assert not is_regular_orbit(b, HalfIntVector.from_ints(1, 0))
    d = build_classical_dual("SO(4,4)")
    assert is_regular_orbit(d, HalfIntVector.from_ints(3, 2, 1, 0))
    assert not is_regular_orbit(d, HalfIntVector.from_ints(3, 1, 1, 0))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["GL(4,R)", "GL(2,C)", "U(2,3)", "Sp(8,R)", "SO(4,5)", "SO(4,4)", "SO(3,7)"]),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
)
def test_regularity_is_no_root_on_its_wall(group, entries):
    # the definition: no positive coroot pairs to zero with v, dominant or not
    d = build_classical_dual(group)
    v = HalfIntVector.from_ints(*entries[: d.ambient_dim], *[0] * (d.ambient_dim - 5))
    assert is_regular_orbit(d, v) == all(v.dot(c) for _, c in d.positive_roots)


def test_weight_lattices():
    gl = build_classical_dual("GL(2,R)")
    assert gl.weight_is_integral(HalfIntVector.from_ints(1, -1))
    assert not gl.weight_is_integral(HalfIntVector.parse("1/2,-1/2"))
    sl = build_classical_dual("SL(2,R)")
    assert sl.weight_is_integral(HalfIntVector.parse("1/2,-1/2"))
    assert not sl.weight_is_integral(HalfIntVector.parse("1/2,0"))
