import importlib.util
import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohoparam.errors import MathCheckError, UnsupportedGroupError
from cohoparam import rootdata
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

from oracles import (
    cartan_matrix,
    index_map_by_search,
    levi_coroot_sum_oracle,
    levi_positive,
    positive_root_supports,
    positive_root_supports_by_index,
    positive_roots,
    rho,
    rho_check_by_table,
    simple_root_pairs_by_table,
)

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
    assert rho(d) == d.rho_check


def test_rho_check_type_B():
    d = build_classical_dual("Sp(6,R)")  # dual SO_7, type B_3
    assert d.rho_check == HalfIntVector.from_ints(3, 2, 1)
    assert rho(d) == HalfIntVector.parse("5/2,3/2,1/2")


def test_rho_check_type_C():
    d = build_classical_dual("SO(3,4)")  # dual Sp_6, type C_3
    assert d.rho_check == HalfIntVector.parse("5/2,3/2,1/2")
    assert rho(d) == HalfIntVector.from_ints(3, 2, 1)


def test_rho_check_type_D():
    d = build_classical_dual("SO(4,4)")  # dual SO_8, type D_4
    assert d.rho_check == HalfIntVector.from_ints(3, 2, 1, 0)
    assert rho(d) == d.rho_check


def test_rho_check_product():
    d = build_classical_dual("GL(3,C)")
    assert d.rho_check == HalfIntVector((2, 0, -2, 2, 0, -2))


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_rho_check_pairs_to_one(desc):
    d = build_classical_dual(desc)
    for i in range(1, d.rank + 1):
        assert d.rho_check.dot(d.alpha(i)) == 1
        assert rho(d).dot(d.alpha_check(i)) == 1


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
    # the simple roots in Bourbaki order, <alpha_i, alpha_j-check> as literals
    pinned = {
        "GL(4,R)": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],  # A3
        "Sp(6,R)": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],  # B3: alpha_3 = e3
        "SO(3,4)": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],  # C3: alpha_3 = 2e3
        # D4: e3 - e4 and e3 + e4 are the fork, both joined to the centre
        "SO(4,4)": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
        "SO(2,2)": [[2, 0], [0, 2]],  # D2: e1 - e2 and e1 + e2
        "GL(2,C)": [[2, 0], [0, 2]],  # one A1 per factor
        "SO(1,1)": [],  # D1 is a torus: no roots
    }
    for group, matrix in pinned.items():
        assert cartan_matrix(build_classical_dual(group)) == matrix, group


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
    # theta = iota o gamma = (3 -2 -1) is a signed permutation, yet sends
    # alpha_1 = e_1 - e_2 to e_2 + e_3
    with pytest.raises(MathCheckError, match="does not permute simple roots"):
        d.theta_index


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
    assert len(levi_positive(full)) == len(positive_roots(d))


def test_build_classical_dual_is_memoized():
    d = build_classical_dual("GL(3,R)")
    assert build_classical_dual("GL(3,R)") is d
    assert build_classical_dual(" gl( 3 , r ) ") is d  # one datum per group
    assert build_classical_dual("SL(3,R)") is not d


@pytest.mark.parametrize("group", ["GL(3,R)", "U(2,1)", "Sp(8,R)", "SO(3,3)", "GL(2,C)"])
def test_datum_hash_is_the_hash_of_its_fields_across_a_rebuild(group):
    d = build_classical_dual(group)
    rootdata._build_classical_dual.cache_clear()
    rebuilt = build_classical_dual(group)
    assert rebuilt is not d
    assert rebuilt == d and hash(rebuilt) == hash(d)
    fields = tuple(getattr(d, name) for name in RootDatum.__record_fields__)
    assert hash(d) == hash(fields)
    assert {d: 1}[rebuilt] == 1


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
    roots = [root for root, _ in positive_roots(d)]
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


@pytest.mark.parametrize("desc", golden.GROUPS)
def test_component_sums_match_the_whole_root_filter(desc):
    d = build_classical_dual(desc)
    # every subset, theta-stable or not: the SO_even fork roots apart,
    # together, or with their neighbours
    roots = range(1, d.rank + 1)
    for S in itertools.chain.from_iterable(
        itertools.combinations(roots, k) for k in range(d.rank + 1)
    ):
        p = StandardParabolic(d, frozenset(S))
        expected = levi_coroot_sum_oracle(p)
        assert d.levi_coroot_sum(S) == expected, S
        assert p.rho_check_levi == HalfIntVector(tuple(expected)).scale(1, 2)


@pytest.mark.parametrize("desc", golden.GROUPS)
def test_datum_tables_match_the_solver_routes(desc):
    # a fresh datum, so every table is built here
    d0 = build_classical_dual(desc)
    d = RootDatum(d0.descriptor, d0.family, d0.factors, d0.galois_linear, d0.signature)
    tables = (
        "_simple_pairs", "_theta_moved", "_theta_orbits", "rho_check", "rank",
        "ambient_dim",
    )
    assert not set(tables) & set(vars(d))
    first = {name: getattr(d, name) for name in tables}
    assert all(getattr(d, name) is value for name, value in first.items())  # built once
    assert d == d0 and hash(d) == hash(d0) and repr(d) == repr(d0)
    # the dense table's supports read off the roots' indices, against one
    # exact elimination over the positive roots
    assert positive_root_supports_by_index(d) == positive_root_supports(d)
    # the simple roots the linear theta does not fix
    alphas = enumerate(d.simple_roots, 1)
    assert d._theta_moved == {i for i, a in alphas if d.theta_linear.apply(a) != a}
    # the orbits {i, theta(i)} of the linear theta on the simple roots, by least root
    index = {a: i for i, a in enumerate(d.simple_roots, 1)}
    orbits = {frozenset({i, index[d.theta_linear.apply(a)]}) for a, i in index.items()}
    assert d._theta_orbits == tuple(sorted(orbits, key=min))
    # half the sum of the positive coroots, which pairs to 1 with each simple root
    acc = HalfIntVector.zero(sum(f.dim for f in d.factors))
    for _, coroot in positive_roots(d):
        acc = acc + coroot
    assert d.rho_check == acc.scale(1, 2)
    assert all(d.rho_check.dot(alpha) == 1 for alpha in d.simple_roots)
    assert d.rank == len(d.simple_coroots) and d.ambient_dim == len(acc)


# -- the closed forms against the dense positive-root table -----------------


def _assert_closed_forms_match_the_table(d):
    pairs = simple_root_pairs_by_table(d)
    assert d.simple_roots == tuple(root for root, _ in pairs)
    assert d.simple_coroots == tuple(coroot for _, coroot in pairs)
    assert d.rank == len(pairs)
    assert d.rho_check == rho_check_by_table(d)
    assert d.iota_index == index_map_by_search(d, d.iota_linear)
    assert d.galois_index == index_map_by_search(d, d.galois_linear)
    assert d.theta_index == index_map_by_search(d, d.theta_linear)


@pytest.mark.parametrize("desc", golden.GROUPS)
def test_closed_forms_match_the_positive_root_table(desc):
    _assert_closed_forms_match_the_table(build_classical_dual(desc))


@st.composite
def _descriptors_up_to_40(draw):
    """A supported descriptor whose dual datum has at most 40 coordinates
    per factor (SO(p,q) with p + q = 8 and p, q odd is not supported)."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(0, n))
    family = draw(st.sampled_from(["GL(n,R)", "SL(n,R)", "GL(n,C)", "U", "Sp", "SO"]))
    if family == "SO":
        size = 2 * n + draw(st.integers(0, 1))
        p = k if size != 8 else k - k % 2
        return f"SO({p},{size - p})"
    return {"U": f"U({n - k},{k})", "Sp": f"Sp({2 * n},R)"}.get(family, family.replace("n", str(n)))


@settings(max_examples=40, deadline=None)
@given(_descriptors_up_to_40())
def test_closed_forms_match_the_positive_root_table_at_random_sizes(desc):
    d0 = build_classical_dual(desc)
    # a fresh datum, so the closed forms are read here
    d = RootDatum(d0.descriptor, d0.family, d0.factors, d0.galois_linear, d0.signature)
    _assert_closed_forms_match_the_table(d)


def test_rho_check_that_fails_to_pair_to_one_raises(monkeypatch):
    # type B read with type C's rho-check: (5/2, 3/2, 1/2) pairs to 1/2
    # with alpha_3 = e_3
    monkeypatch.setitem(rootdata._RHO_CHECK2, "B", rootdata._RHO_CHECK2["C"])
    d0 = build_classical_dual("Sp(6,R)")
    d = RootDatum(d0.descriptor, d0.family, d0.factors, d0.galois_linear, d0.signature)
    with pytest.raises(MathCheckError, match="rho-check does not pair to 1 with alpha_3"):
        d.rho_check


def test_fork_nodes_are_separate_components():
    d = build_classical_dual("SO(4,4)")  # D_4: 2 is the centre, 3 and 4 the fork
    neighbours = [{j for j in range(1, 5) if j != i and d.pairing(i, j)} for i in range(1, 5)]
    assert neighbours == [{2}, {1, 3, 4}, {2}, {2}]
    # e_3 - e_4 and e_3 + e_4 are orthogonal: their coroots add to 2 e_3;
    # they share both coordinates, so the Levi has them in one block
    assert d.levi_coroot_sum({3, 4}) == [0, 0, 4, 0]
    assert d._levi_blocks({3, 4}) == [((), 0, 1), ((3, 4), 2, 3)]


@pytest.mark.parametrize(
    "group,S,blocks",
    [
        ("GL(1,R)", (), [((), 0, 0)]),
        ("GL(4,R)", (), [((), 0, 0), ((), 1, 1), ((), 2, 2), ((), 3, 3)]),
        ("GL(5,R)", (2, 3), [((), 0, 0), ((2, 3), 1, 3), ((), 4, 4)]),
        ("GL(6,R)", (1, 5), [((1,), 0, 1), ((), 2, 2), ((), 3, 3), ((5,), 4, 5)]),
        ("U(2,1)", (1, 2), [((1, 2), 0, 2)]),
        # GL_C: the rootless run of `_levi_blocks` crosses the factor boundary
        ("GL(2,C)", (), [((), 0, 0), ((), 1, 1), ((), 2, 2), ((), 3, 3)]),
        ("GL(3,C)", (1, 4), [((1,), 0, 1), ((), 2, 2), ((), 3, 3), ((4,), 4, 5)]),
        ("GL(3,C)", (1, 2, 3, 4), [((1, 2), 0, 2), ((3, 4), 3, 5)]),
    ],
)
def test_gl_blocks(group, S, blocks):
    assert build_classical_dual(group)._gl_blocks(S) == blocks


@pytest.mark.parametrize("group", ["GL(5,R)", "SL(4,R)", "U(3,2)", "GL(3,C)"])
def test_gl_blocks_are_the_runs_the_roots_of_S_join(group):
    # type A: each simple coroot joins two neighbouring coordinates, and the
    # GL blocks are the runs of coordinates that the coroots of S join
    d = build_classical_dual(group)
    joins = {
        i: tuple(k for k, t in enumerate(d.alpha_check(i).twice) if t)
        for i in range(1, d.rank + 1)
    }
    for size in range(d.rank + 1):
        for S in itertools.combinations(range(1, d.rank + 1), size):
            runs = [[0]]
            for k in range(1, d.ambient_dim):
                if (k - 1, k) in {joins[i] for i in S}:
                    runs[-1].append(k)
                else:
                    runs.append([k])
            expected = [
                (tuple(i for i in S if joins[i][0] in run), run[0], run[-1]) for run in runs
            ]
            assert d._gl_blocks(S) == expected, S


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
    assert is_regular_orbit(d, v) == all(v.dot(c) for _, c in positive_roots(d))


def test_weight_lattices():
    gl = build_classical_dual("GL(2,R)")
    assert gl.weight_is_integral(HalfIntVector.from_ints(1, -1))
    assert not gl.weight_is_integral(HalfIntVector.parse("1/2,-1/2"))
    sl = build_classical_dual("SL(2,R)")
    assert sl.weight_is_integral(HalfIntVector.parse("1/2,-1/2"))
    assert not sl.weight_is_integral(HalfIntVector.parse("1/2,0"))
