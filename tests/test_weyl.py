import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohoparam.errors import MathCheckError, WeylSizeError
from cohoparam.halfint import HalfIntVector
from cohoparam import rootdata, weyl
from cohoparam.rootdata import StandardParabolic, build_classical_dual
from cohoparam.weyl import (
    WeylElement,
    compact_weyl_catalog,
    double_cosets,
    subgroup_closure,
    theta_fixed_subgroup,
    weyl_order,
)

from oracles import (
    closure_by_bfs,
    conjugate_element,
    double_cosets_by_expansion,
    full_orthogonal_compact_order,
    full_weyl_group,
    levi_weyl_group,
    longest_element,
    simple_reflection,
)


@st.composite
def _signed_perms(draw, n):
    """A random (perm, signs) pair of length n."""
    perm = tuple(draw(st.permutations(range(n))))
    signs = draw(st.tuples(*[st.sampled_from([1, -1])] * n))
    return perm, signs


def _rand_element(draw, n):
    return WeylElement(*draw(_signed_perms(n)))


@settings(deadline=None, max_examples=80)
@given(data=st.data(), n=st.integers(min_value=1, max_value=5))
def test_group_axioms(data, n):
    w = _rand_element(data.draw, n)
    u = _rand_element(data.draw, n)
    v = HalfIntVector.from_ints(*range(1, n + 1))
    # composition convention: (w*u)(v) == w(u(v))
    assert (w * u).apply(v) == w.apply(u.apply(v))
    ident = WeylElement.identity(n)
    assert w * w.inverse() == ident and w.inverse() * w == ident
    assert w * ident == w and ident * w == w


# -- the flat element against a naive (perm, signs) oracle -------------------


def _oracle_mul(a, b):
    """a o b on (perm, signs) pairs: e_i |-> sb[i] * sa[pb[i]] * e_{pa[pb[i]]}."""
    (pa, sa), (pb, sb) = a, b
    return (
        tuple(pa[pb[i]] for i in range(len(pb))),
        tuple(sb[i] * sa[pb[i]] for i in range(len(pb))),
    )


def _oracle_inverse(a):
    pa, sa = a
    perm, signs = [0] * len(pa), [0] * len(pa)
    for i, (p, s) in enumerate(zip(pa, sa)):
        perm[p], signs[p] = i, s
    return tuple(perm), tuple(signs)


def _oracle_apply(a, twice):
    pa, sa = a
    out = [0] * len(pa)
    for i, t in enumerate(twice):
        out[pa[i]] = sa[i] * t
    return tuple(out)


def _oracle_sort_key(a):
    pa, sa = a
    return tuple(0 if s == 1 else 1 for s in sa), pa


def _oracle_str(a):
    return "(" + " ".join(f"{'-' if s < 0 else ''}{p + 1}" for p, s in zip(*a)) + ")"


@settings(deadline=None, max_examples=200)
@given(data=st.data(), n=st.integers(min_value=1, max_value=8))
def test_flat_element_matches_naive_oracle(data, n):
    pairs = [data.draw(_signed_perms(n)) for _ in range(3)]
    elems = [WeylElement(*pair) for pair in pairs]
    twice = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    for a, w in zip(pairs, elems):
        assert (w.perm, w.signs) == a
        assert w.n == n
        assert (w == WeylElement.identity(n)) == (a == (tuple(range(n)), (1,) * n))
        assert (w.inverse().perm, w.inverse().signs) == _oracle_inverse(a)
        assert w.apply(HalfIntVector(twice)).twice == _oracle_apply(a, twice)
        assert w.sort_key == _oracle_sort_key(a)
        assert str(w) == _oracle_str(a)
        assert WeylElement(*a) == w and hash(WeylElement(*a)) == hash(w)
        for b, u in zip(pairs, elems):
            prod = w * u
            assert (prod.perm, prod.signs) == _oracle_mul(a, b)
            assert (w == u) == (a == b) and (w != u) == (a != b)
    assert len(set(elems)) == len(set(pairs))
    by_key = sorted(range(3), key=lambda i: elems[i].sort_key)
    assert by_key == sorted(range(3), key=lambda i: _oracle_sort_key(pairs[i]))


def test_entries_that_are_not_signed_indices_decode_to_zero():
    # a sign of 2 on index 1 read as 2 * 2 = 4 would be a valid-looking
    # entry of a 7-entry table; 0 is an entry no signed permutation has
    assert str(WeylElement((0, 1, 2), (1, 2, 1))) == "(1 0 3)"
    assert str(WeylElement((0, 5, 2), (1, 1, -1))) == "(1 0 -3)"
    assert str(WeylElement((0, 1, 2), (1, 0, 1))) == "(1 0 3)"


def test_ambient_dimension_zero():
    # the table (0,) has one entry, where itemgetter of one index would
    # return the bare entry: the product, the closure, the theta-fixed
    # subgroup and the double cosets all take it as a one-entry table
    e = WeylElement.identity(0)
    assert e * e == e and type(e * e) is WeylElement
    assert subgroup_closure([e]) == (e,)
    assert subgroup_closure([], n=0) == (e,)
    assert theta_fixed_subgroup((e,), e) == (e,)
    (coset,) = double_cosets((e,), (e,), (e,))
    assert (coset.rep, coset.size) == (e, 1)


def test_simple_reflections_B2():
    d = build_classical_dual("Sp(4,R)")  # B_2
    s1 = simple_reflection(d, 1)
    s2 = simple_reflection(d, 2)
    assert s1 == WeylElement((1, 0), (1, 1))
    assert s2 == WeylElement((0, 1), (1, -1))
    prod = s1 * s2
    power = prod
    for _ in range(3):
        power = power * prod
    assert power == WeylElement.identity(2)  # (s1 s2)^4 = e
    assert prod * prod != WeylElement.identity(2)


def test_simple_reflection_braid_A2():
    d = build_classical_dual("GL(3,R)")
    s1, s2 = simple_reflection(d, 1), simple_reflection(d, 2)
    assert s1 * s2 * s1 == s2 * s1 * s2


@pytest.mark.parametrize(
    "desc,order",
    [
        ("GL(4,R)", 24),
        ("Sp(4,R)", 8),
        ("Sp(6,R)", 48),
        ("SO(3,4)", 48),
        ("SO(4,4)", 192),
        ("SO(2,4)", 24),
        ("GL(2,C)", 4),
        ("GL(3,C)", 36),
        ("U(2,2)", 24),
    ],
)
def test_weyl_orders(desc, order):
    d = build_classical_dual(desc)
    assert weyl_order(d) == order
    elems = full_weyl_group(d)
    assert len(elems) == order
    assert len(set(elems)) == order


def test_weyl_cap_closed_form_refusal():
    d = build_classical_dual("Sp(20,R)")
    with pytest.raises(WeylSizeError):
        full_weyl_group(d)  # 2^10 * 10! over the default cap
    with pytest.raises(WeylSizeError):
        full_weyl_group(build_classical_dual("Sp(4,R)"), max_size=4)


def test_env_override(monkeypatch):
    monkeypatch.setenv("COHOPARAM_MAX_WEYL", "4")
    with pytest.raises(WeylSizeError):
        compact_weyl_catalog("Sp(4,R)")
    monkeypatch.setenv("COHOPARAM_MAX_WEYL", "50")
    assert len(compact_weyl_catalog("Sp(4,R)").w_theta) == 8


def test_longest_element_GL4_is_reversal():
    d = build_classical_dual("GL(4,R)")
    w0 = longest_element(d)
    assert w0 == WeylElement((3, 2, 1, 0), (1, 1, 1, 1))


@pytest.mark.parametrize(
    "desc",
    [
        "GL(2,R)", "GL(3,R)", "GL(4,R)", "GL(5,R)", "U(2,1)", "U(2,2)",
        "Sp(4,R)", "Sp(6,R)", "SO(2,3)", "SO(3,4)", "SO(2,4)", "SO(4,4)",
        "SO(3,3)", "GL(2,C)", "GL(3,C)",
    ],
)
def test_longest_element_matches_opposition(desc):
    d = build_classical_dual(desc)
    w0 = longest_element(d)
    assert w0.apply(d.rho_check) == -d.rho_check
    for i in range(1, d.rank + 1):
        assert w0.apply(d.alpha(i)) == -d.alpha(d._index_map(d.iota_linear)[i - 1])


def test_theta_fixed_subgroup_GL4():
    d = build_classical_dual("GL(4,R)")
    w = full_weyl_group(d)
    fixed = theta_fixed_subgroup(w, d.theta_linear)
    assert len(fixed) == 8  # centralizer of the reversal: hyperoctahedral B_2
    rev = WeylElement((3, 2, 1, 0), (1, 1, 1, 1))
    assert rev in fixed


def test_conjugate_element():
    d = build_classical_dual("GL(3,R)")
    s1 = simple_reflection(d, 1)
    s2 = simple_reflection(d, 2)
    assert conjugate_element(d.theta_linear, s1) == s2


def test_weyl_element_is_the_rootdata_type():
    assert WeylElement is rootdata.WeylElement
    assert isinstance(build_classical_dual("U(2,1)").theta_linear, WeylElement)


# one descriptor per family; even SO both inner and not inner to the split form
THETA_FAMILIES = [
    "GL(4,R)", "SL(5,R)", "GL(3,C)", "U(2,2)", "Sp(6,R)", "SO(3,4)",
    "SO(3,3)", "SO(2,4)",
]


def test_theta_families_cover_every_family():
    data = [build_classical_dual(desc) for desc in THETA_FAMILIES]
    assert {d.family for d in data} == {
        "GL_R", "SL_R", "GL_C", "U", "Sp_R", "SO_odd", "SO_even"
    }
    # SO(3,3) is inner to split, SO(2,4) is not
    assert data[-2].galois_linear == WeylElement.identity(3)
    assert data[-1].galois_linear != WeylElement.identity(3)


@pytest.mark.parametrize("desc", THETA_FAMILIES)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_conjugate_element_matches_pointwise_action(desc, data):
    d = build_classical_dual(desc)
    theta, n = d.theta_linear, d.ambient_dim
    w = _rand_element(data.draw, n)
    cw = conjugate_element(theta, w)
    for i in range(n):
        e_i = HalfIntVector.from_ints(*(1 if j == i else 0 for j in range(n)))
        assert cw.apply(e_i) == theta.apply(w.apply(theta.inverse().apply(e_i)))


def test_double_cosets_two_block_example():
    # A_3 with K-side of special-orthogonal flavor, Levi blocks (2,2):
    # exactly two packets of four elements each.
    cat = compact_weyl_catalog("SL(4,R)")
    p = StandardParabolic(cat.datum, frozenset({1, 3}))
    w_l = levi_weyl_group(p)
    w_l_theta = theta_fixed_subgroup(w_l, cat.datum.theta_linear)
    assert len(w_l_theta) == 2
    cosets = double_cosets(cat.k_weyl, w_l_theta, cat.w_theta)
    assert [c.size for c in cosets] == [4, 4]
    assert sum(c.size for c in cosets) == len(cat.w_theta)
    assert cosets[0].rep == WeylElement.identity(cosets[0].rep.n)


def test_double_cosets_checks_the_subgroups_lie_in_the_ambient_group():
    cat = compact_weyl_catalog("U(2,1)")  # W^theta = S_3: no sign changes
    flip = WeylElement((0, 1, 2), (-1, 1, 1))
    for left, right, name in (
        (cat.k_weyl + (flip,), cat.k_weyl, "left"),
        (cat.k_weyl, (WeylElement.identity(3), flip), "right"),
    ):
        with pytest.raises(MathCheckError, match=f"{name} subgroup is not inside"):
            double_cosets(left, right, cat.w_theta)


def test_double_cosets_check_the_subgroups_after_the_table_is_kept():
    # a good call keeps the left-coset table of (K, W^theta); the checks
    # on `left` and `right` must still run on every later call
    cat = compact_weyl_catalog("U(2,1)")
    flip = WeylElement((0, 1, 2), (-1, 1, 1))
    double_cosets(cat.k_weyl, cat.k_weyl, cat.w_theta)
    bad_right = (WeylElement.identity(3), flip)
    with pytest.raises(
        MathCheckError, match="right subgroup is not inside the ambient group"
    ):
        double_cosets(cat.k_weyl, bad_right, cat.w_theta)
    with pytest.raises(MathCheckError, match="left subgroup is not inside"):
        double_cosets(cat.k_weyl + (flip,), cat.k_weyl, cat.w_theta)


def test_double_cosets_report_a_listing_that_is_not_a_group():
    # W^theta of U(2,1) less its last element: the right cosets of K no
    # longer fit, and the subgroup checks still come first
    cat = compact_weyl_catalog("U(2,1)")
    ident = (WeylElement.identity(3),)
    broken = cat.w_theta[:-1]
    for route in (double_cosets, double_cosets_by_expansion):
        with pytest.raises(MathCheckError, match="escapes the ambient group"):
            route(ident, cat.k_weyl, broken)
        with pytest.raises(MathCheckError, match="escapes the ambient group"):
            route(cat.k_weyl, ident, broken)
        with pytest.raises(MathCheckError, match="left subgroup is not inside"):
            route(cat.w_theta, ident, broken)
        # the K-cosets of `broken` escape too, but `right` is reported
        with pytest.raises(MathCheckError, match="right subgroup is not inside"):
            route(cat.k_weyl, cat.w_theta, broken)


def test_double_cosets_partition_and_determinism():
    for desc, S in (("Sp(4,R)", {1}), ("U(2,2)", {1}), ("SO(2,4)", {2})):
        cat = compact_weyl_catalog(desc)
        p = StandardParabolic(cat.datum, frozenset(S))
        w_l = theta_fixed_subgroup(levi_weyl_group(p), cat.datum.theta_linear)
        once = double_cosets(cat.k_weyl, w_l, cat.w_theta)
        twice = double_cosets(cat.k_weyl, w_l, cat.w_theta)
        assert once == twice
        rebuilt = [{k * c.rep * l for k in cat.k_weyl for l in w_l} for c in once]
        covered = set().union(*rebuilt)
        assert covered == set(cat.w_theta)
        assert sum(len(coset) for coset in rebuilt) == len(covered)  # disjoint
        assert [len(coset) for coset in rebuilt] == [c.size for c in once]
        for c, coset in zip(once, rebuilt):
            assert c.rep == min(coset, key=lambda w: w.sort_key)


# catalog golden table: (descriptor, |W^theta|, |K-side|, cosets, d)
CATALOG_TABLE = [
    ("U(1,1)", 2, 1, 2, 0),
    ("U(2,1)", 6, 2, 3, 0),
    ("U(2,2)", 24, 4, 6, 0),
    ("U(3,2)", 120, 12, 10, 0),
    ("Sp(2,R)", 2, 1, 2, 0),
    ("Sp(4,R)", 8, 2, 4, 0),
    ("Sp(6,R)", 48, 6, 8, 0),
    ("SO(2,3)", 8, 2, 4, 0),
    ("SO(3,4)", 48, 8, 6, 0),
    ("SO(2,5)", 48, 8, 6, 0),
    ("SO(1,4)", 8, 4, 2, 0),
    ("GL(1,R)", 1, 1, 1, 1),
    ("GL(2,R)", 2, 2, 1, 1),
    ("GL(3,R)", 2, 2, 1, 2),
    ("GL(4,R)", 8, 8, 1, 2),
    ("GL(5,R)", 8, 8, 1, 3),
    ("SL(2,R)", 2, 1, 2, 1),
    ("SL(4,R)", 8, 4, 2, 2),
    ("SL(5,R)", 8, 8, 1, 3),
    ("SO(2,2)", 4, 1, 4, 0),
    ("SO(2,4)", 24, 4, 6, 0),
    ("SO(4,4)", 192, 16, 12, 0),
    ("SO(1,1)", 1, 1, 1, 1),
    ("SO(1,3)", 2, 2, 1, 1),
    ("SO(3,3)", 8, 4, 2, 1),
    ("SO(1,5)", 8, 8, 1, 1),
    ("GL(2,C)", 2, 2, 1, 2),
    ("GL(3,C)", 6, 6, 1, 3),
]


@pytest.mark.parametrize("desc,tw,k,nc,d", CATALOG_TABLE)
def test_compact_catalog_table(desc, tw, k, nc, d):
    cat = compact_weyl_catalog(desc)
    assert len(cat.w_theta) == tw
    assert len(cat.k_weyl) == k
    assert cat.n_cosets == nc
    assert cat.d_exponent == d
    assert set(cat.k_weyl) <= set(cat.w_theta)


@pytest.mark.parametrize("desc", [row[0] for row in CATALOG_TABLE])
def test_catalog_groups_come_in_sort_key_order(desc):
    # double_cosets takes its ambient group in this order without sorting
    cat = compact_weyl_catalog(desc)
    for grp in (cat.w_theta, cat.k_weyl):
        keys = [w.sort_key for w in grp]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_unitary_coset_count_is_binomial():
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        cat = compact_weyl_catalog(f"U({p},{q})")
        assert cat.n_cosets == math.comb(p + q, p)


def test_symplectic_coset_count_is_power_of_two():
    for n in (1, 2, 3):
        cat = compact_weyl_catalog(f"Sp({2 * n},R)")
        assert cat.n_cosets == 2**n


def test_so_odd_odd_gate():
    from cohoparam.errors import UnsupportedGroupError

    with pytest.raises(UnsupportedGroupError):
        compact_weyl_catalog("SO(3,5)")
    with pytest.raises(UnsupportedGroupError):
        compact_weyl_catalog("SO(5,5)")


def test_catalog_deterministic():
    a = compact_weyl_catalog("SO(2,3)")
    b = compact_weyl_catalog("SO(2,3)")
    assert a is b  # memoized on the descriptor alone
    assert a.w_theta == b.w_theta
    assert a.k_weyl == b.k_weyl
    # the cap decides only whether a call refuses: a cap that admits the
    # group gets the one catalog, and a cap below it refuses though it is built
    assert compact_weyl_catalog("SO(2,3)", max_size=len(a.w_theta)) is a
    with pytest.raises(WeylSizeError, match="over the cap of 7"):
        compact_weyl_catalog("SO(2,3)", max_size=7)


def test_catalog_rejects_twisted_group_not_fixed_by_theta(monkeypatch):
    # one B slot on the pair (0, 1): the transposition (1 2), which has the
    # order of the true W^theta of GL(3,R) but does not commute with theta,
    # which swaps e_1 and e_3
    monkeypatch.setitem(
        weyl._CATALOG_TABLE, "GL_R", lambda n, p, q: ([("B", ((0, 1),))], None)
    )
    weyl._compact_weyl_catalog.cache_clear()
    with pytest.raises(MathCheckError):
        compact_weyl_catalog("GL(3,R)")


_RECORD = Path(__file__).parent / "golden" / "record.py"
_spec = importlib.util.spec_from_file_location("golden_record", _RECORD)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _theta_fixes_all_of_w(desc):
    d = build_classical_dual(desc)
    return d.family in ("U", "Sp_R", "SO_odd") or (
        d.family == "SO_even" and d.signature[0] % 2 == 0
    )


@pytest.mark.parametrize("desc", filter(_theta_fixes_all_of_w, golden.GROUPS))
def test_catalog_table_gives_all_of_w_where_theta_fixes_it(desc):
    # the table's blocks against the closure of the datum's simple reflections
    datum = build_classical_dual(desc)
    assert compact_weyl_catalog(desc).w_theta == full_weyl_group(datum)


def test_subgroup_closure_trivial():
    (only,) = subgroup_closure([], n=3)
    assert only == WeylElement.identity(3)


# -- the coset-batched closure against the breadth-first oracle --------------


@pytest.mark.parametrize("desc", golden.GROUPS)
def test_closure_matches_bfs_on_each_catalog_row(desc):
    datum = build_classical_dual(desc)
    for gens, order in zip(weyl._catalog_row(datum), weyl._row_orders(datum)):
        group = subgroup_closure(gens, n=datum.ambient_dim)
        assert group == closure_by_bfs(gens, n=datum.ambient_dim)
        assert len(group) == order


@st.composite
def _generating_sets(draw):
    """1-4 signed permutations of one n <= 6; the identity and repeats of
    an earlier generator are drawn on purpose."""
    n = draw(st.integers(min_value=0, max_value=6))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["new", "identity", "repeat"]))
        if kind == "identity":
            gens.append(WeylElement.identity(n))
        elif kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)))
        else:
            gens.append(_rand_element(draw, n))
    return n, gens


@settings(deadline=None, max_examples=60)
@given(drawn=_generating_sets())
def test_closure_matches_bfs_on_random_generators(drawn):
    n, gens = drawn
    assert subgroup_closure(gens, n=n) == closure_by_bfs(gens, n=n)


def test_closure_edge_cases():
    e0 = WeylElement.identity(0)
    assert subgroup_closure([e0, e0]) == closure_by_bfs([e0, e0]) == (e0,)
    assert subgroup_closure([], n=4) == closure_by_bfs([], n=4)
    with pytest.raises(ValueError):
        subgroup_closure([])
    # Sp(8,R)'s W^theta, B_4 on 0..4: 384 elements
    datum = build_classical_dual("Sp(8,R)")
    (gens, _), (order, _) = weyl._catalog_row(datum), weyl._row_orders(datum)
    assert len(subgroup_closure(gens, max_size=order)) == order
    with pytest.raises(WeylSizeError, match=f"exceeds the cap of {order - 1} elements"):
        subgroup_closure(gens, max_size=order - 1)
    with pytest.raises(WeylSizeError):
        closure_by_bfs(gens, max_size=order - 1)


@settings(deadline=None, max_examples=200)
@given(data=st.data(), n=st.integers(min_value=0, max_value=8))
def test_flat_key_orders_like_sort_key(data, n):
    elems = [_rand_element(data.draw, n) for _ in range(data.draw(st.integers(1, 12)))]
    keys = weyl._flat_keys(elems)
    by_flat = sorted(range(len(elems)), key=keys.__getitem__)
    assert by_flat == sorted(range(len(elems)), key=lambda i: elems[i].sort_key)


# -- orders off the catalog table, no generator built --------------------------


@pytest.mark.parametrize("size", range(2, 31))
def test_full_orthogonal_orders_match_the_component_count(size):
    # every signature of one size reads the row of its family at that size
    datum = build_classical_dual(f"SO({size},0)")
    for q in range(size + 1):
        _, full = weyl._row_orders(datum, (size - q, q), full=True)
        assert full == full_orthogonal_compact_order(size - q, q), q

