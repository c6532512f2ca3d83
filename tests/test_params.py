"""Parameter layer: atoms, subset-side parameters, enumeration routes,
routing, transfers, central values.

Golden tables below were first computed by hand from the exponent data
(chi = weight + rho-check - rho-check of the Levi, sl2 = twice rho-check
of the Levi) and then frozen; the enumeration sweeps re-derive everything
through the independent direct routes.
"""

import hashlib
import importlib.util
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohoparam.errors import (
    CohoparamError,
    InvalidWeightError,
    MathCheckError,
    UnsupportedGroupError,
)
from cohoparam import direct, params, transfer
from cohoparam.halfint import HalfIntVector, _fmt_half
from cohoparam.params import (
    CohomParameter,
    ComplexParameter,
    GLParameter,
    QuadAtom,
    TwoDimAtom,
    _atom_sort_key,
    enumerate_cohomological,
    standard_rep_parameter,
)
from cohoparam.direct import (
    central_value_report,
    enumerate_complex_cohomological,
    enumerate_gl_real,
    enumerate_selfdual,
    gl_cascade_parameters,
    tempered_companion,
)
from cohoparam.transfer import (
    gl_coefficient_weight,
    parse_gl_parameter,
    route_selfdual,
    transfer_cohom,
    transfer_weight,
)
from cohoparam.rootdata import (
    RootDatum,
    StandardParabolic,
    WeylElement,
    build_classical_dual,
    dominant_orbit_rep,
)

import oracles
from oracles import (
    atom_exponents,
    cohom_parameter_check,
    coordinate_pairs,
    gl_cascade_by_filter,
    parse_complex_parameter,
    standard_rep_by_whole_table,
)

_RECORD = Path(__file__).parent / "golden" / "record.py"
_spec = importlib.util.spec_from_file_location("golden_record", _RECORD)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def zero(n: int) -> HalfIntVector:
    return HalfIntVector((0,) * n)


# ---------------------------------------------------------------------------
# atoms


class TestAtoms:
    def test_twodim_basics(self):
        a = TwoDimAtom(3, 2)
        assert a.dim == 4
        assert a.text() == "s3[2]"
        assert sorted(atom_exponents(a)) == [
            Fraction(-2),
            Fraction(-1),
            Fraction(1),
            Fraction(2),
        ]

    def test_quad_basics(self):
        a = QuadAtom(1, 3)
        assert a.dim == 3
        assert a.text() == "w1[3]"
        assert sorted(atom_exponents(a)) == [Fraction(-1), Fraction(0), Fraction(1)]

    # symplectic iff exactly one of (d odd), (m even)
    @pytest.mark.parametrize(
        "d,m,sympl",
        [(1, 1, True), (2, 1, False), (1, 2, False), (2, 2, True), (3, 2, False), (4, 3, False)],
    )
    def test_twodim_symplectic(self, d, m, sympl):
        assert TwoDimAtom(d, m).is_symplectic is sympl

    @pytest.mark.parametrize("eps,a,sympl", [(0, 1, False), (1, 2, True), (0, 4, True), (1, 5, False)])
    def test_quad_symplectic(self, eps, a, sympl):
        assert QuadAtom(eps, a).is_symplectic is sympl

    # det(s{d}[m]) = w^m for even d, trivial for odd d; det(w{e}[a]) = w^(ea)
    @pytest.mark.parametrize(
        "atom,det",
        [
            (TwoDimAtom(4, 1), 1),
            (TwoDimAtom(4, 2), 0),
            (TwoDimAtom(3, 2), 0),
            (TwoDimAtom(3, 5), 0),
            (QuadAtom(1, 3), 1),
            (QuadAtom(1, 2), 0),
            (QuadAtom(0, 7), 0),
        ],
    )
    def test_det_exponents(self, atom, det):
        assert atom.det_exponent == det

    def test_bad_atoms_rejected(self):
        with pytest.raises(ValueError):
            TwoDimAtom(0, 1)
        with pytest.raises(ValueError):
            TwoDimAtom(1, 0)
        with pytest.raises(ValueError):
            QuadAtom(2, 1)
        with pytest.raises(ValueError):
            QuadAtom(0, 0)


class TestGLParameter:
    def test_canonical_sorting(self):
        p = GLParameter((QuadAtom(0, 1), TwoDimAtom(2, 1), TwoDimAtom(4, 1)))
        assert p.text() == "s4[1]+s2[1]+w0[1]"

    def test_dimension_and_det(self):
        p = parse_gl_parameter("s4[1]+w1[3]")
        assert p.dimension == 5
        assert p.det_exponent == 0  # w + w^3 = trivial

    def test_selfdual_types(self):
        assert parse_gl_parameter("s4[1]+s2[1]+w0[1]").selfdual_type == "orthogonal"
        assert parse_gl_parameter("s1[1]+w0[2]").selfdual_type == "symplectic"
        assert parse_gl_parameter("s1[1]+s2[1]").selfdual_type == "mixed"
        assert parse_gl_parameter("s2[1]*nu^1/2").selfdual_type == "twisted"

    def test_omega_twist_orbit(self):
        p = parse_gl_parameter("s4[1]+w1[3]+w0[1]")
        q = p.omega_twist()
        assert q.text() == "s4[1]+w0[3]+w1[1]"
        assert p.orbit_key() == q.orbit_key()

    def test_exponents_with_twist(self):
        p = parse_gl_parameter("s4[1]+w0[1]*nu^1")
        assert p.doubled_exponents() == [6, 2, -2]

    def test_parse_roundtrip_and_rejects(self):
        for text in ("s4[1]+s2[1]+w0[1]", "s3[2]+w0[1]", "w0[5]", "s2[2]*nu^3/2"):
            assert parse_gl_parameter(text).text() == text
        assert parse_gl_parameter("s4").text() == "s4[1]"
        for bad in ("x3[1]", "s[2]", "s3[2]+", "w2[1]", "s3[2]*nu^1/3"):
            with pytest.raises(InvalidWeightError):
                parse_gl_parameter(bad)

    # central element: s{d}[m] needs d+m = N mod 2, w{e}[a] needs a = N mod 2
    def test_central_parity(self):
        ok, per = parse_gl_parameter("s4[1]+s2[1]+w0[1]").central_parity_ok()
        assert ok and per == [True, True, True]
        # s2 alone has N=2 but d+m=3: the weight behind it is half-integral
        ok, per = parse_gl_parameter("s2[1]").central_parity_ok()
        assert not ok and per == [False]


class TestComplexParameter:
    def test_text_and_parse(self):
        p = ComplexParameter(((1, 2), (-2, 1)))
        assert p.text() == "e1/2[2]+e-1[1]"
        assert parse_complex_parameter("e1/2[2]+e-1[1]") == p
        assert parse_complex_parameter("e1[1]").entries == ((2, 1),)

    def test_central_parity(self):
        # entries (2d, m): parity of 2d+m against N
        p = parse_complex_parameter("e1[1]+e0[1]+e-1[1]")
        ok, per = p.central_parity_ok()
        assert ok and per == [True, True, True]


# ---------------------------------------------------------------------------
# subset-side parameters and validation


class TestCohomParameter:
    def test_validation_errors(self):
        d = build_classical_dual("GL(4,R)")
        with pytest.raises(InvalidWeightError):
            CohomParameter(d, frozenset(), HalfIntVector.from_ints(0, 0, 0))
        with pytest.raises(InvalidWeightError):
            CohomParameter(d, frozenset(), HalfIntVector.parse("1/2,0,0,-1/2"))
        with pytest.raises(InvalidWeightError):  # not dominant
            CohomParameter(d, frozenset(), HalfIntVector.from_ints(0, 1, -1, 0))
        with pytest.raises(InvalidWeightError):  # not theta-fixed
            CohomParameter(d, frozenset(), HalfIntVector.from_ints(1, 0, 0, 0))
        with pytest.raises(InvalidWeightError):  # S not self-associate
            CohomParameter(d, frozenset({1}), zero(4))
        with pytest.raises(InvalidWeightError):  # weight not orthogonal to S
            CohomParameter(
                d, frozenset({1, 3}), HalfIntVector.from_ints(1, 0, 0, -1)
            )

    def test_chi_and_sl2(self):
        d = build_classical_dual("Sp(4,R)")
        c = CohomParameter(d, frozenset({2}), zero(2))
        rho_levi = StandardParabolic(d, c.S).rho_check_levi
        chi, sl2 = c.lam + d.rho_check - rho_levi, rho_levi.scale(2)
        assert (str(chi), str(sl2)) == ("2,0", "0,2")
        assert str(c.inf_char) == "2,1"

    def test_inf_char_once_per_weight(self, monkeypatch):
        d = build_classical_dual("Sp(6,R)")
        lams = [zero(3)] + [HalfIntVector.from_ints(*v) for v in ((2, 1, 0), (1, 1, 0))]
        calls = []

        def counted(datum, v):
            calls.append(v)
            return dominant_orbit_rep(datum, v)

        monkeypatch.setattr(params, "dominant_orbit_rep", counted)
        params._at_weight.cache_clear()
        for lam in lams:
            for c in enumerate_cohomological(d, lam):
                assert c.inf_char == dominant_orbit_rep(d, lam + d.rho_check)
        assert params._at_weight.cache_info().misses == len(lams)
        assert len(calls) == len(lams)

    def test_every_parameter_of_an_enumeration_holds_one_weight_record(self):
        for group in ("Sp(10,R)", "GL(9,R)", "U(4,4)", "SO(5,5)", "GL(4,C)"):
            d = build_classical_dual(group)
            lam = HalfIntVector.parse(golden.nonzero_weights(group)[0])
            for weight in (zero(d.ambient_dim), lam):
                params._at_weight.cache_clear()
                cs = enumerate_cohomological(d, weight)
                assert len(cs) > 1, group
                assert all(c._weight is cs[0]._weight for c in cs), group
                # the enumeration's S = {} check and each parameter: one lookup each
                info = params._at_weight.cache_info()
                assert (info.hits, info.misses) == (len(cs), 1), group
        # the record is not a field: equality, hash and repr do not see it
        assert cs[0] == CohomParameter(d, cs[0].S, weight)
        assert "_weight" not in repr(cs[0])

    def test_enumeration_order(self):
        subsets = [sorted(c.S) for c in enumerate_cohomological("Sp(4,R)")]
        assert subsets == [[], [1], [2], [1, 2]]

    def test_enumeration_respects_singularity(self):
        lam = HalfIntVector.from_ints(1, 1)  # alpha_2 stays regular
        subs = [sorted(c.S) for c in enumerate_cohomological("Sp(4,R)", lam)]
        assert subs == [[], [1]]

    def test_so_even_counts_all_subsets(self):
        # theta = id for SO(2,4), so all 8 subsets of D_3 are self-associate
        assert len(enumerate_cohomological("SO(2,4)")) == 8
        # theta swaps the fork for SO(3,3): 4 stable subsets
        assert [sorted(c.S) for c in enumerate_cohomological("SO(3,3)")] == [
            [],
            [1],
            [2, 3],
            [1, 2, 3],
        ]


    def test_weight_checked_once_per_call(self, monkeypatch):
        calls = []
        original = RootDatum.weight_is_integral

        def counted(self, v):
            calls.append(v)
            return original(self, v)

        monkeypatch.setattr(RootDatum, "weight_is_integral", counted)
        params._at_weight.cache_clear()
        # 4 theta-orbits {1,7} {2,6} {3,5} {4}: 16 parameters, one weight check
        assert len(enumerate_cohomological("GL(8,R)")) == 16
        assert len(calls) == 1
        assert params._at_weight.cache_info().misses == 1
        enumerate_cohomological("GL(8,R)")
        assert len(calls) == 1  # same (datum, lam): answered by the memo
        assert params._at_weight.cache_info().misses == 1
        lam = HalfIntVector.from_ints(1, 1, 0, 0, 0, 0, -1, -1)
        assert len(enumerate_cohomological("GL(8,R)", lam)) == 8
        assert len(calls) == 2
        assert params._at_weight.cache_info().misses == 2

    @pytest.mark.parametrize("group", golden.GROUPS)
    def test_weight_pairings_match_the_dense_coroots(self, group):
        # `_at_weight` reads each simple coroot's at most two entries; the
        # dense coroot vectors are its check, at zero and at random
        # theta-fixed integral weights v + theta(v)
        d = build_classical_dual(group)
        rng = random.Random(group)
        for _ in range(20):
            v = HalfIntVector(tuple(2 * rng.randint(-9, 9) for _ in range(d.ambient_dim)))
            for lam in (zero(d.ambient_dim), v + d.theta_linear.apply(v)):
                want = tuple(4 * lam.dot(c) for c in d.simple_coroots)
                assert params._at_weight(d, lam)[0] == want, (group, lam)

    @pytest.mark.parametrize(
        "S,weight,message",
        [
            ({0}, (0, 0, 0, 0), "S = [0] out of range"),
            ({4}, (0, 0, 0, 0), "S = [4] out of range"),
            ({1}, (0, 0, 0, 0), "S = [1] is not self-associate"),
            ({1, 3}, (1, 0, 0, -1), "weight pairs to 1 with alpha_1, which lies in S"),
        ],
    )
    def test_bad_subset_rejected_with_weight_memoized(self, S, weight, message):
        d = build_classical_dual("GL(4,R)")
        lam = HalfIntVector.from_ints(*weight)
        enumerate_cohomological(d, lam)  # the weight checks are now memoized
        with pytest.raises(InvalidWeightError) as exc:
            CohomParameter(d, frozenset(S), lam)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "S,weight,message",
        [
            # non-dominant at alpha_1 and non-zero on alpha_2 in S
            ({2}, (0, 1, 0), "0,1,0 is not dominant (alpha_1)"),
            ({1}, (0, 1, 0), "0,1,0 is not dominant (alpha_1)"),
            # non-zero on alpha_1 in S and non-dominant at alpha_2
            ({1}, (1, 0, 1), "weight pairs to 1 with alpha_1, which lies in S"),
            # the weight is reported before an out-of-range S
            ({4}, (1, 0, 1), "1,0,1 is not dominant (alpha_2)"),
        ],
    )
    def test_error_precedence(self, S, weight, message):
        d = build_classical_dual("Sp(6,R)")
        for _ in range(2):  # a cold and a memoized weight check agree
            with pytest.raises(InvalidWeightError) as exc:
                CohomParameter(d, frozenset(S), HalfIntVector.from_ints(*weight))
            assert str(exc.value) == message

    def test_image_route_splits_each_block_once_per_weight_without_coroot_sums(
        self, monkeypatch
    ):
        sums, splits = [], []
        original_sum, original_split = RootDatum.levi_coroot_sum, params._split_cell

        def counted_sum(self, S):
            sums.append(frozenset(S))
            return original_sum(self, S)

        def counted_split(datum, lam, cell):
            splits.append((datum, lam, cell))
            return original_split(datum, lam, cell)

        monkeypatch.setattr(RootDatum, "levi_coroot_sum", counted_sum)
        monkeypatch.setattr(params, "_split_cell", counted_split)
        params._at_weight.cache_clear()
        for group in ("Sp(10,R)", "GL(9,R)", "U(4,4)", "SO(5,5)", "SO(4,5)", "GL(4,C)"):
            d = build_classical_dual(group)
            lam = HalfIntVector.parse(golden.nonzero_weights(group)[0])
            for weight in (zero(d.ambient_dim), lam, zero(d.ambient_dim)):
                before = len(splits)
                for c in enumerate_cohomological(d, weight):
                    standard_rep_parameter(c)
                calls = splits[before:]
                # no block is split twice at one weight, and a split with roots
                # is one block of the walk, never all of S
                assert len(calls) == len(set(calls)), group
                for *_, (roots, first, last) in calls:
                    rooted = [b for b in d._levi_blocks(roots) if b[0]]
                    assert not roots or rooted == [(roots, first, last)], group
            # the third pass repeats the first weight: every block is memoized
            assert calls == [], group
        # the blocks' strings are read in closed form: no coroot is summed
        assert sums == []


# ---------------------------------------------------------------------------
# the enumeration against the subset scan it replaced


def subset_scan_oracle(datum, lam):
    """Every subset of the singular set, kept when theta maps it to itself."""
    CohomParameter(datum, frozenset(), lam)
    singular = [
        i for i in range(1, datum.rank + 1) if lam.dot(datum.alpha_check(i)) == 0
    ]
    subsets = []
    for r in range(len(singular) + 1):
        for combo in itertools.combinations(singular, r):
            s = frozenset(combo)
            if datum.theta_subset(s) == s:
                subsets.append(tuple(sorted(combo)))
    subsets.sort(key=lambda t: (len(t), t))
    return tuple(CohomParameter(datum, frozenset(t), lam) for t in subsets)


ORACLE_GROUPS = (
    [f"{k}({n},R)" for k in ("GL", "SL") for n in range(1, 9)]
    + [f"GL({n},C)" for n in range(1, 5)]
    + [f"U({p},{t - p})" for t in range(1, 9) for p in range(t + 1)]
    + [f"Sp({2 * n},R)" for n in range(1, 6)]
    + [
        f"SO({p},{t - p})"
        for t in range(2, 11)
        for p in range(t + 1)
        if not (t == 8 and p % 2 == 1)  # triality-ambiguous, rejected
    ]
)


def test_oracle_groups_cover_even_so_not_inner_to_split():
    data = [build_classical_dual(g) for g in ORACLE_GROUPS]
    outer = [
        d.descriptor
        for d in data
        if d.family == "SO_even"
        and d.galois_linear != WeylElement.identity(d.ambient_dim)
    ]
    assert {"SO(2,4)", "SO(4,6)"} <= set(outer)
    assert "SO(3,3)" not in outer


def test_enumeration_matches_subset_scan_at_zero_weight():
    for desc in ORACLE_GROUPS:
        datum = build_classical_dual(desc)
        expected = subset_scan_oracle(datum, zero(datum.ambient_dim))
        assert enumerate_cohomological(desc) == expected, desc


@st.composite
def group_and_weight(draw, groups=ORACLE_GROUPS):
    """A group of `groups` and a dominant, theta-fixed, integral weight:
    the dominant representative of v + theta(v) for a small integer v."""
    datum = build_classical_dual(draw(st.sampled_from(groups)))
    n = datum.ambient_dim
    v = HalfIntVector.from_ints(
        *draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    )
    return datum, dominant_orbit_rep(datum, v + datum.theta_linear.apply(v))


@settings(max_examples=300, deadline=None)
@given(group_and_weight())
def test_enumeration_matches_subset_scan(case):
    datum, lam = case
    assert enumerate_cohomological(datum, lam) == subset_scan_oracle(datum, lam)


CHECK_GROUPS = tuple(g for g in golden.GROUPS if build_classical_dual(g).rank <= 6)


@st.composite
def subset_and_weight(draw):
    """A group of rank <= 6 from the golden list, S drawn from
    {0, ..., rank + 1}, and a small weight: integer entries (theta-fixed or
    dominant as they fall), the dominant representative of v + theta(v)
    (which passes every weight check), or doubled entries, some odd."""
    datum = build_classical_dual(draw(st.sampled_from(CHECK_GROUPS)))
    n = datum.ambient_dim
    S = frozenset(draw(st.sets(st.integers(0, datum.rank + 1))))
    kind = draw(st.sampled_from(("integers", "dominant", "doubled")))
    entries = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    if kind == "doubled":
        return datum, S, HalfIntVector(tuple(entries))
    v = HalfIntVector.from_ints(*entries)
    if kind == "integers":
        return datum, S, v
    return datum, S, dominant_orbit_rep(datum, v + datum.theta_linear.apply(v))


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(subset_and_weight())
@example((build_classical_dual("GL(4,R)"), frozenset({1, 3}), zero(4)))
@example((build_classical_dual("SO(3,3)"), frozenset({2}), zero(3)))
def test_parameter_checks_match_the_scan(case):
    # the constructor's set operations against the scan they replaced:
    # the same success, or the same exception type and message
    datum, S, lam = case
    assert _outcome(CohomParameter, datum, S, lam) == _outcome(
        cohom_parameter_check, datum, S, lam
    )


# ---------------------------------------------------------------------------
# sl2-string extraction against the max-per-string loop it replaced


def extract_strings_oracle(pairs):
    """Take the highest (sl2 weight, exponent) key left, one string at a time."""
    work = Counter(pairs)
    out = []
    while work:
        x, h = max(work, key=lambda p: (p[1], p[0]))
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
            if not work[key]:
                del work[key]
        out.append((x, m))
    return out


def _strings_or_error(extract, pairs):
    try:
        return extract(list(pairs))
    except MathCheckError as exc:
        return f"MathCheckError: {exc}"


@st.composite
def sl2_pair_multisets(draw):
    """Whole strings of up to 12 pairs, often several at one exponent, plus
    stray pairs (often unmatched or of negative weight, often at an exponent
    a string uses), and sometimes one pair taken out (a broken string)."""
    exponents = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    strings = draw(
        st.lists(
            st.tuples(st.sampled_from(exponents), st.integers(1, 12)), max_size=8
        )
    )
    pairs = [(x, m - 1 - 2 * k) for x, m in strings for k in range(m)]
    stray_exponent = st.sampled_from(exponents) | st.integers(-6, 6)
    pairs += draw(
        st.lists(st.tuples(stray_exponent, st.integers(-12, 12)), max_size=3)
    )
    if pairs and draw(st.booleans()):
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    return draw(st.permutations(pairs))


@settings(max_examples=400, deadline=None)
@given(sl2_pair_multisets())
@example([(3, 2), (3, 0), (3, -2), (3, 2), (3, 0), (3, -2), (-1, 1), (-1, -1)])
@example([(0, 2), (0, 0)])  # broken
@example([(1, -1)])  # unmatched, negative weight
@example([(2, 1), (2, -1), (2, -1)])  # one string, then a negative leftover
def test_extract_strings_matches_oracle(pairs):
    assert _strings_or_error(oracles.extract_strings, pairs) == _strings_or_error(
        extract_strings_oracle, pairs
    )


@pytest.mark.parametrize(
    "pairs,message",
    [
        ([(0, 2), (0, 0)], "broken string: missing (0, -2)"),
        ([(1, -1)], "unmatched sl2 weight (1/2, -1)"),
        ([(2, 1), (2, -1), (2, -1)], "unmatched sl2 weight (1, -1)"),
    ],
)
def test_extract_strings_errors(pairs, message):
    with pytest.raises(MathCheckError) as exc:
        oracles.extract_strings(pairs)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# self-dual images from the half table against splitting the whole image and
# pairing its strings with their mirrors, one atom at a time


def pair_strings_oracle(strings):
    """Take the largest (x2, m) left, one atom at a time."""
    rem = Counter(strings)
    twodims = []
    quadlens = []
    while rem:
        x, m = max(rem)
        if x > 0:
            mirror = (-x, m)
            if rem[mirror] <= 0:
                raise MathCheckError(f"string ({_fmt_half(x)}, {m}) has no mirror")
            for key in ((x, m), mirror):
                rem[key] -= 1
                if not rem[key]:
                    del rem[key]
            twodims.append(TwoDimAtom(x, m))
        elif x == 0:
            rem[(x, m)] -= 1
            if not rem[(x, m)]:
                del rem[(x, m)]
            quadlens.append(m)
        else:
            raise MathCheckError(f"negative string ({_fmt_half(x)}, {m}) left over")
    return twodims, sorted(quadlens, reverse=True)


SELFDUAL_GROUPS = tuple(
    g
    for g in ORACLE_GROUPS
    if build_classical_dual(g).family in ("GL_R", "SL_R", "Sp_R", "SO_odd", "SO_even")
)


@settings(max_examples=200, deadline=None)
@given(group_and_weight(SELFDUAL_GROUPS))
def test_selfdual_strings_match_oracle(case):
    datum, lam = case
    for c in enumerate_cohomological(datum, lam):
        coords = coordinate_pairs(c)
        # the whole image: Sp and SO add each coordinate's mirror, Sp one (0, 0)
        sym = list(coords)
        if datum.family not in ("GL_R", "SL_R"):
            sym += [(-x, -h) for x, h in coords]
        if datum.family == "Sp_R":
            sym.append((0, 0))
        zero_pair = datum.family == "Sp_R"
        twodims, quadlens = oracles.selfdual_strings(datum.family, coords, zero_pair)
        expected = pair_strings_oracle(extract_strings_oracle(sym))
        # falling (d, m), as the oracle takes the largest string first
        assert (sorted(twodims, key=_atom_sort_key), quadlens) == expected


@pytest.mark.parametrize("family", ["GL_R", "SL_R"])
@pytest.mark.parametrize(
    "coords,message",
    [
        ([(2, 0), (0, 0)], "image is not self-dual: 1 of (1, 0) against 0 of (-1, 0)"),
        (
            [(1, 1), (1, 1), (-1, -1)],
            "image is not self-dual: 2 of (1/2, 1) against 1 of (-1/2, -1)",
        ),
        ([(0, 2), (0, 2)], "image is not self-dual: 2 of (0, 2) against 0 of (0, -2)"),
    ],
)
def test_gl_image_that_is_not_selfdual_is_rejected(family, coords, message):
    with pytest.raises(MathCheckError) as exc:
        oracles.selfdual_strings(family, coords)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# images put together from Levi blocks against the whole-table split


def _image_or_error(route, c):
    try:
        return route(c)
    except CohoparamError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("group", golden.GROUPS)
def test_block_images_match_the_whole_table(group):
    """Every theta-stable S at the zero weight and both nonzero weights."""
    d = build_classical_dual(group)
    compared = 0
    for weight in (None, *golden.nonzero_weights(group)):
        lam = zero(d.ambient_dim) if weight is None else HalfIntVector.parse(weight)
        for S in golden.theta_stable_subsets(group):
            try:
                c = CohomParameter(d, frozenset(S), lam)
            except InvalidWeightError:
                continue  # both routes start from a valid parameter
            assert _image_or_error(standard_rep_parameter, c) == _image_or_error(
                standard_rep_by_whole_table, c
            ), (weight, S)
            compared += 1
    assert compared >= 1


# one group of each family, rank 6; SO(5,7) is the even SO whose theta swaps the fork
IMAGE_GROUPS = (
    "GL(7,R)", "SL(7,R)", "GL(4,C)", "U(4,3)", "Sp(12,R)", "SO(6,7)", "SO(6,6)", "SO(5,7)",
)


@settings(max_examples=120, deadline=None)
@given(group_and_weight(IMAGE_GROUPS))
def test_block_images_match_the_whole_table_at_random_weights(case):
    """Every theta-stable S in the zero set of a random weight."""
    datum, lam = case
    for c in enumerate_cohomological(datum, lam):
        assert _image_or_error(standard_rep_parameter, c) == _image_or_error(
            standard_rep_by_whole_table, c
        ), sorted(c.S)


@pytest.mark.parametrize(
    "group,S,blocks,text",
    [
        # the D fork: e3 - e4 and e3 + e4 are orthogonal but share coordinates
        ("SO(4,4)", (3, 4), [((), 0, 1), ((3, 4), 2, 3)], "s6[1]+s4[1]+w0[3]+w0[1]"),
        ("SO(4,4)", (1, 3, 4), [((1,), 0, 1), ((3, 4), 2, 3)], "s5[2]+w0[3]+w0[1]"),
        ("SO(6,4)", (4, 5), [((), 0, 2), ((4, 5), 3, 4)], "s8[1]+s6[1]+s4[1]+w0[3]+w0[1]"),
        # the Sp_R tail: the extra (0, 0) joins the block of the last root ...
        ("Sp(8,R)", (4,), [((), 0, 2), ((4,), 3, 3)], "s8[1]+s6[1]+s4[1]+w1[3]"),
        ("Sp(8,R)", (3, 4), [((), 0, 1), ((3, 4), 2, 3)], "s8[1]+s6[1]+w0[5]"),
        # ... and stands alone as w[1] without it
        ("Sp(8,R)", (2, 3), [((), 0, 0), ((2, 3), 1, 3)], "s8[1]+s4[3]+w0[1]"),
        ("Sp(8,R)", (), [((), 0, 3)], "s8[1]+s6[1]+s4[1]+s2[1]+w0[1]"),
        # GL_R, odd and even n: a block and its mirror, or a block on the middle
        ("GL(5,R)", (1, 4), [((1,), 0, 1), ((), 2, 2), ((4,), 3, 4)], "s3[2]+w0[1]"),
        ("GL(5,R)", (2, 3), [((), 0, 0), ((2, 3), 1, 3), ((), 4, 4)], "s4[1]+w0[3]"),
        ("GL(6,R)", (1, 5), [((1,), 0, 1), ((), 2, 3), ((5,), 4, 5)], "s4[2]+s1[1]"),
        ("GL(6,R)", (3,), [((), 0, 1), ((3,), 2, 3), ((), 4, 5)], "s5[1]+s3[1]+w0[2]"),
        # GL_C: a block without roots may run across the two factors
        ("GL(3,C)", (), [((), 0, 5)], "e1[1]+e0[1]+e-1[1]"),
        ("GL(3,C)", (1, 4), [((1,), 0, 1), ((), 2, 3), ((4,), 4, 5)], "e1/2[2]+e-1[1]"),
        ("GL(3,C)", (1, 2, 3, 4), [((1, 2), 0, 2), ((3, 4), 3, 5)], "e0[3]"),
        # a D block with one fork root: type A once the last sign flips
        ("SO(4,4)", (4,), [((), 0, 1), ((4,), 2, 3)], "s6[1]+s4[1]+s1[2]"),
        ("SO(4,4)", (2, 4), [((), 0, 0), ((2, 4), 1, 3)], "s6[1]+s2[3]"),
        # the SO_odd tail: Sp(2m) gives one zero string 2m
        ("SO(5,4)", (3, 4), [((), 0, 1), ((3, 4), 2, 3)], "s7[1]+s5[1]+w0[4]"),
        ("SO(5,4)", (1, 3, 4), [((1,), 0, 1), ((3, 4), 2, 3)], "s6[2]+w0[4]"),
        # SO(odd,odd): theta swaps the fork, so a tail holds both fork roots
        ("SO(3,3)", (2, 3), [((), 0, 0), ((2, 3), 1, 2)], "s4[1]+w0[3]+w1[1]"),
        ("SO(3,3)", (1, 2, 3), [((1, 2, 3), 0, 2)], "w0[5]+w0[1]"),
    ],
)
def test_levi_blocks_and_their_images(group, S, blocks, text):
    d = build_classical_dual(group)
    assert d._levi_blocks(S) == blocks
    c = CohomParameter(d, frozenset(S), zero(d.ambient_dim))
    assert standard_rep_parameter(c) == standard_rep_by_whole_table(c)
    assert standard_rep_parameter(c).text() == text


@pytest.mark.parametrize("group,S", [("GL(4,R)", ()), ("GL(4,R)", (1, 3)), ("GL(3,C)", ())])
def test_block_images_reject_a_weight_that_is_not_theta_fixed(group, S):
    # forged past the parameter's own checks, which refuse this weight
    d = build_classical_dual(group)
    lam = HalfIntVector.from_ints(1, *[0] * (d.ambient_dim - 1))
    c = object.__new__(CohomParameter)
    # the image reads only the block pieces of the per-weight record
    forged = (("datum", d), ("S", frozenset(S)), ("lam", lam), ("_weight", (None, None, None, {})))
    for name, value in forged:
        object.__setattr__(c, name, value)
    for route in (standard_rep_parameter, standard_rep_by_whole_table):
        with pytest.raises(MathCheckError, match="not self-dual|not the conjugate"):
            route(c)


# ---------------------------------------------------------------------------
# golden tables


SP4_TABLE = {
    (): "s4[1]+s2[1]+w0[1]",
    (1,): "s3[2]+w0[1]",
    (2,): "s4[1]+w1[3]",
    (1, 2): "w0[5]",
}

SO23_TABLE = {
    (): "s3[1]+s1[1]",
    (1,): "s2[2]",
    (2,): "s3[1]+w0[2]",
    (1, 2): "w0[4]",
}

U21_TABLE = {
    (): "e1[1]+e0[1]+e-1[1]",
    (1,): "e1/2[2]+e-1[1]",
    (2,): "e1[1]+e-1/2[2]",
    (1, 2): "e0[3]",
}

GL4_TABLE = {
    (): "s3[1]+s1[1]",
    (2,): "s3[1]+w0[2]",
    (1, 3): "s2[2]",
    (1, 2, 3): "w0[4]",
}

GLC3_TABLE = {
    (): "e1[1]+e0[1]+e-1[1]",
    (1, 4): "e1/2[2]+e-1[1]",
    (2, 3): "e1[1]+e-1/2[2]",
    (1, 2, 3, 4): "e0[3]",
}


@pytest.mark.parametrize(
    "descriptor,table",
    [
        ("Sp(4,R)", SP4_TABLE),
        ("SO(2,3)", SO23_TABLE),
        ("U(2,1)", U21_TABLE),
        ("GL(4,R)", GL4_TABLE),
        ("GL(3,C)", GLC3_TABLE),
    ],
)
def test_golden_tables(descriptor, table):
    got = {
        tuple(sorted(c.S)): standard_rep_parameter(c).text()
        for c in enumerate_cohomological(descriptor)
    }
    assert got == table


def test_sp4_quad_sign_forced_by_determinant():
    # the orthogonal 5-dimensional image must have trivial determinant:
    # with s4 contributing w, the zero string must contribute w as well
    p = parse_gl_parameter(SP4_TABLE[(2,)])
    assert p.det_exponent == 0
    assert QuadAtom(1, 3) in p.atoms


def test_so_even_images_carry_discriminant():
    for desc, delta in (("SO(3,3)", 0), ("SO(2,4)", 1), ("SO(4,4)", 0), ("SO(2,6)", 0)):
        for c in enumerate_cohomological(desc):
            img = standard_rep_parameter(c)
            assert img.det_exponent == delta, (desc, sorted(c.S), img.text())


def test_so33_empty_subset_not_multiplicity_free():
    # no compact Cartan: the tempered member repeats the trivial character
    c = enumerate_cohomological("SO(3,3)")[0]
    img = standard_rep_parameter(c)
    assert img.text() == "s4[1]+s2[1]+w0[1]+w0[1]"
    assert len(set(img.atoms)) < len(img.atoms)


# ---------------------------------------------------------------------------
# dual-route equality: subset route vs direct enumeration


class TestRouteEquality:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_gl_real_three_routes(self, n):
        s_route = sorted(
            standard_rep_parameter(c).text()
            for c in enumerate_cohomological(f"GL({n},R)")
        )
        direct = sorted(p.text() for p in enumerate_gl_real(n))
        cascade = sorted(p.text() for p in gl_cascade_parameters(n))
        assert s_route == direct == cascade
        assert len(direct) == 2 ** (n // 2)

    @pytest.mark.parametrize("n", range(13))
    def test_gl_cascade_walks_the_same_compositions_as_the_filter(self, n):
        # the zero weight, then weights constant on the blocks of the
        # shapes (a, n - 2a, a), (a, n - a) and (1, ..., 1)
        weights = [None]
        for a in range(1, n // 2 + 1):
            weights.append([1] * a + [0] * (n - 2 * a) + [-1] * a)
            weights.append([2] * a + [1] * (n - 2 * a) + [0] * a)
        for a in range(1, n):
            weights.append([1] * a + [0] * (n - a))
        weights.append(list(range(n, 0, -1)))
        nonempty = 0
        for w in weights:
            lam = None if w is None else HalfIntVector.from_ints(*w)
            expected = gl_cascade_by_filter(n, lam)
            assert gl_cascade_parameters(n, lam) == expected, w
            nonempty += bool(expected)
        # the zero weight and both weights of each (a, n - 2a, a) give some
        assert nonempty >= (n > 0) + 2 * (n // 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_gl_complex_two_routes(self, n):
        s_route = sorted(
            standard_rep_parameter(c).text()
            for c in enumerate_cohomological(f"GL({n},C)")
        )
        direct = sorted(p.text() for p in enumerate_complex_cohomological(n))
        assert s_route == direct
        assert len(direct) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sp_two_routes(self, n):
        s_route = sorted(
            standard_rep_parameter(c).text()
            for c in enumerate_cohomological(f"Sp({2 * n},R)")
        )
        ent = list(range(1, n + 1))
        exps = HalfIntVector.from_ints(*ent, *[-e for e in ent], 0)
        direct = sorted(p.text() for p in enumerate_selfdual(exps, "orthogonal", 0))
        assert s_route == direct
        assert len(direct) == 2 ** n

    @pytest.mark.parametrize("p,q", [(2, 3), (4, 3), (2, 5), (4, 5), (6, 5)])
    def test_so_odd_two_routes(self, p, q):
        n = (p + q) // 2
        s_route = sorted(
            standard_rep_parameter(c).text()
            for c in enumerate_cohomological(f"SO({p},{q})")
        )
        ent = [2 * k - 1 for k in range(1, n + 1)]  # doubled
        exps = HalfIntVector((*ent, *[-e for e in ent]))
        direct = sorted(pp.text() for pp in enumerate_selfdual(exps, "symplectic"))
        assert s_route == direct
        assert len(direct) == 2 ** n
        # symplectic-valued parameters leave the quad sign free
        for c in enumerate_cohomological(f"SO({p},{q})"):
            img = standard_rep_parameter(c)
            quads = [a for a in img.atoms if isinstance(a, QuadAtom)]
            assert img.omega_pair == bool(quads)
            assert all(a.eps == 0 for a in quads)

    @pytest.mark.parametrize(
        "p,q", [(2, 2), (3, 3), (2, 4), (4, 4), (2, 6), (4, 6), (6, 6), (5, 7)]
    )
    def test_so_even_two_routes(self, p, q):
        n = (p + q) // 2
        s_route = {
            standard_rep_parameter(c).text()
            for c in enumerate_cohomological(f"SO({p},{q})")
        }
        ent = list(range(n))
        exps = HalfIntVector.from_ints(*ent, *[-e for e in ent])
        delta = (q - n) % 2
        direct = {
            pp.text() for pp in enumerate_selfdual(exps, "orthogonal", delta)
        }
        assert s_route == direct

    def test_so_even_fork_collisions(self):
        # the two fork singletons of SO(2,4) give the same image
        params = enumerate_cohomological("SO(2,4)")
        by_s = {
            tuple(sorted(c.S)): standard_rep_parameter(c).text() for c in params
        }
        assert by_s[(2,)] == by_s[(3,)]
        assert by_s[(1, 2)] == by_s[(1, 3)]

    def test_u_exponents_mirror_under_negation(self):
        # single entries need not be symmetric (the diagram involution is
        # trivial for unitary groups, so every subset enumerates), but the
        # exponent multiset always is: the weight sits on the hyperplane
        # fixed by the flip
        for desc in ("U(2,1)", "U(2,2)", "U(3,2)"):
            for c in enumerate_cohomological(desc):
                exps = standard_rep_parameter(c).doubled_exponents()
                assert sorted(-e for e in exps) == sorted(exps)
        # the two singleton subsets of U(2,1) give mirror images
        by_s = {
            tuple(sorted(c.S)): standard_rep_parameter(c)
            for c in enumerate_cohomological("U(2,1)")
        }
        flip = tuple(sorted((-t, m) for t, m in by_s[(1,)].entries))
        assert flip == tuple(sorted(by_s[(2,)].entries))


# ---------------------------------------------------------------------------
# twisted and weighted enumeration


class TestWeightedEnumeration:
    def test_gl_twisted_weight(self):
        lam = HalfIntVector.from_ints(2, 1, 0)
        (p,) = enumerate_gl_real(3, lam)
        assert p.text() == "s4[1]+w0[1]*nu^1"
        assert p.doubled_exponents() == [6, 2, -2]

    def test_gl_rejects_bad_weights(self):
        with pytest.raises(InvalidWeightError):
            enumerate_gl_real(3, HalfIntVector.from_ints(0, 1, 0))
        with pytest.raises(InvalidWeightError):
            enumerate_gl_real(2, HalfIntVector.parse("1/2,0"))
        # not self-dual up to twist: exponent sums disagree, printed as text
        with pytest.raises(InvalidWeightError, match=r"exponent sums \[2, 5\]$"):
            enumerate_gl_real(3, HalfIntVector.from_ints(5, 1, 0))

    def test_weighted_matches_subset_route(self):
        lam = HalfIntVector.from_ints(2, 1, -1, -2)
        s_route = sorted(
            standard_rep_parameter(c).text()
            for c in enumerate_cohomological("GL(4,R)", lam)
        )
        direct = sorted(p.text() for p in enumerate_gl_real(4, lam))
        cascade = sorted(p.text() for p in gl_cascade_parameters(4, lam))
        assert s_route == direct == cascade

    def test_sp_weighted(self):
        lam = HalfIntVector.from_ints(1, 1)
        s_route = sorted(
            standard_rep_parameter(c).text()
            for c in enumerate_cohomological("Sp(4,R)", lam)
        )
        exps = HalfIntVector.from_ints(3, 2, 0, -2, -3)
        direct = sorted(p.text() for p in enumerate_selfdual(exps, "orthogonal", 0))
        assert s_route == direct

    def test_coefficient_weight_roundtrip(self):
        for n in (2, 3, 4, 5, 6):
            for p in enumerate_gl_real(n):
                assert gl_coefficient_weight(p, n) == zero(n)
        lam = HalfIntVector.from_ints(2, 1, 0)
        for p in enumerate_gl_real(3, lam):
            assert gl_coefficient_weight(p, 3) == lam


_gl_parameters = st.builds(
    GLParameter,
    st.lists(
        st.one_of(
            st.builds(TwoDimAtom, st.integers(1, 8), st.integers(1, 5)),
            st.builds(QuadAtom, st.integers(0, 1), st.integers(1, 6)),
        ),
        max_size=5,
    ).map(tuple),
    st.integers(-6, 6),
)
_complex_parameters = st.builds(
    ComplexParameter,
    st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 5)), max_size=5).map(tuple),
)


class TestDoubledExponents:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_gl_parameters, _complex_parameters))
    def test_doubled_exponents_are_twice_the_exponents(self, p):
        doubled = p.doubled_exponents()
        # against each atom's own Fraction exponents, shifted by the twist
        if isinstance(p, GLParameter):
            own = [2 * e + p.twist2 for a in p.atoms for e in atom_exponents(a)]
        else:
            own = [two_d + m - 1 - 2 * k for two_d, m in p.entries for k in range(m)]
        assert doubled == sorted(own, reverse=True)
        assert len(doubled) == p.dimension

    @staticmethod
    def _both(p, n):
        out = []
        for route in (gl_coefficient_weight, oracles.gl_coefficient_weight_by_fractions):
            try:
                out.append(route(p, n))
            except InvalidWeightError as exc:
                out.append(str(exc))
        return out

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_gl_parameters, _complex_parameters), st.integers(-1, 2))
    def test_coefficient_weight_matches_the_fraction_route(self, p, off):
        # off = 0 reads the parameter's own dimension, the others the first
        # error text; most random parameters give the dominance error
        n = p.dimension + off
        ints, fractions = self._both(p, n)
        assert ints == fractions
        if off:
            assert ints == f"parameter has dimension {p.dimension}, expected {n}"

    def test_coefficient_weight_matches_the_fraction_route_on_the_lists(self):
        seen = set()
        for n in range(1, 7):
            lams = [zero(n), HalfIntVector.from_ints(*range(n, 0, -1))]
            for lam in lams:
                for p in (*enumerate_gl_real(n, lam), *enumerate_complex_cohomological(n, lam)):
                    ints, fractions = self._both(p, n)
                    assert ints == fractions == lam, p.text()
                    seen.add(p.text())
        assert len(seen) == 96
        bad = parse_gl_parameter("s1[1]+s1[1]")  # exponents 1/2, 1/2, -1/2, -1/2
        assert self._both(bad, 4) == ["exponents are not dominant after the rho shift"] * 2


# ---------------------------------------------------------------------------
# tempered companions


class TestTemperedCompanion:
    def test_sp4_companions_all_land_on_tempered_member(self):
        tempered = SP4_TABLE[()]
        for c in enumerate_cohomological("Sp(4,R)"):
            img = standard_rep_parameter(c)
            comp = tempered_companion(img)
            assert comp.text() == tempered, (sorted(c.S), comp.text())

    def test_so23_companions(self):
        tempered = SO23_TABLE[()]
        for c in enumerate_cohomological("SO(2,3)"):
            comp = tempered_companion(standard_rep_parameter(c))
            # symplectic: quad signs are free, compare up to the twist orbit
            assert comp.orbit_key() == parse_gl_parameter(tempered).orbit_key()

    def test_companion_preserves_exponents_and_det(self):
        for text in ("w0[5]", "s4[1]+w1[3]", "s3[2]+w0[1]", "w1[4]", "w0[7]"):
            p = parse_gl_parameter(text)
            c = tempered_companion(p)
            assert c.doubled_exponents() == p.doubled_exponents()
            assert c.det_exponent == p.det_exponent
            assert all(
                a.m == 1 if isinstance(a, TwoDimAtom) else a.a == 1
                for a in c.atoms
            )

    def test_companion_rejects_colliding_atom(self):
        with pytest.raises(MathCheckError):
            tempered_companion(parse_gl_parameter("s1[2]"))


# ---------------------------------------------------------------------------
# routing between families


class TestRouting:
    def test_gl5_routes_to_sp4(self):
        golden = set(SP4_TABLE.values())
        for p in enumerate_gl_real(5):
            r = route_selfdual(p)
            assert r.target == "Sp(4,R)"
            # the member of the twist orbit with trivial determinant
            q = p if p.det_exponent == 0 else p.omega_twist()
            assert q.det_exponent == 0 and q.text() in golden

    def test_gl4_routes_to_so23(self):
        for p in enumerate_gl_real(4):
            r = route_selfdual(p)
            assert r.target == "SO(2,3)"

    def test_mixed_and_twisted_do_not_route(self):
        assert route_selfdual(parse_gl_parameter("s1[1]+s2[1]")).target is None
        assert route_selfdual(parse_gl_parameter("s2[1]*nu^1")).target is None

    def test_even_orthogonal_discriminant_split(self):
        # determinant class selects the even orthogonal signature
        assert route_selfdual(parse_gl_parameter("s4[1]+w0[3]+w1[1]")).target == "SO(3,3)"
        assert route_selfdual(parse_gl_parameter("s4[1]+s2[1]+w0[1]+w1[1]")).target == "SO(4,2)"

    def test_odd_symplectic_impossible(self):
        # every symplectic atom has even dimension, so a symplectic-valued
        # parameter of odd dimension cannot even be written down
        for d in range(1, 5):
            for m in range(1, 5):
                a = TwoDimAtom(d, m)
                if a.is_symplectic:
                    assert a.dim % 2 == 0
        for eps in (0, 1):
            for ln in range(1, 7):
                q = QuadAtom(eps, ln)
                if q.is_symplectic:
                    assert q.dim % 2 == 0
        # mixing types blocks the route instead
        r = route_selfdual(parse_gl_parameter("s1[1]+w0[2]+w0[1]"))
        assert r.target is None and "mixed" in r.reason


# ---------------------------------------------------------------------------
# transfers


class TestTransfers:
    def test_weight_maps(self):
        so23 = build_classical_dual("SO(2,3)")
        sp4 = build_classical_dual("Sp(4,R)")
        gl3 = build_classical_dual("GL(3,R)")
        v = HalfIntVector.parse("3/2,1/2")
        assert str(transfer_weight("so-odd-to-gl", so23, v)) == "3/2,1/2,-1/2,-3/2"
        w = HalfIntVector.from_ints(2, 1)
        assert str(transfer_weight("sp-to-gl", sp4, w)) == "2,1,0,-1,-2"
        assert str(transfer_weight("sp-to-so-even", sp4, w)) == "2,1,0"
        u = HalfIntVector.from_ints(1, 0, -1)
        assert str(transfer_weight("gl-to-complex", gl3, u)) == "1,0,-1,1,0,-1"

    def test_weight_map_family_mismatch(self):
        gl3 = build_classical_dual("GL(3,R)")
        with pytest.raises(UnsupportedGroupError):
            transfer_weight("so-odd-to-gl", gl3, HalfIntVector.from_ints(1, 0, -1))
        with pytest.raises(UnsupportedGroupError):
            transfer_weight("nope", gl3, HalfIntVector.from_ints(1, 0, -1))

    def test_so_odd_to_gl_images(self):
        for c in enumerate_cohomological("SO(2,3)"):
            r = transfer_cohom(c, "so-odd-to-gl")
            assert r.target_group == "GL(4,R)"
            assert r.image_cohomological is True
            assert str(r.inf_char) == "3/2,1/2,-1/2,-3/2"
            assert r.image_regular

    def test_sp_to_gl_images(self):
        want = {
            (): "s4[1]+s2[1]+w0[1]",
            (1,): "s3[2]+w0[1]",
            (2,): "s4[1]+w1[3]",
            (1, 2): "w0[5]",
        }
        for c in enumerate_cohomological("Sp(4,R)"):
            r = transfer_cohom(c, "sp-to-gl")
            assert r.target_group == "GL(5,R)"
            assert r.parameter.text() == want[tuple(sorted(c.S))]
            assert r.image_cohomological is True

    def test_sp_to_so_even_images(self):
        rows = {}
        for c in enumerate_cohomological("Sp(4,R)"):
            r = transfer_cohom(c, "sp-to-so-even")
            rows[tuple(sorted(c.S))] = (
                r.target_group,
                r.parameter.text(),
                r.image_cohomological,
                "order-two twist" in r.notes,
            )
        # the appended line is always the trivial character
        assert rows[()] == ("SO(3,3)", "s4[1]+s2[1]+w0[1]+w0[1]", True, False)
        assert rows[(1,)] == ("SO(3,3)", "s3[2]+w0[1]+w0[1]", True, False)
        assert rows[(1, 2)] == ("SO(3,3)", "w0[5]+w0[1]", True, False)
        # the determinant-forced sign on the B side lands on the twist
        # partner of the enumerated member, and the note says so
        assert rows[(2,)] == ("SO(3,3)", "s4[1]+w1[3]+w0[1]", True, True)

    def test_sp_to_so_even_image_not_regular(self):
        c = enumerate_cohomological("Sp(4,R)")[0]
        r = transfer_cohom(c, "sp-to-so-even")
        # appended zero exponent collides with the existing one
        exps = r.parameter.doubled_exponents()
        assert len(set(exps)) < len(exps)
        assert r.image_regular  # but the orbit in D_3 coordinates is regular

    def test_gl_to_complex_images(self):
        want = {
            (): "e3/2[1]+e1/2[1]+e-1/2[1]+e-3/2[1]",
            (2,): "e3/2[1]+e0[2]+e-3/2[1]",
            (1, 3): "e1[2]+e-1[2]",
            (1, 2, 3): "e0[4]",
        }
        for c in enumerate_cohomological("GL(4,R)"):
            r = transfer_cohom(c, "gl-to-complex")
            assert r.target_group == "GL(4,C)"
            assert r.parameter.text() == want[tuple(sorted(c.S))]
            assert r.image_cohomological is True

    def test_gl_transfer_results_pinned(self):
        # every GL transfer of Sp(2n,R), n <= 5, and of the odd SO(p,q) up to
        # rank 4: the digest of the reprs pins each result
        sources = [(f"Sp({2 * n},R)", "sp-to-gl") for n in range(1, 6)]
        sources += [
            (f"SO({p},{q})", "so-odd-to-gl")
            for q in range(2, 10)
            for p in range(q)
            if (p + q) % 2 and p + q <= 9
        ]
        results = [
            transfer_cohom(c, kind)
            for desc, kind in sources
            for c in enumerate_cohomological(desc)
        ]
        assert len(results) == 190
        text = "\n".join(map(repr, results)).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "eda7fbf37a483bb71de9e00b35edd262460999909b5fd6dd364be7ecfc6f50db"
        )
        assert all(r.image_cohomological for r in results)

    def test_transfer_rho_check_assertion_runs(self):
        # transporting any weight exercises the rho-check consistency gate
        sp6 = build_classical_dual("Sp(6,R)")
        for kind in ("sp-to-gl", "sp-to-so-even"):
            transfer_weight(kind, sp6, sp6.rho_check)


# ---------------------------------------------------------------------------
# the source parameter of a transfer, read off its image


# the source families of the CLI's transfers, which the closed form reads
PREIMAGE_FAMILIES = ("Sp_R", "SO_odd", "GL_R")


def golden_images():
    """(datum, parameter, image) of every parameter of the Sp_R, SO_odd and
    GL_R groups of the golden corpus, at the zero weight and at the two
    nonzero weights where those are valid."""
    out = []
    for group in golden.GROUPS:
        d = build_classical_dual(group)
        if d.family not in PREIMAGE_FAMILIES:
            continue
        for weight in (None, *golden.nonzero_weights(group)):
            lam = None if weight is None else HalfIntVector.parse(weight)
            try:
                cs = enumerate_cohomological(d, lam)
            except InvalidWeightError:
                continue  # GL(1,R)'s nonzero weights are not theta-fixed
            out += [(d, c, standard_rep_parameter(c)) for c in cs]
    return out


@st.composite
def preimage_cases(draw):
    """A group of rank 6 or 12, a random dominant theta-fixed integral
    weight on it, and one of its parameters there."""
    group = draw(st.sampled_from(["Sp(12,R)", "SO(6,7)", "GL(12,R)"]))
    d = build_classical_dual(group)
    steps = draw(st.lists(st.integers(0, 2), min_size=6, max_size=6))
    half = list(itertools.accumulate(reversed(steps)))[::-1]
    entries = half + [-x for x in reversed(half)] if d.family == "GL_R" else half
    lam = HalfIntVector.from_ints(*entries)
    cs = enumerate_cohomological(d, lam)
    return d, lam, cs, draw(st.integers(0, len(cs) - 1))


class TestPreimage:
    def test_closed_form_matches_the_search_on_every_golden_image(self):
        images = golden_images()
        assert len(images) == 437
        twist = "matched up to the order-two twist"
        for d, c, img in images:
            assert transfer._cohomological_preimage(d, img) == c, img.text()
            assert oracles.preimage_by_search(d, c.lam, img.text()) == (c, img, "")
            # a quad sign is never read: the twist partner gives c again
            twin = img.omega_twist()
            if twin.text() != img.text():
                assert transfer._cohomological_preimage(d, twin) == c
                assert oracles.preimage_by_search(d, c.lam, twin.text()) == (c, img, twist)

    @settings(max_examples=30, deadline=None)
    @given(preimage_cases())
    def test_closed_form_at_random_weights(self, case):
        d, lam, cs, pick = case
        for c in cs:
            assert transfer._cohomological_preimage(d, standard_rep_parameter(c)) == c
        img = standard_rep_parameter(cs[pick])
        assert oracles.preimage_by_search(d, lam, img.text())[0] == cs[pick]

    def test_closed_form_enumerates_nothing(self, monkeypatch):
        def boom(*a, **k):
            pytest.fail("the closed form enumerated")

        images = golden_images()
        monkeypatch.setattr(params, "enumerate_cohomological", boom)
        for name in (
            "enumerate_gl_real", "enumerate_selfdual",
            "enumerate_complex_cohomological", "gl_cascade_parameters",
        ):
            monkeypatch.setattr(direct, name, boom)
        for d, c, img in images:
            assert transfer._cohomological_preimage(d, img) == c

    def test_every_golden_image_transfers_cohomologically(self):
        results = [
            transfer_cohom(transfer._cohomological_preimage(d, img), kind)
            for d, _, img in golden_images()
            for kind, (families, *_) in transfer._TRANSFERS.items()
            if d.family in families
        ]
        assert len(results) == 497
        assert all(r.image_regular and r.image_cohomological is True for r in results)

    @pytest.mark.parametrize(
        "group, text",
        [
            ("SO(2,3)", "s1[1]+s1[1]"),  # exponents not dominant
            ("SO(2,3)", "s3[2]"),  # lam = (1/2,1/2) not integral
            ("Sp(4,R)", "w0[7]"),  # dimension 7, not 5
            ("GL(2,R)", "s1[1]*nu^1/2"),  # no coordinate starts s1[1]
            ("GL(2,R)", "s1[1]*nu^1"),  # lam = (1,1) not theta-fixed
        ],
    )
    def test_non_images_raise_invalid_weight(self, group, text):
        with pytest.raises(InvalidWeightError):
            transfer._cohomological_preimage(
                build_classical_dual(group), parse_gl_parameter(text)
            )


# ---------------------------------------------------------------------------
# whether a transfer's image is cohomological, in closed form


def golden_transfers():
    """(parameter, kind) for every parameter of every source group of the
    golden corpus at the zero weight and at the two nonzero weights where
    those are valid, along every transfer kind its family takes."""
    out = []
    for group in golden.GROUPS:
        d = build_classical_dual(group)
        kinds = [k for k, (families, *_) in transfer._TRANSFERS.items() if d.family in families]
        if not kinds:
            continue
        for weight in (None, *golden.nonzero_weights(group)):
            lam = None if weight is None else HalfIntVector.parse(weight)
            try:
                cs = enumerate_cohomological(d, lam)
            except InvalidWeightError:
                continue  # GL(1,R)'s nonzero weights are not theta-fixed
            out += [(c, kind) for c in cs for kind in kinds]
    return out


# atoms of small candidate parameters, signs and repeated exponents included
CANDIDATE_ATOMS = [TwoDimAtom(d, m) for d in range(1, 6) for m in range(1, 4)] + [
    QuadAtom(eps, a) for eps in (0, 1) for a in range(1, 6)
]


def candidate_parameters(dim: int, start: int = 0):
    """Every untwisted parameter of dimension `dim` made of `CANDIDATE_ATOMS`."""
    if dim == 0:
        yield GLParameter(())
        return
    for i, atom in enumerate(CANDIDATE_ATOMS[start:], start):
        if atom.dim <= dim:
            for rest in candidate_parameters(dim - atom.dim, i):
                yield GLParameter((atom,) + rest.atoms)


def transfer_candidate(monkeypatch, cohom, kind, candidate):
    """`transfer_cohom(cohom, kind)` with `candidate` in place of the image
    of `cohom`, and what the target's whole enumeration says of it."""
    with monkeypatch.context() as patch:
        patch.setattr(transfer, "standard_rep_parameter", lambda _: candidate)
        result = transfer_cohom(cohom, kind)
    return result, oracles.transfer_by_enumeration(cohom, kind, result.parameter)


class TestTransferMembership:
    def test_closed_form_matches_the_enumeration_on_every_golden_transfer(self):
        results = [(transfer_cohom(c, kind), c, kind) for c, kind in golden_transfers()]
        assert len(results) == 617
        for r, c, kind in results:
            want = oracles.transfer_by_enumeration(c, kind, r.parameter)
            assert (r.image_cohomological, r.notes) == want, (kind, r.parameter.text())
        assert all(r.image_cohomological for r, _, _ in results)
        twisted = [r for r, _, _ in results if "order-two twist" in r.notes]
        assert len(twisted) == 14
        assert {r.kind for r in twisted} == {"sp-to-so-even"}

    def test_non_members_agree_with_the_enumeration(self, monkeypatch):
        # every small candidate image into each target, against the target's
        # list.  A GL(N,R) list refuses exponents that repeat or mix cosets
        # (no image has such), and the exponents it takes are distinct and
        # in one coset, so they leave at most one zero string: every
        # candidate it takes is a member.  The non-members are orthogonal
        # (a symplectic atom, an even or thrice repeated zero string, an
        # unreachable determinant) and complex (strings off lam + rho).
        sources = [(f"Sp({2 * n},R)", "sp-to-gl") for n in (1, 2, 3)]
        sources += [(f"SO({n},{n + 1})", "so-odd-to-gl") for n in (1, 2, 3)]
        sources += [(f"Sp({2 * n},R)", "sp-to-so-even") for n in (1, 2, 3)]
        sources += [(f"GL({n},R)", "gl-to-complex") for n in range(1, 7)]
        seen = Counter()
        for group, kind in sources:
            d = build_classical_dual(group)
            weights = [None]
            if kind == "gl-to-complex" and d.ambient_dim > 1:
                weights += golden.nonzero_weights(group)
            for weight in weights:
                lam = None if weight is None else HalfIntVector.parse(weight)
                c = enumerate_cohomological(d, lam)[0]
                for cand in candidate_parameters(standard_rep_parameter(c).dimension):
                    r, want = transfer_candidate(monkeypatch, c, kind, cand)
                    if want[0] is None:
                        assert "GL" in r.target_group
                        seen[kind, "refused"] += 1
                        continue
                    assert (r.image_cohomological, r.notes) == want, (group, kind, cand.text())
                    seen[kind, r.image_cohomological] += 1
        assert seen["sp-to-gl", False] == seen["so-odd-to-gl", False] == 0
        assert seen["sp-to-gl", True] + seen["so-odd-to-gl", True] == 49
        assert seen["sp-to-so-even", False] == 694
        assert seen["gl-to-complex", False] == 1605

    @settings(max_examples=25, deadline=None)
    @given(preimage_cases())
    def test_closed_form_at_random_weights(self, case):
        d, _, cs, _ = case
        kinds = [k for k, (families, *_) in transfer._TRANSFERS.items() if d.family in families]
        for c in cs:
            for kind in kinds:
                r = transfer_cohom(c, kind)
                want = oracles.transfer_by_enumeration(c, kind, r.parameter)
                assert (r.image_cohomological, r.notes) == want

    def test_transfer_enumerates_nothing(self, monkeypatch):
        def boom(*a, **k):
            pytest.fail("transfer_cohom enumerated its target")

        cases = golden_transfers()
        want = [transfer_cohom(c, kind) for c, kind in cases]
        for name in (
            "enumerate_gl_real", "enumerate_selfdual", "enumerate_complex_cohomological",
            "_atom_sets", "_finish_enumeration", "_block_compositions",
        ):
            monkeypatch.setattr(direct, name, boom)
        assert [transfer_cohom(c, kind) for c, kind in cases] == want


# ---------------------------------------------------------------------------
# central values


class TestCentralValue:
    def test_reports_on_golden_tables(self):
        for c in enumerate_cohomological("Sp(4,R)"):
            rep = central_value_report(standard_rep_parameter(c), c)
            assert rep.overall and rep.subset_side
        for c in enumerate_cohomological("U(2,1)"):
            rep = central_value_report(standard_rep_parameter(c), c)
            assert rep.overall and rep.subset_side

    HALF_INTEGRAL = [("SL(2,R)", "1/2,-1/2"), ("SL(4,R)", "3/2,1/2,-1/2,-3/2")]

    @pytest.mark.parametrize(
        "group, weight",
        [
            *((g, w) for g in golden.GROUPS for w in [None, *golden.nonzero_weights(g)]),
            *HALF_INTEGRAL,
        ],
    )
    def test_subset_side_reads_integrality(self, group, weight):
        d = build_classical_dual(group)
        lam = zero(d.ambient_dim) if weight is None else HalfIntVector.parse(weight)
        try:
            cs = enumerate_cohomological(d, lam)
        except InvalidWeightError:
            # the golden corpus records this weight's error exit
            assert (group, weight) not in self.HALF_INTEGRAL
            return
        integral = all(x.denominator == 1 for x in lam)
        for c in cs:
            assert c.central_ok == integral, (group, weight, sorted(c.S))
            # the atom side reads the image's strings against the datum's
            # rho-check, every family alike
            rep = central_value_report(standard_rep_parameter(c), c)
            assert rep.subset_side == rep.overall == integral

    def test_halfintegral_weight_fails_parity(self):
        # s2 alone corresponds to the weight (1/2,-1/2): not integral
        rep = central_value_report(parse_gl_parameter("s2[1]"))
        assert not rep.overall
        assert rep.subset_side is None

    def test_parity_is_per_atom(self):
        rep = central_value_report(parse_gl_parameter("s3[1]+w0[2]"))
        assert rep.overall
        # s3 against N=3 fails (d+m even), the quad line passes
        rep = central_value_report(parse_gl_parameter("s3[1]+w0[1]"))
        assert rep.per_atom == (False, True)


# ---------------------------------------------------------------------------
# property tests


@st.composite
def dominant_integral_weight(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    steps = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    tail = draw(st.integers(min_value=-2, max_value=2))
    vals = []
    acc = tail
    for s in steps:
        acc += s
        vals.append(acc)
    return HalfIntVector.from_ints(*reversed(vals))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(dominant_integral_weight())
    def test_gl_direct_enumeration_invariants(self, lam):
        n = len(lam)
        big = sorted(
            (e + Fraction(n - 1 - 2 * i, 2) for i, e in enumerate(lam)),
            reverse=True,
        )
        try:
            params = enumerate_gl_real(n, lam)
        except InvalidWeightError:
            # not self-dual up to twist: nothing to check
            return
        assert params, lam
        texts = set()
        for p in params:
            assert p.dimension == n
            assert p.doubled_exponents() == [2 * b for b in big]
            assert len(set(p.doubled_exponents())) == n
            assert len(set(p.atoms)) == len(p.atoms)
            assert p.text() not in texts
            texts.add(p.text())
            assert parse_gl_parameter(p.text()).text() == p.text()
        assert sorted(p.text() for p in gl_cascade_parameters(n, lam)) == sorted(texts)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["GL(5,R)", "GL(6,R)", "Sp(4,R)", "Sp(6,R)", "SO(2,3)",
                            "SO(4,3)", "SO(2,4)", "SO(3,3)", "U(2,1)", "U(2,2)",
                            "GL(3,C)", "GL(4,C)"]),
           st.integers(min_value=0, max_value=30))
    def test_subset_route_structural_invariants(self, desc, seed):
        params = enumerate_cohomological(desc)
        c = params[seed % len(params)]
        img = standard_rep_parameter(c)
        datum = c.datum
        # dimensions: A-types keep n, B adds the zero line, C/D double
        fam = datum.family
        n = datum.ambient_dim
        expected = {"GL_R": n, "SL_R": n, "U": n, "GL_C": n // 2,
                    "Sp_R": 2 * n + 1, "SO_odd": 2 * n, "SO_even": 2 * n}[fam]
        assert img.dimension == expected
        # exponent multiset of the image is the family embedding of the
        # infinitesimal character lam + rho-check = chi + half the sl2 part
        rho_levi = StandardParabolic(datum, c.S).rho_check_levi
        chi, sl2 = c.lam + datum.rho_check - rho_levi, rho_levi.scale(2)
        inf = [x + Fraction(h, 2) for x, h in zip(chi, sl2)]
        assert inf == list(c.lam + datum.rho_check)
        if fam in ("GL_R", "SL_R", "U"):
            want = inf
        elif fam == "GL_C":
            want = inf[: n // 2]
        elif fam == "Sp_R":
            want = inf + [-x for x in inf] + [Fraction(0)]
        else:
            want = inf + [-x for x in inf]
        assert sorted(img.doubled_exponents()) == sorted(2 * x for x in want)
        # the subset-side character is regular within its factor
        slab = inf[: n // 2] if fam == "GL_C" else inf
        assert len(set(slab)) == len(slab)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=7))
    def test_counts(self, n):
        assert len(enumerate_gl_real(n)) == 2 ** (n // 2)
        assert len(enumerate_complex_cohomological(n)) == 2 ** (n - 1)
