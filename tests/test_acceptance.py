"""Acceptance gate: eleven criteria, one test (and one printed line) each.

Every criterion is exact — the identities under test are integer/rational
combinatorics with no tolerance — and each carries the time budget noted
in its docstring.  Oracles here are deliberately independent of the
library: symmetric-group double cosets are brute-forced from raw tuple
composition, Weyl double cosets from raw element products, and the linear
systems are re-checked from the returned coefficients.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail listing.
"""

import itertools
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

from cohoparam.cohomology import partition_independence, self_dual_compositions
from cohoparam.cohomology import (
    innerform_sum_compact,
    innerform_sum_quasisplit,
)
from cohoparam.halfint import HalfIntVector
from cohoparam.packets import packet, packet_size_unitary, theta_stable_parabolic_count
from cohoparam.params import (
    CohomParameter,
    GLParameter,
    TwoDimAtom,
    enumerate_cohomological,
    enumerate_complex_cohomological,
    enumerate_gl_real,
    gl_cascade_parameters,
    route_selfdual,
    standard_rep_parameter,
    tempered_companion,
    transfer_weight,
)
from cohoparam.rootdata import (
    StandardParabolic,
    build_classical_dual,
    dominant_orbit_rep,
    principal_sl2_coefficients,
)
from cohoparam.weyl import compact_weyl_catalog, weyl_order

from oracles import levi_weyl_group


def zero(n: int) -> HalfIntVector:
    return HalfIntVector((0,) * n)


def hiv(*entries) -> HalfIntVector:
    return HalfIntVector(tuple(2 * e for e in entries))


def is_tempered(p: GLParameter) -> bool:
    return all(
        (a.m == 1) if isinstance(a, TwoDimAtom) else (a.a == 1) for a in p.atoms
    )


def compositions(n: int):
    """All ordered compositions of n (2^(n-1) of them)."""
    for cuts in range(2 ** (n - 1)):
        out, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                out.append(run)
                run = 1
            else:
                run += 1
        out.append(run)
        yield tuple(out)


def elapsed_under(t0: float, budget: float, label: str) -> None:
    dt = time.perf_counter() - t0
    assert dt < budget, f"{label} took {dt:.2f}s, budget {budget}s"


# ---------------------------------------------------------------------------
# 1. low-rank golden tables

GL_LISTS = {
    2: {"s1[1]", "w0[2]"},
    3: {"s2[1]+w0[1]", "w0[3]"},
    4: {"s3[1]+s1[1]", "s3[1]+w0[2]", "s2[2]", "w0[4]"},
    5: {"s3[2]+w0[1]", "s4[1]+s2[1]+w0[1]", "s4[1]+w0[3]", "w0[5]"},
}
SP4_LIST = {"s4[1]+s2[1]+w0[1]", "s3[2]+w0[1]", "s4[1]+w1[3]", "w0[5]"}
SO23_LIST = {"s3[1]+s1[1]", "s2[2]", "s3[1]+w0[2]", "w0[4]"}
COMPLEX3_LIST = {"e1[1]+e0[1]+e-1[1]", "e1/2[2]+e-1[1]", "e1[1]+e-1/2[2]", "e0[3]"}


def test_criterion_01_golden_tables():
    """Exact low-rank lists; budget < 1 s."""
    t0 = time.perf_counter()

    for n, want in GL_LISTS.items():
        got = {p.text() for p in enumerate_gl_real(n)}
        assert got == want, f"GL({n},R)"
    assert [len(GL_LISTS[n]) for n in (2, 3, 4, 5)] == [2, 2, 4, 4]

    for desc, want in (("Sp(4,R)", SP4_LIST), ("SO(2,3)", SO23_LIST)):
        imgs = [standard_rep_parameter(c) for c in enumerate_cohomological(desc)]
        assert {p.text() for p in imgs} == want, desc
        # each member routes back to the group it was enumerated for
        for p in imgs:
            assert route_selfdual(p).target == desc

    assert {p.text() for p in enumerate_complex_cohomological(3)} == COMPLEX3_LIST
    for desc in ("U(2,1)", "GL(3,C)"):
        got = {
            standard_rep_parameter(c).text() for c in enumerate_cohomological(desc)
        }
        assert got == COMPLEX3_LIST, desc

    elapsed_under(t0, 1.0, "golden tables")
    print("criterion 01 golden-tables: PASS")


# ---------------------------------------------------------------------------
# 2. cascade exponents and counts


def test_criterion_02_cascade():
    """Block-exponent formula and counts for n <= 10; budget < 5 s."""
    t0 = time.perf_counter()

    for n in range(1, 11):
        complex_texts = {p.text() for p in enumerate_complex_cohomological(n)}
        assert len(complex_texts) == 2 ** (n - 1)

        expected = set()
        for comp in compositions(n):
            pre, entries = 0, []
            for part in comp:
                d = Fraction(n - (2 * pre + part), 2)
                entries.append(f"e{d}[{part}]")
                pre += part
            expected.add("+".join(entries))
        assert complex_texts == expected, f"n={n}"

        real = {p.text() for p in enumerate_gl_real(n)}
        cascade = {p.text() for p in gl_cascade_parameters(n)}
        assert real == cascade, f"n={n}"
        assert len(real) == len(self_dual_compositions(n))

    elapsed_under(t0, 5.0, "cascade")
    print("criterion 02 cascade: PASS")


# ---------------------------------------------------------------------------
# 3. tempered companions over a weight corpus

CORPUS = {
    2: [(0, 0), (1, -1), (2, -2), (3, -3)],
    3: [(0, 0, 0), (1, 0, -1), (2, 0, -2)],
    4: [(0, 0, 0, 0), (1, 0, 0, -1), (1, 1, -1, -1), (2, 1, -1, -2)],
    5: [(0,) * 5, (1, 0, 0, 0, -1), (2, 1, 0, -1, -2), (1, 1, 0, -1, -1)],
    6: [(0,) * 6, (1, 0, 0, 0, 0, -1), (1, 1, 0, 0, -1, -1), (2, 1, 0, 0, -1, -2)],
    7: [
        (0,) * 7,
        (1, 0, 0, 0, 0, 0, -1),
        (1, 1, 0, 0, 0, -1, -1),
        (2, 1, 0, 0, 0, -1, -2),
    ],
    8: [
        (0,) * 8,
        (1, 0, 0, 0, 0, 0, 0, -1),
        (1, 1, 0, 0, 0, 0, -1, -1),
        (2, 1, 0, 0, 0, 0, -1, -2),
        (1, 1, 1, 0, 0, -1, -1, -1),
    ],
}


def test_criterion_03_tempered_companions():
    """Companion lands in the tempered sublist, same exponents; < 30 s."""
    t0 = time.perf_counter()
    n_weights = sum(len(v) for v in CORPUS.values())
    assert n_weights >= 20

    for n, weights in CORPUS.items():
        for w in weights:
            lam = hiv(*w)
            full = enumerate_gl_real(n, lam)
            # the enumeration is exhaustive: the independent block route
            # produces the same set, so membership below is two-sided
            assert {p.text() for p in full} == {
                p.text() for p in gl_cascade_parameters(n, lam)
            }
            tempered = [p for p in full if is_tempered(p)]
            assert tempered, (n, w)
            # the lists hold one representative per order-two twist orbit,
            # so membership is orbit-key membership
            tempered_keys = {p.orbit_key() for p in tempered}
            for p in full:
                q = tempered_companion(p)
                assert q.orbit_key() in tempered_keys, (n, w, p.text())
                assert sorted(q.exponents()) == sorted(p.exponents())
                if is_tempered(p):
                    assert q.text() == p.text()  # exact fixed point

    elapsed_under(t0, 30.0, "tempered companions")
    print("criterion 03 tempered-companions: PASS")


# ---------------------------------------------------------------------------
# 4. rho-check transport


def test_criterion_04_rho_transport():
    """The four embeddings carry rho-check to rho-check for n <= 6."""
    cases = []
    for n in range(1, 7):
        cases.append(("so-odd-to-gl", f"SO({n},{n + 1})", f"GL({2 * n},R)"))
        cases.append(("sp-to-gl", f"Sp({2 * n},R)", f"GL({2 * n + 1},R)"))
        cases.append(("sp-to-so-even", f"Sp({2 * n},R)", f"SO({n + 1},{n + 1})"))
        cases.append(("gl-to-complex", f"GL({n},R)", f"GL({n},C)"))

    for kind, src_desc, tgt_desc in cases:
        src = build_classical_dual(src_desc)
        tgt = build_classical_dual(tgt_desc)
        image = transfer_weight(kind, src, src.rho_check)
        assert dominant_orbit_rep(tgt, image) == tgt.rho_check, (kind, src_desc)

    # restriction of scalars repeats the weight, doubling every pairing
    for n in range(1, 7):
        src = build_classical_dual(f"GL({n},R)")
        v = HalfIntVector(tuple(range(n, -n, -2)))
        image = transfer_weight("gl-to-complex", src, v)
        assert image.twice == v.twice + v.twice

    print("criterion 04 rho-transport: PASS")


# ---------------------------------------------------------------------------
# 5. unitary packet sizes against brute-forced double cosets


def su_orbit_oracle(A, B, m):
    """Orbits of S_A x S_B on m-subsets of {0..A+B-1}: one per double coset.

    Returns sorted (invariant, size) pairs where the invariant is the
    overlap with the first block.
    """
    N = A + B
    gens = [i for i in range(N - 1) if i + 1 != A]  # adjacent swaps in-block
    seen = set()
    orbits = []
    for start in itertools.combinations(range(N), m):
        if start in seen:
            continue
        stack, orbit = [start], {start}
        while stack:
            cur = stack.pop()
            for i in gens:
                nxt = list(cur)
                for k, v in enumerate(nxt):
                    if v == i:
                        nxt[k] = i + 1
                    elif v == i + 1:
                        nxt[k] = i
                cand = tuple(sorted(nxt))
                if cand not in orbit:
                    orbit.add(cand)
                    stack.append(cand)
        seen |= orbit
        a = sum(1 for x in start if x < A)
        orbits.append((a, len(orbit)))
    return sorted(orbits)


def sn_double_coset_oracle(A, B, m, n):
    """Element-level K\\S_N/L partition by raw tuple composition."""
    N = A + B
    elements = set(itertools.permutations(range(N)))
    k_group = [
        tuple(list(p) + [A + x for x in q])
        for p in itertools.permutations(range(A))
        for q in itertools.permutations(range(B))
    ]
    l_group = [
        tuple(list(p) + [m + x for x in q])
        for p in itertools.permutations(range(m))
        for q in itertools.permutations(range(n))
    ]
    cosets = []
    while elements:
        g = elements.pop()
        coset = {
            tuple(k[g[l[i]]] for i in range(N)) for k in k_group for l in l_group
        }
        elements -= coset
        a_vals = {sum(1 for i in range(m) if x[i] < A) for x in coset}
        assert len(a_vals) == 1  # the overlap statistic is coset-constant
        cosets.append(a_vals.pop())
    return sorted(cosets)


def test_criterion_05_unitary_packet_sizes():
    """Closed form == brute force for all A+B <= 8; budget < 60 s."""
    t0 = time.perf_counter()
    checked = 0

    for N in range(1, 9):
        for A in range(N + 1):
            B = N - A
            for m in range(N + 1):
                n = N - m
                count, a_values = packet_size_unitary(A, B, m, n)
                oracle = su_orbit_oracle(A, B, m)
                assert count == len(oracle), (A, B, m, n)
                assert tuple(a for a, _ in oracle) == a_values, (A, B, m, n)
                # orbit sizes are binomial products and tile C(N, m)
                for a, size in oracle:
                    assert size == comb(A, a) * comb(B, m - a)
                assert sum(s for _, s in oracle) == comb(N, m)
                checked += 1

    assert checked == sum((N + 1) ** 2 for N in range(1, 9))  # 284 cases

    # independent element-level route on the smaller range
    for N in range(1, 7):
        for A in range(N + 1):
            for m in range(N + 1):
                count, a_values = packet_size_unitary(A, N - A, m, N - m)
                element_route = sn_double_coset_oracle(A, N - A, m, N - m)
                assert count == len(element_route)
                assert tuple(sorted(set(element_route))) == a_values

    elapsed_under(t0, 60.0, "unitary packet sizes")
    print("criterion 05 unitary-packet-sizes: PASS")


# ---------------------------------------------------------------------------
# 6. packet-sum identity, brute-forced over every small catalog entry

SMALL_CATALOG = (
    "GL(2,R)", "GL(3,R)", "GL(4,R)", "GL(5,R)", "GL(6,R)",
    "SL(3,R)", "SL(4,R)",
    "GL(2,C)", "GL(3,C)", "GL(4,C)",
    "U(1,1)", "U(2,1)", "U(2,2)", "U(3,2)", "U(3,3)",
    "Sp(2,R)", "Sp(4,R)", "Sp(6,R)", "Sp(8,R)",
    "SO(1,2)", "SO(2,3)", "SO(3,4)", "SO(4,5)",
    "SO(2,2)", "SO(3,3)", "SO(4,4)", "SO(2,4)", "SO(2,6)",
)


def test_criterion_06_packet_sum_identity():
    """Sum of 2^d |L| / |L cap w^-1 K w| over raw double cosets; < 60 s."""
    t0 = time.perf_counter()
    groups_done = 0

    for desc in SMALL_CATALOG:
        datum = build_classical_dual(desc)
        assert weyl_order(datum) <= 2**10, desc
        cat = compact_weyl_catalog(desc)
        w_theta = set(cat.w_theta)
        k_set = set(cat.k_weyl)
        closed_form = (2**cat.d_exponent) * len(w_theta) // len(k_set)

        for bits in range(2**datum.rank):
            S = frozenset(i + 1 for i in range(datum.rank) if bits >> i & 1)
            if datum.theta_subset(S) != S:
                continue
            parabolic = StandardParabolic(datum, S)
            levi_theta = [w for w in levi_weyl_group(parabolic) if w in w_theta]
            l_set = set(levi_theta)

            remaining = set(w_theta)
            total = 0
            n_cosets = 0
            while remaining:
                g = remaining.pop()
                coset = {k * g * l for k in k_set for l in l_set}
                remaining -= coset
                n_cosets += 1
                g_inv = g.inverse()
                conj = {g_inv * k * g for k in k_set}
                inter = len(l_set & conj)
                assert len(l_set) % inter == 0
                total += (2**cat.d_exponent) * len(l_set) // inter

            assert total == closed_form, (desc, sorted(S))
            assert n_cosets == theta_stable_parabolic_count(desc, parabolic)
            pkt = packet(desc, CohomParameter(datum, S, zero(datum.ambient_dim)))
            assert pkt.h_total == closed_form
            assert len(pkt.members) == n_cosets
        groups_done += 1

    assert groups_done == len(SMALL_CATALOG)
    elapsed_under(t0, 60.0, "packet-sum identity")
    print("criterion 06 packet-sum-identity: PASS")


# ---------------------------------------------------------------------------
# 7. partition independence


def test_criterion_07_partition_independence():
    """Every self-dual shape gives the same total; budget < 10 s."""
    t0 = time.perf_counter()

    for N in range(2, 11, 2):
        for flavor, expected in (("O", 2 ** (N // 2)), ("SO", 2 ** (N // 2 + 1))):
            rep = partition_independence(N, flavor)
            assert rep["status"] == "ok"
            assert rep["lhs"] == rep["rhs"] == expected
            assert len(rep["witnesses"]) == len(self_dual_compositions(N))

    for N in range(1, 10, 2):
        for flavor in ("O", "SO"):
            rep = partition_independence(N, flavor)
            assert rep["status"] == "ok"
            assert rep["lhs"] == rep["rhs"] == 2 ** ((N + 1) // 2)
            # the halved variant that floats around for odd sizes is
            # reported, never adopted: three-way consistency is the bar
            assert rep["textual_variant"]["total"] == 2 ** (N // 2)

    elapsed_under(t0, 10.0, "partition independence")
    print("criterion 07 partition-independence: PASS")


# ---------------------------------------------------------------------------
# 8. inner-form sums


def test_criterion_08_inner_form_sums():
    """Compact families rank <= 8 and the unitary family; budget < 10 s."""
    t0 = time.perf_counter()

    for r in range(1, 9):
        for desc, order in (
            (f"U({r})", factorial(r)),
            (f"Sp({r})", 2**r * factorial(r)),
            (f"SO({2 * r})", 2 ** (r - 1) * factorial(r) if r > 1 else 1),
            (f"SO({2 * r + 1})", 2**r * factorial(r)),
        ):
            rep = innerform_sum_compact(desc)
            assert rep.status == "ok"
            assert rep.lhs == 2**r, desc
            assert sum(c.orbit_size for c in rep.classes) == 2**r
            for c in rep.classes:
                assert c.orbit_size * c.stabilizer_order == order, desc

    for n in range(1, 9):
        for q in range(n // 2 + 1):
            rep = innerform_sum_quasisplit(f"U({n - q},{q})")
            assert rep.status == "ok"
            assert rep.lhs == 2**n
            assert sorted(c["index"] for c in rep.classes) == sorted(
                comb(n, k) for k in range(n + 1)
            )

    elapsed_under(t0, 10.0, "inner-form sums")
    print("criterion 08 inner-form-sums: PASS")


# ---------------------------------------------------------------------------
# 9. central values across every enumerator above


def test_criterion_09_central_values():
    """The central element acts correctly on everything enumerated."""
    for desc in ("GL(2,R)", "GL(3,R)", "GL(4,R)", "GL(5,R)", "Sp(4,R)",
                 "SO(2,3)", "U(2,1)", "GL(3,C)"):
        for c in enumerate_cohomological(desc):
            assert c.central_ok, (desc, sorted(c.S))

    for n, weights in CORPUS.items():
        for w in weights:
            lam = hiv(*w)
            for p in enumerate_gl_real(n, lam):
                ok, _ = p.central_parity_ok()
                assert ok, (n, w, p.text())
                ok, _ = tempered_companion(p).central_parity_ok()
                assert ok

    for n in range(1, 11):
        for p in enumerate_complex_cohomological(n):
            ok, _ = p.central_parity_ok()
            assert ok, (n, p.text())

    print("criterion 09 central-values: PASS")


# ---------------------------------------------------------------------------
# 10. principal-SL2 linear systems

SL2_SWEEP = (
    "GL(5,R)", "GL(9,R)", "SL(4,R)", "GL(4,C)", "GL(5,C)",
    "U(3,2)", "U(5,4)", "Sp(10,R)", "Sp(16,R)",
    "SO(4,5)", "SO(8,9)", "SO(4,4)", "SO(8,8)", "SO(3,7)",
)


def test_criterion_10_principal_sl2():
    """Zero residual and phi-symmetry on every subset; budget < 5 s."""
    t0 = time.perf_counter()

    for desc in SL2_SWEEP:
        datum = build_classical_dual(desc)
        assert datum.rank <= 8, desc
        for bits in range(2**datum.rank):
            S = frozenset(i + 1 for i in range(datum.rank) if bits >> i & 1)
            parabolic = StandardParabolic(datum, S)
            phi = datum.theta if datum.theta_subset(S) == S else None
            sol = principal_sl2_coefficients(parabolic, phi)
            # residual recomputed here, not taken from the solver
            for a in S:
                acc = sum(sol.coeffs[b] * datum.pairing(a, b) for b in S)
                assert acc == 2, (desc, sorted(S), a)
            if phi is not None:
                for a in S:
                    assert sol.coeffs[a] == sol.coeffs[phi(a)]
                for a in S:
                    if a not in sol.needs_sqrt:
                        assert (
                            sol.t_assignment[a] * sol.t_assignment[phi(a)]
                            == sol.coeffs[a]
                        )

    elapsed_under(t0, 5.0, "principal SL2")
    print("criterion 10 principal-sl2: PASS")


# ---------------------------------------------------------------------------
# 11. determinism of the full verification suite


def test_criterion_11_determinism():
    """Two consecutive full verify runs are byte-identical JSON."""
    def run_once():
        proc = subprocess.run(
            [sys.executable, "-m", "cohoparam.cli", "verify", "--suite", "all",
             "--format", "json"],
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout.decode()[-2000:]
        return proc.stdout

    first = run_once()
    second = run_once()
    assert first == second
    print("criterion 11 determinism: PASS")
