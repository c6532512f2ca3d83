"""Second routes of the transfer layer, and the principal SL2 of a Levi.

Independent direct enumerations (`enumerate_gl_real`,
`enumerate_selfdual`, `gl_cascade_parameters`,
`enumerate_complex_cohomological`) recover the images of
`cohoparam.params.standard_rep_parameter` from the infinitesimal character
alone, on doubled exponents as `cohoparam.halfint` stores them: the second
route that ``verify`` and the tests check the subset route and
`cohoparam.transfer`'s closed forms against.  The tempered companion, the
central-value report and the principal SL2 of a Levi
(`principal_sl2_coefficients`, whose coefficients are read off
2 rho-check_L one coroot at a time, and are the one `Fraction` result
here) live here too.  Only ``verify`` and
the tests import this module; the package resolves its names on first
use, and the ``transfer`` command never compiles it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Mapping

from ._record import record
from .errors import InvalidWeightError, MathCheckError
from .halfint import HalfIntVector, _fmt_half
from .params import (
    Atom,
    CohomParameter,
    ComplexParameter,
    GLParameter,
    QuadAtom,
    TwoDimAtom,
    _assign_quad_eps,
    _central_parity,
    _compositions,
    _self_dual_compositions,
)
from .rootdata import StandardParabolic

__all__ = [
    "enumerate_gl_real",
    "enumerate_selfdual",
    "gl_cascade_parameters",
    "enumerate_complex_cohomological",
    "tempered_companion",
    "central_value_report",
    "CentralReport",
    "PrincipalSL2",
    "principal_sl2_coefficients",
]


# ---------------------------------------------------------------------------
# direct enumerations from the infinitesimal character


def _atom_sets(rem: Counter) -> list[tuple]:
    """All splittings of a symmetric multiset of doubled exponents into raw
    atoms.

    Raw atoms are ('s', d, m) and ('w', a); recursion is on the largest
    remaining doubled exponent x2, which every covering atom must reach.
    """
    if not rem:
        return [()]
    x2 = max(rem)
    out = []

    def _minus(bag: Counter) -> Counter | None:
        nxt = rem.copy()
        for v, c in bag.items():
            if nxt[v] < c:
                return None
            nxt[v] -= c
            if not nxt[v]:
                del nxt[v]
        return nxt

    # two-dimensional options s{x2 - m + 1}[m], m = 1..x2.  When
    # x2 - m + 1 < m the two chains overlap; the multiset subtraction below is the only gate
    # needed (overlaps require doubled entries, e.g. the zero pair of an
    # even orthogonal exponent set).
    for m in range(1, x2 + 1):
        chain = [x2 - 2 * k for k in range(m)]
        nxt = _minus(Counter(chain + [-c for c in chain]))
        if nxt is not None:
            for tail in _atom_sets(nxt):
                out.append((("s", x2 - m + 1, m),) + tail)
    # one quad option: w[x2 + 1] covering the chain x2 .. -x2
    if x2 >= 0:
        nxt = _minus(Counter(x2 - 2 * k for k in range(x2 + 1)))
        if nxt is not None:
            for tail in _atom_sets(nxt):
                out.append((("w", x2 + 1),) + tail)
    return out


def _finish_enumeration(
    raw_sets: list[tuple],
    twist2: int,
    valued_in: str | None,
    delta: int | None,
) -> tuple[GLParameter, ...]:
    results = []
    for raw in raw_sets:
        twodims = [TwoDimAtom(r[1], r[2]) for r in raw if r[0] == "s"]
        quadlens = sorted((r[1] for r in raw if r[0] == "w"), reverse=True)
        if valued_in == "orthogonal":
            if any(t.is_symplectic for t in twodims):
                continue
            if any(a % 2 == 0 for a in quadlens):
                continue
            twodim_det = sum(t.det_exponent for t in twodims) % 2
            try:
                quads, flag = _assign_quad_eps(quadlens, twodim_det, delta or 0)
            except MathCheckError:
                continue
        else:
            if valued_in == "symplectic" and (
                any(not t.is_symplectic for t in twodims)
                or any(a % 2 == 1 for a in quadlens)
            ):
                continue
            quads, flag = _assign_quad_eps(quadlens, 0, None)
        results.append(GLParameter(tuple(twodims + quads), twist2, flag))
    results.sort(key=lambda p: p.text())
    return tuple(results)


def enumerate_gl_real(n: int, lam: HalfIntVector | None = None) -> tuple[GLParameter, ...]:
    """Every self-dual-up-to-twist parameter with the given coefficients.

    Works straight from the doubled exponents of lam + rho-check of GL(n),
    independently of the subset-side construction.
    """
    twice = (0,) * n if lam is None else lam.twice
    if len(twice) != n:
        raise InvalidWeightError(f"weight has {len(twice)} coordinates, expected {n}")
    if any(t % 2 for t in twice):
        raise InvalidWeightError(f"{lam} is not an integral weight")
    if any(twice[i] < twice[i + 1] for i in range(n - 1)):
        raise InvalidWeightError(f"{lam} is not dominant")
    big = [twice[i] + n - 1 - 2 * i for i in range(n)]
    csums = {big[i] + big[n - 1 - i] for i in range(n)}
    if len(csums) != 1:
        raise InvalidWeightError(
            f"{lam} is not self-dual up to twist: exponent sums "
            f"[{', '.join(map(_fmt_half, sorted(csums)))}]"
        )
    # an integral weight's doubled pair sums are even, so this is exact
    twist2 = csums.pop() // 2
    sym = Counter(b - twist2 for b in big)
    return _finish_enumeration(_atom_sets(sym), twist2, None, None)


def enumerate_selfdual(
    entries: HalfIntVector,
    valued_in: str,
    delta: int | None = None,
) -> tuple[GLParameter, ...]:
    """All orthogonal- or symplectic-valued parameters with given exponents.

    `entries` holds the full symmetric exponent multiset of the standard
    representation (dimension many entries).  For 'orthogonal' a
    determinant class `delta` may be imposed.
    """
    if valued_in not in ("orthogonal", "symplectic"):
        raise ValueError(f"valued_in = {valued_in!r}")
    bag = Counter(entries.twice)
    if any(bag[-v] != c for v, c in bag.items()):
        raise InvalidWeightError("exponent multiset is not symmetric")
    return _finish_enumeration(_atom_sets(bag), 0, valued_in, delta)


def _block_compositions(n: int, lam: HalfIntVector | None, comps):
    """(composition, doubled block exponents) for each of the compositions
    `comps` of n on whose blocks `lam` is constant; the j-th block carries
    the exponent (n - n_j)/2 - (preceding sum) + its weight."""
    twice = (0,) * n if lam is None else lam.twice
    if len(twice) != n:
        raise InvalidWeightError(f"weight has {len(twice)} coordinates")
    for comp in comps:
        exps = []
        pos = 0
        for size in comp:
            if len(set(twice[pos : pos + size])) != 1:
                break
            exps.append(n - size - 2 * pos + twice[pos])
            pos += size
        else:
            yield comp, exps


def gl_cascade_parameters(
    n: int, lam: HalfIntVector | None = None
) -> tuple[GLParameter, ...]:
    """Second independent route: blocks of mirror-symmetric compositions.

    Each composition (n_1, ..., n_k) of n with n_j = n_{k+1-j} and
    block-constant weight contributes one parameter, twisted so that its
    block exponents pair off around zero.
    """
    out = []
    for comp, exps in _block_compositions(n, lam, _self_dual_compositions(n)):
        k = len(comp)
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
        if k % 2 == 1:  # the middle block's own pair sum makes its exponent twist2
            quadlens.append(comp[k // 2])
        quads, flag = _assign_quad_eps(quadlens, 0, None)
        atoms = [TwoDimAtom(d, m) for d, m in zip(two_ds, comp)]
        out.append(GLParameter(tuple(atoms + quads), twist2, flag))
    out.sort(key=lambda p: p.text())
    return tuple(out)


def enumerate_complex_cohomological(
    n: int, lam: HalfIntVector | None = None
) -> tuple[ComplexParameter, ...]:
    """Direct route for complex-coefficient parameters: one per composition
    with block-constant weight."""
    seen = {}
    for comp, exps in _block_compositions(n, lam, _compositions(n)):
        p = ComplexParameter(tuple(zip(exps, comp)))
        seen.setdefault(p.text(), p)
    return tuple(sorted(seen.values(), key=lambda p: p.text()))


def tempered_companion(param: GLParameter) -> GLParameter:
    """The tempered parameter with the same exponents and determinant."""
    atoms: list[Atom] = []
    pending_eps: list[int] = []
    for a in param.atoms:
        if isinstance(a, TwoDimAtom):
            if a.d < a.m:
                raise MathCheckError(f"{a.text()} has colliding exponents")
            for k in range(a.m):
                atoms.append(TwoDimAtom(a.d + a.m - 1 - 2 * k, 1))
        else:
            top = a.a - 1
            for t in range(top, 0, -2):
                atoms.append(TwoDimAtom(t, 1))
            if a.a % 2 == 1:
                spread = sum(1 for t in range(top, 0, -2))
                pending_eps.append((a.eps + spread) % 2)
    for eps in pending_eps:
        atoms.append(QuadAtom(eps, 1))
    out = GLParameter(tuple(atoms), param.twist2, param.omega_pair)
    if out.doubled_exponents() != param.doubled_exponents():
        raise MathCheckError("companion changed the exponents")
    return out


# ---------------------------------------------------------------------------
# central value and unitary bookkeeping


@record
class CentralReport:
    overall: bool
    per_atom: tuple[bool, ...]
    subset_side: bool | None


def central_value_report(
    param: GLParameter | ComplexParameter, cohom: CohomParameter | None = None
) -> CentralReport:
    """String-by-string central-element parity, with the subset-side check.

    A cohomological parameter has infinitesimal character lam + rho-check
    with lam integral, so the central element's sign on its image is read
    off the lattice of rho-check of the group it lands in: a string (x2, m)
    sits on it when x2 + m - 1 has the parity of rho-check's doubled
    entries (`_central_parity`).  With `cohom` that parity is read off
    ``cohom.datum.rho_check``, and ``cohom.central_ok``, which reads lam
    alone, must agree or `MathCheckError` is raised; without it the parity
    is GL(N)'s, (N - 1) mod 2 for N = ``param.dimension``.
    """
    if cohom is None:
        overall, per = param.central_parity_ok()
    else:
        overall, per = _central_parity(param, cohom.datum.rho_check.twice[0] % 2)
    side = None if cohom is None else cohom.central_ok
    if side is not None and side != overall:
        raise MathCheckError(
            "central parity differs between the subset side and the atom side"
        )
    return CentralReport(overall, tuple(per), side)


# ---------------------------------------------------------------------------
# principal SL2 coefficients
#
# the principal SL2 of a Levi is the one whose unipotent is regular in it,
# the unipotents the transfer theorem is about; nothing outside this layer
# solves for it


@record
class PrincipalSL2:
    """Solution of the principal-SL2 linear system on a Levi subset.

    ``coeffs[alpha]`` are the unique rationals with
    sum_beta coeffs[beta] * <alpha, beta-check> = 2 for every alpha in S;
    the semisimple element is sum coeffs[beta] * beta-check = 2 rho_check_L.
    ``t_assignment`` satisfies t[alpha] * t[phi(alpha)] = coeffs[alpha]
    for the supplied diagram involution phi; indices in ``needs_sqrt``
    are phi-fixed, and their recorded value is coeffs[alpha] itself
    (a consumer takes the square root).
    """

    subset: tuple[int, ...]
    coeffs: Mapping[int, "Fraction"]
    t_assignment: Mapping[int, "Fraction"]
    needs_sqrt: frozenset[int]


def principal_sl2_coefficients(
    parabolic: StandardParabolic,
    phi: Callable[[int], int] | Mapping[int, int] | None = None,
) -> PrincipalSL2:
    """Coefficients of the principal SL2 of the Levi on simple coroots.

    The semisimple element is 2 rho_check_L (`RootDatum.levi_coroot_sum`),
    and the coefficients are its coordinates on the coroots of S, read left
    to right: a coroot's first coordinate is met by no later coroot, so its
    coefficient is what is left there over its own entry.  Type D's fork
    coroots e_k - e_z and e_k + e_z share theirs and are solved as a pair.
    Anything left over at the end, or a nonzero residual of
    sum_{beta in S} a_beta <alpha, beta-check> = 2 (alpha in S), raises
    `MathCheckError`.  When a diagram involution phi preserving S is
    supplied, verifies a_alpha = a_{phi(alpha)} and builds a t-assignment
    with t_alpha t_{phi(alpha)} = a_alpha.
    """
    from fractions import Fraction  # the coefficients are rational

    datum = parabolic.datum
    idx = sorted(parabolic.S)
    if phi is not None and not callable(phi):
        # an index phi lacks maps to None, which the subset check reports
        phi = dict(phi).get

    pairs = datum._simple_pairs  # (root, coroot) entries, doubled
    rest = datum.levi_coroot_sum(idx)  # doubled too
    coeffs: dict[int, "Fraction"] = {}
    for i, j in zip(idx, [*idx[1:], 0]):
        if i in coeffs:
            continue
        (k, entry), *end = pairs[i - 1][1]
        if j and pairs[j - 1][1][0][0] == k:  # the fork, i = rank - 1 and j = rank
            z = end[0][0]
            solved = {i: Fraction(rest[k] - rest[z], 4), j: Fraction(rest[k] + rest[z], 4)}
        else:
            solved = {i: Fraction(rest[k], entry)}
        for b, a in solved.items():
            for m, u in pairs[b - 1][1]:
                rest[m] -= a * u
        coeffs.update(solved)
    if any(rest):
        raise MathCheckError(
            f"2 rho_check_L is outside the span of the coroots {idx} of {datum.descriptor}"
        )

    # the residual, as sum_beta a_beta beta-check paired with each alpha
    acc = [0] * datum.ambient_dim
    for b in idx:
        for m, u in pairs[b - 1][1]:
            acc[m] += coeffs[b] * u
    for i in idx:
        res = sum(acc[k] * e for k, e in pairs[i - 1][0]) / 4 - 2
        if res != 0:
            raise MathCheckError(f"principal SL2 system residual {res} at {i} of {idx}")

    t: dict[int, "Fraction"] = {}
    fixed: set[int] = set()
    if phi is None:
        fixed.update(idx)
        t.update(coeffs)
    else:
        image = {i: phi(i) for i in idx}
        if set(image.values()) != set(idx):
            raise ValueError(f"phi does not preserve the subset {idx}")
        for i in idx:
            j = image[i]
            if coeffs[i] != coeffs[j]:
                raise MathCheckError(
                    f"phi-symmetry fails: a_{i}={coeffs[i]} but a_{j}={coeffs[j]}"
                )
            if j == i:
                fixed.add(i)
                t[i] = coeffs[i]
            elif j > i:
                t[i] = coeffs[i]
                t[j] = Fraction(1)
    return PrincipalSL2(tuple(idx), coeffs, t, frozenset(fixed))
