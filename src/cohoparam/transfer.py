"""Parsing, direct enumerations, routing and functorial transfer.

Independent direct enumerations (`enumerate_gl_real`,
`enumerate_selfdual`, `enumerate_complex_cohomological`) recover the
images of `cohoparam.params.standard_rep_parameter` from the
infinitesimal character alone, which is what the test suite and
`transfer_cohom` lean on.  Only the ``transfer`` and ``verify`` commands
import this module; the package resolves its names on first use.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable
from fractions import Fraction

from ._record import record
from .errors import InvalidWeightError, MathCheckError, UnsupportedGroupError
from .halfint import HalfIntVector, _parse_half
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
    standard_rep_parameter,
)
from .rootdata import (
    RootDatum,
    build_classical_dual,
    dominant_orbit_rep,
    is_regular_orbit,
)

__all__ = [
    "parse_gl_parameter",
    "enumerate_gl_real",
    "enumerate_selfdual",
    "gl_cascade_parameters",
    "enumerate_complex_cohomological",
    "gl_coefficient_weight",
    "tempered_companion",
    "route_selfdual",
    "RouteResult",
    "transfer_weight",
    "transfer_cohom",
    "TransferResult",
    "TRANSFER_KINDS",
    "central_value_report",
    "CentralReport",
]


# ---------------------------------------------------------------------------
# parsing


_GL_ATOM_RE = re.compile(r"^(s|w)(\d+)(?:\[(\d+)\])?$")


def parse_gl_parameter(text: str) -> GLParameter:
    """Parse `s3[2]+w0[1]` style text, with optional `*nu^b` suffix."""
    body = text.strip()
    twist2 = 0
    if "*nu^" in body:
        body, _, tw = body.partition("*nu^")
        twist2 = _parse_half(tw, "twist")
    atoms: list[Atom] = []
    if body not in ("", "0"):
        for piece in body.split("+"):
            m = _GL_ATOM_RE.match(piece.strip())
            if not m:
                raise InvalidWeightError(f"bad atom {piece!r}")
            kind, first, bracket = m.groups()
            size = int(bracket) if bracket else 1
            try:
                if kind == "s":
                    atoms.append(TwoDimAtom(int(first), size))
                else:
                    atoms.append(QuadAtom(int(first), size))
            except ValueError as exc:
                raise InvalidWeightError(str(exc)) from exc
    return GLParameter(tuple(atoms), twist2)


# ---------------------------------------------------------------------------
# direct enumerations from the infinitesimal character


def _atom_sets(rem: Counter) -> list[tuple]:
    """All splittings of a symmetric exponent multiset into raw atoms.

    Raw atoms are ('s', d, m) and ('w', a); recursion is on the largest
    remaining exponent, which every covering atom must reach.
    """
    if not rem:
        return [()]
    x = max(rem)
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

    # two-dimensional options: top exponent x = (d + m - 1)/2.  When d < m
    # the two chains overlap; the multiset subtraction below is the only
    # gate needed (overlaps require doubled entries, e.g. the zero pair of
    # an even orthogonal exponent set).
    m = 0
    while True:
        m += 1
        d2 = 2 * x - m + 1
        if d2.denominator != 1:
            break  # exponents of mixed parity class: no two-dim atom at x
        d = int(d2)
        if d < 1:
            break
        chain = [x - k for k in range(m)]
        nxt = _minus(Counter(chain + [-c for c in chain]))
        if nxt is not None:
            for tail in _atom_sets(nxt):
                out.append((("s", d, m),) + tail)
    # one quad option: a = 2x + 1 covering the chain x .. -x
    a2 = 2 * x + 1
    if a2.denominator == 1 and x >= 0:
        a = int(a2)
        nxt = _minus(Counter(x - k for k in range(a)))
        if nxt is not None:
            for tail in _atom_sets(nxt):
                out.append((("w", a),) + tail)
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

    Works straight from the exponent multiset lam + rho-check of GL(n),
    independently of the subset-side construction.
    """
    if lam is None:
        lam = HalfIntVector((0,) * n)
    if len(lam) != n:
        raise InvalidWeightError(f"weight has {len(lam)} coordinates, expected {n}")
    entries = list(lam)
    if any(e.denominator != 1 for e in entries):
        raise InvalidWeightError(f"{lam} is not an integral weight")
    if any(entries[i] < entries[i + 1] for i in range(n - 1)):
        raise InvalidWeightError(f"{lam} is not dominant")
    big = [entries[i] + Fraction(n - 1 - 2 * i, 2) for i in range(n)]
    csums = {big[i] + big[n - 1 - i] for i in range(n)}
    if len(csums) != 1:
        raise InvalidWeightError(
            f"{lam} is not self-dual up to twist: exponent sums {sorted(csums)}"
        )
    c = csums.pop() / 2
    twist2 = 2 * c
    if twist2.denominator != 1:
        raise InvalidWeightError(f"twist {c} is not half-integral")
    sym = Counter(b - c for b in big)
    return _finish_enumeration(_atom_sets(sym), int(twist2), None, None)


def enumerate_selfdual(
    entries: list[Fraction] | HalfIntVector,
    valued_in: str,
    delta: int | None = None,
) -> tuple[GLParameter, ...]:
    """All orthogonal- or symplectic-valued parameters with given exponents.

    `entries` is the full symmetric exponent multiset of the standard
    representation (dimension many entries).  For 'orthogonal' a
    determinant class `delta` may be imposed.
    """
    if valued_in not in ("orthogonal", "symplectic"):
        raise ValueError(f"valued_in = {valued_in!r}")
    bag = Counter(Fraction(e) for e in entries)
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


def gl_coefficient_weight(param: GLParameter | ComplexParameter, n: int) -> HalfIntVector:
    """The dominant weight whose exponents the parameter carries."""
    exps = param.exponents()
    if len(exps) != n:
        raise InvalidWeightError(
            f"parameter has dimension {len(exps)}, expected {n}"
        )
    rho = [Fraction(n - 1 - 2 * i, 2) for i in range(n)]
    lam = [e - r for e, r in zip(exps, rho)]
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise InvalidWeightError("exponents are not dominant after the rho shift")
    return HalfIntVector.from_fractions(lam)


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
    if sorted(out.exponents()) != sorted(param.exponents()):
        raise MathCheckError("companion changed the exponents")
    return out


# ---------------------------------------------------------------------------
# self-dual classification and routing


@record
class RouteResult:
    target: str | None
    normalized: GLParameter
    reason: str


def route_selfdual(param: GLParameter) -> RouteResult:
    """Which classical family a self-dual parameter belongs to.

    Odd-dimensional orthogonal parameters are normalized to determinant
    one (flipping the sign on the smallest odd zero string) and sent to
    the symplectic group; even symplectic ones to the odd orthogonal
    family; even orthogonal ones to the even orthogonal family whose
    discriminant class is the parameter's determinant.
    """
    n = param.dimension
    kind = param.selfdual_type
    if kind == "twisted":
        return RouteResult(None, param, "nonzero twist: not self-dual")
    if kind == "mixed":
        return RouteResult(None, param, "mixed atoms: not orthogonal or symplectic")
    if kind == "symplectic":
        if n % 2 == 1:
            raise MathCheckError("odd-dimensional symplectic parameter")
        half = n // 2
        a = half + 1 if half % 2 == 1 else half
        b = (n + 1) - a
        return RouteResult(f"SO({a},{b})", param, "even symplectic")
    # orthogonal
    if n % 2 == 1:
        normalized = param
        if param.det_exponent != 0:
            odd_quads = [
                q
                for q in param.atoms
                if isinstance(q, QuadAtom) and q.a % 2 == 1
            ]
            if not odd_quads:
                return RouteResult(
                    None, param, "odd orthogonal with unfixable determinant"
                )
            target_q = min(odd_quads, key=lambda q: (q.a, q.eps))
            new_atoms = list(param.atoms)
            new_atoms[new_atoms.index(target_q)] = QuadAtom(
                1 - target_q.eps, target_q.a
            )
            normalized = GLParameter(
                tuple(new_atoms), param.twist2, param.omega_pair
            )
            if normalized.det_exponent != 0:
                raise MathCheckError("determinant normalization failed")
        return RouteResult(
            f"Sp({n - 1},R)", normalized, "odd orthogonal, determinant normalized"
        )
    half = n // 2
    delta = param.det_exponent
    p, q = (half, half) if delta == 0 else (half + 1, half - 1)
    return RouteResult(
        f"SO({p},{q})",
        param,
        f"even orthogonal, discriminant class {delta}",
    )


# ---------------------------------------------------------------------------
# transfers


# kind -> (the source families, the noun its error names them by, the
# target datum's descriptor as a function of the source's n, the map on
# doubled weights).  The even orthogonal target is SO(n+1, n+1) or
# SO(n+2, n): rho-check and dominance do not depend on the signature, and
# these forms always have an unambiguous diagram action.
_TRANSFERS = {
    "so-odd-to-gl": (("SO_odd",), "an odd orthogonal", lambda n: f"GL({2 * n},R)",
                     lambda t: t + tuple(-x for x in reversed(t))),
    "sp-to-gl": (("Sp_R",), "a symplectic", lambda n: f"GL({2 * n + 1},R)",
                 lambda t: t + (0,) + tuple(-x for x in reversed(t))),
    "sp-to-so-even": (("Sp_R",), "a symplectic", lambda n: f"SO({n + 2 - n % 2},{n + n % 2})",
                      lambda t: t + (0,)),
    "gl-to-complex": (("GL_R", "SL_R"), "a general linear", lambda n: f"GL({n},C)",
                      lambda t: t + t),
}

TRANSFER_KINDS = tuple(_TRANSFERS)


def _transfer(
    kind: str, source: RootDatum
) -> tuple[RootDatum, Callable[[HalfIntVector], HalfIntVector]]:
    """The target datum of `kind` from `source`, and the kind's weight map.

    Checks once that the kind is known, that the source is of a family the
    kind starts from, and that rho-check of the source maps onto rho-check
    of the target.
    """
    if kind not in _TRANSFERS:
        raise UnsupportedGroupError(f"unknown transfer kind {kind!r}")
    families, noun, target, doubled = _TRANSFERS[kind]
    if source.family not in families:
        raise UnsupportedGroupError(f"{kind} needs {noun} source")
    check = build_classical_dual(target(source.ambient_dim))

    def weight_map(v: HalfIntVector) -> HalfIntVector:
        return HalfIntVector(doubled(v.twice))

    if dominant_orbit_rep(check, weight_map(source.rho_check)) != check.rho_check:
        raise MathCheckError(
            f"{kind}: rho-check of the source does not map onto rho-check "
            f"of the target"
        )
    return check, weight_map


def transfer_weight(kind: str, source: RootDatum, v: HalfIntVector) -> HalfIntVector:
    """Transport a weight; hard-checks that rho-check maps to rho-check."""
    return _transfer(kind, source)[1](v)


def _cohomological_preimage(datum: RootDatum, param: GLParameter) -> CohomParameter:
    """The parameter of an Sp_R, SO_odd or GL_R datum whose image is `param`,
    at the weight its exponents give: `params._split_cell` run backwards.

    lam is the first n = `ambient_dim` entries of `gl_coefficient_weight(param,
    N)`, N = 2n + 1, 2n or n; the doubled entries e of lam + rho-check are
    distinct.  An s{d}[m] is the block of m coordinates from the k where
    e = d + m - 1, its simple roots k+1..k+m-1 in S; a w[a] is the tail of
    a // 2 coordinates (Sp_R, SO_odd) or the middle a coordinates (GL_R,
    where S is closed under i -> n - i).  No quad sign is read, and `param`
    need not be an image: the caller's image comparison makes this safe.
    """
    fam, n = datum.family, datum.ambient_dim
    N = n if fam == "GL_R" else 2 * n + (fam == "Sp_R")
    lam = HalfIntVector(gl_coefficient_weight(param, N).twice[:n])
    start = {x + r: k for k, (x, r) in enumerate(zip(lam.twice, datum.rho_check.twice))}
    S = set()
    for atom in param.atoms:
        if isinstance(atom, TwoDimAtom):
            k, m = start.get(atom.d + atom.m - 1), atom.m
            if k is None:
                raise InvalidWeightError(f"no coordinate of lam + rho-check starts {atom.text()}")
        elif fam == "GL_R":
            k, m = (n - atom.a) // 2, atom.a
        else:  # a tail of a // 2 coordinates holds the last simple root too
            k, m = n - atom.a // 2, atom.a // 2 + 1
        S.update(range(k + 1, k + m))
    if fam == "GL_R":
        S.update([n - i for i in S])
    return CohomParameter(datum, frozenset(S), lam)


@record
class TransferResult:
    kind: str
    source_group: str
    target_group: str
    parameter: GLParameter | ComplexParameter
    inf_char: HalfIntVector
    image_regular: bool
    image_cohomological: bool | None
    notes: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "source": self.source_group,
            "target": self.target_group,
            "parameter": self.parameter.text(),
            "inf_char": str(self.inf_char),
            "image_regular": self.image_regular,
            "image_cohomological": self.image_cohomological,
            "notes": self.notes,
        }


def transfer_cohom(cohom: CohomParameter, kind: str) -> TransferResult:
    """Functorial image of a subset-side parameter along one embedding."""
    source = cohom.datum
    check, weight_map = _transfer(kind, source)
    base = standard_rep_parameter(cohom)
    image_inf = weight_map(cohom.lam + source.rho_check)
    notes = []
    coh: bool | None = None
    target_name = check.descriptor

    if kind in ("so-odd-to-gl", "sp-to-gl"):
        assert isinstance(base, GLParameter)
        image: GLParameter | ComplexParameter = base
        target_n = check.ambient_dim
        try:
            mu = gl_coefficient_weight(base, target_n)
            orbit_keys = {p.orbit_key() for p in enumerate_gl_real(target_n, mu)}
            coh = base.orbit_key() in orbit_keys
        except InvalidWeightError as exc:
            notes.append(f"image coefficients not checkable: {exc}")
        notes.append("standard-representation image")
    elif kind == "sp-to-so-even":
        assert isinstance(base, GLParameter)
        # the extra line is fixed pointwise, so it carries the trivial
        # character -- even when that repeats an atom already present
        extra = QuadAtom(0, 1)
        image = GLParameter(base.atoms + (extra,), 0, base.omega_pair)
        route = route_selfdual(image)
        if route.target is not None:
            target_name = route.target
        delta = image.det_exponent
        family = enumerate_selfdual(image.exponents(), "orthogonal", delta)
        if image.text() in {p.text() for p in family}:
            coh = True
        elif image.orbit_key() in {p.orbit_key() for p in family}:
            coh = True
            notes.append("matches the enumerated family up to the order-two twist")
        else:
            coh = False
        notes.append(f"appended {extra.text()}; discriminant class {delta}")
    else:  # gl-to-complex
        assert isinstance(base, GLParameter)
        entries = []
        for a in base.atoms:
            if isinstance(a, TwoDimAtom):
                entries.append((a.d, a.m))
                entries.append((-a.d, a.m))
            else:
                entries.append((0, a.a))
        image = ComplexParameter(tuple(entries))
        half = source.ambient_dim
        coh = image.text() in {
            p.text() for p in enumerate_complex_cohomological(half, cohom.lam)
        }
        notes.append("restriction of scalars")

    image_inf_dom = dominant_orbit_rep(check, image_inf)
    return TransferResult(
        kind=kind,
        source_group=source.descriptor,
        target_group=target_name,
        parameter=image,
        inf_char=image_inf_dom,
        image_regular=is_regular_orbit(check, image_inf_dom),
        image_cohomological=coh,
        notes="; ".join(notes),
    )


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
