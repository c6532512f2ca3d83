"""Parsing, routing and functorial transfer: what ``cohoparam transfer`` runs.

`transfer_cohom` carries a cohomological parameter along one L-embedding
that preserves regular unipotents and decides, in closed form, whether
its image is cohomological on the target; `_cohomological_preimage`
reads the source parameter off the image's text in O(n).  All of it works
on doubled ints, so no `Fraction` is made.  The direct enumerations that
check these closed forms (on doubled ints too), the central-value report
and the principal SL2 live in `cohoparam.direct`.  Only the ``transfer`` and ``verify`` commands
import this module; the package resolves its names on first use.
"""

from __future__ import annotations

import re
from collections.abc import Callable

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
    "gl_coefficient_weight",
    "route_selfdual",
    "RouteResult",
    "transfer_weight",
    "transfer_cohom",
    "TransferResult",
    "TRANSFER_KINDS",
]


# ---------------------------------------------------------------------------
# parsing, and the weight a parameter's exponents carry


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


def gl_coefficient_weight(param: GLParameter | ComplexParameter, n: int) -> HalfIntVector:
    """The dominant weight whose exponents the parameter carries: the
    falling doubled exponents less GL(n)'s doubled rho, n - 1 - 2i."""
    exps = param.doubled_exponents()
    if len(exps) != n:
        raise InvalidWeightError(
            f"parameter has dimension {len(exps)}, expected {n}"
        )
    lam = [e - n + 1 + 2 * i for i, e in enumerate(exps)]
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise InvalidWeightError("exponents are not dominant after the rho shift")
    return HalfIntVector(tuple(lam))


# ---------------------------------------------------------------------------
# self-dual classification and routing


@record
class RouteResult:
    target: str | None
    reason: str


def route_selfdual(param: GLParameter) -> RouteResult:
    """Which classical family a self-dual parameter belongs to.

    Odd-dimensional orthogonal parameters go to the symplectic group
    whatever their determinant: the order-two twist, which `orbit_key`
    does not see, makes it one.  Even symplectic ones go to the odd
    orthogonal family; even orthogonal ones to the even orthogonal family
    whose discriminant class is the parameter's determinant.
    """
    n = param.dimension
    kind = param.selfdual_type
    if kind == "twisted":
        return RouteResult(None, "nonzero twist: not self-dual")
    if kind == "mixed":
        return RouteResult(None, "mixed atoms: not orthogonal or symplectic")
    if kind == "symplectic":
        if n % 2 == 1:
            raise MathCheckError("odd-dimensional symplectic parameter")
        half = n // 2
        a = half + 1 if half % 2 == 1 else half
        b = (n + 1) - a
        return RouteResult(f"SO({a},{b})", "even symplectic")
    # orthogonal
    if n % 2 == 1:
        return RouteResult(f"Sp({n - 1},R)", "odd orthogonal")
    half = n // 2
    delta = param.det_exponent
    p, q = (half, half) if delta == 0 else (half + 1, half - 1)
    return RouteResult(f"SO({p},{q})", f"even orthogonal, discriminant class {delta}")


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
    image_cohomological: bool
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
    """Functorial image of a subset-side parameter along one embedding.

    `image_cohomological` is membership in the target's list, which is not
    built (the lists are `cohoparam.direct`'s enumerations).  GL(N,R): the
    exponents, +-(lam + rho-check) and 0 for Sp_R, are distinct, as lam is
    integral dominant and rho-check (of the dual B_n, N = 2n + 1; of C_n,
    N = 2n) lies in Z or 1/2 + Z with GL(N)'s rho.  So
    the weight mu they give is integral, dominant and self-dual, and
    `enumerate_gl_real(N, mu)` lists every splitting of them with sign 0:
    the image is on it up to the twist iff its zero strings carry one sign.
    SO_even: `enumerate_selfdual` lists one member per splitting with
    orthogonal two-dimensional atoms whose zero strings reach the
    determinant class (`_assign_quad_eps`).  GL(n,C): one member per
    composition with lam constant on each block, whose strings by falling
    top exponent run through lam + rho (`enumerate_complex_cohomological`).
    """
    source = cohom.datum
    check, weight_map = _transfer(kind, source)
    base = standard_rep_parameter(cohom)
    assert isinstance(base, GLParameter)
    image_inf = weight_map(cohom.lam + source.rho_check)
    notes = []
    target_name = check.descriptor

    if kind in ("so-odd-to-gl", "sp-to-gl"):
        image: GLParameter | ComplexParameter = base
        coh = len({a.eps for a in base.atoms if isinstance(a, QuadAtom)}) < 2
        notes.append("standard-representation image")
    elif kind == "sp-to-so-even":
        # the extra line is fixed pointwise, so it carries the trivial
        # character -- even when that repeats an atom already present
        extra = QuadAtom(0, 1)
        image = GLParameter(base.atoms + (extra,), 0, base.omega_pair)
        route = route_selfdual(image)
        if route.target is not None:
            target_name = route.target
        delta = image.det_exponent
        twodims = [a for a in image.atoms if isinstance(a, TwoDimAtom)]
        lens = [a.a for a in image.atoms if isinstance(a, QuadAtom)]
        try:  # the list's member with the image's atoms, if any
            quads = _assign_quad_eps(lens, sum(t.det_exponent for t in twodims) % 2, delta)[0]
            member = GLParameter(tuple(twodims + quads)).text()
        except MathCheckError:  # an even zero string, or delta unreachable
            member = None
        coh = not any(t.is_symplectic for t in twodims) and member in (
            image.text(), image.omega_twist().text())
        if coh and member != image.text():
            notes.append("matches the enumerated family up to the order-two twist")
        notes.append(f"appended {extra.text()}; discriminant class {delta}")
    else:  # gl-to-complex
        entries = base._strings()
        image = ComplexParameter(tuple(entries))
        runs = [x2 + m - 1 - 2 * j for x2, m in sorted(entries, key=sum, reverse=True)
                for j in range(m)]
        coh = runs == list(image_inf.twice[: source.ambient_dim])
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
