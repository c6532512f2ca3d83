"""Poincare-polynomial arithmetic and the cohomology-sum identities.

Three families of identities live here:

* **Packet sums.**  The total cohomology summed over a packet equals
  ``2**d * |W^theta| / |K|`` independently of the Levi subset.  The
  double-coset route comes from :mod:`cohoparam.packets`; this module adds
  the family-specific formula routes (exterior-algebra products for the
  general linear groups, binomial products for unitary groups) and insists
  the routes agree.

* **Partition independence.**  For the real general linear group the
  packet-sum total can be recomputed as a product of symmetric-space
  factors, one per Levi block; all self-dual block shapes give the same
  number.  With the connected compact flavor and no middle block the
  packet has two members, which accounts for the extra factor of two.

* **Inner-form sums.**  Summed over pure inner forms, the index of the
  compact-side Weyl group is a power of two: ``2**rank`` in the compact
  case (orbit-stabilizer on the 2-torsion of the torus) and ``2**e`` in
  the quasi-split case, where ``e`` counts circle factors of the
  fundamental torus.  The orthogonal sums need the Weyl groups of the
  *full* (disconnected) maximal compacts: an odd orthogonal factor donates
  a central reflection, so ``S(O(2a) x O(odd))`` contributes the full
  hyperoctahedral order ``2^a a! * 2^b b!``, while ``S(O(2a) x O(2b))``
  only realizes sign patterns with an even total, order
  ``2^(a+b-1) a! b!``.  With those orders every supported family sums
  exactly; the connected-flavor rows (the ones the packet layer needs)
  are reported as discrepancies rather than silently patched.
"""

from __future__ import annotations

import re
import sys
from math import comb

from ._record import field, record
from .errors import InvalidWeightError, MathCheckError, UnsupportedGroupError
from .halfint import HalfIntVector
from .packets import packet, unitary_packet_members
from .params import CohomParameter, GLParameter, QuadAtom, standard_rep_parameter
from .params import _self_dual_compositions  # the one composition walker
from .rootdata import build_classical_dual
from .weyl import _closed_form_total, _order_text, _row_orders, _torus_shape
from .weyl import compact_weyl_catalog
from .weyl import _simple_weyl_order  # the one table of closed-form Weyl orders

__all__ = [
    "InnerFormReport",
    "PacketSumReport",
    "PoincarePolynomial",
    "PureInnerFormClass",
    "innerform_sum_compact",
    "innerform_sum_quasisplit",
    "levi_cohomology",
    "levi_member_count",
    "packet_cohomology_sum",
    "partition_independence",
    "self_dual_compositions",
    "so_even_dichotomy",
    "symmetric_space_poincare",
]


# ---------------------------------------------------------------------------
# polynomials


@record
class PoincarePolynomial:
    """Non-negative integer coefficients by degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise InvalidWeightError("empty coefficient list")
        if any(c < 0 for c in self.coeffs):
            raise InvalidWeightError(f"negative coefficient in {self.coeffs}")
        trimmed = list(self.coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @classmethod
    def one(cls) -> "PoincarePolynomial":
        return cls((1,))

    @classmethod
    def exterior(cls, degrees) -> "PoincarePolynomial":
        """Product of (1 + t**g) over the generator degrees."""
        poly = cls.one()
        for g in degrees:
            if g < 1:
                raise InvalidWeightError(f"generator degree {g} < 1")
            factor = [0] * (g + 1)
            factor[0] = factor[g] = 1
            poly = poly * cls(tuple(factor))
        return poly

    @property
    def total(self) -> int:
        return sum(self.coeffs)

    @property
    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

    def __mul__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PoincarePolynomial(tuple(out))


def _emit(poly: PoincarePolynomial) -> PoincarePolynomial:
    if not poly.is_palindromic:
        raise MathCheckError(f"emitted polynomial is not palindromic: {poly.coeffs}")
    return poly


# ---------------------------------------------------------------------------
# symmetric-space tables


def symmetric_space_poincare(tag: str, n: int) -> PoincarePolynomial:
    """Poincare polynomial of one compact symmetric-space factor.

    ``n`` is the matrix size of the unitary group upstairs.  Generator
    degrees: the unitary group itself has 1, 3, ..., 2n-1; the quotients
    by the orthogonal or symplectic subgroups keep every fourth degree
    1, 5, ..., and the even special orthogonal quotient adds a
    two-dimensional Euler factor in degree n.
    """
    if n < 1:
        raise InvalidWeightError(f"matrix size {n} < 1")
    if tag == "U_n":
        return _emit(PoincarePolynomial.exterior(range(1, 2 * n, 2)))
    if tag == "U/SO_odd":
        if n % 2 == 0:
            raise InvalidWeightError(f"tag {tag} needs odd n, got {n}")
        k = (n - 1) // 2
        return _emit(PoincarePolynomial.exterior(range(1, 4 * k + 2, 4)))
    if tag in ("U/SO_even", "U/O_even", "U/Sp"):
        if n % 2 == 1:
            raise InvalidWeightError(f"tag {tag} needs even n, got {n}")
        k = n // 2
        poly = PoincarePolynomial.exterior(range(1, 4 * k - 2, 4))
        if tag == "U/SO_even":
            euler = [0] * (n + 1)
            euler[0] = euler[n] = 1
            poly = poly * PoincarePolynomial(tuple(euler))
        return _emit(poly)
    raise UnsupportedGroupError(f"unknown symmetric-space tag {tag!r}")


# ---------------------------------------------------------------------------
# Levi factors for the real general linear group


def _check_self_dual(partition: tuple[int, ...]) -> None:
    if not partition or any(b < 1 for b in partition):
        raise InvalidWeightError(f"bad block shape {partition}")
    if tuple(reversed(partition)) != tuple(partition):
        raise InvalidWeightError(f"block shape {partition} is not self-dual")


def levi_cohomology(partition, flavor: str) -> PoincarePolynomial:
    """Cohomology of one packet member for a self-dual Levi block shape.

    One unitary-group factor per block pair, and one orthogonal-quotient
    factor for the middle block when present.  For an odd middle block the
    two flavors agree: the extra reflection of the full orthogonal group
    is central there and acts trivially, so the degree-1 generator
    survives taking invariants (the count that keeps the closed form
    ``2**ceil(N/2)`` true; see :func:`partition_independence` for the
    variant reading).
    """
    partition = tuple(partition)
    _check_self_dual(partition)
    if flavor not in ("O", "SO"):
        raise InvalidWeightError(f"flavor must be 'O' or 'SO', got {flavor!r}")
    k = len(partition)
    poly = PoincarePolynomial.one()
    for size in partition[: k // 2]:
        poly = poly * symmetric_space_poincare("U_n", size)
    if k % 2 == 1:
        middle = partition[k // 2]
        if middle % 2 == 1:
            poly = poly * symmetric_space_poincare("U/SO_odd", middle)
        elif flavor == "SO":
            poly = poly * symmetric_space_poincare("U/SO_even", middle)
        else:
            poly = poly * symmetric_space_poincare("U/O_even", middle)
    return _emit(poly)


def levi_member_count(partition, flavor: str) -> int:
    """Packet members per block shape: two with the connected flavor and
    no middle block, one otherwise."""
    partition = tuple(partition)
    _check_self_dual(partition)
    return 2 if flavor == "SO" and len(partition) % 2 == 0 else 1


def self_dual_compositions(N: int) -> tuple[tuple[int, ...], ...]:
    """Ordered block shapes of N equal to their own reversal."""
    if N < 1:
        raise InvalidWeightError(f"N = {N} < 1")
    return tuple(sorted(_self_dual_compositions(N), key=lambda c: (len(c), c)))


def _gl_exponent_form(N: int, flavor: str) -> int:
    """The exponent formula for GL(N,R): 2**ceil(N/2) for odd N, 2**(N/2)
    for the disconnected flavor 'O', 2**(N/2+1) for the connected 'SO'."""
    if N % 2 == 1:
        return 2 ** ((N + 1) // 2)
    return 2 ** (N // 2) if flavor == "O" else 2 ** (N // 2 + 1)


def partition_independence(N: int, flavor: str) -> dict:
    """Sweep all self-dual block shapes of N and compare three routes.

    Routes: (i) symmetric-space products times the member count, per
    shape; (ii) the catalog closed form ``2**d * |W^theta|/|K|``, read off
    its table (|W^theta| checked against the cap, no group built); (iii)
    the exponent formula (``2**ceil(N/2)`` for odd N, ``2**(N/2)`` for
    the disconnected flavor, ``2**(N/2+1)`` for the connected flavor).
    For odd N the one-generator-fewer variant reading is reported
    alongside, flagged, without affecting the status.
    """
    if flavor not in ("O", "SO"):
        raise InvalidWeightError(f"flavor must be 'O' or 'SO', got {flavor!r}")
    if N < 1:
        raise InvalidWeightError(f"N = {N} < 1")
    desc = f"SL({N},R)" if flavor == "SO" else f"GL({N},R)"
    # the Weyl cap bounds the sweep: an N over it is refused before any
    # of its 2**(N//2) compositions is built
    rhs = _closed_form_total(desc)
    witnesses = []
    totals = set()
    for comp in self_dual_compositions(N):
        t = levi_cohomology(comp, flavor).total * levi_member_count(comp, flavor)
        witnesses.append({"partition": list(comp), "total": t})
        totals.add(t)
    if len(totals) != 1:
        raise MathCheckError(
            f"partition totals for N={N}, flavor {flavor} are not constant: "
            f"{sorted(totals)}"
        )
    (lhs,) = totals
    expected = _gl_exponent_form(N, flavor)
    report = {
        "identity": "partition-independence",
        "group": desc,
        "flavor": flavor,
        "N": N,
        "lhs": lhs,
        "rhs": rhs,
        "expected": expected,
        "witnesses": witnesses,
        "status": "ok" if lhs == rhs == expected else "discrepancy",
    }
    if N % 2 == 1:
        report["textual_variant"] = {
            "total": 2 ** (N // 2),
            "flag": "one-generator-fewer reading; the emitted tables and "
            "the catalog closed form both give the larger value",
        }
    return report


# ---------------------------------------------------------------------------
# packet sums


@record
class PacketSumReport:
    """Packet cohomology total with every route that could compute it."""

    group: str
    levi_subset: tuple[int, ...]
    value: int
    routes: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "identity": "packet-sum",
            "group": self.group,
            "levi_subset": list(self.levi_subset),
            "lhs": self.value,
            "rhs": self.routes.get("catalog"),
            "witnesses": [
                {"route": k, "total": v} for k, v in sorted(self.routes.items())
            ],
            "notes": list(self.notes),
            "status": "ok",
        }


def packet_cohomology_sum(descriptor: str, param: CohomParameter) -> PacketSumReport:
    """Total cohomology over the packet, cross-checked per family.

    Always computed: the member route (double cosets) and the catalog
    closed form.  For general linear groups the symmetric-space product
    and the exponent formula are added; for unitary groups the binomial
    product.  Any disagreement raises, carrying all routes.
    """
    pkt = packet(descriptor, param)
    cat = compact_weyl_catalog(descriptor)
    routes = {"members": pkt.h_total}
    routes["catalog"] = (2**cat.d_exponent) * cat.n_cosets
    notes = []
    fam = cat.datum.family
    n = cat.ambient_dim
    blocks = tuple(last + 1 - first for _, first, last in cat.datum._gl_blocks(param.S))
    if fam in ("GL_R", "SL_R"):
        flavor = "SO" if (fam == "SL_R" and n % 2 == 0) else "O"
        routes["levi_product"] = levi_cohomology(blocks, flavor).total * (
            levi_member_count(blocks, flavor)
        )
        routes["exponent_form"] = _gl_exponent_form(n, flavor)
    elif fam == "GL_C":
        # S is theta-stable and no block crosses the factor boundary, so
        # the blocks are an even palindrome: one U_n factor per mirror pair
        routes["levi_product"] = levi_cohomology(blocks, "O").total
    elif fam == "U":
        A, B = cat.datum.signature
        members = unitary_packet_members(A, B, blocks)
        routes["binomial_product"] = sum(m.h_dim for m in members)
    else:
        notes.append(
            "no per-member real-form table for this family; the double-coset "
            "route carries the sum"
        )
    distinct = set(routes.values())
    if len(distinct) != 1:
        raise MathCheckError(
            f"packet-sum routes disagree for {descriptor}, subset "
            f"{sorted(param.S)}: {routes}"
        )
    return PacketSumReport(
        group=cat.descriptor,
        levi_subset=tuple(sorted(param.S)),
        value=pkt.h_total,
        routes=routes,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# inner-form sums, compact case


@record
class PureInnerFormClass:
    """One Weyl orbit on the 2-torsion of the compact torus."""

    rep: tuple[int, ...]
    orbit_size: int
    stabilizer_order: int
    label: str | None

    def to_json(self) -> dict:
        return {
            "rep": list(self.rep),
            "orbit_size": self.orbit_size,
            "stabilizer_order": self.stabilizer_order,
            "label": self.label,
        }


@record
class InnerFormReport:
    identity: str
    group: str
    lhs: int
    rhs: int
    classes: tuple
    status: str
    betti_total: int | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "group": self.group,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "witnesses": [c.to_json() if hasattr(c, "to_json") else c for c in self.classes],
            "status": self.status,
        }
        if self.betti_total is not None:
            out["betti_total"] = self.betti_total
        if self.notes:
            out["notes"] = list(self.notes)
        return out


_COMPACT_RE = re.compile(r"^(U|Sp|SO)\((\d+)\)$")


def innerform_sum_compact(descriptor: str) -> InnerFormReport:
    """Orbit-stabilizer decomposition of the 2-torsion of a compact torus.

    Sign flips act trivially on 2-torsion, so every Weyl group acts
    through its permutation part; orbits are counted by the number of -1
    coordinates.  The orbit sizes always sum to ``2**rank`` — the content
    is the per-orbit decomposition, with unitary orbits labeled by
    signature.
    """
    m = _COMPACT_RE.match(descriptor.replace(" ", ""))
    if not m:
        raise UnsupportedGroupError(
            f"expected a compact descriptor like U(3), Sp(2), SO(7); got "
            f"{descriptor!r}"
        )
    kind, size = m.group(1), int(m.group(2))
    if size < 1:
        raise UnsupportedGroupError(f"size {size} < 1 in {descriptor!r}")
    if kind == "U":
        rank, cartan, r = size, "A", size - 1
    elif kind == "Sp":
        rank, cartan, r = size, "C", size
    else:
        rank = r = size // 2
        cartan = "B" if size % 2 else "D"
    # |W| is the largest number the report prints; refuse it past the
    # int-to-str limit (0: none, as before Python 3.10.7), and a rank at the
    # limit without computing it: |W| >= rank! > 10**rank from rank 25 on,
    # and a limit is >= 640
    limit = getattr(sys, "get_int_max_str_digits", int)()
    weyl_order = None if limit and rank >= limit else _simple_weyl_order(cartan, r)
    if limit and (weyl_order is None or weyl_order >= 10**limit):
        raise UnsupportedGroupError(
            f"the Weyl group of {descriptor} has an order of more than {limit} "
            f"digits, past the int-to-str limit"
        )
    classes = []
    total = 0
    for k in range(rank + 1):
        orbit = comb(rank, k)
        stab = weyl_order // orbit
        if orbit * stab != weyl_order:
            raise MathCheckError(
                f"orbit {orbit} times stabilizer {stab} misses |W| = {weyl_order}"
            )
        rep = (-1,) * k + (1,) * (rank - k)
        label = f"U({rank - k},{k})" if kind == "U" else None
        classes.append(
            PureInnerFormClass(
                rep=rep, orbit_size=orbit, stabilizer_order=stab, label=label
            )
        )
        total += orbit
    if total != 2**rank:
        raise MathCheckError(
            f"orbit sizes sum to {total}, expected 2^{rank} for {descriptor}"
        )
    return InnerFormReport(
        identity="compact-innerforms",
        group=descriptor,
        lhs=total,
        rhs=2**rank,
        classes=tuple(classes),
        status="ok",
    )


# ---------------------------------------------------------------------------
# inner-form sums, quasi-split case


def innerform_sum_quasisplit(descriptor: str) -> InnerFormReport:
    """Sum of compact-side indices over a family of pure inner forms.

    The family is determined by the input group: all signatures of the
    same type and discriminant class (unitary and orthogonal groups), or
    the single form (general linear and symplectic groups, whose first
    Galois cohomology is trivial — every symplectic or linear form over
    the reals is unique).  Each index is |W^theta| divided by the order
    of the Weyl group of the *full* maximal compact; the sum is 2**e with
    e the circle rank of the fundamental torus.  Both orders are read off
    the catalog's `_CATALOG_TABLE` (`_row_orders`, no group built); for
    the orthogonal forms, whose row holds the identity component of
    S(O(p) x O(q)), as the order of the full group.

    The connected-flavor rows (descriptor ``SL(n,R)``, n even) cannot
    satisfy the identity — their compact side is missing the reflection
    component — and come back with status ``discrepancy`` instead of an
    adjusted number.
    """
    datum = build_classical_dual(descriptor)
    fam = datum.family
    n = datum.ambient_dim
    a_rank, b_rank, e = _torus_shape(datum)
    rhs = 2**e
    betti = 2 ** (a_rank + b_rank + e)
    notes: list[str] = []
    status = "ok"

    # the family's pure inner forms, each with the order of its compact side
    w_theta_order, k_order = _row_orders(datum)
    forms = [(datum.descriptor, k_order)]
    if fam == "U":
        forms = [(f"U({n - k},{k})", _row_orders(datum, (n - k, k))[1]) for k in range(n + 1)]
    elif fam in ("SO_odd", "SO_even"):
        p, q = datum.signature
        forms = [
            (f"SO({p + q - q2},{q2})", _row_orders(datum, (p + q - q2, q2), full=True)[1])
            for q2 in range(q % 2, p + q + 1, 2)
        ]
    elif fam == "SL_R" and n % 2 == 0:
        status = "discrepancy"
        notes.append(
            "connected-flavor row: the compact side is the special "
            "orthogonal group, whose missing reflection halves the "
            "denominator; the identity holds for the full orthogonal "
            "compact (see the GL row), and for the literal special "
            "linear group a circle factor moves the right side to 2"
        )
    elif fam == "Sp_R":
        notes.append("the symplectic family has a single pure inner form")
    classes: list[dict] = []
    for label, order in forms:
        if w_theta_order % order:
            raise MathCheckError(
                f"|W^theta| = {_order_text(w_theta_order)} not divisible by the "
                f"compact-side order {_order_text(order)} for {label}"
            )
        classes.append({"label": label, "index": w_theta_order // order})
    lhs = sum(c["index"] for c in classes)

    if status == "ok" and lhs != rhs:
        raise MathCheckError(
            f"inner-form sum for {descriptor}: got {lhs}, expected 2^{e} = {rhs}"
        )
    return InnerFormReport(
        identity="quasisplit-innerforms",
        group=datum.descriptor,
        lhs=lhs,
        rhs=rhs,
        classes=tuple(classes),
        status=status,
        betti_total=betti,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# the even orthogonal dichotomy


def so_even_dichotomy(p: int, q: int) -> dict:
    """Which sign pattern of the near-trivial parameter holds the trivial
    representation of SO(p,q).

    The parameter built from the full Levi subset has one long quad and
    one line; the line carries the discriminant class (q - half) mod 2.
    When that class vanishes the family contains the trivial
    representation, otherwise its order-two twist does.  Cross-checked
    against the subset route on every call.
    """
    if (p + q) % 2 == 1 or p + q < 2:
        raise UnsupportedGroupError(
            f"the dichotomy concerns even orthogonal groups; got SO({p},{q})"
        )
    datum = build_classical_dual(f"SO({p},{q})")
    n = datum.ambient_dim
    delta = (q - n) % 2
    expected = GLParameter((QuadAtom(0, 2 * n - 1), QuadAtom(delta, 1)))
    full = CohomParameter(
        datum, frozenset(range(1, n + 1)), HalfIntVector((0,) * n)
    )
    img = standard_rep_parameter(full)
    if img.text() != expected.text():
        raise MathCheckError(
            f"full-subset image {img.text()} differs from the dichotomy "
            f"parameter {expected.text()} for SO({p},{q})"
        )
    return {
        "identity": "even-orthogonal-dichotomy",
        "group": datum.descriptor,
        "discriminant_class": delta,
        "contains_trivial": delta == 0,
        "parameter": expected.text(),
        "twisted_partner": expected.omega_twist().text(),
        "status": "ok",
    }
