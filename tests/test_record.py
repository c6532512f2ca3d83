"""Record classes: frozen value semantics and reprs.

The reprs below are literal strings, as ``@dataclass(frozen=True)`` printed
them; `cohoparam._record` must keep every one byte for byte.
"""

import pytest

from cohoparam import (
    GLParameter,
    HalfIntVector,
    PacketMember,
    PacketSumReport,
    QuadAtom,
    TwoDimAtom,
    UnitaryMember,
    build_classical_dual,
    enumerate_cohomological,
    transfer_cohom,
)
from cohoparam._record import FrozenRecordError
from cohoparam.cohomology import InnerFormReport, PoincarePolynomial, PureInnerFormClass
from cohoparam.params import CentralReport, RouteResult
from cohoparam.rootdata import (
    Factor,
    PrincipalSL2,
    RootDatum,
    StandardParabolic,
    WeylElement,
)
from cohoparam.weyl import DoubleCoset

GL = GLParameter((TwoDimAtom(3, 1), QuadAtom(0, 2)))

REPRS = [
    (TwoDimAtom(3, 1), "TwoDimAtom(d=3, m=1)"),
    (QuadAtom(0, 2), "QuadAtom(eps=0, a=2)"),
    (
        GL,
        "GLParameter(atoms=(TwoDimAtom(d=3, m=1), QuadAtom(eps=0, a=2)), "
        "twist2=0, omega_pair=False)",
    ),
    (
        RouteResult(None, GL, "x"),
        "RouteResult(target=None, normalized=GLParameter(atoms=(TwoDimAtom(d=3, "
        "m=1), QuadAtom(eps=0, a=2)), twist2=0, omega_pair=False), reason='x')",
    ),
    (
        CentralReport(True, (True, False), None),
        "CentralReport(overall=True, per_atom=(True, False), subset_side=None)",
    ),
    (
        DoubleCoset(WeylElement((1, 0), (1, -1)), 2),
        "DoubleCoset(rep=WeylElement(perm=(1, 0), signs=(1, -1)), size=2)",
    ),
    (
        PacketMember(WeylElement((0,), (1,)), "U(1,0)", 1, 1),
        "PacketMember(rep=WeylElement(perm=(0,), signs=(1,)), label='U(1,0)', "
        "h_dim=1, coset_size=1)",
    ),
    (
        UnitaryMember((1, 0), "U(1,0)xU(0,1)", 1),
        "UnitaryMember(r=(1, 0), label='U(1,0)xU(0,1)', h_dim=1)",
    ),
    (PoincarePolynomial((1, 0, 1)), "PoincarePolynomial(coeffs=(1, 0, 1))"),
    (
        PacketSumReport("U(2,1)", (1,), 3),
        "PacketSumReport(group='U(2,1)', levi_subset=(1,), value=3, routes={}, "
        "notes=())",
    ),
    (
        PureInnerFormClass((0, 1), 2, 1, "U(1,1)"),
        "PureInnerFormClass(rep=(0, 1), orbit_size=2, stabilizer_order=1, "
        "label='U(1,1)')",
    ),
    (
        InnerFormReport("id", "U(2,1)", 1, 1, (), "ok"),
        "InnerFormReport(identity='id', group='U(2,1)', lhs=1, rhs=1, classes=(), "
        "status='ok', betti_total=None, notes=())",
    ),
    (
        Factor("A", 2, 3, 0, "GL"),
        "Factor(cartan='A', rank=2, dim=3, offset=0, flavor='GL')",
    ),
    (
        PrincipalSL2((1,), {1: 1}, {1: 1}, frozenset()),
        "PrincipalSL2(subset=(1,), coeffs={1: 1}, t_assignment={1: 1}, "
        "needs_sqrt=frozenset())",
    ),
    # a repr the class body defines is kept
    (HalfIntVector((1, 2)), "HalfIntVector.parse('1/2,1')"),
]


@pytest.mark.parametrize("obj,text", REPRS, ids=[type(o).__name__ for o, _ in REPRS])
def test_repr_is_byte_identical(obj, text):
    assert repr(obj) == text


def test_repr_of_data_with_cached_properties():
    # values a cached_property stored in the instance never show
    d = build_classical_dual("U(2,1)")
    d.rho_check
    assert repr(d) == (
        "RootDatum(descriptor='U(2,1)', family='U', factors=(Factor(cartan='A', "
        "rank=2, dim=3, offset=0, flavor='GL'),), galois_linear=WeylElement("
        "perm=(2, 1, 0), signs=(-1, -1, -1)), signature=(2, 1))"
    )
    sp = StandardParabolic(build_classical_dual("GL(2,R)"), frozenset({1}))
    assert repr(sp) == (
        "StandardParabolic(datum=RootDatum(descriptor='GL(2,R)', family='GL_R', "
        "factors=(Factor(cartan='A', rank=1, dim=2, offset=0, flavor='GL'),), "
        "galois_linear=WeylElement(perm=(0, 1), signs=(1, 1)), signature=None), "
        "S=frozenset({1}))"
    )
    c = enumerate_cohomological("Sp(4,R)")[1]
    assert repr(transfer_cohom(c, "sp-to-gl")) == (
        "TransferResult(kind='sp-to-gl', source_group='Sp(4,R)', "
        "target_group='GL(5,R)', parameter=GLParameter(atoms=(TwoDimAtom(d=3, "
        "m=2), QuadAtom(eps=0, a=1)), twist2=0, omega_pair=False), "
        "inf_char=HalfIntVector.parse('2,1,0,-1,-2'), image_regular=True, "
        "image_cohomological=True, notes='standard-representation image')"
    )


def test_frozen():
    a = TwoDimAtom(3, 1)
    for name in ("d", "other"):
        with pytest.raises(AttributeError) as exc:
            setattr(a, name, 5)
        assert isinstance(exc.value, FrozenRecordError)
        with pytest.raises(FrozenRecordError):
            delattr(a, name)
    assert (a.d, a.m) == (3, 1)
    assert not hasattr(a, "other")


def test_instances_keep_their_dict():
    # a fresh datum: build_classical_dual hands out cached ones
    d0 = build_classical_dual("Sp(4,R)")
    d = RootDatum(d0.descriptor, d0.family, d0.factors, d0.galois_linear, d0.signature)
    assert "rho_check" not in vars(d)
    assert d.rho_check is d.rho_check
    assert "rho_check" in vars(d)


def test_eq_and_hash_within_one_class():
    assert TwoDimAtom(3, 1) == TwoDimAtom(3, 1)
    assert TwoDimAtom(3, 1) != TwoDimAtom(3, 2)
    assert hash(TwoDimAtom(3, 1)) == hash((3, 1))
    # a one-field record hashes as the one-element tuple
    assert hash(HalfIntVector((1, 2))) == hash(((1, 2),))
    assert hash(PoincarePolynomial((1, 0, 1))) == hash(((1, 0, 1),))
    assert len({TwoDimAtom(3, 1), TwoDimAtom(3, 1), TwoDimAtom(1, 3)}) == 2


def test_no_equality_or_order_across_classes():
    # equal field tuples, different classes
    two, quad = TwoDimAtom(1, 1), QuadAtom(1, 1)
    assert two != quad and not two == quad
    assert two.__eq__(quad) is NotImplemented
    assert two != (1, 1)
    with pytest.raises(TypeError):
        two < quad
    with pytest.raises(TypeError):
        PacketMember(WeylElement((0,), (1,)), "x", 1, 1) < PacketMember(
            WeylElement((0,), (1,)), "y", 1, 1
        )


def test_atom_order_is_field_order():
    atoms = [TwoDimAtom(3, 2), TwoDimAtom(1, 5), TwoDimAtom(3, 1)]
    assert sorted(atoms) == [TwoDimAtom(1, 5), TwoDimAtom(3, 1), TwoDimAtom(3, 2)]
    assert QuadAtom(0, 3) < QuadAtom(1, 1) <= QuadAtom(1, 1)
    assert QuadAtom(1, 2) > QuadAtom(1, 1) >= QuadAtom(1, 1)


def test_defaults_and_fresh_factory_default():
    assert GLParameter((QuadAtom(0, 1),)).twist2 == 0
    r1 = PacketSumReport("U(1,1)", (), 2)
    r2 = PacketSumReport("U(1,1)", (), 2)
    assert r1.routes == {} and r1.routes is not r2.routes
    r1.routes["x"] = 1
    assert r2.routes == {}
    assert "routes" not in vars(PacketSumReport)
    routes = {"catalog": 2}
    assert PacketSumReport("U(1,1)", (), 2, routes).routes is routes


def test_post_init_and_keywords():
    with pytest.raises(ValueError, match="bad atom"):
        TwoDimAtom(0, 1)
    assert TwoDimAtom(m=1, d=3) == TwoDimAtom(3, 1)
    with pytest.raises(TypeError):
        TwoDimAtom(3)

