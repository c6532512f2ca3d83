"""The public API, pinned as literals.

Adding or removing a name from the package's or a layer module's
`__all__` must show up as a change to this file.
"""

import importlib

import pytest

import cohoparam
from cohoparam import cohomology, halfint, params, rootdata, transfer, weyl

PUBLIC_API = {
    "cohoparam": [
        "CohoparamError", "InvalidWeightError", "MathCheckError",
        "UnsupportedGroupError", "WeylSizeError",
        "HalfIntVector",
        "RootDatum", "StandardParabolic", "build_classical_dual",
        "is_self_associate", "principal_sl2_coefficients",
        "TRANSFER_KINDS", "CentralReport", "CohomParameter",
        "ComplexParameter", "GLParameter", "QuadAtom", "RouteResult",
        "TransferResult", "TwoDimAtom", "central_value_report",
        "enumerate_cohomological", "enumerate_complex_cohomological",
        "enumerate_gl_real", "enumerate_selfdual", "gl_cascade_parameters",
        "gl_coefficient_weight", "parse_gl_parameter", "route_selfdual",
        "standard_rep_parameter", "tempered_companion", "transfer_cohom",
        "transfer_weight",
        "PacketDescriptor", "PacketMember", "UnitaryMember", "packet",
        "packet_size_unitary", "theta_stable_parabolic_count",
        "unitary_packet_members",
        "InnerFormReport", "PacketSumReport", "PoincarePolynomial",
        "PureInnerFormClass", "innerform_sum_compact",
        "innerform_sum_quasisplit", "levi_cohomology", "levi_member_count",
        "packet_cohomology_sum", "partition_independence",
        "self_dual_compositions", "so_even_dichotomy",
        "symmetric_space_poincare",
        "__version__",
    ],
    "cohoparam.errors": [
        "CohoparamError", "InvalidWeightError", "UnsupportedGroupError",
        "WeylSizeError", "MathCheckError",
    ],
    "cohoparam.halfint": ["HalfIntVector"],
    "cohoparam.rootdata": [
        "Factor", "RootDatum", "StandardParabolic", "WeylElement",
        "PrincipalSL2", "build_classical_dual", "parse_group",
        "is_self_associate", "principal_sl2_coefficients",
        "dominant_orbit_rep", "is_regular_orbit",
    ],
    "cohoparam.weyl": [
        "WeylElement", "DoubleCoset", "CompactWeylData", "max_weyl_size",
        "weyl_order", "subgroup_closure", "theta_fixed_subgroup",
        "double_cosets", "compact_weyl_catalog",
    ],
    "cohoparam.params": [
        "TwoDimAtom", "QuadAtom", "GLParameter", "ComplexParameter",
        "CohomParameter", "enumerate_cohomological", "standard_rep_parameter",
    ],
    "cohoparam.transfer": [
        "parse_gl_parameter",
        "enumerate_gl_real", "enumerate_selfdual", "gl_cascade_parameters",
        "enumerate_complex_cohomological", "gl_coefficient_weight",
        "tempered_companion", "route_selfdual", "RouteResult",
        "transfer_weight", "transfer_cohom", "TransferResult",
        "TRANSFER_KINDS", "central_value_report", "CentralReport",
    ],
    "cohoparam.packets": [
        "PacketDescriptor", "PacketMember", "UnitaryMember", "packet",
        "packet_size_unitary", "theta_stable_parabolic_count",
        "unitary_packet_members",
    ],
    "cohoparam.cohomology": [
        "InnerFormReport", "PacketSumReport", "PoincarePolynomial",
        "PureInnerFormClass", "innerform_sum_compact",
        "innerform_sum_quasisplit", "levi_cohomology", "levi_member_count",
        "packet_cohomology_sum", "partition_independence",
        "self_dual_compositions", "so_even_dichotomy",
        "symmetric_space_poincare",
    ],
}


@pytest.mark.parametrize("name", PUBLIC_API)
def test_all_is_pinned(name):
    module = importlib.import_module(name)
    assert module.__all__ == PUBLIC_API[name]
    for attr in module.__all__:
        assert hasattr(module, attr), attr


def test_package_resolves_the_transfer_layer_on_first_use():
    # the package holds no copy of them: each name is the transfer module's
    # own object, and `dir` lists every name of `__all__`
    assert cohoparam._LAZY == set(transfer.__all__)
    for attr in transfer.__all__:
        assert getattr(cohoparam, attr) is getattr(transfer, attr), attr
        assert attr not in vars(cohoparam), attr
    assert set(cohoparam.__all__) <= set(dir(cohoparam))
    # the one name `params` still forwards, for the benchmark's layer tracer
    assert params.transfer_cohom is transfer.transfer_cohom
    with pytest.raises(AttributeError):
        params.route_selfdual
    with pytest.raises(AttributeError):
        cohoparam.no_such_name


def test_test_only_routes_are_not_in_the_library():
    # they live in tests/oracles.py, as the checks of the library's routes
    for attr in (
        "simple_reflection", "all_simple_reflections", "full_weyl_group",
        "longest_element", "levi_weyl_group", "conjugate_element",
    ):
        assert not hasattr(weyl, attr), attr
    assert not hasattr(rootdata.RootDatum, "cartan_matrix")
    # the dense positive-root table checks the datum's closed forms
    for attr in ("positive_roots", "rho", "_positive_root_supports"):
        assert not hasattr(rootdata.RootDatum, attr), attr
    for attr in ("_local_positive_roots", "_embed"):
        assert not hasattr(rootdata, attr), attr
    assert not hasattr(rootdata.StandardParabolic, "levi_positive")
    assert not hasattr(halfint, "solve_rational")
    # no command ran these; the tests check the same facts inline, and
    # tests/oracles.py keeps the complex-parameter parser
    for attr in ("unitary_relevance", "parse_complex_parameter", "_C_ATOM_RE"):
        assert not hasattr(params, attr), attr
    for attr in (
        "opposition_involution", "EpsilonElement", "epsilon_element",
        "expand_in_basis",
    ):
        assert not hasattr(rootdata, attr), attr
    for cls, attrs in (
        (params.GLParameter, ("is_multiplicity_free", "is_regular")),
        (params.ComplexParameter, (
            "is_multiplicity_free", "is_regular", "is_conjugate_symmetric",
        )),
        (params.CohomParameter, ("chi_exponent", "sl2_cochar")),
        (rootdata.WeylElement, ("is_identity",)),
        (cohomology.PoincarePolynomial, ("degree", "text")),
        (halfint.HalfIntVector, ("entries", "is_integral")),
    ):
        for attr in attrs:
            assert not hasattr(cls, attr), (cls.__name__, attr)
