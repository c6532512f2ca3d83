"""The public API, pinned as literals.

Adding or removing a name from the package's or a layer module's
`__all__` must show up as a change to this file.
"""

import importlib

import pytest

from cohoparam import halfint, rootdata, weyl

PUBLIC_API = {
    "cohoparam": [
        "CohoparamError", "InvalidWeightError", "MathCheckError",
        "UnsupportedGroupError", "WeylSizeError",
        "HalfIntVector",
        "RootDatum", "StandardParabolic", "build_classical_dual",
        "epsilon_element", "is_self_associate", "opposition_involution",
        "principal_sl2_coefficients",
        "TRANSFER_KINDS", "CentralReport", "CohomParameter",
        "ComplexParameter", "GLParameter", "QuadAtom", "RouteResult",
        "TransferResult", "TwoDimAtom", "central_value_report",
        "enumerate_cohomological", "enumerate_complex_cohomological",
        "enumerate_gl_real", "enumerate_selfdual", "gl_cascade_parameters",
        "gl_coefficient_weight", "parse_complex_parameter",
        "parse_gl_parameter", "route_selfdual", "standard_rep_parameter",
        "tempered_companion", "transfer_cohom", "transfer_weight",
        "unitary_relevance",
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
        "PrincipalSL2", "EpsilonElement", "build_classical_dual",
        "parse_group", "opposition_involution", "is_self_associate",
        "principal_sl2_coefficients", "epsilon_element", "expand_in_basis",
        "dominant_orbit_rep", "is_regular_orbit",
    ],
    "cohoparam.weyl": [
        "WeylElement", "DoubleCoset", "CompactWeylData", "max_weyl_size",
        "weyl_order", "subgroup_closure", "theta_fixed_subgroup",
        "double_cosets", "compact_weyl_catalog",
    ],
    "cohoparam.params": [
        "TwoDimAtom", "QuadAtom", "GLParameter", "ComplexParameter",
        "CohomParameter", "parse_gl_parameter", "parse_complex_parameter",
        "enumerate_cohomological", "standard_rep_parameter",
        "enumerate_gl_real", "enumerate_selfdual", "gl_cascade_parameters",
        "enumerate_complex_cohomological", "gl_coefficient_weight",
        "tempered_companion", "route_selfdual", "RouteResult",
        "transfer_weight", "transfer_cohom", "TransferResult",
        "TRANSFER_KINDS", "central_value_report", "CentralReport",
        "unitary_relevance",
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


def test_test_only_routes_are_not_in_the_library():
    # they live in tests/oracles.py, as the checks of the library's routes
    for attr in (
        "simple_reflection", "all_simple_reflections", "full_weyl_group",
        "longest_element", "levi_weyl_group", "conjugate_element",
    ):
        assert not hasattr(weyl, attr), attr
    assert not hasattr(rootdata.RootDatum, "cartan_matrix")
    assert not hasattr(rootdata.StandardParabolic, "levi_positive")
    assert not hasattr(rootdata.EpsilonElement, "is_trivial")
    assert not hasattr(halfint, "solve_rational")
