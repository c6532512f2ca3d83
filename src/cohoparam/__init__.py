"""Cohomological Arthur-parameter combinatorics for classical real groups.

The package computes, in exact arithmetic:

* based root data of dual groups and their self-associate standard
  parabolics (`cohoparam.rootdata`),
* signed-permutation Weyl groups, fixed subgroups and double cosets,
  and the compact-Weyl catalog (`cohoparam.weyl`),
* parameters, their atoms and their standard-representation images
  (`cohoparam.params`),
* parsing, direct enumerations, routing between classical families,
  and functorial transfer (`cohoparam.transfer`),
* packet parametrization by Weyl double cosets (`cohoparam.packets`),
* closed-form cohomology dimension sums and inner-form sums
  (`cohoparam.cohomology`).

The `cohoparam` console script exposes all of it; see README.md.

`import cohoparam` loads every layer module except `cohoparam.transfer`,
whose names (`transfer_cohom`, `parse_gl_parameter`, ...) load it on
first use; only the ``transfer`` and ``verify`` commands need it.
"""

from .cohomology import (
    InnerFormReport,
    PacketSumReport,
    PoincarePolynomial,
    PureInnerFormClass,
    innerform_sum_compact,
    innerform_sum_quasisplit,
    levi_cohomology,
    levi_member_count,
    packet_cohomology_sum,
    partition_independence,
    self_dual_compositions,
    so_even_dichotomy,
    symmetric_space_poincare,
)
from .errors import (
    CohoparamError,
    InvalidWeightError,
    MathCheckError,
    UnsupportedGroupError,
    WeylSizeError,
)
from .halfint import HalfIntVector
from .packets import (
    PacketDescriptor,
    PacketMember,
    UnitaryMember,
    packet,
    packet_size_unitary,
    theta_stable_parabolic_count,
    unitary_packet_members,
)
from .params import (
    CohomParameter,
    ComplexParameter,
    GLParameter,
    QuadAtom,
    TwoDimAtom,
    enumerate_cohomological,
    standard_rep_parameter,
)
from .rootdata import (
    RootDatum,
    StandardParabolic,
    build_classical_dual,
    is_self_associate,
    principal_sl2_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "CohoparamError",
    "InvalidWeightError",
    "MathCheckError",
    "UnsupportedGroupError",
    "WeylSizeError",
    "HalfIntVector",
    "RootDatum",
    "StandardParabolic",
    "build_classical_dual",
    "is_self_associate",
    "principal_sl2_coefficients",
    "TRANSFER_KINDS",
    "CentralReport",
    "CohomParameter",
    "ComplexParameter",
    "GLParameter",
    "QuadAtom",
    "RouteResult",
    "TransferResult",
    "TwoDimAtom",
    "central_value_report",
    "enumerate_cohomological",
    "enumerate_complex_cohomological",
    "enumerate_gl_real",
    "enumerate_selfdual",
    "gl_cascade_parameters",
    "gl_coefficient_weight",
    "parse_gl_parameter",
    "route_selfdual",
    "standard_rep_parameter",
    "tempered_companion",
    "transfer_cohom",
    "transfer_weight",
    "PacketDescriptor",
    "PacketMember",
    "UnitaryMember",
    "packet",
    "packet_size_unitary",
    "theta_stable_parabolic_count",
    "unitary_packet_members",
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
    "__version__",
]

# the names of `cohoparam.transfer`, which is compiled only when one of
# them is first asked for; every other layer module loads eagerly above
_LAZY = frozenset(__all__) - frozenset(globals())


def __getattr__(name: str):
    if name in _LAZY:
        from . import transfer

        return getattr(transfer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY)
