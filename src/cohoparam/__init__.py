"""Cohomological Arthur-parameter combinatorics for classical real groups.

The package computes, in exact arithmetic:

* based root data of dual groups and their self-associate standard
  parabolics (`cohoparam.rootdata`),
* signed-permutation Weyl groups, fixed subgroups and double cosets,
  and the compact-Weyl catalog (`cohoparam.weyl`),
* parameters, their atoms and their standard-representation images
  (`cohoparam.params`),
* parsing, routing between classical families and functorial transfer
  (`cohoparam.transfer`),
* the direct enumerations that check the subset route and the transfer,
  the central-value report and the principal SL2 of a Levi
  (`cohoparam.direct`),
* packet parametrization by Weyl double cosets (`cohoparam.packets`),
* closed-form cohomology dimension sums and inner-form sums
  (`cohoparam.cohomology`).

The `cohoparam` console script exposes all of it; see README.md.

`import cohoparam` loads `rootdata`, `weyl`, `params` and `packets`.  It
binds `cohoparam.cohomology` (in `sys.modules` and on the package) without
running it: the module's body runs on its first attribute access, which
only ``cohomology-sum``, ``innerforms`` and ``verify`` make.  It neither
binds nor loads `cohoparam.transfer` and `cohoparam.direct`.  Each name of
the three (`packet_cohomology_sum`, `transfer_cohom`, `enumerate_gl_real`,
...) loads the one module that holds it on first use: the ``transfer``
command needs only `cohoparam.transfer`, and ``verify`` all three.
"""

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
)

__version__ = "0.1.0"

# the names of the three layer modules that are compiled only when one of
# their names is first asked for; every other layer module loads eagerly above
_LAZY = {
    "InnerFormReport": "cohomology",
    "PacketSumReport": "cohomology",
    "PoincarePolynomial": "cohomology",
    "PureInnerFormClass": "cohomology",
    "innerform_sum_compact": "cohomology",
    "innerform_sum_quasisplit": "cohomology",
    "levi_cohomology": "cohomology",
    "levi_member_count": "cohomology",
    "packet_cohomology_sum": "cohomology",
    "partition_independence": "cohomology",
    "self_dual_compositions": "cohomology",
    "so_even_dichotomy": "cohomology",
    "symmetric_space_poincare": "cohomology",
    "parse_gl_parameter": "transfer",
    "gl_coefficient_weight": "transfer",
    "route_selfdual": "transfer",
    "RouteResult": "transfer",
    "transfer_weight": "transfer",
    "transfer_cohom": "transfer",
    "TransferResult": "transfer",
    "TRANSFER_KINDS": "transfer",
    "enumerate_gl_real": "direct",
    "enumerate_selfdual": "direct",
    "gl_cascade_parameters": "direct",
    "enumerate_complex_cohomological": "direct",
    "tempered_companion": "direct",
    "central_value_report": "direct",
    "CentralReport": "direct",
    "PrincipalSL2": "direct",
    "principal_sl2_coefficients": "direct",
}

__all__ = [
    "CohoparamError",
    "InvalidWeightError",
    "MathCheckError",
    "UnsupportedGroupError",
    "WeylSizeError",
    "HalfIntVector",
    "PacketDescriptor",
    "PacketMember",
    "UnitaryMember",
    "packet",
    "unitary_packet_members",
    "CohomParameter",
    "ComplexParameter",
    "GLParameter",
    "QuadAtom",
    "TwoDimAtom",
    "enumerate_cohomological",
    "standard_rep_parameter",
    "RootDatum",
    "StandardParabolic",
    "build_classical_dual",
    "is_self_associate",
    *_LAZY,
    "__version__",
]


def _bound_lazily(name: str):
    """The submodule `name`, bound in `sys.modules` but not yet run: its body
    runs on its first attribute access, and `type()` of it does not count."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# bound on the package too, so `cohoparam.cohomology.X` works after a bare
# `import cohoparam`
cohomology = _bound_lazily("cohomology")


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it in this namespace
    __import__(f"{__name__}.{module}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
