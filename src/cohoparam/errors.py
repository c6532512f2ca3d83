"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage problems exit 2,
unsupported groups/embeddings exit 3, failed mathematical consistency
checks exit 4, and verification-suite failures exit 5.
"""

from __future__ import annotations

__all__ = [
    "CohoparamError",
    "InvalidWeightError",
    "UnsupportedGroupError",
    "WeylSizeError",
    "MathCheckError",
]


class CohoparamError(Exception):
    """Base class for all library errors."""


class InvalidWeightError(CohoparamError, ValueError):
    """Malformed input: a weight failing a stated symmetry/dominance/lattice
    requirement, unreadable parameter text, or a bad flag or setting."""


class UnsupportedGroupError(CohoparamError, ValueError):
    """Descriptor outside the supported families, or outside a catalog."""


class WeylSizeError(CohoparamError, ValueError):
    """A Weyl-group enumeration would exceed the configured cap."""


class MathCheckError(CohoparamError, AssertionError):
    """An identity the theory guarantees failed to verify numerically."""
