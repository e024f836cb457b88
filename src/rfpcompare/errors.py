"""Exception and warning types shared across the package."""

from __future__ import annotations


class RfpError(Exception):
    """Base class for all package-specific errors."""


class OutOfRangeError(RfpError, ValueError):
    """Raised when an input value lies outside the range its parameter accepts
    (``propagation.RANGES``), or two values break a rule between them, such as
    beta2 > 1 or a grid over its budget. Also a ValueError."""


class NoTessellationError(RfpError):
    """Raised when a tessellation property (zeta, neighbor count, site lattice)
    is requested for the circle layout, which does not tile the plane."""


class ScenarioError(RfpError):
    """Raised when a scenario document is not a valid scenario: malformed JSON
    (NaN and Infinity literals included), a missing, unknown or wrongly typed
    field, or a value outside its range, named by its field path."""


class PlausibilityWarning(UserWarning):
    """Non-fatal warning for parameter values outside their plausible or
    model-validity range (e.g. extreme path-loss exponents, beta beyond the
    overlap distance)."""
