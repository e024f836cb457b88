"""Exception and warning types shared across the package."""

from __future__ import annotations


class RfpError(Exception):
    """Base class for all package-specific errors."""


class OutOfRangeError(RfpError, ValueError):
    """Raised when an input value lies outside the range its parameter accepts,
    such as a non-finite field or a grid over its budget. Also a ValueError."""


class NoTessellationError(RfpError):
    """Raised when a tessellation property (zeta, neighbor count, site lattice)
    is requested for the circle layout, which does not tile the plane."""


class SingularDistanceError(RfpError):
    """Raised when a received-power evaluation is requested at a non-positive
    distance, where the far-field model diverges."""


class BoundNotValidError(RfpError):
    """Raised when the neighbor upper bound is evaluated outside its validity
    region 0 < d <= zeta * d_max."""


class BetaOutOfRangeError(RfpError):
    """Raised when a fixed-distance fraction beta falls outside its admissible
    range (0, 1]."""


class UnsupportedParameterChangeError(RfpError):
    """Raised when a deployment pair varies a parameter the ratio formulas
    keep fixed (currently: the frequency exponent eta)."""


class ScenarioError(RfpError):
    """Base class for scenario-configuration errors."""


class ScenarioSyntaxError(ScenarioError):
    """Raised when a scenario document is not well-formed JSON (including
    NaN/Infinity literals, which are rejected)."""


class ScenarioSchemaError(ScenarioError):
    """Raised when a scenario document has missing, unknown, or wrongly typed
    fields."""


class ScenarioValidationError(ScenarioError):
    """Raised when a scenario document is structurally fine but breaks a value
    invariant. Carries the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class PlausibilityWarning(UserWarning):
    """Non-fatal warning for parameter values outside their plausible or
    model-validity range (e.g. extreme path-loss exponents, beta beyond the
    overlap distance)."""
