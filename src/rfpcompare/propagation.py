"""Path-loss model, edge-constrained emitted power, and composite received
power at average and fixed distances.

Power values are in "model units": everything scales linearly with the
deployment's sensitivity threshold ``p_r_th``, which is what every reported
ratio divides out. Distances are meters, frequencies megahertz; these units
matter because ``d_max`` and ``f`` enter the emitted power with exponents.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .errors import (
    BetaOutOfRangeError,
    BoundNotValidError,
    PlausibilityWarning,
    SingularDistanceError,
)
from .geometry import LayoutKind

#: Plausible range for the distance path-loss exponent (sub-6 GHz, <= 500 m).
GAMMA_PLAUSIBLE_RANGE = (1.5, 6.5)


@dataclass(frozen=True)
class Deployment:
    """Radio parameters of one deployment.

    d_max: maximum coverage distance [m]; p_r_th: minimum sensitivity at the
    cell edge [model units]; gamma: distance path-loss exponent; f: operating
    frequency [MHz]; eta: frequency path-loss exponent; c: baseline path loss.
    """

    d_max: float
    p_r_th: float
    gamma: float
    f: float
    eta: float = 2.0
    c: float = 1.0

    def __post_init__(self) -> None:
        for name in ("d_max", "p_r_th", "gamma", "f", "c"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        lo, hi = GAMMA_PLAUSIBLE_RANGE
        if not lo <= self.gamma <= hi:
            warnings.warn(
                f"gamma={self.gamma} is outside the plausible range [{lo}, {hi}]",
                PlausibilityWarning,
                stacklevel=2,
            )


class NeighborMode(Enum):
    """Whether neighboring sites contribute received power.

    NONE assumes perfect per-cell coverage (no leakage); ADJACENT charges each
    of the layout's adjacent sites at distance zeta * d_max.
    """

    NONE = "none"
    ADJACENT = "adjacent"


def received_power(
    p_e: float, d: float, gamma: float, f: float, eta: float = 2.0, c: float = 1.0
) -> float:
    """Power received at distance ``d`` [m] from an emitter of power ``p_e``.

    Raises SingularDistanceError for d <= 0, where the model diverges.
    """
    if d <= 0:
        raise SingularDistanceError(f"distance must be > 0, got {d}")
    if f <= 0 or c <= 0:
        raise ValueError("f and c must be > 0")
    return p_e / (d**gamma * f**eta * c)


def _power(base: float, exponent: float, name: str) -> float:
    """``base**exponent``; an OverflowError names the quantity and its operands."""
    try:
        return base**exponent
    except OverflowError:
        raise OverflowError(
            f"{name} = {base:.9g}**{exponent:.9g} overflows a float"
        ) from None


def in_deployment(which: int | str, exc: OverflowError) -> OverflowError:
    """``exc`` with ``deployment {which}: `` before its message."""
    return OverflowError(f"deployment {which}: {exc}")


def emitted_power(dep: Deployment) -> float:
    """Emitted power that makes the received power at d_max exactly p_r_th.

    Raises OverflowError, naming the term, when it exceeds a float.
    """
    p_e = (
        dep.p_r_th
        * _power(dep.d_max, dep.gamma, "emitted power: d_max**gamma")
        * _power(dep.f, dep.eta, "emitted power: f**eta")
        * dep.c
    )
    if math.isinf(p_e):
        raise OverflowError("emitted power: p_r_th * d_max**gamma * f**eta * c overflows a float")
    return p_e


def neighbor_count(layout: LayoutKind, mode: NeighborMode) -> int:
    """Effective neighbor count for a layout under the given mode."""
    if mode is NeighborMode.NONE:
        return 0
    return layout.n_neighbors  # NoTessellationError for the circle


def rfp_upper_bound(
    dep: Deployment, serving_distance: float, layout: LayoutKind, n_i: int
) -> float:
    """Upper bound on the composite received power at a pixel.

    Each of the ``n_i`` neighbors is charged at distance zeta * d_max, which
    bounds its true contribution from above whenever the pixel lies within the
    serving cell. Only valid for 0 < serving_distance <= zeta * d_max.
    """
    limit = layout.zeta * dep.d_max
    if not 0 < serving_distance <= limit:
        raise BoundNotValidError(
            f"serving_distance={serving_distance} outside the bound's validity "
            f"region (0, {limit}]"
        )
    if n_i < 0:
        raise ValueError(f"n_i must be >= 0, got {n_i}")
    p_e = emitted_power(dep)
    serving = received_power(p_e, serving_distance, dep.gamma, dep.f, dep.eta, dep.c)
    per_neighbor = received_power(p_e, limit, dep.gamma, dep.f, dep.eta, dep.c)
    return serving + n_i * per_neighbor


def _bracket(x: float, gamma: float, layout: LayoutKind, mode: NeighborMode) -> float:
    """x^-gamma + N * zeta^-gamma: the received power at x * d_max over p_r_th."""
    n_i = neighbor_count(layout, mode)
    value = _power(x, -gamma, "received power: (d/d_max)**-gamma")
    if n_i:
        value += n_i * layout.zeta**-gamma
    return value


def rfp_avg(dep: Deployment, layout: LayoutKind, mode: NeighborMode) -> float:
    """Received power at the layout's average distance alpha * d_max.

    Equals p_r_th * [alpha^-gamma + N * zeta^-gamma]; the emitted power,
    frequency, and baseline loss cancel against the edge constraint.
    """
    return dep.p_r_th * _bracket(layout.alpha, dep.gamma, layout, mode)


def rfp_fixed(dep: Deployment, layout: LayoutKind, beta: float, mode: NeighborMode) -> float:
    """Received power at the fixed distance beta * d_max.

    Equals p_r_th * [beta^-gamma + N * zeta^-gamma]. beta must lie in (0, 1];
    values above the overlap parameter zeta are outside the model's nominal
    region and only draw a warning.
    """
    if not 0 < beta <= 1:
        raise BetaOutOfRangeError(f"beta must be in (0, 1], got {beta}")
    if layout.tessellates and beta > layout.zeta:
        warnings.warn(
            f"beta={beta} exceeds zeta={layout.zeta:.6g}; the fixed-distance model "
            "is nominally valid only up to zeta * d_max",
            PlausibilityWarning,
            stacklevel=2,
        )
    return dep.p_r_th * _bracket(beta, dep.gamma, layout, mode)
