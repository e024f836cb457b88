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
from collections.abc import Iterable
from enum import Enum

from ._record import record
from .errors import (
    BetaOutOfRangeError,
    BoundNotValidError,
    NoTessellationError,
    OutOfRangeError,
    PlausibilityWarning,
    SingularDistanceError,
    UnsupportedParameterChangeError,
)
from .geometry import LayoutKind, _count

#: Plausible range for the distance path-loss exponent (sub-6 GHz, <= 500 m).
GAMMA_PLAUSIBLE_RANGE = (1.5, 6.5)


@record
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
        fields = [(n, getattr(self, n)) for n in ("d_max", "p_r_th", "gamma", "f", "c", "eta")]
        for v in refuse(range_violations(fields=fields)):
            # stacklevel: the line that called Deployment(...), past record's __init__.
            warnings.warn(v.message, PlausibilityWarning, stacklevel=3)


@record
class Violation:
    """One validation finding; severity is "error" or "warning"."""

    code: str
    severity: str
    path: str
    message: str


def range_violations(
    *,
    fields: Iterable[tuple[str, float]] = (),
    beta1: float | None = None,
    d_max: tuple[float, float] | None = None,
    eta: tuple[float, float] | None = None,
    layouts: Iterable[LayoutKind] = (),
    modes: Iterable[NeighborMode] = (),
) -> list[Violation]:
    """The findings of every range rule that the given inputs reach: errors in
    rule order, then warnings. This is the one place each rule is written.

    ``fields`` are (path, value) pairs of deployment fields, named by the
    path's last component. Each must be finite and > 0 (eta >= 0); a gamma
    outside ``GAMMA_PLAUSIBLE_RANGE`` draws a warning. beta1 must lie in
    (0, 1). When ``d_max`` = (d_max(1), d_max(2)) comes with it, deployment
    (2)'s matching fixed point beta2 = beta1 * d_max(1)/d_max(2) must lie in
    (0, 1]. The two values of ``eta`` must be equal. The circle layout, which
    does not tile, must not meet the adjacent-neighbor mode.
    """
    found, warned = [], []
    lo, hi = GAMMA_PLAUSIBLE_RANGE
    for path, value in fields:
        name = path.rpartition(".")[2]
        bound, inside = (">=", value >= 0) if name == "eta" else (">", value > 0)
        if not math.isfinite(value):
            found.append(("non_finite", path, f"{name} must be finite, got {value}"))
        elif not inside:
            found.append(("out_of_range", path, f"{name} must be {bound} 0, got {value}"))
        elif name == "gamma" and not lo <= value <= hi:
            warned.append(Violation("gamma_plausibility", "warning", path, f"gamma = {value} "
                                    f"is outside the plausible range [{lo}, {hi}]"))
    if beta1 is not None and not 0 < beta1 < 1:
        found.append(("beta_out_of_range", "beta1", f"beta1 must be in (0, 1), got {beta1}"))
    elif d_max is not None and not 0 < (beta2 := beta1 * d_max[0] / d_max[1]) <= 1:
        found.append(("beta_out_of_range", "beta1", f"beta1 = {beta1:.6g} gives beta2 = "
                      f"beta1 * d_max(1)/d_max(2) = {beta2:.6g}, outside (0, 1]"))
    if LayoutKind.CIRCLE in layouts and NeighborMode.ADJACENT in modes:
        found.append(("no_tessellation", "layouts",
                      "the circle layout cannot be evaluated in adjacent-neighbor mode"))
    if eta is not None and eta[0] != eta[1]:
        found.append(("unsupported_parameter_change", "deployment2.eta",
                      f"deployments must share eta, got {eta[0]} and {eta[1]}"))
    return [Violation(code, "error", path, message) for code, path, message in found] + warned


#: The exception that refuses each error code outside a scenario document.
_REFUSALS = {"non_finite": OutOfRangeError, "out_of_range": OutOfRangeError,
             "beta_out_of_range": BetaOutOfRangeError, "no_tessellation": NoTessellationError,
             "unsupported_parameter_change": UnsupportedParameterChangeError}


def refuse(violations: list[Violation]) -> list[Violation]:
    """Raise the first error of ``violations`` as its code's exception; return
    the warnings if there is none."""
    for v in violations:
        if v.severity == "error":
            raise _REFUSALS[v.code](v.message)
    return violations


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
    refuse(range_violations(fields=[("f", f), ("c", c)]))
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


def neighbor_charge(gamma: float, layout: LayoutKind, n_i: int) -> float:
    """n_i * zeta^-gamma: the power of ``n_i`` neighbors, each charged at
    zeta * d_max, over p_r_th. No neighbor costs 0, whatever gamma."""
    return n_i * layout.zeta**-gamma if n_i else 0.0


def rfp_upper_bound(
    dep: Deployment, serving_distance: float, layout: LayoutKind, n_i: int
) -> float:
    """The paper's upper bound on the composite received power at a pixel:
    p_r_th * [(d/d_max)^-gamma + n_i * zeta^-gamma].

    Each of the ``n_i`` neighbors is charged at distance zeta * d_max, which
    covers the first ring only: on a wide 2-D lattice with a small gamma the
    farther rings break the bound. Hexagonal, gamma = 1.8, d_max 100 m, 2 m
    pixels: 56 pixels fail at 6 rings, 3972 at 7. At gamma = 2.1 a ring-wise
    sum 0.05 * d_max from the site first breaks it at ring 43. Only valid for
    0 < serving_distance <= zeta * d_max."""
    limit = layout.zeta * dep.d_max
    if not 0 < serving_distance <= limit:
        raise BoundNotValidError(
            f"serving_distance={serving_distance} outside the bound's validity "
            f"region (0, {limit}]"
        )
    if _count("n_i", n_i) < 0:
        raise OutOfRangeError(f"n_i must be >= 0, got {n_i}")
    return dep.p_r_th * _bracket(serving_distance / dep.d_max, dep.gamma, layout, n_i)


def _bracket(x: float, gamma: float, layout: LayoutKind, n_i: int) -> float:
    """x^-gamma + n_i * zeta^-gamma: the received power at x * d_max over p_r_th."""
    return (_power(x, -gamma, "received power: (d/d_max)**-gamma")
            + neighbor_charge(gamma, layout, n_i))


def rfp_avg(dep: Deployment, layout: LayoutKind, mode: NeighborMode) -> float:
    """Received power at the layout's average distance alpha * d_max.

    Equals p_r_th * [alpha^-gamma + N * zeta^-gamma]; the emitted power,
    frequency, and baseline loss cancel against the edge constraint.
    """
    return dep.p_r_th * _bracket(layout.alpha, dep.gamma, layout, neighbor_count(layout, mode))


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
    return dep.p_r_th * _bracket(beta, dep.gamma, layout, neighbor_count(layout, mode))
