"""Path-loss model, edge-constrained emitted power, and composite received
power at average and fixed distances.

Power values are in "model units": everything scales linearly with the
deployment's sensitivity threshold ``p_r_th``, which is what every reported
ratio divides out. Distances are meters, frequencies megahertz; these units
matter because ``d_max`` and ``f`` enter the emitted power with exponents.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Iterable, Sequence
from enum import Enum

from ._record import record
from .errors import NoTessellationError, OutOfRangeError, PlausibilityWarning
from .geometry import LayoutKind

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


#: The accepted values of every scalar input, by name: their text, their
#: test, and whether only integers pass. A value that is not an integer must
#: be finite.
RANGES = {
    **dict.fromkeys(("d_max", "d_max_m", "p_r_th", "gamma", "f", "f_mhz", "c", "distance",
                     "p_e", "serving_distance", "resolution", "beta_start", "beta_step"),
                    ("> 0", lambda v: v > 0, False)),
    "eta": (">= 0", lambda v: v >= 0, False),
    "beta": ("in (0, 1]", lambda v: 0 < v <= 1, False),
    "beta1": ("in (0, 1)", lambda v: 0 < v < 1, False),
    **dict.fromkeys(("x_min", "x_max", "y_min", "y_max"), ("finite", lambda v: True, False)),
    "rings": ("in [1, 10]", lambda v: 1 <= v <= 10, True),
    "n_i": (">= 0", lambda v: v >= 0, True),
    "n_samples": (">= 1000", lambda v: v >= 1000, True),
    "seed": (">= 0", lambda v: v >= 0, True),
}


#: How far above 1 a computed beta2 may lie and still be 1: four ulps of 1.
#: Rounding beta1, d_max(1) and d_max(2) to floats, then the product and the
#: quotient, each moves the ratio by at most 2**-53, half an ulp: 2.5 in all.
BETA2_TOLERANCE = 4 * math.ulp(1.0)


def beta2(beta1: float, d_max1: float, d_max2: float) -> float:
    """Deployment (2)'s fixed point beta1 * d_max(1)/d_max(2): the distance
    beta1 * d_max(1) as a fraction of d_max(2). A value at most
    ``BETA2_TOLERANCE`` above 1 is 1: the lengths 152.4 m and 30.48 m (500 ft
    and 100 ft) with beta1 = 0.2 give 1 + 2.2e-16."""
    fixed = beta1 * d_max1 / d_max2
    return 1.0 if 1.0 < fixed <= 1.0 + BETA2_TOLERANCE else fixed


def _field_error(path: str, value) -> tuple[str, str, str] | None:
    """(code, path, message) of the ``RANGES`` rule of the path's last
    component, if ``value`` breaks it."""
    name = path.rpartition(".")[2]
    accepted, inside, integer = RANGES[name]
    if integer:
        try:
            value = operator.index(value)  # a numpy integer passes
        except TypeError:
            return "not_an_integer", path, f"{name} must be an integer, got {value}"
    elif not math.isfinite(value):
        return "non_finite", path, f"{name} must be finite, got {value}"
    if not inside(value):
        return "out_of_range", path, f"{name} must be {accepted}, got {value}"


def range_violations(
    *,
    fields: Iterable[tuple[str, float]] = (),
    beta1: float | None = None,
    d_max: tuple[float, float] | None = None,
    eta: tuple[float, float] | None = None,
    layouts: Iterable[LayoutKind] = (),
    modes: Sequence[NeighborMode] = (),
) -> list[Violation]:
    """The findings of every range rule that the given inputs reach: errors in
    rule order, then warnings. This is the one place each rule is written.

    ``fields`` are (path, value) pairs, each checked against the ``RANGES``
    entry of the path's last component; a gamma outside
    ``GAMMA_PLAUSIBLE_RANGE`` draws a warning. ``beta1`` is such a field, and
    when ``d_max`` = (d_max(1), d_max(2)) comes with it, ``beta2(beta1,
    *d_max)`` must lie in (0, 1]. The two values of ``eta`` must be equal.
    The circle layout, which does not tile, must not meet the adjacent-neighbor
    mode.
    """
    found, warned = [], []
    lo, hi = GAMMA_PLAUSIBLE_RANGE
    for path, value in fields:
        if error := _field_error(path, value):
            found.append(error)
        elif path.rpartition(".")[2] == "gamma" and not lo <= value <= hi:
            warned.append(Violation("gamma_plausibility", "warning", path, f"gamma = {value} "
                                    f"is outside the plausible range [{lo}, {hi}]"))
    if beta1 is not None and (error := _field_error("beta1", beta1)):
        found.append(error)
    elif d_max is not None and not 0 < (fixed := beta2(beta1, *d_max)) <= 1:
        # Six digits, unless they would read as the 1 that is allowed.
        shown = f"{fixed:.6g}" if f"{fixed:.6g}" != "1" else repr(fixed)
        found.append(("beta_out_of_range", "beta1", f"beta1 = {beta1:.6g} gives beta2 = "
                      f"beta1 * d_max(1)/d_max(2) = {shown}, outside (0, 1]"))
    if not all(_evaluable(layout, mode) for layout in layouts for mode in modes):
        found.append(("no_tessellation", "layouts",
                      "the circle layout cannot be evaluated in adjacent-neighbor mode"))
    if eta is not None and eta[0] != eta[1]:
        found.append(("unsupported_parameter_change", "deployment2.eta",
                      f"deployments must share eta, got {eta[0]} and {eta[1]}"))
    return [Violation(code, "error", path, message) for code, path, message in found] + warned


def refuse(violations: list[Violation]) -> list[Violation]:
    """Raise the first error of ``violations``, as a ``NoTessellationError`` for
    the circle in adjacent mode and an ``OutOfRangeError`` otherwise; return the
    warnings if there is none."""
    for v in violations:
        if v.severity == "error":
            error = NoTessellationError if v.code == "no_tessellation" else OutOfRangeError
            raise error(v.message)
    return violations


class NeighborMode(Enum):
    """Whether neighboring sites contribute received power.

    NONE assumes perfect per-cell coverage (no leakage); ADJACENT charges each
    of the layout's adjacent sites at distance zeta * d_max.
    """

    NONE = "none"
    ADJACENT = "adjacent"


def _evaluable(layout: LayoutKind, mode: NeighborMode) -> bool:
    """Whether ``layout`` has ratios in ``mode``: the circle, which does not
    tile, has no adjacent neighbors."""
    return layout.tessellates or mode is NeighborMode.NONE


def evaluable(layouts: Iterable[LayoutKind],
              modes: Sequence[NeighborMode]) -> list[tuple[LayoutKind, NeighborMode]]:
    """The (layout, mode) pairs that can be evaluated, layout by layout in the
    order of ``modes``: all but the circle in adjacent mode."""
    return [(layout, mode) for layout in layouts for mode in modes if _evaluable(layout, mode)]


def received_power(
    p_e: float, d: float, gamma: float, f: float, eta: float = 2.0, c: float = 1.0
) -> float:
    """Power received at distance ``d`` [m] from an emitter of power ``p_e``.

    Every argument must lie in its ``RANGES`` entry: the model diverges at d <= 0.
    """
    refuse(range_violations(fields=[("p_e", p_e), ("distance", d), ("gamma", gamma), ("f", f),
                                    ("eta", eta), ("c", c)]))
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


def _in_float_range(value: float, name: str) -> float:
    """``value``, a product or quotient of positive floats; an OverflowError
    names it if it underflowed to 0 or overflowed (NaN is inf times 0)."""
    if value == 0:
        raise OverflowError(f"{name} underflows to 0")
    if not value < math.inf:
        raise OverflowError(f"{name} overflows a float")
    return value


def emitted_power(dep: Deployment) -> float:
    """Emitted power that makes the received power at d_max exactly p_r_th.

    Raises OverflowError, naming the term, when it leaves the float range.
    """
    return _in_float_range(
        dep.p_r_th
        * _power(dep.d_max, dep.gamma, "emitted power: d_max**gamma")
        * _power(dep.f, dep.eta, "emitted power: f**eta")
        * dep.c,
        "emitted power: p_r_th * d_max**gamma * f**eta * c")


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
    refuse(range_violations(fields=[("serving_distance", serving_distance), ("n_i", n_i)]))
    if not serving_distance <= (limit := layout.zeta * dep.d_max):
        raise OutOfRangeError(f"serving_distance={serving_distance} outside the bound's "
                              f"validity region (0, {limit}]")
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
    refuse(range_violations(fields=[("beta", beta)]))
    if layout.tessellates and beta > layout.zeta:
        warnings.warn(
            f"beta={beta} exceeds zeta={layout.zeta:.6g}; the fixed-distance model "
            "is nominally valid only up to zeta * d_max",
            PlausibilityWarning,
            stacklevel=2,
        )
    return dep.p_r_th * _bracket(beta, dep.gamma, layout, neighbor_count(layout, mode))
