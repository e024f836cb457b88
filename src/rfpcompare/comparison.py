"""Deployment-pair ratios: emitted power and received power at average and
fixed distances, beta sweeps of the fixed-distance ratio, plus the
per-scenario closed-form specializations and a cross-consistency verifier.

All ratios are deployment (1) over deployment (2) and computed in linear
scale; a ratio above 1 means deployment (2) yields the lower value.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from ._record import record
from .errors import OutOfRangeError
from .geometry import LayoutKind, TESSELLATING_KINDS
from .propagation import (Deployment, NeighborMode, _bracket, _in_float_range, _power,
                          evaluable, in_deployment, neighbor_count, range_violations, refuse)
from .scenarios import Scenario, builtin_scenario, builtin_scenario_ids

#: Relative tolerance for closed-form vs general-formula agreement.
CLOSED_FORM_RTOL = 1e-12


@record
class DeploymentPair:
    """Two deployments compared on a shared layout.

    ``beta1`` is the fixed evaluation distance of deployment (1) as a fraction
    of its d_max; the same physical distance corresponds to
    beta2 = beta1 * d_max(1) / d_max(2) in deployment (2) and must not exceed
    its cell radius. The neighbor mode applies to both deployments with equal
    neighbor count.
    """

    dep1: Deployment
    dep2: Deployment
    layout: LayoutKind
    beta1: float = 0.05
    mode: NeighborMode = NeighborMode.NONE

    def __post_init__(self) -> None:
        refuse(range_violations(beta1=self.beta1, d_max=(self.dep1.d_max, self.dep2.d_max),
                                layouts=(self.layout,), modes=(self.mode,)))

    @property
    def beta2(self) -> float:
        return self.beta1 * self.dep1.d_max / self.dep2.d_max

    @property
    def delta_d_max(self) -> float:
        return self.dep1.d_max / self.dep2.d_max

    @property
    def delta_p_r_th(self) -> float:
        return self.dep1.p_r_th / self.dep2.p_r_th


class Metric(Enum):
    """The three reported ratios."""

    PE = "pe"
    PR_AVG = "pr_avg"
    PR_FX = "pr_fx"


def delta_emitted(pair: DeploymentPair) -> float:
    """Ratio of emitted powers P_E(1) / P_E(2).

    Requires a common frequency exponent eta; the product form below is
    algebraically identical to emitted_power(dep1) / emitted_power(dep2).
    Where a factor or a partial product leaves the float range, the ratio is
    the exponential of the sum of the logarithms of both deployments' own
    parameters, and refused only if that leaves the range too.
    """
    d1, d2 = pair.dep1, pair.dep2
    refuse(range_violations(eta=(d1.eta, d2.eta)))
    try:
        return _in_float_range(
            _power(pair.delta_d_max, d1.gamma, "delta_emitted: (d_max(1)/d_max(2))**gamma1")
            * _power(d2.d_max, d1.gamma - d2.gamma, "delta_emitted: d_max(2)**(gamma1 - gamma2)")
            * pair.delta_p_r_th
            * _power(d1.f / d2.f, d1.eta, "delta_emitted: (f(1)/f(2))**eta")
            * (d1.c / d2.c),
            "delta_pe = P_E(1)/P_E(2)")
    except OverflowError:
        log_ratio = math.fsum(sign * term for sign, d in ((1, d1), (-1, d2)) for term in (
            math.log(d.p_r_th), d.gamma * math.log(d.d_max), d.eta * math.log(d.f), math.log(d.c)))
        if log_ratio <= math.log(sys.float_info.max) and (ratio := math.exp(log_ratio)) > 0:
            return ratio
        raise


def _received_ratio(pair: DeploymentPair, x1: float, x2: float, name: str) -> float:
    """Received power at x1 * d_max(1) in deployment (1) over that at
    x2 * d_max(2) in deployment (2). An overflow of a power names its
    deployment, and a ratio outside the float range its ``name``."""
    brackets, n_i = [], neighbor_count(pair.layout, pair.mode)
    for which, x, dep in ((1, x1, pair.dep1), (2, x2, pair.dep2)):
        try:
            brackets.append(_bracket(x, dep.gamma, pair.layout, n_i))
        except OverflowError as exc:
            raise in_deployment(which, exc) from None
    return _in_float_range(pair.delta_p_r_th * brackets[0] / brackets[1], name)


def delta_avg(pair: DeploymentPair) -> float:
    """Received-power ratio at each deployment's own average distance: the
    quotient rfp_avg(1) / rfp_avg(2)."""
    return _received_ratio(pair, pair.layout.alpha, pair.layout.alpha,
                           "delta_pr_avg = rfp_avg(1)/rfp_avg(2)")


def delta_fixed(pair: DeploymentPair) -> float:
    """Received-power ratio at the same physical distance beta1 * d_max(1):
    the quotient rfp_fixed(1) at beta1 / rfp_fixed(2) at beta2."""
    return _received_ratio(pair, pair.beta1, pair.beta2,
                           "delta_pr_fx = rfp_fixed(1)/rfp_fixed(2)")


@record
class ComparisonResult:
    """The three ratios for one (scenario, layout, mode) evaluation."""

    scenario_id: str
    layout_kind: LayoutKind
    mode: NeighborMode
    delta_pe: float
    delta_pr_avg: float
    delta_pr_fx: float

    def get(self, metric: Metric) -> float:
        return getattr(self, f"delta_{metric.value}")


def evaluate_pair(pair: DeploymentPair, scenario_id: str = "") -> ComparisonResult:
    """Evaluate all three ratios of a pair from the general formulas."""
    return ComparisonResult(scenario_id, pair.layout, pair.mode,
                            delta_emitted(pair), delta_avg(pair), delta_fixed(pair))


def closed_form_delta(
    scenario_id: str,
    metric: Metric,
    layout: LayoutKind,
    mode: NeighborMode,
    beta1: float = 0.05,
) -> float:
    """Evaluate the per-scenario closed form of a ratio.

    These are independent transcriptions of the specialized expressions (one
    per built-in scenario, metric, and neighbor regime), kept deliberately
    separate from the general formulas so that verify_closed_forms is a real
    cross-check and not a tautology.
    """
    s = builtin_scenario(scenario_id)
    sid = s.id
    d1, d2 = s.dep1, s.dep2
    dd = d1.d_max / d2.d_max
    dpth = d1.p_r_th / d2.p_r_th
    df = d1.f / d2.f
    g1, g2 = d1.gamma, d2.gamma
    eta = d1.eta
    n_i = neighbor_count(layout, mode)

    if metric is Metric.PE:
        # Same expressions in both neighbor regimes.
        if sid == "S1":
            return dd**g1
        if sid == "S2":
            return dd**g1 * d2.d_max ** (g1 - g2)
        if sid == "S3":
            return dd**g1 * df**eta
        if sid == "S4":
            return dpth * df**eta
        return dpth * dd**g1 * d2.d_max ** (g1 - g2) * df**eta  # S5

    if metric is Metric.PR_AVG:
        if sid in ("S1", "S3"):
            return 1.0
        if sid == "S4":
            return dpth
        a = layout.alpha
        if n_i == 0:
            ratio = a ** (g2 - g1)
        else:
            z = layout.zeta
            ratio = (a**-g1 + n_i * z**-g1) / (a**-g2 + n_i * z**-g2)
        return ratio if sid == "S2" else dpth * ratio  # S5 carries delta(P_R_TH)

    # Metric.PR_FX
    refuse(range_violations(beta1=beta1))
    if sid == "S4":
        return dpth
    if n_i == 0:
        if sid in ("S1", "S3"):
            return dd**g1
        value = beta1 ** (g2 - g1) * dd**g2
        return value if sid == "S2" else dpth * value  # S5
    z = layout.zeta
    num = beta1**-g1 + n_i * z**-g1
    if sid in ("S1", "S3"):
        return num / (beta1**-g1 * dd**-g1 + n_i * z**-g1)
    den = beta1**-g2 * dd**-g2 + n_i * z**-g2
    return num / den if sid == "S2" else dpth * num / den  # S5


@record
class ClosedFormCheck:
    """One closed-form vs general-formula comparison."""

    scenario_id: str
    metric: Metric
    layout_kind: LayoutKind
    mode: NeighborMode
    beta1: float
    closed_form: float
    general: float
    relative_error: float

    @property
    def passed(self) -> bool:
        return self.relative_error <= CLOSED_FORM_RTOL


def _scenario_is_builtin(scenario: Scenario) -> bool:
    """Closed forms apply iff the deployment parameters match a built-in set."""
    if scenario.id not in builtin_scenario_ids():
        return False
    reference = builtin_scenario(scenario.id)
    return scenario.dep1 == reference.dep1 and scenario.dep2 == reference.dep2


def cross_check(
    scenario: Scenario, layout: LayoutKind, mode: NeighborMode, beta1: float
) -> tuple[ComparisonResult, list[ClosedFormCheck]]:
    """The three ratios of ``scenario`` from the general formulas, and one check
    per metric of each against its closed form.

    The closed forms apply only where both deployments equal those of the
    built-in scenario of the same id; for any other scenario the checks are
    empty.
    """
    result = evaluate_pair(pair_for(scenario, layout, mode, beta1), scenario_id=scenario.id)
    checks = []
    if _scenario_is_builtin(scenario):
        for metric in Metric:
            general = result.get(metric)
            closed = closed_form_delta(scenario.id, metric, layout, mode, beta1)
            checks.append(ClosedFormCheck(scenario.id, metric, layout, mode, beta1, closed,
                                          general, abs(closed - general) / abs(general)))
    return result, checks


def verify_closed_forms(
    layouts: tuple[LayoutKind, ...] | list[LayoutKind] = TESSELLATING_KINDS,
    modes: tuple[NeighborMode, ...] | list[NeighborMode] = tuple(NeighborMode),
    beta1_values: tuple[float, ...] | list[float] = (0.05,),
) -> list[ClosedFormCheck]:
    """Compare every closed form against the general formulas.

    Iterates the built-in scenarios x layouts x modes x beta1 values x
    metrics, each in its given order, and records the relative error of each
    pair of evaluations. The (layout, mode) pairs are those ``evaluable``
    keeps: the circle in adjacent mode is skipped.
    """
    return [check for scenario in map(builtin_scenario, builtin_scenario_ids())
            for layout, mode in evaluable(layouts, modes)
            for beta1 in beta1_values
            for check in cross_check(scenario, layout, mode, beta1)[1]]


def pair_for(
    scenario: Scenario,
    kind: LayoutKind,
    mode: NeighborMode,
    beta1: float | None = None,
) -> DeploymentPair:
    """Bind a scenario to a concrete layout and neighbor mode."""
    return DeploymentPair(scenario.dep1, scenario.dep2, kind,
                          scenario.beta1 if beta1 is None else beta1, mode)


# -- Beta sweeps -------------------------------------------------------------

#: Most grid points a beta sweep may have; a finer step is refused before
#: the grid is built.
MAX_SWEEP_POINTS = 100_000


def sweep_beta(
    scenario: Scenario,
    kind: LayoutKind,
    mode: NeighborMode,
    beta_start: float,
    beta_end: float,
    beta_step: float,
) -> list[tuple[float, float]]:
    """Fixed-distance ratio over an inclusive beta1 grid.

    The grid runs from beta_start to beta_end in steps of beta_step, with both
    endpoints included up to half-a-step tolerance. The whole range is checked
    before evaluation: a grid point whose beta2 would exceed 1 aborts the
    sweep naming the offending beta1, and a grid of more than
    ``MAX_SWEEP_POINTS`` points is refused before it is built.
    """
    refuse(range_violations(fields=[("beta_step", beta_step), ("beta_start", beta_start)]))
    if not beta_start <= beta_end:
        raise OutOfRangeError(f"need beta_start <= beta_end, got [{beta_start}, {beta_end}]")
    # Checked as a float before int(): a subnormal step gives an infinite count.
    n_steps = (beta_end - beta_start) / beta_step + 0.5
    if not n_steps < MAX_SWEEP_POINTS:
        raise OutOfRangeError(
            f"beta grid [{beta_start:g}, {beta_end:g}] in steps of {beta_step:g} needs "
            f"about {n_steps + 0.5:.3g} points, over the point budget "
            f"MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}"
        )
    # Each pair checks its own beta1 and beta2, all of them before any evaluation.
    pairs = [pair_for(scenario, kind, mode, beta1=beta_start + k * beta_step)
             for k in range(int(n_steps) + 1)]
    return [(pair.beta1, delta_fixed(pair)) for pair in pairs]
