"""Comparison module: pair ratios, per-scenario closed forms, verifier."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from rfpcompare import PlausibilityWarning

from rfpcompare import (
    CLOSED_FORM_RTOL,
    Deployment,
    DeploymentPair,
    LayoutKind,
    Metric,
    NeighborMode,
    NoTessellationError,
    OutOfRangeError,
    TESSELLATING_KINDS,
    builtin_scenario,
    closed_form_delta,
    cross_check,
    delta_avg,
    delta_emitted,
    delta_fixed,
    emitted_power,
    evaluate_pair,
    pair_for,
    rfp_avg,
    rfp_fixed,
    verify_closed_forms,
)
from rfpcompare.scenarios import Scenario

HEX = LayoutKind.HEXAGONAL

# Frozen oracle values (40-digit arithmetic on the published parameter sets).
DELTA_PE = {
    "S1": 8.0,
    "S2": 7886.966806,
    "S3": 0.286340394449,
    "S4": 0.017896274653,
    "S5": 605.111825283,
}
DELTA_FX_HEX_N0 = {
    "S1": 8.0,
    "S2": 435.275281648,
    "S3": 8.0,
    "S4": 0.5,
    "S5": 933.032991537,
}
DELTA_FX_HEX_ADJ = {
    "S1": 7.93592863576,
    "S2": 302.291526514,
    "S3": 7.93592863576,
    "S4": 0.5,
    "S5": 322.875059284,
}
DELTA_AVG_HEX_N0 = {"S2": 1.56493216965, "S5": 0.782466084825}
DELTA_AVG_HEX_ADJ = {"S2": 1.2489206163, "S5": 0.624460308152}


def hex_pair(scenario_id: str, mode: NeighborMode, beta1: float = 0.05) -> DeploymentPair:
    return pair_for(builtin_scenario(scenario_id), HEX, mode, beta1=beta1)


def random_pair(rng: np.random.Generator) -> DeploymentPair:
    """Random pair with beta2 safely inside (0, 1) so swaps stay legal."""
    eta = float(rng.uniform(0.0, 4.0))
    d1 = float(rng.uniform(100.0, 1000.0))
    d2 = float(rng.uniform(0.2, 1.5)) * d1
    beta1 = float(rng.uniform(0.01, 0.9)) * min(1.0, d2 / d1)
    dep1 = Deployment(d1, float(rng.uniform(0.1, 10.0)), float(rng.uniform(1.6, 6.0)),
                      float(rng.uniform(400.0, 6000.0)), eta, float(rng.uniform(0.1, 10.0)))
    dep2 = Deployment(d2, float(rng.uniform(0.1, 10.0)), float(rng.uniform(1.6, 6.0)),
                      float(rng.uniform(400.0, 6000.0)), eta, float(rng.uniform(0.1, 10.0)))
    kind = LayoutKind(str(rng.choice([k.value for k in TESSELLATING_KINDS])))
    mode = NeighborMode.ADJACENT if rng.integers(2) else NeighborMode.NONE
    return DeploymentPair(dep1, dep2, kind, beta1, mode)


# -- DeploymentPair invariants -------------------------------------------------


def test_pair_beta2_definition():
    pair = hex_pair("S5", NeighborMode.NONE)
    assert pair.beta2 == pytest.approx(0.5, rel=1e-15)
    assert pair.delta_d_max == 10.0


def test_pair_rejects_beta2_above_one():
    s = builtin_scenario("S5")  # delta(d_max) = 10
    beta2 = "beta1 = 0.2 gives beta2 = beta1 * d_max(1)/d_max(2) = 2, outside (0, 1]"
    with pytest.raises(OutOfRangeError, match=re.escape(beta2)):
        DeploymentPair(s.dep1, s.dep2, HEX, 0.2, NeighborMode.NONE)


def test_pair_rejects_bad_beta1():
    s = builtin_scenario("S1")
    for beta1 in (0.0, 1.0, -0.3):
        with pytest.raises(OutOfRangeError,
                           match=re.escape(f"beta1 must be in (0, 1), got {beta1}")):
            DeploymentPair(s.dep1, s.dep2, HEX, beta1, NeighborMode.NONE)


def test_pair_rejects_adjacent_circle():
    s = builtin_scenario("S1")
    with pytest.raises(NoTessellationError):
        DeploymentPair(s.dep1, s.dep2, LayoutKind.CIRCLE, 0.05, NeighborMode.ADJACENT)
    pair = DeploymentPair(s.dep1, s.dep2, LayoutKind.CIRCLE, 0.05, NeighborMode.NONE)
    assert delta_avg(pair) == 1.0


# -- emitted-power ratio -------------------------------------------------------


def test_delta_emitted_builtin_values():
    for sid, expected in DELTA_PE.items():
        value = delta_emitted(hex_pair(sid, NeighborMode.NONE))
        assert value == pytest.approx(expected, rel=1e-9), sid
    assert delta_emitted(hex_pair("S2", NeighborMode.NONE)) == pytest.approx(
        125.0 * 100.0**0.9, rel=1e-12
    )


def test_delta_emitted_identical_deployments_is_one():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    pair = DeploymentPair(dep, dep, HEX, 0.05, NeighborMode.NONE)
    assert delta_emitted(pair) == 1.0


def test_delta_emitted_equals_emitted_power_quotient():
    rng = np.random.default_rng(808)
    for _ in range(100):
        pair = random_pair(rng)
        quotient = emitted_power(pair.dep1) / emitted_power(pair.dep2)
        assert delta_emitted(pair) == pytest.approx(quotient, rel=1e-12)


def test_delta_emitted_rejects_eta_change():
    dep1 = Deployment(500.0, 1.0, 3.0, 700.0, eta=2.0)
    dep2 = Deployment(250.0, 1.0, 3.0, 700.0, eta=2.5)
    pair = DeploymentPair(dep1, dep2, HEX, 0.05, NeighborMode.NONE)
    with pytest.raises(OutOfRangeError,
                       match=re.escape("deployments must share eta, got 2.0 and 2.5")):
        delta_emitted(pair)


def pair_of(dep1: tuple, dep2: tuple) -> DeploymentPair:
    return DeploymentPair(Deployment(*dep1), Deployment(*dep2), LayoutKind.HIGHWAY)


#: (1e-110)**3 underflows, so delta_pe is 0 while delta_pr_fx is a float.
TINY = pair_of((1e-110, 1.0, 3.0, 700.0), (1.0, 1.0, 1.5, 700.0))
#: p_r_th(1)/p_r_th(2) = 1e308 and 64/2.8 past it: every ratio overflows.
HUGE = pair_of((1e60, 1e300, 6.0, 700.0), (1e60, 1e-8, 1.5, 700.0))
#: p_r_th(1)/p_r_th(2) = 1e-600 underflows, so every ratio is 0.
ZERO = pair_of((500.0, 1e-300, 3.0, 700.0), (500.0, 1e300, 3.0, 700.0))


@pytest.mark.parametrize("pair,ratio,message", [
    (TINY, delta_emitted, "delta_pe = P_E(1)/P_E(2) underflows to 0"),
    (HUGE, delta_emitted, "delta_pe = P_E(1)/P_E(2) overflows a float"),
    (HUGE, delta_avg, "delta_pr_avg = rfp_avg(1)/rfp_avg(2) overflows a float"),
    (HUGE, delta_fixed, "delta_pr_fx = rfp_fixed(1)/rfp_fixed(2) overflows a float"),
    (ZERO, delta_emitted, "delta_pe = P_E(1)/P_E(2) underflows to 0"),
    (ZERO, delta_avg, "delta_pr_avg = rfp_avg(1)/rfp_avg(2) underflows to 0"),
    (ZERO, delta_fixed, "delta_pr_fx = rfp_fixed(1)/rfp_fixed(2) underflows to 0"),
], ids=["tiny-pe", "huge-pe", "huge-pr_avg", "huge-pr_fx", "zero-pe", "zero-pr_avg",
        "zero-pr_fx"])
def test_a_ratio_outside_the_float_range_is_refused(pair, ratio, message):
    """A ratio that computes as 0 or infinity is refused, naming it, instead of
    being reported as 0 or inf."""
    with pytest.raises(OverflowError) as refused:
        ratio(pair)
    assert str(refused.value) == message


#: P_E(1)/P_E(2) = 1e-150 * 1e600 / (1e150 * 1e200) = 1e100, though
#: (d_max(1)/d_max(2))**4 * d_max(2)**2 = 1e400 overflows on the way.
FE = DeploymentPair(Deployment(1e150, 1e-150, 4.0, 700.0), Deployment(1e100, 1e150, 2.0, 700.0),
                    HEX, 1e-60)


def test_an_emitted_power_ratio_inside_the_float_range_is_reported():
    """A factor of the product leaves the float range, the ratio does not."""
    assert delta_emitted(FE) == pytest.approx(1e100, rel=1e-12)
    assert delta_avg(FE) == pytest.approx(2.70528026e-300, rel=1e-8)
    assert delta_fixed(FE) == pytest.approx(1e-80, rel=1e-12)


def test_a_tiny_finite_ratio_stays_valid():
    """delta_pr_fx = 0.05**-3 / (0.05e-110)**-1.5 = 8.944e-164 is a float."""
    assert delta_fixed(TINY) == pytest.approx(0.05**-1.5 * 1e-165, rel=1e-12)
    assert delta_avg(TINY) == pytest.approx(2**1.5, rel=1e-12)


# -- average-distance ratio ----------------------------------------------------


def test_delta_avg_is_exactly_one_for_s1_and_s3():
    for sid in ("S1", "S3"):
        for kind in TESSELLATING_KINDS:
            for mode in NeighborMode:
                pair = pair_for(builtin_scenario(sid), kind, mode)
                assert delta_avg(pair) == 1.0, (sid, kind, mode)


def test_delta_avg_is_exactly_half_for_s4():
    for kind in TESSELLATING_KINDS:
        for mode in NeighborMode:
            assert delta_avg(pair_for(builtin_scenario("S4"), kind, mode)) == 0.5


def test_delta_avg_hexagonal_values():
    for sid, expected in DELTA_AVG_HEX_N0.items():
        assert delta_avg(hex_pair(sid, NeighborMode.NONE)) == pytest.approx(
            expected, rel=1e-9
        )
    for sid, expected in DELTA_AVG_HEX_ADJ.items():
        assert delta_avg(hex_pair(sid, NeighborMode.ADJACENT)) == pytest.approx(
            expected, rel=1e-9
        )
    # Published rounded values.
    assert delta_avg(hex_pair("S2", NeighborMode.NONE)) == pytest.approx(1.565, abs=5e-3)
    assert delta_avg(hex_pair("S2", NeighborMode.ADJACENT)) == pytest.approx(1.249, abs=5e-3)


def test_delta_avg_equals_rfp_avg_quotient():
    rng = np.random.default_rng(809)
    for _ in range(100):
        pair = random_pair(rng)
        quotient = rfp_avg(pair.dep1, pair.layout, pair.mode) / rfp_avg(
            pair.dep2, pair.layout, pair.mode
        )
        assert delta_avg(pair) == pytest.approx(quotient, rel=1e-12)


def test_delta_avg_s2_layout_ordering_with_neighbors():
    """Adjacent-mode S2: highway > square > hexagonal."""
    s2 = builtin_scenario("S2")
    values = [
        delta_avg(pair_for(s2, kind, NeighborMode.ADJACENT))
        for kind in (LayoutKind.HIGHWAY, LayoutKind.SQUARE, LayoutKind.HEXAGONAL)
    ]
    print(f"\n  S2 adjacent delta_avg by layout: {values}")
    assert values[0] > values[1] > values[2]
    assert values[0] == pytest.approx(1.59056000091, rel=1e-9)
    assert values[1] == pytest.approx(1.4329467736, rel=1e-9)


# -- fixed-distance ratio --------------------------------------------------------


def test_delta_fixed_hexagonal_neighbor_free_values():
    for sid, expected in DELTA_FX_HEX_N0.items():
        value = delta_fixed(hex_pair(sid, NeighborMode.NONE))
        assert value == pytest.approx(expected, rel=1e-9), sid
    # Magnitudes as reported: ~8 for S1/S3, >400 for S2, ~1000 for S5, <1 for S4.
    assert delta_fixed(hex_pair("S2", NeighborMode.NONE)) > 400
    assert 900 < delta_fixed(hex_pair("S5", NeighborMode.NONE)) < 1000
    assert delta_fixed(hex_pair("S4", NeighborMode.NONE)) < 1


def test_delta_fixed_hexagonal_adjacent_values():
    for sid, expected in DELTA_FX_HEX_ADJ.items():
        value = delta_fixed(hex_pair(sid, NeighborMode.ADJACENT))
        assert value == pytest.approx(expected, rel=1e-9), sid
    assert delta_fixed(hex_pair("S2", NeighborMode.ADJACENT)) > 100
    assert delta_fixed(hex_pair("S5", NeighborMode.ADJACENT)) > 100


def test_delta_fixed_equals_rfp_fixed_quotient():
    """Same-distance form equals the quotient of absolute evaluations."""
    rng = np.random.default_rng(810)
    with warnings.catch_warnings():
        # Random betas may legitimately land beyond zeta; not under test here.
        warnings.simplefilter("ignore", PlausibilityWarning)
        for _ in range(100):
            pair = random_pair(rng)
            quotient = rfp_fixed(
                pair.dep1, pair.layout, pair.beta1, pair.mode
            ) / rfp_fixed(pair.dep2, pair.layout, pair.beta2, pair.mode)
            assert delta_fixed(pair) == pytest.approx(quotient, rel=1e-12)


def test_delta_fixed_equals_rfp_fixed_quotient_for_builtins():
    for sid in DELTA_FX_HEX_N0:
        for mode in NeighborMode:
            pair = hex_pair(sid, mode)
            quotient = rfp_fixed(pair.dep1, pair.layout, pair.beta1, mode) / rfp_fixed(
                pair.dep2, pair.layout, pair.beta2, mode
            )
            assert delta_fixed(pair) == pytest.approx(quotient, rel=1e-12)


# -- structural properties -------------------------------------------------------


def test_equal_gamma_neighbor_free_structure():
    """gamma(1) = gamma(2), no neighbors: the fixed ratio reduces to
    delta(p_r_th) * delta(d_max)^gamma and the average ratio to delta(p_r_th);
    with an unchanged threshold the fixed ratio is delta(d_max)^gamma alone."""
    rng = np.random.default_rng(811)
    for _ in range(50):
        gamma = float(rng.uniform(1.6, 6.0))
        d1 = float(rng.uniform(100.0, 1000.0))
        d2 = float(rng.uniform(0.3, 1.5)) * d1
        dep1 = Deployment(d1, float(rng.uniform(0.1, 10.0)), gamma, 700.0)
        dep2 = Deployment(d2, float(rng.uniform(0.1, 10.0)), gamma, 3700.0)
        beta1 = 0.05 * min(1.0, d2 / d1)
        pair = DeploymentPair(dep1, dep2, HEX, beta1, NeighborMode.NONE)
        dpth = dep1.p_r_th / dep2.p_r_th
        assert delta_fixed(pair) == pytest.approx(dpth * (d1 / d2) ** gamma, rel=1e-12)
        assert delta_avg(pair) == pytest.approx(dpth, rel=1e-12)

        same_th = DeploymentPair(
            dep1,
            Deployment(d2, dep1.p_r_th, gamma, 3700.0),
            HEX,
            beta1,
            NeighborMode.NONE,
        )
        assert delta_fixed(same_th) == pytest.approx((d1 / d2) ** gamma, rel=1e-12)


def test_inversion_symmetry():
    """Swapping the deployments (and beta1 <-> beta2) inverts every ratio."""
    rng = np.random.default_rng(812)
    for _ in range(50):
        pair = random_pair(rng)
        swapped = DeploymentPair(
            pair.dep2, pair.dep1, pair.layout, pair.beta2, pair.mode
        )
        assert delta_emitted(pair) * delta_emitted(swapped) == pytest.approx(1.0, rel=1e-12)
        assert delta_avg(pair) * delta_avg(swapped) == pytest.approx(1.0, rel=1e-12)
        assert delta_fixed(pair) * delta_fixed(swapped) == pytest.approx(1.0, rel=1e-12)


def test_received_ratios_invariant_to_common_scaling():
    """Scaling both deployments' p_r_th, f, c together leaves the received
    ratios unchanged (only ratios enter the formulas)."""
    rng = np.random.default_rng(813)
    for _ in range(25):
        pair = random_pair(rng)
        k_p, k_f, k_c = (float(rng.uniform(0.1, 10.0)) for _ in range(3))
        scaled = DeploymentPair(
            Deployment(pair.dep1.d_max, pair.dep1.p_r_th * k_p, pair.dep1.gamma,
                       pair.dep1.f * k_f, pair.dep1.eta, pair.dep1.c * k_c),
            Deployment(pair.dep2.d_max, pair.dep2.p_r_th * k_p, pair.dep2.gamma,
                       pair.dep2.f * k_f, pair.dep2.eta, pair.dep2.c * k_c),
            pair.layout,
            pair.beta1,
            pair.mode,
        )
        assert delta_avg(scaled) == pytest.approx(delta_avg(pair), rel=1e-12)
        assert delta_fixed(scaled) == pytest.approx(delta_fixed(pair), rel=1e-12)


# -- closed forms -----------------------------------------------------------------


def test_closed_form_examples():
    assert closed_form_delta("S3", Metric.PR_AVG, HEX, NeighborMode.NONE) == 1.0
    assert closed_form_delta(
        "S1", Metric.PR_FX, HEX, NeighborMode.ADJACENT, 0.05
    ) == pytest.approx(7.936, abs=5e-4)
    assert closed_form_delta(
        "S2", Metric.PR_FX, HEX, NeighborMode.ADJACENT, 0.05
    ) == pytest.approx(302.291526514, rel=1e-9)


def test_closed_form_unknown_scenario():
    with pytest.raises(ValueError):
        closed_form_delta("S9", Metric.PE, HEX, NeighborMode.NONE)


@pytest.mark.parametrize("mode", list(NeighborMode), ids=lambda m: m.value)
def test_cross_check_checks_each_metric_of_a_builtin(mode):
    s2 = builtin_scenario("S2")
    result, checks = cross_check(s2, HEX, mode, 0.05)
    assert result == evaluate_pair(hex_pair("S2", mode), scenario_id="S2")
    assert [c.metric for c in checks] == list(Metric)
    for c in checks:
        assert (c.scenario_id, c.layout_kind, c.mode, c.beta1) == ("S2", HEX, mode, 0.05)
        assert c.general == result.get(c.metric)
        assert c.closed_form == closed_form_delta("S2", c.metric, HEX, mode, 0.05)
        assert c.relative_error == abs(c.closed_form - c.general) / abs(c.general)
        assert c.passed


@pytest.mark.parametrize("scenario_id", ["S2", "X"])
def test_cross_check_has_no_checks_for_other_deployments(scenario_id):
    """An id names a built-in's closed forms only with the built-in's
    deployments: S2's with deployment (2)'s threshold doubled would be wrong."""
    s2 = builtin_scenario("S2")
    dep2 = Deployment(s2.dep2.d_max, 2.0, s2.dep2.gamma, s2.dep2.f)
    other = Scenario(scenario_id, "", s2.dep1, dep2)
    result, checks = cross_check(other, HEX, NeighborMode.ADJACENT, 0.05)
    assert checks == []
    pair = DeploymentPair(s2.dep1, dep2, HEX, 0.05, NeighborMode.ADJACENT)
    assert result == evaluate_pair(pair, scenario_id=scenario_id)
    assert result.delta_pr_avg == pytest.approx(DELTA_AVG_HEX_ADJ["S2"] / 2, rel=1e-9)


def test_evaluate_pair_bundles_all_three_ratios():
    result = evaluate_pair(hex_pair("S2", NeighborMode.ADJACENT), scenario_id="S2")
    assert result.scenario_id == "S2"
    assert result.layout_kind is HEX
    assert result.mode is NeighborMode.ADJACENT
    assert result.get(Metric.PE) == result.delta_pe
    assert result.delta_pr_fx == pytest.approx(DELTA_FX_HEX_ADJ["S2"], rel=1e-9)


def test_verify_closed_forms_all_pass():
    """Every cell agrees with the general formulas to 1e-12 relative."""
    checks = verify_closed_forms()
    assert len(checks) == 5 * 3 * 3 * 2  # scenarios x metrics x layouts x modes
    worst = max(c.relative_error for c in checks)
    print(f"\n  closed-form worst relative error: {worst:.3e}")
    assert all(c.passed for c in checks)
    assert worst <= CLOSED_FORM_RTOL


def test_verify_closed_forms_multiple_beta_values():
    checks = verify_closed_forms(beta1_values=(0.02, 0.05, 0.1))
    assert len(checks) == 5 * 3 * 3 * 2 * 3
    assert all(c.passed for c in checks)


def test_verify_closed_forms_empty_layouts_gives_empty_report():
    assert verify_closed_forms(layouts=()) == []


def test_verify_closed_forms_skips_circle_adjacent_only():
    checks = verify_closed_forms(layouts=(LayoutKind.CIRCLE,))
    assert len(checks) == 5 * 3  # neighbor-free mode only
    assert all(c.mode is NeighborMode.NONE for c in checks)
    assert all(c.passed for c in checks)


def test_verify_closed_forms_report_order_is_deterministic():
    a = verify_closed_forms()
    b = verify_closed_forms()
    assert [
        (c.scenario_id, c.metric, c.layout_kind, c.mode, c.beta1) for c in a
    ] == [(c.scenario_id, c.metric, c.layout_kind, c.mode, c.beta1) for c in b]
