"""Propagation module: path loss, edge power, composite received power."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from rfpcompare import (
    Deployment,
    LayoutKind,
    NeighborMode,
    NoTessellationError,
    OutOfRangeError,
    PlausibilityWarning,
    TESSELLATING_KINDS,
    emitted_power,
    evaluable,
    received_power,
    rfp_avg,
    rfp_fixed,
    rfp_upper_bound,
)
from rfpcompare.propagation import range_violations

SQRT3 = math.sqrt(3.0)
HEX = LayoutKind.HEXAGONAL

# Frozen oracle values (40-digit arithmetic, independent of the implementation).
RFP_AVG_HEX_ADJ_G3 = 13.6871779006  # alpha^-3 + 6 * zeta^-3
RFP_FX_HEX_ADJ_B005_G3 = 8009.23760431  # 0.05^-3 + 16/sqrt(3)


def random_deployment(rng: np.random.Generator) -> Deployment:
    return Deployment(
        d_max=float(rng.uniform(10.0, 2000.0)),
        p_r_th=float(rng.uniform(0.01, 10.0)),
        gamma=float(rng.uniform(1.5, 6.5)),
        f=float(rng.uniform(400.0, 6000.0)),
        eta=float(rng.uniform(0.0, 4.0)),
        c=float(rng.uniform(0.1, 10.0)),
    )


# -- received / emitted power -------------------------------------------------


def test_received_power_basic_arithmetic():
    assert received_power(8.0, 2.0, 3.0, 1.0, 2.0, 1.0) == 1.0
    assert received_power(1.0, 1.0, 4.7, 1.0, 2.0, 1.0) == 1.0


def test_received_power_rejects_singular_distance():
    with pytest.raises(OutOfRangeError, match=re.escape("distance must be > 0, got 0.0")):
        received_power(1.0, 0.0, 3.0, 700.0)
    with pytest.raises(OutOfRangeError, match=re.escape("distance must be > 0, got -2.0")):
        received_power(1.0, -2.0, 3.0, 700.0)


def test_emitted_power_examples():
    assert emitted_power(Deployment(1.0, 1.0, 3.0, 1.0, 2.0, 1.0)) == 1.0
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    assert emitted_power(dep) == pytest.approx(6.125e13, rel=1e-12)


@pytest.mark.parametrize("dep,message", [
    (Deployment(1e100, 1.0, 6.0, 700.0), "emitted power: d_max**gamma = 1e+100**6 "),
    # Each power is finite; their product is not.
    (Deployment(1e150, 1.0, 2.0, 1e6), "emitted power: p_r_th * d_max**gamma * f**eta * c "),
    # p_r_th * d_max**gamma overflows, f**eta underflows to 0: inf * 0 is NaN.
    (Deployment(1e150, 1e10, 2.0, 1e-200), "emitted power: p_r_th * d_max**gamma * f**eta * c "),
], ids=["power", "product", "inf-times-0"])
def test_emitted_power_overflow_names_the_term(dep, message):
    with pytest.raises(OverflowError) as info:
        emitted_power(dep)
    assert str(info.value) == message + "overflows a float"


def test_emitted_power_refuses_an_underflow_to_zero():
    """(1e-110)**3 underflows to 0: a zero emitted power is refused like an
    infinite one."""
    with pytest.raises(OverflowError) as info:
        emitted_power(Deployment(1e-110, 1.0, 3.0, 700.0))
    assert str(info.value) == "emitted power: p_r_th * d_max**gamma * f**eta * c underflows to 0"


def test_edge_closure_for_randomized_deployments():
    """Received power at d_max inverts the edge constraint to 1e-12."""
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(100):
        dep = random_deployment(rng)
        back = received_power(
            emitted_power(dep), dep.d_max, dep.gamma, dep.f, dep.eta, dep.c
        )
        worst = max(worst, abs(back - dep.p_r_th) / dep.p_r_th)
    print(f"\n  edge-closure worst relative error: {worst:.3e}")
    assert worst <= 1e-12


# -- composite pixel power ----------------------------------------------------


def pixel_power(p_e, serving_distance, neighbor_distances, dep):
    """Reference composite power: the serving term plus one term per neighbor."""
    return sum(received_power(p_e, d, dep.gamma, dep.f, dep.eta, dep.c)
               for d in [serving_distance, *neighbor_distances])


def test_pixel_power_below_upper_bound_for_random_geometry():
    """Term-wise monotonicity: true pixel power never exceeds the bound."""
    rng = np.random.default_rng(2718)
    for _ in range(200):
        dep = random_deployment(rng)
        layout = LayoutKind(rng.choice([k.value for k in TESSELLATING_KINDS]))
        limit = layout.zeta * dep.d_max
        d_s = float(rng.uniform(0.01, 1.0)) * limit
        neighbors = [
            float(rng.uniform(1.0, 4.0)) * limit for _ in range(int(rng.integers(0, 9)))
        ]
        exact = pixel_power(emitted_power(dep), d_s, neighbors, dep)
        bound = rfp_upper_bound(dep, d_s, layout, len(neighbors))
        assert exact <= bound * (1 + 1e-12)


# -- upper bound --------------------------------------------------------------


def test_upper_bound_with_no_neighbors_is_serving_term():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    serving = received_power(emitted_power(dep), 100.0, dep.gamma, dep.f, dep.eta, dep.c)
    assert rfp_upper_bound(dep, 100.0, HEX, 0) == pytest.approx(serving, rel=1e-14)


def test_upper_bound_equal_terms_at_the_overlap_distance():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    limit = HEX.zeta * dep.d_max
    term = received_power(emitted_power(dep), limit, dep.gamma, dep.f, dep.eta, dep.c)
    assert rfp_upper_bound(dep, limit, HEX, 6) == pytest.approx(7 * term, rel=1e-12)


def test_upper_bound_hexagonal_25m_example():
    """S1-style deployment, 25 m, 6 neighbors: 0.05^-3 + 16/sqrt(3)."""
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    value = rfp_upper_bound(dep, 25.0, HEX, 6)
    assert value == pytest.approx(8009.238, abs=0.01)
    assert value == pytest.approx(RFP_FX_HEX_ADJ_B005_G3, rel=1e-9)
    assert value == pytest.approx(0.05**-3 + 16.0 / SQRT3, rel=1e-12)
    # Same point through the fixed-distance form.
    assert value == pytest.approx(
        rfp_fixed(dep, HEX, 0.05, NeighborMode.ADJACENT), rel=1e-12
    )


def test_upper_bound_validity_region():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    limit = HEX.zeta * dep.d_max
    outside = (f"serving_distance={limit * 1.001} outside the bound's validity "
               f"region (0, {limit}]")
    with pytest.raises(OutOfRangeError, match=re.escape(outside)):
        rfp_upper_bound(dep, limit * 1.001, HEX, 6)
    with pytest.raises(OutOfRangeError, match=re.escape("serving_distance must be > 0, got 0.0")):
        rfp_upper_bound(dep, 0.0, HEX, 6)


# -- average- and fixed-distance power ----------------------------------------


def test_rfp_avg_highway_neighbor_free():
    dep = Deployment(500.0, 2.5, 3.0, 700.0)
    assert rfp_avg(dep, LayoutKind.HIGHWAY, NeighborMode.NONE) == pytest.approx(
        2.5 * 8.0, rel=1e-14
    )


def test_rfp_avg_hexagonal_adjacent():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    value = rfp_avg(dep, HEX, NeighborMode.ADJACENT)
    assert value == pytest.approx(13.687, abs=0.01)
    assert value == pytest.approx(RFP_AVG_HEX_ADJ_G3, rel=1e-9)


def test_rfp_avg_equals_pixel_evaluation():
    """Average-distance form matches the raw pixel formula at alpha * d_max."""
    rng = np.random.default_rng(99)
    for layout in TESSELLATING_KINDS:
        for _ in range(20):
            dep = random_deployment(rng)
            for mode, n_i in ((NeighborMode.NONE, 0), (NeighborMode.ADJACENT, layout.n_neighbors)):
                via_pixel = pixel_power(
                    emitted_power(dep),
                    layout.alpha * dep.d_max,
                    [layout.zeta * dep.d_max] * n_i,
                    dep,
                )
                assert rfp_avg(dep, layout, mode) == pytest.approx(via_pixel, rel=1e-12)


def test_rfp_avg_circle_works_without_neighbors_only():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    circle = LayoutKind.CIRCLE
    assert rfp_avg(dep, circle, NeighborMode.NONE) == pytest.approx(
        (2.0 / 3.0) ** -3, rel=1e-12
    )
    with pytest.raises(NoTessellationError):
        rfp_avg(dep, circle, NeighborMode.ADJACENT)


def test_evaluable_keeps_layout_then_mode_order():
    square, circle = LayoutKind.SQUARE, LayoutKind.CIRCLE
    none, adjacent = NeighborMode.NONE, NeighborMode.ADJACENT
    assert evaluable((square, circle, HEX), (adjacent, none)) == [
        (square, adjacent), (square, none), (circle, none), (HEX, adjacent), (HEX, none)]
    assert evaluable((), (none,)) == evaluable((HEX,), ()) == []


@pytest.mark.parametrize("layout", list(LayoutKind), ids=lambda k: k.value)
@pytest.mark.parametrize("mode", list(NeighborMode), ids=lambda m: m.value)
def test_evaluable_skips_the_circle_in_adjacent_mode_only(layout, mode):
    """The pairs that evaluable drops are the ones the range rules refuse."""
    skipped = layout is LayoutKind.CIRCLE and mode is NeighborMode.ADJACENT
    assert evaluable((layout,), (mode,)) == ([] if skipped else [(layout, mode)])
    refused = [v.code for v in range_violations(layouts=(layout,), modes=(mode,))]
    assert refused == (["no_tessellation"] if skipped else [])


def test_rfp_fixed_examples():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    assert rfp_fixed(dep, HEX, 0.05, NeighborMode.NONE) == pytest.approx(8000.0, rel=1e-12)
    assert rfp_fixed(dep, HEX, 0.05, NeighborMode.ADJACENT) == pytest.approx(
        8009.238, abs=0.01
    )
    with pytest.warns(PlausibilityWarning):  # beta = 1 is valid but beyond zeta
        assert rfp_fixed(dep, HEX, 1.0, NeighborMode.NONE) == dep.p_r_th


def test_rfp_fixed_beta_range():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    for beta in (0.0, -0.1, 1.0001):
        with pytest.raises(OutOfRangeError, match=re.escape(f"beta must be in (0, 1], got {beta}")):
            rfp_fixed(dep, HEX, beta, NeighborMode.NONE)


def test_rfp_fixed_warns_beyond_zeta():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    with pytest.warns(PlausibilityWarning):
        rfp_fixed(dep, HEX, 0.9, NeighborMode.NONE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rfp_fixed(dep, HEX, 0.5, NeighborMode.NONE)  # inside the nominal region


def test_rfp_fixed_strictly_decreases_in_beta():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    for layout in TESSELLATING_KINDS:
        betas = [0.02 * k for k in range(1, 31)]
        values = [rfp_fixed(dep, layout, b, NeighborMode.NONE) for b in betas]
        assert all(a > b for a, b in zip(values, values[1:])), layout


def test_rfp_avg_strictly_decreases_in_alpha():
    """Across layout kinds ordered by alpha, neighbor-free power decreases."""
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    ordered = (
        LayoutKind.HIGHWAY,
        LayoutKind.SQUARE,
        LayoutKind.HEXAGONAL,
        LayoutKind.CIRCLE,
    )
    values = [rfp_avg(dep, k, NeighborMode.NONE) for k in ordered]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_neighbor_mode_ordering():
    """Adjacent mode adds strictly positive power on tessellating layouts."""
    rng = np.random.default_rng(55)
    for layout in TESSELLATING_KINDS:
        for _ in range(10):
            dep = random_deployment(rng)
            assert rfp_avg(dep, layout, NeighborMode.ADJACENT) > rfp_avg(
                dep, layout, NeighborMode.NONE
            )
            assert rfp_fixed(dep, layout, 0.3, NeighborMode.ADJACENT) > rfp_fixed(
                dep, layout, 0.3, NeighborMode.NONE
            )


def test_rfp_values_do_not_depend_on_f_c_or_d_max():
    """The simplified forms depend only on p_r_th, gamma, layout, beta."""
    base = Deployment(500.0, 1.3, 3.0, 700.0)
    variants = (
        Deployment(125.0, 1.3, 3.0, 700.0),
        Deployment(500.0, 1.3, 3.0, 3700.0),
        Deployment(500.0, 1.3, 3.0, 700.0, c=7.5),
    )
    for dep in variants:
        assert rfp_avg(dep, HEX, NeighborMode.ADJACENT) == rfp_avg(
            base, HEX, NeighborMode.ADJACENT
        )
        assert rfp_fixed(dep, HEX, 0.05, NeighborMode.NONE) == rfp_fixed(
            base, HEX, 0.05, NeighborMode.NONE
        )


# -- Deployment validation ----------------------------------------------------


def test_deployment_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        Deployment(0.0, 1.0, 3.0, 700.0)
    with pytest.raises(ValueError):
        Deployment(500.0, -1.0, 3.0, 700.0)
    with pytest.raises(ValueError):
        Deployment(500.0, 1.0, 3.0, 700.0, eta=-0.5)
    with pytest.raises(ValueError):
        Deployment(500.0, 1.0, 3.0, 700.0, c=0.0)


def test_deployment_gamma_plausibility_warning():
    with pytest.warns(PlausibilityWarning):
        Deployment(500.0, 1.0, 9.0, 700.0)
    with pytest.warns(PlausibilityWarning):
        Deployment(500.0, 1.0, 1.2, 700.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Deployment(500.0, 1.0, 3.0, 700.0)


def test_deployment_eta_zero_is_allowed():
    dep = Deployment(500.0, 1.0, 3.0, 700.0, eta=0.0)
    assert emitted_power(dep) == pytest.approx(1.0 * 500.0**3, rel=1e-12)
