"""Acceptance suite: one test per acceptance criterion, at pinned tolerances.

Each test prints a ``criterion N: PASS`` line on success; run with ``-v`` (or
``-s``) to see one line per criterion.
"""

from __future__ import annotations

import numpy as np
import pytest

from rfpcompare import (
    Deployment,
    LayoutKind,
    NeighborMode,
    TESSELLATING_KINDS,
    builtin_scenario,
    compute_field,
    delta_avg,
    delta_fixed,
    emitted_power,
    empirical_alpha,
    estimate_alpha_monte_carlo,
    generate_sites,
    pair_for,
    received_power,
    rfp_fixed,
    verify_closed_forms,
    verify_upper_bound,
)
from rfpcompare.gridsim import Region

HEX = LayoutKind.HEXAGONAL


def brute_force_delta_fixed(sid: str, mode: NeighborMode, beta1: float = 0.05) -> float:
    """Independent route: quotient of absolute fixed-distance evaluations."""
    s = builtin_scenario(sid)
    beta2 = beta1 * s.dep1.d_max / s.dep2.d_max
    return rfp_fixed(s.dep1, HEX, beta1, mode) / rfp_fixed(s.dep2, HEX, beta2, mode)


def test_criterion_1_geometry_constants():
    """Closed-form alphas to 4 decimals; Monte Carlo at 1e7 within 1e-3."""
    table = {
        LayoutKind.HIGHWAY: 0.5,
        LayoutKind.SQUARE: 0.5411,
        LayoutKind.HEXAGONAL: 0.6080,
        LayoutKind.CIRCLE: 0.6667,
    }
    for kind, expected in table.items():
        assert abs(kind.alpha - expected) <= 5e-5, kind
    for kind in LayoutKind:
        estimate, _ = estimate_alpha_monte_carlo(kind, 10**7, 20260810)
        assert abs(estimate - kind.alpha) <= 1e-3, kind
    print("criterion 1: PASS -- Table values to 4 decimals, Monte Carlo within 1e-3")


def test_criterion_2_fixed_ratios_neighbor_free_hexagonal():
    """delta_pr_fx, no neighbors, hexagonal, beta1 = 0.05."""
    expected = {"S1": 8.0, "S2": 435.3, "S3": 8.0, "S4": 0.5, "S5": 933.1}
    for sid, target in expected.items():
        value = delta_fixed(pair_for(builtin_scenario(sid), HEX, NeighborMode.NONE))
        brute = brute_force_delta_fixed(sid, NeighborMode.NONE)
        assert abs(value - target) / target <= 0.005, (sid, value)
        assert abs(value - brute) / brute <= 0.005, (sid, value, brute)
    values = {
        sid: delta_fixed(pair_for(builtin_scenario(sid), HEX, NeighborMode.NONE))
        for sid in expected
    }
    assert 900 < values["S5"] < 1000  # close to 1000
    assert values["S2"] > 400
    assert 7.9 < values["S1"] <= 8.0 and 7.9 < values["S3"] <= 8.0  # close to 8
    assert values["S4"] < 1
    print("criterion 2: PASS --", {k: round(v, 3) for k, v in values.items()})


def test_criterion_3_fixed_ratios_with_neighbors_hexagonal():
    """delta_pr_fx, adjacent neighbors, hexagonal, beta1 = 0.05."""
    expected = {"S1": 7.94, "S2": 302.3, "S5": 322.9}
    values = {}
    for sid, target in expected.items():
        value = delta_fixed(pair_for(builtin_scenario(sid), HEX, NeighborMode.ADJACENT))
        brute = brute_force_delta_fixed(sid, NeighborMode.ADJACENT)
        assert abs(value - target) / target <= 0.005, (sid, value)
        assert abs(value - brute) / brute <= 0.005, (sid, value, brute)
        values[sid] = value
    assert values["S2"] > 100 and values["S5"] > 100  # always higher than 100
    print("criterion 3: PASS --", {k: round(v, 3) for k, v in values.items()})


def test_criterion_4_average_distance_ratios():
    """delta_pr_avg: exact unit/half values plus hexagonal S2/S5 magnitudes."""
    for sid in ("S1", "S3"):
        for kind in TESSELLATING_KINDS:
            for mode in NeighborMode:
                assert delta_avg(pair_for(builtin_scenario(sid), kind, mode)) == 1.0
    for kind in TESSELLATING_KINDS:
        for mode in NeighborMode:
            assert delta_avg(pair_for(builtin_scenario("S4"), kind, mode)) == 0.5
    s2_none = delta_avg(pair_for(builtin_scenario("S2"), HEX, NeighborMode.NONE))
    s2_adj = delta_avg(pair_for(builtin_scenario("S2"), HEX, NeighborMode.ADJACENT))
    s5_none = delta_avg(pair_for(builtin_scenario("S5"), HEX, NeighborMode.NONE))
    assert abs(s2_none - 1.565) / 1.565 <= 0.005
    assert abs(s2_adj - 1.249) / 1.249 <= 0.005
    assert abs(s5_none - 0.782) / 0.782 <= 0.005
    assert s5_none < 1  # deployment (2) sees slightly more power at average distance
    print(f"criterion 4: PASS -- S2 {s2_none:.4f}/{s2_adj:.4f}, S5 {s5_none:.4f}")


def test_criterion_5_layout_ordering_for_s2_with_neighbors():
    """Average-distance ratio ordering: highway > square > hexagonal."""
    values = [
        delta_avg(pair_for(builtin_scenario("S2"), kind, NeighborMode.ADJACENT))
        for kind in (LayoutKind.HIGHWAY, LayoutKind.SQUARE, LayoutKind.HEXAGONAL)
    ]
    assert values[0] > values[1] > values[2]
    print("criterion 5: PASS --", [round(v, 4) for v in values])


def test_criterion_6_closed_forms_match_general_formulas():
    """Every closed-form cell within 1e-12 of the general evaluation."""
    checks = verify_closed_forms(
        layouts=TESSELLATING_KINDS,
        modes=(NeighborMode.NONE, NeighborMode.ADJACENT),
        beta1_values=(0.05,),
    )
    assert len(checks) == 5 * 3 * 3 * 2
    worst = max(c.relative_error for c in checks)
    assert all(c.passed for c in checks)
    assert worst <= 1e-12
    print(f"criterion 6: PASS -- {len(checks)} cells, worst relative error {worst:.2e}")


def test_criterion_7_simulator_oracle():
    """Hexagonal lattice: no bound violations, exact 25 m sample, empirical alpha."""
    dep = builtin_scenario("S1").dep1
    lattice = generate_sites(HEX, dep.d_max, rings=2)

    field = compute_field(lattice, dep, resolution=5.0)
    violations = verify_upper_bound(field, dep, HEX)
    assert len(violations) == 0

    probe = compute_field(lattice, dep, 5.0, region=Region(22.5, 27.5, -2.5, 2.5))
    assert probe.serving_distance[0, 0] == 25.0
    assert probe.rfp_serving[0, 0] == pytest.approx(8000.0 * dep.p_r_th, rel=1e-9)

    alpha = empirical_alpha(lattice, resolution=1.0)
    assert abs(alpha - 0.6080) / 0.6080 <= 0.01
    print(
        f"criterion 7: PASS -- 0 violations over {field.n_pixels} pixels, "
        f"serving(25 m) {probe.rfp_serving[0, 0]:.6f}, empirical alpha {alpha:.6f}"
    )


def test_criterion_8_edge_closure():
    """Received power at d_max equals p_r_th to 1e-12 for 100 random deployments."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        dep = Deployment(
            d_max=float(rng.uniform(10.0, 2000.0)),
            p_r_th=float(rng.uniform(0.01, 10.0)),
            gamma=float(rng.uniform(1.5, 6.5)),
            f=float(rng.uniform(400.0, 6000.0)),
            eta=float(rng.uniform(0.0, 4.0)),
            c=float(rng.uniform(0.1, 10.0)),
        )
        back = received_power(
            emitted_power(dep), dep.d_max, dep.gamma, dep.f, dep.eta, dep.c
        )
        worst = max(worst, abs(back - dep.p_r_th) / dep.p_r_th)
    assert worst <= 1e-12
    print(f"criterion 8: PASS -- worst relative error {worst:.2e}")


def test_criterion_9_byte_identical_outputs(run_cli, tmp_path):
    """Repeated validate and simulate runs are byte-identical."""
    validate_args = ["validate", "--samples", "300000", "--seed", "3"]
    first = run_cli(validate_args)
    second = run_cli(validate_args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout

    simulate_args = ["simulate", "--layout", "hexagonal", "--rings", "2",
                     "--resolution", "10", "--out", "field.csv"]
    sim_first = run_cli(simulate_args)
    assert sim_first.returncode == 0, sim_first.stderr
    csv_first = (tmp_path / "field.csv").read_bytes()
    sim_second = run_cli(simulate_args)
    assert sim_second.returncode == 0, sim_second.stderr
    csv_second = (tmp_path / "field.csv").read_bytes()
    assert sim_first.stdout == sim_second.stdout
    assert csv_first == csv_second
    print("criterion 9: PASS -- byte-identical outputs for validate and simulate")
