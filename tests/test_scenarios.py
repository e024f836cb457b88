"""Scenario module: built-ins, JSON documents, validation, beta sweeps."""

from __future__ import annotations

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rfpcompare import (
    BetaOutOfRangeError,
    Deployment,
    DeploymentPair,
    LayoutKind,
    Metric,
    NeighborMode,
    NoTessellationError,
    OutOfRangeError,
    PlausibilityWarning,
    Region,
    RfpError,
    Scenario,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    builtin_scenario,
    UnsupportedParameterChangeError,
    builtin_scenario_ids,
    central_alpha,
    closed_form_delta,
    compute_field,
    delta_emitted,
    empirical_alpha,
    estimate_alpha_monte_carlo,
    generate_sites,
    parse_scenario_file,
    received_power,
    rfp_upper_bound,
    sweep_beta,
    validate_scenario,
)
from rfpcompare.comparison import MAX_SWEEP_POINTS

S1_DOCUMENT = """
{
  "id": "S1",
  "description": "Light densification",
  "deployment1": {"d_max_m": 500, "p_r_th": 1, "gamma": 3, "f_mhz": 700, "eta": 2, "c": 1},
  "deployment2": {"d_max_m": 250, "p_r_th": 1, "gamma": 3, "f_mhz": 700, "eta": 2, "c": 1},
  "beta1": 0.05,
  "layouts": ["highway", "square", "hexagonal"],
  "modes": ["none", "adjacent"]
}
"""


# -- built-in parameter sets ----------------------------------------------------


def test_builtin_ids():
    assert builtin_scenario_ids() == ("S1", "S2", "S3", "S4", "S5")


def test_builtin_parameters_match_published_table():
    expected = {
        # sid: (d1, d2, pth2, gamma1, gamma2, f1, f2)
        "S1": (500.0, 250.0, 1.0, 3.0, 3.0, 700.0, 700.0),
        "S2": (500.0, 100.0, 1.0, 3.0, 2.1, 700.0, 700.0),
        "S3": (500.0, 250.0, 1.0, 3.0, 3.0, 700.0, 3700.0),
        "S4": (500.0, 500.0, 2.0, 3.0, 3.0, 700.0, 3700.0),
        "S5": (500.0, 50.0, 2.0, 3.0, 2.1, 700.0, 3700.0),
    }
    for sid, (d1, d2, pth2, g1, g2, f1, f2) in expected.items():
        s = builtin_scenario(sid)
        assert (s.dep1.d_max, s.dep2.d_max) == (d1, d2), sid
        assert s.dep1.p_r_th == 1.0 and s.dep2.p_r_th == pth2, sid
        assert (s.dep1.gamma, s.dep2.gamma) == (g1, g2), sid
        assert (s.dep1.f, s.dep2.f) == (f1, f2), sid
        assert s.dep1.eta == s.dep2.eta == 2.0, sid
        assert s.dep1.c == s.dep2.c == 1.0, sid
        assert s.beta1 == 0.05
        assert s.layouts == (LayoutKind.HIGHWAY, LayoutKind.SQUARE, LayoutKind.HEXAGONAL)
        assert s.modes == (NeighborMode.NONE, NeighborMode.ADJACENT)


def test_builtin_delta_relations():
    s5 = builtin_scenario("S5")
    assert s5.dep1.d_max / s5.dep2.d_max == 10.0
    s4 = builtin_scenario("S4")
    assert s4.dep1.d_max / s4.dep2.d_max == 1.0
    assert s4.dep1.p_r_th / s4.dep2.p_r_th == 0.5
    s2 = builtin_scenario("S2")
    assert s2.dep1.gamma / s2.dep2.gamma == pytest.approx(1.43, abs=5e-3)
    # Frequencies are stored exactly; 0.19 is a display rounding of 700/3700.
    s3 = builtin_scenario("S3")
    assert s3.dep1.f / s3.dep2.f == pytest.approx(0.19, abs=1e-3)
    assert s3.dep1.f / s3.dep2.f == 700.0 / 3700.0


def test_builtin_lookup_is_case_insensitive_and_strict():
    assert builtin_scenario("s2") is builtin_scenario("S2")
    with pytest.raises(ValueError):
        builtin_scenario("S6")


# -- document parsing -------------------------------------------------------------


def test_parse_document_encoding_s1_equals_builtin():
    assert parse_scenario_file(S1_DOCUMENT) == builtin_scenario("S1")


def test_parse_applies_defaults():
    doc = json.dumps(
        {
            "id": "X",
            "deployment1": {"d_max_m": 400, "p_r_th": 1, "gamma": 3, "f_mhz": 700},
            "deployment2": {"d_max_m": 200, "p_r_th": 1, "gamma": 3, "f_mhz": 700},
        }
    )
    s = parse_scenario_file(doc)
    assert s.beta1 == 0.05
    assert s.dep1.eta == 2.0 and s.dep1.c == 1.0
    assert s.layouts == (LayoutKind.HIGHWAY, LayoutKind.SQUARE, LayoutKind.HEXAGONAL)
    assert s.modes == (NeighborMode.NONE, NeighborMode.ADJACENT)


def test_parse_rejects_malformed_json():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario_file("{not json")


def test_parse_rejects_non_finite_numbers():
    bad = S1_DOCUMENT.replace("0.05", "NaN")
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario_file(bad)


def test_parse_rejects_non_object_top_level():
    with pytest.raises(ScenarioSchemaError):
        parse_scenario_file("[1, 2]")


def test_parse_rejects_unknown_fields():
    doc = json.loads(S1_DOCUMENT)
    doc["extra"] = 1
    with pytest.raises(ScenarioSchemaError, match="extra"):
        parse_scenario_file(json.dumps(doc))
    doc = json.loads(S1_DOCUMENT)
    doc["deployment1"]["power_dbm"] = 30
    with pytest.raises(ScenarioSchemaError, match="power_dbm"):
        parse_scenario_file(json.dumps(doc))


def test_parse_rejects_missing_fields():
    doc = json.loads(S1_DOCUMENT)
    del doc["deployment2"]
    with pytest.raises(ScenarioSchemaError, match="deployment2"):
        parse_scenario_file(json.dumps(doc))
    doc = json.loads(S1_DOCUMENT)
    del doc["deployment1"]["gamma"]
    with pytest.raises(ScenarioSchemaError, match="gamma"):
        parse_scenario_file(json.dumps(doc))


def test_parse_rejects_wrong_types():
    doc = json.loads(S1_DOCUMENT)
    doc["deployment1"]["d_max_m"] = "500"
    with pytest.raises(ScenarioSchemaError):
        parse_scenario_file(json.dumps(doc))
    doc = json.loads(S1_DOCUMENT)
    doc["layouts"] = "hexagonal"
    with pytest.raises(ScenarioSchemaError):
        parse_scenario_file(json.dumps(doc))


def test_parse_negative_d_max_names_the_field():
    doc = json.loads(S1_DOCUMENT)
    doc["deployment1"]["d_max_m"] = -5
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario_file(json.dumps(doc))
    assert "deployment1.d_max" in str(err.value)


def test_parse_rejects_beta2_overflow():
    """beta1 = 0.2 with a 10x densification puts beta2 = 2 outside the cell."""
    doc = json.loads(S1_DOCUMENT)
    doc["deployment2"]["d_max_m"] = 50
    doc["beta1"] = 0.2
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario_file(json.dumps(doc))
    assert "beta" in str(err.value)


def test_parse_rejects_invalid_enum_value():
    doc = json.loads(S1_DOCUMENT)
    doc["layouts"] = ["hexagonal", "triangular"]
    with pytest.raises(ScenarioValidationError, match=r"layouts\[1\]"):
        parse_scenario_file(json.dumps(doc))


# -- validation -------------------------------------------------------------------


def test_validate_builtin_is_clean():
    assert validate_scenario(builtin_scenario("S3")) == []


def test_validate_flags_circle_with_adjacent_mode():
    s = Scenario(
        id="X",
        description="",
        dep1=Deployment(500.0, 1.0, 3.0, 700.0),
        dep2=Deployment(250.0, 1.0, 3.0, 700.0),
        layouts=(LayoutKind.CIRCLE,),
        modes=(NeighborMode.ADJACENT,),
    )
    violations = validate_scenario(s)
    assert [v.code for v in violations] == ["no_tessellation"]
    assert violations[0].severity == "error"


def test_validate_reports_gamma_plausibility_as_warning():
    with pytest.warns(PlausibilityWarning):
        s = Scenario(
            id="X",
            description="",
            dep1=Deployment(500.0, 1.0, 9.0, 700.0),
            dep2=Deployment(250.0, 1.0, 3.0, 700.0),
        )
    violations = validate_scenario(s)
    assert [v.code for v in violations] == ["gamma_plausibility"]
    assert violations[0].severity == "warning"
    assert violations[0].path == "deployment1.gamma"


def test_validate_flags_beta2_overflow_and_eta_mismatch():
    s = Scenario(
        id="X",
        description="",
        dep1=Deployment(500.0, 1.0, 3.0, 700.0, eta=2.0),
        dep2=Deployment(50.0, 1.0, 3.0, 700.0, eta=3.0),
        beta1=0.2,
    )
    codes = {v.code for v in validate_scenario(s)}
    assert codes == {"beta_out_of_range", "unsupported_parameter_change"}


def test_scenario_rejects_bad_beta1_at_construction():
    with pytest.raises(BetaOutOfRangeError):
        Scenario(
            id="X",
            description="",
            dep1=Deployment(500.0, 1.0, 3.0, 700.0),
            dep2=Deployment(250.0, 1.0, 3.0, 700.0),
            beta1=1.5,
        )


# -- beta sweeps ------------------------------------------------------------------


def test_sweep_s1_is_constant_eight():
    """The S1 fixed-distance ratio is beta-free: constant 8 over the grid."""
    series = sweep_beta(
        builtin_scenario("S1"), LayoutKind.HEXAGONAL, NeighborMode.NONE, 0.05, 0.1, 0.01
    )
    assert len(series) == 6
    assert [b for b, _ in series] == pytest.approx([0.05, 0.06, 0.07, 0.08, 0.09, 0.10])
    assert all(value == 8.0 for _, value in series)


def test_sweep_s5_endpoint_values():
    series = sweep_beta(
        builtin_scenario("S5"), LayoutKind.HEXAGONAL, NeighborMode.NONE, 0.05, 0.1, 0.05
    )
    assert len(series) == 2
    assert series[0][1] == pytest.approx(933.032991537, rel=1e-9)
    assert series[1][1] == pytest.approx(500.0, rel=1e-12)


def test_sweep_matches_published_neighbor_table():
    """Adjacent-mode hexagonal sweep lands within one unit in the last digit
    of the published values (which are truncated, not rounded)."""
    published = {
        # sid: (values over beta1 = 0.05..0.10, absolute tolerance)
        "S1": ([7.94, 7.89, 7.83, 7.74, 7.64, 7.51], 0.01),
        "S2": ([302.0, 225.0, 170.0, 131.0, 103.0, 81.0], 1.0),
        "S5": ([323.0, 210.0, 143.0, 101.0, 74.0, 55.0], 1.0),
    }
    for sid, (expected, tol) in published.items():
        series = sweep_beta(
            builtin_scenario(sid), LayoutKind.HEXAGONAL, NeighborMode.ADJACENT,
            0.05, 0.1, 0.01,
        )
        for (beta1, value), target in zip(series, expected):
            assert value == pytest.approx(target, abs=tol), (sid, beta1)


def test_sweep_aborts_when_beta2_would_leave_the_cell():
    with pytest.raises(BetaOutOfRangeError, match="0.11"):
        sweep_beta(
            builtin_scenario("S5"), LayoutKind.HEXAGONAL, NeighborMode.NONE,
            0.05, 0.11, 0.01,
        )


def test_sweep_range_validation():
    s1 = builtin_scenario("S1")
    with pytest.raises(ValueError):
        sweep_beta(s1, LayoutKind.HEXAGONAL, NeighborMode.NONE, 0.05, 0.1, 0.0)
    with pytest.raises(ValueError):
        sweep_beta(s1, LayoutKind.HEXAGONAL, NeighborMode.NONE, 0.1, 0.05, 0.01)
    with pytest.raises(ValueError):
        sweep_beta(s1, LayoutKind.HEXAGONAL, NeighborMode.NONE, 0.0, 0.1, 0.01)


@pytest.mark.parametrize("beta_step", [1e-9, 5e-324])
def test_sweep_refuses_grid_over_point_budget_before_allocating(beta_step):
    """5e7 points, and an infinite count from a subnormal step, are refused
    from the grid length alone."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="point budget MAX_SWEEP_POINTS = 100000"):
            sweep_beta(
                builtin_scenario("S5"), LayoutKind.HEXAGONAL, NeighborMode.NONE,
                0.05, 0.1, beta_step,
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sweep_admits_grid_at_point_budget():
    series = sweep_beta(
        builtin_scenario("S1"), LayoutKind.HEXAGONAL, NeighborMode.NONE,
        0.05, 0.05 + (MAX_SWEEP_POINTS - 1) * 1e-6, 1e-6,
    )
    assert len(series) == MAX_SWEEP_POINTS


def test_all_builtin_combinations_evaluate_cleanly():
    """Every built-in scenario evaluates on every layout/mode at the default
    beta1 without error (S5's fixed point sits at beta2 = 0.5)."""
    from rfpcompare import delta_avg, delta_emitted, delta_fixed, pair_for

    for sid in builtin_scenario_ids():
        s = builtin_scenario(sid)
        for kind in s.layouts:
            for mode in s.modes:
                pair = pair_for(s, kind, mode)
                assert delta_emitted(pair) > 0
                assert delta_avg(pair) > 0
                assert delta_fixed(pair) > 0
                assert pair.beta2 <= 1.0


def test_sweep_is_monotone_for_densifying_scenarios():
    """delta(d_max) > 1 and gamma(2) <= gamma(1): non-increasing in beta1."""
    for sid in ("S1", "S2", "S5"):
        for mode in NeighborMode:
            series = sweep_beta(
                builtin_scenario(sid), LayoutKind.HEXAGONAL, mode, 0.02, 0.1, 0.01
            )
            values = [v for _, v in series]
            assert all(a >= b for a, b in zip(values, values[1:])), (sid, mode)


# -- range rules, entry point by entry point -----------------------------------------


def document(deployment1=None, deployment2=None, **top) -> str:
    """S1 as a scenario document, with deployment fields and top-level fields changed."""
    doc = json.loads(S1_DOCUMENT)
    doc["deployment1"].update(deployment1 or {})
    doc["deployment2"].update(deployment2 or {})
    return json.dumps({**doc, **top})


def scenario(dep1=(500.0, 1.0, 3.0, 700.0), dep2=(250.0, 1.0, 3.0, 700.0), **settings):
    return Scenario("X", "", Deployment(*dep1), Deployment(*dep2), **settings)


def outcome(call):
    """What ``call`` does: the exception it raises (class, field path, text), or
    else the warnings it issues and the violations it returns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except (RfpError, ValueError) as exc:
            return type(exc), getattr(exc, "path", None), str(exc)
    found = result if isinstance(result, list) else []
    return [(w.category, str(w.message)) for w in caught] + [
        (v.code, v.severity, v.path, v.message) for v in found]


S5 = builtin_scenario("S5")
HEX, CIRCLE = LayoutKind.HEXAGONAL, LayoutKind.CIRCLE
NONE, ADJACENT = NeighborMode.NONE, NeighborMode.ADJACENT
GAMMA_9 = "gamma = 9.0 is outside the plausible range [1.5, 6.5]"
BETA2 = "beta1 = 0.2 gives beta2 = beta1 * d_max(1)/d_max(2) = 2, outside (0, 1]"
CIRCLE_ADJACENT = "the circle layout cannot be evaluated in adjacent-neighbor mode"

# (id, call, outcome): every range rule at every entry point that applies it.
RANGE_CASES = [
    # Deployment fields: > 0, eta >= 0, gamma plausible.
    ("Deployment-d_max", lambda: Deployment(0.0, 1.0, 3.0, 700.0),
     (OutOfRangeError, None, "d_max must be > 0, got 0.0")),
    ("Deployment-p_r_th", lambda: Deployment(500.0, -1.0, 3.0, 700.0),
     (OutOfRangeError, None, "p_r_th must be > 0, got -1.0")),
    ("Deployment-gamma", lambda: Deployment(500.0, 1.0, 0.0, 700.0),
     (OutOfRangeError, None, "gamma must be > 0, got 0.0")),
    ("Deployment-f", lambda: Deployment(500.0, 1.0, 3.0, -700.0),
     (OutOfRangeError, None, "f must be > 0, got -700.0")),
    ("Deployment-c", lambda: Deployment(500.0, 1.0, 3.0, 700.0, c=0.0),
     (OutOfRangeError, None, "c must be > 0, got 0.0")),
    ("Deployment-eta", lambda: Deployment(500.0, 1.0, 3.0, 700.0, eta=-0.5),
     (OutOfRangeError, None, "eta must be >= 0, got -0.5")),
    ("Deployment-p_r_th-infinite", lambda: Deployment(500.0, math.inf, 3.0, 700.0),
     (OutOfRangeError, None, "p_r_th must be finite, got inf")),
    ("Deployment-eta-nan", lambda: Deployment(500.0, 1.0, 3.0, 700.0, eta=math.nan),
     (OutOfRangeError, None, "eta must be finite, got nan")),
    ("Deployment-d_max-infinite", lambda: Deployment(math.inf, 1.0, 3.0, 700.0),
     (OutOfRangeError, None, "d_max must be finite, got inf")),
    ("Deployment-eta-zero", lambda: Deployment(500.0, 1.0, 3.0, 700.0, eta=0.0), []),
    ("Deployment-gamma-plausibility", lambda: Deployment(500.0, 1.0, 9.0, 700.0),
     [(PlausibilityWarning, GAMMA_9)]),
    # The deployment fields that received_power and generate_sites take alone.
    ("received_power-f", lambda: received_power(1.0, 1.0, 3.0, 0.0),
     (OutOfRangeError, None, "f must be > 0, got 0.0")),
    ("received_power-c-nan", lambda: received_power(1.0, 1.0, 3.0, 700.0, c=math.nan),
     (OutOfRangeError, None, "c must be finite, got nan")),
    ("generate_sites-d_max-nan", lambda: generate_sites(HEX, math.nan, 2),
     (OutOfRangeError, None, "d_max must be finite, got nan")),
    # Scenario: beta1 in (0, 1).
    ("Scenario-beta1-high", lambda: scenario(beta1=1.5),
     (BetaOutOfRangeError, None, "beta1 must be in (0, 1), got 1.5")),
    ("Scenario-beta1-zero", lambda: scenario(beta1=0.0),
     (BetaOutOfRangeError, None, "beta1 must be in (0, 1), got 0.0")),
    # DeploymentPair: beta1 in (0, 1), beta2 <= 1, no circle in adjacent mode.
    ("DeploymentPair-beta1", lambda: DeploymentPair(S5.dep1, S5.dep2, HEX, 1.0, NONE),
     (BetaOutOfRangeError, None, "beta1 must be in (0, 1), got 1.0")),
    ("DeploymentPair-beta2", lambda: DeploymentPair(S5.dep1, S5.dep2, HEX, 0.2, NONE),
     (BetaOutOfRangeError, None, BETA2)),
    ("DeploymentPair-circle-adjacent",
     lambda: DeploymentPair(S5.dep1, S5.dep2, CIRCLE, 0.05, ADJACENT),
     (NoTessellationError, None, CIRCLE_ADJACENT)),
    ("DeploymentPair-eta-change", lambda: DeploymentPair(
        Deployment(500.0, 1.0, 3.0, 700.0), Deployment(250.0, 1.0, 3.0, 700.0, eta=2.5),
        HEX), []),
    # parse_scenario_file: deployment fields, beta1 and beta2, by field path.
    ("parse-d_max", lambda: parse_scenario_file(document({"d_max_m": -5})),
     (ScenarioValidationError, "deployment1.d_max_m",
      "deployment1.d_max_m: d_max_m must be > 0, got -5.0")),
    ("parse-p_r_th", lambda: parse_scenario_file(document(None, {"p_r_th": 0})),
     (ScenarioValidationError, "deployment2.p_r_th",
      "deployment2.p_r_th: p_r_th must be > 0, got 0.0")),
    ("parse-gamma", lambda: parse_scenario_file(document({"gamma": -3})),
     (ScenarioValidationError, "deployment1.gamma",
      "deployment1.gamma: gamma must be > 0, got -3.0")),
    ("parse-f", lambda: parse_scenario_file(document(None, {"f_mhz": 0})),
     (ScenarioValidationError, "deployment2.f_mhz",
      "deployment2.f_mhz: f_mhz must be > 0, got 0.0")),
    ("parse-c", lambda: parse_scenario_file(document({"c": 0})),
     (ScenarioValidationError, "deployment1.c", "deployment1.c: c must be > 0, got 0.0")),
    ("parse-eta", lambda: parse_scenario_file(document(None, {"eta": -1})),
     (ScenarioValidationError, "deployment2.eta", "deployment2.eta: eta must be >= 0, got -1.0")),
    ("parse-p_r_th-1e400", lambda: parse_scenario_file(
        document().replace('"p_r_th": 1,', '"p_r_th": 1e400,', 1)),
     (ScenarioValidationError, "deployment1.p_r_th",
      "deployment1.p_r_th: p_r_th must be finite, got inf")),
    ("parse-eta-1e400-on-both", lambda: parse_scenario_file(
        document().replace('"eta": 2', '"eta": 1e400')),
     (ScenarioValidationError, "deployment1.eta", "deployment1.eta: eta must be finite, got inf")),
    ("parse-beta1", lambda: parse_scenario_file(document(beta1=1)),
     (ScenarioValidationError, "beta1", "beta1: beta1 must be in (0, 1), got 1.0")),
    ("parse-beta2", lambda: parse_scenario_file(document(None, {"d_max_m": 50}, beta1=0.2)),
     (ScenarioValidationError, "beta1", f"beta1: {BETA2}")),
    # The pair rules that validate_scenario reports are not parse errors.
    ("parse-eta-change", lambda: parse_scenario_file(document(None, {"eta": 3})), []),
    ("parse-circle-adjacent", lambda: parse_scenario_file(
        document(layouts=["circle"], modes=["adjacent"])), []),
    ("parse-gamma-plausibility", lambda: parse_scenario_file(document({"gamma": 9})),
     [(PlausibilityWarning, GAMMA_9)]),
    # validate_scenario: beta2, circle in adjacent mode, shared eta, gamma.
    ("validate-beta2", lambda: validate_scenario(
        scenario(dep2=(50.0, 1.0, 3.0, 700.0), beta1=0.2)),
     [("beta_out_of_range", "error", "beta1", BETA2)]),
    ("validate-circle-adjacent", lambda: validate_scenario(
        scenario(layouts=(CIRCLE,), modes=(ADJACENT,))),
     [("no_tessellation", "error", "layouts", CIRCLE_ADJACENT)]),
    ("validate-eta-change", lambda: validate_scenario(
        scenario(dep2=(250.0, 1.0, 3.0, 700.0, 3.0))),
     [("unsupported_parameter_change", "error", "deployment2.eta",
       "deployments must share eta, got 2.0 and 3.0")]),
    ("validate-gamma-plausibility", lambda: validate_scenario(
        scenario(dep2=(250.0, 1.0, 1.2, 700.0))),
     [(PlausibilityWarning, "gamma = 1.2 is outside the plausible range [1.5, 6.5]"),
      ("gamma_plausibility", "warning", "deployment2.gamma",
       "gamma = 1.2 is outside the plausible range [1.5, 6.5]")]),
    ("validate-all-errors-in-order", lambda: validate_scenario(scenario(
        dep2=(50.0, 1.0, 3.0, 700.0, 3.0), beta1=0.2, layouts=(CIRCLE,), modes=(ADJACENT,))),
     [("beta_out_of_range", "error", "beta1", BETA2),
      ("no_tessellation", "error", "layouts", CIRCLE_ADJACENT),
      ("unsupported_parameter_change", "error", "deployment2.eta",
       "deployments must share eta, got 2.0 and 3.0")]),
    # sweep_beta: every grid point's beta1 below 1 and beta2 <= 1.
    ("sweep-beta2", lambda: sweep_beta(S5, HEX, NONE, 0.05, 0.11, 0.01),
     (BetaOutOfRangeError, None,
      "beta1 = 0.11 gives beta2 = beta1 * d_max(1)/d_max(2) = 1.1, outside (0, 1]")),
    ("sweep-beta1", lambda: sweep_beta(builtin_scenario("S4"), HEX, NONE, 0.9, 1.0, 0.1),
     (BetaOutOfRangeError, None, "beta1 must be in (0, 1), got 1.0")),
    # closed_form_delta: beta1 in (0, 1) for the fixed-distance ratio.
    ("closed_form_delta-beta1",
     lambda: closed_form_delta("S1", Metric.PR_FX, HEX, NONE, 1.0),
     (BetaOutOfRangeError, None, "beta1 must be in (0, 1), got 1.0")),
    ("closed_form_delta-beta1-zero",
     lambda: closed_form_delta("S1", Metric.PR_FX, HEX, NONE, 0.0),
     (BetaOutOfRangeError, None, "beta1 must be in (0, 1), got 0.0")),
    # delta_emitted: shared eta.
    ("delta_emitted-eta-change", lambda: delta_emitted(DeploymentPair(
        Deployment(500.0, 1.0, 3.0, 700.0), Deployment(250.0, 1.0, 3.0, 700.0, eta=2.5),
        HEX)),
     (UnsupportedParameterChangeError, None, "deployments must share eta, got 2.0 and 2.5")),
]


@pytest.mark.parametrize("call,expected", [pytest.param(call, expected, id=case_id)
                                           for case_id, call, expected in RANGE_CASES])
def test_range_rule_outcome(call, expected):
    """Exception class and text (with the field path for a scenario document),
    or the warnings and violations, of each range rule at each entry point."""
    assert outcome(call) == expected


DEP = Deployment(500.0, 1.0, 3.0, 700.0)
LATTICE = generate_sites(HEX, 500.0, 2)

# (id, call, message): every refusal of a value that a caller passes in.
REFUSALS = [
    ("non_finite", lambda: Deployment(500.0, math.nan, 3.0, 700.0),
     "p_r_th must be finite, got nan"),
    ("out_of_range", lambda: Deployment(500.0, 1.0, -3.0, 700.0), "gamma must be > 0, got -3.0"),
    ("rfp_upper_bound-n_i", lambda: rfp_upper_bound(DEP, 100.0, HEX, -1),
     "n_i must be >= 0, got -1"),
    ("rfp_upper_bound-n_i-not-an-integer", lambda: rfp_upper_bound(DEP, 100.0, HEX, math.nan),
     "n_i must be an integer, got nan"),
    ("Region-degenerate", lambda: Region(1.0, 0.0, 0.0, 0.0),
     "degenerate region bounds: Region(x_min=1.0, x_max=0.0, y_min=0.0, y_max=0.0)"),
    ("generate_sites-rings", lambda: generate_sites(HEX, 500.0, 11),
     "rings must be in [1, 10], got 11"),
    ("generate_sites-rings-not-an-integer", lambda: generate_sites(LayoutKind.SQUARE, 500.0, 2.5),
     "rings must be an integer, got 2.5"),
    ("generate_sites-float-range", lambda: generate_sites(LayoutKind.HIGHWAY, 1e307, 10),
     "d_max 1e+307 m with 10 rings puts highway sites past the largest float, 1.79769e+308 m"),
    ("compute_field-resolution", lambda: compute_field(LATTICE, DEP, math.inf),
     "resolution must be finite and > 0, got inf"),
    ("compute_field-infinite-bound",
     lambda: compute_field(LATTICE, DEP, 5.0, Region(-math.inf, 0.0, 0.0, 0.0)),
     "region bound x_min must be finite, got -inf"),
    ("compute_field-pixel-budget", lambda: compute_field(LATTICE, DEP, 0.1),
     "resolution 0.1 m needs about 1.05e+08 pixels, over the pixel budget "
     "MAX_FIELD_PIXELS = 4194304"),
    ("empirical_alpha-resolution", lambda: empirical_alpha(LATTICE, 6.0),
     "resolution must be > 0 and <= d_max/100 = 5.0, got 6.0"),
    ("central_alpha-no-usable-pixel",
     lambda: central_alpha(np.array([1]), np.array([5.0]), 1.0, 100.0),
     "resolution 1 m leaves no usable pixel in the central cell (pixels: 1, excluded: 0)"),
    ("estimate_alpha-n_samples", lambda: estimate_alpha_monte_carlo(HEX, 999, 1),
     "n_samples must be >= 1000, got 999"),
    ("estimate_alpha-n_samples-not-an-integer",
     lambda: estimate_alpha_monte_carlo(HEX, 1500.5, 1),
     "n_samples must be an integer, got 1500.5"),
    ("estimate_alpha-seed", lambda: estimate_alpha_monte_carlo(HEX, 1000, -1),
     "seed must be >= 0, got -1"),
    ("estimate_alpha-seed-not-an-integer", lambda: estimate_alpha_monte_carlo(HEX, 1000, 1.5),
     "seed must be an integer, got 1.5"),
    ("sweep_beta-step", lambda: sweep_beta(S5, HEX, NONE, 0.05, 0.1, 0.0),
     "beta_step must be > 0, got 0.0"),
    ("sweep_beta-bounds", lambda: sweep_beta(S5, HEX, NONE, 0.1, 0.05, 0.01),
     "need 0 < beta_start <= beta_end, got [0.1, 0.05]"),
    ("sweep_beta-point-budget", lambda: sweep_beta(S5, HEX, NONE, 0.05, 0.1, 1e-9),
     "beta grid [0.05, 0.1] in steps of 1e-09 needs about 5e+07 points, over the point "
     "budget MAX_SWEEP_POINTS = 100000"),
]


@pytest.mark.parametrize("call,message", [pytest.param(call, message, id=case_id)
                                          for case_id, call, message in REFUSALS])
def test_a_refused_value_is_an_out_of_range_error(call, message):
    """Every refusal of an input value is an ``OutOfRangeError``: an ``RfpError``,
    which the command line reports as one error line with exit 2, and still a
    ``ValueError`` for callers that catch that."""
    with pytest.raises(OutOfRangeError) as refused:
        call()
    assert isinstance(refused.value, RfpError) and isinstance(refused.value, ValueError)
    assert str(refused.value) == message


def test_numpy_integer_counts_pass():
    """The ring, neighbor and sample counts and the seed accept any integer
    type, numpy's too."""
    assert len(generate_sites(HEX, 500.0, np.int64(2)).sites) == 19
    assert rfp_upper_bound(DEP, 100.0, HEX, np.int32(6)) == rfp_upper_bound(DEP, 100.0, HEX, 6)
    assert 0 < estimate_alpha_monte_carlo(HEX, np.int64(1000), np.uint8(1))[0] < 1
