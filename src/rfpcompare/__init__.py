"""Deployment-comparison toolkit for received RF power ("pollution") under
regular cellular coverage layouts.

Closed-form comparison ratios between paired deployments, validated by
brute-force geometric and lattice-field oracles.
"""

import importlib

__version__ = "0.1.0"

#: Defaults of ``validate`` and ``run_validation``, kept here so that the
#: command line's parser needs no library module.
DEFAULT_SEED = 58121
DEFAULT_MC_SAMPLES = 2_000_000

#: The public names, by the module that defines them. Importing the package
#: imports none of these modules: ``__getattr__`` imports one on first access
#: to any of its names.
_EXPORTS = {
    "comparison": ("CLOSED_FORM_RTOL", "ClosedFormCheck", "ComparisonResult", "DeploymentPair",
                   "Metric", "closed_form_delta", "delta_avg", "delta_emitted", "delta_fixed",
                   "evaluate_pair", "pair_for", "sweep_beta", "verify_closed_forms"),
    "errors": ("BetaOutOfRangeError", "BoundNotValidError", "NoTessellationError",
               "OutOfRangeError", "PlausibilityWarning", "RfpError", "ScenarioError",
               "ScenarioSchemaError", "ScenarioSyntaxError", "ScenarioValidationError",
               "SingularDistanceError", "UnsupportedParameterChangeError"),
    "geometry": ("LayoutKind", "TESSELLATING_KINDS", "cell_contains", "estimate_alpha_monte_carlo"),
    "gridsim": ("Region", "RfpField", "SiteLattice", "central_alpha", "compute_field",
                "default_region", "empirical_alpha", "export_field_csv", "field_bands",
                "generate_sites", "verify_upper_bound"),
    "propagation": ("Deployment", "GAMMA_PLAUSIBLE_RANGE", "NeighborMode", "Violation",
                    "emitted_power", "in_deployment", "received_power", "rfp_avg", "rfp_fixed",
                    "rfp_upper_bound"),
    "scenarios": ("DEFAULT_BETA1", "Scenario", "builtin_scenario", "builtin_scenario_ids",
                  "parse_scenario_file", "validate_scenario"),
    "selfcheck": ("CheckResult", "run_validation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines ``name``, and bind the name here.

    Any other name raises ``AttributeError``; for a submodule's name, that
    lets ``from rfpcompare import gridsim`` go on to import the submodule.
    """
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
