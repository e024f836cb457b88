"""Built-in comparison scenarios, JSON scenario documents, and their validation.

A scenario is a pair of deployments plus the evaluation settings (beta1, the
layouts and neighbor modes to run). The five built-ins cover densification
factors from 2x to 10x, path-loss improvement, frequency change, and a
sensitivity-threshold change; the threshold ratio is realized by fixing
deployment (1) at one model unit.
"""

from __future__ import annotations

import json

from ._record import record
from .errors import ScenarioError
from .geometry import LayoutKind, TESSELLATING_KINDS
from .propagation import Deployment, NeighborMode, Violation, range_violations, refuse

_DEFAULT_LAYOUTS = TESSELLATING_KINDS
_DEFAULT_MODES = (NeighborMode.NONE, NeighborMode.ADJACENT)

#: Default fixed-distance fraction: 25 m from the site in a 500 m cell.
DEFAULT_BETA1 = 0.05


@record
class Scenario:
    """A named deployment pair plus evaluation settings."""

    id: str
    description: str
    dep1: Deployment
    dep2: Deployment
    beta1: float = DEFAULT_BETA1
    layouts: tuple[LayoutKind, ...] = _DEFAULT_LAYOUTS
    modes: tuple[NeighborMode, ...] = _DEFAULT_MODES

    def __post_init__(self) -> None:
        refuse(range_violations(beta1=self.beta1))
        object.__setattr__(self, "layouts", tuple(LayoutKind(k) for k in self.layouts))
        object.__setattr__(self, "modes", tuple(NeighborMode(m) for m in self.modes))


def _builtin(sid, desc, d1, d2, pth2, g1, g2, f1, f2) -> Scenario:
    return Scenario(
        id=sid,
        description=desc,
        dep1=Deployment(d_max=d1, p_r_th=1.0, gamma=g1, f=f1),
        dep2=Deployment(d_max=d2, p_r_th=pth2, gamma=g2, f=f2),
    )


# Threshold ratios are realized as p_r_th(1) = 1, p_r_th(2) = 1/ratio: only
# the ratio is observable in every reported metric.
_BUILTIN_SCENARIOS = {
    "S1": _builtin("S1", "Light densification", 500.0, 250.0, 1.0, 3.0, 3.0, 700.0, 700.0),
    "S2": _builtin("S2", "Moderate densification", 500.0, 100.0, 1.0, 3.0, 2.1, 700.0, 700.0),
    "S3": _builtin(
        "S3", "Light densification, frequency change", 500.0, 250.0, 1.0, 3.0, 3.0, 700.0, 3700.0
    ),
    "S4": _builtin(
        "S4",
        "Same deployment, service & frequency change",
        500.0, 500.0, 2.0, 3.0, 3.0, 700.0, 3700.0,
    ),
    "S5": _builtin(
        "S5",
        "Strong densification, service & frequency change",
        500.0, 50.0, 2.0, 3.0, 2.1, 700.0, 3700.0,
    ),
}


def builtin_scenario_ids() -> tuple[str, ...]:
    """Identifiers of the built-in scenarios, in canonical order."""
    return tuple(_BUILTIN_SCENARIOS)


def builtin_scenario(scenario_id: str) -> Scenario:
    """Return a built-in scenario by id (case-insensitive)."""
    key = str(scenario_id).upper()
    try:
        return _BUILTIN_SCENARIOS[key]
    except KeyError:
        raise ValueError(
            f"unknown scenario id {scenario_id!r}; valid ids: "
            + ", ".join(_BUILTIN_SCENARIOS)
        ) from None


# -- JSON scenario documents -------------------------------------------------

_DEPLOYMENT_REQUIRED = ("d_max_m", "p_r_th", "gamma", "f_mhz")
_DEPLOYMENT_OPTIONAL = {"eta": 2.0, "c": 1.0}
_TOP_REQUIRED = ("id", "deployment1", "deployment2")
_TOP_OPTIONAL = ("description", "beta1", "layouts", "modes")


def _reject_constant(token: str) -> float:
    raise ScenarioError(f"non-finite number {token!r} is not allowed")


def _as_number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path} must be a number, got {type(value).__name__}")
    return float(value)


def _check_keys(obj: dict, required: tuple, optional: tuple, path: str) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"unknown field {path}{key!r}")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"missing required field {path}{key!r}")


def _refuse_in_document(violations: list[Violation]) -> None:
    """Raise the first error of ``violations`` as a ScenarioError that begins
    with its field path."""
    for v in violations:
        if v.severity == "error":
            raise ScenarioError(f"{v.path}: {v.message}")


def _parse_deployment(obj: object, path: str) -> Deployment:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path} must be an object")
    _check_keys(obj, _DEPLOYMENT_REQUIRED, tuple(_DEPLOYMENT_OPTIONAL), f"{path}.")
    values = {key: _as_number(obj[key], f"{path}.{key}") for key in obj}
    _refuse_in_document(range_violations(fields=[(f"{path}.{key}", value)
                                                 for key, value in values.items()]))
    return Deployment(
        d_max=values["d_max_m"],
        p_r_th=values["p_r_th"],
        gamma=values["gamma"],
        f=values["f_mhz"],
        eta=values.get("eta", _DEPLOYMENT_OPTIONAL["eta"]),
        c=values.get("c", _DEPLOYMENT_OPTIONAL["c"]),
    )


def _parse_enum_list(value: object, enum_type, path: str) -> tuple:
    if not isinstance(value, list):
        raise ScenarioError(f"{path} must be an array of strings")
    members = []
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise ScenarioError(f"{path}[{i}] must be a string")
        try:
            members.append(enum_type(item))
        except ValueError:
            valid = ", ".join(m.value for m in enum_type)
            raise ScenarioError(f"{path}[{i}]: invalid value {item!r}; "
                                f"expected one of: {valid}") from None
    return tuple(members)


def parse_scenario_file(document: str) -> Scenario:
    """Parse and validate a JSON scenario document.

    Parsing is strict (closed-world): unknown fields are rejected rather than
    ignored, and non-finite numbers are refused. Every refusal is a
    ScenarioError; a value outside its range is named by its field path.
    """
    try:
        data = json.loads(document, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError("top-level value must be an object")
    _check_keys(data, _TOP_REQUIRED, _TOP_OPTIONAL, "")

    if not isinstance(data["id"], str):
        raise ScenarioError("id must be a string")
    if not data["id"]:
        raise ScenarioError("id: must not be empty")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError("description must be a string")

    dep1 = _parse_deployment(data["deployment1"], "deployment1")
    dep2 = _parse_deployment(data["deployment2"], "deployment2")

    beta1 = _as_number(data["beta1"], "beta1") if "beta1" in data else DEFAULT_BETA1
    _refuse_in_document(range_violations(beta1=beta1, d_max=(dep1.d_max, dep2.d_max)))

    layouts = (
        _parse_enum_list(data["layouts"], LayoutKind, "layouts")
        if "layouts" in data
        else _DEFAULT_LAYOUTS
    )
    modes = (
        _parse_enum_list(data["modes"], NeighborMode, "modes")
        if "modes" in data
        else _DEFAULT_MODES
    )
    return Scenario(
        id=data["id"],
        description=description,
        dep1=dep1,
        dep2=dep2,
        beta1=beta1,
        layouts=layouts,
        modes=modes,
    )


# -- Validation --------------------------------------------------------------

def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Check a scenario's cross-field constraints.

    Returns one entry per finding; entries with severity "error" make the
    scenario unusable, warnings are advisory (plausibility guards).
    """
    violations = [] if scenario.id else [
        Violation("empty_id", "error", "id", "scenario id must not be empty")]
    dep1, dep2 = scenario.dep1, scenario.dep2
    return violations + range_violations(
        fields=[("deployment1.gamma", dep1.gamma), ("deployment2.gamma", dep2.gamma)],
        beta1=scenario.beta1, d_max=(dep1.d_max, dep2.d_max), eta=(dep1.eta, dep2.eta),
        layouts=scenario.layouts, modes=scenario.modes)
