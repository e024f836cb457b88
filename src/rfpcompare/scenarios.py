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

#: Default fixed-distance fraction: 25 m from the site in a 500 m cell.
DEFAULT_BETA1 = 0.05


@record
class Scenario:
    """A named deployment pair plus evaluation settings."""

    id: str
    description: str = ""
    dep1: Deployment
    dep2: Deployment
    beta1: float = DEFAULT_BETA1
    layouts: tuple[LayoutKind, ...] = TESSELLATING_KINDS
    modes: tuple[NeighborMode, ...] = (NeighborMode.NONE, NeighborMode.ADJACENT)

    def __post_init__(self) -> None:
        refuse(range_violations(beta1=self.beta1))
        object.__setattr__(self, "layouts", tuple(LayoutKind(k) for k in self.layouts))
        object.__setattr__(self, "modes", tuple(NeighborMode(m) for m in self.modes))


# Threshold ratios are realized as p_r_th(1) = 1, p_r_th(2) = 1/ratio: only
# the ratio is observable in every reported metric. A row: id, description,
# d_max(1), d_max(2), p_r_th(2), gamma(1), gamma(2), f(1), f(2).
_BUILTIN_SCENARIOS = {
    sid: Scenario(sid, desc, Deployment(d1, 1.0, g1, f1), Deployment(d2, pth2, g2, f2))
    for sid, desc, d1, d2, pth2, g1, g2, f1, f2 in (
        ("S1", "Light densification", 500.0, 250.0, 1.0, 3.0, 3.0, 700.0, 700.0),
        ("S2", "Moderate densification", 500.0, 100.0, 1.0, 3.0, 2.1, 700.0, 700.0),
        ("S3", "Light densification, frequency change",
         500.0, 250.0, 1.0, 3.0, 3.0, 700.0, 3700.0),
        ("S4", "Same deployment, service & frequency change",
         500.0, 500.0, 2.0, 3.0, 3.0, 700.0, 3700.0),
        ("S5", "Strong densification, service & frequency change",
         500.0, 50.0, 2.0, 3.0, 2.1, 700.0, 3700.0),
    )
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

#: The fields of a scenario document and of its deployments, in the order
#: they are checked, each with the record field it sets. A field is optional
#: where its record has a default, which the field takes when it is absent.
_FIELDS = {
    Scenario: {"id": "id", "description": "description", "deployment1": "dep1",
               "deployment2": "dep2", "beta1": "beta1", "layouts": "layouts", "modes": "modes"},
    Deployment: {"d_max_m": "d_max", "p_r_th": "p_r_th", "gamma": "gamma", "f_mhz": "f",
                 "eta": "eta", "c": "c"},
}


def _reject_constant(token: str) -> float:
    raise ScenarioError(f"non-finite number {token!r} is not allowed")


def _as_number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path} must be a number, got {type(value).__name__}")
    return float(value)


def _check_keys(obj: object, record_type: type, path: str) -> dict:
    """``obj``, the document object at ``path`` that gives a ``record_type``.
    Refuses a value that is not an object, then its first unknown field, then
    its first missing required field."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path or 'top-level value'} must be an object")
    prefix, fields = f"{path}." if path else "", _FIELDS[record_type]
    for key in obj:
        if key not in fields:
            raise ScenarioError(f"unknown field {prefix}{key!r}")
    for key, name in fields.items():
        if key not in obj and name not in record_type._field_defaults:
            raise ScenarioError(f"missing required field {prefix}{key!r}")
    return obj


def _refuse_in_document(violations: list[Violation]) -> None:
    """Raise the first error of ``violations`` as a ScenarioError that begins
    with its field path."""
    for v in violations:
        if v.severity == "error":
            raise ScenarioError(f"{v.path}: {v.message}")


def _parse_deployment(obj: object, path: str) -> Deployment:
    values = {key: _as_number(value, f"{path}.{key}")
              for key, value in _check_keys(obj, Deployment, path).items()}
    _refuse_in_document(range_violations(fields=[(f"{path}.{key}", value)
                                                 for key, value in values.items()]))
    return Deployment(**{_FIELDS[Deployment][key]: value for key, value in values.items()})


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
    data = _check_keys(data, Scenario, "")
    if not isinstance(data["id"], str):
        raise ScenarioError("id must be a string")
    if not data["id"]:
        raise ScenarioError("id: must not be empty")
    if "description" in data and not isinstance(data["description"], str):
        raise ScenarioError("description must be a string")
    values = dict(data)
    for key in ("deployment1", "deployment2"):
        values[key] = _parse_deployment(data[key], key)
    if "beta1" in data:
        values["beta1"] = _as_number(data["beta1"], "beta1")
    _refuse_in_document(range_violations(
        beta1=values.get("beta1", Scenario._field_defaults["beta1"]),
        d_max=(values["deployment1"].d_max, values["deployment2"].d_max)))
    for key, enum_type in (("layouts", LayoutKind), ("modes", NeighborMode)):
        if key in data:
            values[key] = _parse_enum_list(data[key], enum_type, key)
    return Scenario(**{_FIELDS[Scenario][key]: value for key, value in values.items()})


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
