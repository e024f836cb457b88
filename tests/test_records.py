"""The package's frozen record classes: construction, immutability, equality,
``__post_init__`` and repr, pinned on the real classes."""

from __future__ import annotations

import copy
import pickle
import re
import warnings
import weakref

import pytest

from rfpcompare import (
    ComparisonResult,
    Deployment,
    DeploymentPair,
    LayoutKind,
    NeighborMode,
    OutOfRangeError,
    PlausibilityWarning,
    Region,
    Scenario,
    builtin_scenario,
    compute_field,
    generate_sites,
)


def test_positional_keyword_and_default_arguments_build_the_same_record():
    full = Deployment(500.0, 1.0, 3.0, 700.0, 2.0, 1.0)
    assert Deployment(d_max=500.0, p_r_th=1.0, gamma=3.0, f=700.0, eta=2.0, c=1.0) == full
    assert Deployment(500.0, 1.0, gamma=3.0, f=700.0) == full
    assert Deployment(500.0, 1.0, 3.0, 700.0) == full
    assert (full.d_max, full.p_r_th, full.gamma, full.f, full.eta, full.c) == (
        500.0, 1.0, 3.0, 700.0, 2.0, 1.0)
    assert Deployment(500.0, 1.0, 3.0, 700.0, c=4.0).c == 4.0


@pytest.mark.parametrize("args,kwargs", [
    ((500.0, 1.0, 3.0), {}),                                # missing f
    ((), {"d_max": 500.0, "p_r_th": 1.0, "gamma": 3.0}),    # missing f, by keyword
    ((500.0, 1.0, 3.0, 700.0), {"colour": 1}),              # unknown keyword
    ((), {"d_max": 500.0, "p_r_th": 1.0, "gamma": 3.0, "f": 700.0,
          "eta": 2.0, "colour": 1}),                        # unknown keyword in place of c
    ((500.0, 1.0, 3.0, 700.0), {"d_max": 500.0}),           # d_max twice
    ((500.0, 1.0, 3.0, 700.0, 2.0, 1.0, 0.0), {}),          # too many
], ids=["missing", "missing-keyword", "unknown", "unknown-for-field", "duplicate",
        "too-many"])
def test_a_bad_call_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError, match="Deployment"):
        Deployment(*args, **kwargs)


def test_fields_are_frozen():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    with pytest.raises(AttributeError):
        dep.gamma = 2.0
    with pytest.raises(AttributeError):
        del dep.gamma
    with pytest.raises(AttributeError):
        dep.colour = 1
    assert dep.gamma == 3.0


def test_value_records_compare_and_hash_by_their_fields():
    a = Deployment(500.0, 1.0, 3.0, 700.0)
    b = Deployment(d_max=500.0, p_r_th=1.0, gamma=3.0, f=700.0)
    assert a == b and hash(a) == hash(b)
    assert a != Deployment(500.0, 1.0, 3.0, 3700.0)
    assert a != (500.0, 1.0, 3.0, 700.0, 2.0, 1.0)
    assert len({a, b}) == 1

    result = ComparisonResult("S1", LayoutKind.SQUARE, NeighborMode.NONE, 8.0, 1.0, 8.0)
    same = ComparisonResult(scenario_id="S1", layout_kind=LayoutKind.SQUARE,
                            mode=NeighborMode.NONE, delta_pe=8.0, delta_pr_avg=1.0,
                            delta_pr_fx=8.0)
    assert result == same and hash(result) == hash(same)
    assert result != ComparisonResult("S2", LayoutKind.SQUARE, NeighborMode.NONE, 8.0, 1.0, 8.0)


def test_array_records_compare_by_identity():
    lattice = generate_sites(LayoutKind.HIGHWAY, 500.0, rings=1)
    twin = generate_sites(LayoutKind.HIGHWAY, 500.0, rings=1)
    assert lattice == lattice and lattice != twin
    assert len({lattice, twin}) == 2

    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    field = compute_field(lattice, dep, resolution=100.0)
    assert field == field and field != compute_field(lattice, dep, resolution=100.0)
    assert isinstance(hash(field), int)


def test_post_init_normalises_scenario_layouts_and_modes():
    s1 = builtin_scenario("S1")
    scenario = Scenario("X", "", s1.dep1, s1.dep2, layouts=["square", "highway"],
                        modes=["adjacent"])
    assert scenario.layouts == (LayoutKind.SQUARE, LayoutKind.HIGHWAY)
    assert all(type(kind) is LayoutKind for kind in scenario.layouts)
    assert scenario.modes == (NeighborMode.ADJACENT,)
    assert Scenario("X", "", s1.dep1, s1.dep2).layouts == (
        LayoutKind.HIGHWAY, LayoutKind.SQUARE, LayoutKind.HEXAGONAL)


def test_post_init_checks_run_for_every_argument_form():
    s1 = builtin_scenario("S1")
    with pytest.raises(ValueError):
        Deployment(0.0, 1.0, 3.0, 700.0)
    with pytest.raises(ValueError):
        Deployment(d_max=500.0, p_r_th=1.0, gamma=3.0, f=700.0, eta=-1.0)
    with pytest.raises(OutOfRangeError, match=re.escape("beta1 must be in (0, 1), got 1.5")):
        DeploymentPair(s1.dep1, s1.dep2, LayoutKind.SQUARE, beta1=1.5)


def test_repr_matches_the_former_dataclass_output():
    assert repr(Region(-1.0, 2.5, 0.0, 0.0)) == (
        "Region(x_min=-1.0, x_max=2.5, y_min=0.0, y_max=0.0)")
    assert repr(Deployment(500.0, 1.0, 3.0, 700.0)) == (
        "Deployment(d_max=500.0, p_r_th=1.0, gamma=3.0, f=700.0, eta=2.0, c=1.0)")
    with pytest.raises(ValueError) as excinfo:
        Region(1.0, 0.0, 0.0, 0.0)
    assert str(excinfo.value) == (
        "degenerate region bounds: Region(x_min=1.0, x_max=0.0, y_min=0.0, y_max=0.0)")


def test_plausibility_warning_names_the_line_that_built_the_deployment():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always", PlausibilityWarning)
        Deployment(500.0, 1.0, 9.0, 700.0)
        Deployment(d_max=500.0, p_r_th=1.0, gamma=1.2, f=700.0)
    assert [w.filename for w in rec] == [__file__, __file__]
    assert all(issubclass(w.category, PlausibilityWarning) for w in rec)



def test_copy_and_pickle_round_trip_without_post_init():
    s1 = builtin_scenario("S1")
    with warnings.catch_warnings():
        warnings.simplefilter("error", PlausibilityWarning)
        for record in (s1.dep1, s1, Region(-1.0, 2.5, 0.0, 0.0)):
            for twin in (copy.copy(record), copy.deepcopy(record),
                         pickle.loads(pickle.dumps(record))):
                assert twin == record and type(twin) is type(record)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("ignore", PlausibilityWarning)
            implausible = Deployment(500.0, 1.0, 9.0, 700.0)
        # Restoring a record re-runs no check and re-emits no warning.
        assert copy.deepcopy(implausible) == implausible
        assert pickle.loads(pickle.dumps(implausible)) == implausible
    lattice = generate_sites(LayoutKind.HIGHWAY, 500.0, rings=1)
    twin = pickle.loads(pickle.dumps(lattice))
    assert twin != lattice and (twin.sites == lattice.sites).all()
    assert twin.kind is lattice.kind and twin.d_max == lattice.d_max


def test_records_take_weak_references():
    dep = Deployment(500.0, 1.0, 3.0, 700.0)
    assert weakref.ref(dep)() is dep
