"""ScenarioSpec: strict-JSON round-trips, bounds, param whitelists."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import FAULT_KINDS, single_fault_plan
from repro.fuzz import AnomalySpec, ScenarioSpec, default_seeds
from repro.workload import AnomalyCategory


def test_default_spec_is_valid_and_round_trips():
    spec = ScenarioSpec()
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_default_seeds_are_distinct_and_round_trip():
    seeds = default_seeds()
    assert len({s.name for s in seeds}) == len(seeds)
    for spec in seeds:
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_unknown_top_level_key_rejected():
    data = ScenarioSpec().to_dict()
    data["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        ScenarioSpec.from_dict(data)


def test_unknown_anomaly_key_rejected():
    data = ScenarioSpec().to_dict()
    data["anomaly"]["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        ScenarioSpec.from_dict(data)


def test_unknown_category_rejected():
    with pytest.raises(ValueError, match="unknown anomaly category"):
        AnomalySpec(category="cosmic_ray")


def test_param_whitelist_enforced_per_category():
    AnomalySpec(category="row_lock", params={"lock_hold_ms": (250.0, 450.0)})
    with pytest.raises(ValueError, match="not valid for category"):
        AnomalySpec(category="business_spike", params={"lock_hold_ms": (1.0, 2.0)})


def test_pair_params_must_be_ordered_positive():
    with pytest.raises(ValueError, match="lo <= hi"):
        AnomalySpec(category="row_lock", params={"target_rate": (16.0, 6.0)})
    with pytest.raises(ValueError, match="pair"):
        AnomalySpec(category="row_lock", params={"target_rate": 6.0})


def test_composite_fields_only_on_composite():
    with pytest.raises(ValueError, match="composite"):
        AnomalySpec(category="row_lock", same_target=True)
    with pytest.raises(ValueError, match="composite"):
        AnomalySpec(category="row_lock", categories=("row_lock", "poor_sql"))


def test_repeated_composite_categories_require_same_target():
    with pytest.raises(ValueError, match="same_target"):
        AnomalySpec(category="composite", categories=("row_lock", "row_lock"))
    spec = AnomalySpec(
        category="composite",
        categories=("row_lock", "row_lock"),
        same_target=True,
    )
    kwargs = spec.injector_kwargs()
    assert kwargs["allow_same_target"] is True
    assert kwargs["categories"] == (
        AnomalyCategory.ROW_LOCK, AnomalyCategory.ROW_LOCK
    )


def test_window_bounds_enforced():
    # onset too early for the detector's history requirement.
    with pytest.raises(ValueError, match="onset_frac"):
        ScenarioSpec(anomaly=AnomalySpec(onset_frac=0.3))
    # window too narrow at the minimum duration.
    with pytest.raises(ValueError, match="narrow"):
        ScenarioSpec(
            duration_s=180,
            anomaly=AnomalySpec(onset_frac=0.9, end_frac=1.0),
        )


def test_faults_parse_through_strict_plan_parser():
    data = ScenarioSpec().to_dict()
    data["faults"] = {"name": "bad", "specs": [{"kind": "gamma_ray"}]}
    with pytest.raises(ValueError, match="unknown fault kind"):
        ScenarioSpec.from_dict(data)
    data["faults"] = {"name": "bad", "specs": [{"rate": 0.5}]}
    with pytest.raises(ValueError, match="missing required key 'kind'"):
        ScenarioSpec.from_dict(data)


def test_content_key_ignores_name_workload_key_ignores_faults():
    spec = ScenarioSpec(faults=single_fault_plan("drop"))
    assert spec.content_key() == spec.with_name("other").content_key()
    assert spec.content_key() != ScenarioSpec().content_key()
    assert spec.workload_key() == ScenarioSpec().workload_key()


def test_int_pair_params_reach_injector_as_ints():
    spec = AnomalySpec(
        category="mdl_lock", params={"ddl_interval_s": (20.0, 40.0)}
    )
    assert spec.injector_kwargs()["ddl_interval_s"] == (20, 40)


# -- hypothesis property: round-trips are exact over the spec space ----


@st.composite
def scenario_specs(draw):
    duration = draw(st.sampled_from([180, 240, 300, 480]))
    onset = draw(st.floats(0.5, 0.8))
    end = draw(st.floats(min(onset + 0.25, 1.0), 1.0))
    category = draw(st.sampled_from(
        ["business_spike", "poor_sql", "mdl_lock", "row_lock", "composite"]
    ))
    params = {}
    categories = None
    same_target = False
    if category == "composite":
        same_target = draw(st.booleans())
        if draw(st.booleans()):
            first = draw(st.sampled_from(["mdl_lock", "row_lock"]))
            second = draw(st.sampled_from(
                ["business_spike", "poor_sql", "mdl_lock", "row_lock"]
            ))
            if second == first and not same_target:
                second = "poor_sql" if first != "poor_sql" else "business_spike"
            categories = (first, second)
    elif category == "row_lock" and draw(st.booleans()):
        lo = draw(st.floats(1.0, 20.0))
        params["target_rate"] = (lo, lo + draw(st.floats(0.0, 20.0)))
    n_instances = draw(st.integers(1, 4))
    faults = None
    if draw(st.booleans()):
        faults = single_fault_plan(
            draw(st.sampled_from(FAULT_KINDS)), seed=draw(st.integers(0, 99))
        )
    return ScenarioSpec(
        name=draw(st.sampled_from(["a", "b", "long-scenario-name"])),
        seed=draw(st.integers(0, 2**20)),
        n_instances=n_instances,
        anomalous=draw(st.integers(0, n_instances)),
        duration_s=duration,
        n_businesses=draw(st.integers(2, 8)),
        anomaly=AnomalySpec(
            category=category,
            onset_frac=onset,
            end_frac=end,
            params=params,
            categories=categories,
            same_target=same_target,
        ),
        antipatterns=draw(st.booleans()),
        advisory_baits=draw(st.booleans()),
        faults=faults,
        workers=1,
        top_k=draw(st.integers(1, 5)),
    )


@settings(max_examples=60, deadline=None)
@given(spec=scenario_specs())
def test_round_trip_is_exact(spec):
    via_json = ScenarioSpec.from_json(spec.to_json())
    assert via_json == spec
    # Canonical keys are stable across the round trip — the fixture
    # cache and corpus entry ids depend on this.
    assert via_json.content_key() == spec.content_key()
    assert via_json.workload_key() == spec.workload_key()
    # Serialisation is pure: dumping twice gives identical bytes.
    assert spec.to_json() == via_json.to_json()
    assert json.loads(spec.to_json())["version"] == 1
