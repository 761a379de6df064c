"""The run specification: strict JSON form, world keys, fault plans."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.profiles import PROFILES
from repro.scenario.timeline import EpochDrift
from repro.spec import JSON_FIELDS, StudySpec, ValidationError

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
drifts = st.builds(
    EpochDrift,
    year=finite,
    bleacher_scale=finite,
    blackhole_scale=finite,
    negotiate_rate=finite,
    churn_scale=finite,
    world_seed=st.none() | st.integers(min_value=0, max_value=2**31 - 1),
)
specs = st.builds(
    StudySpec,
    scale=st.floats(min_value=1e-6, max_value=1.0),
    seed=st.integers(min_value=-(2**63), max_value=2**63),
    traceroutes=st.booleans(),
    quic=st.booleans(),
    faults=st.none() | st.sampled_from(sorted(PROFILES)),
    chaos_seed=st.integers(min_value=0, max_value=2**32),
    drift=st.none() | drifts,
)

#: A value of the wrong JSON type for each field.
WRONG = {
    "scale": st.sampled_from(["0.1", True, None, [0.1], {"v": 0.1}]),
    "seed": st.sampled_from([7.9, "7", True, None, [7]]),
    "traceroutes": st.sampled_from(["false", 0, 1, None, []]),
    "chaos": st.sampled_from([7, True, ["light"], {"name": "light"}]),
    "chaos_seed": st.sampled_from([1.5, "3", False, None]),
    "quic": st.sampled_from(["false", "true", 0, 1, None]),
    "drift": st.sampled_from(["2020", 2020, [2020.0], {"year": "2020"}, {"year": True}]),
}


@settings(max_examples=300, deadline=None)
@given(specs)
def test_json_round_trip(spec):
    document = spec.to_json()
    # Through real JSON text, as every persisted copy travels.
    assert StudySpec.from_json(json.loads(json.dumps(document))) == spec
    assert list(document) == [key for key in JSON_FIELDS if key in document]


@settings(max_examples=200, deadline=None)
@given(specs, st.sampled_from(sorted(WRONG)), st.data())
def test_wrongly_typed_field_is_rejected_by_name(spec, field, data):
    document = spec.to_json()
    document[field] = data.draw(WRONG[field])
    with pytest.raises(ValidationError, match=field):
        StudySpec.from_json(document)


@settings(max_examples=100, deadline=None)
@given(specs, st.text(min_size=1).filter(lambda key: key not in JSON_FIELDS))
def test_unknown_key_is_rejected_by_name(spec, key):
    document = {**spec.to_json(), key: 1}
    with pytest.raises(ValidationError, match="unknown field") as caught:
        StudySpec.from_json(document)
    assert key in str(caught.value)


@pytest.mark.parametrize(
    "document, field",
    [
        ({"scale": 0}, "scale"),
        ({"scale": 1.5}, "scale"),
        ({"scale": 10**400}, "scale"),
        ({"chaos": "no-such"}, "chaos profile"),
        ([], "JSON object"),
    ],
)
def test_out_of_range_values_are_rejected(document, field):
    with pytest.raises(ValidationError, match=field):
        StudySpec.from_json(document)


def test_chaos_seed_only_counts_next_to_a_profile():
    assert StudySpec(chaos_seed=5) == StudySpec()
    assert StudySpec(faults="light", chaos_seed=5).chaos_seed == 5


def test_world_key_covers_exactly_what_builds_the_world():
    base = StudySpec(scale=0.01, seed=2)
    assert base.world_key() == StudySpec(scale=0.01, seed=2, quic=True).world_key()
    assert base.world_key() == StudySpec(scale=0.01, seed=2, traceroutes=False).world_key()
    for different in (
        StudySpec(scale=0.02, seed=2),
        StudySpec(scale=0.01, seed=3),
        StudySpec(scale=0.01, seed=2, drift=EpochDrift(year=2020.0)),
        StudySpec(scale=0.01, seed=2, faults="light"),
        StudySpec(scale=0.01, seed=2, faults="light", chaos_seed=1),
    ):
        assert different.world_key() != base.world_key()


def test_fault_plan_expansion():
    spec = StudySpec(scale=0.002, seed=3, faults="default", chaos_seed=7)
    world = spec.build_world()
    expanded = spec.with_fault_plan(world)
    assert expanded.faults.events and expanded.faults.profile == "default"
    # Expansion is idempotent and a ready plan has no JSON form.
    assert expanded.with_fault_plan(world) == expanded
    with pytest.raises(ValueError, match="FaultPlan"):
        expanded.to_json()
    assert StudySpec(scale=0.002, seed=3).with_fault_plan(world).faults is None
