"""FaultEvent/FaultPlan value semantics and plan generation.

A plan is the determinism contract object: immutable, hashable,
canonically ordered, serialisable, and a pure function of
``(world params, profile, chaos seed)``.
"""

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    LINK_FLAP,
    NTP_BROWNOUT,
    PROFILES,
    ROUTER_BLACKHOLE,
    generate_fault_plan,
    resolve_profile,
)


def _event(kind=LINK_FLAP, epoch=0, target="a->b", **kw):
    return FaultEvent(kind=kind, epoch=epoch, target=target, **kw)


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor_strike", epoch=0, target="a->b")

    def test_rejects_negative_epoch(self):
        with pytest.raises(ValueError, match="epoch"):
            _event(epoch=-1)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            _event(start=-1.0)
        with pytest.raises(ValueError, match="window"):
            _event(duration=0.0)

    def test_roundtrips_through_dict(self):
        event = _event(start=12.5, duration=60.0, magnitude=0.9)
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_default_window_is_whole_epoch(self):
        event = _event()
        assert event.start == 0.0
        assert event.duration == float("inf")


class TestFaultPlan:
    def test_events_sorted_canonically(self):
        early = _event(epoch=0)
        late = _event(epoch=5)
        plan = FaultPlan(events=(late, early))
        assert plan.events == (early, late)

    def test_equal_plans_hash_equal(self):
        a = FaultPlan(events=(_event(epoch=2), _event(epoch=1)))
        b = FaultPlan(events=(_event(epoch=1), _event(epoch=2)))
        assert a == b
        assert hash(a) == hash(b)

    def test_events_for_epoch_partitions(self):
        plan = FaultPlan(
            events=(
                _event(epoch=0),
                _event(epoch=0, kind=NTP_BROWNOUT, target=123),
                _event(epoch=3),
            )
        )
        assert len(plan.events_for_epoch(0)) == 2
        assert len(plan.events_for_epoch(3)) == 1
        assert plan.events_for_epoch(7) == ()
        assert plan.epochs_touched == 2

    def test_roundtrips_through_dict(self):
        plan = FaultPlan(
            events=(_event(), _event(epoch=1, kind=NTP_BROWNOUT, target=42)),
            profile="default",
            chaos_seed=9,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_summary_counts_by_kind(self):
        plan = FaultPlan(events=(_event(), _event(epoch=1), _event(epoch=2, kind=NTP_BROWNOUT, target=1)))
        summary = plan.summary()
        assert summary["events"] == 3
        assert summary["by_kind"] == {LINK_FLAP: 2, NTP_BROWNOUT: 1}


class TestProfiles:
    def test_known_profiles(self):
        assert {"light", "default", "heavy", "reroute"} <= set(PROFILES)

    def test_resolve_by_name_and_passthrough(self):
        default = resolve_profile("default")
        assert resolve_profile(default) is default

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            resolve_profile("apocalypse")

    def test_profile_rates_validated(self):
        from repro.faults import ChaosProfile

        with pytest.raises(ValueError, match="out of range"):
            ChaosProfile(name="bad", link_flap_rate=1.5)


class TestGeneration:
    def test_deterministic_for_same_inputs(self, shared_world):
        a = generate_fault_plan(shared_world, profile="default", chaos_seed=7)
        b = generate_fault_plan(shared_world, profile="default", chaos_seed=7)
        assert a == b
        assert hash(a) == hash(b)

    def test_chaos_seed_changes_plan(self, shared_world):
        a = generate_fault_plan(shared_world, profile="default", chaos_seed=1)
        b = generate_fault_plan(shared_world, profile="default", chaos_seed=2)
        assert a != b

    def test_profile_changes_plan(self, shared_world):
        light = generate_fault_plan(shared_world, profile="light", chaos_seed=1)
        heavy = generate_fault_plan(shared_world, profile="heavy", chaos_seed=1)
        assert len(heavy) > len(light)

    def test_events_use_known_kinds_and_valid_epochs(self, shared_world):
        plan = generate_fault_plan(shared_world, profile="heavy", chaos_seed=3)
        assert plan.events, "heavy profile produced an empty plan"
        epochs = shared_world.params.schedule.total_traces + len(
            shared_world.vantage_hosts
        )
        for event in plan.events:
            assert event.kind in FAULT_KINDS
            assert 0 <= event.epoch < epochs

    def test_measurement_apparatus_never_blackholed(self, shared_world):
        plan = generate_fault_plan(shared_world, profile="reroute", chaos_seed=5)
        protected = set()
        for info in shared_world.vantage_as.values():
            protected.update(info.router_ids)
        protected.update(shared_world._infra_as.router_ids)
        blackholed = {
            event.target
            for event in plan.events
            if event.kind == ROUTER_BLACKHOLE
        }
        assert blackholed, "reroute profile scheduled no blackholes"
        assert not blackholed & protected
