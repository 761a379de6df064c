"""FaultInjector: installation, reroute, reversion, metrics.

These tests drive :meth:`SyntheticInternet.begin_epoch` with
hand-built plans against a private world and verify that every
impairment is installed exactly for its epoch and fully reverted
afterwards — the pristine-baseline property the hermetic-epoch
contract depends on.
"""

import pytest

from repro.faults import (
    BLEACH_OFF,
    BLEACH_ON,
    DELAY_SPIKE,
    FaultEvent,
    FaultPlan,
    LINK_FLAP,
    NTP_BROWNOUT,
    ROUTER_BLACKHOLE,
    SuppressedPolicy,
    WindowedPolicy,
)
from repro.netsim.errors import RoutingError
from repro.netsim.middlebox import ECTBleacher


def _plan(*events):
    return FaultPlan(events=tuple(events))


def _some_link_id(world):
    link = next(iter(world.topology.all_links()))
    return f"{link.src}->{link.dst}"


class TestLinkFaults:
    def test_flap_installed_and_reverted(self, fresh_world):
        link_id = _some_link_id(fresh_world)
        src, dst = link_id.split("->")
        link = fresh_world.topology.succ[src][dst]
        fresh_world.install_fault_plan(
            _plan(FaultEvent(kind=LINK_FLAP, epoch=1, target=link_id, magnitude=0.9))
        )
        fresh_world.begin_epoch(0)
        assert link.fault is None
        fresh_world.begin_epoch(1)
        assert link.fault is not None
        assert link.fault.loss_probability == 0.9
        assert link.fault.active(), "whole-epoch window should be active"
        fresh_world.begin_epoch(2)
        assert link.fault is None

    def test_delay_spike_adds_delay(self, fresh_world):
        link_id = _some_link_id(fresh_world)
        src, dst = link_id.split("->")
        link = fresh_world.topology.succ[src][dst]
        fresh_world.install_fault_plan(
            _plan(
                FaultEvent(
                    kind=DELAY_SPIKE, epoch=0, target=link_id, magnitude=0.35
                )
            )
        )
        fresh_world.begin_epoch(0)
        assert link.fault.extra_delay == 0.35
        assert link.fault.loss_probability == 0.0

    def test_unknown_link_ignored(self, fresh_world):
        fresh_world.install_fault_plan(
            _plan(FaultEvent(kind=LINK_FLAP, epoch=0, target="no->where"))
        )
        fresh_world.begin_epoch(0)  # must not raise


class TestBlackholes:
    def _transit_router_on_some_path(self, world):
        transit = {
            router_id
            for info in world.transit_as
            for router_id in info.router_ids
        }
        vantage = next(iter(world.vantage_hosts.values()))
        for server in world.servers:
            hops = world.network.hops_between(
                vantage.router_id, server.host.router_id
            )
            for router, _link in hops[1:-1]:
                if router.router_id in transit:
                    return vantage, server, router.router_id
        pytest.skip("no mid-path transit router found at this scale")

    def test_reroute_invalidates_hop_cache(self, fresh_world):
        vantage, server, victim = self._transit_router_on_some_path(fresh_world)
        fresh_world.install_fault_plan(
            _plan(FaultEvent(kind=ROUTER_BLACKHOLE, epoch=1, target=victim))
        )
        fresh_world.begin_epoch(0)
        before = fresh_world.network.hops_between(
            vantage.router_id, server.host.router_id
        )
        assert victim in {router.router_id for router, _ in before}

        fresh_world.begin_epoch(1)
        assert fresh_world.network.excluded_routers == {victim}
        try:
            rerouted = fresh_world.network.hops_between(
                vantage.router_id, server.host.router_id
            )
        except RoutingError:
            rerouted = ()  # disconnection is a legitimate outcome
        assert victim not in {router.router_id for router, _ in rerouted}

        fresh_world.begin_epoch(2)
        assert fresh_world.network.excluded_routers == frozenset()
        restored = fresh_world.network.hops_between(
            vantage.router_id, server.host.router_id
        )
        assert restored == before

    def test_unknown_router_ignored(self, fresh_world):
        fresh_world.install_fault_plan(
            _plan(FaultEvent(kind=ROUTER_BLACKHOLE, epoch=0, target="as999-r9"))
        )
        fresh_world.begin_epoch(0)
        assert fresh_world.network.excluded_routers == frozenset()


class TestPolicyToggles:
    def test_bleach_on_appends_windowed_policy(self, fresh_world):
        victim = next(
            rid
            for rid in sorted(fresh_world.topology.routers)
            if rid not in fresh_world.ground_truth.bleacher_routers
        )
        router = fresh_world.topology.routers[victim]
        baseline = list(router.middleboxes)
        fresh_world.install_fault_plan(
            _plan(
                FaultEvent(kind=BLEACH_ON, epoch=0, target=victim, magnitude=1.0)
            )
        )
        fresh_world.begin_epoch(0)
        added = [box for box in router.middleboxes if box not in baseline]
        assert len(added) == 1
        assert isinstance(added[0], WindowedPolicy)
        assert isinstance(added[0].inner, ECTBleacher)
        fresh_world.begin_epoch(1)
        assert router.middleboxes == baseline

    def test_bleach_off_suppresses_deployed_bleacher(self, fresh_world):
        victim = sorted(fresh_world.ground_truth.bleacher_routers)[0]
        router = fresh_world.topology.routers[victim]
        baseline = list(router.middleboxes)
        fresh_world.install_fault_plan(
            _plan(FaultEvent(kind=BLEACH_OFF, epoch=0, target=victim))
        )
        fresh_world.begin_epoch(0)
        suppressed = [
            box for box in router.middleboxes if isinstance(box, SuppressedPolicy)
        ]
        assert suppressed, "deployed bleacher was not wrapped"
        assert all(
            isinstance(box.inner, ECTBleacher) for box in suppressed
        )
        fresh_world.begin_epoch(1)
        assert router.middleboxes == baseline

    def test_bleach_off_on_clean_router_is_noop(self, fresh_world):
        victim = next(
            rid
            for rid in sorted(fresh_world.topology.routers)
            if rid not in fresh_world.ground_truth.bleacher_routers
        )
        fresh_world.install_fault_plan(
            _plan(FaultEvent(kind=BLEACH_OFF, epoch=0, target=victim))
        )
        fresh_world.begin_epoch(0)
        assert not any(
            isinstance(box, SuppressedPolicy)
            for box in fresh_world.topology.routers[victim].middleboxes
        )


class TestBrownouts:
    def test_brownout_installs_inbound_udp_blackhole(self, fresh_world):
        server = fresh_world.servers[0]
        baseline = list(server.host.inbound_filters)
        fresh_world.install_fault_plan(
            _plan(FaultEvent(kind=NTP_BROWNOUT, epoch=0, target=server.addr))
        )
        fresh_world.begin_epoch(0)
        added = [
            box for box in server.host.inbound_filters if box not in baseline
        ]
        assert len(added) == 1
        assert isinstance(added[0], WindowedPolicy)
        fresh_world.begin_epoch(1)
        assert server.host.inbound_filters == baseline

    def test_unknown_server_ignored(self, fresh_world):
        fresh_world.install_fault_plan(
            _plan(FaultEvent(kind=NTP_BROWNOUT, epoch=0, target=1))
        )
        fresh_world.begin_epoch(0)  # must not raise


class TestLifecycle:
    def test_detach_reverts_current_epoch(self, fresh_world):
        link_id = _some_link_id(fresh_world)
        src, dst = link_id.split("->")
        link = fresh_world.topology.succ[src][dst]
        fresh_world.install_fault_plan(
            _plan(FaultEvent(kind=LINK_FLAP, epoch=0, target=link_id))
        )
        fresh_world.begin_epoch(0)
        assert link.fault is not None
        fresh_world.install_fault_plan(None)
        assert link.fault is None
        assert fresh_world.fault_injector is None

    def test_empty_plan_means_no_injector(self, fresh_world):
        fresh_world.install_fault_plan(FaultPlan())
        assert fresh_world.fault_injector is None

    def test_fault_metrics_surface_when_observed(self, fresh_world):
        from repro.obs import MetricsRegistry

        link_id = _some_link_id(fresh_world)
        registry = MetricsRegistry()
        fresh_world.network.set_metrics(registry)
        try:
            fresh_world.install_fault_plan(
                _plan(FaultEvent(kind=LINK_FLAP, epoch=0, target=link_id))
            )
            fresh_world.begin_epoch(0)
        finally:
            fresh_world.network.set_metrics(None)
            fresh_world.install_fault_plan(None)
        counters = registry.snapshot()["counters"]
        assert counters.get("faults.link_flap") == 1
        assert counters.get("faults.epochs_impaired") == 1
