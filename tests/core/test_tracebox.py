"""Tests for the tracebox-style header differ."""

import pytest

from repro.core.tracebox import (
    FIELD_DSCP,
    FIELD_ECN,
    diff_path,
    run_tracebox,
)
from repro.core.traces import HopObservation, PathTrace
from repro.netsim.ecn import ECN, tos_byte
from repro.netsim.middlebox import ECTBleacher, TOSBleacher


def hop(ttl, tos, responder=1000):
    return HopObservation(
        ttl=ttl,
        responder=responder + ttl,
        sent_ecn=int(ECN.ECT_0),
        quoted_ecn=tos & 0b11,
        quoted_tos=tos,
    )


def first_change_ttl(result, field_name):
    """TTL where ``field_name`` was first observed rewritten, or None."""
    return min((c.ttl for c in result.changes_for(field_name)), default=None)


class TestDiffPath:
    def _path(self, toses):
        path = PathTrace(vantage_key="v", dst_addr=9, sent_ecn=int(ECN.ECT_0))
        for ttl, tos in enumerate(toses, start=1):
            path.hops.append(hop(ttl, tos))
        return path

    def test_clean_path_no_changes(self):
        sent = tos_byte(dscp=10, ecn=ECN.ECT_0)
        result = diff_path(self._path([sent, sent, sent]), sent_dscp=10)
        assert result.changes == []
        assert result.classify_tos_interference() == "clean"

    def test_ecn_specific_bleaching(self):
        sent = tos_byte(dscp=10, ecn=ECN.ECT_0)
        bleached = tos_byte(dscp=10, ecn=ECN.NOT_ECT)
        result = diff_path(self._path([sent, bleached, bleached]), sent_dscp=10)
        assert result.classify_tos_interference() == "ecn-specific"
        assert first_change_ttl(result, FIELD_ECN) == 2
        assert result.changes_for(FIELD_DSCP) == []

    def test_tos_washing(self):
        sent = tos_byte(dscp=10, ecn=ECN.ECT_0)
        result = diff_path(self._path([sent, 0, 0]), sent_dscp=10)
        assert result.classify_tos_interference() == "tos-washing"
        assert first_change_ttl(result, FIELD_ECN) == 2
        assert first_change_ttl(result, FIELD_DSCP) == 2

    def test_dscp_only_remarking(self):
        sent = tos_byte(dscp=10, ecn=ECN.ECT_0)
        remarked = tos_byte(dscp=0, ecn=ECN.ECT_0)
        result = diff_path(self._path([sent, remarked]), sent_dscp=10)
        assert result.classify_tos_interference() == "dscp-only"

    def test_unresponsive_hops_skipped(self):
        path = PathTrace(vantage_key="v", dst_addr=9, sent_ecn=int(ECN.ECT_0))
        path.hops.append(
            HopObservation(ttl=1, responder=None, sent_ecn=int(ECN.ECT_0), quoted_ecn=None)
        )
        assert diff_path(path, sent_dscp=0).changes == []


class TestRunTracebox:
    def test_detects_ect_bleacher_at_correct_hop(self, net_factory):
        net, client, server = net_factory(hops=4)
        net.topology.routers["r2"].add_middlebox(ECTBleacher())
        result = run_tracebox(client, server.addr, dscp=12)
        assert result.classify_tos_interference() == "ecn-specific"
        # r2 is the third router: hop TTL 3.
        assert first_change_ttl(result, FIELD_ECN) == 3
        assert first_change_ttl(result, FIELD_DSCP) is None

    def test_detects_tos_washer(self, net_factory):
        net, client, server = net_factory(hops=4)
        net.topology.routers["r1"].add_middlebox(TOSBleacher())
        result = run_tracebox(client, server.addr, dscp=12)
        assert result.classify_tos_interference() == "tos-washing"
        assert first_change_ttl(result, FIELD_ECN) == 2
        assert first_change_ttl(result, FIELD_DSCP) == 2

    def test_clean_network(self, net_factory):
        net, client, server = net_factory(hops=4)
        result = run_tracebox(client, server.addr, dscp=12)
        assert result.classify_tos_interference() == "clean"
        assert len(result.path.hops) >= 3

    def test_on_synthetic_internet(self, fresh_world):
        """Against the calibrated world, every interfering path that
        tracebox flags is ECN-specific: the scenario deploys ECN
        bleachers, not TOS washers."""
        world = fresh_world
        host = world.vantage_hosts["ec2-virginia"]
        verdicts = set()
        for server in world.servers[:40]:
            result = run_tracebox(host, server.addr, dscp=8, params=world.params.probes)
            verdicts.add(result.classify_tos_interference())
        assert "clean" in verdicts
        assert verdicts <= {"clean", "ecn-specific"}
