"""Tests for the topology container."""

import pytest

from repro.netsim.errors import TopologyError
from repro.netsim.host import Host
from repro.netsim.ipv4 import parse_addr
from repro.netsim.link import Link, link_pair
from repro.netsim.router import Router
from repro.netsim.topology import Topology


def router(rid, asn=64500):
    return Router(rid, asn=asn, interface_addr=parse_addr("10.0.0.1"))


class TestConstruction:
    def test_duplicate_router_rejected(self):
        topo = Topology()
        topo.add_router(router("r1"))
        with pytest.raises(TopologyError):
            topo.add_router(router("r1"))

    def test_link_needs_known_routers(self):
        topo = Topology()
        topo.add_router(router("r1"))
        with pytest.raises(TopologyError):
            topo.add_link(Link("r1", "ghost"))

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_router(router("r1"))
        topo.add_router(router("r2"))
        topo.add_link(Link("r1", "r2"))
        with pytest.raises(TopologyError):
            topo.add_link(Link("r1", "r2"))

    def test_host_needs_known_router(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_host(Host("h", parse_addr("192.0.2.1"), "ghost"))

    def test_duplicate_host_addr_rejected(self):
        topo = Topology()
        topo.add_router(router("r1"))
        topo.add_host(Host("h1", parse_addr("192.0.2.1"), "r1"))
        with pytest.raises(TopologyError):
            topo.add_host(Host("h2", parse_addr("192.0.2.1"), "r1"))

    def test_duplicate_hostname_rejected(self):
        topo = Topology()
        topo.add_router(router("r1"))
        topo.add_host(Host("h1", parse_addr("192.0.2.1"), "r1"))
        with pytest.raises(TopologyError):
            topo.add_host(Host("h1", parse_addr("192.0.2.2"), "r1"))


class TestLookup:
    def _topo(self):
        topo = Topology()
        topo.add_router(router("r1", asn=100))
        topo.add_router(router("r2", asn=200))
        forward, backward = link_pair("r1", "r2")
        topo.add_link_pair(forward, backward)
        topo.add_host(Host("h1", parse_addr("192.0.2.1"), "r1"))
        return topo

    def test_host_by_addr(self):
        topo = self._topo()
        assert topo.hosts[parse_addr("192.0.2.1")].hostname == "h1"
        assert parse_addr("192.0.2.2") not in topo.hosts

    def test_router_for_addr_prefers_host_attachment(self):
        topo = self._topo()
        assert topo.router_for_addr(parse_addr("192.0.2.1")) == "r1"

    def test_router_for_unknown_addr_is_none(self):
        assert self._topo().router_for_addr(parse_addr("8.8.8.8")) is None

    def test_router_asn(self):
        assert self._topo().routers["r2"].asn == 200

    def test_links_between(self):
        topo = self._topo()
        forward, backward = topo.succ["r1"]["r2"], topo.succ["r2"]["r1"]
        assert forward.dst == "r2"
        assert backward.dst == "r1"
        assert topo.pred["r2"]["r1"] is forward
        assert "r1" not in topo.succ["r1"]

    def test_all_links(self):
        assert len(list(self._topo().all_links())) == 2


class TestValidation:
    def test_disconnected_graph_rejected(self):
        topo = Topology()
        topo.add_router(router("r1"))
        topo.add_router(router("r2"))
        with pytest.raises(TopologyError):
            topo.validate()

    def test_connected_graph_passes(self):
        topo = Topology()
        topo.add_router(router("r1"))
        topo.add_router(router("r2"))
        forward, backward = link_pair("r1", "r2")
        topo.add_link_pair(forward, backward)
        topo.validate()
