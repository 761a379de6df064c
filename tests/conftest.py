"""Shared fixtures.

Heavy artefacts (the synthetic Internet, a completed study) are built
once per session and shared read-only across analysis tests; protocol
and netsim tests build their own tiny topologies via ``two_host_net``.
"""

from __future__ import annotations

import pytest

from repro.netsim.host import Host
from repro.netsim.ipv4 import parse_addr
from repro.netsim.link import link_pair
from repro.netsim.network import EVENT, FAST, Network
from repro.netsim.router import Router
from repro.netsim.topology import Topology
from repro.scenario.internet import SyntheticInternet
from repro.scenario.parameters import scaled_params
from repro.study import Study

#: Scale/seed for the shared world: small enough for fast tests, large
#: enough that every middlebox class and vantage has population.
SHARED_SCALE = 0.04
SHARED_SEED = 11


def build_two_host_net(
    mode: str = FAST,
    seed: int = 1,
    hops: int = 2,
    link_delay: float = 0.01,
):
    """A minimal client--routers--server topology.

    Returns ``(network, client, server)``; routers are named ``r0`` ..
    ``r{hops-1}`` with the client on ``r0`` and server on the last.
    """
    topo = Topology()
    for index in range(hops):
        topo.add_router(
            Router(
                f"r{index}",
                asn=100 + index,
                interface_addr=parse_addr(f"10.0.{index}.1"),
            )
        )
    for index in range(hops - 1):
        forward, backward = link_pair(f"r{index}", f"r{index + 1}", delay=link_delay)
        topo.add_link_pair(forward, backward)
    client = topo.add_host(Host("client", parse_addr("192.0.2.1"), "r0"))
    server = topo.add_host(
        Host("server", parse_addr("198.51.100.1"), f"r{hops - 1}")
    )
    net = Network(topo, seed=seed, mode=mode)
    return net, client, server


@pytest.fixture
def net_factory():
    """The :func:`build_two_host_net` builder, as a fixture.

    Subdirectory test modules cannot import the root conftest module
    directly, so the factory is exposed this way.
    """
    return build_two_host_net


@pytest.fixture
def two_host_net():
    """Fresh two-router fast-mode network per test."""
    return build_two_host_net()


@pytest.fixture
def two_host_net_event():
    """Fresh two-router event-mode network per test."""
    return build_two_host_net(mode=EVENT)


@pytest.fixture(scope="session")
def shared_world() -> SyntheticInternet:
    """One small synthetic Internet shared across the session.

    Tests must not mutate it (no probing that flips batch state); use
    ``fresh_world`` for anything stateful.
    """
    return SyntheticInternet(scaled_params(SHARED_SCALE, seed=SHARED_SEED))


@pytest.fixture
def fresh_world() -> SyntheticInternet:
    """A private synthetic Internet for tests that probe or mutate."""
    return SyntheticInternet(scaled_params(SHARED_SCALE, seed=SHARED_SEED))


@pytest.fixture(scope="session")
def study_results():
    """A complete measured study (traces + traceroutes), run once.

    It runs the production path — shard plan, shard wire codec and
    merge — against every server, without discovery.  Returns
    ``(world, trace_set, campaign)``.  Analysis tests share this; they
    only read.
    """
    study = Study.run(scale=SHARED_SCALE, seed=SHARED_SEED, discover=False)
    return study.world, study.traces, study.campaign
