"""Builder for the calibrated synthetic Internet.

:class:`SyntheticInternet` assembles everything the measurement study
needs: an AS-level topology with transit and stub networks, the NTP
pool deployed per Table 1's geographic distribution, co-located web
servers with the observed ECN-policy mix, the vantage points, the
middlebox population calibrated to the paper's findings, a DNS server
publishing the pool zones, and ground truth for validation.

The builder is deterministic in its seed: two instances built from the
same :class:`~repro.scenario.parameters.ScenarioParams` are identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..asmap.mapping import ASMap, NoisyASMap
from ..geo.database import GeoDatabase
from ..geo.regions import Country, Region
from ..netsim.host import AccessLink, Host
from ..netsim.ipv4 import PROTO_TCP, PROTO_UDP, Prefix
from ..netsim.link import link_pair
from ..netsim.middlebox import ECTBleacher, ECTDropper, NotECTDropper
from ..netsim.network import FAST, Network
from ..netsim.queues import (
    BernoulliLoss,
    StaticCongestion,
    TimedOutageLoss,
)
from ..netsim.router import Router
from ..netsim.topology import Topology
from ..protocols.dns.server import DNSServer, RoundRobinZone
from ..protocols.http.server import PoolWebServer
from ..protocols.ntp.pool import NTPPool, PoolMember
from ..protocols.ntp.server import NTPServer
from ..protocols.quic.server import QUICServer
from ..tcp.connection import ECNServerPolicy, TCPStack
from .deployment import (
    AddressAllocator,
    choose_country,
    interleave_regions,
    server_access_loss,
    web_server_policy_mix,
)
from .parameters import ScenarioParams, default_params
from .vantages import VANTAGES, VantageSpec

#: Simulated seconds reserved per measurement epoch.  Epoch ``i``
#: starts at ``(i + 1) * MEASUREMENT_EPOCH_SPAN``; one trace (or one
#: vantage's traceroute sweep) at full scale needs well under 2e5
#: simulated seconds, so epochs never collide, while times stay small
#: enough that float timestamps keep sub-microsecond resolution.
MEASUREMENT_EPOCH_SPAN = 1_000_000.0


@dataclass
class ASInfo:
    """Bookkeeping for one autonomous system."""

    asn: int
    name: str
    kind: str  # "transit" | "stub" | "vantage" | "infra"
    region: Region
    prefix: Prefix
    country: Country | None = None
    router_ids: list[str] = field(default_factory=list)
    border_router_ids: list[str] = field(default_factory=list)
    _next_host_index: int = 256

    def next_host_addr(self, isolated: bool = False) -> int:
        """Allocate the next host address inside the AS prefix.

        ``isolated=True`` places the host alone in a fresh /24 (used
        for the geographically unlocatable servers, whose /24 must not
        shadow located neighbours in the geo database).
        """
        if isolated:
            if self._next_host_index % 256:
                self._next_host_index = (self._next_host_index // 256 + 1) * 256
            addr = self.prefix.host(self._next_host_index)
            self._next_host_index += 256
            return addr
        addr = self.prefix.host(self._next_host_index)
        self._next_host_index += 1
        return addr


@dataclass
class ServerInfo:
    """One NTP pool server as deployed."""

    index: int
    hostname: str
    addr: int
    asn: int
    region: Region
    country: Country | None
    host: Host = field(repr=False, default=None)  # type: ignore[assignment]
    ntp: NTPServer = field(repr=False, default=None)  # type: ignore[assignment]
    quic: QUICServer = field(repr=False, default=None)  # type: ignore[assignment]
    web: PoolWebServer | None = field(repr=False, default=None)
    web_policy: ECNServerPolicy | None = None


@dataclass
class GroundTruth:
    """What the scenario actually deployed (for validation and tests)."""

    udp_ect_blocked: set[int] = field(default_factory=set)
    any_ect_blocked: set[int] = field(default_factory=set)
    flaky_ect_blocked: set[int] = field(default_factory=set)
    not_ect_blocked: set[int] = field(default_factory=set)
    phoenix: set[int] = field(default_factory=set)
    offline_batch1: set[int] = field(default_factory=set)
    offline_batch2: set[int] = field(default_factory=set)
    bleacher_routers: set[str] = field(default_factory=set)
    flaky_bleacher_routers: set[str] = field(default_factory=set)
    boundary_bleacher_routers: set[str] = field(default_factory=set)

    @property
    def all_persistent_blocked(self) -> set[int]:
        return self.udp_ect_blocked | self.any_ect_blocked


class SyntheticInternet:
    """The complete measured world.  See the module docstring."""

    def __init__(self, params: ScenarioParams | None = None, mode: str = FAST) -> None:
        self.params = params if params is not None else default_params()
        self._rng = random.Random(self.params.seed)
        self.topology = Topology()
        self.pool = NTPPool()
        self.geo = GeoDatabase()
        self.as_map = ASMap()
        self.noisy_as_map = NoisyASMap(self.as_map, seed=self.params.seed)
        self._allocator = AddressAllocator()
        self._next_asn = 100

        self.autonomous_systems: list[ASInfo] = []
        self.transit_as: list[ASInfo] = []
        self.stub_as: dict[Region, list[ASInfo]] = {}
        self.vantage_as: dict[str, ASInfo] = {}
        self.vantage_hosts: dict[str, Host] = {}
        self.servers: list[ServerInfo] = []
        self.ground_truth = GroundTruth()
        self.current_batch = 1

        # Build order matters: all hosts must exist before the Network
        # attaches them, and services bind sockets after attachment.
        self._build_transit_core()
        self._build_stub_networks()
        self._build_vantages()
        self._infra_as = self._build_infra_as()
        self._place_servers()
        self._select_special_servers()
        self._deploy_bleachers()

        self.network = Network(self.topology, seed=self.params.seed + 1, mode=mode)
        self._bind_clocks()

        #: Optional chaos layer (:mod:`repro.faults`); installed via
        #: :meth:`install_fault_plan`, driven from :meth:`begin_epoch`.
        self.fault_injector = None
        #: Optional :class:`repro.obs.EventLog` recording the study;
        #: installed via :meth:`set_log`, truthiness-gated at call sites.
        self.log = None

        self._start_services()
        self._deploy_server_middleboxes()
        self._apply_offline_sets()
        self.dns_server = self._start_dns()

    # ==================================================================
    # Topology construction
    # ==================================================================
    def _new_asn(self) -> int:
        asn = self._next_asn
        self._next_asn += 1
        return asn

    def _register_as(self, info: ASInfo) -> ASInfo:
        self.autonomous_systems.append(info)
        self.as_map.register(info.prefix, info.asn)
        return info

    def _add_as_routers(self, info: ASInfo, count: int) -> None:
        """Create ``count`` routers chained linearly inside the AS."""
        topo_params = self.params.topology
        rng = self._rng
        for index in range(count):
            router_id = f"as{info.asn}-r{index}"
            router = Router(
                router_id,
                asn=info.asn,
                interface_addr=info.prefix.host(index + 1),
                sends_icmp_errors=rng.random() >= topo_params.icmp_silent_router_fraction,
                icmp_response_rate=topo_params.icmp_response_rate,
                icmp_quote_payload=(
                    128 if rng.random() < topo_params.full_quote_router_fraction else 8
                ),
            )
            self.topology.add_router(router)
            info.router_ids.append(router_id)
            if index > 0:
                forward, backward = link_pair(
                    info.router_ids[index - 1],
                    router_id,
                    delay=topo_params.intra_as_delay,
                    loss=BernoulliLoss(topo_params.core_loss),
                )
                self.topology.add_link_pair(forward, backward)
        info.border_router_ids.append(info.router_ids[0])

    def _interconnect(self, a: ASInfo, b: ASInfo) -> None:
        """Join two ASes at their border routers."""
        topo_params = self.params.topology
        delay = (
            topo_params.regional_delay
            if a.region == b.region
            else topo_params.intercontinental_delay
        )
        forward, backward = link_pair(
            a.border_router_ids[0],
            b.border_router_ids[0],
            delay=delay,
            jitter=delay * 0.05,
            loss=BernoulliLoss(topo_params.core_loss),
        )
        self.topology.add_link_pair(forward, backward)

    def _build_transit_core(self) -> None:
        """Transit ASes: a connected ring plus random chords."""
        topo_params = self.params.topology
        regions = interleave_regions(self.params.servers.region_counts)
        # Unknown hosts live in Europe; don't give Unknown a transit AS.
        regions = [r for r in regions if r is not Region.UNKNOWN] or [Region.EUROPE]
        for index in range(topo_params.transit_as_count):
            region = regions[index % len(regions)]
            info = ASInfo(
                asn=self._new_asn(),
                name=f"transit-{index}",
                kind="transit",
                region=region,
                prefix=self._allocator.allocate(region),
            )
            self._add_as_routers(info, topo_params.routers_per_transit)
            # A second border router spreads inter-AS attachment points.
            if len(info.router_ids) > 2:
                info.border_router_ids.append(info.router_ids[-1])
            self._register_as(info)
            self.transit_as.append(info)
        count = len(self.transit_as)
        for index in range(count):
            self._interconnect(self.transit_as[index], self.transit_as[(index + 1) % count])
        for i in range(count):
            for j in range(i + 2, count):
                if (i == 0 and j == count - 1) or count <= 3:
                    continue  # ring edge already exists
                if self._rng.random() < 0.45:
                    self._interconnect(self.transit_as[i], self.transit_as[j])

    def _transits_in_region(self, region: Region) -> list[ASInfo]:
        same = [info for info in self.transit_as if info.region == region]
        return same if same else list(self.transit_as)

    def _attach_stub(self, info: ASInfo) -> None:
        """Connect a stub/vantage AS to one or two transit providers."""
        providers = self._transits_in_region(info.region)
        primary = self._rng.choice(providers)
        self._interconnect(info, primary)
        if len(self.transit_as) > 1 and self._rng.random() < 0.35:
            secondary = self._rng.choice(
                [t for t in self.transit_as if t is not primary]
            )
            self._interconnect(info, secondary)

    def _build_stub_networks(self) -> None:
        """Regional eyeball/hosting ASes that will hold pool servers."""
        topo_params = self.params.topology
        for region, count in topo_params.stub_as_per_region.items():
            if self.params.servers.region_counts.get(region, 0) == 0:
                continue
            infos = []
            for index in range(count):
                country = choose_country(self._rng, region)
                info = ASInfo(
                    asn=self._new_asn(),
                    name=f"stub-{region.name.lower()}-{index}",
                    kind="stub",
                    region=region,
                    country=country,
                    prefix=self._allocator.allocate(region),
                )
                self._add_as_routers(info, topo_params.routers_per_stub)
                self._register_as(info)
                self._attach_stub(info)
                infos.append(info)
            self.stub_as[region] = infos

    def _build_vantages(self) -> None:
        """One small AS and one measurement host per vantage point."""
        topo_params = self.params.topology
        for spec in VANTAGES:
            info = ASInfo(
                asn=self._new_asn(),
                name=f"vantage-{spec.key}",
                kind="vantage",
                region=spec.region,
                prefix=self._allocator.allocate(spec.region),
            )
            self._add_as_routers(info, 2)
            self._register_as(info)
            self._attach_stub(info)
            self.vantage_as[spec.key] = info

            host = Host(spec.key, info.next_host_addr(), info.router_ids[-1])
            host.access = self._vantage_access(spec)
            if spec.ect_udp_drop_probability > 0:
                # The paper's hypothesis for this vantage: home-gateway
                # equipment treating the ECN bits as TOS and
                # preferentially dropping marked UDP.
                host.outbound_filters.append(
                    ECTDropper(
                        name=f"{spec.key}-gateway",
                        protocols=frozenset({PROTO_UDP}),
                        probability=spec.ect_udp_drop_probability,
                    )
                )
            self.topology.add_host(host)
            self.vantage_hosts[spec.key] = host

    def _vantage_access(self, spec: VantageSpec) -> AccessLink:
        if spec.outage_rate > 0:
            loss = TimedOutageLoss(
                base=spec.access_loss,
                outage_rate=spec.outage_rate,
                outage_duration=spec.outage_duration,
                outage_loss=spec.outage_loss,
            )
        else:
            loss = BernoulliLoss(spec.access_loss)
        aqm = None
        if spec.congestion_probability > 0:
            # A congested upstream with a non-ECN AQM: congestion
            # signals become drops for everyone (it cannot CE-mark).
            aqm = StaticCongestion(
                signal_probability=spec.congestion_probability,
                ecn_capable_queue=False,
            )
        delay = self.params.topology.access_delay
        return AccessLink(delay=delay, loss=loss, upstream_aqm=aqm)

    def _bind_clocks(self) -> None:
        """Attach the simulation clock to time-aware loss models."""
        clock = self.network.scheduler.clock
        for host in self.topology.hosts.values():
            loss = host.access.loss
            if hasattr(loss, "bind_clock"):
                loss.bind_clock(clock)

    def _build_infra_as(self) -> ASInfo:
        """A small infrastructure AS hosting the pool DNS service."""
        info = ASInfo(
            asn=self._new_asn(),
            name="infra-dns",
            kind="infra",
            region=Region.EUROPE,
            prefix=self._allocator.allocate(Region.EUROPE),
        )
        self._add_as_routers(info, 2)
        self._register_as(info)
        self._attach_stub(info)
        host = Host("dns.pool.ntp.org", info.next_host_addr(), info.router_ids[-1])
        host.access = AccessLink(delay=0.001)
        self.topology.add_host(host)
        self._dns_host = host
        return info

    # ==================================================================
    # Server placement
    # ==================================================================
    def _place_servers(self) -> None:
        """Deploy the pool per Table 1's regional distribution."""
        rng = self._rng
        index = 0
        for region, count in self.params.servers.region_counts.items():
            if count == 0:
                continue
            if region is Region.UNKNOWN:
                # Geographically unlocatable hosts physically sit in
                # European hosting ASes; their /24s are registered as
                # unknown so the GeoLite2 lookup misses, as in Table 1.
                stubs = self.stub_as.get(Region.EUROPE, [])
            else:
                stubs = self.stub_as.get(region, [])
            if not stubs:
                raise ValueError(f"no stub ASes available for {region.value}")
            for _ in range(count):
                as_info = rng.choice(stubs)
                addr = as_info.next_host_addr(isolated=region is Region.UNKNOWN)
                hostname = f"ntp-{index:04d}.{(as_info.country.code if as_info.country else 'xx')}"
                host = Host(hostname, addr, rng.choice(as_info.router_ids))
                host.access = AccessLink(
                    delay=rng.uniform(0.001, 0.008),
                    loss=server_access_loss(rng, self.params.servers),
                )
                self.topology.add_host(host)
                server_prefix = Prefix(addr & 0xFFFFFF00, 24)
                if region is Region.UNKNOWN:
                    self.geo.register_unknown(server_prefix)
                    country = None
                else:
                    country = as_info.country
                    self.geo.register_country(
                        server_prefix, country, rng=rng, scatter_degrees=3.0
                    )
                self.servers.append(
                    ServerInfo(
                        index=index,
                        hostname=hostname,
                        addr=addr,
                        asn=as_info.asn,
                        region=region,
                        country=country,
                        host=host,
                    )
                )
                self.pool.add(
                    PoolMember(
                        hostname=hostname,
                        addr=addr,
                        country_code=country.code if country else "xx",
                        region=_zone_region_name(region),
                    )
                )
                index += 1

    # ==================================================================
    # Middleboxes
    # ==================================================================
    def _select_special_servers(self) -> None:
        """Pick which servers sit behind ECN-hostile firewalls.

        Selection happens before bleacher placement so that the ASes
        hosting these servers can be kept bleacher-free: a persistent
        ECT-dropping firewall is only observable if the mark actually
        reaches it (the paper's blocked dozen are visible from *every*
        vantage, so nothing upstream of them bleaches).
        """
        mb = self.params.middleboxes
        rng = self._rng
        truth = self.ground_truth
        special_count = (
            mb.udp_ect_blocked_servers
            + mb.flaky_ect_blocked_servers
            + mb.not_ect_blocked_servers
            + mb.phoenix_servers
        )
        # Concentrate the special servers in a handful of ASes: ECN
        # failures cluster by provider in the wild (Langley found "a
        # few providers being responsible for the majority of
        # failures"), and spreading them thinly would exclude nearly
        # every stub AS from bleacher deployment below.
        by_asn: dict[int, list[int]] = {}
        for server in self.servers:
            by_asn.setdefault(server.asn, []).append(server.addr)
        ordered_asns = sorted(by_asn, key=lambda asn: (-len(by_asn[asn]), asn))
        pool_addrs: list[int] = []
        for asn in ordered_asns:
            if len(pool_addrs) >= special_count * 2:
                break
            pool_addrs.extend(by_asn[asn])
        special = rng.sample(pool_addrs, min(special_count, len(pool_addrs)))
        cursor = 0

        def take(count: int) -> list[int]:
            nonlocal cursor
            slice_ = special[cursor : cursor + count]
            cursor += count
            return slice_

        udp_blocked = take(mb.udp_ect_blocked_servers)
        truth.any_ect_blocked = set(udp_blocked[: mb.any_ect_blocked_servers])
        truth.udp_ect_blocked = set(udp_blocked) - truth.any_ect_blocked
        truth.flaky_ect_blocked = set(take(mb.flaky_ect_blocked_servers))
        truth.not_ect_blocked = set(take(mb.not_ect_blocked_servers))
        truth.phoenix = set(take(mb.phoenix_servers))

    def _special_asns(self) -> set[int]:
        """ASes that must stay bleacher-free (see above)."""
        protected_addrs = (
            self.ground_truth.udp_ect_blocked
            | self.ground_truth.any_ect_blocked
            | self.ground_truth.flaky_ect_blocked
        )
        return {
            server.asn for server in self.servers if server.addr in protected_addrs
        }

    def _deploy_bleachers(self) -> None:
        """Scatter ECT bleachers over stub-AS routers, biased to borders.

        Bleachers live only in destination-side (stub) ASes: in the
        real Internet a single bleaching transit router touches a tiny
        fraction of paths, but in our deliberately small transit core
        it would touch most of them, distorting every downstream
        experiment.  Stub placement keeps strips "few, widely
        scattered, and not located near the sender" (Figure 4) while
        the border bias produces the paper's AS-boundary concentration.
        """
        mb = self.params.middleboxes
        rng = self._rng
        excluded_asns = self._special_asns()
        border: set[str] = set()
        for info in self.autonomous_systems:
            border.update(info.border_router_ids)
        interior = [
            rid
            for info in self.autonomous_systems
            if info.kind == "stub" and info.asn not in excluded_asns
            for rid in info.router_ids
            if rid not in border
        ]
        border_candidates = [
            rid
            for info in self.autonomous_systems
            if info.kind == "stub" and info.asn not in excluded_asns
            for rid in info.border_router_ids
        ]
        router_population = len(interior) + len(border_candidates)
        # Floor of two keeps strip behaviour observable at tiny test
        # scales without over-bleaching them; the sometimes-strip
        # variant additionally needs a third deployment.
        total = max(2, round(router_population * mb.bleacher_router_fraction))
        at_border = min(len(border_candidates), round(total * mb.bleacher_at_boundary_fraction))
        in_interior = min(len(interior), total - at_border)
        chosen = rng.sample(border_candidates, at_border) + rng.sample(interior, in_interior)
        flaky_count = max(1, round(len(chosen) * mb.bleacher_flaky_fraction)) if len(chosen) >= 3 else 0
        flaky = set(rng.sample(chosen, flaky_count)) if flaky_count else set()
        for router_id in chosen:
            probability = mb.bleacher_flaky_probability if router_id in flaky else 1.0
            self.topology.routers[router_id].add_middlebox(
                ECTBleacher(name=f"bleach-{router_id}", probability=probability)
            )
            self.ground_truth.bleacher_routers.add(router_id)
            if router_id in flaky:
                self.ground_truth.flaky_bleacher_routers.add(router_id)
            if router_id in border_candidates:
                self.ground_truth.boundary_bleacher_routers.add(router_id)

    def _deploy_server_middleboxes(self) -> None:
        """Install the destination-side firewalls chosen earlier."""
        mb = self.params.middleboxes
        truth = self.ground_truth
        by_addr = {server.addr: server for server in self.servers}

        for addr in sorted(truth.udp_ect_blocked):
            by_addr[addr].host.inbound_filters.append(
                ECTDropper(name=f"fw-{addr:08x}", protocols=frozenset({PROTO_UDP}))
            )
        for addr in sorted(truth.any_ect_blocked):
            by_addr[addr].host.inbound_filters.append(
                ECTDropper(
                    name=f"fw-{addr:08x}",
                    protocols=frozenset({PROTO_UDP, PROTO_TCP}),
                )
            )
        for addr in sorted(truth.flaky_ect_blocked):
            by_addr[addr].host.inbound_filters.append(
                ECTDropper(
                    name=f"flaky-fw-{addr:08x}",
                    protocols=frozenset({PROTO_UDP}),
                    probability=mb.flaky_ect_drop_probability,
                )
            )
        for addr in sorted(truth.not_ect_blocked):
            by_addr[addr].host.inbound_filters.append(
                NotECTDropper(
                    name=f"odd-fw-{addr:08x}",
                    protocols=frozenset({PROTO_UDP}),
                    probability=mb.not_ect_drop_probability,
                )
            )
        ec2_prefixes = tuple(
            self.vantage_as[spec.key].prefix
            for spec in VANTAGES
            if spec.kind == "ec2"
        )
        for addr in sorted(truth.phoenix):
            by_addr[addr].host.inbound_filters.append(
                NotECTDropper(
                    name=f"phoenix-{addr:08x}",
                    protocols=frozenset({PROTO_UDP}),
                    src_prefixes=ec2_prefixes,
                    probability=mb.not_ect_drop_probability,
                )
            )

    # ==================================================================
    # Services
    # ==================================================================
    def _start_services(self) -> None:
        """NTP daemons everywhere; web servers on the configured share."""
        rng = self._rng
        params = self.params.servers
        truth = self.ground_truth
        for server in self.servers:
            server.ntp = NTPServer(server.host)
            # QUIC endpoints are always deployed: binding UDP 443 draws
            # no randomness and no legacy probe targets the port, so
            # worlds with and without the QUIC probe family stay
            # bit-identical (the flag lives on the measurement app).
            server.quic = QUICServer(server.host)

        # Special UDP-ECT-blocked servers get deliberate web behaviour:
        # most negotiate ECN over TCP (§4.4's middleboxes discriminate
        # by payload protocol), the any-ECT-blocked few refuse.
        special_sorted = sorted(truth.udp_ect_blocked) + sorted(truth.any_ect_blocked)
        special_web: dict[int, ECNServerPolicy] = {}
        for addr in sorted(truth.udp_ect_blocked):
            special_web[addr] = ECNServerPolicy.NEGOTIATE
        for addr in sorted(truth.any_ect_blocked):
            special_web[addr] = ECNServerPolicy.IGNORE

        regular = [s for s in self.servers if s.addr not in special_web]
        web_total = round(len(self.servers) * params.web_server_fraction)
        regular_web_count = max(0, web_total - len(special_web))
        regular_web = rng.sample(regular, min(regular_web_count, len(regular)))
        policies = web_server_policy_mix(rng, params, len(regular_web))

        by_addr = {server.addr: server for server in self.servers}
        for addr, policy in special_web.items():
            server = by_addr[addr]
            server.web_policy = policy
            server.web = PoolWebServer(server.host, ecn_policy=policy)
        for server, policy in zip(regular_web, policies):
            server.web_policy = policy
            server.web = PoolWebServer(server.host, ecn_policy=policy)

        # Hosts without a web server: most drop SYNs silently (no
        # stack / firewalled), the rest refuse with RST.
        for server in self.servers:
            if server.web is None and rng.random() >= params.no_server_silent_fraction:
                TCPStack(server.host)  # live stack, no listener: RSTs

    def _apply_offline_sets(self) -> None:
        """Choose which volunteers are dark in each batch."""
        rng = self._rng
        params = self.params.servers
        truth = self.ground_truth
        protected = (
            truth.udp_ect_blocked
            | truth.any_ect_blocked
            | truth.not_ect_blocked
            | truth.phoenix
        )
        candidates = [s.addr for s in self.servers if s.addr not in protected]
        batch1_count = round(len(self.servers) * params.offline_rate_batch1)
        truth.offline_batch1 = set(rng.sample(candidates, min(batch1_count, len(candidates))))
        remaining = [addr for addr in candidates if addr not in truth.offline_batch1]
        churn_count = round(len(self.servers) * params.churn_rate_batch2)
        truth.offline_batch2 = truth.offline_batch1 | set(
            rng.sample(remaining, min(churn_count, len(remaining)))
        )
        self.enter_batch(1)

    def enter_batch(self, batch: int) -> None:
        """Switch server availability to measurement batch 1 or 2."""
        if batch not in (1, 2):
            raise ValueError(f"batch must be 1 or 2: {batch!r}")
        self.current_batch = batch
        offline = (
            self.ground_truth.offline_batch1
            if batch == 1
            else self.ground_truth.offline_batch2
        )
        for server in self.servers:
            online = server.addr not in offline
            server.ntp.set_online(online)
            # A dark volunteer host is dark for every daemon it runs.
            server.quic.set_online(online)

    def begin_epoch(self, index: int) -> None:
        """Enter measurement epoch ``index``: the hermetic reset.

        A measurement epoch is the unit of deterministic replay — one
        trace of the study schedule, or one vantage's traceroute sweep.
        This resets *every* piece of state that evolves while probing
        (clock, the network's packet RNG, per-host filter RNGs and
        ephemeral-port/ISS counters, burst/outage loss-model state) to
        a baseline derived only from ``(params.seed, index)``.  Two
        consequences, both load-bearing for :mod:`repro.runner`:

        * an epoch's measurements are a pure function of
          ``(params, index)`` — a worker process that rebuilds this
          world from the same params reproduces them bit for bit, no
          matter which epochs it ran before;
        * the sequential path and the sharded path share this exact
          call, so their merged results are identical by construction.

        Requires an idle simulation (no pending events), which is
        always the case between probes.
        """
        self.network.scheduler.reset_time((index + 1) * MEASUREMENT_EPOCH_SPAN)
        stream = _epoch_stream(self.params.seed, index)
        self.network.rng.seed(stream)
        for host_index, host in enumerate(self.topology.hosts.values()):
            host.reset_measurement_state(
                stream ^ (0x9E3779B1 * (host_index + 1) & 0xFFFFFFFF)
            )
        for link in self.topology.all_links():
            link.loss.reset()
            link.aqm.reset()
        for server in self.servers:
            # QUIC connection state is evolved state the per-host reset
            # above doesn't cover (it lives in the daemon, not the
            # host); clearing it draws no randomness.
            server.quic.reset_connections()
        if self.fault_injector is not None:
            # After the pristine reset: revert the previous epoch's
            # impairments and install this epoch's.  Installation draws
            # no randomness, so the epoch stays a pure function of
            # (params, index, plan).
            self.fault_injector.begin_epoch(index, (index + 1) * MEASUREMENT_EPOCH_SPAN)
        # Last, after any blackhole changes above: roll the network's
        # per-epoch routing tables (they persist when the excluded set
        # didn't change — see Network.begin_epoch).
        self.network.begin_epoch()

    def set_log(self, log) -> None:
        """Attach (or detach, with ``None``) the study's event log.

        The log's simulated clock is bound to this world's event engine
        so span and event sim times read the same clock
        :meth:`begin_epoch` resets — the source of their determinism.
        """
        self.log = log
        if log is not None:
            scheduler = self.network.scheduler
            log.bind_clock(lambda: scheduler.now)

    def install_fault_plan(self, plan) -> None:
        """Attach (or detach, with ``None``) a :class:`~repro.faults.FaultPlan`.

        Faults take effect from the next :meth:`begin_epoch`; detaching
        reverts any impairments currently installed.
        """
        if self.fault_injector is not None:
            self.fault_injector.revert()
            self.network.set_excluded_routers(frozenset())
        if plan is None or not plan.events:
            self.fault_injector = None
            return
        from ..faults.injector import FaultInjector

        self.fault_injector = FaultInjector(self, plan)

    def _start_dns(self) -> DNSServer:
        """Publish the pool zones from the DNS infrastructure host."""
        dns = DNSServer(self._dns_host)
        rng = self._rng
        for zone_name in self.pool.zone_names():
            addresses = [member.addr for member in self.pool.zone_members(zone_name)]
            rng.shuffle(addresses)
            dns.add_zone(RoundRobinZone(name=zone_name, addresses=addresses))
        return dns

    # ==================================================================
    # Conveniences
    # ==================================================================
    @property
    def dns_addr(self) -> int:
        return self._dns_host.addr

    def server_by_addr(self, addr: int) -> ServerInfo | None:
        for server in self.servers:
            if server.addr == addr:
                return server
        return None

    def __repr__(self) -> str:
        return (
            f"SyntheticInternet(servers={len(self.servers)}, "
            f"ases={len(self.autonomous_systems)}, {self.topology!r})"
        )


def _zone_region_name(region: Region) -> str:
    """DNS zone label for a region (e.g. 'north-america')."""
    return region.value.lower().replace(" ", "-")


def _epoch_stream(seed: int, index: int) -> int:
    """Derive the per-epoch RNG stream from the scenario seed.

    A splitmix-style mix keeps neighbouring ``(seed, index)`` pairs far
    apart in stream space so per-epoch streams are uncorrelated.
    """
    mixed = (seed * 1_000_003 + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    mixed ^= mixed >> 30
    mixed = (mixed * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    mixed ^= mixed >> 27
    return mixed
