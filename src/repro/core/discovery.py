"""NTP pool discovery via repeated DNS queries.

The paper's discovery script queried ``pool.ntp.org`` and each of its
country- and region-specific sub-domains in turn, one second apart,
roughly every ten minutes for several weeks, accumulating 2500 unique
server addresses.  :class:`PoolDiscovery` reproduces that loop against
the simulated round-robin DNS service.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.host import Host
from ..protocols.dns.resolver import LookupResult, Resolver

#: Seconds between queries within a sweep, and between sweeps: the
#: paper's one second and "roughly every ten minutes".
QUERY_GAP = 1.0
SWEEP_INTERVAL = 600.0


@dataclass
class DiscoveredServer:
    """One unique address found during discovery."""

    addr: int
    first_seen: float
    zones: set[str] = field(default_factory=set)


@dataclass
class DiscoveryReport:
    """Everything the discovery run learned."""

    servers: dict[int, DiscoveredServer] = field(default_factory=dict)
    sweeps: int = 0
    queries_sent: int = 0
    queries_answered: int = 0

    @property
    def addresses(self) -> list[int]:
        """Discovered addresses in first-seen order."""
        ordered = sorted(self.servers.values(), key=lambda s: (s.first_seen, s.addr))
        return [server.addr for server in ordered]

    def __len__(self) -> int:
        return len(self.servers)


class PoolDiscovery:
    """The discovery script: sweep the zones until the pool is mapped."""

    def __init__(
        self,
        host: Host,
        dns_addr: int,
        zones: list[str],
    ) -> None:
        if not zones:
            raise ValueError("at least one zone to sweep is required")
        self.host = host
        self.zones = list(zones)
        self.resolver = Resolver(host, dns_addr)
        self.report = DiscoveryReport()

    def run(
        self,
        sweeps: int | None = None,
        until_stable_sweeps: int | None = 3,
        max_sweeps: int = 2000,
    ) -> DiscoveryReport:
        """Sweep all zones repeatedly.

        Either run a fixed number of ``sweeps``, or keep sweeping until
        ``until_stable_sweeps`` consecutive sweeps discover nothing new
        (how long "several weeks" needs to be depends on pool size and
        the DNS answer window, so convergence is the honest criterion).
        """
        if sweeps is not None:
            for _ in range(sweeps):
                self._sweep()
            return self.report
        stable = 0
        while stable < (until_stable_sweeps or 1):
            if self.report.sweeps >= max_sweeps:
                break
            before = len(self.report)
            self._sweep()
            stable = stable + 1 if len(self.report) == before else 0
        return self.report

    def _sweep(self) -> None:
        scheduler = self.host.network.scheduler
        self.report.sweeps += 1
        for zone in self.zones:
            results: list[LookupResult] = []
            self.resolver.lookup(zone, results.append)
            scheduler.run()
            self.report.queries_sent += 1
            result = results[0]
            if result.responded:
                self.report.queries_answered += 1
                now = scheduler.now
                for addr in result.addresses:
                    known = self.report.servers.get(addr)
                    if known is None:
                        known = DiscoveredServer(addr=addr, first_seen=now)
                        self.report.servers[addr] = known
                    known.zones.add(zone)
            # The paper's one-second politeness gap between queries.
            scheduler.run_until(scheduler.now + QUERY_GAP)
        scheduler.run_until(scheduler.now + SWEEP_INTERVAL)
