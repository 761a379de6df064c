"""§4.1 / Figure 3: per-server differential reachability.

For every server and vantage, the fraction of traces in which the
server was reachable one way but not the other.  Figure 3a (reachable
with not-ECT but not ECT(0)) exposes the persistently firewalled
servers as tall spikes — between 9 and 14 above 50 %, depending on
vantage — while Figure 3b (the converse) shows at most 3, including
the Phoenix-library pair that misbehaves only from EC2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..traces import TraceSet


@dataclass(frozen=True)
class ServerDifferential:
    """Differential reachability of one server from one vantage."""

    server_addr: int
    vantage_key: str
    #: Traces in which the conditioning probe succeeded.
    eligible: int
    #: Of those, traces where the other probe failed.
    differential: int

    @property
    def fraction(self) -> float:
        """The Figure 3 bar height (0.0 when never eligible)."""
        return self.differential / self.eligible if self.eligible else 0.0


class DifferentialAnalysis:
    """Figure 3 data: per-(vantage, server) differential fractions."""

    def __init__(self, trace_set: TraceSet, direction: str = "plain-only") -> None:
        """``direction`` selects the figure: ``"plain-only"`` for 3a
        (reachable via not-ECT but not ECT(0)), ``"ect-only"`` for 3b.
        """
        if direction not in ("plain-only", "ect-only"):
            raise ValueError(f"unknown direction {direction!r}")
        self.direction = direction
        self.server_addrs = list(trace_set.server_addrs)
        self.vantage_keys = trace_set.vantage_keys()
        self._records: dict[tuple[str, int], ServerDifferential] = {}
        eligible: dict[tuple[str, int], int] = {}
        differential: dict[tuple[str, int], int] = {}
        for trace in trace_set:
            for outcome in trace.outcomes.values():
                if direction == "plain-only":
                    is_eligible = outcome.udp_plain
                    is_diff = outcome.udp_differential_plain_only
                else:
                    is_eligible = outcome.udp_ect
                    is_diff = outcome.udp_differential_ect_only
                if not is_eligible:
                    continue
                key = (trace.vantage_key, outcome.server_addr)
                eligible[key] = eligible.get(key, 0) + 1
                if is_diff:
                    differential[key] = differential.get(key, 0) + 1
        for key, count in eligible.items():
            vantage_key, addr = key
            self._records[key] = ServerDifferential(
                server_addr=addr,
                vantage_key=vantage_key,
                eligible=count,
                differential=differential.get(key, 0),
            )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def record(self, vantage_key: str, server_addr: int) -> ServerDifferential | None:
        return self._records.get((vantage_key, server_addr))

    def fractions_for_vantage(self, vantage_key: str) -> list[float]:
        """Bar heights for one panel row, in server order (Figure 3)."""
        heights = []
        for addr in self.server_addrs:
            record = self._records.get((vantage_key, addr))
            heights.append(record.fraction if record is not None else 0.0)
        return heights

    def servers_above(self, threshold: float, vantage_key: str) -> set[int]:
        """Servers with differential fraction strictly above ``threshold``."""
        return {
            addr
            for addr in self.server_addrs
            if (record := self._records.get((vantage_key, addr))) is not None
            and record.fraction > threshold
        }

    def count_above_per_vantage(self, threshold: float = 0.5) -> dict[str, int]:
        """Paper's 'between 9 and 14 servers >50 %' per-location counts."""
        return {
            key: len(self.servers_above(threshold, key)) for key in self.vantage_keys
        }

    def servers_above_everywhere(self, threshold: float = 0.5) -> set[int]:
        """Servers above threshold from *every* vantage.

        The paper observes "it is usually the same set of servers
        having high differential reachability from every location" —
        the signature of blocking near the destination.
        """
        result: set[int] | None = None
        for key in self.vantage_keys:
            here = self.servers_above(threshold, key)
            result = here if result is None else (result & here)
        return result or set()

    def servers_above_somewhere(self, threshold: float = 0.5) -> set[int]:
        """Servers above threshold from at least one vantage."""
        result: set[int] = set()
        for key in self.vantage_keys:
            result |= self.servers_above(threshold, key)
        return result

    def global_fractions(self) -> dict[int, float]:
        """Differential fraction per server pooled over all vantages."""
        eligible: dict[int, int] = {}
        differential: dict[int, int] = {}
        for (_, addr), record in self._records.items():
            eligible[addr] = eligible.get(addr, 0) + record.eligible
            differential[addr] = differential.get(addr, 0) + record.differential
        return {
            addr: differential.get(addr, 0) / count
            for addr, count in eligible.items()
        }


def transient_vs_persistent(
    analysis: DifferentialAnalysis,
) -> tuple[set[int], set[int]]:
    """Split differential servers into persistent and transient sets.

    Persistent: above 50 % somewhere.  Transient: showed a
    non-zero differential somewhere but never crossed the threshold.
    The paper finds roughly 4x more transient than persistent cases.
    """
    persistent = analysis.servers_above_somewhere(0.5)
    transient = {
        addr
        for addr, fraction in analysis.global_fractions().items()
        if fraction > 0
    } - persistent
    return persistent, transient
