"""The NTP server pool: membership, zones, and churn.

Models pool.ntp.org as the paper describes it: a volunteer-run virtual
cluster reached through round-robin DNS under ``pool.ntp.org`` plus
country- and region-specific sub-domains.  Membership changes over
time ("servers leaving the NTP pool between the two sets of
measurements" is the paper's explanation for lower reachability in the
July/August batch); the worlds model that churn as servers that go
offline between batches while staying listed in DNS.
"""

from __future__ import annotations

from dataclasses import dataclass

POOL_DOMAIN = "pool.ntp.org"


@dataclass
class PoolMember:
    """One volunteer server in the pool."""

    hostname: str
    addr: int
    country_code: str
    region: str

    @property
    def zones(self) -> tuple[str, ...]:
        """DNS zones this member appears in (global, region, country)."""
        return (
            POOL_DOMAIN,
            f"{self.region.lower()}.{POOL_DOMAIN}",
            f"{self.country_code.lower()}.{POOL_DOMAIN}",
        )


class NTPPool:
    """Registry of pool members and their DNS zone membership."""

    def __init__(self) -> None:
        self._members: dict[int, PoolMember] = {}

    def add(self, member: PoolMember) -> PoolMember:
        """Register a member (keyed by address)."""
        if member.addr in self._members:
            raise ValueError(f"duplicate pool member address {member.addr}")
        self._members[member.addr] = member
        return member

    def __len__(self) -> int:
        return len(self._members)

    def members(self) -> list[PoolMember]:
        """Every member, in registration order."""
        return list(self._members.values())

    def zone_names(self) -> list[str]:
        """Every DNS zone with at least one member.

        The global zone is first, then regional and country zones in
        sorted order — the order the discovery script walks them in.
        """
        zones: set[str] = set()
        for member in self.members():
            zones.update(member.zones)
        ordered = sorted(zones)
        if POOL_DOMAIN in zones:
            ordered.remove(POOL_DOMAIN)
            ordered.insert(0, POOL_DOMAIN)
        return ordered

    def zone_members(self, zone: str) -> list[PoolMember]:
        """Members of one zone, in stable (address) order."""
        return sorted(
            (m for m in self.members() if zone in m.zones),
            key=lambda m: m.addr,
        )
