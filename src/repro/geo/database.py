"""A GeoLite2-City-like IP geolocation database.

The paper geolocates the discovered servers with MaxMind's GeoLite2
City snapshot of 25 April 2015.  We cannot redistribute that database,
so the scenario registers the prefixes it allocates together with the
country they were allocated for, and this module answers lookups the
way the real database does — including the realistic failure mode of
*unlocatable addresses* (Table 1's "Unknown" region), modelled as
prefixes deliberately registered without a location.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netsim.ipv4 import Prefix
from ..netsim.routing import PrefixTrie
from .regions import Country, Region


@dataclass(frozen=True)
class GeoRecord:
    """The result of a successful lookup."""

    country_code: str
    country_name: str
    region: Region
    latitude: float
    longitude: float


#: Sentinel record for registered-but-unlocatable prefixes.
UNKNOWN_RECORD = GeoRecord(
    country_code="--",
    country_name="Unknown",
    region=Region.UNKNOWN,
    latitude=0.0,
    longitude=0.0,
)


class GeoDatabase:
    """Prefix-indexed geolocation lookups."""

    def __init__(self) -> None:
        self._trie = PrefixTrie()
        self._size = 0

    def register(self, prefix: Prefix, record: GeoRecord) -> None:
        """Associate ``prefix`` with a location record."""
        self._trie.insert(prefix, record)
        self._size += 1

    def register_country(
        self,
        prefix: Prefix,
        country: Country,
        rng: random.Random | None = None,
        scatter_degrees: float = 3.0,
    ) -> GeoRecord:
        """Register a prefix as located in ``country``.

        Coordinates are scattered around the country centroid so the
        Figure 1 map shows a realistic point cloud rather than one dot
        per country.
        """
        lat, lon = country.latitude, country.longitude
        if rng is not None and scatter_degrees > 0:
            lat += rng.uniform(-scatter_degrees, scatter_degrees)
            lon += rng.uniform(-scatter_degrees, scatter_degrees)
            lat = max(-85.0, min(85.0, lat))
            lon = ((lon + 180.0) % 360.0) - 180.0
        record = GeoRecord(
            country_code=country.code,
            country_name=country.name,
            region=country.region,
            latitude=lat,
            longitude=lon,
        )
        self.register(prefix, record)
        return record

    def register_unknown(self, prefix: Prefix) -> None:
        """Register a prefix the database cannot place (Table 1 Unknown)."""
        self.register(prefix, UNKNOWN_RECORD)

    def lookup(self, addr: int) -> GeoRecord:
        """Locate an address; unregistered space is Unknown, like a miss
        against the real database."""
        record = self._trie.lookup_default(addr)
        return record if record is not None else UNKNOWN_RECORD

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"GeoDatabase({self._size} prefixes)"
