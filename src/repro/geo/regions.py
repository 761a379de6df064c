"""Geographic regions and countries used in the study.

Table 1 of the paper groups the 2500 discovered servers into six
regions (plus "Unknown" for addresses the GeoLite2 database cannot
place).  This module defines those regions, a realistic set of
countries per region (weighted roughly by 2015 NTP-pool membership,
which skewed heavily European), and the paper's target counts used by
the scenario calibration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Region(enum.Enum):
    """The continental regions of Table 1."""

    AFRICA = "Africa"
    ASIA = "Asia"
    AUSTRALIA = "Australia"
    EUROPE = "Europe"
    NORTH_AMERICA = "North America"
    SOUTH_AMERICA = "South America"
    UNKNOWN = "Unknown"

    @classmethod
    def ordered(cls) -> tuple["Region", ...]:
        """Regions in Table 1's row order."""
        return (
            cls.AFRICA,
            cls.ASIA,
            cls.AUSTRALIA,
            cls.EUROPE,
            cls.NORTH_AMERICA,
            cls.SOUTH_AMERICA,
            cls.UNKNOWN,
        )


#: Table 1 of the paper: NTP pool servers per region.
PAPER_REGION_COUNTS: dict[Region, int] = {
    Region.AFRICA: 22,
    Region.ASIA: 190,
    Region.AUSTRALIA: 68,
    Region.EUROPE: 1664,
    Region.NORTH_AMERICA: 522,
    Region.SOUTH_AMERICA: 32,
    Region.UNKNOWN: 2,
}

PAPER_TOTAL_SERVERS = 2500


@dataclass(frozen=True)
class Country:
    """A country: ISO code, region, centroid, and a pool-size weight."""

    code: str
    name: str
    region: Region
    latitude: float
    longitude: float
    weight: float


#: Countries per region, with weights approximating the 2015 pool's
#: national skew (e.g. Germany, France, UK, and the Netherlands hosted
#: a disproportionate share of European pool servers).
COUNTRIES: tuple[Country, ...] = (
    # Europe
    Country("de", "Germany", Region.EUROPE, 51.2, 10.4, 22.0),
    Country("fr", "France", Region.EUROPE, 46.6, 2.4, 12.0),
    Country("uk", "United Kingdom", Region.EUROPE, 54.0, -2.5, 11.0),
    Country("nl", "Netherlands", Region.EUROPE, 52.2, 5.3, 9.0),
    Country("se", "Sweden", Region.EUROPE, 62.0, 15.0, 5.0),
    Country("ch", "Switzerland", Region.EUROPE, 46.8, 8.2, 4.0),
    Country("it", "Italy", Region.EUROPE, 42.8, 12.6, 4.0),
    Country("pl", "Poland", Region.EUROPE, 52.1, 19.4, 4.0),
    Country("es", "Spain", Region.EUROPE, 40.2, -3.7, 3.0),
    Country("ru", "Russia", Region.EUROPE, 55.7, 37.6, 5.0),
    Country("fi", "Finland", Region.EUROPE, 64.9, 26.0, 3.0),
    Country("at", "Austria", Region.EUROPE, 47.6, 14.1, 3.0),
    Country("cz", "Czech Republic", Region.EUROPE, 49.8, 15.5, 3.0),
    Country("dk", "Denmark", Region.EUROPE, 56.0, 10.0, 2.0),
    Country("no", "Norway", Region.EUROPE, 61.0, 9.0, 2.0),
    Country("be", "Belgium", Region.EUROPE, 50.6, 4.7, 2.0),
    # North America
    Country("us", "United States", Region.NORTH_AMERICA, 39.8, -98.6, 20.0),
    Country("ca", "Canada", Region.NORTH_AMERICA, 56.1, -106.3, 4.0),
    Country("mx", "Mexico", Region.NORTH_AMERICA, 23.6, -102.5, 1.0),
    # Asia
    Country("jp", "Japan", Region.ASIA, 36.2, 138.3, 4.0),
    Country("cn", "China", Region.ASIA, 35.9, 104.2, 3.0),
    Country("sg", "Singapore", Region.ASIA, 1.35, 103.8, 2.0),
    Country("in", "India", Region.ASIA, 20.6, 79.0, 2.0),
    Country("kr", "South Korea", Region.ASIA, 35.9, 127.8, 1.5),
    Country("hk", "Hong Kong", Region.ASIA, 22.3, 114.2, 1.5),
    Country("tw", "Taiwan", Region.ASIA, 23.7, 121.0, 1.0),
    Country("id", "Indonesia", Region.ASIA, -0.8, 113.9, 1.0),
    # Australia / Oceania
    Country("au", "Australia", Region.AUSTRALIA, -25.3, 133.8, 3.0),
    Country("nz", "New Zealand", Region.AUSTRALIA, -40.9, 174.9, 1.0),
    # South America
    Country("br", "Brazil", Region.SOUTH_AMERICA, -14.2, -51.9, 2.0),
    Country("ar", "Argentina", Region.SOUTH_AMERICA, -38.4, -63.6, 0.7),
    Country("cl", "Chile", Region.SOUTH_AMERICA, -35.7, -71.5, 0.3),
    # Africa
    Country("za", "South Africa", Region.AFRICA, -30.6, 22.9, 1.2),
    Country("ke", "Kenya", Region.AFRICA, -0.02, 37.9, 0.4),
    Country("eg", "Egypt", Region.AFRICA, 26.8, 30.8, 0.4),
)


def countries_in_region(region: Region) -> tuple[Country, ...]:
    """All configured countries belonging to ``region``."""
    return tuple(c for c in COUNTRIES if c.region == region)
