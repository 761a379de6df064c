"""Synthetic IP geolocation (GeoLite2-City substitute)."""

from .database import GeoDatabase, GeoRecord, UNKNOWN_RECORD
from .regions import (
    COUNTRIES,
    Country,
    PAPER_REGION_COUNTS,
    PAPER_TOTAL_SERVERS,
    Region,
    countries_in_region,
)

__all__ = [
    "COUNTRIES",
    "Country",
    "GeoDatabase",
    "GeoRecord",
    "PAPER_REGION_COUNTS",
    "PAPER_TOTAL_SERVERS",
    "Region",
    "UNKNOWN_RECORD",
    "countries_in_region",
]
