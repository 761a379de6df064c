"""Tests for regions and the synthetic geolocation database."""

import random

import pytest

from repro.geo.database import GeoDatabase, UNKNOWN_RECORD
from repro.geo.regions import (
    COUNTRIES,
    PAPER_REGION_COUNTS,
    PAPER_TOTAL_SERVERS,
    Region,
    countries_in_region,
)
from repro.netsim.ipv4 import Prefix, parse_addr


def country_by_code(code):
    return next(country for country in COUNTRIES if country.code == code)


class TestRegions:
    def test_paper_counts_sum_to_total(self):
        assert sum(PAPER_REGION_COUNTS.values()) == PAPER_TOTAL_SERVERS == 2500

    def test_paper_counts_match_table1(self):
        assert PAPER_REGION_COUNTS[Region.EUROPE] == 1664
        assert PAPER_REGION_COUNTS[Region.NORTH_AMERICA] == 522
        assert PAPER_REGION_COUNTS[Region.ASIA] == 190
        assert PAPER_REGION_COUNTS[Region.AUSTRALIA] == 68
        assert PAPER_REGION_COUNTS[Region.SOUTH_AMERICA] == 32
        assert PAPER_REGION_COUNTS[Region.AFRICA] == 22
        assert PAPER_REGION_COUNTS[Region.UNKNOWN] == 2

    def test_ordered_matches_table_rows(self):
        assert [r.value for r in Region.ordered()] == [
            "Africa",
            "Asia",
            "Australia",
            "Europe",
            "North America",
            "South America",
            "Unknown",
        ]

    def test_every_populated_region_has_countries(self):
        for region, count in PAPER_REGION_COUNTS.items():
            if region is Region.UNKNOWN or count == 0:
                continue
            assert countries_in_region(region), region

    def test_country_codes_unique(self):
        codes = [c.code for c in COUNTRIES]
        assert len(codes) == len(set(codes))

    def test_coordinates_plausible(self):
        for country in COUNTRIES:
            assert -90 <= country.latitude <= 90
            assert -180 <= country.longitude <= 180


class TestGeoDatabase:
    def test_lookup_registered_country(self):
        db = GeoDatabase()
        germany = country_by_code("de")
        db.register_country(Prefix(parse_addr("62.1.0.0"), 16), germany)
        record = db.lookup(parse_addr("62.1.3.4"))
        assert record.country_code == "de"
        assert record.region is Region.EUROPE

    def test_unregistered_is_unknown(self):
        db = GeoDatabase()
        assert db.lookup(parse_addr("8.8.8.8")) is UNKNOWN_RECORD
        assert db.lookup(parse_addr("8.8.8.8")).region is Region.UNKNOWN

    def test_register_unknown(self):
        db = GeoDatabase()
        db.register_country(Prefix(parse_addr("62.1.0.0"), 16), country_by_code("de"))
        db.register_unknown(Prefix(parse_addr("62.1.5.0"), 24))
        # Longest prefix: the /24 unknown shadows the /16 country.
        assert db.lookup(parse_addr("62.1.5.9")).region is Region.UNKNOWN
        assert db.lookup(parse_addr("62.1.6.9")).region is Region.EUROPE

    def test_scatter_stays_in_bounds(self):
        db = GeoDatabase()
        rng = random.Random(1)
        for index in range(100):
            record = db.register_country(
                Prefix(parse_addr(f"62.{index}.0.0"), 16),
                country_by_code("se"),
                rng=rng,
                scatter_degrees=5.0,
            )
            assert -85 <= record.latitude <= 85
            assert -180 <= record.longitude <= 180

    def test_scatter_produces_spread(self):
        db = GeoDatabase()
        rng = random.Random(2)
        points = {
            (
                db.register_country(
                    Prefix(parse_addr(f"24.{i}.0.0"), 16), country_by_code("us"), rng=rng
                ).latitude
            )
            for i in range(20)
        }
        assert len(points) > 10

    def test_len_counts_registrations(self):
        db = GeoDatabase()
        db.register_unknown(Prefix(parse_addr("10.0.0.0"), 24))
        db.register_unknown(Prefix(parse_addr("10.0.1.0"), 24))
        assert len(db) == 2
