"""Tests for the Table 1 / Figure 1 geographic analysis."""

import pytest

from repro.core.analysis.geographic import analyze_geography
from repro.geo.database import GeoDatabase
from repro.geo.regions import COUNTRIES, Region
from repro.netsim.ipv4 import Prefix, parse_addr


def country_by_code(code):
    return next(country for country in COUNTRIES if country.code == code)


def small_db():
    db = GeoDatabase()
    db.register_country(Prefix(parse_addr("62.0.0.0"), 16), country_by_code("de"))
    db.register_country(Prefix(parse_addr("24.0.0.0"), 16), country_by_code("us"))
    return db


class TestDistribution:
    def test_counts(self):
        db = small_db()
        addrs = [
            parse_addr("62.0.0.1"),
            parse_addr("62.0.0.2"),
            parse_addr("24.0.0.1"),
            parse_addr("9.9.9.9"),  # unknown
        ]
        dist = analyze_geography(addrs, db)
        assert dist.count(Region.EUROPE) == 2
        assert dist.count(Region.NORTH_AMERICA) == 1
        assert dist.count(Region.UNKNOWN) == 1
        assert dist.total == 4

    def test_table_rows_order_and_total(self):
        dist = analyze_geography([parse_addr("62.0.0.1")], small_db())
        rows = dist.table_rows()
        assert rows[0][0] == "Africa"
        assert rows[-1] == ("Total", 1)
        assert rows[3] == ("Europe", 1)

    def test_points_exclude_unknown(self):
        db = small_db()
        addrs = [parse_addr("62.0.0.1"), parse_addr("9.9.9.9")]
        dist = analyze_geography(addrs, db)
        assert len(dist.points) == 1
        assert dist.points[0].country_code == "de"

    def test_empty_input(self):
        dist = analyze_geography([], small_db())
        assert dist.total == 0
        assert dist.points == []


class TestOnMeasuredStudy:
    def test_distribution_matches_scaled_table1(self, study_results):
        world, trace_set, _ = study_results
        dist = analyze_geography(trace_set.server_addrs, world.geo)
        for region, expected in world.params.servers.region_counts.items():
            assert dist.count(region) == expected

    def test_europe_dominates(self, study_results):
        """Table 1's shape: Europe >> North America >> Asia > rest."""
        world, trace_set, _ = study_results
        dist = analyze_geography(trace_set.server_addrs, world.geo)
        assert dist.count(Region.EUROPE) > dist.count(Region.NORTH_AMERICA)
        assert dist.count(Region.NORTH_AMERICA) > dist.count(Region.ASIA)

    def test_points_cover_both_hemispheres(self, study_results):
        world, trace_set, _ = study_results
        dist = analyze_geography(trace_set.server_addrs, world.geo)
        lats = [p.latitude for p in dist.points]
        lons = [p.longitude for p in dist.points]
        assert min(lats) < 0 < max(lats)
        assert min(lons) < 0 < max(lons)
