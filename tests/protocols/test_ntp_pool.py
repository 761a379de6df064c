"""Tests for NTP pool membership and zones."""

import pytest

from repro.protocols.ntp.pool import NTPPool, POOL_DOMAIN, PoolMember


def member(index, country="uk", region="europe"):
    return PoolMember(
        hostname=f"ntp-{index}",
        addr=0x3E000000 + index,
        country_code=country,
        region=region,
    )


class TestMembership:
    def test_add_and_count(self):
        pool = NTPPool()
        pool.add(member(1))
        pool.add(member(2))
        assert len(pool) == 2

    def test_duplicate_addr_rejected(self):
        pool = NTPPool()
        pool.add(member(1))
        with pytest.raises(ValueError):
            pool.add(member(1))


class TestZones:
    def test_member_zones(self):
        m = member(1, country="de", region="europe")
        assert m.zones == (
            "pool.ntp.org",
            "europe.pool.ntp.org",
            "de.pool.ntp.org",
        )

    def test_global_zone_first(self):
        pool = NTPPool()
        pool.add(member(1, country="de"))
        pool.add(member(2, country="fr"))
        zones = pool.zone_names()
        assert zones[0] == POOL_DOMAIN
        assert set(zones) == {
            "pool.ntp.org",
            "europe.pool.ntp.org",
            "de.pool.ntp.org",
            "fr.pool.ntp.org",
        }

    def test_zone_members_sorted_by_addr(self):
        pool = NTPPool()
        pool.add(member(2))
        pool.add(member(1))
        addrs = [m.addr for m in pool.zone_members("uk.pool.ntp.org")]
        assert addrs == sorted(addrs)

