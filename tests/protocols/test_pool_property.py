"""Property tests for pool-zone invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.ntp.pool import NTPPool, POOL_DOMAIN, PoolMember

_country = st.sampled_from(["uk", "de", "fr", "us", "jp", "au", "br", "za"])
_region = st.sampled_from(
    ["europe", "north-america", "asia", "australia", "south-america", "africa"]
)


@st.composite
def pools(draw):
    count = draw(st.integers(1, 40))
    pool = NTPPool()
    for index in range(count):
        pool.add(
            PoolMember(
                hostname=f"ntp-{index}",
                addr=1000 + index,
                country_code=draw(_country),
                region=draw(_region),
            )
        )
    return pool


@settings(max_examples=50, deadline=None)
@given(pools())
def test_every_member_in_global_zone(pool):
    global_members = pool.zone_members(POOL_DOMAIN)
    assert {m.addr for m in global_members} == {m.addr for m in pool.members()}


@settings(max_examples=50, deadline=None)
@given(pools())
def test_zone_names_cover_every_member_zone(pool):
    names = set(pool.zone_names())
    for member in pool.members():
        assert set(member.zones) <= names


@settings(max_examples=50, deadline=None)
@given(pools())
def test_country_zone_members_share_the_country(pool):
    for zone in pool.zone_names():
        label = zone.split(".")[0]
        if len(label) == 2:  # country zone
            for member in pool.zone_members(zone):
                assert member.country_code == label
