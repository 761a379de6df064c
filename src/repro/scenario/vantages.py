"""The thirteen measurement vantage points of the study.

Two author homes (different UK ISPs), the University of Glasgow on
wired and wireless access, and one VM in each of the nine 2015 EC2
regions.  Each vantage carries the access-network character the paper
attributes to it:

* **McQuistin home** — "poor reachability ... perhaps due to
  congestion in the access network", and by far the largest count of
  servers unreachable with ECT-marked UDP (Table 2: 160 vs ~10
  elsewhere).  Modelled as a congested non-ECN AQM on the upstream
  plus a home-gateway middlebox that preferentially drops ECT-marked
  UDP — the paper's own hypothesis of equipment "treating the ECN bits
  as part of the type-of-service field and preferentially dropping".
* **UGla wireless** — "more variation in the wireless traces", and
  Table 2's elevated ECT-unreachable count: multi-second outage
  bursts (interference/roaming) that can swallow an entire
  5-retransmission probe sequence, over a small base loss.
* **Wired/EC2 vantages** — clean access.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geo.regions import Region


@dataclass(frozen=True)
class VantageSpec:
    """Static description of one measurement location."""

    key: str
    #: Bar label used in the paper's figures.
    label: str
    #: Longer name used in Table 2 and Figure 3 rows.
    table_label: str
    kind: str  # "home" | "campus-wired" | "campus-wireless" | "ec2"
    region: Region
    country_code: str
    #: Baseline per-packet loss on the access link.
    access_loss: float = 0.001
    #: Timed outage bursts (wireless): mean arrivals per second, mean
    #: duration in seconds, and loss rate during an outage; a zero
    #: rate disables.
    outage_rate: float = 0.0
    outage_duration: float = 0.0
    outage_loss: float = 0.8
    #: Congestion signalling probability on the upstream (non-ECN AQM).
    congestion_probability: float = 0.0
    #: Probability that the home gateway drops an ECT-marked UDP packet.
    ect_udp_drop_probability: float = 0.0
    #: Whether the vantage participates in the early measurement batch.
    in_batch1: bool = False


#: The thirteen vantages, in the paper's figure order (left to right).
VANTAGES: tuple[VantageSpec, ...] = (
    VantageSpec(
        key="perkins-home",
        label="Perkins\nhome",
        table_label="Perkins home",
        kind="home",
        region=Region.EUROPE,
        country_code="uk",
        access_loss=0.004,
        in_batch1=True,
    ),
    VantageSpec(
        key="mcquistin-home",
        label="McQuistin\nhome",
        table_label="McQuistin home",
        kind="home",
        region=Region.EUROPE,
        country_code="uk",
        access_loss=0.012,
        congestion_probability=0.035,
        ect_udp_drop_probability=0.55,
        in_batch1=True,
    ),
    VantageSpec(
        key="ugla-wired",
        label="UGla\nwired",
        table_label="U. Glasgow wired",
        kind="campus-wired",
        region=Region.EUROPE,
        country_code="uk",
        access_loss=0.0005,
    ),
    VantageSpec(
        key="ugla-wireless",
        label="UGla\nw'less",
        table_label="U. Glasgow w'less",
        kind="campus-wireless",
        region=Region.EUROPE,
        country_code="uk",
        access_loss=0.002,
        # Calibrated so the wireless vantage shows roughly double the
        # clean vantages' transient ECT-unreachable count with visible
        # trace-to-trace variance (the paper's Table 2 wireless row is
        # higher still at 43, but pushing the outage model harder
        # inflates the converse differential past what Figure 2b
        # allows — see EXPERIMENTS.md "Honest deviations").
        outage_rate=1.0 / 110.0,
        outage_duration=10.0,
        outage_loss=0.78,
        in_batch1=True,
    ),
    VantageSpec(
        key="ec2-california",
        label="EC2\nCal",
        table_label="EC2 California",
        kind="ec2",
        region=Region.NORTH_AMERICA,
        country_code="us",
        access_loss=0.0002,
    ),
    VantageSpec(
        key="ec2-frankfurt",
        label="EC2\nFra",
        table_label="EC2 Frankfurt",
        kind="ec2",
        region=Region.EUROPE,
        country_code="de",
        access_loss=0.0002,
    ),
    VantageSpec(
        key="ec2-ireland",
        label="EC2\nIre",
        table_label="EC2 Ireland",
        kind="ec2",
        region=Region.EUROPE,
        country_code="uk",
        access_loss=0.0002,
    ),
    VantageSpec(
        key="ec2-oregon",
        label="EC2\nOre",
        table_label="EC2 Oregon",
        kind="ec2",
        region=Region.NORTH_AMERICA,
        country_code="us",
        access_loss=0.0002,
    ),
    VantageSpec(
        key="ec2-saopaulo",
        label="EC2\nSao",
        table_label="EC2 Sao Paulo",
        kind="ec2",
        region=Region.SOUTH_AMERICA,
        country_code="br",
        access_loss=0.0003,
    ),
    VantageSpec(
        key="ec2-singapore",
        label="EC2\nSin",
        table_label="EC2 Singapore",
        kind="ec2",
        region=Region.ASIA,
        country_code="sg",
        access_loss=0.0002,
    ),
    VantageSpec(
        key="ec2-sydney",
        label="EC2\nSyd",
        table_label="EC2 Sydney",
        kind="ec2",
        region=Region.AUSTRALIA,
        country_code="au",
        access_loss=0.0002,
    ),
    VantageSpec(
        key="ec2-tokyo",
        label="EC2\nTok",
        table_label="EC2 Tokyo",
        kind="ec2",
        region=Region.ASIA,
        country_code="jp",
        access_loss=0.0002,
    ),
    VantageSpec(
        key="ec2-virginia",
        label="EC2\nVir",
        table_label="EC2 Virginia",
        kind="ec2",
        region=Region.NORTH_AMERICA,
        country_code="us",
        access_loss=0.0002,
    ),
)


def ec2_vantages() -> tuple[VantageSpec, ...]:
    """The nine EC2 vantages (source of the Phoenix-pair scoping)."""
    return tuple(spec for spec in VANTAGES if spec.kind == "ec2")
