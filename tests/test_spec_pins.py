"""Literal byte pins of every file that persists a run spec.

``manifest.json``, ``campaign.json`` and ``queue.json`` entries are
read back by later runs (campaign epoch digests hash the manifest), so
their bytes are a contract.  The expected strings below were captured
from the code as it stood before :class:`~repro.spec.StudySpec`
existed; the QUIC queue entry is the one key that spec added.
"""

import json

import pytest

from repro.campaign import CampaignArchive, CampaignSpec
from repro.serve.queue import StudyQueue, Submission
from repro.spec import StudySpec
from repro.study import Study

CAMPAIGN_DRIFT = CampaignSpec(StudySpec(scale=0.002, seed=3), cadence_years=3.5)

CHAOS_MANIFEST = (
    '{"scale": 0.002, "seed": 3, "chaos": {"profile": "default", '
    '"chaos_seed": 7, "events": 24, "epochs_touched": 21, "by_kind": '
    '{"bleach_on": 5, "delay_spike": 5, "link_flap": 8, '
    '"router_blackhole": 6}}}'
)

MANIFESTS = {
    "plain": (
        dict(scale=0.002, seed=3),
        '{"scale": 0.002, "seed": 3}',
    ),
    "chaos-quic-no-traceroutes": (
        dict(
            scale=0.002, seed=3, faults="default", chaos_seed=7, quic=True,
            traceroutes=False, collect_metrics=True,
        ),
        CHAOS_MANIFEST,
    ),
    # A chaotic run records its plan whether or not metrics were on.
    "chaos-quic-no-traceroutes-no-metrics": (
        dict(
            scale=0.002, seed=3, faults="default", chaos_seed=7, quic=True,
            traceroutes=False,
        ),
        CHAOS_MANIFEST,
    ),
    "drifted": (
        dict(scale=0.002, seed=3, drift=CAMPAIGN_DRIFT.drift_for_epoch(1)),
        '{"scale": 0.002, "seed": 3, "drift": {"year": 2018.83, '
        '"bleacher_scale": 0.5704323570432401, "blackhole_scale": '
        '0.731520223152025, "negotiate_rate": 0.8761366806136675, '
        '"churn_scale": 1.2928870292887, "world_seed": 338085706}}',
    ),
}


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_manifest_bytes(name, tmp_path):
    kwargs, expected = MANIFESTS[name]
    Study.run(**kwargs).save(tmp_path)
    assert (tmp_path / "manifest.json").read_text() == expected


def campaign_json(*fields: str) -> str:
    """campaign.json as written for three target epochs."""
    spec = ",\n".join(f"    {field}" for field in fields)
    return (
        '{\n  "format": "ecn-udp-campaign/1",\n  "spec": {\n'
        + spec
        + '\n  },\n  "target_epochs": 3\n}'
    )


PLAIN_CAMPAIGN = (
    '"scale": 0.02', '"seed": 7', '"start_year": 2015.33', '"cadence_years": 1.0',
    '"timeline": "fresh-look"', '"pool_churn": true',
)

CAMPAIGNS = {
    "plain": (CampaignSpec(StudySpec(scale=0.02, seed=7)), PLAIN_CAMPAIGN),
    "chaos-quic-no-traceroutes": (
        CampaignSpec(
            StudySpec(
                scale=0.02, seed=7, faults="default", chaos_seed=3, quic=True,
                traceroutes=False,
            )
        ),
        (*PLAIN_CAMPAIGN, '"chaos": "default"', '"chaos_seed": 3', '"quic": true',
         '"traceroutes": false'),
    ),
    "drifted": (
        CampaignSpec(
            StudySpec(scale=0.02, seed=7), start_year=2018.5, cadence_years=3.5,
            timeline="frozen", pool_churn=False,
        ),
        ('"scale": 0.02', '"seed": 7', '"start_year": 2018.5', '"cadence_years": 3.5',
         '"timeline": "frozen"', '"pool_churn": false'),
    ),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_manifest_bytes(name, tmp_path):
    spec, fields = CAMPAIGNS[name]
    archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=3)
    assert (archive.directory / "campaign.json").read_text() == campaign_json(*fields)
    assert CampaignArchive.load(archive.directory).spec == spec


QUEUE_ENTRIES = {
    "plain": (
        {"scale": 0.02, "seed": 7},
        '{"scale": 0.02, "seed": 7}',
    ),
    "chaos-no-traceroutes": (
        {"scale": 0.02, "seed": 7, "traceroutes": False, "chaos": "default", "chaos_seed": 3},
        '{"scale": 0.02, "seed": 7, "traceroutes": false, "chaos": "default", '
        '"chaos_seed": 3}',
    ),
    "chaos-quic-no-traceroutes": (
        {"quic": True, "chaos": "default", "chaos_seed": 3, "traceroutes": False,
         "seed": 7, "scale": 0.02},
        '{"scale": 0.02, "seed": 7, "traceroutes": false, "chaos": "default", '
        '"chaos_seed": 3, "quic": true}',
    ),
    "campaign": (
        {"scale": 0.02, "seed": 7, "campaign": {
            "epochs": 2, "start_year": 2018, "cadence_years": 3.5,
            "timeline": "frozen", "pool_churn": False, "id": "c1"}},
        '{"scale": 0.02, "seed": 7, "campaign": {"epochs": 2, "start_year": '
        '2018.0, "cadence_years": 3.5, "timeline": "frozen", "pool_churn": '
        'false, "id": "c1"}}',
    ),
    "campaign-sparse": (
        {"scale": 0.01, "seed": 3, "chaos": "light", "traceroutes": False,
         "campaign": {"epochs": 2}},
        '{"scale": 0.01, "seed": 3, "traceroutes": false, "chaos": "light", '
        '"chaos_seed": 0, "campaign": {"epochs": 2}}',
    ),
}


@pytest.mark.parametrize("name", sorted(QUEUE_ENTRIES))
def test_queue_entry_bytes(name):
    params, expected = QUEUE_ENTRIES[name]
    queue = StudyQueue(depth=4, tenant_quota=4)
    queue.submit(
        Submission.from_params(params, run_id="run-00000001", tenant="alice", priority=2)
    )
    (entry,) = queue.snapshot()["entries"]
    assert json.dumps(entry) == (
        '{"run_id": "run-00000001", "tenant": "alice", "priority": 2, "seq": 0, '
        f'"params": {expected}}}'
    )
    restored = StudyQueue(depth=4, tenant_quota=4).restore(queue.snapshot())
    assert restored[0].params() == entry["params"]
