"""Bit-identity gate for the packet hot path.

``tests/data/golden_study_*.json`` are full study archives captured
from the tree *before* the hot-path overhaul (slotted packets,
in-place TTL/ECN mutation, per-epoch route tables, inlined samplers,
int TCP flags).  A study run today must reproduce them byte for byte
— any divergence means an RNG draw was added/removed/reordered or a
wire byte changed, which silently invalidates every published number.

The archives are canonical JSON (sorted keys, compact separators) of
``{"traces": ..., "campaign": ...}`` at scale 0.02, seed 20150401.
The QUIC studies are pinned by the SHA-256 of that blob, captured
before QUIC and NTP messages rode their UDP datagrams as objects; their
trace rows carry the QUIC outcomes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.study import Study

DATA = Path(__file__).parent / "data"

GOLDENS = [
    pytest.param(
        "golden_study_scale002_seed20150401.json",
        {},
        id="plain",
    ),
    pytest.param(
        "golden_study_scale002_seed20150401_chaos_default_7.json",
        {"faults": "default", "chaos_seed": 7},
        id="chaos",
    ),
]


QUIC_DIGESTS = [
    pytest.param(
        {"quic": True, "faults": "reroute", "chaos_seed": 7},
        "4827a24b738f65b9fdd1ff4cc18540610a709299d49021a2996a2049eae3effb",
        id="quic-reroute",
    ),
    pytest.param(
        {"quic": True, "faults": "default", "chaos_seed": 7},
        "5b732783b0a0b3870616085a40d6f9d9b9554603ee861c0ed305925d8413acab",
        id="quic-chaos",
    ),
]


def _archive(extra):
    """The study's canonical ``{"traces", "campaign"}`` document and blob."""
    study = Study.run(scale=0.02, seed=20150401, **extra)
    doc = {"traces": study.traces.to_dict(), "campaign": study.campaign.to_dict()}
    return doc, json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("filename, extra", GOLDENS)
def test_study_reproduces_pre_refactor_golden(filename, extra):
    golden_blob = (DATA / filename).read_bytes()
    doc, blob = _archive(extra)
    if blob != golden_blob:
        golden_doc = json.loads(golden_blob)
        # Narrow the failure before asserting on the full blobs: which
        # top-level section diverged, and for traces, which path.
        for key in ("campaign", "traces"):
            assert doc[key] == golden_doc[key], f"{key} diverged from golden"
        raise AssertionError("archives differ despite equal sections")


@pytest.mark.parametrize("extra, digest", QUIC_DIGESTS)
def test_quic_study_reproduces_pinned_digest(extra, digest):
    doc, blob = _archive(extra)
    # A QUIC outcome row is the nine-element base row plus eight more.
    rows = [row for trace in doc["traces"]["traces"] for row in trace["outcomes"]]
    assert sum(len(row) > 9 for row in rows) > 0
    assert hashlib.sha256(blob).hexdigest() == digest
