"""The span determinism contract: sharded ≡ sequential, bit for bit.

A span tree's canonical projection (:func:`repro.obs.canonical_events`,
which strips only wall-clock attribution) must be identical between
``workers=0`` and ``workers=N`` for the same
``(scale, seed, chaos_seed)`` — same ids, same hierarchy, same
simulated times, same fault events.  This holds because span ids
derive from ``(shard_id, sequence counter)`` and simulated times from
hermetic epoch clocks, neither of which knows how many processes did
the work.
"""

import json

import pytest

from repro.obs import ROOT_SPAN_ID, canonical_events, span_children
from repro.study import Study

pytestmark = pytest.mark.slow

SCALE = 0.04
SEED = 11


@pytest.fixture(scope="module")
def sequential():
    return Study.run(scale=SCALE, seed=SEED, record="probe")


@pytest.fixture(scope="module")
def sharded():
    return Study.run(scale=SCALE, seed=SEED, workers=2, record="probe")


class TestCanonicalEquivalence:
    def test_span_trees_bit_identical_across_sharding(self, sequential, sharded):
        seq = canonical_events(sequential.spans)
        par = canonical_events(sharded.spans)
        assert seq == par
        # Byte-level too: identical JSON serialisation.
        assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)

    def test_wall_clock_rides_outside_the_contract(self, sequential):
        assert all("wall_ms" in span for span in sequential.spans)
        assert all(
            "wall_ms" not in span for span in canonical_events(sequential.spans)
        )

    def test_probe_detail_captures_phases(self, sequential):
        kinds = {span["kind"] for span in sequential.spans}
        assert {"study", "shard", "trace", "sweep", "probe", "phase"} <= kinds

    def test_hierarchy_is_a_single_rooted_tree(self, sequential):
        ids = {span["id"] for span in sequential.spans}
        assert len(ids) == len(sequential.spans), "duplicate span ids"
        index = span_children(sequential.spans)
        roots = index[None]
        assert [s["id"] for s in roots] == [ROOT_SPAN_ID]
        for span in sequential.spans:
            if span["parent"] is not None:
                assert span["parent"] in ids


class TestChaoticEquivalence:
    def test_chaotic_span_trees_identical_and_carry_fault_events(self):
        seq = Study.run(
            scale=0.02, seed=SEED, record="epoch", faults="default", chaos_seed=3
        )
        par = Study.run(
            scale=0.02,
            seed=SEED,
            workers=2,
            record="epoch",
            faults="default",
            chaos_seed=3,
        )
        assert canonical_events(seq.spans) == canonical_events(par.spans)
        fault_events = [
            event
            for span in seq.spans
            for event in span.get("events", ())
            if event["name"] == "fault"
        ]
        assert fault_events, "chaotic run recorded no fault events in spans"


class TestInertness:
    def test_spans_off_by_default(self, sequential):
        study = Study.run(scale=0.02, seed=SEED)
        assert study.spans is None
        # And recording did not perturb the measurement itself.
        small = Study.run(scale=0.02, seed=SEED, record="probe")
        assert small.traces.to_dict() == study.traces.to_dict()
        assert small.campaign.to_dict() == study.campaign.to_dict()


class TestArchival:
    def test_save_writes_spans_and_chrome_trace(self, sequential, tmp_path):
        out = sequential.save(tmp_path / "study")
        spans_doc = json.loads((out / "spans.json").read_text())
        assert spans_doc["format"] == "ecn-udp-spans/1"
        assert spans_doc["spans"] == sequential.spans
        trace_doc = json.loads((out / "trace.json").read_text())
        assert {e["ph"] for e in trace_doc["traceEvents"]} <= {"X", "M", "i"}
        loaded = Study.load(out)
        assert loaded.spans == sequential.spans
