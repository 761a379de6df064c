"""Tests for the trace data model and serialisation."""

import pytest

from repro.core.traces import (
    HopObservation,
    PathTrace,
    ProbeOutcome,
    QUICProbeOutcome,
    Trace,
    TraceSet,
    TracerouteCampaign,
    _outcome_from_row,
    _outcome_to_row,
)
from repro.netsim.ecn import ECN


def outcome(addr, plain=True, ect=True, tcp=False, ecn_neg=False, status=None):
    return ProbeOutcome(
        server_addr=addr,
        udp_plain=plain,
        udp_ect=ect,
        udp_plain_attempts=1 if plain else 5,
        udp_ect_attempts=1 if ect else 5,
        tcp_plain=tcp,
        tcp_ecn=tcp,
        ecn_negotiated=ecn_neg,
        http_status=status,
    )


class TestProbeOutcome:
    def test_differential_plain_only(self):
        assert outcome(1, plain=True, ect=False).udp_differential_plain_only
        assert not outcome(1, plain=True, ect=True).udp_differential_plain_only
        assert not outcome(1, plain=False, ect=False).udp_differential_plain_only

    def test_differential_ect_only(self):
        assert outcome(1, plain=False, ect=True).udp_differential_ect_only
        assert not outcome(1, plain=True, ect=True).udp_differential_ect_only


class TestTraceAggregates:
    def _trace(self):
        trace = Trace(trace_id=0, vantage_key="v", batch=1, started_at=0.0)
        trace.add(outcome(1, plain=True, ect=True, tcp=True, ecn_neg=True, status=302))
        trace.add(outcome(2, plain=True, ect=False))
        trace.add(outcome(3, plain=False, ect=False))
        trace.add(outcome(4, plain=False, ect=True, tcp=True))
        return trace

    def test_counts(self):
        trace = self._trace()
        assert trace.count_udp_plain() == 2
        assert trace.count_udp_ect() == 2
        assert trace.count_udp_both() == 1
        assert trace.count_tcp_plain() == 2
        assert trace.count_ecn_negotiated() == 1

    def test_figure2_percentages(self):
        trace = self._trace()
        assert trace.pct_ect_given_plain() == pytest.approx(50.0)
        assert trace.pct_plain_given_ect() == pytest.approx(50.0)

    def test_percentages_none_when_empty(self):
        trace = Trace(trace_id=0, vantage_key="v", batch=1, started_at=0.0)
        assert trace.pct_ect_given_plain() is None
        assert trace.pct_plain_given_ect() is None

    def test_outcome_lookup(self):
        trace = self._trace()
        assert trace.outcomes.get(2).udp_differential_plain_only
        assert trace.outcomes.get(99) is None


class TestTraceSetRoundtrip:
    def _trace_set(self):
        ts = TraceSet(server_addrs=[1, 2, 3, 4], description="unit test")
        for trace_id, vantage in enumerate(("a", "b", "a")):
            trace = Trace(
                trace_id=trace_id,
                vantage_key=vantage,
                batch=1 if trace_id < 2 else 2,
                started_at=float(trace_id),
            )
            trace.add(outcome(1, tcp=True, ecn_neg=True, status=200))
            trace.add(outcome(2, plain=True, ect=False))
            ts.add(trace)
        return ts

    def test_json_roundtrip(self, tmp_path):
        ts = self._trace_set()
        path = tmp_path / "traces.json"
        ts.save(path)
        loaded = TraceSet.load(path)
        assert loaded.server_addrs == ts.server_addrs
        assert loaded.description == "unit test"
        assert len(loaded) == 3
        original = ts.traces[0].outcomes.get(1)
        restored = loaded.traces[0].outcomes.get(1)
        assert restored == original

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            TraceSet.from_dict({"format": "bogus"})

    def test_quic_outcome_roundtrip(self, tmp_path):
        """The append-only row extension (9 -> 17 elements) survives
        the archival JSON codec with full fidelity."""
        ts = self._trace_set()
        quic = QUICProbeOutcome(
            state="bleached",
            handshake_ok=True,
            handshake_attempts=1,
            packets_sent=9,
            packets_acked=8,
            ect0_echoed=2,
            ect1_echoed=0,
            ce_echoed=1,
        )
        ts.traces[0].outcomes.get(1).quic = quic
        path = tmp_path / "quic-traces.json"
        ts.save(path)
        loaded = TraceSet.load(path)
        assert loaded.traces[0].outcomes.get(1).quic == quic
        assert loaded.traces[0].outcomes.get(2).quic is None
        assert loaded.traces[1].outcomes.get(1).quic is None

    def test_row_codec_length_is_append_only(self):
        legacy = outcome(1, tcp=True, ecn_neg=True, status=200)
        assert len(_outcome_to_row(legacy)) == 9
        legacy.quic = QUICProbeOutcome(state="valid")
        row = _outcome_to_row(legacy)
        assert len(row) == 17
        assert _outcome_from_row(row) == legacy
        # Legacy 9-element rows (pre-QUIC archives) still decode.
        assert _outcome_from_row(row[:9]).quic is None

    def test_by_vantage(self):
        ts = self._trace_set()
        assert len(ts.by_vantage("a")) == 2
        assert len(ts.by_vantage("b")) == 1
        assert ts.vantage_keys() == ["a", "b"]


class TestPathTraces:
    def _path(self):
        path = PathTrace(vantage_key="v", dst_addr=99, sent_ecn=int(ECN.ECT_0))
        path.hops.append(HopObservation(1, 11, int(ECN.ECT_0), int(ECN.ECT_0)))
        path.hops.append(HopObservation(2, None, int(ECN.ECT_0), None))
        path.hops.append(HopObservation(3, 33, int(ECN.ECT_0), int(ECN.NOT_ECT)))
        path.hops.append(HopObservation(4, 44, int(ECN.ECT_0), int(ECN.NOT_ECT)))
        return path

    def test_mark_preserved(self):
        path = self._path()
        assert path.hops[0].mark_preserved is True
        assert path.hops[1].mark_preserved is None
        assert path.hops[2].mark_preserved is False

    def test_first_strip_ttl(self):
        assert self._path().first_strip_ttl() == 3
        clean = PathTrace(vantage_key="v", dst_addr=1, sent_ecn=2)
        assert clean.first_strip_ttl() is None

    def test_responding_hops(self):
        assert [h.ttl for h in self._path().responding_hops()] == [1, 3, 4]

    def test_campaign_roundtrip(self, tmp_path):
        campaign = TracerouteCampaign()
        campaign.add(self._path())
        path = tmp_path / "routes.json"
        campaign.save(path)
        loaded = TracerouteCampaign.load(path)
        assert len(loaded) == 1
        restored = loaded.paths[0]
        assert restored.dst_addr == 99
        assert [h.responder for h in restored.hops] == [11, None, 33, 44]
        assert restored.hops[2].mark_preserved is False

    def test_campaign_by_vantage(self):
        campaign = TracerouteCampaign()
        campaign.add(self._path())
        assert len(campaign.by_vantage("v")) == 1
        assert campaign.by_vantage("other") == []


class TestStrictLoaders:
    """Malformed archives raise ``ValueError`` naming the field; none
    loads as something it is not, none crashes with another error."""

    @staticmethod
    def traceset(row):
        return {
            "format": "ecn-udp-traceset/1",
            "server_addrs": [7],
            "traces": [
                {
                    "trace_id": 0,
                    "vantage_key": "ugla-wired",
                    "batch": 1,
                    "started_at": 0.0,
                    "outcomes": [row],
                }
            ],
        }

    BASE = [7, 1, 1, 1, 1, 1, 1, 1, 200]
    QUIC = [0, 1, 1, 13, 13, 13, 0, 0]

    def test_well_formed_rows_load(self):
        for row in (self.BASE, self.BASE + self.QUIC):
            loaded = TraceSet.from_dict(self.traceset(row))
            assert _outcome_to_row(loaded.traces[0].outcomes.get(7)) == row

    @pytest.mark.parametrize(
        "row,field",
        [
            # A negative index used to load as the last state.
            ([7, 1, 1, 1, 1, 1, 1, 1, 200, -1, 1, 1, 13, 13, 13, 0, 0], "quic.state"),
            ([7, 1, 1, 1, 1, 1, 1, 1, 200, 99, 1, 1, 13, 13, 13, 0, 0], "quic.state"),
            # A 10-element row used to raise IndexError.
            ([7, 1, 1, 1, 1, 1, 1, 1, 200, 0], r"outcomes\[0\]: expected 9 or 17"),
            # A string HTTP status used to raise TypeError.
            ([7, 1, 1, 1, 1, 1, 1, 1, "200"], "http_status"),
            ([7, True, 1, 1, 1, 1, 1, 1, 200], "udp_plain"),
            ({"server_addr": 7}, r"outcomes\[0\]"),
        ],
    )
    def test_bad_outcome_row(self, row, field):
        with pytest.raises(ValueError, match=field):
            TraceSet.from_dict(self.traceset(row))

    @pytest.mark.parametrize("loader", [TraceSet, TracerouteCampaign])
    @pytest.mark.parametrize("document", [[], "traces", 3, None])
    def test_non_object_document(self, loader, document):
        # A non-object document used to raise AttributeError.
        with pytest.raises(ValueError, match="document: expected an object"):
            loader.from_dict(document)

    def test_bad_trace_field(self):
        document = self.traceset(self.BASE)
        document["traces"][0]["trace_id"] = "0"
        with pytest.raises(ValueError, match=r"traces\[0\]\.trace_id"):
            TraceSet.from_dict(document)
        del document["traces"][0]["trace_id"]
        with pytest.raises(ValueError, match=r"traces\[0\]\.trace_id: missing"):
            TraceSet.from_dict(document)

    @pytest.mark.parametrize(
        "hops", [[[1, 2, 3]], [[1, 2, 3, "4"]], [None], "hops"]
    )
    def test_bad_traceroute_hops(self, hops):
        document = {
            "format": "ecn-udp-traceroutes/1",
            "paths": [
                {
                    "vantage_key": "ugla-wired",
                    "dst_addr": 7,
                    "sent_ecn": 2,
                    "reached_destination": True,
                    "hops": hops,
                }
            ],
        }
        with pytest.raises(ValueError, match=r"paths\[0\]\.hops"):
            TracerouteCampaign.from_dict(document)
