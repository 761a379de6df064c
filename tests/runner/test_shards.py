"""Unit tests: shard planning, the wire codec, and merge."""

import pytest

from repro.core.measurement import trace_plan
from repro.core.traces import HopObservation, PathTrace, ProbeOutcome, Trace
from repro.runner import (
    KIND_TRACEROUTES,
    KIND_TRACES,
    MergeError,
    WIRE_FORMAT,
    decode_path,
    encode_path,
    merge_campaign,
    merge_traces,
    plan_shards,
)
from repro.scenario.parameters import TraceScheduleParams
from repro.scenario.vantages import VANTAGES


class TestPlanShards:
    def test_trace_shards_partition_the_plan(self):
        schedule = TraceScheduleParams()
        plan = trace_plan(schedule)
        shards = [
            s for s in plan_shards(schedule) if s.kind == KIND_TRACES
        ]
        covered = [tid for shard in shards for tid in shard.trace_ids]
        assert sorted(covered) == [p.trace_id for p in plan]
        assert len(covered) == len(set(covered))

    def test_shards_are_single_vantage_batch_slices(self):
        schedule = TraceScheduleParams()
        by_id = {p.trace_id: p for p in trace_plan(schedule)}
        for shard in plan_shards(schedule):
            if shard.kind != KIND_TRACES:
                continue
            for tid in shard.trace_ids:
                assert by_id[tid].vantage_key == shard.vantage_key
                assert by_id[tid].batch == shard.batch

    def test_one_traceroute_shard_per_vantage(self):
        shards = plan_shards(TraceScheduleParams())
        sweep = [s for s in shards if s.kind == KIND_TRACEROUTES]
        assert [s.vantage_key for s in sweep] == [spec.key for spec in VANTAGES]

    def test_traceroutes_flag_off(self):
        shards = plan_shards(TraceScheduleParams(), traceroutes=False)
        assert all(s.kind == KIND_TRACES for s in shards)

    def test_shard_ids_unique_and_sequential(self):
        shards = plan_shards(TraceScheduleParams())
        assert [s.shard_id for s in shards] == list(range(len(shards)))

    def test_planned_traces_rehydrate(self):
        shard = next(
            s for s in plan_shards(TraceScheduleParams()) if s.kind == KIND_TRACES
        )
        planned = shard.planned_traces()
        assert [p.trace_id for p in planned] == list(shard.trace_ids)
        assert all(p.vantage_key == shard.vantage_key for p in planned)

    def test_units(self):
        shards = plan_shards(TraceScheduleParams())
        traces = next(s for s in shards if s.kind == KIND_TRACES)
        sweep = next(s for s in shards if s.kind == KIND_TRACEROUTES)
        assert traces.units(40) == len(traces.trace_ids)
        assert sweep.units(40) == 40


def _sample_trace(trace_id: int = 3) -> Trace:
    trace = Trace(
        trace_id=trace_id, vantage_key="ugla-wired", batch=2, started_at=12.5
    )
    trace.add(
        ProbeOutcome(
            server_addr=1234,
            udp_plain=True,
            udp_ect=False,
            udp_plain_attempts=2,
            udp_ect_attempts=5,
            tcp_plain=True,
            tcp_ecn=True,
            ecn_negotiated=True,
            http_status=200,
        )
    )
    trace.add(ProbeOutcome(server_addr=5678))
    return trace


def _sample_path(vantage_key: str = "ugla-wired") -> PathTrace:
    return PathTrace(
        vantage_key=vantage_key,
        dst_addr=99,
        sent_ecn=1,
        reached_destination=True,
        hops=[
            HopObservation(
                ttl=1,
                responder=42,
                sent_ecn=1,
                quoted_ecn=1,
                rtt=0.013,
                quoted_tos=4,
                quoted_ident=7,
            ),
            HopObservation(ttl=2, responder=None, sent_ecn=1, quoted_ecn=None),
        ],
    )


class TestCodec:
    def test_trace_roundtrip(self):
        trace = _sample_trace()
        decoded = Trace.from_dict(trace.to_dict())
        assert decoded == trace

    def test_path_roundtrip_keeps_optional_hop_fields(self):
        # rtt / quoted_tos / quoted_ident are dropped by the archival
        # JSON format but must survive the shard wire format: the CLI
        # and tracebox analyses read them from in-memory objects.
        path = _sample_path()
        decoded = decode_path(encode_path(path))
        assert decoded == path
        assert decoded.hops[0].rtt == pytest.approx(0.013)
        assert decoded.hops[0].quoted_tos == 4
        assert decoded.hops[0].quoted_ident == 7


class TestMerge:
    def _result(self, traces=(), paths=None, fmt=WIRE_FORMAT):
        result = {"format": fmt, "shard_id": 0, "kind": KIND_TRACES}
        result["traces"] = [t.to_dict() for t in traces]
        if paths is not None:
            result["kind"] = KIND_TRACEROUTES
            del result["traces"]
            result["paths"] = [encode_path(p) for p in paths]
        return result

    def test_traces_sorted_by_id(self):
        merged = merge_traces(
            [
                self._result(traces=[_sample_trace(5)]),
                self._result(traces=[_sample_trace(1), _sample_trace(3)]),
            ],
            server_addrs=[1234, 5678],
            description="d",
        )
        assert [t.trace_id for t in merged] == [1, 3, 5]
        assert merged.server_addrs == [1234, 5678]
        assert merged.description == "d"

    def test_duplicate_trace_ids_collapse(self):
        # A retried shard whose first result also arrived: both copies
        # are bit-identical by the epoch contract, keep exactly one.
        merged = merge_traces(
            [
                self._result(traces=[_sample_trace(2)]),
                self._result(traces=[_sample_trace(2)]),
            ],
            server_addrs=[],
            description="",
        )
        assert len(merged) == 1

    def test_campaign_follows_vantage_order(self):
        merged = merge_campaign(
            [
                self._result(paths=[_sample_path("b")]),
                self._result(paths=[_sample_path("a")]),
            ],
            vantage_order=["a", "b"],
        )
        assert [p.vantage_key for p in merged] == ["a", "b"]

    def test_unknown_wire_format_rejected(self):
        with pytest.raises(MergeError):
            merge_traces(
                [self._result(fmt="bogus/9")], server_addrs=[], description=""
            )
        with pytest.raises(MergeError):
            merge_campaign([self._result(fmt="bogus/9")], vantage_order=[])
