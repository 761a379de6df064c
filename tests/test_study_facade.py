"""Tests for the Study façade."""

import copy
import json
import pstats
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.ipv4 import PROTO_UDP
from repro.runner import plan_shards
from repro.spec import ValidationError
from repro.study import Study


@pytest.fixture(scope="module")
def small_study():
    return Study.run(scale=0.02, seed=5)


class TestRun:
    def test_runs_whole_pipeline(self, small_study):
        study = small_study
        assert len(study.traces) == study.world.params.schedule.total_traces
        assert len(study.campaign) == 13 * len(study.traces.server_addrs)

    def test_discovery_feeds_targets(self, small_study):
        assert set(small_study.traces.server_addrs) <= {
            s.addr for s in small_study.world.servers
        }

    def test_without_traceroutes(self):
        study = Study.run(scale=0.02, seed=5, traceroutes=False)
        assert len(study.campaign) == 0

    def test_without_discovery_uses_ground_truth_targets(self):
        study = Study.run(scale=0.02, seed=5, discover=False, traceroutes=False)
        assert set(study.traces.server_addrs) == {
            s.addr for s in study.world.servers
        }

    def test_packet_tracer_records_with_metrics_on(self):
        # Each shard installs and removes its own metrics registry; the
        # study-wide tracer must survive both.
        study = Study.run(
            scale=0.002, seed=5, workers=0, trace_filter="udp", collect_metrics=True
        )
        assert len(study.tracer) > 0
        assert {event.protocol for event in study.tracer.events} == {PROTO_UDP}
        assert study.metrics["counters"]
        assert study.world.network.tracer is None

    def test_profile_writes_one_stats_file_per_shard(self, tmp_path):
        study = Study.run(scale=0.002, seed=5, workers=0, profile=True, obs_dir=tmp_path)
        shards = plan_shards(study.world.params.schedule)
        files = sorted(tmp_path.glob("*.pstats"))
        assert {path.name for path in files} == {
            f"profile-shard-{shard.shard_id}.pstats" for shard in shards
        }
        for path in files:
            assert pstats.Stats(str(path)).total_calls > 0


class TestAnalyses:
    def test_analyses_cached(self, small_study):
        assert small_study.reachability is small_study.reachability
        assert small_study.paths is small_study.paths

    def test_headline_properties(self, small_study):
        assert small_study.reachability.avg_pct_ect_given_plain > 85
        assert 60 < small_study.tcp_ecn.pct_negotiated < 95
        assert small_study.paths.pct_hops_passing > 80
        assert len(small_study.correlation.rows) == 13
        assert small_study.geography.total == len(small_study.traces.server_addrs)

    def test_intervals_and_validation(self, small_study):
        intervals = small_study.intervals()
        assert intervals.pct_ect_given_plain.low <= intervals.pct_ect_given_plain.high
        qualities = small_study.validate()
        assert {q.name for q in qualities} == {
            "blocked-servers",
            "not-ect-droppers",
            "strip-ases",
        }

    def test_report_renders(self, small_study):
        text = small_study.report()
        assert "Table 1" in text and "Table 2" in text


class TestPersistence:
    def test_save_load_roundtrip(self, small_study, tmp_path):
        out = small_study.save(tmp_path / "study")
        assert (out / "report.txt").exists()
        assert (out / "figures" / "figure2.csv").exists()
        loaded = Study.load(out)
        assert len(loaded.traces) == len(small_study.traces)
        assert (
            loaded.reachability.avg_pct_ect_given_plain
            == small_study.reachability.avg_pct_ect_given_plain
        )
        # The rebuilt world is the same deterministic world.
        assert loaded.world.ground_truth.udp_ect_blocked == (
            small_study.world.ground_truth.udp_ect_blocked
        )


class TestRecordedPersistence:
    """``Study.load`` round-trips the recorded views, and is strict."""

    @pytest.fixture(scope="class")
    def recorded_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("recorded")
        Study.run(
            scale=0.002, seed=3, faults="default", chaos_seed=3, record="probe"
        ).save(directory)
        return directory

    def test_load_then_save_reproduces_every_file(self, recorded_dir, tmp_path):
        loaded = Study.load(recorded_dir)
        assert loaded.events and loaded.spans
        loaded.save(tmp_path)
        names = sorted(
            str(path.relative_to(recorded_dir))
            for path in recorded_dir.rglob("*")
            if path.is_file()
        )
        assert {"events.jsonl", "spans.json", "trace.json"} <= set(names)
        for name in names:
            assert (tmp_path / name).read_bytes() == (
                recorded_dir / name
            ).read_bytes(), name

    @pytest.mark.parametrize(
        "name,raw",
        [
            ("spans.json", b"{}"),
            ("spans.json", b"[]"),
            ("spans.json", b"[" * 100000),
            ("spans.json", b'{"format": "ecn-udp-spans/1"}'),
            ("spans.json", b'{"format": "ecn-udp-spans/1", "spans": [1]}'),
            ("spans.json", b'{"format": "ecn-udp-spans/1", "spans": [{"kind": "trace"}]}'),
            ("events.jsonl", b"not json\n"),
            ("events.jsonl", b"[1]\n"),
            ("events.jsonl", b"[" * 100000),
            ("events.jsonl", b"\xff\xfe\n"),
            ("events.jsonl", b'{"shard": "a", "seq": 0}\n{"shard": 1, "seq": 0}\n'),
            ("manifest.json", b"not json"),
            ("manifest.json", b"[" * 100000),
            ("traces.json", b"[]"),
            ("traces.json", b"not json"),
            ("traces.json", b"[" * 100000),
            ("traceroutes.json", b"[]"),
            ("traceroutes.json", b'{"format": "ecn-udp-traceroutes/1"}'),
        ],
    )
    def test_malformed_views_raise_validation_error(
        self, recorded_dir, tmp_path, name, raw
    ):
        directory = tmp_path / "study"
        shutil.copytree(recorded_dir, directory)
        (directory / name).write_bytes(raw)
        with pytest.raises(ValidationError, match=name):
            Study.load(directory)

    @pytest.mark.parametrize(
        "name,field,mutate",
        [
            ("traces.json", "quic.state", lambda row: row[:9] + [-1, 1, 1, 5, 5, 5, 0, 0]),
            ("traces.json", "expected 9 or 17", lambda row: row[:9] + [0]),
            ("traces.json", "http_status", lambda row: row[:8] + ["200"]),
        ],
    )
    def test_malformed_outcome_row_raises_validation_error(
        self, recorded_dir, tmp_path, name, field, mutate
    ):
        directory = tmp_path / "study"
        shutil.copytree(recorded_dir, directory)
        document = json.loads((directory / name).read_text())
        outcomes = document["traces"][0]["outcomes"]
        outcomes[0] = mutate(outcomes[0])
        (directory / name).write_text(json.dumps(document))
        with pytest.raises(ValidationError, match=f"{name}: .*{field}"):
            Study.load(directory)

    def test_malformed_hop_raises_validation_error(self, recorded_dir, tmp_path):
        directory = tmp_path / "study"
        shutil.copytree(recorded_dir, directory)
        document = json.loads((directory / "traceroutes.json").read_text())
        document["paths"][0]["hops"][0] = [1, 2, 3]
        (directory / "traceroutes.json").write_text(json.dumps(document))
        with pytest.raises(ValidationError, match=r"traceroutes.json: paths\[0\]\.hops"):
            Study.load(directory)


def _containers(values):
    return st.lists(values, max_size=3) | st.dictionaries(st.text(max_size=3), values, max_size=3)


#: Any JSON value, small: what a mutation writes into an archive.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 300)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    _containers,
    max_leaves=5,
)


def _mutated(data, document):
    """``document`` with one value, reached by a random walk, replaced
    by a random JSON value or deleted."""
    document = copy.deepcopy(document)
    parent, key, node = None, None, document
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 4)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        parent, node = node, node[key]
    if parent is None:
        return data.draw(JSON_VALUES)
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    return document


class TestLoadProperty:
    """Every mutated dataset either loads or raises ValidationError."""

    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("mutated")
        Study.run(scale=0.002, seed=3, quic=True).save(directory)
        return directory

    @pytest.mark.parametrize("name", ["traces.json", "traceroutes.json"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_dataset_loads_or_raises_validation_error(
        self, archive, name, data
    ):
        path = archive / name
        original = path.read_text()
        path.write_text(json.dumps(_mutated(data, json.loads(original))))
        try:
            Study.load(archive)
        except ValidationError:
            pass
        finally:
            path.write_text(original)
