"""Tests for the Study façade."""

import shutil

import pytest

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
        assert small_study.regional

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
