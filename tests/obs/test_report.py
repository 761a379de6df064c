"""Unit tests for the run dashboard (artefact loading + renderers)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    RunArtifacts,
    dashboard_sections,
    load_run_artifacts,
    render_dashboard_html,
    render_dashboard_markdown,
    write_dashboard,
)


@pytest.fixture
def study_dir(tmp_path):
    """A synthesized study directory with every observability artefact."""
    return write_study(tmp_path)


def write_study(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            {
                "scale": 0.02,
                "seed": 11,
                "chaos": {"profile": "default", "chaos_seed": 3, "events": 2},
            }
        )
    )
    (tmp_path / "summary.json").write_text(
        json.dumps(
            {
                "section_4_1": {
                    "avg_udp_plain_reachable": 47.5,
                    "avg_pct_ect_given_plain": 97.9,
                    "avg_pct_plain_given_ect": 99.4,
                },
                "section_4_2": {
                    "hops_measured": 900,
                    "hops_passing": 850,
                    "pct_hops_passing": 94.4,
                    "strip_events": 12,
                    "boundary_fraction": 0.75,
                },
                "section_4_3": {
                    "avg_tcp_reachable": 40.0,
                    "avg_ecn_negotiated": 22.0,
                    "pct_negotiated": 55.0,
                },
            }
        )
    )
    (tmp_path / "telemetry.json").write_text(
        json.dumps(
            {
                "workers": 2,
                "wall_seconds": 3.25,
                "total_retries": 1,
                "shards": [
                    {"shard_id": 0, "kind": "traces", "label": "v0 (batch 1)",
                     "attempts": 1, "elapsed": 0.8, "units": 5},
                    {"shard_id": 1, "kind": "traces", "label": "v1 (batch 1)",
                     "attempts": 2, "elapsed": 1.4, "units": 5},
                ],
            }
        )
    )
    (tmp_path / "metrics.json").write_text(
        json.dumps({"counters": {"router.forwarded": 10}, "gauges": {}})
    )
    (tmp_path / "spans.json").write_text(
        json.dumps(
            {
                "format": "ecn-udp-spans/1",
                "spans": [
                    {"id": "root", "parent": None, "kind": "study",
                     "name": "study", "sim_start": 0.0, "sim_end": 10.0,
                     "wall_ms": 100.0},
                    {"id": "s0.0", "parent": "root", "kind": "shard",
                     "name": "shard-0", "sim_start": 0.0, "sim_end": 10.0,
                     "wall_ms": 100.0, "attrs": {"shard_id": 0}},
                    {"id": "s0.1", "parent": "s0.0", "kind": "trace",
                     "name": "trace-0", "sim_start": 0.0, "sim_end": 10.0,
                     "wall_ms": 100.0,
                     "events": [
                         {"name": "fault", "sim_time": 1.0,
                          "attrs": {"epoch": 0, "kind": "link_flap",
                                    "target": "r1->r2", "magnitude": 0.9}},
                     ]},
                ],
            }
        )
    )
    (tmp_path / "flight-shard-0.json").write_text(
        json.dumps({"format": "ecn-udp-flight/1", "label": "shard-0",
                    "reason": "test", "events": []})
    )
    return tmp_path


class TestLoading:
    def test_loads_every_artifact(self, study_dir):
        artifacts = load_run_artifacts(study_dir)
        assert artifacts.manifest["scale"] == 0.02
        assert artifacts.summary is not None
        assert artifacts.metrics is not None
        assert artifacts.telemetry["workers"] == 2
        assert len(artifacts.spans) == 3
        assert [d["file"] for d in artifacts.flights] == ["flight-shard-0.json"]

    def test_empty_directory_degrades_gracefully(self, tmp_path):
        artifacts = load_run_artifacts(tmp_path)
        assert artifacts.manifest == {}
        assert artifacts.spans is None
        sections = dashboard_sections(artifacts)
        titles = [title for title, _, _, _ in sections]
        assert "Phase timing" in titles
        # Missing artefacts render as notes, never crashes.
        assert render_dashboard_markdown(artifacts)
        assert render_dashboard_html(artifacts)

    @pytest.mark.parametrize(
        "name",
        ["events.jsonl", "spans.json", "flight-shard-0.json", "telemetry.json"],
    )
    def test_over_deep_json_degrades_instead_of_raising(self, study_dir, name):
        (study_dir / name).write_text("[" * 100000)
        artifacts = load_run_artifacts(study_dir)
        assert render_dashboard_markdown(artifacts)

    @pytest.mark.parametrize(
        "name,raw,campaign",
        [
            ("checkpoints.jsonl", b"\xff\xfe", True),
            ("campaign.json", b'{"format": "ecn-udp-campaign/1", "spec": [1]}', False),
            ("trend.json", b'{"points": [1]}', True),
            ("telemetry.json", b"[1]", False),
            ("manifest.json", b"[1]", False),
            ("summary.json", b"[1]", False),
            ("spans.json", b'{"spans": [1]}', False),
            ("telemetry.json", b'{"shards": [1]}', False),
            ("metrics.json", b'{"histograms": [1]}', False),
            ("spans.json", b'{"spans": [{"kind": "trace", "events": [1]}]}', False),
            ("telemetry.json", b'{"shards": [{"elapsed": "x"}]}', False),
            ("telemetry.json", b'{"shards": [{"label": 5}]}', False),
            ("telemetry.json", b'{"shards": [{"elapsed": Infinity}]}', False),
            ("metrics.json", b'{"histograms": {"h": {"count": "x"}}}', False),
            ("summary.json", b'{"section_4_2": {"boundary_fraction": "x"}}', False),
        ],
    )
    def test_wrong_shapes_degrade_instead_of_raising(
        self, study_dir, name, raw, campaign
    ):
        """A readable document of the wrong shape reads as absent."""
        if campaign:
            (study_dir / "campaign.json").write_text(
                json.dumps({"format": "ecn-udp-campaign/1", "spec": {"seed": 11}})
            )
        (study_dir / name).write_bytes(raw)
        artifacts = load_run_artifacts(study_dir)
        assert render_dashboard_markdown(artifacts)
        assert render_dashboard_html(artifacts)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_artefacts_degrade_instead_of_raising(self, tmp_path_factory, data):
        """Any one field of any artefact replaced by any JSON value."""
        directory = write_study(tmp_path_factory.mktemp("mutated"))
        name = data.draw(st.sampled_from(sorted(p.name for p in directory.glob("*.json"))))
        document = json.loads((directory / name).read_text())
        path = data.draw(st.sampled_from(list(_json_paths(document))))
        value = data.draw(JSON_VALUES)
        if path:
            parent = document
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            document = value
        (directory / name).write_text(json.dumps(document))
        artifacts = load_run_artifacts(directory)
        assert render_dashboard_markdown(artifacts)
        assert render_dashboard_html(artifacts)


#: Any JSON value, as a mutated artefact field may hold.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=5,
)


def _json_paths(value, prefix=()):
    """Every key path into a JSON document, the root's ``()`` included."""
    yield prefix
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


class TestSections:
    def test_all_sections_present(self, study_dir):
        titles = [
            title
            for title, _, _, _ in dashboard_sections(load_run_artifacts(study_dir))
        ]
        assert titles == [
            "Run",
            "Phase timing",
            "Slowest shards",
            "Chaos timeline",
            "Histograms",
            "ECN mark survival",
        ]

    def test_chaos_timeline_rows_from_span_events(self, study_dir):
        sections = dict(
            (title, rows)
            for title, _, rows, _ in dashboard_sections(load_run_artifacts(study_dir))
        )
        assert sections["Chaos timeline"] == [
            ["1.0", "0", "link_flap", "r1->r2", "0.90"]
        ]

    def test_slowest_shards_prefer_telemetry_and_sort(self, study_dir):
        sections = {
            title: rows
            for title, _, rows, _ in dashboard_sections(load_run_artifacts(study_dir))
        }
        flame = sections["Slowest shards"]
        assert [row[0] for row in flame] == ["1", "0"]
        assert flame[0][2] == "x2"
        # Proportional bars: the slowest shard gets the longest bar.
        assert len(flame[0][4]) >= len(flame[1][4])


class TestRenderers:
    def test_markdown_contains_tables_and_headline_numbers(self, study_dir):
        text = render_dashboard_markdown(load_run_artifacts(study_dir))
        assert "# ECN/UDP study run dashboard" in text
        assert "| phase" in text
        assert "97.90" in text  # ECT-given-plain survival
        assert "link_flap" in text

    def test_html_is_self_contained_and_escaped(self, study_dir):
        html_text = render_dashboard_html(load_run_artifacts(study_dir))
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<style>" in html_text
        assert "src=" not in html_text and "href=" not in html_text
        assert "r1-&gt;r2" in html_text  # fault target is escaped

    def test_write_dashboard_picks_format_by_suffix(self, study_dir, tmp_path):
        html_path = write_dashboard(study_dir, tmp_path / "d.html")
        md_path = write_dashboard(study_dir, tmp_path / "d.md")
        assert html_path.read_text().startswith("<!DOCTYPE html>")
        assert md_path.read_text().startswith("# ECN/UDP")
