"""Prometheus text exposition: renderer and in-repo validator.

The renderer and validator live in one module so they cannot drift;
these tests hold them to that — everything the renderer emits must
pass the validator, and the validator must reject the classic
format-0.0.4 mistakes (bad sample syntax, TYPE after samples,
non-monotonic cumulative buckets, ``+Inf`` disagreeing with
``_count``).  On any text at all, the validator either returns the
declared families or raises :class:`ExpositionError`.
"""

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    PROM_CONTENT_TYPE,
    ExpositionError,
    MetricsRegistry,
    render_prometheus,
    validate_exposition,
)
from repro.obs.prom import metric_name


@pytest.fixture
def snapshot():
    registry = MetricsRegistry()
    registry.incr("engine.dispatched", 3)
    registry.incr("router.forwarded")
    registry.gauge_max("engine.queue_peak", 7)
    for value in (0.05, 0.2, 0.2, 3.0):
        registry.observe("probe.rtt_seconds", value, (0.1, 0.5, 1.0))
    return registry.snapshot()


class TestRenderer:
    def test_render_passes_own_validator(self, snapshot):
        text = render_prometheus(
            snapshot, extra_gauges={"serve.queued": 2, "serve.running": 1}
        )
        types = validate_exposition(text)
        assert types[metric_name("engine.dispatched")] == "counter"
        assert types[metric_name("engine.queue_peak")] == "gauge"
        assert types[metric_name("serve.queued")] == "gauge"
        assert types[metric_name("probe.rtt_seconds")] == "histogram"
        assert text.endswith("\n")

    def test_histogram_triplet_cumulative(self, snapshot):
        text = render_prometheus(snapshot)
        name = metric_name("probe.rtt_seconds")
        assert f'{name}_bucket{{le="0.1"}} 1' in text
        assert f'{name}_bucket{{le="0.5"}} 3' in text
        assert f'{name}_bucket{{le="1"}} 3' in text
        assert f'{name}_bucket{{le="+Inf"}} 4' in text
        assert f"{name}_count 4" in text
        assert f"{name}_sum 3.45" in text

    def test_rendering_is_deterministic(self, snapshot):
        assert render_prometheus(snapshot) == render_prometheus(snapshot)

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_dotted_names_sanitised(self):
        assert metric_name("probe.rtt_seconds") == "ecnudp_probe_rtt_seconds"
        assert validate_exposition(
            render_prometheus({"counters": {"weird name!": 1}})
        )

    def test_content_type_pins_format_version(self):
        assert "version=0.0.4" in PROM_CONTENT_TYPE


class TestValidatorRejects:
    def test_bad_sample_line(self):
        with pytest.raises(ExpositionError, match="not a valid sample"):
            validate_exposition("this is { not a sample\n")

    def test_malformed_label(self):
        with pytest.raises(ExpositionError, match="malformed label"):
            validate_exposition('m{le=0.5} 1\n')

    def test_unparseable_value(self):
        with pytest.raises(ExpositionError, match="unparseable sample value"):
            validate_exposition("m abc\n")

    def test_unknown_type(self):
        with pytest.raises(ExpositionError, match="unknown metric type"):
            validate_exposition("# TYPE m rainbow\nm 1\n")

    def test_duplicate_type(self):
        with pytest.raises(ExpositionError, match="duplicate TYPE"):
            validate_exposition("# TYPE m counter\n# TYPE m counter\nm 1\n")

    def test_type_after_samples(self):
        with pytest.raises(ExpositionError, match="after its samples"):
            validate_exposition("m 1\n# TYPE m counter\n")

    def test_bucket_without_le(self):
        text = "# TYPE h histogram\nh_bucket 1\nh_count 1\n"
        with pytest.raises(ExpositionError, match="without le label"):
            validate_exposition(text)

    def test_non_monotonic_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.5"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_count 5\n"
        )
        with pytest.raises(ExpositionError, match="buckets decrease"):
            validate_exposition(text)

    def test_missing_inf_bucket(self):
        text = "# TYPE h histogram\n" 'h_bucket{le="0.5"} 5\n' "h_count 5\n"
        with pytest.raises(ExpositionError, match=r"missing \+Inf"):
            validate_exposition(text)

    def test_inf_disagrees_with_count(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_count 5\n"
        )
        with pytest.raises(ExpositionError, match="!= _count"):
            validate_exposition(text)

    def test_free_comments_and_blank_lines_are_legal(self):
        assert validate_exposition("\n# just a comment\nm 1\n") == {}

    def test_unparseable_bucket_bound(self):
        text = '# TYPE a histogram\na_bucket{le="abc"} 1'
        with pytest.raises(ExpositionError, match="line 2: unparseable bucket bound"):
            validate_exposition(text)


#: Exposition-shaped lines, so generated text reaches the TYPE, label
#: and histogram checks instead of failing at the first regex.
_NAMES = st.sampled_from(["a", "a_bucket", "a_count", "a_sum", "b"])
_LABELS = st.lists(
    st.tuples(
        st.sampled_from(["le", "x"]),
        st.sampled_from(["0.5", "1", "+Inf", "abc", "", "1e400"]) | st.text(max_size=3),
    ),
    max_size=2,
).map(lambda pairs: "{%s}" % ",".join(f'{k}="{v}"' for k, v in pairs) if pairs else "")
_VALUES = st.sampled_from(["0", "1", "5", "NaN", "+Inf", "-Inf", "x", "1e400"])
_LINES = (
    st.builds("{}{} {}".format, _NAMES, _LABELS, _VALUES)
    | st.builds(
        "# TYPE {} {}".format,
        _NAMES,
        st.sampled_from(["histogram", "counter", "summary", "bogus"]),
    )
    | st.sampled_from(["# HELP a x", "# TYPE a", "# free comment", ""])
    | st.text(max_size=20)
)
EXPOSITION_TEXT = st.lists(_LINES, max_size=12).map("\n".join)


@settings(max_examples=1000, deadline=timedelta(seconds=2))
@given(EXPOSITION_TEXT | st.text())
def test_arbitrary_text_validates_or_raises_exposition_error(text):
    try:
        types = validate_exposition(text)
    except ExpositionError:
        return
    assert isinstance(types, dict)
    assert all(isinstance(name, str) and isinstance(kind, str) for name, kind in types.items())
