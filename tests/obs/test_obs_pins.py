"""Literal sha256 pins of the observability artefacts a recorded study saves.

The equivalence suites check that a sharded study's ``events.jsonl``,
``spans.json`` and ``trace.json`` equal the sequential study's; they
cannot see a change that shifts both modes the same way (a span id or
an event ``seq`` renumbered, a fault event filed under another span).
These digests were captured from the code as it stood before spans,
study events and the flight ring became one :class:`~repro.obs.EventLog`,
and pin the bytes in both execution modes.

Wall-clock fields (``wall_ms`` on spans and in trace ``args``) are the
one part of these files that is a fact about one run, so they are
removed before hashing; the remaining layout is checked byte for byte.
"""

import hashlib
import json

import pytest

from repro.study import Study

pytestmark = pytest.mark.slow

RUN = dict(scale=0.02, seed=11, faults="default", chaos_seed=3, record="probe")

PINS = {
    "events.jsonl": "57415c1a8f557599bcb150dcea9309b0ed5e27c6e0712c0fdef50b5b02f801da",
    "spans.json": "6359adae648c1dd23196b0fd2dae40ae5c559eabbf607478d714b0f248dd584e",
    "trace.json": "b14ee41e7c62145022760c43cc0c5411a098c3a20f57dd526265eb10b743a430",
}


def _wall_stripped(name: str, raw: str) -> str:
    """The file's bytes with its wall-clock fields removed."""
    if name == "events.jsonl":
        return raw
    indent = 2 if name == "spans.json" else 1
    document = json.loads(raw)
    # The writer's layout is part of the pin.
    assert raw == json.dumps(document, indent=indent), name
    if name == "spans.json":
        for span in document["spans"]:
            span.pop("wall_ms", None)
    else:
        for event in document["traceEvents"]:
            event.get("args", {}).pop("wall_ms", None)
    return json.dumps(document, indent=indent)


@pytest.fixture(scope="module", params=[0, 2], ids=["sequential", "workers-2"])
def archive(request, tmp_path_factory):
    directory = tmp_path_factory.mktemp(f"obs-pins-{request.param}")
    Study.run(**RUN, workers=request.param).save(directory)
    return directory


@pytest.mark.parametrize("name", sorted(PINS))
def test_observability_bytes_pinned(archive, name):
    stripped = _wall_stripped(name, (archive / name).read_text())
    assert hashlib.sha256(stripped.encode()).hexdigest() == PINS[name]
