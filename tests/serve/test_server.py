"""End-to-end tests of the study server over real sockets.

Studies run at scale 0.002 (seconds each) with ``workers=0`` — the
sequential thread path — so these tests exercise the full HTTP /
queue / scheduler / index stack without process-pool start-up cost.
The shared-pool execution path is covered by the runner suite and the
serve load benchmark.
"""

import asyncio
import json
import sys
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.serve import ServeConfig, StudyServer, StudySpec, WorldCache
from repro.study import Study

from serve_client import request, request_json, wait_idle

SCALE = 0.002
SEED = 3


def config(tmp_path, **overrides):
    defaults = dict(
        port=0,
        workers=0,
        queue_depth=8,
        tenant_quota=4,
        max_concurrent=2,
        data_dir=str(tmp_path / "results"),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def submit_body(seed=SEED, **extra):
    return {"scale": SCALE, "seed": seed, "tenant": "alice", **extra}


class TestLifecycleAndArtifacts:
    def test_submit_stream_archive_dashboard(self, tmp_path):
        async def go():
            server = StudyServer(config(tmp_path))
            await server.start()
            port = server.port
            try:
                status, _, submitted = await request_json(
                    port, "POST", "/studies", submit_body()
                )
                assert status == 202
                run_id = submitted["run_id"]
                assert submitted["status"] == "queued"
                assert submitted["links"]["progress"].endswith("/progress")

                # The chunked progress stream runs to the terminal event.
                status, headers, payload = await request(
                    port, "GET", f"/studies/{run_id}/progress"
                )
                assert status == 200
                assert headers["transfer-encoding"] == "chunked"
                events = [json.loads(line) for line in payload.splitlines()]
                kinds = [event["type"] for event in events]
                assert kinds[0] == "queued"
                assert "started" in kinds and "progress" in kinds
                assert events[-1] == {
                    "type": "finished", "run_id": run_id, "status": "complete",
                }

                status, _, described = await request_json(
                    port, "GET", f"/studies/{run_id}"
                )
                assert status == 200 and described["status"] == "complete"
                assert described["elapsed_seconds"] > 0

                status, _, listing = await request_json(
                    port, "GET", f"/studies/{run_id}/artifacts"
                )
                assert status == 200
                for name in ("manifest.json", "traces.json", "report.txt"):
                    assert name in listing["artifacts"]

                status, _, manifest = await request_json(
                    port, "GET", f"/studies/{run_id}/artifacts/manifest.json"
                )
                assert status == 200
                assert manifest == {"scale": SCALE, "seed": SEED}

                status, _, page = await request(
                    port, "GET", f"/studies/{run_id}/dashboard"
                )
                assert status == 200 and b"<html" in page.lower()

                status, _, metrics = await request_json(port, "GET", "/metrics")
                assert metrics["queue"]["admitted"] == 1

                # Any spec field rides a submission, the QUIC family too.
                _, _, quic = await request_json(
                    port, "POST", "/studies", submit_body(quic=True)
                )
                await wait_idle(server)
                _, _, described = await request_json(
                    port, "GET", f"/studies/{quic['run_id']}"
                )
                assert described["params"] == {"scale": SCALE, "seed": SEED, "quic": True}
                return run_id, quic["run_id"], server.data_dir
            finally:
                await server.shutdown()

        run_id, quic_id, data_dir = asyncio.run(go())
        # Served archives are bit-identical to a direct Study.run save.
        for run_id, spec in ((run_id, {}), (quic_id, {"quic": True})):
            direct = Study.run(scale=SCALE, seed=SEED, **spec)
            direct.save(data_dir / "direct")
            for name in ("manifest.json", "traces.json", "traceroutes.json",
                         "summary.json", "report.txt"):
                served = (data_dir / run_id / name).read_bytes()
                assert served == (data_dir / "direct" / name).read_bytes(), (spec, name)

    def test_streaming_a_finished_run_replays_events(self, tmp_path):
        async def go():
            server = StudyServer(config(tmp_path))
            await server.start()
            try:
                _, _, submitted = await request_json(
                    server.port, "POST", "/studies", submit_body()
                )
                run_id = submitted["run_id"]
                await wait_idle(server)
                _, _, payload = await request(
                    server.port, "GET", f"/studies/{run_id}/progress"
                )
                events = [json.loads(line) for line in payload.splitlines()]
                assert events[-1]["status"] == "complete"
            finally:
                await server.shutdown()

        asyncio.run(go())


class TestValidationAndRouting:
    def test_rejections(self, tmp_path):
        async def go():
            server = StudyServer(config(tmp_path))
            await server.start()
            port = server.port
            try:
                checks = [
                    ("POST", "/studies", {"scale": 99, "tenant": "a"}, 400),
                    ("POST", "/studies", {"scale": SCALE, "bogus": 1, "tenant": "a"}, 400),
                    ("POST", "/studies", {"scale": SCALE}, 400),  # no tenant
                    ("POST", "/studies", {"scale": SCALE, "tenant": "a", "priority": 99}, 400),
                    ("POST", "/studies", {"scale": SCALE, "tenant": "a", "chaos": "??"}, 400),
                    ("GET", "/studies/run-nope", None, 404),
                    ("DELETE", "/studies/run-nope", None, 404),
                    ("GET", "/studies/run-nope/progress", None, 404),
                    ("GET", "/nowhere", None, 404),
                    ("PUT", "/studies", {"x": 1}, 405),
                    ("POST", "/studies/run-nope/progress", {"x": 1}, 405),
                ]
                for method, path, body, expected in checks:
                    status, _, payload = await request_json(port, method, path, body)
                    assert status == expected, (method, path, status, payload)
                    assert payload["status"] == expected
                # Malformed JSON body.
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(
                    b"POST /studies HTTP/1.1\r\nContent-Length: 4\r\n\r\nnope"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"400" in raw.split(b"\r\n", 1)[0]
            finally:
                await server.shutdown()

        asyncio.run(go())

    def test_deeply_nested_json_is_400(self, tmp_path):
        """Nesting past the JSON decoder's recursion limit is a bad
        request, not a handler crash (500)."""

        async def go():
            server = StudyServer(config(tmp_path))
            await server.start()
            try:
                body = b"[" * 200_000
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(
                    b"POST /studies HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
                    + body
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                status_line, _, rest = raw.partition(b"\r\n")
                assert status_line.split()[1] == b"400", status_line
                assert b"invalid JSON body" in rest
            finally:
                await server.shutdown()

        asyncio.run(go())


class TestBackpressureAndCancel:
    def test_quota_queue_full_and_cancel(self, tmp_path, monkeypatch):
        from repro.serve import scheduler as scheduler_module

        # Hold the running study until the admission checks are done: a
        # small study can finish within a few requests, free its slot
        # and race the queue-full assertion.
        release = threading.Event()
        execute = scheduler_module.StudyScheduler._execute

        def gated(self, submission, progress):
            release.wait(timeout=60)
            return execute(self, submission, progress)

        monkeypatch.setattr(scheduler_module.StudyScheduler, "_execute", gated)

        async def go():
            server = StudyServer(
                config(tmp_path, max_concurrent=1, queue_depth=2, tenant_quota=2)
            )
            await server.start()
            port = server.port
            try:
                # alice: one running + one queued = at quota.
                _, _, first = await request_json(
                    port, "POST", "/studies", submit_body(seed=100)
                )
                # Let the dispatcher move the first study into its
                # running slot so queue depth counts queued only.
                for _ in range(200):
                    if server.queue.running_count == 1:
                        break
                    await asyncio.sleep(0.01)
                _, _, second = await request_json(
                    port, "POST", "/studies", submit_body(seed=101)
                )
                status, headers, rejected = await request_json(
                    port, "POST", "/studies", submit_body(seed=102)
                )
                assert status == 429
                assert "quota" in rejected["error"]
                assert int(headers["retry-after"]) >= 1

                # bob fills the remaining queue slot; the queue is full.
                _, _, third = await request_json(
                    port, "POST", "/studies",
                    {"scale": SCALE, "seed": 103, "tenant": "bob"},
                )
                status, headers, rejected = await request_json(
                    port, "POST", "/studies",
                    {"scale": SCALE, "seed": 104, "tenant": "carol"},
                )
                assert status == 429
                assert "full" in rejected["error"]
                assert int(headers["retry-after"]) >= 1

                # Cancel the queued-but-unstarted alice study.
                status, _, cancelled = await request_json(
                    port, "DELETE", f"/studies/{second['run_id']}"
                )
                assert status == 200 and cancelled["status"] == "cancelled"

                # The running study cannot be cancelled.
                status, _, refused = await request_json(
                    port, "DELETE", f"/studies/{first['run_id']}"
                )
                assert status == 409

                # Cancelling twice conflicts too (no longer queued).
                status, _, _ = await request_json(
                    port, "DELETE", f"/studies/{second['run_id']}"
                )
                assert status == 409

                release.set()
                await wait_idle(server)
                _, _, listing = await request_json(port, "GET", "/studies")
                statuses = {
                    run["run_id"]: run["status"] for run in listing["studies"]
                }
                assert statuses[first["run_id"]] == "complete"
                assert statuses[second["run_id"]] == "cancelled"
                assert statuses[third["run_id"]] == "complete"
                # The cancelled run produced no archive directory.
                assert not (server.data_dir / second["run_id"]).exists()
            finally:
                release.set()
                await server.shutdown()

        asyncio.run(go())


class TestWorldReuse:
    def test_identical_params_share_world_not_results(self, tmp_path):
        async def go():
            server = StudyServer(config(tmp_path))
            await server.start()
            port = server.port
            try:
                _, _, a = await request_json(
                    port, "POST", "/studies", submit_body()
                )
                _, _, b = await request_json(
                    port, "POST", "/studies", submit_body()
                )
                assert a["run_id"] != b["run_id"]
                await wait_idle(server)
                _, _, metrics = await request_json(port, "GET", "/metrics")
                counters = metrics["metrics"]["counters"]
                assert counters["serve.completed"] == 2
                # One world build; the second study hit the cache.
                assert counters["serve.world_cache.misses"] == 1
                assert counters["serve.world_cache.hits"] >= 1
                return a["run_id"], b["run_id"], server.data_dir
            finally:
                await server.shutdown()

        run_a, run_b, data_dir = asyncio.run(go())
        # Same bytes in both archives — separate executions, not a
        # cached result being copied.
        for name in ("manifest.json", "traces.json", "summary.json"):
            assert (data_dir / run_a / name).read_bytes() == (
                data_dir / run_b / name
            ).read_bytes()


    def test_concurrent_requests_for_one_world_build_it_once(self):
        # Six threads, two worlds, and a tiny switch interval so the
        # check-then-build window is as racy as it can be: each world
        # must still be built exactly once and handed to every caller.
        metrics = MetricsRegistry()
        cache = WorldCache(metrics=metrics)
        specs = [StudySpec(scale=SCALE, seed=seed, quic=quic)
                 for seed in (SEED, SEED + 1) for quic in (False, True, False)]
        start = threading.Barrier(len(specs))
        entries = {}

        def request(index, spec):
            start.wait(timeout=60)
            entries[index] = cache.entry_for(spec)

        threads = [threading.Thread(target=request, args=item) for item in enumerate(specs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(entries[i]) for i in range(3)}) == 1
        assert len({id(entries[i]) for i in range(3, 6)}) == 1
        assert entries[0] is not entries[3]
        counters = metrics.snapshot()["counters"]
        assert counters["serve.world_cache.misses"] == 2
        assert counters["serve.world_cache.hits"] == 4


class TestShutdownResume:
    def test_draining_rejects_new_submissions(self, tmp_path):
        async def go():
            server = StudyServer(config(tmp_path))
            await server.start()
            server.request_shutdown()
            status, _, payload = await request_json(
                server.port, "POST", "/studies", submit_body()
            )
            assert status == 503
            await server.shutdown()

        asyncio.run(go())

    def test_queue_persists_and_resumes_exactly_once(self, tmp_path):
        cfg = config(tmp_path, max_concurrent=1)

        async def generation_one():
            server = StudyServer(cfg)
            await server.start()
            port = server.port
            ids = []
            for seed in (200, 201, 202):
                _, _, submitted = await request_json(
                    port, "POST", "/studies", submit_body(seed=seed)
                )
                ids.append(submitted["run_id"])
            # Let the first study reach its running slot, then shut
            # down: the running study drains, the queued tail persists.
            for _ in range(200):
                if server.queue.running_count == 1:
                    break
                await asyncio.sleep(0.01)
            await server.shutdown()
            return ids

        ids = asyncio.run(generation_one())
        queue_path = tmp_path / "results" / "queue.json"
        assert queue_path.exists()
        snapshot = json.loads(queue_path.read_text())
        persisted = [entry["run_id"] for entry in snapshot["entries"]]
        assert set(persisted) < set(ids) and persisted

        async def generation_two():
            server = StudyServer(cfg)
            await server.start()
            await wait_idle(server)
            _, _, listing = await request_json(server.port, "GET", "/studies")
            await server.shutdown()
            return listing

        listing = asyncio.run(generation_two())
        statuses = {run["run_id"]: run["status"] for run in listing["studies"]}
        assert [statuses[run_id] for run_id in ids] == ["complete"] * 3
        # Every run archived exactly once, under its original id.
        for run_id in ids:
            assert (tmp_path / "results" / run_id / "manifest.json").exists()
        assert not queue_path.exists()

    def test_admin_shutdown_endpoint_arms_draining(self, tmp_path):
        async def go():
            server = StudyServer(config(tmp_path))
            await server.start()
            status, _, payload = await request_json(
                server.port, "POST", "/admin/shutdown", {}
            )
            assert status == 200 and payload["status"] == "draining"
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=30)

        asyncio.run(go())


class TestLegacyAdoption:
    def test_pre_index_archives_are_served(self, tmp_path):
        results = tmp_path / "results"
        legacy = results / "old-study"
        direct = Study.run(scale=SCALE, seed=SEED)
        direct.save(legacy)

        async def go():
            server = StudyServer(config(tmp_path))
            await server.start()
            port = server.port
            try:
                _, _, listing = await request_json(port, "GET", "/studies")
                assert [run["run_id"] for run in listing["studies"]] == ["old-study"]
                status, _, manifest = await request_json(
                    port, "GET", "/studies/old-study/artifacts/manifest.json"
                )
                assert status == 200 and manifest["scale"] == SCALE
            finally:
                await server.shutdown()

        asyncio.run(go())


class TestFailureIsolation:
    def test_failed_study_reports_and_frees_slot(self, tmp_path, monkeypatch):
        from repro.serve import scheduler as scheduler_module

        def boom(self, submission, progress):
            raise RuntimeError("synthetic study failure")

        monkeypatch.setattr(scheduler_module.StudyScheduler, "_execute", boom)

        async def go():
            server = StudyServer(config(tmp_path))
            await server.start()
            port = server.port
            try:
                _, _, submitted = await request_json(
                    port, "POST", "/studies", submit_body()
                )
                run_id = submitted["run_id"]
                _, _, payload = await request(port, "GET", f"/studies/{run_id}/progress")
                events = [json.loads(line) for line in payload.splitlines()]
                assert events[-1]["status"] == "failed"
                assert "synthetic study failure" in events[-1]["error"]
                status, _, described = await request_json(
                    port, "GET", f"/studies/{run_id}"
                )
                assert described["status"] == "failed"
                _, _, metrics = await request_json(port, "GET", "/metrics")
                assert metrics["metrics"]["counters"]["serve.failed"] == 1
                assert server.queue.running_count == 0  # slot released
            finally:
                await server.shutdown()

        asyncio.run(go())


class TestTraversalGuard:
    def test_artifact_paths_stay_inside_the_run(self, tmp_path):
        async def go():
            server = StudyServer(config(tmp_path))
            await server.start()
            port = server.port
            try:
                _, _, submitted = await request_json(
                    port, "POST", "/studies", submit_body()
                )
                run_id = submitted["run_id"]
                await wait_idle(server)
                for path in (
                    f"/studies/{run_id}/artifacts/../index.json",
                    f"/studies/{run_id}/artifacts/../../results/index.json",
                    f"/studies/{run_id}/artifacts/%2e%2e/index.json",
                ):
                    status, _, _ = await request(port, "GET", path)
                    assert status == 404, path
            finally:
                await server.shutdown()

        asyncio.run(go())
