"""End-to-end service tests: bit-identity, coalescing, the API surface.

One module-scoped server backs every test; specs use distinct seeds so
tests only share cache entries when they mean to.
"""

import asyncio
import http.client
import json
import logging
import threading
import time
from types import SimpleNamespace

import pytest

from repro.exec import (
    RunRequest,
    SweepExecutor,
    SweepSpec,
    WIRE_SCHEMA,
    payload_to_wire,
    request_digest,
    scheduler,
)
from repro.kernels import WITH_SYNC, WITHOUT_SYNC
from repro.obs.log import get_logger
from repro.serve import (
    ServeClient,
    ServiceError,
    SweepService,
    build_router,
    default_service_cache,
    routes,
    start_server,
)
from repro.serve.http import Request

SMALL = dict(n_samples=8, num_cores=2)


def spec_for(seed: int, benchmarks=("SQRT32",), name=None) -> SweepSpec:
    return SweepSpec.grid(name or f"e2e-{seed}", benchmarks,
                          (WITH_SYNC,), samples=(8,), seed=seed,
                          num_cores=2)


def deterministic(payload: dict) -> dict:
    """Strip per-execution bookkeeping, keep the simulated bits."""
    return {k: v for k, v in payload.items()
            if k not in ("elapsed", "worker")}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-e2e")
    service = SweepService(cache=default_service_cache(root / "cache"),
                           state_dir=root / "state", concurrency=4)
    with service, start_server(service) as handle:
        yield SimpleNamespace(service=service, handle=handle,
                              client=ServeClient(handle.base_url))


@pytest.fixture
def held(tmp_path, monkeypatch):
    """A private server whose in-process simulations can be held.

    Every ``_pool_task`` call sets ``entered`` and then blocks until
    ``release`` is set.  The gate starts open; a test closes it with
    ``release.clear()`` once its warm-up is done.
    """
    entered, release = threading.Event(), threading.Event()
    release.set()
    original = scheduler._pool_task

    def held_task(request, timeout):
        entered.set()
        release.wait(60)
        return original(request, timeout)

    monkeypatch.setattr(scheduler, "_pool_task", held_task)
    service = SweepService(cache=default_service_cache(tmp_path / "cache"),
                           state_dir=tmp_path / "state", concurrency=4,
                           profile=True)
    with service, start_server(service) as handle:
        # a short socket timeout turns "blocked behind the held run"
        # into a test failure instead of a hang
        yield SimpleNamespace(service=service, entered=entered,
                              release=release,
                              client=ServeClient(handle.base_url,
                                                 timeout=10))
        release.set()


def hold_cold_job(held, seed: int) -> str:
    """Submit a one-run cold job and return once it is simulating."""
    held.entered.clear()
    held.release.clear()
    job_id = held.client.submit(spec_for(seed=seed))["id"]
    assert held.entered.wait(30)
    return job_id


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def raw_request(served, method, path, body=None, content_type=None):
    """Bypass ServeClient to exercise raw HTTP error paths."""
    connection = http.client.HTTPConnection(served.handle.host,
                                            served.handle.port, timeout=30)
    try:
        headers = {}
        if content_type:
            headers["Content-Type"] = content_type
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


class TestEndToEnd:
    def test_served_result_bit_identical_to_direct_execution(self, served):
        spec = spec_for(seed=101)
        job = served.client.submit(spec)
        final = served.client.wait(job["id"])
        assert final["status"] == "done"
        digest = final["runs"][0]["digest"]

        served_payload = served.client.run_payload(digest)
        with SweepExecutor(jobs=0, cache=None) as direct:
            (outcome,) = direct.run(spec)
        assert outcome.digest == digest
        assert deterministic(served_payload) == \
            deterministic(outcome.payload)
        assert final["runs"][0]["golden_match"] is True

    def test_concurrent_identical_submissions_simulate_once(self, served):
        spec = spec_for(seed=202)
        before = served.client.metrics()["service"]["runs"]
        ids, errors = [], []

        def submit():
            try:
                ids.append(served.client.submit(spec)["id"])
            except Exception as exc:  # noqa: BLE001 — report in-test
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        finals = [served.client.wait(job_id) for job_id in ids]
        assert all(final["status"] == "done" for final in finals)

        after = served.client.metrics()["service"]["runs"]
        # the load-bearing invariant: four submissions, ONE simulation
        assert after["executed"] - before["executed"] == 1
        # the rest were coalesced in flight or served from cache
        warm = ((after["coalesced"] - before["coalesced"])
                + (after["cached"] - before["cached"]))
        assert warm == 3
        digests = {final["runs"][0]["digest"] for final in finals}
        assert len(digests) == 1

    def test_warm_second_pass_is_fully_cached(self, served):
        spec = spec_for(seed=303)
        first = served.client.wait(served.client.submit(spec)["id"])
        second = served.client.wait(served.client.submit(spec)["id"])
        assert first["runs"][0]["source"] in ("executed", "cache")
        assert second["runs"][0]["source"] == "cache"
        assert second["metrics"]["executed"] == 0
        assert second["metrics"]["cache_hits"] == len(spec)

    def test_in_sweep_duplicates_are_deduped_and_reported(self, served):
        request = RunRequest("SQRT32", WITH_SYNC, seed=404, **SMALL)
        spec = SweepSpec("dup-spec", (request, request, request))
        final = served.client.wait(served.client.submit(spec)["id"])
        sources = [run["source"] for run in final["runs"]]
        assert sources[0] in ("executed", "cache")
        assert sources[1:] == ["deduped", "deduped"]
        assert final["metrics"]["dedup_hits"] == 2

    def test_events_stream_rows_then_end_marker(self, served):
        spec = spec_for(seed=505, benchmarks=("SQRT32", "MRPDLN"))
        job = served.client.submit(spec)
        events = list(served.client.events(job["id"]))
        assert events[-1]["event"] == "end"
        assert events[-1]["status"] == "done"
        rows = events[:-1]
        assert len(rows) == len(spec)
        assert sorted(row["index"] for row in rows) == [0, 1]
        assert all(len(row["digest"]) == 64 for row in rows)


class TestLookupsNeverWait:
    def test_hit_completes_while_another_job_simulates(self, held):
        warm = spec_for(seed=1201)
        held.client.wait(held.client.submit(warm)["id"])
        cold_id = hold_cold_job(held, seed=1202)

        hit_id = held.client.submit(warm)["id"]
        events = list(held.client.events(hit_id))
        assert events[-1] == {"event": "end", "status": "done",
                              "error": None}
        assert [row["cached"] for row in events[:-1]] == [True]
        assert held.client.job(hit_id)["status"] == "done"
        # ... all while the other job is still inside its simulation
        assert not held.release.is_set()
        assert held.client.job(cold_id)["status"] == "running"

        held.release.set()
        final = held.client.wait(cold_id)
        assert final["status"] == "done"
        assert final["runs"][0]["source"] == "executed"

    def test_mixed_job_streams_hits_before_its_miss(self, held):
        warm = spec_for(seed=1301)
        held.client.wait(held.client.submit(warm)["id"])
        cold_id = hold_cold_job(held, seed=1302)

        mixed = SweepSpec("mixed", (warm.requests[0],
                                    spec_for(seed=1303).requests[0]))
        mixed_id = held.client.submit(mixed)["id"]
        stream = held.client.events(mixed_id)
        first = next(stream)
        assert first["cached"] is True and first["index"] == 0
        assert not held.release.is_set()
        assert not held.service.job(mixed_id).terminal

        held.release.set()
        rest = list(stream)
        assert rest[-1]["event"] == "end" and rest[-1]["status"] == "done"
        assert [(row["index"], row["cached"]) for row in rest[:-1]] == \
            [(1, False)]
        assert held.client.wait(cold_id)["status"] == "done"

    def test_wait_timeout_raises_while_the_job_runs(self, held):
        job_id = hold_cold_job(held, seed=1401)
        with pytest.raises(TimeoutError):
            held.client.wait(job_id, timeout=0.3)
        held.release.set()
        assert held.client.wait(job_id)["status"] == "done"

    def test_overlapping_jobs_persist_their_own_profiles(self, held):
        first_id = hold_cold_job(held, seed=1501)
        second = held.client.submit(
            spec_for(seed=1502, benchmarks=("MRPDLN",)))["id"]
        # the second job's lookup is done and its miss is queued behind
        # the first job's execute phase
        second_job = held.service.job(second)
        wait_for(lambda: any(span.name == "cache-tier lookup"
                             for span in second_job.recorder.spans()))
        held.release.set()
        for job_id in (first_id, second):
            final = held.client.wait(job_id)
            manifest = json.loads(
                (held.service.job(job_id).directory
                 / "manifest.json").read_text())
            labels = [row["label"]
                      for row in manifest["profile"]["top_runs"]]
            assert labels == [run["label"] for run in final["runs"]]

    def test_queue_wait_is_its_own_stage_span(self, held):
        cold_id = hold_cold_job(held, seed=1601)
        queued_id = held.client.submit(spec_for(seed=1602))["id"]
        queued = held.service.job(queued_id)
        wait_for(lambda: any(span.name == "cache-tier lookup"
                             for span in queued.recorder.spans()))
        time.sleep(0.2)
        held.release.set()
        held.client.wait(cold_id)
        held.client.wait(queued_id)
        spans = {span.name: span for span in queued.recorder.spans()}
        queue, execute = spans["queue"], spans["execute"]
        assert queue.stage == "queue"
        assert queue.end - queue.start >= 0.2
        assert execute.start >= queue.end


class TestEventsPush:
    def test_stream_wakes_by_notification_not_polling(self, held,
                                                      monkeypatch):
        async def no_sleep(*args, **kwargs):
            raise AssertionError("the events stream must not poll")

        monkeypatch.setattr(routes.asyncio, "sleep", no_sleep)
        router = build_router(held.service)
        held.release.clear()

        async def collect():
            job = held.service.submit(
                spec_for(seed=1701, benchmarks=("SQRT32", "MRPDLN")))
            response = await router.dispatch(
                Request("GET", f"/v1/sweeps/{job.id}/events", {}, {}))
            # the rows appear only after the stream has gone to sleep
            asyncio.get_running_loop().call_later(0.1, held.release.set)
            return b"".join([chunk async for chunk in response.stream])

        body = asyncio.run(asyncio.wait_for(collect(), 60))
        lines = [json.loads(line) for line in body.splitlines()]
        assert lines[-1]["event"] == "end" and lines[-1]["status"] == "done"
        assert sorted(row["index"] for row in lines[:-1]) == [0, 1]


class TestRunsEndpoints:
    def test_put_then_get_round_trip(self, served):
        request = RunRequest("SQRT32", WITH_SYNC, seed=606, **SMALL)
        with SweepExecutor(jobs=0, cache=None) as direct:
            (outcome,) = direct.run([request])
        digest = request_digest(request)
        status, _ = raw_request(
            served, "PUT", f"/v1/runs/{digest}",
            body=json.dumps(payload_to_wire(digest, outcome.payload)),
            content_type="application/json")
        assert status == 204
        assert served.client.run_payload(digest) == outcome.payload

    def test_unknown_digest_is_404_and_none_from_client(self, served):
        absent = "0" * 64
        assert served.client.run_payload(absent) is None
        status, doc = raw_request(served, "GET", f"/v1/runs/{absent}")
        assert status == 404 and doc["error"]["code"] == "not_found"

    def test_digest_mismatch_on_put_is_409(self, served):
        from repro.exec.job import SCHEMA

        doc = payload_to_wire("1" * 64, {"schema": SCHEMA, "run": {}})
        status, body = raw_request(
            served, "PUT", "/v1/runs/" + "2" * 64,
            body=json.dumps(doc), content_type="application/json")
        assert status == 409
        assert body["error"]["code"] == "digest_mismatch"

    def test_malformed_digest_is_400(self, served):
        status, doc = raw_request(served, "GET", "/v1/runs/xyz")
        assert status == 400 and doc["error"]["code"] == "bad_digest"


class TestErrorEnvelopes:
    def test_unknown_job_is_404(self, served):
        status, doc = raw_request(served, "GET", "/v1/sweeps/nope")
        assert status == 404 and doc["error"]["code"] == "not_found"

    def test_invalid_json_submission_is_400(self, served):
        status, doc = raw_request(served, "POST", "/v1/sweeps",
                                  body="{nope", content_type="application/json")
        assert status == 400 and doc["error"]["code"] == "bad_json"

    def test_wire_version_mismatch_is_400(self, served):
        doc = spec_for(seed=707).to_wire()
        doc["wire_schema"] = WIRE_SCHEMA + 1
        with pytest.raises(ServiceError) as excinfo:
            served.client.submit(doc)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_wire_document"

    def test_unknown_benchmark_is_422(self, served):
        doc = spec_for(seed=808).to_wire()
        doc["requests"][0]["benchmark"] = "NOPE"
        with pytest.raises(ServiceError) as excinfo:
            served.client.submit(doc)
        assert excinfo.value.status == 422
        assert excinfo.value.code == "unknown_benchmark"

    def test_wrong_method_is_405(self, served):
        status, doc = raw_request(served, "DELETE", "/v1/healthz")
        assert status == 405
        assert doc["error"]["code"] == "method_not_allowed"


class TestObservability:
    def test_healthz_reports_versions(self, served):
        health = served.client.healthz()
        assert health["ok"] is True
        assert health["service"] == "repro-serve"
        assert health["wire_schema"] == WIRE_SCHEMA
        assert health["uptime_seconds"] >= 0

    def test_metrics_snapshot_shape(self, served):
        snapshot = served.client.metrics()
        assert set(snapshot) >= {"service", "coalescer", "cache"}
        runs = snapshot["service"]["runs"]
        assert set(runs) == {"total", "executed", "cached", "deduped",
                             "coalesced", "failed"}
        assert set(snapshot["coalescer"]) == {"owned", "coalesced",
                                              "inflight", "handoffs"}
        assert snapshot["cache"]["backend"] == "TieredCache"
        jobs = snapshot["service"]["jobs"]
        assert jobs["submitted"] == jobs["queued"] + jobs["running"] + \
            jobs["done"] + jobs["failed"]

    def test_job_resource_counts_match_runs(self, served):
        spec = spec_for(seed=909)
        final = served.client.wait(served.client.submit(spec)["id"])
        assert final["total"] == len(spec)
        assert final["completed"] == len(final["runs"]) == len(spec)
        assert final["submitted"] <= final["started"] <= final["finished"]


def test_serve_warns_that_timeout_is_not_enforced_in_process(
        tmp_path, monkeypatch, capsys):
    from repro import cli, serve

    async def no_server(service, host, port, ready=None):
        pass

    monkeypatch.setattr(serve, "serve_forever", no_server)
    try:
        assert cli.main(["serve", "--timeout", "5", "--log-json",
                         "--state-dir", str(tmp_path / "state"),
                         "--cache-dir", str(tmp_path / "cache")]) == 0
    finally:
        logger = get_logger()
        for handler in list(logger.handlers):
            if not isinstance(handler, logging.NullHandler):
                logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
    records = [json.loads(line) for line in
               capsys.readouterr().err.splitlines() if line.startswith("{")]
    (warning,) = [doc for doc in records
                  if doc["event"] == "serve.timeout_unenforced"]
    assert warning["level"] == "warning" and warning["timeout"] == 5.0


def test_client_cli_reports_unreachable_server():
    from repro import cli

    assert cli.main(["client", "--server", "http://127.0.0.1:9",
                     "--quick", "--benchmarks", "SQRT32"]) == 2


def test_client_cli_streams_the_events_once(served, monkeypatch, capsys):
    from repro import cli

    streams = []
    events = ServeClient._events

    def counted(self, job_id, *, deadline):
        streams.append(job_id)
        return events(self, job_id, deadline=deadline)

    monkeypatch.setattr(ServeClient, "_events", counted)
    assert cli.main(["client", "--server", served.handle.base_url,
                     "--quick", "--benchmarks", "SQRT32",
                     "--designs", "with-sync", "--seed", "4242",
                     "--timeout", "60"]) == 0
    out = capsys.readouterr().out
    assert "[1/1] run " in out and " done: 1 runs" in out
    # the progress stream is read once; the final resource is one GET
    assert len(streams) == 1


def test_failed_job_closes_its_runs_file(tmp_path, monkeypatch):
    from repro.serve import app

    writers = []

    class Recorded(app.SweepManifestWriter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            writers.append(self)

    def crash(requests, manifest=None, observer=None, trace_id=None):
        raise RuntimeError("executor died")

    monkeypatch.setattr(app, "SweepManifestWriter", Recorded)
    service = SweepService(state_dir=tmp_path / "state", concurrency=1)
    service.executor.run = crash
    with service:
        job = service.submit(spec_for(seed=5150))
        wait_for(lambda: job.status == "failed")
    assert "executor died" in job.error
    (writer,) = writers
    # the job never finalized, yet its runs.jsonl handle is closed
    assert writer._handle.closed
    assert not writer.manifest_path.exists()
