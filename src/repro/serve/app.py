"""The sweep service: jobs, worker threads, and the shared cache tier.

:class:`SweepService` is the long-lived object behind ``repro serve``.
It owns one :class:`~repro.exec.scheduler.SweepExecutor` (process pool,
result cache, array-of-machines batching), a job table, and the
cross-submission :class:`~repro.serve.coalescer.InflightCoalescer`.
Each submitted :class:`~repro.exec.job.SweepSpec` becomes a
:class:`Job` executed on a worker thread:

1. every request is content-addressed with
   :func:`~repro.exec.job.request_digest`;
2. each unique digest is claimed in the coalescer — digests another
   job is already simulating are *followed*, not re-executed;
3. the owned remainder runs through the shared executor (which applies
   its own cache lookup, in-sweep dedup and batch coalescing).  Jobs
   enter it concurrently: lookups never wait, and only the misses of
   one sweep at a time execute;
4. outcomes stream into the job's manifest directory
   (``runs.jsonl`` + ``manifest.json``, the same artifacts
   ``repro sweep`` writes), which also backs the
   ``GET /v1/sweeps/{id}/events`` stream: every row written, and the
   job turning terminal, notifies the job's listeners.

The HTTP front end lives in :mod:`repro.serve.routes`; this module is
HTTP-free and directly usable in-process (the end-to-end tests do).
"""

from __future__ import annotations

import json
import logging
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from .. import __version__
from ..exec import (
    DiskCache,
    MemoryCache,
    SweepExecutor,
    SweepSpec,
    TieredCache,
    request_digest,
)
from ..exec.progress import SweepMetrics
from ..exec.scheduler import RunOutcome
from ..exec.wire import WIRE_SCHEMA
from ..obs.context import TraceContext
from ..obs.instruments import ServiceInstruments
from ..obs.log import emit
from ..obs.spans import SpanRecorder
from ..telemetry import MetricsRegistry, SweepManifestWriter
from .coalescer import InflightCoalescer

#: job lifecycle states
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
TERMINAL = (DONE, FAILED)


class Job:
    """One submitted sweep and everything the API reports about it.

    Every job carries one :class:`~repro.obs.spans.SpanRecorder` — its
    request's span tree, continuing the client's trace when the
    submission propagated one.  ``GET /v1/sweeps/{id}/trace`` exports
    it live; ``trace.json`` in the job directory persists it.
    """

    def __init__(self, job_id: str, spec: SweepSpec, directory: Path, *,
                 trace: TraceContext | None = None):
        self.id = job_id
        self.spec = spec
        self.directory = directory
        self.status = QUEUED
        self.error: str | None = None
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.completed = 0
        self.outcomes: list[RunOutcome] | None = None
        self.metrics: SweepMetrics | None = None
        self.recorder = SpanRecorder(
            trace_id=trace.trace_id if trace is not None else None)
        self.span = None                #: the job-lifetime span
        self.queue_wait: float | None = None
        self._listeners: list = []
        self._listeners_lock = threading.Lock()

    @property
    def trace_id(self) -> str:
        return self.recorder.trace_id

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    def subscribe(self, callback) -> None:
        """Call ``callback()`` (from a worker thread) on every row the
        job writes and once more when it turns terminal."""
        with self._listeners_lock:
            self._listeners.append(callback)

    def unsubscribe(self, callback) -> None:
        with self._listeners_lock:
            self._listeners.remove(callback)

    def notify(self) -> None:
        with self._listeners_lock:
            listeners = list(self._listeners)
        for callback in listeners:
            callback()

    def note_row(self, writer: SweepManifestWriter,
                 outcome: RunOutcome) -> None:
        """Stream one outcome row into the manifest and wake listeners."""
        writer.note_outcome(outcome)
        self.completed += 1
        self.notify()

    @staticmethod
    def _source(outcome: RunOutcome) -> str:
        if outcome.error is not None:
            return "error"
        if outcome.cached:
            return "cache"
        if outcome.coalesced:
            return "coalesced"
        if outcome.deduped:
            return "deduped"
        return "executed"

    def to_json(self, *, runs: bool = False) -> dict:
        """The job resource of ``GET /v1/sweeps/{id}``."""
        doc = {
            "id": self.id,
            "name": self.spec.name,
            "status": self.status,
            "error": self.error,
            "trace_id": self.trace_id,
            "total": len(self.spec),
            "completed": self.completed,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "metrics": (self.metrics.as_dict()
                        if self.metrics is not None else None),
        }
        outcomes = self.outcomes
        if runs and outcomes is not None:
            doc["runs"] = [
                {
                    "index": outcome.index,
                    "label": outcome.request.label,
                    "digest": outcome.digest,
                    "source": self._source(outcome),
                    "error": outcome.error,
                    "golden_match": outcome.golden_match,
                    "elapsed": outcome.elapsed,
                }
                for outcome in outcomes
            ]
        return doc


class _ManifestProxy:
    """Adapter the shared executor streams owned-run rows through.

    The executor numbers outcomes within the subset it was handed;
    the proxy remaps them to job-level indices before they reach the
    job's :class:`~repro.telemetry.manifest.SweepManifestWriter`, and
    defers ``finalize`` — the service finalizes once the coalesced
    and duplicate rows are in too, with the profile kept from here
    (the executor's ``last_profile`` may already be another job's).
    """

    def __init__(self, job: Job, writer: SweepManifestWriter,
                 index_map: list[int]):
        self._job = job
        self._writer = writer
        self._index_map = index_map
        self.profile = None

    def note_outcome(self, outcome, record=None) -> None:
        self._job.note_row(
            self._writer,
            replace(outcome, index=self._index_map[outcome.index]))

    def finalize(self, *, profile=None, **kwargs) -> None:
        self.profile = profile


class _ExecObserver:
    """Executor callbacks → spans and structured log events.

    One instance per job hands the executor's phase boundaries and
    per-outcome notifications to the job's span recorder: the
    cache-tier lookup, queue (waiting for another job's execute phase)
    and execute phases become stage spans, every
    outcome becomes a ``run`` span carrying digest / provenance /
    cache-tier args.
    """

    def __init__(self, job: Job, parent: TraceContext):
        self._job = job
        self._parent = parent

    def on_phase(self, name: str, started: float, ended: float,
                 **info) -> None:
        label = "cache-tier lookup" if name == "cache" else name
        self._job.recorder.record(label, name, self._parent,
                                  started, ended, args=info)
        emit(f"exec.{name}", trace_id=self._job.trace_id,
             job_id=self._job.id, **info)

    def on_outcome(self, outcome, record=None) -> None:
        end = time.time()
        start = end - max(outcome.elapsed or 0.0, 0.0)
        args = {"digest": outcome.digest[:12],
                "source": Job._source(outcome)}
        tier = getattr(outcome, "cache_tier", None)
        if tier is not None:
            args["cache_tier"] = tier
        self._job.recorder.record(f"run {outcome.request.label}", "run",
                                  self._parent, start, end, args=args)
        emit("run.outcome", trace_id=self._job.trace_id,
             job_id=self._job.id, label=outcome.request.label,
             digest=outcome.digest[:12], source=args["source"],
             cache_tier=tier, error=outcome.error,
             elapsed=round(outcome.elapsed or 0.0, 4))


def default_service_cache(cache_dir=None, *, remote=None) -> TieredCache:
    """The service's standard tier stack: memory -> disk [-> peer]."""
    return TieredCache(MemoryCache(max_entries=512), DiskCache(cache_dir),
                       remote=remote)


class SweepService:
    """Job orchestration behind the HTTP API (and for direct embedding).

    :param cache: any object speaking the cache protocol; ``None``
        builds :func:`default_service_cache`.
    :param state_dir: root for per-job manifest directories
        (``<state_dir>/jobs/<id>/runs.jsonl``).
    :param jobs: executor worker processes (``0`` = in-process serial).
    :param concurrency: worker *threads* driving sweeps; at least 2 so
        concurrent submissions can coalesce instead of queueing.
    :param coalesce_timeout: seconds a follower waits on an in-flight
        owner before reporting an error (safety valve, not a tuning
        knob — owners resolve their claims even when they fail).
    """

    def __init__(self, *, cache=None, state_dir="serve-state", jobs: int = 0,
                 batch: bool = True, timeout: float | None = None,
                 concurrency: int = 2, coalesce_timeout: float = 600.0,
                 profile: bool = False):
        self.cache = cache if cache is not None else default_service_cache()
        self.state_dir = Path(state_dir)
        self.executor = SweepExecutor(jobs=jobs, cache=self.cache,
                                      timeout=timeout, batch=batch,
                                      profile=profile)
        self.coalesce_timeout = coalesce_timeout
        self.coalescer = InflightCoalescer()
        self.jobs: dict[str, Job] = {}
        self.started_at = time.time()
        self._monotonic_start = time.monotonic()
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, concurrency),
            thread_name_prefix="repro-serve")
        self._runs_total: dict[str, int] = {
            "total": 0, "executed": 0, "cached": 0, "deduped": 0,
            "coalesced": 0, "failed": 0}
        #: executed runs a batch's entry guard refused (silent scalar
        #: fallbacks), by reason — feeds ``repro_batch_refused_total``
        self._batch_refused: dict[str, int] = {}
        self.instruments = ServiceInstruments(
            self, version=__version__, wire_schema=WIRE_SCHEMA)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)
        self.executor.close()

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._monotonic_start

    # -- submission ------------------------------------------------------

    def submit(self, spec: SweepSpec, *, trace: TraceContext | None = None,
               via: str | None = None) -> Job:
        """Accept a sweep; returns the queued :class:`Job` immediately.

        :param trace: the client's propagated context; when set, the
            job's span tree continues that trace (its root span parents
            to the client's span id).
        :param via: transport span name (e.g. ``"http POST /v1/sweeps"``)
            inserted between the client context and the job span; the
            HTTP front end sets it so the span tree names the receive
            stage even though the service itself is transport-free.
        """
        job_id = uuid.uuid4().hex[:12]
        job = Job(job_id, spec, self.state_dir / "jobs" / job_id,
                  trace=trace)
        parent = trace
        http_span = None
        if via is not None:
            http_span = job.recorder.begin(via, "http", parent=parent)
            parent = http_span.context
        job.span = job.recorder.begin(f"job {spec.name}", "job",
                                      parent=parent, job_id=job_id,
                                      runs=len(spec))
        with self._lock:
            self.jobs[job_id] = job
        self._pool.submit(self._run_job, job)
        if http_span is not None:
            job.recorder.finish(http_span)
        emit("job.submit", trace_id=job.trace_id, job_id=job_id,
             name=spec.name, runs=len(spec),
             propagated=trace is not None)
        return job

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self.jobs.get(job_id)

    def run_payload(self, digest: str) -> dict | None:
        """Cache lookup for ``GET /v1/runs/{digest}``."""
        return self.cache.get(digest)

    def store_payload(self, digest: str, payload: dict) -> None:
        """Peer write-through for ``PUT /v1/runs/{digest}``."""
        self.cache.put(digest, payload)

    # -- execution (worker thread) ---------------------------------------

    def _run_job(self, job: Job) -> None:
        job.queue_wait = time.time() - job.submitted
        self.instruments.observe_queue_wait(job.queue_wait)
        try:
            self._execute_job(job)
        except Exception as exc:    # noqa: BLE001 — job-level isolation
            job.error = f"{type(exc).__name__}: {exc}"
            job.status = FAILED
            job.finished = time.time()
            emit("job.failed", level=logging.ERROR, exc_info=exc,
                 trace_id=job.trace_id, job_id=job.id, error=job.error)
        finally:
            if job.span is not None:
                job.recorder.finish(job.span, status=job.status,
                                    error=job.error)
            job.notify()
            latency = (job.finished or time.time()) - job.submitted
            self.instruments.observe_request_latency(latency)
            self._write_trace(job)
            emit("job.done", trace_id=job.trace_id, job_id=job.id,
                 status=job.status, completed=job.completed,
                 queue_wait_ms=round(job.queue_wait * 1000, 3),
                 latency_ms=round(latency * 1000, 3))

    def _write_trace(self, job: Job) -> None:
        """Persist the job's span tree next to its manifest artifacts."""
        try:
            job.directory.mkdir(parents=True, exist_ok=True)
            doc = job.recorder.to_perfetto(
                meta={"job_id": job.id, "name": job.spec.name})
            path = job.directory / "trace.json"
            path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        except OSError:
            pass                     # observability must not fail the job

    def _execute_job(self, job: Job) -> None:
        job.status = RUNNING
        job.started = time.time()
        emit("job.start", trace_id=job.trace_id, job_id=job.id,
             runs=len(job.spec))
        writer = SweepManifestWriter(job.directory, name=job.spec.name)
        try:
            self._sweep(job, writer)
        finally:
            writer.close()           # a failed job never finalizes

    def _sweep(self, job: Job, writer: SweepManifestWriter) -> None:
        """Claim, execute and follow the job's runs; finalize ``writer``."""
        jctx = job.span.context
        recorder = job.recorder
        metrics = SweepMetrics(total=len(job.spec))
        requests = list(job.spec.requests)
        digests = [request_digest(request) for request in requests]
        observer = _ExecObserver(job, jctx)

        # claim each unique digest once, preserving first-seen order
        claims = {}
        owned_here = {}
        first_index = {}
        with recorder.span("coalesce claim", "coalesce",
                           parent=jctx) as claim_span:
            for index, digest in enumerate(digests):
                if digest not in claims:
                    claims[digest], owned_here[digest] = \
                        self.coalescer.claim(digest, trace=jctx)
                    first_index[digest] = index
            owned = [digest for digest in claims if owned_here[digest]]
            claim_span.args.update(unique=len(claims), owned=len(owned),
                                   followed=len(claims) - len(owned))
        emit("coalesce.claim", trace_id=job.trace_id, job_id=job.id,
             unique=len(claims), owned=len(owned),
             followed=len(claims) - len(owned))

        executed: dict[str, RunOutcome] = {}
        proxy = None
        try:
            if owned:
                proxy = _ManifestProxy(job, writer,
                                       [first_index[d] for d in owned])
                for outcome in self.executor.run(
                        [requests[first_index[d]] for d in owned],
                        manifest=proxy, observer=observer,
                        trace_id=job.trace_id):
                    executed[outcome.digest] = outcome
        finally:
            # resolve every owned claim, crash or not — followers must
            # receive *something*.  A claim with no outcome means this
            # owner died mid-run: mark it crashed so the first follower
            # inherits the digest instead of surfacing the error.
            for digest in owned:
                outcome = executed.get(digest)
                if outcome is not None:
                    self.coalescer.resolve(digest, outcome.payload,
                                           outcome.error)
                else:
                    self.coalescer.resolve(
                        digest, None,
                        "in-flight owner failed before producing a result",
                        crashed=True)

        # join the digests another submission owns
        followed: dict[str, tuple[dict | None, str | None]] = {}
        for digest, claim in claims.items():
            if owned_here[digest]:
                continue
            result = self._follow(job, claim, digest,
                                  requests[first_index[digest]],
                                  first_index[digest], writer, observer,
                                  executed)
            if result is not None:
                followed[digest] = result

        # assemble outcomes in request order; stream the rows the
        # executor did not write (followers + in-job duplicates)
        outcomes: list[RunOutcome] = []
        for index, (request, digest) in enumerate(zip(requests, digests)):
            base = executed.get(digest)
            if base is not None:
                if index == first_index[digest]:
                    outcome = base
                else:
                    outcome = replace(base, index=index, deduped=True)
                    job.note_row(writer, outcome)
            else:
                payload, error = followed[digest]
                outcome = RunOutcome(
                    index, request, digest, payload=payload, error=error,
                    coalesced=True, deduped=index != first_index[digest])
                job.note_row(writer, outcome)
            outcomes.append(outcome)
            metrics.note(
                index, request.label, cached=outcome.cached,
                failed=outcome.error is not None,
                elapsed=(outcome.elapsed
                         if index == first_index[digest]
                         and not outcome.coalesced else 0.0),
                worker=outcome.worker,
                batch=(outcome.payload or {}).get("batch_size", 0),
                deduped=outcome.deduped, coalesced=outcome.coalesced,
                cache_tier=getattr(outcome, "cache_tier", None))

        metrics.finish()
        writer.finalize(metrics=metrics, cache=self.cache, spec=job.spec,
                        trace_id=job.trace_id,
                        profile=proxy.profile if proxy is not None else None)
        job.metrics = metrics
        job.outcomes = outcomes
        job.completed = len(outcomes)
        job.status = DONE
        job.finished = time.time()
        with self._lock:
            totals = self._runs_total
            totals["total"] += len(outcomes)
            totals["executed"] += (metrics.executed - metrics.dedup_hits
                                   - metrics.coalesced_hits)
            totals["cached"] += metrics.cache_hits
            totals["deduped"] += metrics.dedup_hits
            totals["coalesced"] += metrics.coalesced_hits
            totals["failed"] += metrics.failures
            refused = self._batch_refused
            for outcome in outcomes:
                if outcome.cached or outcome.deduped or outcome.coalesced:
                    continue
                reason = (outcome.payload or {}).get("batch_refused")
                if reason:
                    refused[reason] = refused.get(reason, 0) + 1

    def _follow(self, job: Job, claim, digest: str, request, index: int,
                writer: SweepManifestWriter, observer,
                executed: dict[str, RunOutcome]
                ) -> tuple[dict | None, str | None] | None:
        """Wait on another submission's in-flight run for ``digest``.

        Normally returns the owner's ``(payload, error)``.  When the
        owner *crashed* (resolved without a result), the first follower
        to inherit the digest takes ownership — it executes the run
        itself (recorded in ``executed``, streamed through ``writer``)
        and returns ``None``; later followers wait on the inherited
        claim as usual.  The handoff span-link and log line are emitted
        exactly once, by the inheriting follower.
        """
        recorder = job.recorder
        jctx = job.span.context
        span = recorder.begin(f"coalesce wait {digest[:12]}", "coalesce",
                              parent=jctx, digest=digest[:12])
        owner = claim.owner_trace
        if owner is not None and owner.trace_id != job.trace_id:
            span.links.append({"trace_id": owner.trace_id,
                               "span_id": owner.span_id})
        payload, error = claim.wait(self.coalesce_timeout)
        if not claim.crashed:
            recorder.finish(span, outcome="error" if error else "ok")
            emit("coalesce.follow", trace_id=job.trace_id, job_id=job.id,
                 digest=digest[:12], ok=error is None,
                 owner_trace_id=owner.trace_id if owner else None)
            return payload, error

        # the owner died without a result — exactly one follower
        # inherits the digest (decided on the crashed claim itself)
        takeover, inherited = self.coalescer.inherit(claim, trace=jctx)
        if not inherited:
            # another claimant owns the successor; wait on its claim
            recorder.finish(span, outcome="handoff-followed")
            return takeover.wait(self.coalesce_timeout)
        recorder.finish(span, outcome="handoff")
        emit("coalesce.handoff", level=logging.WARNING,
             trace_id=job.trace_id, job_id=job.id, digest=digest[:12],
             owner_trace_id=owner.trace_id if owner else None)
        try:
            proxy = _ManifestProxy(job, writer, [index])
            for outcome in self.executor.run([request], manifest=proxy,
                                             observer=observer,
                                             trace_id=job.trace_id):
                executed[digest] = outcome
        finally:
            outcome = executed.get(digest)
            self.coalescer.resolve(
                digest,
                outcome.payload if outcome is not None else None,
                outcome.error if outcome is not None
                else "handoff execution failed before producing a result",
                crashed=outcome is None)
        return None

    # -- observability ---------------------------------------------------

    def health(self) -> dict:
        return {
            "ok": True,
            "service": "repro-serve",
            "version": __version__,
            "wire_schema": WIRE_SCHEMA,
            "uptime_seconds": round(self.uptime_seconds, 3),
        }

    def _service_metrics(self) -> dict:
        with self._lock:
            jobs = list(self.jobs.values())
            runs = dict(self._runs_total)
        by_status = {status: sum(1 for job in jobs if job.status == status)
                     for status in (QUEUED, RUNNING, DONE, FAILED)}
        return {
            "uptime_seconds": round(self.uptime_seconds, 3),
            "jobs": {"submitted": len(jobs), **by_status},
            "runs": runs,
        }

    def _cache_metrics(self) -> dict:
        doc = {"backend": type(self.cache).__name__,
               **self.cache.stats.as_dict()}
        tiers = getattr(self.cache, "tier_stats", None)
        if callable(tiers):
            doc["tiers"] = {tier: stats.as_dict()
                            for tier, stats in tiers().items()}
        remote = getattr(self.cache, "remote", None)
        if remote is not None:
            doc["remote"] = {"backend": type(remote).__name__,
                             "disabled": remote.disabled,
                             "errors": remote.errors,
                             **remote.stats.as_dict()}
        return doc

    def metrics_registry(self) -> MetricsRegistry:
        """The ``/v1/metrics`` sources: service, coalescer, cache."""
        registry = MetricsRegistry()
        registry.add_source("service", self._service_metrics)
        registry.add_source("coalescer", self.coalescer.as_dict)
        registry.add_source("cache", self._cache_metrics)
        return registry

    def prometheus_text(self) -> str:
        """``GET /v1/metrics?format=prometheus`` — the exposition body.

        The curated instrument families first, then the legacy JSON
        snapshot flattened into ``repro_snapshot{path=...}`` gauges so
        every historical metric stays scrapeable under one document.
        """
        return self.instruments.render(
            snapshot=self.metrics_registry().snapshot())
