"""The seed-families-cold workload, driven through ``SweepExecutor``.

Each iteration of the timed phase runs one cold sweep — the request a
``repro sweep`` caller makes — against a fresh, empty ``DiskCache``
with the executor's defaults (``jobs=0``, batching on).  A request's
latency is the wall time of its ``SweepExecutor.run`` call.

The hit latency is the wall time of re-submitting the previous
iteration's sweep on its filled disk cache, as ``repro sweep`` re-run in
a new process: every run is a disk hit.  These few-millisecond passes
run one at a time from the cold sweep's ``on_outcome`` hook, so they are
spread over the whole timed phase rather than bunched between sweeps
(on a 2-vCPU VM whose speed drifts, bunches of 20 passes read up to
1.8x apart within one run); their time is taken out of the cold sweep's
wall time and counted in no other figure.

Before the timed phase the workload is warmed up once, untimed, with
its first iteration's requests at ``WARMUP_SAMPLES`` samples: the
engine's one-off per-image work otherwise made the first sweep of a
process 13-20% slower than the next ones.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from pathlib import Path

from repro.exec import DiskCache, SweepExecutor
from repro.exec import job as exec_job

import workloads
from tracing import TracedCache

#: samples per channel of the warm-up sweep
WARMUP_SAMPLES = 4


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class _Observer:
    """``SweepExecutor`` observer hook: phase spans while tracing, and
    one hit pass per outcome while not."""

    def __init__(self, tracer, rid, hit_pass=None):
        self._tracer = tracer
        self._rid = rid
        self._hit_pass = hit_pass
        self.hit_seconds = 0.0

    def on_phase(self, name, started, ended, **info):
        if self._tracer.active:
            self._tracer.record_epoch(f"exec.phase.{name}", started, ended,
                                      rid=self._rid, **info)

    def on_outcome(self, outcome, record=None):
        if self._hit_pass is not None and not self._tracer.active:
            self.hit_seconds += self._hit_pass()


def _engine_stats(payload: dict) -> dict:
    """The part of a run payload the per-layer figures read."""
    return {"engine": payload.get("engine"),
            "batch_size": payload.get("batch_size"),
            "batch_refused": payload.get("batch_refused"),
            "run": {"trace": {"cycles": payload["run"]["trace"]["cycles"]}}}


class SweepWorkload:
    """seed-families-cold: per kernel x design a same-image family,
    over fresh ECG seeds every iteration."""

    name = "seed-families-cold"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.iteration = 0

    def requests(self, iteration: int):
        return workloads.family_requests(self.seed, iteration)

    def close(self) -> None:
        pass

    def setup(self) -> None:
        """Build every kernel image the workload uses."""
        # looked up on the module so the traced run's wrapper sees it
        for request in workloads.workload_images(self.requests(0)):
            exec_job.resolve_program(request)

    def warm_up(self, gate) -> None:
        """One untimed sweep of the first iteration's requests at
        ``WARMUP_SAMPLES`` samples, on its own ECG seed."""
        seed = workloads.derive_seed("warmup", self.name, self.seed)
        requests = [dataclasses.replace(r, n_samples=WARMUP_SAMPLES,
                                        seed=seed)
                    for r in self.requests(0)]
        cache_dir = self.workdir / "cache" / "warmup"
        with SweepExecutor(cache=DiskCache(cache_dir)) as executor:
            for outcome in executor.run(requests):
                gate.note(outcome.request, outcome.digest, outcome.payload,
                          outcome.error)
        shutil.rmtree(cache_dir, ignore_errors=True)

    def measure(self, seconds: float, gate, tracer) -> dict:
        """A warm-up, then cold sweeps until ``seconds`` have passed
        (two at least).

        From the second sweep on, each outcome of a cold sweep triggers
        one hit pass on the previous sweep's cache.  The benchmark keeps
        per-sweep totals, the executed payloads of the first sweep (the
        pool the gate re-runs from) and, while tracing, each executed
        run's engine statistics — so its own memory does not grow with
        the number of runs.
        """
        with tracer.paused():
            self.warm_up(gate)
        sample = {"runs": 0, "cycles": 0, "elapsed": 0.0, "latencies": [],
                  "hit_latencies": [], "executed": [], "payloads": [],
                  "sweeps": []}
        previous = None
        deadline = time.perf_counter() + seconds
        while True:
            requests, cache_dir = self._cold_sweep(sample, gate, tracer,
                                                   previous)
            if previous is not None:
                shutil.rmtree(previous[1], ignore_errors=True)
            previous = requests, cache_dir
            now = time.perf_counter()
            # at least two sweeps, so the second has hit passes
            left = deadline - now
            if len(sample["latencies"]) >= 2 and (
                    left <= 0 or sample["latencies"][-1] > left):
                break
        shutil.rmtree(previous[1], ignore_errors=True)
        sample["runs_per_s"] = sample["runs"] / sample["elapsed"]
        sample["cycles_per_s"] = sample["cycles"] / sample["elapsed"]
        sample["peak_rss_mb"] = peak_rss_mb()
        return sample

    def _cold_sweep(self, sample: dict, gate, tracer, previous):
        requests = self.requests(self.iteration)
        rid = f"{self.name}-{self.iteration}"
        self.iteration += 1
        cache_dir = self.workdir / "cache" / rid
        cache = DiskCache(cache_dir)
        if tracer.active:
            cache = TracedCache(cache, tracer)
        hit_pass = None
        if previous is not None:
            def hit_pass():
                return self._hit_pass(*previous, sample, gate)
        observer = _Observer(tracer, rid, hit_pass)
        started = time.perf_counter()
        with SweepExecutor(cache=cache) as executor, \
                tracer.span("exec.sweep", rid=rid):
            outcomes = executor.run(requests, observer=observer)
        wall = time.perf_counter() - started - observer.hit_seconds
        sample["elapsed"] += wall
        sample["latencies"].append(wall)
        sample["runs"] += len(outcomes)
        executed = [o for o in outcomes
                    if not o.cached and not o.deduped and o.ok]
        sample["cycles"] += sum(o.payload["run"]["trace"]["cycles"]
                                for o in executed)
        if not sample["executed"]:
            sample["executed"] = [(o.request, o.payload) for o in executed]
        if tracer.active:
            sample["payloads"].extend(_engine_stats(o.payload)
                                      for o in executed)
        sample["sweeps"].append({
            "runs": len(outcomes),
            "dedup_hits": executor.last_metrics.dedup_hits,
            "executed_elapsed": sum(o.elapsed for o in executed)})
        with tracer.paused():
            for outcome in outcomes:
                gate.note(outcome.request, outcome.digest, outcome.payload,
                          outcome.error)
        return requests, cache_dir

    @staticmethod
    def _hit_pass(requests, cache_dir, sample: dict, gate) -> float:
        """Re-submit a filled sweep once; returns the seconds it took
        including the gate's bookkeeping, which the cold sweep's wall
        time must not count."""
        started = time.perf_counter()
        with SweepExecutor(cache=DiskCache(cache_dir)) as executor:
            outcomes = executor.run(requests)
        sample["hit_latencies"].append(time.perf_counter() - started)
        for outcome in outcomes:
            if not outcome.cached and not outcome.deduped:
                raise RuntimeError(f"{outcome.request.label} was not a "
                                   "cache hit on the re-submitted sweep")
            gate.note(outcome.request, outcome.digest, outcome.payload,
                      outcome.error)
        return time.perf_counter() - started
