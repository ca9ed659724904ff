"""The serve-mixed workload: a ``repro serve`` subprocess under a closed
loop of two ``ServeClient`` callers.

The server gets fresh cache and state directories inside the
benchmark's work directory, and its stdout/stderr are drained to a
file: an undrained pipe fills with log lines and blocks the server.
Each client walks its own schedule, generated up front from the seed,
and submits its next request as soon as the previous one has returned,
racing the other client for the service's execution lock as two
``repro client`` callers do.  The clients meet only at coalesce
entries, which both submit at once so the second finds the first in
flight.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.exec import DiskCache, SweepExecutor, SweepSpec
from repro.serve import ServeClient, ServiceError

import workloads
from sweeps import peak_rss_mb
from tracing import Tracer

#: seconds one client call may take before it counts as failed
CLIENT_TIMEOUT = 60.0
_LISTENING = re.compile(r"listening on (http://[\w.\-]+:\d+)")


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.cache_dir = workdir / "serve-cache"
        self.log_path = workdir / "server.log"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("REPRO_CACHE_DIR", None)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--cache-dir", str(self.cache_dir),
             "--state-dir", str(workdir / "serve-state")],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)
        self.url: str | None = None

    def wait_ready(self, timeout: float = 60.0) -> str:
        """Block until ``/v1/healthz`` answers; returns the base URL."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up: "
                                   + self.log_tail())
            if self.url is None:
                match = _LISTENING.search(
                    self.log_path.read_text(errors="replace"))
                if match:
                    self.url = match.group(1)
            if self.url is not None:
                try:
                    if ServeClient(self.url, timeout=5).healthz()["ok"]:
                        return self.url
                except (OSError, ServiceError):
                    pass
            time.sleep(0.01)
        raise RuntimeError("repro serve did not become healthy: "
                           + self.log_tail())

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-600:]

    def stop(self) -> None:
        """Terminate, then kill if needed; always reaps the process.

        SIGTERM, not SIGINT: a process started in the background by a
        non-interactive shell inherits SIGINT as ignored, and the server
        then never sees its KeyboardInterrupt.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def submit_and_wait(client: ServeClient, spec: SweepSpec, tracer: Tracer,
                    rid=None) -> dict:
    """One closed-loop submission, timed as the client sees it.

    ``submit()``, ``events()`` up to the ``end`` marker, then the final
    ``GET /v1/sweeps/{id}`` — the sequence ``repro client`` runs.
    """
    record = {"ok": False, "job": None, "error": None}
    started = time.perf_counter()
    try:
        with tracer.span("serve.request", rid=rid):
            with tracer.span("serve.http.submit", rid=rid):
                job = client.submit(spec)
            record["submit_s"] = time.perf_counter() - started
            with tracer.span("serve.client.events", rid=rid):
                for event in client.events(job["id"]):
                    if event.get("event") == "end":
                        record["end_at"] = time.time()
            with tracer.span("serve.client.job", rid=rid):
                final = client.job(job["id"])
        record["job"] = final
        record["ok"] = final["status"] == "done"
        if not record["ok"]:
            record["error"] = final.get("error") or final["status"]
    except (OSError, ServiceError, KeyError, ValueError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["latency"] = time.perf_counter() - started
    return record


class ServeWorkload:
    """Set-up, the two-client closed loop, and result collection."""

    name = "serve-mixed"

    def __init__(self, seed: int, seconds: float, root: Path,
                 workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.schedule = workloads.serve_schedule(seed, seconds)
        self.server: ServerProcess | None = None
        self.client: ServeClient | None = None
        self.position = [0, 0]

    def setup(self) -> None:
        """Spawn the server, pre-fill its disk tier, warm its images."""
        self.server = ServerProcess(self.root, self.workdir)
        with SweepExecutor(cache=DiskCache(self.server.cache_dir)) as ex:
            for outcome in ex.run(self.schedule.prefill):
                if not outcome.ok:
                    raise RuntimeError(f"pre-fill run {outcome.request.label}"
                                       f" failed: {outcome.error}")
        self.client = ServeClient(self.server.wait_ready(),
                                  timeout=CLIENT_TIMEOUT)
        warm = submit_and_wait(self.client,
                               SweepSpec("warmup", self.schedule.warmup),
                               Tracer())
        if not warm["ok"]:
            raise RuntimeError(f"warm-up submission failed: {warm['error']}")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def measure(self, seconds: float, gate, tracer: Tracer) -> dict:
        """One timed phase of closed-loop submissions, then its accounting.

        After the deadline (outside the timed phase) the payload of
        every distinct digest served is fetched back over HTTP and every
        run goes through the correctness gate.
        """
        before = self.client.metrics()["cache"]
        records, elapsed = self._submissions(seconds, tracer)
        sample = {"records": records, "elapsed": elapsed,
                  "cache_before": before,
                  "cache_after": self.client.metrics()["cache"],
                  "peak_rss_mb": peak_rss_mb(self.server.proc.pid),
                  "executed": []}
        with tracer.paused():
            self._check(records, gate, sample)

        failed = 2 * CLIENT_TIMEOUT    # a failed request misses any limit
        sample["latencies"] = [r["latency"] if r["ok"] else failed
                               for r in records]
        sample["hit_latencies"] = [
            r["latency"] for r in records if r["ok"] and r["rows"]
            and all(row["source"] == "cache" for _, row in r["rows"])]
        runs = sum(len(r["rows"]) for r in records)
        cycles = sum(p["run"]["trace"]["cycles"]
                     for _, p in sample["executed"])
        sample["runs_per_s"] = runs / elapsed
        sample["cycles_per_s"] = cycles / elapsed
        return sample

    def _check(self, records, gate, sample: dict) -> None:
        """Every run of every request through the gate; payloads come
        back over HTTP, once per distinct digest."""
        payloads: dict[str, dict | None] = {}
        for record in records:
            if not record["ok"] or len(record["rows"]) != len(
                    record["point"]):
                gate.note_failed(record["rid"], len(record["point"]),
                                 record["error"] or "incomplete run rows")
                continue
            for request, row in record["rows"]:
                digest = row["digest"]
                if digest not in payloads:
                    payloads[digest] = self.client.run_payload(digest)
                gate.note(request, digest, payloads[digest], row["error"])
                if row["source"] == "executed" and payloads[digest]:
                    sample["executed"].append((request, payloads[digest]))

    def _submissions(self, seconds: float, tracer: Tracer):
        """Both clients submit until the deadline; returns the request
        records in schedule order and the phase's wall time."""
        deadline = time.perf_counter() + seconds
        together = threading.Barrier(2, timeout=2 * CLIENT_TIMEOUT + 30)
        records: list[dict] = []
        lock = threading.Lock()

        def client_loop(index: int) -> None:
            client = ServeClient(self.client.base_url,
                                 timeout=CLIENT_TIMEOUT)
            entries = self.schedule.clients[index]
            try:
                while (time.perf_counter() < deadline
                       and self.position[index] < len(entries)):
                    position = self.position[index]
                    self.position[index] += 1
                    kind, point = entries[position]
                    if kind == workloads.COALESCE:
                        together.wait()
                    rid = f"c{index}s{position}"
                    record = submit_and_wait(
                        client, SweepSpec(f"{kind}-{rid}", point), tracer,
                        rid)
                    rows = (record["job"] or {}).get("runs") or []
                    record.update(kind=kind, point=point, rid=rid,
                                  order=(position, index),
                                  rows=[(point[row["index"]], row)
                                        for row in rows])
                    with lock:
                        records.append(record)
            except threading.BrokenBarrierError:
                return
            finally:
                # the other client may wait at a coalesce entry
                together.abort()

        started = time.perf_counter()
        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        return sorted(records, key=lambda r: r["order"]), elapsed
