"""Spans recorded from outside the program.

The traced run wraps the public entry points of each layer — image
builds (``resolve_program``), ECG generation (``generate_ecg``), request
digests, scalar and batched execution, the cache object handed to the
executor, and the ``ServeClient`` calls — and records one span per
call: name, start, end, parent span and the id of the request it
belongs to.  Spans stay in memory and are written once, at the end.
Nothing inside ``src/`` records them; the wrappers are installed only
while tracing is on and removed afterwards.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager

from repro.exec import job as exec_job
from repro.exec import scheduler as exec_scheduler


class Tracer:
    """In-memory span recorder; thread-safe, one parent stack per thread.

    Times are ``time.perf_counter()`` seconds.  :meth:`record_epoch`
    converts wall-clock (``time.time()``) spans, such as the service's
    own span tree, onto the same base.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch_offset = time.time() - time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid=None, **args):
        """Record one span around the block; yields its args dict."""
        if not self.active:
            yield {}
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        entry = {"id": next(self._ids), "name": name,
                 "parent": parent["id"] if parent else None,
                 "rid": rid if rid is not None
                 else (parent["rid"] if parent else None),
                 "start": time.perf_counter(), "end": None, "args": args}
        stack.append(entry)
        try:
            yield args
        finally:
            entry["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(entry)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own work)."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def from_epoch(self, seconds: float) -> float:
        """An epoch (``time.time()``) instant on the span clock."""
        return seconds - self._epoch_offset

    def record_epoch(self, name: str, start: float, end: float, *,
                     parent=None, rid=None, **args) -> dict:
        """Add a finished span given in epoch seconds; returns it."""
        entry = {"id": next(self._ids), "name": name, "parent": parent,
                 "rid": rid, "start": self.from_epoch(start),
                 "end": self.from_epoch(end), "args": args}
        with self._lock:
            self.spans.append(entry)
        return entry

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def dump(self, path) -> None:
        """Write every span once, as JSON lines sorted by start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as sink:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                sink.write(json.dumps(span, sort_keys=True,
                                      default=str) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its children's spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(span["id"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


class TracedCache:
    """Pass-through wrapper timing every ``get`` / ``put``."""

    def __init__(self, cache, tracer: Tracer):
        self._cache = cache
        self._tracer = tracer

    def get(self, digest: str):
        with self._tracer.span("exec.cache.get") as args:
            payload = self._cache.get(digest)
            args["hit"] = payload is not None
        return payload

    def put(self, digest: str, payload: dict) -> None:
        with self._tracer.span("exec.cache.put"):
            self._cache.put(digest, payload)

    def __getattr__(self, name):
        return getattr(self._cache, name)


@contextmanager
def instrumented(tracer: Tracer, images_seen: set):
    """Activate ``tracer`` and wrap the layer entry points while open.

    ``images_seen`` persists across activations so only the first
    build of each image counts as a cold ``compiler.build``.
    """
    originals = []

    def patch(module, name, wrapper_factory):
        original = getattr(module, name)
        originals.append((module, name, original))
        setattr(module, name, wrapper_factory(original))

    def build(original):
        def resolve_program(request):
            with tracer.span("compiler.resolve") as args:
                result = original(request)
                image = id(result[0])
                args["cold"] = image not in images_seen
                images_seen.add(image)
            return result
        return resolve_program

    def ecg(original):
        def generate_ecg(*a, **kw):
            with tracer.span("dsp.ecg", channels=kw.get("n_channels", 1)):
                return original(*a, **kw)
        return generate_ecg

    def timed(name):
        def factory(original):
            def wrapper(*a, **kw):
                with tracer.span(name):
                    return original(*a, **kw)
            return wrapper
        return factory

    patch(exec_job, "resolve_program", build)
    patch(exec_job, "generate_ecg", ecg)
    patch(exec_scheduler, "request_digest", timed("exec.job.digest"))
    patch(exec_scheduler, "execute_request", timed("platform.engine.run"))
    patch(exec_scheduler, "execute_batch", timed("cpu.vec.batch"))
    tracer.active = True
    try:
        yield tracer
    finally:
        tracer.active = False
        for module, name, original in reversed(originals):
            setattr(module, name, original)
