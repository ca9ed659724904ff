"""Per-request span trees, rendered as Perfetto trace events.

A :class:`SpanRecorder` collects the spans of **one** traced request as
it crosses the service: the http receive, the job lifetime, the
coalescer claim, the cache-tier lookup, the wait for the executor,
the executor phase and every per-run execution.  Each span carries a :class:`~repro.obs.context
.TraceContext` (so parentage is explicit) plus free-form args — digest,
cache tier, outcome — and optional *links* to spans in other traces
(a coalesced follower links to the owning submission's span).

The rendering deliberately reuses the repository's existing trace-event
schema: :meth:`SpanRecorder.to_perfetto` emits the same Chrome
trace-event JSON the barrier tracer exports
(:mod:`repro.telemetry.perfetto`) and validates against the same
:func:`~repro.telemetry.perfetto.validate_trace` checker, with one
track (``tid``) per pipeline stage.  ``GET /v1/sweeps/{id}/trace``
serves exactly this payload — open it in ``ui.perfetto.dev`` next to a
barrier trace.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .context import TraceContext

#: trace-event process id for the serving stack (the platform's barrier
#: exporter uses pid 1; keeping them distinct lets both trees coexist
#: in one viewer session)
SERVICE_PID = 2

#: one track per pipeline stage, in request-flow order
STAGE_TIDS = {
    "http": 0,
    "job": 1,
    "coalesce": 2,
    "cache": 3,
    "queue": 4,
    "execute": 5,
    "run": 6,
}
_OTHER_TID = 9


@dataclass
class Span:
    """One named interval in a request's lifecycle."""

    name: str
    stage: str                      #: one of :data:`STAGE_TIDS` (or free)
    context: TraceContext
    start: float                    #: epoch seconds
    end: float | None = None
    args: dict = field(default_factory=dict)
    #: span ids in *other* traces this span rode on (coalesce links)
    links: list = field(default_factory=list)

    @property
    def open(self) -> bool:
        return self.end is None


class SpanRecorder:
    """Thread-safe collector for one request's span tree.

    Jobs execute on worker threads while the event loop answers
    ``/trace`` requests, so every mutation and the export snapshot
    take the recorder lock.
    """

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or TraceContext.new().trace_id
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    # -- recording -------------------------------------------------------

    def _context_for(self, parent: TraceContext | None) -> TraceContext:
        if parent is not None:
            return parent.child()
        return TraceContext(self.trace_id,
                            TraceContext.new().span_id)

    def begin(self, name: str, stage: str,
              parent: TraceContext | None = None, **args) -> Span:
        """Open a span now; finish it with :meth:`finish`."""
        span = Span(name, stage, self._context_for(parent), time.time(),
                    args=dict(args))
        with self._lock:
            self._spans.append(span)
        return span

    def finish(self, span: Span, **args) -> Span:
        """Close an open span (idempotent) and merge extra args."""
        with self._lock:
            if span.end is None:
                span.end = time.time()
            if args:
                span.args.update(args)
        return span

    @contextmanager
    def span(self, name: str, stage: str,
             parent: TraceContext | None = None, **args):
        """``with recorder.span(...) as span:`` — closed on exit."""
        entry = self.begin(name, stage, parent, **args)
        try:
            yield entry
        finally:
            self.finish(entry)

    def record(self, name: str, stage: str,
               parent: TraceContext | None, start: float, end: float,
               args: dict | None = None,
               links: list | None = None) -> Span:
        """Append a fully-formed (already finished) span."""
        span = Span(name, stage, self._context_for(parent), start, end,
                    args=dict(args or {}), links=list(links or []))
        with self._lock:
            self._spans.append(span)
        return span

    def spans(self) -> list[Span]:
        """Snapshot of the recorded spans (copy; safe to iterate)."""
        with self._lock:
            return list(self._spans)

    # -- export ----------------------------------------------------------

    def to_perfetto(self, *, meta: dict | None = None) -> dict:
        """The request's span tree as Chrome trace-event JSON.

        Validates against the same schema checker the barrier exporter
        uses (:func:`repro.telemetry.perfetto.validate_trace`): one
        ``X`` event per span on its stage's track, timestamps in
        microseconds relative to the earliest span, durations clamped
        to stay positive, and ``thread_name`` metadata naming the
        stages.  Open spans are clamped at export time (live traces of
        running jobs stay valid).
        """
        snapshot = self.spans()
        now = time.time()
        base = min((span.start for span in snapshot), default=now)
        events: list[dict] = [{
            "ph": "M", "pid": SERVICE_PID, "tid": 0,
            "name": "process_name", "args": {"name": "repro serve"},
        }]
        for stage, tid in STAGE_TIDS.items():
            events.append({"ph": "M", "pid": SERVICE_PID, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": stage}})
        for span in snapshot:
            end = span.end if span.end is not None else now
            ts = max((span.start - base) * 1e6, 0.0)
            dur = max((end - span.start) * 1e6, 0.001)
            args = {
                "trace_id": span.context.trace_id,
                "span_id": span.context.span_id,
            }
            if span.context.parent_id is not None:
                args["parent_span_id"] = span.context.parent_id
            if span.links:
                args["links"] = list(span.links)
            if span.open:
                args["open"] = True
            args.update(span.args)
            events.append({
                "ph": "X", "pid": SERVICE_PID,
                "tid": STAGE_TIDS.get(span.stage, _OTHER_TID),
                "name": span.name, "cat": span.stage,
                "ts": round(ts, 3), "dur": round(dur, 3),
                "args": args,
            })
        events.sort(key=lambda e: (e.get("ts", -1.0), e["tid"]))
        other = {"trace_id": self.trace_id, "spans": len(snapshot)}
        if meta:
            other.update(meta)
        return {
            "displayTimeUnit": "ms",
            "otherData": other,
            "traceEvents": events,
        }
