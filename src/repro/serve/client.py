"""Blocking client for the sweep service (the ``repro client`` CLI).

:class:`ServeClient` speaks the documented ``/v1`` wire protocol over
stdlib ``http.client`` — one connection per call, JSON in, JSON out,
with the service's error envelope surfaced as :class:`ServiceError`.
It is deliberately synchronous: callers are scripts, tests and the CLI,
where "submit, stream events, fetch results" reads best as straight-line
code.  (The *server* is the async side; see :mod:`repro.serve.app`.)
"""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import urlsplit

from ..exec import SweepSpec
from ..exec.wire import payload_from_wire
from ..obs.context import TraceContext


class ServiceError(Exception):
    """An error envelope returned by the service (or transport trouble)."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message


class ServeClient:
    """Thin, connection-per-call client for one server.

    :param base_url: server root, e.g. ``http://127.0.0.1:8642``.
    :param timeout: socket timeout per call, in seconds.
    """

    def __init__(self, base_url: str, *, timeout: float = 60.0):
        parts = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {parts.scheme!r} "
                             "(the service speaks plain http)")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 8642
        self.timeout = timeout
        #: the trace context of the most recent :meth:`submit` — its
        #: ``trace_id`` names the request end-to-end (server logs, span
        #: tree, ``x-trace-id`` response headers)
        self.last_trace: TraceContext | None = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- transport -------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    @staticmethod
    def _raise_envelope(status: int, body: bytes) -> None:
        try:
            envelope = json.loads(body)["error"]
            raise ServiceError(envelope.get("status", status),
                               envelope.get("code", "unknown"),
                               envelope.get("message", ""))
        except (ValueError, KeyError, TypeError):
            raise ServiceError(status, "unknown",
                               body.decode(errors="replace")[:200])

    def _request(self, method: str, path: str, payload=None, *,
                 headers: dict | None = None):
        connection = self._connect()
        try:
            body = None
            merged = {"Accept": "application/json"}
            if headers:
                merged.update(headers)
            if payload is not None:
                body = json.dumps(payload).encode()
                merged["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=merged)
            response = connection.getresponse()
            data = response.read()
            if response.status >= 400:
                self._raise_envelope(response.status, data)
            return json.loads(data) if data else None
        finally:
            connection.close()

    # -- API surface -----------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition of ``/v1/metrics``."""
        connection = self._connect()
        try:
            connection.request("GET", "/v1/metrics?format=prometheus",
                               headers={"Accept": "text/plain"})
            response = connection.getresponse()
            data = response.read()
            if response.status >= 400:
                self._raise_envelope(response.status, data)
            return data.decode()
        finally:
            connection.close()

    def submit(self, spec, *, trace: TraceContext | None = None) -> dict:
        """POST a sweep; accepts a :class:`SweepSpec` or a wire doc.

        Every submission carries a trace context — the given one or a
        fresh root — both as a ``traceparent`` header and embedded in
        the wire document, and remembers it as :attr:`last_trace` so
        callers can correlate server logs and the span tree.

        :returns: the job resource (``{"id": ..., "status": ...}``).
        """
        context = trace if trace is not None else TraceContext.new()
        self.last_trace = context
        doc = (spec.to_wire(trace=context) if isinstance(spec, SweepSpec)
               else dict(spec))
        if not isinstance(spec, SweepSpec) and "trace" not in doc:
            doc["trace"] = context.to_wire()
        return self._request("POST", "/v1/sweeps", payload=doc,
                             headers={"traceparent": context.traceparent()})

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/sweeps/{job_id}")

    def trace(self, job_id: str) -> dict:
        """The job's span tree (Perfetto trace-event JSON)."""
        return self._request("GET", f"/v1/sweeps/{job_id}/trace")

    def events(self, job_id: str, *, timeout: float | None = None):
        """Stream the job's run rows as parsed dicts, live.

        Yields one dict per ``runs.jsonl`` row as the server writes it,
        then the terminal ``{"event": "end", "status": ...}`` marker.
        The generator owns its connection; closing it mid-stream is
        fine.

        :param timeout: overall seconds for the whole stream; ``None``
            sets no overall bound (each read keeps the per-call socket
            timeout).
        :raises TimeoutError: the stream has not ended after
            ``timeout`` seconds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            yield from self._events(job_id, deadline=deadline)
        except TimeoutError:
            if deadline is None:
                raise             # a per-call socket timeout
            raise TimeoutError(
                f"job {job_id} not finished after {timeout}s") from None

    def _events(self, job_id: str, *, deadline: float | None):
        connection = self._connect()
        try:
            connection.request("GET", f"/v1/sweeps/{job_id}/events",
                               headers={"Accept": "application/x-ndjson"})
            sock = connection.sock      # the response takes it over
            response = connection.getresponse()
            if response.status >= 400:
                self._raise_envelope(response.status, response.read())
            while True:
                if deadline is not None:
                    # each read may block for what is left of the budget
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TimeoutError
                    sock.settimeout(left)
                raw = response.readline()   # http.client de-chunks
                if not raw:
                    return
                line = raw.strip()
                if line:
                    yield json.loads(line)
        finally:
            connection.close()

    def wait(self, job_id: str, *, timeout: float | None = 120.0) -> dict:
        """Block until the job is terminal; returns the final resource.

        Reads :meth:`events` to its ``end`` marker, which the server
        pushes the moment the job ends, then fetches the job once.

        :param timeout: overall seconds to wait; ``None`` sets no
            overall bound (each read keeps the per-call socket timeout).
        :raises TimeoutError: the job is not terminal after ``timeout``
            seconds.
        """
        for event in self.events(job_id, timeout=timeout):
            if event.get("event") == "end":
                break
        return self.job(job_id)

    def run_payload(self, digest: str) -> dict | None:
        """Fetch one cached result by digest; ``None`` when absent."""
        try:
            doc = self._request("GET", f"/v1/runs/{digest}")
        except ServiceError as exc:
            if exc.status == 404:
                return None
            raise
        _, payload = payload_from_wire(doc)
        return payload
