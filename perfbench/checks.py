"""The correctness gate every workload's outputs pass through.

A run counts as failed when it raised, when its outputs differ from the
golden model (recomputed here, not read from the payload's own
``golden_match`` flag), when the payload says ``golden_match`` is not
true, or when the simulated statistics of one request differ between
two runs of it.  The gate keeps one fingerprint per request digest,
not the payloads.  Re-executing a seeded sample of the executed requests
— with the fast engine, and in the traced run also with the reference
``Machine.step()`` engine — must reproduce the ``run`` payload bit for
bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.exec import execute_request
from repro.exec.job import resolve_channels
from repro.kernels import golden_outputs


def fingerprint(run: dict) -> str:
    """A digest of a ``run`` payload (outputs and simulated statistics)."""
    return hashlib.sha256(json.dumps(run, sort_keys=True)
                          .encode()).hexdigest()


class Gate:
    """Counts attempted and failed runs and remembers why runs failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: request digest -> fingerprint of the first successful run seen
        self.runs: dict[str, str] = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def note(self, request, digest: str, payload: dict | None,
             error: str | None) -> None:
        """Account one run outcome (executed, cached or coalesced)."""
        self.attempted += 1
        if error is not None or payload is None:
            self._fail(f"{request.label}: {error or 'no payload'}")
            return
        if payload.get("golden_match") is not True:
            self._fail(f"{request.label}: golden_match is "
                       f"{payload.get('golden_match')!r}")
            return
        seen, first = fingerprint(payload["run"]), self.runs.get(digest)
        if first is None:
            self.runs[digest] = seen
            expected = golden_outputs(request.benchmark,
                                      resolve_channels(request))
            if payload["run"]["outputs"] != expected:
                self._fail(f"{request.label}: outputs differ from the "
                           "golden model")
        elif first != seen:
            self._fail(f"{request.label}: simulated statistics differ "
                       "between two runs of one request")

    def note_failed(self, label: str, runs: int, reason: str) -> None:
        """Account ``runs`` runs that produced no outcome at all."""
        self.attempted += runs
        for _ in range(runs):
            self._fail(f"{label}: {reason}")

    def check_rerun(self, request, expected: dict, *,
                    fast_engine: bool) -> None:
        """Re-execute one request; its ``run`` must equal ``expected``'s."""
        try:
            payload = execute_request(replace(request,
                                              fast_engine=fast_engine))
        except Exception as exc:   # noqa: BLE001 — a failed run, counted
            self._fail(f"{request.label}: rerun raised {exc!r}")
            return
        if payload["run"] != expected["run"]:
            engine = "fast" if fast_engine else "reference"
            self._fail(f"{request.label}: {engine}-engine rerun is not "
                       "bit-identical")
