"""Smoke test of the benchmark itself, at tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs in both modes for one second with shrunken inputs;
each must print every metric ``BENCHMARK.json`` names, with its unit,
and pass the correctness gate.  The gate must also trip when fed a
deliberately wrong expected output.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from checks import Gate  # noqa: E402
from repro.exec import RunRequest, execute_request, request_digest  # noqa: E402
from repro.kernels import WITH_SYNC  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SAMPLES", 4)
    monkeypatch.setattr(workloads, "FAMILY_SIZE", 2)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_unit_and_gate_passes(tiny, capsys, workload,
                                                trace):
    assert run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace)],
                    started=time.perf_counter()) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def _one_run():
    request = RunRequest("SQRT32", WITH_SYNC, n_samples=4, seed=7)
    return request, request_digest(request), execute_request(request)


def test_gate_passes_a_correct_run():
    request, digest, payload = _one_run()
    gate = Gate()
    gate.note(request, digest, payload, None)
    gate.note(request, digest, copy.deepcopy(payload), None)
    gate.check_rerun(request, payload, fast_engine=True)
    assert gate.correct and gate.attempted == 2


def test_gate_trips_on_wrong_expected_output():
    request, digest, payload = _one_run()
    wrong = copy.deepcopy(payload)
    wrong["run"]["outputs"][0].append(12345)

    rerun = Gate()
    rerun.check_rerun(request, wrong, fast_engine=True)
    assert not rerun.correct

    golden = Gate()
    golden.note(request, digest, wrong, None)
    assert not golden.correct

    repeat = Gate()
    repeat.note(request, digest, payload, None)
    repeat.note(request, digest, wrong, None)
    assert not repeat.correct and repeat.failed == 1

    flagged = Gate()
    flagged.note(request, digest, dict(payload, golden_match=False), None)
    assert not flagged.correct
