"""ECG end-to-end benchmark of the sweep executor and the sweep service.

Usage, from the repository root::

    python3 perfbench/run.py --workload seed-families-cold --seed 1 \\
        --seconds 20 --trace 0

Workloads (both driven by seeded ECG; see ``workloads.py`` for the
inputs and ``BENCHMARK.json`` for why each was chosen):

``seed-families-cold``
    per kernel x design, a same-size family over fresh ECG seeds;
``serve-mixed``
    a ``repro serve`` subprocess under a closed loop of two clients.

With ``--trace 0`` the command measures the end-to-end metrics for
``--seconds`` seconds.  A request is one sweep submission: on
``serve-mixed`` timed as the client sees it (``submit()``, the events
stream to its ``end`` marker, the final ``GET``), on
``seed-families-cold`` the wall time of one cold
``SweepExecutor.run``.  ``hit_latency_p50_s`` is the same timing for
submissions whose every run was a cache hit; the families get theirs by
re-submitting the previous cold sweep on its filled disk cache, outside
every other figure.  The families warm up, untimed, before their timed
phase (``sweeps.py``).

With ``--trace 1`` it measures half the time untraced and half traced
— spans recorded from outside the program, around the public entry
points of each layer — and reports the per-layer metrics; the spans
are written to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.  Either way every
output passes the correctness gate (``checks.py``), and the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Per-layer definitions (traced half; "per call" values are means):

- ``compiler.build_s`` / ``compiler.images``: busy seconds and count of
  cold image builds (set-up included);
- ``dsp.ecg_s`` / ``dsp.ecg_channels``: busy seconds and channels of
  ECG recordings generated;
- ``exec.job.digest_s``: self seconds per ``request_digest`` call;
- ``exec.cache.get_s`` / ``put_s``: seconds per cache call (on the
  families' cold sweeps every ``get`` is a miss);
- ``exec.scheduler.overhead_s``: sweep wall time minus digest, cache
  and run-elapsed time, per run;
- ``platform.engine.*`` / ``cpu.blocks.*``: scalar executed runs;
  ``cpu.vec.*``: runs executed in array-of-machines batches;
- ``serve.*``: medians per request (``lock_wait_s``: the mean), read
  from the client and from the service's span tree
  (``GET /v1/sweeps/{id}/trace``).  Calls inside the server process
  cannot be wrapped, so on ``serve-mixed`` the ``compiler`` and
  ``dsp`` figures are the benchmark's own pre-fill, ``exec.cache.*``
  come from the span tree and ``/v1/metrics``, and ``put_s`` reads 0.

A metric that does not apply to a workload (the ``serve.*`` layer on
the families, a layer with no work in the traced half) reads 0.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("seed-families-cold", "serve-mixed")
#: set-up is measured this many times per run (this process plus
#: fresh-process probes) and reported as the median
SETUP_SAMPLES = 3
#: executed requests re-run per workload with the fast engine, and
#: (traced run only) with the reference engine
FAST_RERUNS = 4
REFERENCE_RERUNS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Put the checkout's ``src`` first on the path and import it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}"
                         f", not from {src}")


def setup_probe(args) -> float:
    """Set-up seconds of this workload in a fresh process.

    The probe runs in its own session, so a timeout kills it together
    with any server it spawned.
    """
    probe = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = probe.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(probe.pid, signal.SIGKILL)
        probe.communicate()
        raise
    if probe.returncode:
        raise RuntimeError(f"set-up probe failed: {err[-2000:]}")
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def make_workload(args, workdir):
    from serveload import ServeWorkload
    from sweeps import SweepWorkload

    if args.workload == "serve-mixed":
        return ServeWorkload(args.seed, args.seconds, ROOT, workdir)
    return SweepWorkload(args.seed, workdir)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def run_gate(gate, args, samples, reference: bool) -> None:
    """Seeded re-runs of executed requests (the golden check and the
    repeat check ran as each outcome was noted)."""
    executed = {}
    for sample in samples:
        for request, payload in sample["executed"]:
            executed.setdefault(request, payload)
    pool = sorted(executed.items(), key=lambda rp: repr(rp[0].to_key()))
    rng = random.Random(f"rerun:{args.workload}:{args.seed}")
    chosen = rng.sample(pool, min(FAST_RERUNS, len(pool)))
    for request, payload in chosen:
        gate.check_rerun(request, payload, fast_engine=True)
    if reference:
        smallest = sorted(chosen, key=lambda rp: rp[1]["run"]["trace"]
                          ["cycles"])[:REFERENCE_RERUNS]
        for request, payload in smallest:
            gate.check_rerun(request, payload, fast_engine=False)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def emit(metrics: dict, gate, workload_name: str) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload_name:20s} {name:34s} {value:>16.6g} {unit}")
    if gate.attempted:
        print(f"{workload_name:20s} {'error_rate':34s} "
              f"{gate.failed / gate.attempted:>16.6g} ratio")
    for problem in gate.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": max(1, gate.attempted),
        "failed": min(gate.failed, max(1, gate.attempted)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=True))


def main(argv=None, started: float = T0) -> int:
    """Run one workload; ``started`` is when set-up time starts."""
    args = parse_args(argv)
    import_program()
    # these import the program, so only after import_program()
    from checks import Gate
    from metrics import end_to_end, median, per_layer, ratio
    from tracing import Tracer, instrumented

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    workload = make_workload(args, workdir)
    tracer, images = Tracer(), set()
    try:
        if args.trace:
            with instrumented(tracer, images):
                workload.setup()
        else:
            workload.setup()
        setup_s = time.perf_counter() - started
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        gate = Gate()
        if not args.trace:
            setups = [setup_s] + [setup_probe(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
            sample = workload.measure(args.seconds, gate, tracer)
            run_gate(gate, args, [sample], reference=False)
            metrics = end_to_end(sample, median(setups))
            total, hits = (len(sample["latencies"]),
                           len(sample["hit_latencies"]))
            print(f"{args.workload}: {total} latency samples, {hits} "
                  f"all-hit samples, setup samples "
                  f"{[round(s, 4) for s in setups]}")
        else:
            plain = workload.measure(args.seconds / 2, gate, tracer)
            with instrumented(tracer, images):
                traced = workload.measure(args.seconds / 2, gate, tracer)
            run_gate(gate, args, [plain, traced], reference=True)
            metrics = per_layer(workload, traced, tracer)
            metrics["trace.overhead"] = (
                1 - ratio(traced["runs_per_s"], plain["runs_per_s"]),
                "ratio")
            tracer.dump(ROOT / ".perfbench_out"
                        / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    emit(metrics, gate, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
