"""End-to-end and per-layer metrics, from one timed phase's sample.

Per-layer figures come from spans the benchmark recorded around calls
into the program (``tracing.py``), from the run payloads the program
returned, or — for ``serve-mixed`` — from the service's own span tree
and ``/v1/metrics`` counters, fetched over HTTP.
"""

from __future__ import annotations

import statistics

from tracing import self_times

#: (name, unit) of every per-layer metric, in report order
METRICS = (
    ("compiler.build_s", "s"), ("compiler.images", "count"),
    ("dsp.ecg_s", "s"), ("dsp.ecg_channels", "count"),
    ("exec.job.digest_s", "s"),
    ("exec.cache.get_s", "s"), ("exec.cache.put_s", "s"),
    ("exec.cache.hit_rate", "ratio"), ("exec.cache.memory_hits", "count"),
    ("exec.cache.disk_hits", "count"), ("exec.cache.promotions", "count"),
    ("exec.scheduler.overhead_s", "s"),
    ("exec.scheduler.batched_share", "ratio"),
    ("exec.scheduler.dedup_hits", "count"),
    ("platform.engine.run_s", "s"), ("platform.engine.sim_cycles", "count"),
    ("platform.engine.ns_per_cycle", "ns"),
    ("platform.engine.lockstep_share", "ratio"),
    ("platform.engine.divergent_share", "ratio"),
    ("platform.engine.sleep_share", "ratio"),
    ("platform.engine.deopts_per_kcycle", "1/kcycle"),
    ("cpu.blocks.coverage", "ratio"), ("cpu.blocks.pred_abort_ratio", "ratio"),
    ("cpu.blocks.guard_aborts", "count"),
    ("cpu.vec.batch_s", "s"), ("cpu.vec.ns_per_cycle", "ns"),
    ("cpu.vec.peel_rate", "ratio"), ("cpu.vec.vector_cycle_share", "ratio"),
    ("cpu.vec.refused", "count"),
    ("serve.http.submit_s", "s"), ("serve.app.queue_wait_s", "s"),
    ("serve.app.lock_wait_s", "s"), ("serve.app.job_s", "s"),
    ("serve.coalescer.coalesced_share", "ratio"),
    ("serve.coalescer.wait_s", "s"), ("serve.routes.events_lag_s", "s"),
)


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def percentile(values, q: int):
    """Percentile ``q`` (1..99), interpolated between the two nearest
    samples; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(sample, setup_s) -> dict:
    """Every end-to-end metric as ``name -> (value, unit)``."""
    latencies, hits = sample["latencies"], sample["hit_latencies"]
    return {
        "setup_s": (setup_s, "s"),
        "runs_per_s": (sample["runs_per_s"], "runs/s"),
        "sim_cycles_per_s": (sample["cycles_per_s"], "cycles/s"),
        "request_latency_p50_s": (percentile(latencies, 50), "s"),
        "request_latency_p90_s": (percentile(latencies, 90), "s"),
        "hit_latency_p50_s": (percentile(hits, 50), "s"),
        "peak_rss_mb": (sample["peak_rss_mb"], "MiB"),
    }


def _duration(span):
    return span["end"] - span["start"]


def _engine_layers(out: dict, payloads, engine_seconds: float,
                   batch_seconds: float) -> None:
    """``platform.engine`` / ``cpu.blocks`` / ``cpu.vec`` from payloads.

    Scalar runs are those without ``batch_size``; the rest ran in an
    array-of-machines batch.
    """
    scalar = [p for p in payloads if not p.get("batch_size")]
    batched = [p for p in payloads if p.get("batch_size")]

    def total(runs, key):
        return sum((p.get("engine") or {}).get(key, 0) for p in runs)

    cycles = sum(p["run"]["trace"]["cycles"] for p in scalar)
    out["platform.engine.run_s"] = engine_seconds
    out["platform.engine.sim_cycles"] = cycles
    out["platform.engine.ns_per_cycle"] = ratio(engine_seconds * 1e9, cycles)
    out["platform.engine.lockstep_share"] = ratio(
        total(scalar, "lockstep_cycles"), cycles)
    out["platform.engine.divergent_share"] = ratio(
        total(scalar, "divergent_cycles"), cycles)
    out["platform.engine.sleep_share"] = ratio(
        total(scalar, "sleep_cycles"), cycles)
    out["platform.engine.deopts_per_kcycle"] = ratio(
        1000 * total(scalar, "deopt_count"), cycles)
    out["cpu.blocks.coverage"] = ratio(
        total(scalar, "fused_cycles"), cycles - total(scalar, "sleep_cycles"))
    pred_blocks, pred_aborts = (total(scalar, "pred_blocks"),
                                total(scalar, "pred_aborts"))
    out["cpu.blocks.pred_abort_ratio"] = ratio(pred_aborts,
                                                pred_blocks + pred_aborts)
    out["cpu.blocks.guard_aborts"] = total(scalar, "term_guard")
    batched_cycles = sum(p["run"]["trace"]["cycles"] for p in batched)
    out["cpu.vec.batch_s"] = batch_seconds
    out["cpu.vec.ns_per_cycle"] = ratio(batch_seconds * 1e9, batched_cycles)
    out["cpu.vec.peel_rate"] = ratio(
        sum(1 for p in batched if (p.get("engine") or {}).get("peel_count")),
        len(batched))
    out["cpu.vec.vector_cycle_share"] = ratio(
        total(batched, "vector_cycles"), batched_cycles)
    out["cpu.vec.refused"] = sum(1 for p in batched
                                 if p.get("batch_refused"))
    out["exec.scheduler.batched_share"] = ratio(len(batched), len(payloads))


def _compiler_dsp(out: dict, tracer) -> None:
    cold = [s for s in tracer.named("compiler.resolve") if s["args"]["cold"]]
    out["compiler.build_s"] = sum(map(_duration, cold))
    out["compiler.images"] = len(cold)
    ecg = tracer.named("dsp.ecg")
    out["dsp.ecg_s"] = sum(map(_duration, ecg))
    out["dsp.ecg_channels"] = sum(s["args"]["channels"] for s in ecg)


def sweep_layers(sample, tracer) -> dict:
    out = dict.fromkeys(name for name, _ in METRICS)
    own = self_times(tracer.spans)
    _compiler_dsp(out, tracer)
    digests = tracer.named("exec.job.digest")
    out["exec.job.digest_s"] = mean([own[s["id"]] for s in digests])
    gets = tracer.named("exec.cache.get")
    puts = tracer.named("exec.cache.put")
    hits = sum(1 for s in gets if s["args"]["hit"])
    out["exec.cache.get_s"] = mean([_duration(s) for s in gets])
    out["exec.cache.put_s"] = mean([_duration(s) for s in puts])
    out["exec.cache.hit_rate"] = ratio(hits, len(gets))
    out["exec.cache.memory_hits"] = 0          # a plain DiskCache
    out["exec.cache.disk_hits"] = hits
    out["exec.cache.promotions"] = 0

    # scheduler overhead: sweep wall time minus digest, cache and
    # run-elapsed time, per run
    wall = sum(_duration(s) for s in tracer.named("exec.sweep"))
    inside = sum(_duration(s) for s in digests + gets + puts)
    elapsed = sum(sweep["executed_elapsed"] for sweep in sample["sweeps"])
    runs = sum(sweep["runs"] for sweep in sample["sweeps"])
    out["exec.scheduler.overhead_s"] = ratio(wall - inside - elapsed, runs)
    out["exec.scheduler.dedup_hits"] = sum(
        sweep["dedup_hits"] for sweep in sample["sweeps"])

    engine = sum(own[s["id"]] for s in tracer.named("platform.engine.run"))
    batch = sum(own[s["id"]] for s in tracer.named("cpu.vec.batch"))
    _engine_layers(out, sample["payloads"], engine, batch)
    for name in out:
        if name.startswith("serve."):
            out[name] = 0.0
    return out


def _server_spans(workload, tracer, records) -> list[dict]:
    """Merge each traced job's service span tree into ``tracer``.

    The export's timestamps are relative to the job's first span, which
    opens when the job is submitted, so ``submitted`` anchors them.
    """
    client_roots = {s["rid"]: s["id"] for s in tracer.named("serve.request")}
    jobs = []
    for record in records:
        job = record["job"]
        doc = workload.client.trace(job["id"])
        ids, spans = {}, []
        events = sorted((e for e in doc["traceEvents"] if e["ph"] == "X"),
                        key=lambda e: e["ts"])
        for event in events:
            start = job["submitted"] + event["ts"] / 1e6
            args = event.get("args") or {}
            parent = ids.get(args.get("parent_span_id"),
                             client_roots.get(record["rid"]))
            span = tracer.record_epoch(
                f"serve.span.{event['cat']}", start,
                start + event["dur"] / 1e6, parent=parent,
                rid=record["rid"], label=event["name"],
                **{k: v for k, v in args.items()
                   if k in ("hits", "misses", "executed", "outcome")})
            ids[args.get("span_id")] = span["id"]
            spans.append(span)
        jobs.append((record, spans))
    return jobs


def serve_layers(workload, sample, tracer) -> dict:
    out = dict.fromkeys(name for name, _ in METRICS)
    _compiler_dsp(out, tracer)
    records = [r for r in sample["records"] if r["ok"]]
    rows = [row for record in records for _, row in record["rows"]]
    jobs = _server_spans(workload, tracer, records)

    digest_s, digest_runs = 0.0, 0
    lookup_s, lookups = 0.0, 0
    lock_waits, coalesce_waits = [], []
    execute_s, executed_elapsed = 0.0, 0.0
    for record, spans in jobs:
        job = record["job"]
        by_label = {s["args"]["label"]: s for s in spans}
        claim = by_label.get("coalesce claim")
        lookup = by_label.get("cache-tier lookup")
        execute = by_label.get("execute")
        if claim is not None:
            digest_s += claim["start"] - tracer.from_epoch(job["started"])
            digest_runs += job["total"]
            if lookup is not None:
                lock_waits.append(max(0.0, lookup["start"] - claim["end"]))
        if lookup is not None:
            lookup_s += _duration(lookup)
            lookups += lookup["args"].get("hits", 0) + \
                lookup["args"].get("misses", 0)
        if execute is not None:
            execute_s += _duration(execute)
            executed_elapsed += sum(row["elapsed"] for row in job["runs"]
                                    if row["source"] == "executed")
        waits = [_duration(s) for s in spans
                 if s["args"]["label"].startswith("coalesce wait")]
        if waits:
            coalesce_waits.append(sum(waits))
    out["exec.job.digest_s"] = ratio(digest_s, digest_runs)
    out["exec.cache.get_s"] = ratio(lookup_s, lookups)
    out["exec.cache.put_s"] = 0.0          # not visible from outside

    before, after = sample["cache_before"], sample["cache_after"]

    def delta(tier, key):
        return (after["tiers"][tier][key] - before["tiers"][tier][key])

    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    out["exec.cache.hit_rate"] = ratio(hits, hits + misses)
    out["exec.cache.memory_hits"] = delta("memory", "hits")
    out["exec.cache.disk_hits"] = delta("disk", "hits")
    out["exec.cache.promotions"] = delta("memory", "promotions")

    executed = sample["executed"]
    out["exec.scheduler.overhead_s"] = ratio(execute_s - executed_elapsed,
                                              len(executed))
    out["exec.scheduler.dedup_hits"] = sum(1 for row in rows
                                           if row["source"] == "deduped")
    payloads = [payload for _, payload in executed]
    _engine_layers(
        out, payloads,
        sum(p["elapsed"] for p in payloads if not p.get("batch_size")),
        sum(p["elapsed"] for p in payloads if p.get("batch_size")))

    finals = [record["job"] for record in records]
    out["serve.http.submit_s"] = median([r["submit_s"] for r in records])
    out["serve.app.queue_wait_s"] = median(
        [job["started"] - job["submitted"] for job in finals])
    # most requests never wait, so the mean, not the median, shows it
    out["serve.app.lock_wait_s"] = mean(lock_waits)
    out["serve.app.job_s"] = median(
        [job["finished"] - job["started"] for job in finals])
    out["serve.coalescer.coalesced_share"] = ratio(
        sum(1 for row in rows if row["source"] == "coalesced"), len(rows))
    out["serve.coalescer.wait_s"] = median(coalesce_waits)
    out["serve.routes.events_lag_s"] = median(
        [r["end_at"] - r["job"]["finished"] for r in records
         if "end_at" in r])
    return out


def per_layer(workload, sample, tracer) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    if workload.name == "serve-mixed":
        values = serve_layers(workload, sample, tracer)
    else:
        values = sweep_layers(sample, tracer)
    return {name: (float(values[name]), unit) for name, unit in METRICS}
