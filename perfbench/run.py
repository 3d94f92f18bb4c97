"""GhostDB host benchmark: end-to-end and per-layer metrics per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan-large --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass plus its tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero on
a wrong answer, a leak on the spied USB link, a writer-model mismatch
or simulated counts that drift between two same-seed passes.  See
``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Timed set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def _import_program():
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro.serve  # noqa: F401
    except ImportError as exc:
        print(
            f"perfbench: cannot import the GhostDB sources under "
            f"{os.path.join(ROOT, 'src')}: {exc}",
            file=sys.stderr,
        )
        sys.exit(2)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def geomean(values) -> float:
    if not values:
        return 0.0
    return math.exp(math.fsum(map(math.log, values)) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


class Run:
    """One benchmark invocation: set-ups, passes and verdicts."""

    def __init__(self, workload, seed: int, seconds: int):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload]
        self.plans = self.workload.clients(seed, seconds)
        self.setups: list[float] = []
        self.errors: list[str] = []
        self.answers = None

    def build(self):
        from passes import build

        gc.collect()
        db, data, seconds = build(self.workload)
        self.setups.append(seconds)
        return db, data

    def run_pass(self, tracer=None):
        """Set up a fresh device and run every client's plan on it."""
        from check import WriterModel, leak_check, reference_answers
        from passes import run_console, run_serve

        db, data = self.build()
        if self.answers is None:
            sqls = [
                s.sql
                for plan in self.plans
                for s in plan.warmup + plan.measured
                if s.write is None
            ]
            self.answers = reference_answers(db, data, sqls)
        if tracer is not None:
            tracer.install()
        try:
            gc.collect()
            model = (
                WriterModel(data["prescription"])
                if self.workload.writes_per_second else None
            )
            if self.workload.served:
                result = run_serve(db, self.plans, self.answers, tracer, model)
            else:
                result = run_console(db, self.plans[0], self.answers, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if result.wrong:
            self.errors.append(
                f"{len(result.wrong)} wrong answers ({sorted(set(result.wrong))})"
            )
        extra = model.final_rows() if model is not None else ()
        leak = leak_check(db, data, extra)
        if leak is not None:
            self.errors.append(f"leak on the spied USB link: {leak}")
        if model is not None:
            mismatch = model.verify(db)
            if mismatch is not None:
                self.errors.append(mismatch)
        return result

    def top_up_setups(self) -> None:
        while len(self.setups) < SETUPS:
            self.build()

    def check_same(self, label: str, first: dict, second: dict) -> None:
        """Same-seed passes must agree bit for bit on simulated counts."""
        for key in sorted(first.keys() & second.keys()):
            if first[key] != second[key]:
                self.errors.append(
                    f"determinism drift ({label}) in {key}: "
                    f"{first[key]!r} != {second[key]!r}"
                )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(run: Run, result) -> tuple[dict, list[str]]:
    """End-to-end metrics of the untraced pass, plus report-only lines
    for metrics a workload may lack (writes) or that read zero."""
    from check import FAILURE_KINDS

    reads = [r.latency_s * 1e3 for r in result.records if not r.write]
    writes = [r.latency_s * 1e3 for r in result.records if r.write]
    n = result.attempted
    sims = [r.metrics.elapsed_seconds for r in result.results]
    metrics = {
        "throughput_qps": ((n - result.failed) / result.wall_s, "1/s"),
        "query_p50_ms": (percentile(reads, 0.50), "ms"),
        "query_p90_ms": (percentile(reads, 0.90), "ms"),
        "sim_ms_per_stmt": (math.fsum(sims) / max(1, len(sims)) * 1e3, "ms"),
        "usb_bytes_per_stmt": (result.usb_bytes / n, "B"),
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"samples: {len(reads)} SELECTs, {len(writes)} UPDATEs over "
        f"{result.wall_s:.3f} s measured",
        f"query_p99_ms {percentile(reads, 0.99):.4f} ms "
        f"({len(reads) // 100} samples beyond it)",
        f"failed_frac {result.failed / n:.6f} ({result.failed} of {n}) "
        + (
            "by kind: " + ", ".join(
                f"{k}={result.failures[k]}" for k in FAILURE_KINDS
            )
            if result.failed else "(no failures)"
        ),
    ]
    if writes:
        notes.insert(1, (
            f"write_p50_ms {percentile(writes, 0.50):.4f} ms, "
            f"write_p90_ms {percentile(writes, 0.90):.4f} ms"
        ))
    else:
        notes.insert(1, "write_p50_ms / write_p90_ms: no writes on this workload")
    if result.client_seconds:
        notes.append("client finish: " + ", ".join(
            f"{name} {sec:.3f} s" for name, sec in result.client_seconds.items()
        ))
    notes.extend(f"  failure: {line}" for line in result.failure_notes)
    return metrics, notes


def per_layer(run: Run, untraced, traced, tracer) -> dict:
    """Per-layer metrics of the traced pass, per measured statement."""
    from passes import client_mean_latencies
    from repro.core.scheduler import jain_index
    from repro.engine.executor import DmlResult

    n = traced.attempted
    self_s = tracer.self_seconds()
    counts = tracer.counts()
    results = traced.results
    queries = [r for r in results if not isinstance(r, DmlResult)]
    dmls = [r for r in results if isinstance(r, DmlResult)]

    def ms(*names):
        return sum(self_s.get(name, 0.0) for name in names) / n * 1e3, "ms"

    def per_stmt(value, unit="count"):
        return value / n, unit

    def fsum_metric(attr):
        return math.fsum(getattr(r.metrics.time, attr) for r in results) / n * 1e3, "ms"

    hits = sum(r.metrics.cache_hits for r in results)
    lookups = hits + sum(r.metrics.cache_misses for r in results)
    ratios = [
        tracer.estimates[s] / tracer.measured[s]
        for s in tracer.measured
        if s in tracer.estimates and tracer.measured[s] > 0
    ]
    tuples = sum(op.tuples_out for r in queries for op in r.metrics.operators)
    rows = sum(r.metrics.result_rows for r in queries)
    changed = sum(r.changed for r in dmls)
    tickets = [t for t in traced.tickets if t.error is None]
    serve_call = self_s.get("serve.call", 0.0)

    metrics = {
        "sql.parse_ms": ms("sql.parse"),
        "sql.bind_ms": ms("sql.bind"),
        "optimizer.optimize_ms": ms("optimizer.optimize"),
        "optimizer.plans_costed": per_stmt(counts.get("optimizer.plans_costed", 0)),
        "optimizer.est_over_meas": (geomean(ratios), "ratio"),
        "optimizer.misestimate_factor": (
            geomean([max(r, 1 / r) for r in ratios]), "ratio"
        ),
        "engine.execute_ms": ms("engine.execute"),
        "engine.tuples_per_row": (tuples / rows if rows else 0.0, "ratio"),
        "engine.batches_per_stmt": per_stmt(
            sum(op.batches_out for r in queries for op in r.metrics.operators)
        ),
    }
    op_seconds: dict[str, float] = defaultdict(float)
    class_of = operator_classes()
    for r in queries:
        for op in r.metrics.operators:
            op_seconds[class_of.get(op.name)] += op.self_wall_seconds
    for cls_name in OPERATORS:
        metrics[f"engine.op.{cls_name}.self_ms"] = (
            op_seconds[cls_name] / n * 1e3, "ms"
        )
    metrics.update({
        "dml.execute_ms": ms("dml.execute"),
        "dml.rebuild_ms": ms("dml.rebuild"),
        "index.skt_build_ms": ms("index.skt_build"),
        "index.climbing_build_ms": ms("index.climbing_build"),
        "catalog.stats_ms": ms("catalog.stats"),
        "dml.structures_rebuilt": (
            counts.get("dml.structures", 0) / len(dmls) if dmls else 0.0, "count"
        ),
        "dml.flash_writes_per_row_changed": (
            sum(r.metrics.flash_page_writes for r in dmls) / changed if changed else 0.0,
            "ratio",
        ),
        "hw.flash_reads_per_stmt": per_stmt(sum(r.metrics.flash_page_reads for r in results)),
        "hw.flash_writes_per_stmt": per_stmt(sum(r.metrics.flash_page_writes for r in results)),
        "hw.erases_per_stmt": per_stmt(sum(r.metrics.flash_block_erases for r in results)),
        "hw.gc_runs": (traced.gc_runs, "count"),
        "hw.cache_hit_rate": (hits / lookups if lookups else 0.0, "ratio"),
        "hw.ram_high_water_bytes": (
            max((r.metrics.ram_high_water for r in results), default=0), "B"
        ),
        "hw.sim_cpu_ms": fsum_metric("cpu"),
        "hw.sim_flash_read_ms": fsum_metric("flash_read"),
        "hw.sim_flash_write_ms": fsum_metric("flash_write"),
        "hw.sim_usb_ms": fsum_metric("usb"),
        "hw.ftl_read_ms": ms("hw.ftl_read"),
        "hw.pagecache_ms": ms("hw.pagecache"),
        "hw.chip_charges_per_stmt": per_stmt(counts.get("hw.chip_charges", 0)),
        "hw.clock_advances_per_stmt": per_stmt(counts.get("hw.clock_advances", 0)),
        "visible.site_ms": ms("visible.site"),
        "visible.link_ms": ms("visible.link"),
        "usb.transfer_ms": ms("usb.transfer"),
        "usb.messages_per_stmt": per_stmt(traced.usb_messages),
        "privacy.meter_ms": ms("privacy.meter"),
        "obs.metric_incs_per_stmt": per_stmt(counts.get("obs.metric_incs", 0)),
        "obs.flight_events_per_stmt": per_stmt(counts.get("obs.flight_events", 0)),
        "obs.spans_per_stmt": per_stmt(counts.get("obs.spans", 0)),
        "sched.wait_sim_ms": (
            math.fsum(t.latency_s - t.result.metrics.elapsed_seconds for t in tickets)
            / len(tickets) * 1e3 if tickets else 0.0,
            "ms",
        ),
        "sched.steps_per_ticket": (
            sum(t.steps for t in tickets) / len(tickets) if tickets else 0.0, "count"
        ),
        "sched.round_statements": (
            statistics.mean(tracer.round_sizes) if tracer.round_sizes else 0.0, "count"
        ),
        "sched.fairness": (jain_index(client_mean_latencies(traced.records)), "ratio"),
        "serve.queue_wait_ms": (
            statistics.mean(tracer.queue_waits) * 1e3 if tracer.queue_waits else 0.0, "ms"
        ),
        "serve.rtt_overhead_ms": (
            (math.fsum(r.latency_s for r in traced.records) - serve_call) / n * 1e3
            if serve_call else 0.0,
            "ms",
        ),
        "serve.reply_bytes_per_stmt": per_stmt(traced.reply_bytes, "B"),
        "trace.overhead_ms_per_stmt": (
            (traced.wall_s - untraced.wall_s) / n * 1e3, "ms"
        ),
        "trace.spans_written": (tracer.span_count(), "count"),
    })
    return metrics


#: Physical operators the workloads run, each with its own self-time
#: metric.  No workload runs the others (scans, unions, aggregates...).
OPERATORS = (
    "BloomProbeOp", "ClimbingSelectOp", "ConvertIdsOp", "IdsToTuplesOp",
    "MergeIntersectOp", "ProjectOp", "SktAccessOp", "VisibleSelectOp",
)


def operator_classes() -> dict[str, str]:
    """``OperatorStats.name`` -> physical operator class name."""
    from repro.engine.operators.base import Operator

    found: dict[str, str] = {}
    stack = list(Operator.__subclasses__())
    while stack:
        cls = stack.pop()
        found[cls.name] = cls.__name__
        stack.extend(cls.__subclasses__())
    return found


def idle_layers(workload) -> list[str]:
    """Per-layer metrics that read zero by design on ``workload``."""
    idle = []
    if not workload.served:
        idle.append("sched.* and serve.*: no scheduler or serve front end on "
                    "the console path (sched.fairness is one client's 1.0)")
    if not workload.writes_per_second:
        idle.append("dml.*, index.*, catalog.*: no DML, so no rebuilds, "
                    "on a read-only workload")
    return idle


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from layers import LayerTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    run = Run(args.workload, args.seed, args.seconds)
    started = perf_counter()
    untraced = run.run_pass()
    if not args.trace:
        run.top_up_setups()
        metrics, notes = end_to_end(run, untraced)
    else:
        tracer = LayerTracer()
        traced = run.run_pass(tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        tracer.write_spans(span_file)
        metrics = per_layer(run, untraced, traced, tracer)
        notes = [f"spans written to {os.path.relpath(span_file, ROOT)}"]
        run.check_same("untraced vs traced", untraced.fingerprint(),
                       traced.fingerprint())
        counts = tracer.counts()
        again_tracer = LayerTracer()
        again = run.run_pass(again_tracer)
        run.check_same("traced replay", traced.fingerprint(counts),
                       again.fingerprint(again_tracer.counts()))
        notes.extend(f"zero by design: {why}" for why in idle_layers(run.workload))
        notes.append(
            f"tracing overhead: traced {traced.wall_s:.3f} s - untraced "
            f"{untraced.wall_s:.3f} s = {traced.wall_s - untraced.wall_s:.3f} s"
        )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"({perf_counter() - started:.1f} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for error in run.errors:
        print(f"  ERROR: {error}")
    correct = not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
