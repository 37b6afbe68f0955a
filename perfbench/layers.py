"""Per-layer metrics of a traced run, and the trace file they come from.

Every workload prints every metric below.  A layer a workload does not
call reports 0: that is the measured work, not a missing value (the
allocator scaling record is measured on ``perm-38k`` only).  Counts are
totals over the run's timed ops; times are medians per op.
"""

import os

from common import nearest_rank

#: (name, unit, better) — the ``per_layer`` list of BENCHMARK.json.
PER_LAYER = (
    ("build.fastbuild_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("error_rate", "ratio", "lower"),
    ("checks.run", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.uncovered_pct", "%", "lower"),
    ("matrix.ms", "ms", "lower"),
    ("faults.plan_ms", "ms", "lower"),
    ("faults.mask_ms", "ms", "lower"),
    ("faults.dead_nodes", "count", "lower"),
    ("faults.dead_links", "count", "lower"),
    ("routes.ms", "ms", "lower"),
    ("routes.rerouted_flows", "count", "lower"),
    ("routes.bfs_calls", "count", "lower"),
    ("routes.unreachable_flows", "count", "lower"),
    ("allocate.ms", "ms", "lower"),
    ("allocate.rounds", "count", "lower"),
    ("allocate.us_per_round", "us", "lower"),
    ("allocate.loaded_edges", "count", "lower"),
    ("allocate.scale.1024.ms", "ms", "lower"),
    ("allocate.scale.1024.rounds", "count", "lower"),
    ("allocate.scale.5184.ms", "ms", "lower"),
    ("allocate.scale.5184.rounds", "count", "lower"),
    ("allocate.scale.15625.ms", "ms", "lower"),
    ("allocate.scale.15625.rounds", "count", "lower"),
    ("allocate.scale.38880.ms", "ms", "lower"),
    ("allocate.scale.38880.rounds", "count", "lower"),
    ("allocate.scale.slope_ms", "exponent", "lower"),
    ("allocate.scale.slope_rounds", "exponent", "lower"),
    ("fct.ms", "ms", "lower"),
    ("fct.solves", "count", "lower"),
    ("fct.ms_per_solve", "ms", "lower"),
    ("fct.truncated", "count", "lower"),
    ("sweep.ms", "ms", "lower"),
    ("sweep.sources", "count", "higher"),
    ("sweep.kernel_bitpack", "bool", "higher"),
    ("serve.route.p50_ms", "ms", "lower"),
    ("serve.distance.p50_ms", "ms", "lower"),
    ("serve.whatif.p50_ms", "ms", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.server_total.p50_ms", "ms", "lower"),
    ("serve.queue_wait.p50_ms", "ms", "lower"),
    ("serve.execute.p50_ms", "ms", "lower"),
    ("serve.transport.p50_ms", "ms", "lower"),
    ("serve.scenario_cache.hits", "count", "higher"),
    ("serve.scenario_cache.misses", "count", "lower"),
    ("serve.scenario_cache.hit_ratio", "ratio", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.worker_restarts", "count", "lower"),
)


def finish_trace(name, args, rec, out, out_dir):
    """Write and validate the trace; returns every per-layer metric."""
    from repro.obs.report import load_trace, report_files, validate_trace

    layers = dict(out.layers)
    layers.setdefault("op_p90_ms", (nearest_rank(out.op_ms, 0.9), "ms"))
    layers["error_rate"] = (out.failed / out.attempted if out.attempted else 0.0, "ratio")
    layers["checks.run"] = (out.checks, "count")
    metrics = {}
    for metric, unit, _ in PER_LAYER:
        value, measured_unit = layers.get(metric, (0, unit))
        assert measured_unit == unit, (metric, measured_unit, unit)
        metrics[metric] = (value, unit)

    path = os.path.join(out_dir, f"{name}.seed{args.seed}.trace.jsonl")
    run_tags = {"benchmark": "perfbench", "workload": name, "seed": args.seed}
    rec.write(path, run_tags, dict(out.counters))
    problems = validate_trace(load_trace(path))
    out.check(not problems, f"trace {path} fails the repro.obs schema: {problems[:3]}")
    with open(path.replace(".jsonl", ".report.txt"), "w", encoding="utf-8") as handle:
        handle.write(report_files([path]) + "\n")
    return metrics
