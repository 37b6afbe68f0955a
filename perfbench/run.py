"""The repository benchmark: one workload per run, checked, one JSON line out.

Run from the repository root:

    python3 perfbench/run.py --workload perm-38k --seed 1 --seconds 12 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

* ``perm-38k``    permutation on ABCCC(6,4,2): matrix -> routes -> max-min rates
* ``degraded-5k`` permutation on ABCCC(6,3,2) with fresh switch/link failures
* ``fct-1k``      fluid flow-completion times on ABCCC(4,3,2)
* ``sweep-163k``  128-source distance sweeps on ABCCC(8,4,2)
* ``serve-mix``   a ``repro serve`` daemon under two closed-loop connections

Every run does a fixed, seed-determined sequence of ops (the count is
derived from ``--seconds`` and a nominal op cost, never from the clock),
single-threaded, so two runs with the same arguments do identical work.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics and writes a ``repro.obs`` trace under ``.bench_out/``.
The last stdout line is the result JSON.
"""

import argparse
import gc
import json
import math
import os
import sys
import time

# Single-threaded BLAS before numpy is imported: a thread pool on a
# small machine measures the scheduler, not the program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_WORKERS", "REPRO_SWEEP_KERNEL", "REPRO_TRACE", "REPRO_PROFILE"):
    os.environ.pop(_var, None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("perm-38k", "degraded-5k", "fct-1k", "sweep-163k", "serve-mix")

#: builds timed per run; setup_s is their median.
BUILDS = 21


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_builds(build):
    """Build the graph BUILDS times; returns (graph, seconds per build)."""
    times = []
    graph = None
    for _ in range(BUILDS):
        graph = None  # free the previous build before timing the next
        gc.collect()
        started = time.perf_counter()
        graph = build()
        times.append(time.perf_counter() - started)
    return graph, times


def op_count(seconds: float, nominal_op_s: float, minimum: int) -> int:
    """Ops per run: sized from --seconds, fixed for given arguments."""
    return max(minimum, math.ceil(seconds / nominal_op_s))


def closed_loop(out, n_ops, seed_of, do_op, check, traced, rec, warm_up):
    """``warm_up()`` untimed, then ops 0..n-1 timed, checks after each.

    ``warm_up`` may return the exact counts of op 0, which the timed op
    0 must then repeat.  With tracing, every op also runs once more
    under the span recorder (alternating which pass goes first), so the
    overhead and the layer split come from the same inputs and the two
    passes must count identically.  Returns (exact counts per timed op,
    traced op ms).
    """
    from common import NULL_RECORDER

    warm_counts = warm_up()
    counts, traced_ms = [], []
    for i in range(n_ops):
        passes = [NULL_RECORDER, rec] if traced else [NULL_RECORDER]
        if i % 2:
            passes.reverse()
        for recorder in passes:
            gc.collect()
            started = time.perf_counter()
            try:
                result = do_op(seed_of(i), recorder)
            except Exception as error:  # noqa: BLE001 - a failed op is a result
                result, problem = None, f"op {i}: {type(error).__name__}: {error}"
            elapsed = time.perf_counter() - started
            before = len(out.problems)
            if result is None:
                out.problems.append(problem)
                op_counts = None
            else:
                op_counts = check(result, out)
            if recorder is NULL_RECORDER:
                out.attempted += 1
                out.op_ms.append(1000.0 * elapsed)
                out.busy_s += elapsed
                if len(out.problems) > before:
                    out.failed += 1
                counts.append(op_counts)
            else:
                traced_ms.append(1000.0 * elapsed)
                traced_counts = op_counts
        if traced and traced_counts != counts[-1]:
            out.problems.append(f"op {i}: traced and untraced passes counted differently")
    if warm_counts is not None and counts and counts[0] != warm_counts:
        out.problems.append(f"op 0 repeated with the same seed counted differently: "
                            f"{warm_counts} vs {counts[0]}")
    return [c for c in counts if c is not None], traced_ms


def tally(out, counts, traced_ms, unit_key, traced) -> None:
    """Fold a closed loop's counts into ``out``; traced: the shared layers."""
    from common import median

    out.units = sum(c[unit_key] for c in counts)
    for c in counts:
        for key, value in c.items():
            out.count(key, value)
    if traced:
        out.layers["build.fastbuild_ms"] = (1000.0 * median(out.setup_s), "ms")
        out.layers["trace.overhead_pct"] = (
            100.0 * (median(traced_ms) / median(out.op_ms) - 1.0), "%"
        )


def run_traffic(name, args, rec, out):
    import traffic
    from common import derive_seed

    cfg = traffic.WORKLOADS[name]
    graph, out.setup_s = timed_builds(lambda: traffic.build(cfg))
    counts, traced_ms = closed_loop(
        out,
        op_count(args.seconds, cfg.nominal_op_s, 3),
        lambda i: derive_seed(args.seed, name, i),
        lambda s, r: traffic.op(graph, cfg, s, r),
        lambda result, o: traffic.check_op(graph, cfg, result, o),
        args.trace == 1,
        rec,
        lambda: traffic.warm_up(cfg),
    )
    tally(out, counts, traced_ms, "flows", args.trace == 1)
    if args.trace:
        out.layers.update(traffic.layer_metrics(rec, out.counters))
        if name == "perm-38k":
            rows = rec.layer_ms("op", traffic.LAYERS)
            points = [(row["allocate"], c["rounds"]) for row, c in zip(rows, counts)]
            out.layers.update(
                traffic.scaling_record(lambda i: derive_seed(args.seed, "scaling", i), points, rec)
            )


def run_sweep(args, rec, out):
    import sweep
    from common import NULL_RECORDER, Outcome, derive_seed

    graph, out.setup_s = timed_builds(sweep.build)
    seed_of = lambda i: derive_seed(args.seed, "sweep-163k", i)  # noqa: E731
    # op 0 runs twice: the same seed must give identical stats.
    counts, traced_ms = closed_loop(
        out,
        op_count(args.seconds, sweep.NOMINAL_OP_S, 5),
        seed_of,
        lambda s, r: sweep.op(graph, s, r),
        lambda stats, o: sweep.check_op(graph, stats, o),
        args.trace == 1,
        rec,
        lambda: sweep.check_op(graph, sweep.op(graph, seed_of(0), NULL_RECORDER), Outcome()),
    )
    tally(out, counts, traced_ms, "sources", args.trace == 1)
    if args.trace:
        out.layers.update(sweep.layer_metrics(graph, rec, out.counters))


def run_serve(args, rec, out):
    import serve

    serve.run(ROOT, OUT_DIR, args.seed, args.seconds, args.trace == 1, rec, out)


def check_repeat(name, args, counters, out) -> None:
    """Exact counts must repeat across runs with the same arguments."""
    directory = os.path.join(OUT_DIR, "counters")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.seed{args.seed}.s{args.seconds:g}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
        if previous != counters:
            diff = sorted(k for k in set(previous) | set(counters)
                          if previous.get(k) != counters.get(k))
            out.problems.append(f"exact counts differ from an earlier run with the "
                                f"same seed: {diff}")
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(counters, handle, sort_keys=True)
    os.replace(tmp, path)


def end_to_end(out):
    from common import median, peak_rss_mb

    ok = out.attempted - out.failed
    return {
        "setup_s": (median(out.setup_s), "s"),
        "op_p50_ms": (median(out.op_ms), "ms"),
        "throughput_per_s": (out.units / out.busy_s if out.busy_s else 0.0, "1/s"),
        "peak_rss_mb": (out.peak_rss_mb or peak_rss_mb(), "MB"),
        "success_rate": (ok / out.attempted if out.attempted else 0.0, "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    from common import NULL_RECORDER, Outcome, SpanRecorder

    out = Outcome()
    rec = SpanRecorder() if args.trace else NULL_RECORDER
    name = args.workload
    if name == "serve-mix":
        run_serve(args, rec, out)
    elif name == "sweep-163k":
        run_sweep(args, rec, out)
    else:
        run_traffic(name, args, rec, out)
    check_repeat(name, args, dict(out.counters), out)

    if args.trace:
        from layers import finish_trace

        metrics = finish_trace(name, args, rec, out, OUT_DIR)
    else:
        metrics = end_to_end(out)
    for problem in out.problems:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
