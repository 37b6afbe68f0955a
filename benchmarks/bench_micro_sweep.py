"""Micro-benchmarks: graph hand-off and the bit-packed BFS sweep.

Two uses:

* under pytest-benchmark (``pytest benchmarks/bench_micro_sweep.py``)
  the individual timers guard the bit-packed kernel and the
  shared-memory hand-off against regressions;
* as a script (``python benchmarks/bench_micro_sweep.py [--quick]``) it
  measures, on a CI-scale fast-built ABCCC graph:

  - **hand-off**: serializing the graph once per worker through pickle
    (the old pool-initializer payload) vs one shared-memory export plus
    per-worker ``materialize()`` — the report's ``handoff_speedup`` is
    the pickle/shm ratio for ``--workers`` workers;
  - **sweep**: sampled-source sweep wall time of the bit-packed uint64
    kernel, reported as ``kernel_s.bitpack``.

  Results land in ``results/BENCH_sweep.json`` and one row per case is
  upserted into ``results/runtimes.csv``.
"""

import argparse
import json
import os
import pickle
import sys
import time

try:
    import repro  # noqa: F401  (script runs need src/ on the path)
except ImportError:  # pragma: no cover - direct ``python benchmarks/...`` runs
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.core import AbcccSpec
from repro.metrics.engine import sweep_graph_distance_stats
from repro.obs import peak_rss_mb
from repro.topology.compiled import CSRGraphView
from repro.topology.fastbuild import csr_nbytes, fast_compiled
from repro.topology.shm import export_graph

RESULTS_PATH = os.path.join("results", "BENCH_sweep.json")

#: hand-off + sweep instances (quick keeps the first).
SWEEP = [
    AbcccSpec(4, 3, 2),  # 1,024 servers
    AbcccSpec(8, 4, 2),  # 163,840 servers — CI scale-smoke size
]

KERNEL_SOURCES = 64


def _view(spec) -> CSRGraphView:
    return CSRGraphView.of(fast_compiled(spec))


def test_bench_bitpack_sweep_1k(benchmark):
    view = _view(AbcccSpec(4, 3, 2))
    stats = benchmark(
        sweep_graph_distance_stats, view, sample_sources=KERNEL_SOURCES
    )
    assert stats.pairs > 0


def test_bench_shm_export_160k(benchmark):
    view = _view(AbcccSpec(8, 4, 2))

    def export_and_release():
        handle = export_graph(view)
        try:
            return len(pickle.dumps(handle))
        finally:
            handle.release()

    assert benchmark(export_and_release) < 2_000


def _time(fn) -> tuple:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _measure_handoff(graph, view, workers: int, repeats: int = 3) -> dict:
    """Old initializer payload vs shm handle, for ``workers`` workers.

    The old path serialized the *full* graph (edge arrays and all) once
    per worker — each pool initializer call unpickled its own copy; the
    new path exports the kernel view's arrays once and each worker
    attaches zero-copy, so only the tiny handle pickle and the
    ``materialize()`` call repeat.  Best of ``repeats`` per side.
    """
    def pickle_per_worker():
        for _ in range(workers):
            pickle.loads(pickle.dumps(graph))

    def shm_once():
        handle = export_graph(view)
        try:
            blob = pickle.dumps(handle)
            for _ in range(workers):
                pickle.loads(blob).materialize()
        finally:
            handle.release()

    pickle_s = min(_time(pickle_per_worker)[0] for _ in range(repeats))
    shm_s = min(_time(shm_once)[0] for _ in range(repeats))
    return {
        "workers": workers,
        "pickle_s": round(pickle_s, 4),
        "shm_s": round(shm_s, 4),
        "handoff_speedup": round(pickle_s / shm_s, 1) if shm_s else None,
    }


def run_sweep(quick: bool = False, out_dir: str = "results", workers: int = 8) -> dict:
    """Measure hand-off + sweep, write JSON, upsert runtimes.csv."""
    from repro.experiments.harness import _append_runtime

    rows = []
    for spec in SWEEP:
        if quick and spec.num_servers > 10_000:
            continue
        graph = fast_compiled(spec)
        view = CSRGraphView.of(graph)
        row = {
            "spec": spec.label,
            "servers": spec.num_servers,
            "nodes": view.num_nodes,
            "csr_mb": round(csr_nbytes(view) / 1e6, 2),
            "sources": KERNEL_SOURCES,
        }
        row.update(_measure_handoff(graph, view, workers))
        seconds, stats = _time(
            lambda: sweep_graph_distance_stats(view, sample_sources=KERNEL_SOURCES)
        )
        assert stats.pairs > 0
        sweep_s = round(seconds, 4)
        row["kernel_s"] = {"bitpack": sweep_s}
        rows.append(row)
        _append_runtime(
            out_dir,
            f"BENCH_sweep:{spec.label}",
            quick,
            workers,
            sweep_s,
            phases={"engine.sweep": sweep_s, "engine.handoff": row["shm_s"]},
            peak_rss_mb=peak_rss_mb(),
        )
    report = {
        "benchmark": "sweep",
        "quick": quick,
        "workers": workers,
        "rows": rows,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, os.path.basename(RESULTS_PATH)), "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small instances only")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--workers", type=int, default=8, help="hand-off fan-out")
    args = parser.parse_args(argv)
    report = run_sweep(quick=args.quick, out_dir=args.out, workers=args.workers)
    for row in report["rows"]:
        print(
            f"{row['spec']:<24} servers={row['servers']:<8} "
            f"handoff: pickle={row['pickle_s']}s shm={row['shm_s']}s "
            f"({row['handoff_speedup']}x)  "
            f"sweep[{row['sources']} src]: {row['kernel_s']['bitpack']}s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
