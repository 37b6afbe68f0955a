"""Micro-benchmarks: the vectorized traffic engine.

Two uses:

* under pytest-benchmark (``pytest benchmarks/bench_micro_traffic.py``)
  the individual timers guard matrix generation, batch route extraction
  and the max-min filler against regressions;
* as a script (``python benchmarks/bench_micro_traffic.py [--quick]``)
  it measures, per instance, the full permutation pipeline (workload ->
  routes -> max-min rates) phase by phase on a fast-built graph: at
  81, 1,024 and 5,184 servers, and (without ``--quick``) at the
  163k-server permutation and incast that the ``traffic-smoke`` CI job
  budgets.

  Results land in ``results/BENCH_traffic.json`` and one row per case
  is upserted into ``results/runtimes.csv``.
"""

import argparse
import json
import os
import sys
import time

try:
    import repro  # noqa: F401  (script runs need src/ on the path)
except ImportError:  # pragma: no cover - direct ``python benchmarks/...`` runs
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.core import AbcccSpec
from repro.obs import peak_rss_mb
from repro.routing.batch import batch_routes
from repro.topology.fastbuild import fast_compiled
from repro.traffic import generate_matrix, max_min_rates

RESULTS_PATH = os.path.join("results", "BENCH_traffic.json")

#: small and mid instances (quick keeps those under 2,000 servers).
PARITY = [
    AbcccSpec(3, 2, 2),  # 81 servers
    AbcccSpec(4, 3, 2),  # 1,024 servers
    AbcccSpec(6, 3, 2),  # 5,184 servers
]

#: scale instances (skipped under --quick).
SCALE = [
    AbcccSpec(8, 4, 2),  # 163,840 servers — CI traffic-smoke size
]


def test_bench_matrix_permutation_160k(benchmark):
    matrix = benchmark(generate_matrix, "permutation", 163_840, seed=7)
    assert matrix.num_flows == 163_840


def test_bench_routes_permutation_1k(benchmark):
    graph = fast_compiled(AbcccSpec(4, 3, 2))
    matrix = generate_matrix("permutation", graph.num_servers, seed=7)
    routes = benchmark(batch_routes, graph, matrix)
    assert routes.num_unreachable == 0


def test_bench_allocate_permutation_1k(benchmark):
    graph = fast_compiled(AbcccSpec(4, 3, 2))
    matrix = generate_matrix("permutation", graph.num_servers, seed=7)
    routes = batch_routes(graph, matrix)
    allocation = benchmark(max_min_rates, routes)
    assert allocation.min_rate > 0


def _time(fn) -> tuple:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _engine_permutation(graph, seed: int) -> dict:
    """Matrix -> routes -> rates on the compiled graph, phase-timed."""
    matrix_s, matrix = _time(
        lambda: generate_matrix("permutation", graph.num_servers, seed=seed)
    )
    routes_s, routes = _time(lambda: batch_routes(graph, matrix))
    allocate_s, allocation = _time(lambda: max_min_rates(routes))
    assert allocation.min_rate > 0
    return {
        "matrix_s": round(matrix_s, 4),
        "routes_s": round(routes_s, 4),
        "allocate_s": round(allocate_s, 4),
        "engine_s": round(matrix_s + routes_s + allocate_s, 4),
    }


def run_traffic_bench(quick: bool = False, out_dir: str = "results") -> dict:
    """Measure the engine per instance, write JSON + runtimes."""
    from repro.experiments.harness import _append_runtime

    rows = []
    for spec in PARITY:
        if quick and spec.num_servers > 2000:
            continue
        graph = fast_compiled(spec)
        row = {
            "spec": spec.label,
            "servers": spec.num_servers,
            "flows": spec.num_servers,
            "pattern": "permutation",
        }
        row.update(_engine_permutation(graph, seed=7))
        rows.append(row)
    if not quick:
        for spec in SCALE:
            graph = fast_compiled(spec)
            row = {
                "spec": spec.label,
                "servers": spec.num_servers,
                "flows": spec.num_servers,
                "pattern": "permutation",
            }
            row.update(_engine_permutation(graph, seed=7))
            rows.append(row)
            # incast at the same scale: sparse matrix, sub-second solve
            incast_s, _ = _time(
                lambda graph=graph: max_min_rates(
                    batch_routes(
                        graph,
                        generate_matrix("incast", graph.num_servers, seed=7),
                    )
                )
            )
            row["incast_s"] = round(incast_s, 4)
    for row in rows:
        _append_runtime(
            out_dir,
            f"BENCH_traffic:{row['spec']}",
            quick,
            1,
            row["engine_s"],
            phases={
                "traffic.matrix": row["matrix_s"],
                "traffic.routes": row["routes_s"],
                "traffic.allocate": row["allocate_s"],
            },
            peak_rss_mb=peak_rss_mb(),
        )
    report = {
        "benchmark": "traffic",
        "quick": quick,
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
    args = parser.parse_args(argv)
    report = run_traffic_bench(quick=args.quick, out_dir=args.out)
    for row in report["rows"]:
        print(
            f"{row['spec']:<24} flows={row['flows']:<8} "
            f"engine={row['engine_s']}s "
            f"(matrix={row['matrix_s']} routes={row['routes_s']} "
            f"alloc={row['allocate_s']})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
