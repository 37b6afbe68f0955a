"""``sweep-163k``: sampled-source distance sweeps on ABCCC(8,4,2).

What ``repro sweep abccc -p n=8 -p k=4 -p s=2 --sample 128`` runs per
op: 128 sampled sources (a fresh seed per op) through
``sweep_graph_distance_stats`` with the default kernel choice and one
worker.  Checks: ``pairs == sources * (servers - 1)``, the histogram
accounts for every pair and the mean, the sampled diameter is at least
20, and the same seed gives identical stats (op 0 runs twice).
"""

from typing import Any, Dict

from repro.core import AbcccSpec
from repro.metrics.engine import resolve_kernel, sweep_graph_distance_stats
from repro.topology.fastbuild import fast_compiled

from common import digest, median

SPEC = (8, 4, 2)
SOURCES = 128
MIN_DIAMETER = 20
#: one op on a 2-vCPU container; sizes the op count.
NOMINAL_OP_S = 0.6


def build():
    return fast_compiled(AbcccSpec(*SPEC))


def op(graph, op_seed: int, rec):
    with rec.span("op", seed=op_seed):
        with rec.span("sweep", sources=SOURCES):
            return sweep_graph_distance_stats(
                graph, sample_sources=SOURCES, seed=op_seed, workers=1
            )


def check_op(graph, stats, out) -> Dict[str, Any]:
    pairs = SOURCES * (graph.num_servers - 1)
    out.check(stats.pairs == pairs, f"sweep pairs {stats.pairs} != {pairs}")
    out.check(
        sum(stats.histogram.values()) == stats.pairs,
        "sweep histogram does not account for every pair",
    )
    total = sum(hops * count for hops, count in stats.histogram.items())
    out.check(
        abs(total / stats.pairs - stats.mean) <= 1e-12 * stats.mean,
        "sweep mean disagrees with its histogram",
    )
    out.check(
        stats.diameter >= MIN_DIAMETER,
        f"sampled diameter {stats.diameter} < {MIN_DIAMETER}",
    )
    return {
        "sources": SOURCES,
        "pairs": stats.pairs,
        "diameter": stats.diameter,
        "hop_sum": total,
        "histogram_digest": digest(sorted(stats.histogram.items())),
    }


def layer_metrics(graph, rec, totals) -> Dict[str, tuple]:
    rows = rec.layer_ms("op", ("sweep",))
    return {
        "sweep.ms": (median(row["sweep"] for row in rows), "ms"),
        "sweep.sources": (totals["sources"], "count"),
        "sweep.kernel_bitpack": (int(resolve_kernel(None, graph) == "bitpack"), "bool"),
        "trace.uncovered_pct": (
            median(100.0 * row["uncovered"] / row["op"] for row in rows),
            "%",
        ),
    }
