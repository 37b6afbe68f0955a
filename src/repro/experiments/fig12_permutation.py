"""F12 — permutation-generation comparison (ICC'15 companion).

The routing permutation choice does not change correctness but changes
(a) path length — extra intra-crossbar transfers — and (b) load balance —
which intermediate crossbars concurrent flows traverse.  Under permutation
traffic, compares the four strategies on mean route length, max link load,
load coefficient-of-variation and the resulting aggregate bottleneck
throughput.
"""

from __future__ import annotations

import statistics
from typing import List

from repro.core import AbcccSpec, ServerAddress
from repro.core.routing import abccc_route
from repro.experiments.harness import register
from repro.metrics.bottleneck import aggregate_bottleneck_throughput, load_stats
from repro.routing.ecmp import fnv1a
from repro.sim.results import ResultTable
from repro.traffic.matrix import generate_matrix

STRATEGIES = ("identity", "random", "locality", "balanced")


def _route_for(params, flow, strategy: str):
    src = ServerAddress.parse(flow.src)
    dst = ServerAddress.parse(flow.dst)
    if strategy == "balanced":
        return abccc_route(
            params, src, dst, strategy="balanced", rotation=fnv1a(flow.flow_id)
        )
    return abccc_route(params, src, dst, strategy=strategy, seed=fnv1a(flow.flow_id))


@register(
    "F12",
    "Permutation strategies: path length vs load balance",
    "locality has the shortest paths on every instance and the best ABT "
    "on ABCCC(4,3,2) (shorter routes consume less capacity), but ties "
    "balanced on ABCCC(4,2,2) and trails identity and balanced on "
    "ABCCC(4,3,3); balanced lowers the load *concentration* (CV) on "
    "every instance and random on two of three, at the cost of longer "
    "routes; identity and random never beat locality on both axes "
    "simultaneously.",
)
def run(quick: bool = False) -> List[ResultTable]:
    table = ResultTable(
        "F12: permutation strategies under permutation traffic",
        [
            "instance",
            "strategy",
            "flows",
            "mean_links",
            "max_link_load",
            "load_cv",
            "abt_per_server",
        ],
    )
    cases = [AbcccSpec(3, 2, 2)] if quick else [AbcccSpec(4, 3, 2), AbcccSpec(4, 2, 2), AbcccSpec(4, 3, 3)]
    repeats = 1 if quick else 3
    for spec in cases:
        net = spec.build()
        params = spec.abccc
        for strategy in STRATEGIES:
            lengths: List[int] = []
            max_loads: List[float] = []
            cvs: List[float] = []
            abts: List[float] = []
            for trial in range(repeats):
                flows = generate_matrix(
                    "permutation", net.num_servers, seed=50 + trial
                ).flows(net.servers)
                routes = {f.flow_id: _route_for(params, f, strategy) for f in flows}
                for route in routes.values():
                    lengths.append(route.link_hops)
                stats = load_stats(net, routes.values())
                max_loads.append(stats.max_load)
                cvs.append(stats.coefficient_of_variation)
                abts.append(
                    aggregate_bottleneck_throughput(net, routes.values())
                    / net.num_servers
                )
            table.add_row(
                instance=spec.label,
                strategy=strategy,
                flows=len(lengths) // repeats,
                mean_links=statistics.fmean(lengths),
                max_link_load=statistics.fmean(max_loads),
                load_cv=statistics.fmean(cvs),
                abt_per_server=statistics.fmean(abts),
            )
    return [table]
