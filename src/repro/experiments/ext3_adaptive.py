"""E3 (ablation) — adaptive source routing over the parallel paths.

BCube's source routing picks the least-congested of a flow's parallel
paths; ABCCC's rotation family supports the same policy.  This ablation
compares three placement policies on identical workloads:

* ``fixed``    — every flow takes its locality route (oblivious);
* ``hashed``   — flow-hash pick among the rotation paths (oblivious,
  ECMP-style spreading);
* ``adaptive`` — greedy online least-congested selection.

Reported: max link load, aggregate bottleneck throughput, max-min
fairness, and the fluid shuffle completion time — the end-to-end number
an application owner feels.
"""

from __future__ import annotations

from typing import List

from repro.core import AbcccSpec
from repro.core.source_routing import PLACEMENT_POLICIES
from repro.experiments.harness import register
from repro.metrics.bottleneck import aggregate_bottleneck_throughput, load_stats
from repro.sim.results import ResultTable
from repro.sim.jobs import shuffle_job
from repro.topology.compiled import compile_graph
from repro.traffic.engine import fluid_fct, max_min_rates
from repro.traffic.matrix import generate_matrix
from repro.traffic.routes import RouteSet


@register(
    "E3",
    "Adaptive vs oblivious source routing on the parallel-path family",
    "adaptive placement lowers the max link load and shortens shuffle "
    "completion vs the oblivious policies; under permutation traffic VLB "
    "pays about 2x adaptive's max link load (its worst-case insurance "
    "premium) and ranks last, while under the shuffles hashed ranks last; "
    "all policies produce valid routes.",
)
def run(quick: bool = False) -> List[ResultTable]:
    table = ResultTable(
        "E3: placement policy vs congestion and completion time",
        [
            "instance",
            "workload",
            "policy",
            "flows",
            "max_link_load",
            "abt_per_server",
            "min_rate",
            "shuffle_time",
        ],
    )
    cases = [AbcccSpec(3, 2, 2)] if quick else [AbcccSpec(4, 2, 2), AbcccSpec(4, 3, 2)]
    for spec in cases:
        net = spec.build()
        graph = compile_graph(net)
        params = spec.abccc
        permutation = generate_matrix("permutation", net.num_servers, seed=31)
        mappers, reducers = min(12, net.num_servers // 4), min(8, net.num_servers // 4)
        shuffle = shuffle_job("shfl", 0.0, net.servers, mappers, reducers, seed=31)
        workloads = [
            ("permutation", permutation.flows(net.servers)),
            ("shuffle", shuffle.flows),
        ]
        for workload_name, flows in workloads:
            for policy_name, place in PLACEMENT_POLICIES.items():
                routes = place(params, net, flows)
                for route in routes.values():
                    route.validate(net)
                stats = load_stats(net, routes.values())
                route_set = RouteSet.from_name_routes(graph, flows, routes)
                allocation = max_min_rates(route_set)
                # The fluid FCT run re-solves rates at every completion —
                # bound it to the workloads where it is affordable.
                fct = (
                    fluid_fct(route_set, [f.size for f in flows])
                    if len(flows) <= 512
                    else None
                )
                table.add_row(
                    instance=spec.label,
                    workload=workload_name,
                    policy=policy_name,
                    flows=len(flows),
                    max_link_load=stats.max_load,
                    abt_per_server=aggregate_bottleneck_throughput(
                        net, routes.values()
                    )
                    / net.num_servers,
                    min_rate=allocation.min_rate,
                    shuffle_time=fct.max_fct if fct is not None else None,
                )
    table.add_note(
        "shuffle_time = fluid makespan (all flows size 1.0, simultaneous "
        "start, rates re-solved at each completion)."
    )
    return [table]
