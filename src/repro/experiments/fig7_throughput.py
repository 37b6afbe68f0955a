"""F7 — flow-level throughput under the evaluation's traffic patterns.

Runs identical workloads (random permutation, sampled all-to-all,
hot-rack skew) over every topology with its native routing and reports
the max-min fair allocation: per-server aggregate throughput, minimum
flow rate and Jain fairness — the "extensive simulations" core of the
paper.  Per-server normalisation makes instances of different sizes
comparable.

The workloads come from the :mod:`repro.traffic.matrix` generators:
because they are drawn over server *ordinals*, two topologies with the
same server count receive bit-identical flow sets, whatever their
server names.  The allocation runs through the vectorized
engine (:func:`repro.traffic.engine.max_min_rates`); the test suite
checks its rates against exact ``Fraction`` water-filling and the
max-min certificate on F7's own quick topologies.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.baselines import BcccSpec, BcubeSpec, FatTreeSpec, FiconnSpec
from repro.core import AbcccSpec
from repro.experiments.harness import register
from repro.metrics.bottleneck import aggregate_bottleneck_throughput, load_stats
from repro.routing.base import route_all
from repro.routing.ecmp import EcmpRouter
from repro.sim.results import ResultTable
from repro.topology.compiled import compile_graph
from repro.topology.spec import TopologySpec
from repro.traffic.engine import max_min_rates
from repro.traffic.matrix import TrafficMatrix, generate_matrix
from repro.traffic.routes import RouteSet


def _specs(quick: bool) -> List[TopologySpec]:
    if quick:
        return [AbcccSpec(3, 1, 2), BcubeSpec(3, 1), FatTreeSpec(4)]
    return [
        AbcccSpec(4, 2, 2),
        AbcccSpec(4, 2, 3),
        BcccSpec(4, 2),
        BcubeSpec(4, 2),
        FatTreeSpec(8),
        FiconnSpec(8, 1),
    ]


def _router_for(spec: TopologySpec, net) -> Callable:
    """Native router; fat-tree uses hash-ECMP (its deployed scheme)."""
    if spec.kind == "fattree":
        ecmp = EcmpRouter(net)
        return ecmp.route
    return spec.route


def _workloads(num_servers: int, quick: bool) -> List[Tuple[str, TrafficMatrix]]:
    a2a_cap = 300 if quick else 1500
    return [
        ("permutation", generate_matrix("permutation", num_servers, seed=11)),
        (
            "all_to_all",
            generate_matrix("all_to_all", num_servers, seed=11, max_flows=a2a_cap),
        ),
        (
            "hot_rack",
            generate_matrix(
                "hot_rack",
                num_servers,
                seed=11,
                num_flows=min(num_servers * 2, 400),
                hot_fraction=0.7,
            ),
        ),
    ]


@register(
    "F7",
    "Max-min fair throughput under permutation / all-to-all / hot-rack",
    "permutation per-server throughput ordering: fat-tree ~ bcube > "
    "abccc(s=3) > abccc(s=2) ~ bccc, tracking per-server bisection "
    "1/(2c); ficonn(8,1)'s aggregate beats both abccc instances in every "
    "pattern, but its all-to-all min rate and Jain collapse; hot-rack "
    "skew lowers every topology's Jain fairness below its permutation "
    "value.",
)
def run(quick: bool = False) -> List[ResultTable]:
    table = ResultTable(
        "F7: max-min fair allocation by topology and pattern",
        [
            "topology",
            "pattern",
            "servers",
            "flows",
            "agg_per_server",
            "min_rate",
            "mean_rate",
            "jain",
            "abt_per_server",
            "max_link_load",
        ],
    )
    for spec in _specs(quick):
        net = spec.build()
        graph = compile_graph(net)
        router = _router_for(spec, net)
        servers = net.servers
        for pattern, matrix in _workloads(len(servers), quick):
            flows = matrix.flows(servers)
            routes = route_all(net, flows, router)
            route_set = RouteSet.from_name_routes(graph, flows, routes)
            allocation = max_min_rates(route_set)
            stats = load_stats(net, routes.values())
            abt = aggregate_bottleneck_throughput(net, routes.values())
            table.add_row(
                topology=spec.label,
                pattern=pattern,
                servers=net.num_servers,
                flows=len(flows),
                agg_per_server=allocation.aggregate_throughput / net.num_servers,
                min_rate=allocation.min_rate,
                mean_rate=allocation.mean_rate,
                jain=allocation.jain_fairness,
                abt_per_server=abt / net.num_servers,
                max_link_load=stats.max_load,
            )
    table.add_note(
        "agg_per_server in link-capacity units; topologies with equal "
        "server counts see bit-identical ordinal workloads "
        "(repro.traffic matrices), allocated by the vectorized engine."
    )
    return [table]
