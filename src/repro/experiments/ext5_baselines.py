"""E5 (extension) — the wider baseline field: torus, tree, Jellyfish.

T1/T2 compare against the baselines the paper names; this extension adds
the other designs every DCN survey of the era includes — the switchless
3D torus (CamCube), the conventional oversubscribed tree, and Jellyfish
(the random-graph answer to the same expandability question ABCCC
attacks) — and runs the same structural/throughput comparison so ABCCC's
position is visible in the full field.
"""

from __future__ import annotations

from typing import List

from repro.baselines import JellyfishSpec, Torus3dSpec, TreeSpec
from repro.core import AbcccSpec
from repro.experiments.harness import register

from repro.metrics.cost import capex
from repro.routing.base import route_all
from repro.sim.results import ResultTable
from repro.topology.compiled import compile_graph
from repro.traffic.engine import max_min_rates
from repro.traffic.matrix import generate_matrix
from repro.traffic.routes import RouteSet


def _specs(quick: bool):
    if quick:
        return [AbcccSpec(3, 1, 2), Torus3dSpec(3, 3, 2), TreeSpec(8, 3, oversub=3)]
    return [
        AbcccSpec(4, 2, 2),
        AbcccSpec(4, 2, 3),
        Torus3dSpec(6, 6, 5),
        TreeSpec(16, 15, oversub=3),
        JellyfishSpec(switches=30, ports=10, servers_per_switch=6, seed=1),
    ]


@register(
    "E5",
    "Extended baseline field: torus (CamCube), oversubscribed tree, Jellyfish",
    "torus: zero switch cost but 6 NICs/server and cube-root diameter "
    "growth; tree: cheapest switching but bisection collapses with "
    "oversubscription; Jellyfish: throughput between the tree's and "
    "ABCCC's at low cost but no structure (measured-only properties, "
    "table routing); ABCCC sits "
    "between on every axis — throughput per server: abccc > tree, "
    "diameter: abccc < torus at comparable sizes.",
)
def run(quick: bool = False) -> List[ResultTable]:
    structural = ResultTable(
        "E5a: structural/cost comparison incl. torus and tree",
        [
            "topology",
            "servers",
            "srv_ports",
            "switches",
            "diam_link_hops",
            "bisection_links",
            "capex_per_server",
        ],
    )
    throughput = ResultTable(
        "E5b: permutation-traffic throughput incl. torus and tree",
        ["topology", "servers", "agg_per_server", "min_rate", "jain"],
    )
    for spec in _specs(quick):
        structural.add_row(
            topology=spec.label,
            servers=spec.num_servers,
            srv_ports=spec.server_ports,
            switches=spec.num_switches,
            diam_link_hops=spec.diameter_link_hops,
            bisection_links=spec.bisection_links,
            capex_per_server=capex(spec).per_server,
        )
        net = spec.build()
        flows = generate_matrix("permutation", net.num_servers, seed=61).flows(
            net.servers
        )
        routes = route_all(net, flows, spec.route)
        allocation = max_min_rates(
            RouteSet.from_name_routes(compile_graph(net), flows, routes)
        )
        throughput.add_row(
            topology=spec.label,
            servers=net.num_servers,
            agg_per_server=allocation.aggregate_throughput / net.num_servers,
            min_rate=allocation.min_rate,
            jain=allocation.jain_fairness,
        )
    structural.add_note(
        "torus diameter is sum(dims)/2 direct hops; tree bisection is "
        "capped by ToR uplinks (racks * uplinks / 2)."
    )
    return [structural, throughput]
