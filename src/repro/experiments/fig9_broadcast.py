"""F9 — one-to-all and one-to-many communication (GBC3 extension).

Builds the dimensional-sweep broadcast tree on ABCCC instances and
reports depth (latency proxy), unicast link stress and message count,
then compares against the naive alternative (independent one-to-one
routes to every destination).  Multicast subsets exercise the pruned
tree.
"""

from __future__ import annotations

import random
from typing import List

from repro.core import (
    AbcccSpec,
    ServerAddress,
    broadcast_tree,
    multicast_tree,
)
from repro.experiments.harness import register
from repro.metrics.bottleneck import load_stats
from repro.routing.base import route_all
from repro.sim.results import ResultTable
from repro.sim.traffic import one_to_all_traffic


def _broadcast_table(quick: bool) -> ResultTable:
    table = ResultTable(
        "F9a: broadcast tree vs naive unicast one-to-all",
        [
            "instance",
            "servers",
            "tree_depth",
            "diameter_bound",
            "one_port_rounds",
            "tree_stress",
            "tree_messages",
            "unicast_max_link_load",
            "stress_reduction",
        ],
    )
    cases = (
        [AbcccSpec(2, 1, 2)]
        if quick
        else [
            AbcccSpec(3, 1, 2),
            AbcccSpec(3, 2, 2),
            AbcccSpec(3, 2, 3),
            AbcccSpec(3, 2, 4),  # c = 1: the BCube-degenerate endpoint
            AbcccSpec(4, 2, 2),
        ]
    )
    for spec in cases:
        net = spec.build()
        source = ServerAddress.parse(net.servers[0])
        tree = broadcast_tree(spec.abccc, source)
        tree.validate(net)
        assert set(tree.servers) == set(net.servers)
        # Naive alternative: a unicast flow to every destination.
        flows = one_to_all_traffic(net.servers, source=source.name)
        routes = route_all(net, flows, spec.route)
        unicast = load_stats(net, routes.values())
        stress = tree.link_stress()
        table.add_row(
            instance=spec.label,
            servers=net.num_servers,
            tree_depth=tree.max_depth,
            diameter_bound=spec.diameter_server_hops,
            one_port_rounds=tree.one_port_rounds(),
            tree_stress=stress,
            tree_messages=len(tree.servers) - 1,
            unicast_max_link_load=unicast.max_load,
            stress_reduction=unicast.max_load / stress if stress else None,
        )
    table.add_note(
        "tree stress = max(c-1, n-1) by construction (fan-out at the "
        "first shared link); naive unicast concentrates the source's "
        "links with load ~ N-1."
    )
    return table


def _multicast_table(quick: bool) -> ResultTable:
    table = ResultTable(
        "F9b: one-to-many (pruned tree) vs group size",
        ["instance", "group_size", "tree_depth", "tree_messages", "covered"],
    )
    spec = AbcccSpec(2, 1, 2) if quick else AbcccSpec(4, 2, 2)
    net = spec.build()
    source = ServerAddress.parse(net.servers[0])
    rng = random.Random(9)
    sizes = (2,) if quick else (2, 8, 32, 64)
    for size in sizes:
        group = [
            ServerAddress.parse(name)
            for name in rng.sample(net.servers[1:], min(size, net.num_servers - 1))
        ]
        tree = multicast_tree(spec.abccc, source, group)
        tree.validate(net)
        covered = all(member.name in tree.parent for member in group)
        table.add_row(
            instance=spec.label,
            group_size=len(group),
            tree_depth=tree.max_depth,
            tree_messages=len(tree.servers) - 1,
            covered=covered,
        )
    table.add_note("messages grow sub-linearly in group size (shared prefix paths).")
    return table


@register(
    "F9",
    "One-to-all / one-to-many communication",
    "tree depth <= diameter; tree link stress is constant (max(c-1, n-1)) "
    "while naive unicast's hot link scales with N; multicast messages "
    "scale with group size, not network size.",
)
def run(quick: bool = False) -> List[ResultTable]:
    return [_broadcast_table(quick), _multicast_table(quick)]
