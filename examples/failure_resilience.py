#!/usr/bin/env python3
"""Failure drill: how an ABCCC fabric behaves as components die.

Simulates an escalating outage on ABCCC(4, 2, 2) — from a single switch
to 20% of all switches and servers — and reports, at each stage, what an
operator cares about: how many server pairs still talk, how often the
*local* fault-tolerant routing fixes things without global repair, and
what detour cost it pays.

Run:  python examples/failure_resilience.py
"""

import random
import statistics

from repro import AbcccSpec, fault_tolerant_route
from repro.faults import MaskedGraph, random_failures
from repro.routing.base import RoutingError
from repro.routing.shortest import bfs_distances

STAGES = [
    ("healthy", 0.00, 0.00),
    ("one rack switch down", 0.00, 0.01),
    ("bad firmware day", 0.02, 0.05),
    ("cooling failure in a row", 0.10, 0.10),
    ("severe outage", 0.20, 0.20),
]


def main() -> None:
    spec = AbcccSpec(4, 2, 2)
    net = spec.build()
    graph = spec.compiled()
    print(f"fabric: {spec.label} — {net.num_servers} servers, {net.num_switches} switches\n")
    header = (
        f"{'stage':<26} {'alive pairs':>11} {'largest comp':>13} "
        f"{'local fix':>10} {'fallback':>9} {'stretch':>8}"
    )
    print(header)
    print("-" * len(header))

    for label, server_frac, switch_frac in STAGES:
        scenario = random_failures(
            net, server_fraction=server_frac, switch_fraction=switch_frac, seed=42
        ).scenario
        alive = net.subgraph_without(
            dead_nodes=list(scenario.dead_servers) + list(scenario.dead_switches)
        )
        masked = MaskedGraph(graph, scenario)
        ratio = masked.connection_ratio(sample_pairs=300, seed=1)
        component = masked.largest_component_fraction()

        rng = random.Random(7)
        local = fallback = attempts = 0
        stretches = []
        for _ in range(150):
            src, dst = rng.sample(alive.servers, 2)
            shortest = bfs_distances(alive, src, targets={dst}).get(dst)
            if shortest is None:
                continue
            attempts += 1
            try:
                result = fault_tolerant_route(spec.abccc, alive, src, dst, seed=3)
            except RoutingError:
                continue
            if result.fallback_used:
                fallback += 1
            else:
                local += 1
            stretches.append(result.route.link_hops / max(shortest, 1))
        mean_stretch = statistics.fmean(stretches) if stretches else float("nan")
        print(
            f"{label:<26} {ratio:>10.1%} {component:>12.1%} "
            f"{local:>7}/{attempts:<3} {fallback:>9} {mean_stretch:>8.3f}"
        )

    print(
        "\nReading: 'local fix' = greedy digit-correction with detours found a\n"
        "route using only neighbour-liveness information; 'fallback' = global\n"
        "BFS repair was required; 'stretch' = route length vs alive-graph optimum."
    )


if __name__ == "__main__":
    main()
