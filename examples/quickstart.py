#!/usr/bin/env python3
"""Quickstart: build an ABCCC network, inspect it, route, and simulate.

Run:  python examples/quickstart.py
"""

from repro import AbcccSpec, validate_network
from repro.metrics.cost import capex
from repro.metrics.distance import link_hop_stats
from repro.routing import route_all
from repro.sim.traffic import permutation_traffic
from repro.topology.compiled import compile_graph
from repro.traffic import RouteSet, max_min_rates


def main() -> None:
    # 1. Pick a configuration: 4-port switches, order 2, 3-NIC servers.
    spec = AbcccSpec(n=4, k=2, s=3)
    print(f"topology : {spec.label}")
    print(f"servers  : {spec.num_servers} (x{spec.server_ports} NIC ports)")
    print(f"switches : {spec.num_switches} (x{spec.switch_ports} ports)")
    print(f"diameter : {spec.diameter_server_hops} server hops (analytic)")

    # 2. Build the concrete network and validate its invariants.
    net = spec.build()
    validate_network(net, spec.link_policy())
    print(f"built    : {net}")

    # 3. Route between two servers with the paper's algorithm.
    src, dst = net.servers[0], net.servers[-1]
    route = spec.route(net, src, dst)
    print(f"route {src} -> {dst}:")
    print("  " + " -> ".join(route.nodes))
    print(f"  {route.link_hops} link hops, {route.server_hops(net)} server hops")

    # 4. Measure real path-length statistics (exhaustive BFS).
    stats = link_hop_stats(net, sample_sources=32)
    print(f"mean/median server-pair distance: {stats.mean:.2f} links, p99 {stats.p99}")

    # 5. Throughput under permutation traffic (max-min fair rates).
    flows = permutation_traffic(net.servers, seed=7)
    routes = route_all(net, flows, spec.route)
    allocation = max_min_rates(RouteSet.from_name_routes(compile_graph(net), flows, routes))
    print(
        f"permutation traffic: {allocation.num_flows} flows, "
        f"min rate {allocation.min_rate:.3f}, "
        f"aggregate {allocation.aggregate_throughput:.1f} link-capacities, "
        f"Jain fairness {allocation.jain_fairness:.3f}"
    )

    # 6. What would this cost?
    breakdown = capex(spec)
    print(f"CAPEX    : {breakdown.total:,.0f} ({breakdown.per_server:,.0f} per server)")


if __name__ == "__main__":
    main()
