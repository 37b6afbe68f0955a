"""F10 — packet-level validation of the flow-level conclusions.

Runs the discrete-event packet simulator under permutation traffic at a
sweep of offered loads and reports latency (mean/p99), delivery ratio and
throughput per topology.  The point is corroboration: the latency/loss
*ordering* between topologies at equal offered load should match F7's
flow-level throughput ordering, and latency should track each topology's
mean path length at low load.
"""

from __future__ import annotations

from typing import List

from repro.baselines import BcccSpec, BcubeSpec, FatTreeSpec
from repro.core import AbcccSpec
from repro.experiments.harness import register
from repro.routing.base import route_all
from repro.routing.ecmp import EcmpRouter
from repro.sim.packet import PacketSimConfig, PacketSimulator
from repro.sim.results import ResultTable
from repro.traffic.matrix import generate_matrix


def _specs(quick: bool):
    if quick:
        return [AbcccSpec(3, 1, 2), BcubeSpec(3, 1)]
    return [AbcccSpec(4, 2, 2), AbcccSpec(4, 2, 3), BcccSpec(4, 2), BcubeSpec(4, 2), FatTreeSpec(8)]


@register(
    "F10",
    "Packet-level latency/loss vs offered load (permutation traffic)",
    "low-load latency ranks by mean path length (bcube < abccc_s3 < "
    "abccc_s2); as load rises, topologies saturate in the same order as "
    "their F7 per-server throughput; delivery ratio degrades last on "
    "bcube/fat-tree.",
)
def run(quick: bool = False) -> List[ResultTable]:
    table = ResultTable(
        "F10: packet simulation under permutation traffic",
        [
            "topology",
            "mean_interarrival",
            "offered",
            "delivered",
            "delivery_ratio",
            "mean_latency",
            "p99_latency",
            "throughput",
        ],
    )
    loads = (4.0,) if quick else (8.0, 4.0, 2.0, 1.0)
    packets = 10 if quick else 30
    config = PacketSimConfig(queue_capacity=16, propagation_delay=0.05)
    for spec in _specs(quick):
        net = spec.build()
        router = EcmpRouter(net).route if spec.kind == "fattree" else spec.route
        # Ordinal permutation matrix: equal-sized topologies get the
        # bit-identical workload F7 allocates at the flow level.
        flows = generate_matrix("permutation", net.num_servers, seed=21).flows(
            net.servers
        )
        routes = route_all(net, flows, router)
        for mean_gap in loads:
            sim = PacketSimulator(net, config)
            result = sim.run(
                flows,
                routes,
                packets_per_flow=packets,
                mean_interarrival=mean_gap,
                seed=33,
            )
            table.add_row(
                topology=spec.label,
                mean_interarrival=mean_gap,
                offered=result.offered,
                delivered=result.delivered,
                delivery_ratio=result.delivery_ratio,
                mean_latency=result.mean_latency,
                p99_latency=result.p99_latency,
                throughput=result.throughput,
            )
    table.add_note(
        "smaller mean_interarrival = higher offered load; times in units "
        "of one packet serialisation."
    )
    return [table]
