"""Micro-benchmarks: the flow solver and the packet simulator."""

import pytest

from repro.core import AbcccSpec
from repro.routing.base import route_all
from repro.sim.packet import PacketSimulator
from repro.sim.traffic import permutation_traffic
from repro.topology.compiled import compile_graph
from repro.traffic import RouteSet, max_min_rates


@pytest.fixture(scope="module")
def workload():
    spec = AbcccSpec(4, 2, 2)  # 192 servers
    net = spec.build()
    flows = permutation_traffic(net.servers, seed=1)
    routes = route_all(net, flows, spec.route)
    return net, flows, routes


def test_bench_max_min_solver(benchmark, workload):
    net, flows, routes = workload
    route_set = RouteSet.from_name_routes(compile_graph(net), flows, routes)
    allocation = benchmark(max_min_rates, route_set)
    assert allocation.num_flows == len(flows)


def test_bench_packet_sim_2k_packets(benchmark, workload):
    net, flows, routes = workload

    def run():
        sim = PacketSimulator(net)
        return sim.run(flows, routes, packets_per_flow=10, mean_interarrival=2.0, seed=2)

    result = benchmark(run)
    assert result.offered == len(flows) * 10


def test_bench_broadcast_tree(benchmark):
    from repro.core import ServerAddress, broadcast_tree

    spec = AbcccSpec(4, 3, 2)  # 1024 servers
    net = spec.build()
    source = ServerAddress.parse(net.servers[0])
    tree = benchmark(lambda: broadcast_tree(spec.abccc, source))
    assert len(tree.servers) == net.num_servers
