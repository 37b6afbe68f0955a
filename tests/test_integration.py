"""Cross-module integration tests: full user workflows end to end."""

import random

import pytest

import repro
from repro import AbcccSpec, available_topologies, create_topology
from repro.metrics.bottleneck import aggregate_bottleneck_throughput
from repro.metrics.connectivity import apply_failures, draw_failures
from repro.routing.base import route_all
from repro.routing.table import ForwardingTable
from repro.sim.packet import PacketSimulator
from repro.sim.traffic import permutation_traffic, shuffle_traffic
from repro.topology.compiled import compile_graph
from repro.topology.validate import validate_network
from repro.traffic import RouteSet, max_min_rates


def _allocate(net, flows, routes):
    return max_min_rates(RouteSet.from_name_routes(compile_graph(net), flows, routes))


class TestQuickstartWorkflow:
    """The README quickstart, as a test."""

    def test_build_route_simulate(self):
        spec = AbcccSpec(n=3, k=1, s=2)
        net = spec.build()
        validate_network(net, spec.link_policy())

        route = spec.route(net, net.servers[0], net.servers[-1])
        route.validate(net)

        flows = permutation_traffic(net.servers, seed=1)
        routes = route_all(net, flows, spec.route)
        allocation = _allocate(net, flows, routes)
        assert allocation.min_rate > 0
        assert allocation.num_flows == net.num_servers


class TestEveryRegisteredTopologyEndToEnd:
    """Each registered kind: create -> build -> validate -> route -> flows."""

    CONFIGS = {
        "abccc": {"n": 3, "k": 1, "s": 2},
        "bccc": {"n": 3, "k": 1},
        "bcube": {"n": 3, "k": 1},
        "dcell": {"n": 3, "k": 1},
        "fattree": {"p": 4},
        "ficonn": {"n": 4, "k": 1},
        "hypercube": {"m": 4},
        "jellyfish": {"switches": 8, "ports": 6, "servers_per_switch": 2, "seed": 1},
        "torus3d": {"a": 3, "b": 3, "c": 3},
        "tree": {"n": 8, "racks": 4, "oversub": 3},
    }

    def test_configs_cover_registry(self):
        assert set(self.CONFIGS) == set(available_topologies())

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_full_pipeline(self, kind):
        spec = create_topology(kind, **self.CONFIGS[kind])
        net = spec.build()
        validate_network(net, spec.link_policy())

        rng = random.Random(0)
        for _ in range(5):
            src, dst = rng.sample(net.servers, 2)
            route = spec.route(net, src, dst)
            route.validate(net)
            assert (route.source, route.destination) == (src, dst)

        flows = permutation_traffic(net.servers, seed=2)
        routes = route_all(net, flows, spec.route)
        allocation = _allocate(net, flows, routes)
        assert allocation.min_rate > 0
        assert aggregate_bottleneck_throughput(net, routes.values()) > 0


class TestFailureWorkflow:
    def test_fault_injection_and_reroute(self):
        spec = AbcccSpec(3, 2, 2)
        net = spec.build()
        scenario = draw_failures(net, switch_fraction=0.1, seed=5)
        alive = apply_failures(net, scenario)

        from repro.core import fault_tolerant_route
        from repro.routing.base import RoutingError

        rng = random.Random(6)
        successes = 0
        for _ in range(30):
            src, dst = rng.sample(alive.servers, 2)
            try:
                result = fault_tolerant_route(spec.abccc, alive, src, dst, seed=1)
            except RoutingError:
                continue
            result.route.validate(alive)
            successes += 1
        assert successes > 20  # 10% switch failures: most pairs reroute


class TestForwardingPlusPacketSim:
    """Install digit-correction routes in forwarding tables, then push
    packets along table-forwarded paths — the deployment-shaped pipeline."""

    def test_table_driven_packets(self):
        spec = AbcccSpec(3, 1, 2)
        net = spec.build()
        flows = shuffle_traffic(net.servers, num_mappers=3, num_reducers=3, seed=3)
        native = route_all(net, flows, spec.route)
        table = ForwardingTable.from_routes(native.values())
        forwarded = {
            f.flow_id: table.forward(net, f.src, f.dst) for f in flows
        }
        sim = PacketSimulator(net)
        result = sim.run(flows, forwarded, packets_per_flow=10, seed=4)
        assert result.delivery_ratio > 0.9


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
