"""Max-min fair allocation from name routes: hand-checked cases and invariants."""

import pytest

from repro.routing.base import Route, route_all
from repro.sim.traffic import Flow
from repro.topology.compiled import compile_graph
from repro.topology.graph import Network
from repro.traffic import RouteSet, RouteSetError, generate_matrix, max_min_rates


def _line(capacities) -> Network:
    """s0 - s1 - ... direct chain with given link capacities."""
    net = Network("line")
    for i in range(len(capacities) + 1):
        net.add_server(f"s{i}", ports=4)
    for i, cap in enumerate(capacities):
        net.add_link(f"s{i}", f"s{i+1}", capacity=cap)
    return net


def _allocate(net, flows, routes):
    """Engine allocation plus ``flow_id -> rate`` for readable asserts."""
    graph = compile_graph(net)
    allocation = max_min_rates(RouteSet.from_name_routes(graph, flows, routes))
    rates = {f.flow_id: float(r) for f, r in zip(flows, allocation.rates)}
    return graph, allocation, rates


class TestHandCases:
    def test_two_flows_share_one_link(self):
        net = _line([1.0])
        flows = [Flow("f1", "s0", "s1"), Flow("f2", "s0", "s1")]
        routes = {f.flow_id: Route.of(["s0", "s1"]) for f in flows}
        _, allocation, rates = _allocate(net, flows, routes)
        assert rates["f1"] == pytest.approx(0.5)
        assert rates["f2"] == pytest.approx(0.5)
        assert allocation.jain_fairness == pytest.approx(1.0)

    def test_classic_two_bottleneck_example(self):
        """Flows: A over links 1+2, B over link 1, C over link 2; caps 1.
        With equal caps both links saturate together: A = B = C = 0.5."""
        net = _line([1.0, 1.0])
        flows = [Flow("A", "s0", "s2"), Flow("B", "s0", "s1"), Flow("C", "s1", "s2")]
        routes = {
            "A": Route.of(["s0", "s1", "s2"]),
            "B": Route.of(["s0", "s1"]),
            "C": Route.of(["s1", "s2"]),
        }
        _, _, rates = _allocate(net, flows, routes)
        for rate in rates.values():
            assert rate == pytest.approx(0.5)

    def test_asymmetric_bottlenecks(self):
        """Same demands but link 2 has capacity 2: after link 1 freezes
        A and B at 0.5, C continues to 1.5."""
        net = _line([1.0, 2.0])
        flows = [Flow("A", "s0", "s2"), Flow("B", "s0", "s1"), Flow("C", "s1", "s2")]
        routes = {
            "A": Route.of(["s0", "s1", "s2"]),
            "B": Route.of(["s0", "s1"]),
            "C": Route.of(["s1", "s2"]),
        }
        graph, allocation, rates = _allocate(net, flows, routes)
        assert rates["A"] == pytest.approx(0.5)
        assert rates["B"] == pytest.approx(0.5)
        assert rates["C"] == pytest.approx(1.5)
        assert allocation.bottleneck_edges[2] == graph.edge_id(
            graph.index["s1"], graph.index["s2"]
        )

    def test_lone_flow_gets_full_capacity(self):
        net = _line([3.0])
        flows = [Flow("f", "s0", "s1")]
        routes = {"f": Route.of(["s0", "s1"])}
        _, _, rates = _allocate(net, flows, routes)
        assert rates["f"] == pytest.approx(3.0)


class TestInvariants:
    def _abccc_allocation(self, seed):
        from repro.core import AbcccSpec

        spec = AbcccSpec(3, 1, 2)
        net = spec.build()
        flows = generate_matrix("permutation", net.num_servers, seed=seed).flows(net.servers)
        routes = route_all(net, flows, spec.route)
        graph, allocation, rates = _allocate(net, flows, routes)
        return net, graph, flows, routes, allocation, rates

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_feasibility(self, seed):
        """No link carries more than its capacity."""
        net, _, flows, routes, _, rates = self._abccc_allocation(seed)
        from repro.topology.node import link_key

        loads = {}
        for flow in flows:
            for u, v in routes[flow.flow_id].edges():
                key = link_key(u, v)
                loads[key] = loads.get(key, 0.0) + rates[flow.flow_id]
        for key, load in loads.items():
            assert load <= net.link(*key).capacity + 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bottleneck_property(self, seed):
        """Every flow's recorded bottleneck link is saturated, and the flow
        has the maximal rate among that link's flows (the defining
        property of max-min fairness)."""
        net, graph, flows, routes, allocation, rates = self._abccc_allocation(seed)
        from repro.topology.node import link_key

        link_rates = {}
        for flow in flows:
            for u, v in routes[flow.flow_id].edges():
                link_rates.setdefault(link_key(u, v), []).append(rates[flow.flow_id])
        names = graph.names
        for i, flow in enumerate(flows):
            edge = int(allocation.bottleneck_edges[i])
            bottleneck = link_key(names[graph.edge_u[edge]], names[graph.edge_v[edge]])
            on_link = link_rates[bottleneck]
            assert sum(on_link) == pytest.approx(net.link(*bottleneck).capacity)
            assert rates[flow.flow_id] == pytest.approx(max(on_link))

    def test_every_flow_rated(self):
        _, _, flows, _, allocation, rates = self._abccc_allocation(3)
        assert set(rates) == {f.flow_id for f in flows}
        assert allocation.min_rate > 0


class TestValidation:
    def test_route_endpoint_mismatch(self):
        net = _line([1.0])
        flows = [Flow("f", "s0", "s1")]
        routes = {"f": Route.of(["s1", "s0"])}
        with pytest.raises(RouteSetError, match="flow wants"):
            RouteSet.from_name_routes(compile_graph(net), flows, routes)

    def test_missing_route(self):
        net = _line([1.0])
        flows = [Flow("f", "s0", "s1")]
        with pytest.raises(KeyError):
            RouteSet.from_name_routes(compile_graph(net), flows, {})


class TestRouteAll:
    def test_plain_router(self):
        from repro.routing.shortest import bfs_path

        net = _line([1.0, 1.0])
        flows = [Flow("f", "s0", "s2")]
        routes = route_all(net, flows, bfs_path)
        assert routes["f"].destination == "s2"

    def test_flow_id_aware_router(self):
        seen = []

        def router(net, src, dst, flow_id=""):
            seen.append(flow_id)
            return Route.of([src, dst])

        net = _line([1.0])
        flows = [Flow("f9", "s0", "s1")]
        route_all(net, flows, router)
        assert seen == ["f9"]


class TestAllocationStats:
    def test_aggregate_and_extremes(self):
        net = _line([1.0])
        flows = [Flow("f1", "s0", "s1"), Flow("f2", "s0", "s1")]
        routes = {f.flow_id: Route.of(["s0", "s1"]) for f in flows}
        _, allocation, _ = _allocate(net, flows, routes)
        assert allocation.aggregate_throughput == pytest.approx(1.0)
        assert allocation.min_rate == allocation.max_rate == pytest.approx(0.5)
        assert allocation.mean_rate == pytest.approx(0.5)
        assert allocation.num_flows == 2
