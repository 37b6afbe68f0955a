"""Adaptive source routing: tracker accounting and policy behaviour."""

import pytest

from repro.core import AbcccSpec
from repro.core.source_routing import (
    AdaptiveSourceRouter,
    LinkLoadTracker,
    PLACEMENT_POLICIES,
    place_flows_adaptive,
    place_flows_fixed,
    place_flows_hashed,
)
from repro.metrics.bottleneck import load_stats
from repro.routing.base import Route
from repro.sim.traffic import Flow
from repro.traffic import generate_matrix


@pytest.fixture(scope="module")
def instance():
    spec = AbcccSpec(3, 2, 2)
    return spec, spec.build()


class TestTracker:
    def test_place_and_remove(self, instance):
        _, net = instance
        tracker = LinkLoadTracker(net)
        route = Route.of([net.servers[0], next(iter(net.neighbors(net.servers[0])))])
        tracker.place(route)
        u, v = route.nodes
        assert tracker.load(u, v) == 1.0
        tracker.place(route)
        assert tracker.load(u, v) == 2.0
        tracker.remove(route)
        tracker.remove(route)
        assert tracker.load(u, v) == 0.0
        assert tracker.max_load == 0.0

    def test_bottleneck_and_total(self, instance):
        spec, net = instance
        tracker = LinkLoadTracker(net)
        route = spec.route(net, net.servers[0], net.servers[-1])
        assert tracker.bottleneck(route) == 0.0
        tracker.place(route)
        assert tracker.bottleneck(route) == 1.0
        assert tracker.total(route) == route.link_hops

    def test_zero_hop_route(self, instance):
        _, net = instance
        tracker = LinkLoadTracker(net)
        assert tracker.bottleneck(Route.of([net.servers[0]])) == 0.0


class TestAdaptiveRouter:
    def test_first_flow_prefers_shortest(self, instance):
        from repro.core.address import ServerAddress

        spec, net = instance
        router = AdaptiveSourceRouter(spec.abccc, net)
        src, dst = net.servers[0], net.servers[-1]
        choice = router.choose(Flow("f", src, dst))
        candidates = router.candidates(
            ServerAddress.parse(src), ServerAddress.parse(dst)
        )
        assert choice.route.link_hops == min(r.link_hops for r in candidates)
        assert choice.bottleneck_before == 0.0

    def test_repeat_flows_spread(self, instance):
        """Many flows between the same endpoints must use different
        rotation paths as congestion builds."""
        spec, net = instance
        router = AdaptiveSourceRouter(spec.abccc, net)
        src, dst = "s0.0.0/0", "s2.2.2/0"
        chosen = {router.choose(Flow(f"f{i}", src, dst)).route.nodes for i in range(6)}
        assert len(chosen) >= 2

    def test_routes_valid(self, instance):
        spec, net = instance
        flows = generate_matrix("permutation", net.num_servers, seed=9).flows(net.servers)
        routes = place_flows_adaptive(spec.abccc, net, flows)
        for route in routes.values():
            route.validate(net)

    def test_route_protocol_adapter(self, instance):
        spec, net = instance
        router = AdaptiveSourceRouter(spec.abccc, net)
        route = router.route(net, net.servers[0], net.servers[-1], flow_id="x")
        route.validate(net)
        with pytest.raises(ValueError, match="bound"):
            router.route(spec.build(), net.servers[0], net.servers[-1])


class TestPolicyComparison:
    def test_adaptive_beats_fixed_on_hot_pairs(self, instance):
        """With many flows between few endpoint pairs, adaptive spreading
        must strictly lower the max link load vs the fixed single path."""
        spec, net = instance
        pairs = [("s0.0.0/0", "s2.2.2/0"), ("s0.0.0/1", "s2.2.2/1")]
        flows = [
            Flow(f"f{i}", src, dst) for i, (src, dst) in enumerate(pairs * 6)
        ]
        fixed = place_flows_fixed(spec.abccc, net, flows)
        adaptive = place_flows_adaptive(spec.abccc, net, flows)
        fixed_max = load_stats(net, fixed.values()).max_load
        adaptive_max = load_stats(net, adaptive.values()).max_load
        assert adaptive_max < fixed_max

    def test_hashed_is_deterministic(self, instance):
        spec, net = instance
        flows = generate_matrix("permutation", net.num_servers, seed=11).flows(net.servers)
        a = place_flows_hashed(spec.abccc, net, flows)
        b = place_flows_hashed(spec.abccc, net, flows)
        assert {k: r.nodes for k, r in a.items()} == {k: r.nodes for k, r in b.items()}

    def test_policy_registry(self):
        assert set(PLACEMENT_POLICIES) == {"adaptive", "fixed", "hashed", "vlb"}

    def test_all_policies_route_all_flows(self, instance):
        spec, net = instance
        flows = generate_matrix("permutation", net.num_servers, seed=13).flows(net.servers)
        for place in PLACEMENT_POLICIES.values():
            routes = place(spec.abccc, net, flows)
            assert set(routes) == {f.flow_id for f in flows}
            for flow in flows:
                assert routes[flow.flow_id].source == flow.src
                assert routes[flow.flow_id].destination == flow.dst


class TestVlb:
    def test_routes_valid_walks(self, instance):
        from repro.core.source_routing import place_flows_vlb

        spec, net = instance
        flows = generate_matrix("permutation", net.num_servers, seed=21).flows(net.servers)
        routes = place_flows_vlb(spec.abccc, net, flows)
        for route in routes.values():
            route.validate(net)  # walks may repeat nodes but use real links

    def test_longer_than_direct_on_average(self, instance):
        from repro.core.source_routing import place_flows_fixed, place_flows_vlb

        spec, net = instance
        flows = generate_matrix("permutation", net.num_servers, seed=22).flows(net.servers)
        direct = place_flows_fixed(spec.abccc, net, flows)
        vlb = place_flows_vlb(spec.abccc, net, flows)
        mean = lambda routes: sum(r.link_hops for r in routes.values()) / len(routes)
        assert mean(vlb) > mean(direct)
        # ... but bounded by twice the diameter.
        from repro.core import properties

        bound = 2 * 2 * properties.diameter_server_hops(spec.abccc)
        assert all(r.link_hops <= bound for r in vlb.values())

    def test_deterministic(self, instance):
        from repro.core.source_routing import place_flows_vlb

        spec, net = instance
        flows = generate_matrix("permutation", net.num_servers, seed=23).flows(net.servers)
        a = place_flows_vlb(spec.abccc, net, flows)
        b = place_flows_vlb(spec.abccc, net, flows)
        assert {k: r.nodes for k, r in a.items()} == {k: r.nodes for k, r in b.items()}

    def test_spreads_adversarial_hotpair(self, instance):
        """Many flows between one pair: VLB's random intermediates spread
        them where the fixed path stacks them all on one route."""
        from repro.core.source_routing import place_flows_fixed, place_flows_vlb

        spec, net = instance
        flows = [Flow(f"f{i}", "s0.0.0/0", "s2.2.2/0") for i in range(12)]
        fixed = load_stats(net, place_flows_fixed(spec.abccc, net, flows).values())
        vlb = load_stats(net, place_flows_vlb(spec.abccc, net, flows).values())
        assert vlb.max_load < fixed.max_load
