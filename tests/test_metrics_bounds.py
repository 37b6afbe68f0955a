"""Throughput-bound tests: ceilings hold for every measured allocation."""

import pytest

from repro.baselines import BcubeSpec, FatTreeSpec, TreeSpec
from repro.core import AbcccSpec
from repro.metrics.bounds import all_to_all_bounds, per_server_ceiling
from repro.routing.base import route_all
from repro.topology.compiled import compile_graph
from repro.traffic import RouteSet, generate_matrix, max_min_rates


def _allocate(spec, net, flows):
    routes = route_all(net, flows, spec.route)
    return max_min_rates(RouteSet.from_name_routes(compile_graph(net), flows, routes))


class TestBoundValues:
    def test_abccc_bisection_binds(self):
        spec = AbcccSpec(4, 2, 2)  # bisection/server = 1/6 < degree 2
        bounds = all_to_all_bounds(spec)
        assert bounds.bisection_bound == 2 * 32
        assert bounds.nic_bound == 192 * 2
        assert bounds.bottleneck == "bisection"
        assert bounds.binding == 64

    def test_bcube_nic_vs_bisection(self):
        spec = BcubeSpec(4, 2)  # B = N/2 -> 2B = N; NIC = 3N
        bounds = all_to_all_bounds(spec)
        assert bounds.bottleneck == "bisection"
        assert bounds.binding == spec.num_servers

    def test_tree_is_bisection_starved(self):
        spec = TreeSpec(16, 15, oversub=3)
        assert all_to_all_bounds(spec).bottleneck == "bisection"
        # Oversubscription caps the per-server ceiling at uplinks/downlinks
        # (1/3 here), far below the fat-tree's full-bisection 1.0.
        assert per_server_ceiling(spec) == pytest.approx(1 / 3)
        assert per_server_ceiling(spec) < per_server_ceiling(FatTreeSpec(8))

    def test_unknown_bisection_falls_back_to_nic(self):
        spec = AbcccSpec(3, 1, 2)  # odd n: no closed-form bisection
        bounds = all_to_all_bounds(spec)
        assert bounds.bisection_bound is None
        assert bounds.bottleneck == "nic"
        assert bounds.binding == bounds.nic_bound

    def test_wired_degree_refinement(self):
        """With a built net, spare ports on the last crossbar server are
        excluded from the NIC bound."""
        spec = AbcccSpec(4, 2, 3)  # last server owns 1 level: 1 spare port
        net = spec.build()
        provisioned = all_to_all_bounds(spec).nic_bound
        wired = all_to_all_bounds(spec, net).nic_bound
        assert wired < provisioned


class TestMeasuredRespectsBounds:
    @pytest.mark.parametrize(
        "spec",
        [AbcccSpec(3, 1, 2), AbcccSpec(2, 2, 2), BcubeSpec(3, 1), FatTreeSpec(4)],
        ids=lambda s: s.label,
    )
    def test_all_to_all_under_ceiling(self, spec):
        net = spec.build()
        flows = generate_matrix("all_to_all", net.num_servers, seed=1, max_flows=400).flows(
            net.servers
        )
        allocation = _allocate(spec, net, flows)
        bounds = all_to_all_bounds(spec, net)
        assert allocation.aggregate_throughput <= bounds.nic_bound + 1e-6
        # The bisection bound holds for *uniform* traffic in expectation;
        # sampled all-to-all stays within a small tolerance of it.
        if bounds.bisection_bound is not None:
            assert allocation.aggregate_throughput <= 1.2 * bounds.bisection_bound

    def test_permutation_under_nic_ceiling(self, abccc_small):
        spec, net = abccc_small
        flows = generate_matrix("permutation", net.num_servers, seed=2).flows(net.servers)
        allocation = _allocate(spec, net, flows)
        assert allocation.aggregate_throughput <= all_to_all_bounds(spec, net).nic_bound
