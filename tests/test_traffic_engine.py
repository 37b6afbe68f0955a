"""Vectorized max-min + FCT: exact and float oracles, fluid invariants."""

from fractions import Fraction

import numpy as np
import pytest

from repro.baselines import BcubeSpec, FatTreeSpec
from repro.core import AbcccSpec
from repro.routing.base import route_all
from repro.routing.batch import batch_routes
from repro.topology.compiled import compile_graph
from repro.topology.fastbuild import fast_compiled
from repro.traffic import (
    RouteSet,
    fluid_fct,
    generate_matrix,
    max_min_rates,
)
from tests.flow_oracle import (
    exact_fluid_fct,
    exact_max_min_rates,
    float_max_min_rates,
    incidence,
    relative_error,
)

PARITY_PATTERNS = (
    ("permutation", {}),
    ("all_to_all", {"max_flows": 300}),
)


def _float_oracle(spec, matrix):
    """Oracle rates over native name routes, flow order."""
    net = spec.build()
    servers = net.servers
    flows = matrix.flows(servers)
    routes = route_all(net, flows, spec.route)
    rates = np.array(float_max_min_rates(net, flows, routes))
    return flows, routes, net, rates


class TestOracleParity:
    """Bit-for-bit equal to the float progressive filler."""

    @pytest.mark.parametrize("pattern,params", PARITY_PATTERNS)
    @pytest.mark.parametrize("spec", [AbcccSpec(3, 1, 2), AbcccSpec(2, 2, 2)])
    def test_full_stack_bit_parity_on_fast_abccc(self, spec, pattern, params):
        """Arithmetic batch routes + vectorized filler == name routes +
        float filler."""
        graph = fast_compiled(spec)
        matrix = generate_matrix(pattern, graph.num_servers, seed=11, **params)
        allocation = max_min_rates(batch_routes(graph, matrix))
        _, _, _, oracle = _float_oracle(spec, matrix)
        assert np.array_equal(np.sort(allocation.rates), np.sort(oracle))

    @pytest.mark.parametrize("pattern,params", PARITY_PATTERNS)
    @pytest.mark.parametrize(
        "spec", [AbcccSpec(3, 1, 2), BcubeSpec(3, 1), FatTreeSpec(4)]
    )
    def test_allocator_bit_parity_on_legacy_routes(self, spec, pattern, params):
        """Same routes in => same per-flow rates out, unsorted."""
        net = spec.build()
        graph = compile_graph(net)
        matrix = generate_matrix(pattern, net.num_servers, seed=11, **params)
        flows, routes, _, oracle = _float_oracle(spec, matrix)
        route_set = RouteSet.from_name_routes(graph, flows, routes)
        allocation = max_min_rates(route_set)
        assert np.array_equal(allocation.rates, oracle)

    def test_bottlenecks_are_saturated_edges(self):
        graph = fast_compiled(AbcccSpec(3, 2, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=4)
        routes = batch_routes(graph, matrix)
        allocation = max_min_rates(routes)
        assert (allocation.bottleneck_edges >= 0).all()
        # each flow's bottleneck lies on its own route
        offsets = routes.offsets
        for i in range(matrix.num_flows):
            hops = routes.edge_ids[offsets[i] : offsets[i + 1]]
            assert allocation.bottleneck_edges[i] in hops


class TestAllocationStats:
    def test_unreachable_flows_rate_zero_and_excluded(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=0)
        routes = batch_routes(graph, matrix)
        # mark two flows unreachable by hand
        unreachable = np.zeros(matrix.num_flows, dtype=bool)
        unreachable[[0, 5]] = True
        hacked = RouteSet(
            graph=graph,
            src_nodes=routes.src_nodes,
            dst_nodes=routes.dst_nodes,
            edge_ids=routes.edge_ids,
            offsets=routes.offsets,
            unreachable=unreachable,
        )
        allocation = max_min_rates(hacked)
        assert allocation.rates[0] == 0.0 and allocation.rates[5] == 0.0
        assert allocation.num_unreachable == 2
        assert allocation.min_rate > 0.0  # stats over served flows only

    def test_jain_in_unit_interval_and_percentiles_sorted(self):
        graph = fast_compiled(AbcccSpec(3, 2, 2))
        matrix = generate_matrix("uniform", graph.num_servers, seed=8)
        allocation = max_min_rates(batch_routes(graph, matrix))
        assert 0.0 < allocation.jain_fairness <= 1.0
        percentiles = allocation.rate_percentiles((0.01, 0.5, 0.99))
        assert percentiles[0.01] <= percentiles[0.5] <= percentiles[0.99]
        assert allocation.min_rate <= allocation.mean_rate <= allocation.max_rate


class TestFluidFct:
    def test_single_flow_completes_at_size_over_rate(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=1)
        routes = batch_routes(graph, matrix)
        allocation = max_min_rates(routes)
        stats = fluid_fct(routes, np.full(matrix.num_flows, 2.0))
        # the slowest flow finishes no earlier than size / its static rate
        assert stats.max_fct >= 2.0 / allocation.rates.max() - 1e-9
        assert np.isfinite(stats.completion_times).all()
        assert stats.num_completed == matrix.num_flows

    def test_rates_only_improve_as_flows_retire(self):
        """Completion order respects size/rate dominance: a flow with the
        same route but half the size never finishes later."""
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=2)
        routes = batch_routes(graph, matrix)
        small = fluid_fct(routes, np.full(matrix.num_flows, 1.0))
        large = fluid_fct(routes, np.full(matrix.num_flows, 3.0))
        assert (large.completion_times >= small.completion_times - 1e-9).all()

    def test_sizes_length_checked(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=0)
        routes = batch_routes(graph, matrix)
        with pytest.raises(ValueError, match="one entry per flow"):
            fluid_fct(routes, np.ones(3))

    def test_completion_is_scale_free(self):
        """The same workload in any volume unit takes the same solves and
        completes at the same scaled instants."""
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("all_to_all", graph.num_servers, seed=5)
        routes = batch_routes(graph, matrix)
        sizes = 1.0 + np.random.default_rng(0).random(matrix.num_flows)
        base = fluid_fct(routes, sizes)
        for scale in (1e-9, 1e9):
            scaled = fluid_fct(routes, sizes * scale)
            assert scaled.solves == base.solves
            np.testing.assert_allclose(
                scaled.completion_times / scale, base.completion_times, rtol=1e-13
            )

    def test_durations_subtract_starts(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=3)
        routes = batch_routes(graph, matrix)
        starts = np.where(np.arange(matrix.num_flows) % 2 == 0, 0.0, 100.0)
        stats = fluid_fct(routes, np.ones(matrix.num_flows), starts)
        assert np.array_equal(stats.start_times, starts)
        assert np.array_equal(stats.durations, stats.completion_times - starts)
        assert (stats.completion_times[starts == 100.0] > 100.0).all()
        assert stats.max_fct == stats.durations.max() < 100.0
        assert stats.mean_fct == pytest.approx(stats.durations.mean())

    def test_unreachable_flows_never_complete(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=0)
        routes = batch_routes(graph, matrix)
        unreachable = np.zeros(matrix.num_flows, dtype=bool)
        unreachable[[1, 4]] = True
        hacked = RouteSet.from_edge_arrays(
            graph,
            routes.src_nodes,
            routes.dst_nodes,
            routes.edge_ids,
            routes.offsets,
            unreachable,
        )
        stats = fluid_fct(hacked, np.ones(matrix.num_flows), np.arange(matrix.num_flows))
        assert np.isinf(stats.completion_times[[1, 4]]).all()
        assert stats.num_completed == matrix.num_flows - 2

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_stalled_solve_raises(self):
        """A served flow that crosses no capacity gets an infinite rate and
        never makes progress: an error, not a silent ``inf``."""
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        hopless = RouteSet.from_edge_arrays(graph, [0], [1], [], [0, 0])
        with pytest.raises(RuntimeError, match="neither retired nor admitted"):
            fluid_fct(hopless, [1.0])

    def test_starts_checked(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=0)
        routes = batch_routes(graph, matrix)
        sizes = np.ones(matrix.num_flows)
        with pytest.raises(ValueError, match="one entry per flow"):
            fluid_fct(routes, sizes, np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            fluid_fct(routes, sizes, np.full(matrix.num_flows, np.nan))


#: (topology, pattern, params, seed) instances of at most 64 flows.
EXACT_CASES = tuple(
    (spec, pattern, params, seed)
    for spec in (AbcccSpec(2, 1, 2), AbcccSpec(3, 1, 2), FatTreeSpec(4))
    for pattern, params in (("all_to_all", {"max_flows": 64}), ("uniform", {"num_flows": 48}))
    for seed in (17, 18)
)


class TestExactOracle:
    """Rates and fluid completion instants within 1e-12 (relative) of
    ``Fraction`` water-filling and the exact fluid trajectory."""

    @pytest.fixture(
        params=EXACT_CASES, ids=lambda case: f"{case[0].label}-{case[1]}-{case[3]}"
    )
    def instance(self, request):
        spec, pattern, params, seed = request.param
        graph = compile_graph(spec.build())
        matrix = generate_matrix(pattern, graph.num_servers, seed=seed, **params)
        assert matrix.num_flows <= 64
        return batch_routes(graph, matrix), seed

    def test_rates_match_exact_water_filling(self, instance):
        routes, _ = instance
        flow_edges, capacities = incidence(routes)
        exact = exact_max_min_rates(flow_edges, capacities)
        rates = max_min_rates(routes).rates
        assert max(relative_error(r, x) for r, x in zip(rates, exact)) <= 1e-12

    def test_fct_matches_exact_trajectory(self, instance):
        """Unequal sizes; starts in three waves, the last after an idle gap."""
        routes, seed = instance
        num = routes.num_flows
        rng = np.random.default_rng(seed)
        sizes = rng.choice([0.5, 1.0, 1.75, 3.0], size=num)
        starts = rng.choice([0.0, 0.25, 1000.0], size=num, p=[0.5, 0.25, 0.25])
        stats = fluid_fct(routes, sizes, starts)
        flow_edges, capacities = incidence(routes)
        exact = exact_fluid_fct(
            flow_edges,
            capacities,
            [Fraction(float(x)) for x in sizes],
            [Fraction(float(x)) for x in starts],
        )
        early = starts < 1000.0
        assert max(t for t, e in zip(exact, early) if e) < 1000  # the idle gap
        worst = max(relative_error(t, x) for t, x in zip(stats.completion_times, exact))
        assert worst <= 1e-12
