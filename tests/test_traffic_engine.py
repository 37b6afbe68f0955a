"""Max-min + FCT: exact oracles, the max-min certificate, fluid invariants."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import BcubeSpec, FatTreeSpec
from repro.core import AbcccSpec
from repro.faults.mask import MaskedGraph
from repro.faults.plan import random_index_failures
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
from repro.traffic.engine import SATURATION_EPS
from tests.flow_oracle import (
    exact_fluid_fct,
    exact_max_min_rates,
    incidence,
    max_min_problems,
    relative_error,
)

PARITY_PATTERNS = (
    ("permutation", {}),
    ("all_to_all", {"max_flows": 300}),
)


def _worst_error(rates, routes) -> float:
    """Largest relative distance of ``rates`` from exact water-filling."""
    exact = exact_max_min_rates(*incidence(routes))
    return max(relative_error(r, x) for r, x in zip(rates, exact))


def _faulted_routes():
    """A permutation on ABCCC(4,3,2) with 2% of switches and 5% of links
    failed: some flows unreachable."""
    graph = fast_compiled(AbcccSpec(4, 3, 2))
    plan = random_index_failures(graph, switch_fraction=0.02, link_fraction=0.05, seed=3)
    masked = MaskedGraph.from_indices(graph, plan.dead_nodes, plan.dead_edges)
    matrix = generate_matrix("permutation", graph.num_servers, seed=3)
    return batch_routes(graph, matrix, masked)


def _bottleneck_cases():
    """``(name, routes)``: arithmetic routes on ABCCC, with and without
    faults, and BFS routes on a fat-tree."""
    small = fast_compiled(AbcccSpec(3, 2, 2))
    matrix = generate_matrix("permutation", small.num_servers, seed=4)
    yield "ABCCC(3,2,2) permutation", batch_routes(small, matrix)
    graph = fast_compiled(AbcccSpec(4, 3, 2))
    for pattern in ("permutation", "all_to_all", "hot_rack"):
        matrix = generate_matrix(pattern, graph.num_servers, seed=3)
        yield f"ABCCC(4,3,2) {pattern}", batch_routes(graph, matrix)
    yield "ABCCC(4,3,2) permutation under faults", _faulted_routes()
    fat = compile_graph(FatTreeSpec(4).build())
    matrix = generate_matrix("all_to_all", fat.num_servers, seed=3)
    yield "fat-tree(4) all_to_all", batch_routes(fat, matrix)


class TestOracleParity:
    """The allocator on the same instances as the native name routers:
    the max-min certificate holds and the rates are within 1e-12
    (relative) of exact ``Fraction`` water-filling."""

    @pytest.mark.parametrize("pattern,params", PARITY_PATTERNS)
    @pytest.mark.parametrize("spec", [AbcccSpec(3, 1, 2), AbcccSpec(2, 2, 2)])
    def test_full_stack_bit_parity_on_fast_abccc(self, spec, pattern, params):
        """Arithmetic batch routes on the fast-built graph allocate the
        exact rates of the name router's routes, up to flow order."""
        graph = fast_compiled(spec)
        matrix = generate_matrix(pattern, graph.num_servers, seed=11, **params)
        routes = batch_routes(graph, matrix)
        allocation = max_min_rates(routes)
        assert max_min_problems(routes, allocation.rates) is None
        assert _worst_error(allocation.rates, routes) <= 1e-12
        net = spec.build()
        flows = matrix.flows(net.servers)
        named = RouteSet.from_name_routes(
            compile_graph(net), flows, route_all(net, flows, spec.route)
        )
        exact = sorted(exact_max_min_rates(*incidence(named)))
        rates = np.sort(allocation.rates)
        assert max(relative_error(r, x) for r, x in zip(rates, exact)) <= 1e-12

    @pytest.mark.parametrize("pattern,params", PARITY_PATTERNS)
    @pytest.mark.parametrize(
        "spec", [AbcccSpec(3, 1, 2), BcubeSpec(3, 1), FatTreeSpec(4)]
    )
    def test_allocator_bit_parity_on_legacy_routes(self, spec, pattern, params):
        """The native router's name routes, per flow."""
        net = spec.build()
        matrix = generate_matrix(pattern, net.num_servers, seed=11, **params)
        flows = matrix.flows(net.servers)
        routes = RouteSet.from_name_routes(
            compile_graph(net), flows, route_all(net, flows, spec.route)
        )
        allocation = max_min_rates(routes)
        assert max_min_problems(routes, allocation.rates) is None
        assert _worst_error(allocation.rates, routes) <= 1e-12

    def test_bottlenecks_are_saturated_edges(self):
        """A flow's bottleneck is the first edge on its route that is
        saturated and on which no flow has a higher rate, both within
        ``SATURATION_EPS``; an unreachable flow has none."""
        for name, routes in _bottleneck_cases():
            allocation = max_min_rates(routes)
            rates = allocation.rates
            flows = np.repeat(np.arange(routes.num_flows), routes.hop_counts)
            load = np.bincount(
                routes.edge_ids, weights=rates[flows], minlength=routes.num_edges
            )
            top = np.zeros(routes.num_edges)
            np.maximum.at(top, routes.edge_ids, rates[flows])
            saturated = load >= routes.capacities() * (1 - SATURATION_EPS)
            offsets = routes.offsets
            for i in range(routes.num_flows):
                if routes.unreachable[i]:
                    assert allocation.bottleneck_edges[i] == -1, (name, i)
                    continue
                hops = routes.edge_ids[offsets[i] : offsets[i + 1]]
                witnesses = [
                    e
                    for e in hops
                    if saturated[e] and rates[i] >= top[e] * (1 - SATURATION_EPS)
                ]
                assert allocation.bottleneck_edges[i] == witnesses[0], (name, i)


class _ScaledCapacities:
    """A graph view whose every edge capacity is multiplied by ``scale``."""

    def __init__(self, graph, scale: float) -> None:
        self._graph = graph
        self.edge_capacity = np.asarray(graph.edge_capacity, dtype=np.float64) * scale

    def __getattr__(self, name):
        return getattr(self._graph, name)


class TestWaterFilling:
    @pytest.mark.parametrize("pattern", ["permutation", "all_to_all", "hot_rack", "incast"])
    @pytest.mark.parametrize("spec", [AbcccSpec(4, 3, 2), AbcccSpec(6, 3, 2)])
    def test_certificate_at_scale(self, spec, pattern):
        graph = fast_compiled(spec)
        matrix = generate_matrix(pattern, graph.num_servers, seed=3)
        routes = batch_routes(graph, matrix)
        allocation = max_min_rates(routes)
        assert max_min_problems(routes, allocation.rates) is None

    def test_certificate_under_faults(self):
        routes = _faulted_routes()
        assert routes.num_unreachable > 0
        allocation = max_min_rates(routes)
        assert max_min_problems(routes, allocation.rates) is None
        assert (allocation.bottleneck_edges[routes.unreachable] == -1).all()

    def test_rounds_and_rates_are_scale_free(self):
        """Ties are relative: the same instance in any capacity unit runs
        the same rounds and allocates the same scaled rates."""
        graph = fast_compiled(AbcccSpec(3, 2, 2))
        matrix = generate_matrix("all_to_all", graph.num_servers, seed=2, max_flows=400)
        routes = batch_routes(graph, matrix)
        base = max_min_rates(routes)
        assert base.rounds == 13
        for scale in (1e-13, 1e-9, 1e9, 1e13):
            scaled = max_min_rates(
                RouteSet.from_edge_arrays(
                    _ScaledCapacities(graph, scale),
                    routes.src_nodes,
                    routes.dst_nodes,
                    routes.edge_ids,
                    routes.offsets,
                )
            )
            assert scaled.rounds == base.rounds
            np.testing.assert_allclose(
                scaled.rates / scale, base.rates, rtol=SATURATION_EPS, atol=0
            )

    @pytest.mark.parametrize("num_flows,cap", [(1_000, 0.000999), (3_000, 0.000333)])
    def test_rates_exact_under_cancellation(self, num_flows, cap):
        """One unit edge is shared by every flow, and all but the last
        flow also cross a private edge of capacity in [0.9 cap, cap],
        below the shared edge's 1/num_flows.  The last flow gets the
        exact remainder 1 - sum(private capacities); a rate set from a
        running float sum of the frozen rates is off by over 1e-14."""
        private = np.random.default_rng(num_flows).uniform(0.9 * cap, cap, num_flows - 1)
        graph = SimpleNamespace(
            edge_u=np.zeros(num_flows), edge_capacity=np.concatenate(([1.0], private))
        )
        shared_then_private = np.column_stack(
            (np.zeros(num_flows - 1, dtype=np.int64), np.arange(1, num_flows))
        )
        routes = RouteSet.from_edge_arrays(
            graph,
            np.zeros(num_flows),
            np.ones(num_flows),
            np.append(shared_then_private.ravel(), 0),
            np.append(np.arange(0, 2 * num_flows - 1, 2), 2 * num_flows - 1),
        )
        rates = max_min_rates(routes).rates
        exact = [Fraction(float(c)) for c in private]
        exact.append(1 - sum(exact))
        assert max(relative_error(r, x) for r, x in zip(rates, exact)) <= 1e-15


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
        """The same workload in any volume and time unit takes the same
        solves and completes at the same scaled instants."""
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("all_to_all", graph.num_servers, seed=5)
        # Two unit edges: A (size 1) and B (size 1, starting 5e-13
        # after A completes) on edge 0, D (size 10) on edge 1.  B starts
        # within the arrival tolerance of A's completion in every unit.
        two_edges = SimpleNamespace(edge_u=np.zeros(2), edge_capacity=np.ones(2))
        cases = [
            (
                batch_routes(graph, matrix),
                1.0 + np.random.default_rng(0).random(matrix.num_flows),
                np.zeros(matrix.num_flows),
            ),
            (
                RouteSet.from_edge_arrays(
                    two_edges, [0] * 3, [1] * 3, [0, 1, 0], [0, 1, 2, 3]
                ),
                np.array([1.0, 10.0, 1.0]),
                np.array([0.0, 0.0, 1 + 5e-13]),
            ),
        ]
        for routes, sizes, starts in cases:
            base = fluid_fct(routes, sizes, starts)
            for scale in (1e-9, 1e3, 1e6, 1e9):
                scaled = fluid_fct(routes, sizes * scale, starts * scale)
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


#: (topology, pattern, params, seed, detours) instances of at most 64
#: flows; ``detours`` reroutes them to cross links two and three times.
EXACT_CASES = tuple(
    (spec, pattern, params, seed, False)
    for spec in (AbcccSpec(2, 1, 2), AbcccSpec(3, 1, 2), FatTreeSpec(4))
    for pattern, params in (("all_to_all", {"max_flows": 64}), ("uniform", {"num_flows": 48}))
    for seed in (17, 18)
) + ((AbcccSpec(3, 1, 2), "all_to_all", {"max_flows": 64}, 19, True),)


def _with_detours(graph, routes):
    """The same flows over routes with repeated crossings.

    Flow ``i`` with ``i % 3 == 1`` first goes out and back over its
    first hop (three crossings of that link); with ``i % 3 == 2`` it
    ends with a spur off its destination and back (two crossings).
    """
    edge_u = np.asarray(graph.edge_u, dtype=np.int64)
    edge_v = np.asarray(graph.edge_v, dtype=np.int64)
    paths = []
    for i in range(routes.num_flows):
        path = [int(routes.src_nodes[i])]
        for edge in routes.edge_ids[routes.offsets[i] : routes.offsets[i + 1]]:
            path.append(int(edge_v[edge] if edge_u[edge] == path[-1] else edge_u[edge]))
        if i % 3 == 1:
            path = path[:2] + path
        elif i % 3 == 2:
            dst = path[-1]
            neighbors = graph.neighbors[graph.offsets[dst] : graph.offsets[dst + 1]]
            path += [next(int(n) for n in neighbors if n != path[-2]), dst]
        paths.append(path)
    return RouteSet.from_node_paths(graph, paths)


class TestExactOracle:
    """Rates and fluid completion instants within 1e-12 (relative) of
    ``Fraction`` water-filling and the exact fluid trajectory."""

    @pytest.fixture(
        params=EXACT_CASES,
        ids=lambda case: f"{case[0].label}-{case[1]}-{case[3]}"
        + ("-detours" if case[4] else ""),
    )
    def instance(self, request):
        spec, pattern, params, seed, detours = request.param
        graph = compile_graph(spec.build())
        matrix = generate_matrix(pattern, graph.num_servers, seed=seed, **params)
        assert matrix.num_flows <= 64
        routes = batch_routes(graph, matrix)
        if detours:
            routes = _with_detours(graph, routes)
            multiplicity = {
                np.bincount(routes.edge_ids[routes.offsets[i] : routes.offsets[i + 1]]).max()
                for i in range(routes.num_flows)
            }
            assert {2, 3} <= multiplicity
        return routes, seed

    def test_rates_match_exact_water_filling(self, instance):
        """Every flow, then with every fourth flow outside ``active``."""
        routes, _ = instance
        assert _worst_error(max_min_rates(routes).rates, routes) <= 1e-12
        active = np.arange(routes.num_flows) % 4 != 0
        rates = max_min_rates(routes, active).rates
        exact = exact_max_min_rates(*incidence(routes), active)
        assert (rates[~active] == 0.0).all()
        worst = max(relative_error(r, x) for r, x, on in zip(rates, exact, active) if on)
        assert worst <= 1e-12

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
