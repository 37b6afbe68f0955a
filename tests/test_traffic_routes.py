"""RouteSet construction and batch route extraction, healthy + degraded."""

import numpy as np
import pytest

from repro.core import AbcccSpec
from repro.core.address import ServerAddress
from repro.core.routing import abccc_route
from repro.faults import MaskedGraph, random_index_failures
from repro.routing.batch import (
    abccc_batch_routes,
    batch_routes,
    bfs_batch_routes,
    bfs_node_paths,
)
from repro.topology.compiled import compile_graph
from repro.topology.fastbuild import fast_compiled
from repro.traffic import RouteSet, RouteSetError, edge_id_array, generate_matrix


@pytest.fixture(scope="module")
def fast_graph():
    return fast_compiled(AbcccSpec(3, 2, 2))


@pytest.fixture(scope="module")
def object_graph():
    return compile_graph(AbcccSpec(3, 2, 2).build())


def _oracle_edge_ids(graph, src_ordinal, dst_ordinal):
    """Edge-id sequence of the per-flow ABCCC router, via names."""
    from repro.core.topology import AbcccParams

    lay = graph.layout
    c = lay.crossbar_size
    params = AbcccParams(n=lay.n, k=lay.k, s=lay.s)

    def addr(o):
        return ServerAddress(lay.crossbar_digits(o // c), o % c)

    route = abccc_route(params, addr(src_ordinal), addr(dst_ordinal))
    nodes = [graph.index[name] for name in route.nodes]
    return [graph.edge_id(u, v) for u, v in zip(nodes, nodes[1:])]


class TestEdgeIdArray:
    def test_round_trip(self, fast_graph):
        u = np.asarray(fast_graph.edge_u[:50], dtype=np.int64)
        v = np.asarray(fast_graph.edge_v[:50], dtype=np.int64)
        ids = edge_id_array(fast_graph, u, v)
        assert np.array_equal(ids, np.arange(50))
        # direction-insensitive
        ids_rev = edge_id_array(fast_graph, v, u)
        assert np.array_equal(ids_rev, np.arange(50))

    def test_non_edge_rejected(self, fast_graph):
        servers = np.asarray(fast_graph.server_indices)
        with pytest.raises(RouteSetError, match="no edge"):
            edge_id_array(
                fast_graph,
                np.array([servers[0]]),
                np.array([servers[-1]]),
            )


class TestArithmeticRoutes:
    def test_matches_per_flow_oracle(self, fast_graph):
        rng = np.random.default_rng(0)
        S = fast_graph.num_servers
        src = rng.integers(0, S, size=150)
        gap = rng.integers(1, S, size=150)
        dst = (src + gap) % S
        routes = abccc_batch_routes(fast_graph, src, dst)
        offsets = routes.offsets
        for i in range(len(src)):
            expect = _oracle_edge_ids(fast_graph, int(src[i]), int(dst[i]))
            got = routes.edge_ids[offsets[i] : offsets[i + 1]].tolist()
            assert got == expect, f"flow {i}: {got} != {expect}"

    def test_multiple_shapes(self):
        for spec in (AbcccSpec(2, 2, 2), AbcccSpec(4, 1, 3)):
            g = fast_compiled(spec)
            rng = np.random.default_rng(1)
            src = rng.integers(0, g.num_servers, size=60)
            gap = rng.integers(1, g.num_servers, size=60)
            dst = (src + gap) % g.num_servers
            routes = abccc_batch_routes(g, src, dst)
            offsets = routes.offsets
            for i in range(60):
                assert (
                    routes.edge_ids[offsets[i] : offsets[i + 1]].tolist()
                    == _oracle_edge_ids(g, int(src[i]), int(dst[i]))
                )


class TestArithmeticRoutesAreShortest:
    @pytest.mark.parametrize(
        "n,k,s", [(3, 2, 2), (4, 2, 3), (3, 3, 3), (2, 4, 3), (4, 1, 3), (3, 2, 4)]
    )
    def test_every_pair_hop_count_is_bfs_distance(self, n, k, s):
        # (4,1,3) and (3,2,4) have one server per crossbar and no
        # crossbar switch; s = 3 and 4 put several levels in one group.
        g = fast_compiled(AbcccSpec(n, k, s))
        S = g.num_servers
        servers = np.asarray(g.server_indices, dtype=np.int64)
        src, dst = np.divmod(np.arange(S * S, dtype=np.int64), S)
        routes = abccc_batch_routes(g, src, dst)
        bfs = np.stack([np.asarray(g.bfs_distances(int(s)))[servers] for s in servers])
        assert np.array_equal(routes.hop_counts, bfs[src, dst])


class TestBfsRoutes:
    def test_paths_are_shortest(self, object_graph):
        g = object_graph
        servers = np.asarray(g.server_indices, dtype=np.int64)
        src = servers[:20]
        dst = servers[-20:]
        paths = bfs_node_paths(g, src, dst)
        for s, d, path in zip(src, dst, paths):
            dist = g.bfs_distances(int(s))
            assert path[0] == s and path[-1] == d
            assert len(path) - 1 == dist[int(d)]

    def test_routeset_consistent(self, object_graph):
        g = object_graph
        servers = np.asarray(g.server_indices, dtype=np.int64)
        routes = bfs_batch_routes(g, servers[:10], servers[10:20])
        assert routes.num_flows == 10
        assert routes.num_unreachable == 0
        assert routes.hop_counts.min() >= 1


class TestDispatch:
    def test_fast_graph_uses_arithmetic(self, fast_graph):
        m = generate_matrix("permutation", fast_graph.num_servers, seed=2)
        routes = batch_routes(fast_graph, m)
        servers = np.asarray(fast_graph.server_indices, dtype=np.int64)
        offsets = routes.offsets
        for i in range(0, m.num_flows, 7):
            assert (
                routes.edge_ids[offsets[i] : offsets[i + 1]].tolist()
                == _oracle_edge_ids(fast_graph, int(m.src[i]), int(m.dst[i]))
            )
        routes.validate_against_matrix(m)

    def test_object_graph_uses_bfs(self, object_graph):
        m = generate_matrix("permutation", len(object_graph.server_indices), seed=2)
        routes = batch_routes(object_graph, m)
        assert routes.num_unreachable == 0
        # BFS paths are shortest: spot-check against per-source distances
        servers = np.asarray(object_graph.server_indices, dtype=np.int64)
        hops = routes.hop_counts
        for i in range(0, m.num_flows, 9):
            dist = object_graph.bfs_distances(int(servers[m.src[i]]))
            assert hops[i] == dist[int(servers[m.dst[i]])]


class TestDegraded:
    def test_dead_endpoint_flows_marked_unreachable(self, fast_graph):
        m = generate_matrix("permutation", fast_graph.num_servers, seed=5)
        servers = np.asarray(fast_graph.server_indices, dtype=np.int64)
        dead_node = int(servers[m.src[0]])
        masked = MaskedGraph.from_indices(fast_graph, dead_nodes=[dead_node])
        routes = batch_routes(fast_graph, m, masked)
        dead_ordinal = int(np.flatnonzero(servers == dead_node)[0])
        affected = (m.src == dead_ordinal) | (m.dst == dead_ordinal)
        assert np.array_equal(routes.unreachable, affected)
        assert routes.hop_counts[affected].max() == 0

    def test_broken_routes_repaired_around_dead_switch(self, fast_graph):
        m = generate_matrix("permutation", fast_graph.num_servers, seed=5)
        healthy = batch_routes(fast_graph, m)
        # kill a switch that some healthy route crosses
        plan = random_index_failures(fast_graph, switch_fraction=0.05, seed=3)
        masked = MaskedGraph.from_indices(fast_graph, dead_nodes=plan.dead_nodes)
        routes = batch_routes(fast_graph, m, masked)
        assert routes.num_unreachable == 0  # endpoints are servers, all alive
        # every repaired route avoids every dead node
        node_alive = np.asarray(masked.node_alive)
        eu = np.asarray(fast_graph.edge_u, dtype=np.int64)
        ev = np.asarray(fast_graph.edge_v, dtype=np.int64)
        used = np.unique(routes.edge_ids)
        assert node_alive[eu[used]].all() and node_alive[ev[used]].all()
        # and unaffected flows keep their arithmetic route
        offsets_h, offsets_d = healthy.offsets, routes.offsets
        dead_set = set(int(n) for n in plan.dead_nodes)
        for i in range(m.num_flows):
            h = healthy.edge_ids[offsets_h[i] : offsets_h[i + 1]]
            d = routes.edge_ids[offsets_d[i] : offsets_d[i + 1]]
            touched = any(
                int(eu[e]) in dead_set or int(ev[e]) in dead_set for e in h
            )
            if not touched:
                assert np.array_equal(h, d)

    def test_dead_links_rerouted(self, fast_graph):
        m = generate_matrix("permutation", fast_graph.num_servers, seed=6)
        plan = random_index_failures(fast_graph, link_fraction=0.02, seed=9)
        masked = MaskedGraph.from_indices(fast_graph, dead_edges=plan.dead_edges)
        routes = batch_routes(fast_graph, m, masked)
        dead = set(int(e) for e in plan.dead_edges)
        assert not dead.intersection(routes.edge_ids.tolist())


class TestRouteSetHelpers:
    def test_crossings_and_load(self, fast_graph):
        m = generate_matrix("all_to_all", fast_graph.num_servers, seed=1, max_flows=80)
        routes = batch_routes(fast_graph, m)
        crossings = routes.crossings()
        assert crossings.sum() == routes.edge_ids.size
        assert routes.max_link_load() == crossings.max()  # unit capacities

    def test_validate_against_matrix_rejects_mismatch(self, fast_graph):
        m = generate_matrix("permutation", fast_graph.num_servers, seed=1)
        other = generate_matrix("uniform", fast_graph.num_servers, seed=1)
        routes = batch_routes(fast_graph, m)
        with pytest.raises(RouteSetError):
            routes.validate_against_matrix(other)
