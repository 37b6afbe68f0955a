"""ScenarioCache and query-engine tests (no HTTP, no workers)."""

import numpy as np
import pytest

from repro.core import AbcccSpec
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.routing.batch import _backtrack, abccc_batch_routes, abccc_node_path
from repro.serve.engine import execute, resolve_server
from repro.serve.protocol import EMPTY_SCENARIO_KEY, ServeError, parse_query, scenario_key
from repro.serve.scenario import ScenarioCache


@pytest.fixture(scope="module")
def graph():
    return AbcccSpec(3, 1, 2).compiled()


@pytest.fixture()
def cache(graph):
    return ScenarioCache(graph, capacity=3)


def run(graph, cache, op, params):
    return execute(graph, parse_query(op, params), cache)


class TestScenarioCache:
    def test_baseline_masked_graph_is_cached(self, cache):
        first = cache.get(EMPTY_SCENARIO_KEY)
        second = cache.get(EMPTY_SCENARIO_KEY)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self, graph, cache):
        names = [graph.names[i] for i in graph.server_indices[:4]]
        for name in names:
            cache.get(scenario_key([name]))
        assert len(cache) == 3
        assert cache.evictions == 1
        # The first scenario was evicted; re-fetching it is a miss.
        misses = cache.misses
        cache.get(scenario_key([names[0]]))
        assert cache.misses == misses + 1

    def test_unknown_name_is_bad_request(self, cache):
        with pytest.raises(ServeError) as exc:
            cache.get(scenario_key(["no-such-node"]))
        assert exc.value.code == "bad-request"
        assert "no-such-node" in exc.value.message
        # A failed build never occupies a cache slot.
        assert len(cache) == 0

    def test_stats_shape(self, cache):
        cache.get(EMPTY_SCENARIO_KEY)
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["capacity"] == 3
        assert stats["misses"] == 1


class TestResolveServer:
    def test_by_name_and_ordinal(self, graph):
        first = graph.server_indices[0]
        assert resolve_server(graph, graph.names[first]) == first
        assert resolve_server(graph, "0") == first

    def test_bad_tokens(self, graph):
        for token in ("nope", "-1", str(len(graph.server_indices))):
            with pytest.raises(ServeError) as exc:
                resolve_server(graph, token)
            assert exc.value.code == "bad-request"


class TestExecute:
    def test_route_has_path_and_hops(self, graph, cache):
        result = run(graph, cache, "route", {"src": "0", "dst": "5"})
        assert result["status"] == "ok"
        assert result["reachable"] is True
        assert result["link_hops"] == len(result["path"]) - 1
        assert result["path"][0] == graph.names[graph.server_indices[0]]

    def test_distance_skips_path(self, graph, cache):
        result = run(graph, cache, "distance", {"src": "0", "dst": "5"})
        assert result["reachable"] is True
        assert "path" not in result

    def test_route_same_node(self, graph, cache):
        result = run(graph, cache, "route", {"src": "3", "dst": "3"})
        assert result["link_hops"] == 0
        # src echoes the request token; the path holds resolved names.
        assert result["src"] == "3"
        assert result["path"] == [graph.names[graph.server_indices[3]]]

    def test_dead_endpoint_is_degraded_not_error(self, graph, cache):
        name = graph.names[graph.server_indices[0]]
        result = run(
            graph,
            cache,
            "route",
            {"src": name, "dst": "5", "scenario": {"dead_servers": [name]}},
        )
        assert result["status"] == "degraded"
        assert result["reachable"] is False

    def test_avoid_excludes_nodes(self, graph, cache):
        base = run(graph, cache, "route", {"src": "0", "dst": "5"})
        middle = base["path"][1]
        detour = run(
            graph, cache, "route", {"src": "0", "dst": "5", "avoid": [middle]}
        )
        assert middle not in detour["path"]
        assert detour["link_hops"] >= base["link_hops"]

    def test_whatif_healthy(self, graph, cache):
        result = run(graph, cache, "whatif", {"sample_pairs": 10})
        assert result["status"] == "ok"
        assert result["alive_servers"] == result["num_servers"]
        assert result["largest_component_fraction"] == 1.0

    def test_whatif_dead_switch(self, graph, cache):
        switch = next(
            name for name in graph.names if not name.startswith("s")
        )
        result = run(
            graph, cache, "whatif", {"dead_switches": [switch], "sample_pairs": 10}
        )
        assert result["dead_switches"] == 1
        assert result["alive_servers"] == result["num_servers"]

    def test_whatif_non_edge_link_is_bad_request(self, graph, cache):
        # Two real servers with no link between them: failing "that link"
        # must be rejected, not answered as a healthy fabric.
        servers = [int(i) for i in graph.server_indices]
        u = servers[0]
        row = {int(v) for v in graph.neighbors[graph.offsets[u]:graph.offsets[u + 1]]}
        v = next(s for s in servers[1:] if s not in row)
        link = [graph.names[u], graph.names[v]]
        with pytest.raises(ServeError) as exc:
            run(graph, cache, "whatif", {"dead_links": [link], "sample_pairs": 10})
        assert exc.value.code == "bad-request"
        assert f"{link[0]}--{link[1]}" in exc.value.message
        assert len(cache) == 0

    def test_ping(self, graph, cache):
        result = run(graph, cache, "ping", {})
        assert result["pong"] is True


class TestDigitRoutes:
    """Healthy ABCCC route/distance answers come from digit correction.

    ABCCC(2,2,2) has pairs whose digit route differs from the BFS
    backtrack (on ABCCC(3,1,2) every pair's two paths coincide), so a
    route answer shows which algorithm produced it.
    """

    @pytest.fixture(scope="class")
    def abccc(self):
        return AbcccSpec(2, 2, 2).compiled()

    def test_route_is_the_traffic_route(self, abccc):
        cache = ScenarioCache(abccc)
        S = abccc.num_servers
        src, dst = np.divmod(np.arange(S * S, dtype=np.int64), S)
        routes = abccc_batch_routes(abccc, src, dst)
        servers = abccc.server_indices
        for flow, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
            result = run(abccc, cache, "route", {"src": str(a), "dst": str(b)})
            nodes = [abccc.index[name] for name in result["path"]]
            assert nodes[0] == servers[a] and nodes[-1] == servers[b]
            # edge_id raises KeyError on a non-edge: the path is a walk
            edges = [abccc.edge_id(u, v) for u, v in zip(nodes, nodes[1:])]
            expect = routes.edge_ids[routes.offsets[flow] : routes.offsets[flow + 1]]
            assert edges == expect.tolist(), (a, b)
            assert result["link_hops"] == len(edges)

    def test_distance_is_bfs_hop_count(self, abccc):
        cache = ScenarioCache(abccc)
        servers = abccc.server_indices
        for a, src in enumerate(servers):
            dist = abccc.bfs_distances(int(src))
            for b, dst in enumerate(servers):
                result = run(abccc, cache, "distance", {"src": str(a), "dst": str(b)})
                assert result["link_hops"] == dist[dst], (a, b)

    def test_switch_endpoint_takes_the_bfs_path(self, abccc):
        # digit correction routes servers only; a switch name still resolves
        switch = next(name for name in abccc.names if name.startswith("c"))
        result = run(abccc, ScenarioCache(abccc), "route", {"src": switch, "dst": "5"})
        dist = abccc.bfs_distances(abccc.index[switch])
        assert result["link_hops"] == dist[abccc.server_indices[5]]
        assert result["path"][0] == switch

    def test_scenario_route_takes_the_bfs_path(self, abccc):
        cache = ScenarioCache(abccc)
        servers = [int(i) for i in abccc.server_indices]
        src, dst = servers[0], servers[18]
        digit = abccc_node_path(abccc, src, dst)
        bfs = _backtrack(abccc, abccc.bfs_distances(src), dst)[::-1]
        assert digit != bfs
        # a dead server on neither path leaves both intact
        dead = next(i for i in servers if i not in digit and i not in bfs)
        scenario = {"dead_servers": [abccc.names[dead]]}
        params = {"src": "0", "dst": "18", "scenario": scenario}
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            result = run(abccc, cache, "route", params)
        finally:
            set_registry(previous)
        assert [abccc.index[name] for name in result["path"]] == bfs
        paths = [
            (c["labels"], c["value"])
            for c in registry.snapshot()["counters"]
            if c["name"] == "serve.paths"
        ]
        assert paths == [({"op": "route", "method": "bfs"}, 1)]
