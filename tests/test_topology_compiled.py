"""Compiled CSR graph: structure, kernels, cache invalidation."""

import pickle

import numpy

from repro.core import AbcccSpec
from repro.metrics.distance import logical_server_adjacency
from repro.routing.shortest import bfs_distances
from repro.topology.compiled import (
    CompiledGraph,
    compile_graph,
    compile_server_projection,
)
from repro.topology.graph import Network


class TestStructure:
    def test_names_and_index_roundtrip(self, abccc_small):
        _, net = abccc_small
        graph = compile_graph(net)
        assert len(graph.names) == len(net)
        for i, name in enumerate(graph.names):
            assert graph.index[name] == i

    def test_csr_matches_adjacency(self, abccc_small):
        _, net = abccc_small
        graph = compile_graph(net)
        assert int(graph.offsets[0]) == 0
        assert int(graph.offsets[-1]) == len(graph.neighbors) == 2 * net.num_links
        for name in net.node_names():
            i = graph.index[name]
            row = {
                graph.names[graph.neighbors[j]]
                for j in range(int(graph.offsets[i]), int(graph.offsets[i + 1]))
            }
            assert row == net.neighbors(name)
            assert graph.degree(i) == net.degree(name)

    def test_server_indices_follow_insertion_order(self, abccc_small):
        _, net = abccc_small
        graph = compile_graph(net)
        assert [graph.names[i] for i in graph.server_indices] == net.servers
        assert graph.num_servers == net.num_servers

    def test_edges_cover_links(self, abccc_small):
        _, net = abccc_small
        graph = compile_graph(net)
        assert graph.num_edges == net.num_links
        for e, (u, v) in enumerate(zip(graph.edge_u, graph.edge_v)):
            assert net.has_link(graph.names[u], graph.names[v])
            assert graph.edge_id(int(u), int(v)) == e
            assert graph.edge_id(int(v), int(u)) == e

    def test_projection_matches_logical_adjacency(self, abccc_small):
        _, net = abccc_small
        projection = compile_server_projection(net)
        expected = logical_server_adjacency(net)
        assert set(projection.names) == set(expected)
        for name, peers in expected.items():
            i = projection.index[name]
            row = {
                projection.names[projection.neighbors[j]]
                for j in range(
                    int(projection.offsets[i]), int(projection.offsets[i + 1])
                )
            }
            assert row == peers


class TestDtypes:
    def test_index_arrays_are_uint32(self, abccc_small):
        """Compact dtypes: every node/entry index array is uint32.

        Regression guard for the footprint halving — the engine ships
        these arrays to every worker and each masked trial keeps them
        resident, so a silent int64 revert doubles memory at scale.
        """
        _, net = abccc_small
        graph = compile_graph(net)
        for attr in ("offsets", "neighbors", "server_indices", "edge_u", "edge_v"):
            assert getattr(graph, attr).dtype == numpy.uint32, attr
        projection = compile_server_projection(net)
        for attr in ("offsets", "neighbors", "server_indices", "edge_u", "edge_v"):
            assert getattr(projection, attr).dtype == numpy.uint32, attr

    def test_value_arrays_keep_signed_sentinels(self, abccc_small):
        """Distances and labels stay int64: they need the -1 sentinel."""
        _, net = abccc_small
        graph = compile_graph(net)
        dist = graph.bfs_distances(0)
        assert numpy.asarray(dist).dtype == numpy.int64
        labels = graph.component_labels_masked(numpy.ones(graph.num_nodes, dtype=bool))
        assert numpy.asarray(labels).dtype == numpy.int64


class TestKernels:
    def test_bfs_matches_dict_bfs(self, abccc_small):
        _, net = abccc_small
        graph = compile_graph(net)
        for source in list(net.servers)[:4]:
            expected = bfs_distances(net, source)
            dist = graph.bfs_distances(graph.index[source])
            got = {graph.names[i]: int(d) for i, d in enumerate(dist) if d >= 0}
            assert got == expected

    def test_bfs_unreachable_is_minus_one(self):
        net = Network()
        net.add_server("a", ports=1)
        net.add_server("b", ports=1)
        graph = compile_graph(net)
        dist = graph.bfs_distances(graph.index["a"])
        assert int(dist[graph.index["a"]]) == 0
        assert int(dist[graph.index["b"]]) == -1

    def test_component_labels(self):
        net = Network()
        for name in ("a", "b", "c", "d"):
            net.add_server(name, ports=2)
        net.add_link("a", "b")
        net.add_link("c", "d")
        graph = compile_graph(net)
        labels = graph.component_labels_masked(numpy.ones(graph.num_nodes, dtype=bool))
        assert labels[graph.index["a"]] == labels[graph.index["b"]]
        assert labels[graph.index["c"]] == labels[graph.index["d"]]
        assert labels[graph.index["a"]] != labels[graph.index["c"]]

    def test_pickle_roundtrip(self, abccc_small):
        _, net = abccc_small
        graph = compile_graph(net)
        clone = pickle.loads(pickle.dumps(graph))
        assert isinstance(clone, CompiledGraph)
        assert clone.names == graph.names
        src = graph.index[net.servers[0]]
        assert [int(d) for d in clone.bfs_distances(src)] == [
            int(d) for d in graph.bfs_distances(src)
        ]


class TestCache:
    def test_compile_is_cached(self):
        net = AbcccSpec(3, 1, 2).build()
        assert compile_graph(net) is compile_graph(net)
        assert compile_server_projection(net) is compile_server_projection(net)

    def test_mutation_bumps_version_and_invalidates(self):
        net = AbcccSpec(3, 1, 2).build()
        before = compile_graph(net)
        version = net.version
        link = next(net.links())
        net.remove_link(link.u, link.v)
        assert net.version > version
        after = compile_graph(net)
        assert after is not before
        assert after.num_edges == before.num_edges - 1
        net.add_link(link.u, link.v)
        assert compile_graph(net) is not after

    def test_remove_node_invalidates(self):
        net = AbcccSpec(3, 1, 2).build()
        before = compile_graph(net)
        net.remove_node(net.servers[0])
        after = compile_graph(net)
        assert after is not before
        assert after.num_nodes == before.num_nodes - 1

    def test_copy_starts_cold(self):
        net = AbcccSpec(3, 1, 2).build()
        compile_graph(net)
        clone = net.copy()
        assert "_compiled" not in clone.meta

    def test_projection_and_link_views_cached_independently(self):
        net = AbcccSpec(3, 1, 2).build()
        link_view = compile_graph(net)
        server_view = compile_server_projection(net)
        assert link_view is not server_view
        assert compile_graph(net) is link_view
