"""Vectorized direct-to-CSR constructors: parity, boundaries, integration."""

import pickle

import numpy as np
import pytest

from repro.baselines import BcccSpec, BcubeSpec, FatTreeSpec
from repro.core import AbcccSpec
from repro.core.address import AddressError
from repro.faults.mask import MaskedGraph
from repro.faults.plan import FailureScenario
from repro.metrics.engine import pairwise_distances
from repro import obs
from repro.obs.report import load_trace
from repro.topology import fastbuild
from repro.topology.compiled import build_compiled, compile_graph
from repro.topology.fastbuild import (
    KIND_CROSSBAR_SWITCH,
    KIND_LEVEL_SWITCH,
    KIND_SERVER,
    FastBuildError,
    FastCompiledGraph,
    fast_compiled,
    layout_for,
)
from repro.topology.validate import ValidationError
from tests.csr_oracle import assert_csr_parity, csr_parity_problems

#: one spec per structural regime of every fast family — the parity net.
PARITY_SPECS = [
    AbcccSpec(4, 3, 2),  # the paper's running example
    AbcccSpec(3, 2, 3),  # multi-level owners (s - 1 = 2)
    AbcccSpec(4, 1, 3),  # s >= k + 2: BCube-degenerate crossbars of one
    AbcccSpec(2, 0, 2),  # minimal: single level, n = 2
    AbcccSpec(4, 2, 4),  # s > levels: last owner underfilled
    BcccSpec(3, 1),
    BcccSpec(4, 0),  # degenerate single-level star
    BcccSpec(2, 2),
    BcubeSpec(4, 1),
    BcubeSpec(3, 0),  # single-switch BCube level
    BcubeSpec(2, 3),
]


def _ids(specs):
    return [spec.label for spec in specs]


class TestParity:
    @pytest.mark.parametrize("spec", PARITY_SPECS, ids=_ids(PARITY_SPECS))
    def test_fast_graph_matches_oracle_exactly(self, spec):
        graph = fast_compiled(spec)
        net = spec.build()
        assert isinstance(graph, FastCompiledGraph)
        assert_csr_parity(graph, net)

    @pytest.mark.parametrize("spec", PARITY_SPECS[:3], ids=_ids(PARITY_SPECS[:3]))
    def test_csr_bytes_identical(self, spec):
        """Beyond set equality: the raw arrays match element for element."""
        graph = fast_compiled(spec)
        oracle = compile_graph(spec.build())
        for attr in ("offsets", "neighbors", "server_indices", "edge_u", "edge_v"):
            fast_arr = np.asarray(getattr(graph, attr))
            oracle_arr = np.asarray(getattr(oracle, attr))
            assert fast_arr.dtype == oracle_arr.dtype == np.uint32, attr
            assert np.array_equal(fast_arr, oracle_arr), attr

    def test_parity_helper_reports_injected_corruption(self):
        spec = AbcccSpec(3, 1, 2)
        graph = fast_compiled(spec)
        net = spec.build()
        assert csr_parity_problems(graph, net) == []
        graph.neighbors[0], graph.neighbors[1] = graph.neighbors[1], graph.neighbors[0]
        problems = csr_parity_problems(graph, net)
        assert any("neighbor" in p for p in problems)
        with pytest.raises(ValidationError):
            assert_csr_parity(graph, net)

    def test_counts_match_spec_closed_forms(self):
        for spec in PARITY_SPECS:
            layout = layout_for(spec)
            assert layout.num_servers == spec.num_servers, spec.label
            assert layout.num_switches == spec.num_switches, spec.label
            assert layout.num_edges == spec.num_links, spec.label


class TestDispatch:
    def test_build_compiled_prefers_fast_path(self):
        graph = build_compiled(AbcccSpec(3, 1, 2))
        assert isinstance(graph, FastCompiledGraph)

    def test_unsupported_family_falls_back(self):
        spec = FatTreeSpec(4)
        assert not fastbuild.supports(spec)
        graph = build_compiled(spec)
        assert not isinstance(graph, FastCompiledGraph)
        assert graph.num_servers == spec.num_servers

    def test_fast_compiled_rejects_unsupported_spec(self):
        with pytest.raises(FastBuildError):
            fast_compiled(FatTreeSpec(4))

    def test_spec_compiled_method_uses_seam(self):
        assert isinstance(AbcccSpec(3, 1, 2).compiled(), FastCompiledGraph)
        assert not isinstance(FatTreeSpec(4).compiled(), FastCompiledGraph)


class TestBoundarySpecs:
    """Degenerate corners go through the fast path or fail identically."""

    def test_k0_single_level_cube(self):
        assert_csr_parity(fast_compiled(AbcccSpec(2, 0, 2)), AbcccSpec(2, 0, 2).build())
        assert_csr_parity(fast_compiled(AbcccSpec(5, 0, 3)), AbcccSpec(5, 0, 3).build())

    def test_k1_minimal_multilevel(self):
        spec = AbcccSpec(2, 1, 2)
        assert_csr_parity(fast_compiled(spec), spec.build())

    def test_n2_smallest_radix(self):
        for spec in (AbcccSpec(2, 2, 2), BcccSpec(2, 1), BcubeSpec(2, 1)):
            assert_csr_parity(fast_compiled(spec), spec.build())

    def test_single_switch_bcube(self):
        spec = BcubeSpec(3, 0)
        graph = fast_compiled(spec)
        assert graph.num_nodes == 4  # 3 servers + 1 switch
        assert_csr_parity(graph, spec.build())

    def test_invalid_params_raise_before_either_path(self):
        # Validation lives on the shared parameter objects, so the fast
        # path can never accept a spec the object builder would reject.
        with pytest.raises(AddressError):
            AbcccSpec(1, 2, 2)
        with pytest.raises(AddressError):
            AbcccSpec(3, -1, 2)
        with pytest.raises(AddressError):
            AbcccSpec(3, 2, 1)
        with pytest.raises(AddressError):
            BcccSpec(1, 1)
        with pytest.raises(ValueError):
            BcubeSpec(1, 1)

    def test_oversized_spec_refused(self):
        spec = AbcccSpec(2, 40, 2)  # 2^41 crossbars: beyond uint32 ids
        with pytest.raises(FastBuildError):
            fast_compiled(spec)


class TestLazyTables:
    def test_names_is_a_sequence_view(self):
        spec = AbcccSpec(3, 1, 2)
        graph = fast_compiled(spec)
        oracle_names = list(compile_graph(spec.build()).names)
        names = graph.names
        assert len(names) == len(oracle_names)
        assert list(names) == oracle_names
        assert names[0] == oracle_names[0]
        assert names[-1] == oracle_names[-1]
        assert names[2:5] == oracle_names[2:5]
        assert oracle_names[3] in names
        assert "no-such-node" not in names

    def test_index_is_a_mapping_view(self):
        spec = BcccSpec(3, 1)
        graph = fast_compiled(spec)
        index = graph.index
        for i, name in enumerate(graph.names):
            assert index[name] == i
            assert index.get(name) == i
            assert name in index
        assert index.get("bogus") is None
        assert "bogus" not in index
        with pytest.raises(KeyError):
            index["s9.9.9/9"]
        assert len(index) == graph.num_nodes
        assert dict(index.items()) == {n: i for i, n in enumerate(graph.names)}

    def test_index_rejects_out_of_range_addresses(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        for name in ("s3.0/0", "s0.0/7", "l2:0", "c9.9", "x0.0"):
            assert graph.index.get(name) is None

    def test_kind_tables(self):
        spec = AbcccSpec(3, 2, 2)
        graph = fast_compiled(spec)
        net = spec.build()
        kinds = graph.node_kind_table()
        for i, name in enumerate(graph.names):
            node = net.node(name)
            if node.is_server:
                expected = KIND_SERVER
            elif node.role == "crossbar":
                expected = KIND_CROSSBAR_SWITCH
            else:
                expected = KIND_LEVEL_SWITCH
            assert graph.kind_code(i) == expected
            assert int(kinds[i]) == expected
            assert graph.is_server(i) == node.is_server


class TestGraphBehaviour:
    def test_bfs_matches_oracle(self):
        spec = AbcccSpec(3, 2, 2)
        graph = fast_compiled(spec)
        oracle = compile_graph(spec.build())
        for src in [0, 5, graph.num_nodes - 1]:
            assert np.array_equal(graph.bfs_distances(src), oracle.bfs_distances(src))

    def test_pairwise_distances_engine_integration(self):
        spec = BcubeSpec(3, 1)
        graph = fast_compiled(spec)
        oracle = compile_graph(spec.build())
        servers = [int(i) for i in graph.server_indices]
        pairs = [(servers[0], s) for s in servers[1:]]
        assert pairwise_distances(graph, pairs) == pairwise_distances(oracle, pairs)

    def test_masked_graph_integration(self):
        spec = AbcccSpec(3, 2, 2)
        graph = fast_compiled(spec)
        net = spec.build()
        oracle = compile_graph(net)
        link = next(net.links())
        scenario = FailureScenario(
            dead_servers=tuple(net.servers[::7]),
            dead_switches=("l0:0.0.*", "c1.0.2"),
            dead_links=((link.u, link.v),),
        )
        fast_masked = MaskedGraph(graph, scenario)
        oracle_masked = MaskedGraph(oracle, scenario)
        assert fast_masked.num_alive_servers() == oracle_masked.num_alive_servers()
        assert np.array_equal(
            fast_masked.alive_server_indices(), oracle_masked.alive_server_indices()
        )
        assert fast_masked.largest_component_fraction() == pytest.approx(
            oracle_masked.largest_component_fraction()
        )
        assert fast_masked.connection_ratio(sample_pairs=50) == pytest.approx(
            oracle_masked.connection_ratio(sample_pairs=50)
        )

    def test_pickle_roundtrip(self):
        spec = AbcccSpec(3, 1, 2)
        graph = fast_compiled(spec)
        clone = pickle.loads(pickle.dumps(graph))
        assert isinstance(clone, FastCompiledGraph)
        assert clone.layout == graph.layout
        assert list(clone.names) == list(graph.names)
        assert np.array_equal(clone.offsets, graph.offsets)
        assert np.array_equal(
            clone.bfs_distances(0), graph.bfs_distances(0)
        )

    def test_edge_capacity_is_lazy_units(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        assert graph._capacity is None
        capacity = graph.edge_capacity
        assert capacity.shape == (graph.num_edges,)
        assert np.all(capacity == 1.0)


class TestMemmap:
    def test_memmap_mode_is_parity_equal(self, tmp_path):
        spec = AbcccSpec(3, 2, 2)
        graph = fast_compiled(spec, memmap_dir=str(tmp_path))
        assert isinstance(graph.offsets, np.memmap)
        assert isinstance(graph.neighbors, np.memmap)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [
            "abccc-n3-k2-s2.edge_u.u32",
            "abccc-n3-k2-s2.edge_v.u32",
            "abccc-n3-k2-s2.indices.u32",
            "abccc-n3-k2-s2.indptr.u32",
        ]
        assert_csr_parity(graph, spec.build())

    def test_memmap_graph_pickles_to_plain_arrays(self, tmp_path):
        graph = fast_compiled(AbcccSpec(3, 1, 2), memmap_dir=str(tmp_path))
        clone = pickle.loads(pickle.dumps(graph))
        assert not isinstance(clone.neighbors, np.memmap)
        assert np.array_equal(clone.neighbors, graph.neighbors)


class TestObservability:
    def test_fastbuild_emits_span_and_counter(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with obs.run(path) as scope:
            fast_compiled(AbcccSpec(3, 1, 2))
        spans = [e for e in load_trace(path) if e["ev"] == "span"]
        (span,) = [s for s in spans if s["name"] == "topology.fastbuild"]
        assert span["tags"]["kind"] == "abccc"
        assert span["tags"]["servers"] == 18
        assert span["tags"]["memmap"] is False
        assert scope.registry.counter_values().get("fastbuild.graphs") == 1

    def test_object_path_times_its_build(self):
        with obs.run() as scope:
            build_compiled(FatTreeSpec(4))
        phases = scope.phases()
        assert phases["topology.build"][0] == phases["topology.compile"][0] == 1
        assert "topology.fastbuild" not in phases

    def test_csr_nbytes_counts_all_arrays(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        expected = sum(
            np.asarray(a).nbytes
            for a in (
                graph.offsets,
                graph.neighbors,
                graph.server_indices,
                graph.edge_u,
                graph.edge_v,
            )
        )
        assert fastbuild.csr_nbytes(graph) == expected
