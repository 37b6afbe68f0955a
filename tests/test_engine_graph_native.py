"""Graph-native sweep engine: parity, the BFS oracle, sampling, masking.

The contracts under test:

* ``sweep_graph_distance_stats(compile_graph(net))`` ==
  ``sweep_distance_stats(net)`` == the legacy dict-BFS reference —
  field for field, exact and sampled.
* The bit-packed kernel agrees with an independent oracle — one
  ``CompiledGraph.bfs_distances`` (frontier gather + ``np.unique``) per
  source — on histograms, unreachable counts, per-source sums and the
  sampled-mean confidence interval, across block boundaries, on masked
  views, and for ``pairwise_distances``.
* Index-based source sampling draws the same sources as the legacy
  name-based sampling for any seed (``random.Random(seed).sample``
  over positions vs over the name list).
* Fast-built graphs (no ``Network``) sweep to the same stats as the
  object path.
* ``MaskedGraph.sweep_view()`` reproduces compile-the-subgraph stats.
* Parallel sweeps hand the graph to workers through shared memory and
  release every segment, even when the pool degrades.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter

import numpy as np
import pytest

from repro.baselines import DcellSpec, FiconnSpec
from repro.core import AbcccSpec
from repro.faults import FailureScenario, MaskedGraph
from repro.metrics import engine
from repro.metrics.engine import (
    PARALLEL_THRESHOLD,
    resolve_kernel,
    sweep_distance_stats,
    sweep_graph_distance_stats,
    pairwise_distances,
)
from repro.topology import shm
from repro.topology.compiled import CSRGraphView, compile_graph
from tests.hop_oracle import legacy_link_hop_stats


def assert_identical(got, want, ci: bool = False):
    assert got.diameter == want.diameter
    assert got.mean == want.mean
    assert got.histogram == want.histogram
    assert got.pairs == want.pairs
    assert got.exact == want.exact
    if ci:
        assert got.mean_ci95 == want.mean_ci95


class TestGraphNativeParity:
    @pytest.mark.parametrize(
        "spec",
        [AbcccSpec(3, 1, 2), DcellSpec(3, 1), FiconnSpec(4, 1)],
        ids=lambda s: s.label,
    )
    def test_exact_matches_network_and_legacy(self, spec):
        net = spec.build()
        want = legacy_link_hop_stats(net)
        via_net = sweep_distance_stats(net)
        via_graph = sweep_graph_distance_stats(compile_graph(net))
        assert_identical(via_net, want)
        assert_identical(via_graph, want)
        assert via_graph.exact and via_graph.mean_ci95 == 0.0

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_sampled_sources_match_legacy_sampling(self, seed):
        # Position-based sampling must pick the same sources as the
        # legacy name-list sampling for the same seed.
        net = AbcccSpec(3, 1, 2).build()
        want = legacy_link_hop_stats(net, sample_sources=5, seed=seed)
        via_net = sweep_distance_stats(net, sample_sources=5, seed=seed)
        via_graph = sweep_graph_distance_stats(
            compile_graph(net), sample_sources=5, seed=seed
        )
        assert_identical(via_net, want)
        assert_identical(via_graph, want)

    def test_unreachable_raises_with_graph_label(self):
        net = AbcccSpec(3, 1, 2).build()
        # Cutting one server's every link disconnects it.
        victim = net.servers[0]
        dead_links = [
            (victim, other) for other in list(net.neighbors(victim))
        ]
        broken = net.subgraph_without(dead_links=dead_links)
        with pytest.raises(ValueError, match="unreachable"):
            sweep_graph_distance_stats(compile_graph(broken))


class TestSampling:
    def test_auto_sample_above_threshold(self, monkeypatch):
        from repro.metrics import engine

        net = AbcccSpec(3, 1, 2).build()
        graph = compile_graph(net)
        # Sampling every source degenerates to exact, so shrink the cap.
        monkeypatch.setattr(engine, "AUTO_SAMPLE_SOURCES", 6)
        stats = sweep_graph_distance_stats(graph, auto_sample_threshold=10)
        assert not stats.exact
        want = sweep_graph_distance_stats(graph, sample_sources=6, seed=0)
        assert_identical(stats, want, ci=True)
        off = sweep_graph_distance_stats(
            graph, auto_sample_threshold=10, auto_sample=False
        )
        assert off.exact

    def test_network_wrapper_never_auto_samples(self):
        net = AbcccSpec(3, 1, 2).build()
        stats = sweep_distance_stats(net)
        assert stats.exact

    def test_ci_zero_for_exact(self):
        graph = compile_graph(AbcccSpec(3, 1, 2).build())
        assert sweep_graph_distance_stats(graph).mean_ci95 == 0.0


class TestFastBuiltGraphs:
    def test_fastbuild_sweep_matches_object_path(self):
        spec = AbcccSpec(4, 2, 2)
        graph = spec.compiled()
        want = sweep_distance_stats(spec.build())
        got = sweep_graph_distance_stats(graph)
        assert_identical(got, want)

    def test_fastbuild_sampled_with_lazy_names(self):
        # Sampling must not materialize the name list: sources are drawn
        # as positions into server_indices.
        spec = AbcccSpec(4, 2, 2)
        graph = spec.compiled()
        want = sweep_distance_stats(spec.build(), sample_sources=8, seed=1)
        got = sweep_graph_distance_stats(graph, sample_sources=8, seed=1)
        assert_identical(got, want)


class TestMaskedSweep:
    def test_masked_graph_matches_subgraph_compile(self):
        net = AbcccSpec(3, 1, 2).build()
        graph = compile_graph(net)
        victim = net.servers[3]
        u, v = net.servers[0], None
        for cand in net.neighbors(u):
            if net.node(cand).is_server:
                v = cand
                break
        scenario = FailureScenario(
            dead_servers=(victim,),
            dead_switches=(),
            dead_links=((u, v),) if v else (),
        )
        masked = MaskedGraph(graph, scenario)
        got = sweep_graph_distance_stats(masked)
        alive = net.subgraph_without(
            dead_nodes=[victim], dead_links=[(u, v)] if v else []
        )
        want = sweep_distance_stats(alive)
        assert got.diameter == want.diameter
        assert got.mean == want.mean
        assert got.histogram == want.histogram
        assert got.pairs == want.pairs

    def test_masked_default_drops_unreachable(self):
        # Killing a switch in BCCC (s=2) can strand nothing, so cut a
        # server off by links instead: masked sweeps drop those pairs
        # rather than raising.
        net = AbcccSpec(3, 1, 2).build()
        graph = compile_graph(net)
        victim = net.servers[0]
        scenario = FailureScenario(
            dead_servers=(),
            dead_switches=(),
            dead_links=tuple((victim, o) for o in net.neighbors(victim)),
        )
        stats = sweep_graph_distance_stats(MaskedGraph(graph, scenario))
        full = net.num_servers
        # victim is alive but unreachable: its pairs drop from the count.
        assert stats.pairs == (full - 1) * (full - 2)
        assert sum(stats.histogram.values()) == stats.pairs

    def test_sweep_view_feeds_pairwise(self):
        net = AbcccSpec(3, 1, 2).build()
        graph = compile_graph(net)
        scenario = FailureScenario(
            dead_servers=(net.servers[5],), dead_switches=(), dead_links=()
        )
        view = MaskedGraph(graph, scenario).sweep_view()
        assert isinstance(view, CSRGraphView)
        index = graph.index
        alive = net.subgraph_without(dead_nodes=[net.servers[5]])
        ga = compile_graph(alive)
        pairs = [(alive.servers[0], alive.servers[-1]), (alive.servers[2], alive.servers[7])]
        want = pairwise_distances(ga, [(ga.index[a], ga.index[b]) for a, b in pairs])
        got = pairwise_distances(view, [(index[a], index[b]) for a, b in pairs])
        assert got == want


class TestParallelHandoff:
    def test_parallel_matches_sequential_and_releases_shm(self):
        net = AbcccSpec(3, 1, 2).build()
        sample = max(PARALLEL_THRESHOLD, 2 * 2)
        want = sweep_distance_stats(net, sample_sources=sample, seed=0)
        got = sweep_distance_stats(net, sample_sources=sample, seed=0, workers=2)
        assert_identical(got, want)
        assert shm.owned_segments() == ()

    def test_degraded_pool_still_releases_shm(self, monkeypatch):
        from repro import pool

        class AlwaysBroken:
            def __init__(self, *a, **k):
                raise OSError("no semaphores here")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", AlwaysBroken)
        monkeypatch.setattr(pool, "POOL_RETRY_BACKOFF_S", 0.0)
        net = AbcccSpec(3, 1, 2).build()
        sample = max(PARALLEL_THRESHOLD, 4)
        want = sweep_distance_stats(net, sample_sources=sample, seed=0)
        with pytest.warns(pool.DegradedModeWarning):
            got = sweep_distance_stats(
                net, sample_sources=sample, seed=0, workers=2
            )
        assert_identical(got, want)
        assert shm.owned_segments() == ()


class TestCSRGraphView:
    def test_view_of_is_idempotent_and_kernel_only(self):
        graph = compile_graph(AbcccSpec(3, 1, 2).build())
        view = CSRGraphView.of(graph)
        assert CSRGraphView.of(view) is view
        assert view.num_nodes == graph.num_nodes
        assert view.num_servers == graph.num_servers
        with pytest.raises(TypeError):
            view.names
        with pytest.raises(TypeError):
            view.index

    def test_view_sweep_matches_graph(self):
        graph = compile_graph(AbcccSpec(3, 1, 2).build())
        want = sweep_graph_distance_stats(graph)
        got = sweep_graph_distance_stats(CSRGraphView.of(graph))
        assert_identical(got, want)


def bfs_oracle(view, sources):
    """Per-source ``bfs_distances`` sweep, the bit-packed kernel's oracle.

    Returns what the kernel returns: the server-target histogram of
    positive distances, the unreachable (src, dst) count, and per source
    the distance sum and reached-target count.
    """
    targets = np.asarray(view.server_indices, dtype=np.int64)
    histogram: Counter = Counter()
    unreachable = 0
    sums, reached = [], []
    for src in sources:
        dist = view.bfs_distances(int(src))[targets]
        unreachable += int((dist < 0).sum())
        hops = dist[dist > 0]
        histogram.update(int(h) for h in hops)
        sums.append(int(hops.sum()))
        reached.append(int(hops.size))
    return dict(histogram), unreachable, sums, reached


def oracle_stats(view, sample_sources=None, seed=0, drop=False):
    """``DistanceStats`` fields the sweep must report, from the oracle."""
    servers = [int(i) for i in view.server_indices]
    exact = sample_sources is None
    if exact:
        sources = servers
    else:
        positions = random.Random(seed).sample(range(len(servers)), sample_sources)
        sources = [servers[p] for p in positions]
    histogram, missed, sums, reached = bfs_oracle(view, sources)
    pairs = len(sources) * (len(servers) - 1) - (missed if drop else 0)
    means = [s / r for s, r in zip(sums, reached) if r]
    ci = 0.0 if exact else 1.96 * statistics.stdev(means) / math.sqrt(len(means))
    return sources, {
        "diameter": max(histogram),
        "mean": sum(h * c for h, c in histogram.items()) / pairs,
        "histogram": histogram,
        "pairs": pairs,
        "exact": exact,
        "mean_ci95": ci,
    }


def assert_matches_oracle(stats, want):
    ci = want.pop("mean_ci95")
    assert stats.mean_ci95 == pytest.approx(ci, rel=1e-12, abs=0.0)
    for field, value in want.items():
        assert getattr(stats, field) == value, field


#: graphs that are not vertex-transitive, so sampled CIs are positive.
ORACLE_GRAPHS = {"ficonn": FiconnSpec(4, 2), "dcell": DcellSpec(2, 2)}


class TestBfsOracle:
    def test_resolve_kernel_reports_bitpack(self):
        graph = compile_graph(AbcccSpec(3, 1, 2).build())
        assert resolve_kernel() == "bitpack"
        assert resolve_kernel(None, graph) == "bitpack"

    @pytest.mark.parametrize("sample", [None, 12], ids=["exact", "sampled"])
    @pytest.mark.parametrize("family", sorted(ORACLE_GRAPHS))
    def test_sweep_matches_bfs_oracle(self, family, sample):
        graph = compile_graph(ORACLE_GRAPHS[family].build())
        sources, want = oracle_stats(graph, sample, seed=3)
        assert engine._sweep_bitpack(graph, sources, True) == bfs_oracle(graph, sources)
        stats = sweep_graph_distance_stats(graph, sample_sources=sample, seed=3)
        if sample:
            assert want["mean_ci95"] > 0.0
        assert_matches_oracle(stats, want)

    @pytest.mark.parametrize("sample", [None, 100], ids=["exact", "sampled"])
    def test_multi_block_sweep_matches_bfs_oracle(self, monkeypatch, sample):
        # A zero budget floors the block at one uint64 word: 64 sources,
        # so DCell(3, 2)'s 156 servers span three blocks.
        monkeypatch.setattr(engine, "SWEEP_BUDGET_MB", 0.0)
        graph = compile_graph(DcellSpec(3, 2).build())
        assert engine._bitpack_block(graph.num_nodes, len(graph.neighbors)) == 64
        sources, want = oracle_stats(graph, sample, seed=1)
        assert len(sources) > 64
        assert engine._sweep_bitpack(graph, sources, True) == bfs_oracle(graph, sources)
        stats = sweep_graph_distance_stats(graph, sample_sources=sample, seed=1)
        assert_matches_oracle(stats, want)
        rng = random.Random(2)
        pairs = [(u, rng.choice(sources)) for u in sources]
        want_pairs = [int(graph.bfs_distances(u)[v]) for u, v in pairs]
        assert pairwise_distances(graph, pairs) == want_pairs

    @pytest.mark.parametrize("sample", [None, 10], ids=["exact", "sampled"])
    def test_masked_view_matches_bfs_oracle(self, sample):
        # Dead nodes leave degree-0 rows in the view, including the last
        # row (the last-compiled switch), which the rows before it must
        # not lose entries to.  A server cut off by links stays alive but
        # unreachable, so "drop" removes its pairs instead of raising.
        net = AbcccSpec(3, 2, 2).build()
        graph = compile_graph(net)
        first_switch = next(n.name for n in net.nodes() if n.is_switch)
        last_switch = graph.names[-1]
        victim = net.servers[7]
        scenario = FailureScenario(
            dead_servers=(net.servers[0],),
            dead_switches=(first_switch, last_switch),
            dead_links=tuple((victim, other) for other in net.neighbors(victim)),
        )
        masked = MaskedGraph(graph, scenario)
        view = masked.sweep_view()
        degree = np.diff(np.asarray(view.offsets, dtype=np.int64))
        assert degree[-1] == 0 and int((degree == 0).sum()) >= 4
        sources, want = oracle_stats(view, sample, seed=5, drop=True)
        histogram, missed, sums, reached = bfs_oracle(view, sources)
        assert missed > 0 and 0 in reached
        assert engine._sweep_bitpack(view, sources, True) == (
            histogram, missed, sums, reached
        )
        stats = sweep_graph_distance_stats(masked, sample_sources=sample, seed=5)
        assert_matches_oracle(stats, want)
        cut = graph.index[victim]
        pairs = [(u, v) for u in sources[:4] for v in sources[-4:] + [cut]]
        pairs.append((cut, sources[0]))
        want_pairs = [int(view.bfs_distances(u)[v]) for u, v in pairs]
        assert -1 in want_pairs
        assert pairwise_distances(view, pairs) == want_pairs

    def test_pairwise_matches_bfs_oracle(self):
        graph = compile_graph(FiconnSpec(4, 2).build())
        servers = [int(i) for i in graph.server_indices]
        rng = random.Random(9)
        pairs = [tuple(rng.sample(servers, 2)) for _ in range(40)]
        pairs += [(servers[0], servers[0]), (servers[5], servers[5])]
        want = [int(graph.bfs_distances(u)[v]) for u, v in pairs]
        assert pairwise_distances(graph, pairs) == want
        assert want[-2:] == [0, 0]

    def test_pairwise_empty_and_single_source(self):
        graph = compile_graph(FiconnSpec(4, 2).build())
        servers = [int(i) for i in graph.server_indices]
        assert pairwise_distances(graph, []) == []
        src = servers[3]
        pairs = [(src, v) for v in servers[:10]]
        dist = graph.bfs_distances(src)
        assert pairwise_distances(graph, pairs) == [int(dist[v]) for _, v in pairs]

    def test_per_source_counts_reads_words_little_endian(self):
        # Source j lives in bit j & 63 of word j >> 6, whatever the byte
        # order the words are stored in.
        rng = np.random.default_rng(0)
        width = 150
        bits = rng.integers(
            0, np.iinfo(np.uint64).max, size=(37, 3), dtype=np.uint64, endpoint=True
        )
        want = [
            int(((bits[:, j >> 6] >> np.uint64(j & 63)) & np.uint64(1)).sum())
            for j in range(width)
        ]
        for stored in (bits, bits.astype(">u8")):
            assert engine._per_source_counts(stored, width).tolist() == want
