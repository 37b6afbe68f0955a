"""Parity: compiled sweep engine vs the legacy pure-Python distance path.

The acceptance bar for the engine is *byte-identical* ``DistanceStats``
(diameter, mean, histogram, pairs, exact) against the dict-BFS reference
on every topology family — including after failures, which exercises the
compile-cache invalidation keyed on ``Network.version``.
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

from repro.baselines import BcubeSpec, DcellSpec, FiconnSpec, JellyfishSpec
from repro.core import AbcccSpec
from repro.metrics.distance import link_hop_stats, server_hop_stats
from repro.metrics.engine import PARALLEL_THRESHOLD, sweep_distance_stats
from repro.pool import resolve_workers, set_default_workers
from tests.hop_oracle import legacy_link_hop_stats, legacy_server_hop_stats

# Jellyfish is switch-centric: its server "projection" is edgeless, so
# server-hop parity is only meaningful on the server-centric families.
FAMILIES = {
    "abccc": lambda: AbcccSpec(3, 1, 2).build(),
    "bcube": lambda: BcubeSpec(3, 1).build(),
    "dcell": lambda: DcellSpec(3, 1).build(),
    "ficonn": lambda: FiconnSpec(4, 1).build(),
    "jellyfish": lambda: JellyfishSpec(8, 6, 2, seed=1).build(),
}
SERVER_CENTRIC = ("abccc", "bcube", "dcell", "ficonn")


def assert_identical(got, want):
    assert got.diameter == want.diameter
    assert got.mean == want.mean
    assert got.histogram == want.histogram
    assert all(
        isinstance(k, int) and isinstance(v, int) for k, v in got.histogram.items()
    )
    assert got.pairs == want.pairs
    assert got.exact == want.exact


class TestLinkHopParity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exact(self, family):
        net = FAMILIES[family]()
        assert_identical(link_hop_stats(net), legacy_link_hop_stats(net))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sampled_sources_match_legacy_sampling(self, family):
        net = FAMILIES[family]()
        got = link_hop_stats(net, sample_sources=5, seed=7)
        want = legacy_link_hop_stats(net, sample_sources=5, seed=7)
        assert_identical(got, want)
        assert not got.exact

    def test_parallel_path_matches_sequential(self):
        net = AbcccSpec(3, 2, 2).build()
        sequential = link_hop_stats(net, workers=1)
        parallel = link_hop_stats(net, workers=2)
        assert_identical(parallel, sequential)


class TestServerHopParity:
    @pytest.mark.parametrize("family", SERVER_CENTRIC)
    def test_exact(self, family):
        net = FAMILIES[family]()
        assert_identical(server_hop_stats(net), legacy_server_hop_stats(net))

    @pytest.mark.parametrize("family", SERVER_CENTRIC)
    def test_sampled(self, family):
        net = FAMILIES[family]()
        assert_identical(
            server_hop_stats(net, sample_sources=4, seed=3),
            legacy_server_hop_stats(net, sample_sources=4, seed=3),
        )


class TestCacheInvalidationParity:
    def test_parity_after_link_removal(self):
        net = AbcccSpec(3, 1, 2).build()
        link_hop_stats(net)  # warm the compile cache
        removable = next(net.links())
        net.remove_link(removable.u, removable.v)
        assert_identical(link_hop_stats(net), legacy_link_hop_stats(net))

    def test_parity_after_node_removal(self):
        net = BcubeSpec(3, 1).build()
        server_hop_stats(net)  # warm both cached views
        net.remove_node(net.servers[0])
        assert_identical(link_hop_stats(net), legacy_link_hop_stats(net))
        assert_identical(server_hop_stats(net), legacy_server_hop_stats(net))

    def test_unreachable_pairs_raise_like_legacy(self):
        net = AbcccSpec(3, 1, 2).build()
        victim = net.servers[0]
        for neighbour in list(net.neighbors(victim)):
            net.remove_link(victim, neighbour)
        with pytest.raises(ValueError, match="unreachable"):
            link_hop_stats(net)
        with pytest.raises(ValueError, match="unreachable"):
            legacy_link_hop_stats(net)


class TestEngineKnobs:
    def test_default_workers_roundtrip(self):
        previous = set_default_workers(4)
        try:
            assert resolve_workers(None) == 4
            assert resolve_workers(2) == 2
        finally:
            set_default_workers(previous)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_garbage_env_warns_and_falls_back(self, monkeypatch):
        import warnings

        from repro.pool import get_default_workers

        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS='lots'"):
            assert resolve_workers(None) == get_default_workers()
        # Explicit argument still wins, silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(2) == 2

    def test_zero_means_all_cores(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_small_graph_stays_sequential(self):
        # Fewer sources than the threshold: parallel request must still be
        # correct (engine silently falls back to in-process sweep).
        net = AbcccSpec(3, 1, 2).build()
        sample = min(PARALLEL_THRESHOLD - 1, net.num_servers)
        got = sweep_distance_stats(net, sample_sources=sample, seed=0, workers=8)
        want = legacy_link_hop_stats(net, sample_sources=sample, seed=0)
        assert_identical(got, want)


if HAVE_HYPOTHESIS:

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        sample=st.one_of(st.none(), st.integers(min_value=2, max_value=6)),
    )
    def test_property_engine_matches_legacy(n, seed, sample):
        net = AbcccSpec(n, 1, 2).build()
        got = link_hop_stats(net, sample_sources=sample, seed=seed)
        want = legacy_link_hop_stats(net, sample_sources=sample, seed=seed)
        assert_identical(got, want)


class TestPoolRecovery:
    """A crashed or unbuildable worker pool must never kill the caller,
    and degrading to sequential must be loud, not silent."""

    @staticmethod
    def _call(fn=None, **overrides):
        from repro.pool import map_graph
        from repro.topology.fastbuild import fast_compiled

        kwargs = dict(workers=2, context="unit test")
        kwargs.update(overrides)
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        results = dict(map_graph(fn or _times_ten, graph, [1, 2, 3], **kwargs))
        return [results[index] for index in range(3)]

    def test_healthy_pool_no_warning(self, recwarn):
        assert self._call() == [10, 20, 30]
        from repro.pool import DegradedModeWarning

        assert not [w for w in recwarn.list if w.category is DegradedModeWarning]

    def test_always_broken_pool_degrades_loudly(self, monkeypatch):
        from repro import pool

        class AlwaysBroken:
            def __init__(self, *args, **kwargs):
                raise OSError("no fork for you")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", AlwaysBroken)
        monkeypatch.setattr(pool, "POOL_RETRY_BACKOFF_S", 0.0)
        with pytest.warns(pool.DegradedModeWarning, match="unit test"):
            assert self._call() == [10, 20, 30]

    def test_fails_once_then_recovers_without_warning(self, monkeypatch, recwarn):
        from repro import pool

        real_pool = pool.ProcessPoolExecutor
        attempts = []

        class FlakyPool:
            def __init__(self, *args, **kwargs):
                attempts.append(1)
                if len(attempts) == 1:
                    raise OSError("transient fork failure")
                self._pool = real_pool(*args, **kwargs)

            def __enter__(self):
                return self._pool.__enter__()

            def __exit__(self, *exc):
                return self._pool.__exit__(*exc)

        monkeypatch.setattr(pool, "ProcessPoolExecutor", FlakyPool)
        monkeypatch.setattr(pool, "POOL_RETRY_BACKOFF_S", 0.0)
        assert self._call() == [10, 20, 30]
        assert len(attempts) == 2  # first crashed, retry succeeded
        assert not [
            w for w in recwarn.list if w.category is pool.DegradedModeWarning
        ]

    def test_unpicklable_task_degrades_loudly(self, monkeypatch):
        from repro import pool

        monkeypatch.setattr(pool, "POOL_RETRY_BACKOFF_S", 0.0)
        unpicklable = lambda graph, x: x + 1  # noqa: E731 — lambdas cannot pickle
        with pytest.warns(pool.DegradedModeWarning, match="pickle test"):
            assert self._call(unpicklable, context="pickle test") == [2, 3, 4]


def _times_ten(graph, x):
    return x * 10
