"""Micro-benchmarks: all-pairs distance sweeps on the compiled engine.

Times the cold CSR compile and the exact link-hop and server-hop sweeps
of the paper's 1024-server ABCCC(4, 3, 2) instance, sequential and with
two workers.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_distance.py \
        --benchmark-only --benchmark-json=results/bench_distance.json
"""

import pytest

from repro.core import AbcccSpec
from repro.metrics.distance import link_hop_stats, server_hop_stats
from repro.topology.compiled import compile_graph, compile_server_projection


@pytest.fixture(scope="module")
def abccc_1k():
    net = AbcccSpec(4, 3, 2).build()  # 1024 servers, 1536 nodes, 2048 links
    # Warm the compile caches so the compiled benchmarks time the sweep
    # kernels, not the one-off CSR flattening (timed separately below).
    compile_graph(net)
    compile_server_projection(net)
    return net


def test_bench_compile_graph(benchmark):
    net = AbcccSpec(4, 3, 2).build()

    def compile_cold():
        net.meta.pop("_compiled", None)
        return compile_graph(net)

    graph = benchmark(compile_cold)
    assert graph.num_servers == 1024


def test_bench_link_hops_compiled(benchmark, abccc_1k):
    stats = benchmark(link_hop_stats, abccc_1k)
    assert stats.exact
    assert stats.pairs == 1024 * 1023
    assert stats.diameter == 16


def test_bench_link_hops_compiled_workers2(benchmark, abccc_1k):
    stats = benchmark(link_hop_stats, abccc_1k, workers=2)
    assert stats.exact
    assert stats.diameter == 16


def test_bench_server_hops_compiled(benchmark, abccc_1k):
    stats = benchmark(server_hop_stats, abccc_1k)
    assert stats.exact
    assert stats.pairs == 1024 * 1023
