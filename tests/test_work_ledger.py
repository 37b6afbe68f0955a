"""Exact-work ledger: one registry counter of known complexity per layer.

Each layer runs on ``fast_compiled(AbcccSpec(...))`` at three seeded
sizes under a fresh :class:`~repro.obs.MetricsRegistry`.  Its counter
must equal the count committed below, and the least-squares log-log
slope of the three measured counts against the flow (or server) count
must stay within the layer's bound.  Counts do not drift with the host,
so this gate sees a superlinear regression at 1,024 flows where a
wall-time gate needs tens of thousands.  The traffic matrix and the
failure draw come from ``random.Random(7)``, whose stream is fixed
across Python versions; numpy's ``Generator`` methods promise no stream
across numpy releases, so they would tie the counts to one install.

A change that alters a layer's work updates its counts here and says so
in CHANGES.md.  Route repair and FCT are quadratic today (one BFS per
broken destination, one re-solve per completion batch); their bounds
admit that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro.core import AbcccSpec
from repro.faults.mask import MaskedGraph
from repro.metrics.engine import sweep_graph_distance_stats
from repro.obs import (
    MetricsRegistry,
    exposition_problems,
    render_prometheus,
    set_registry,
)
from repro.routing.batch import batch_routes
from repro.topology.compiled import CSRGraphView
from repro.topology.fastbuild import fast_compiled
from repro.topology.shm import export_graph
from repro.traffic import TrafficMatrix, fluid_fct, max_min_rates

#: permutation sizes for the near-linear layers: 1,024 / 5,184 / 15,625
LARGE = ((4, 3, 2), (6, 3, 2), (5, 4, 2))
#: sizes for the quadratic layers: 81 / 324 / 1,024
SMALL = ((3, 2, 2), (3, 3, 2), (4, 3, 2))


def _permutation(graph) -> TrafficMatrix:
    """A random cyclic derangement: each server sends one flow to the
    next in a shuffled order."""
    n = graph.num_servers
    order = np.array(random.Random(7).sample(range(n), n), dtype=np.int64)
    dst = np.empty(n, dtype=np.int64)
    dst[order] = np.roll(order, -1)
    return TrafficMatrix("permutation", n, np.arange(n), dst, np.ones(n), seed=7)


def _failures(graph) -> MaskedGraph:
    """1% of the switches and 5% of the links failed, at least one each."""
    rng = random.Random(7)
    is_server = np.zeros(graph.num_nodes, dtype=bool)
    is_server[np.asarray(graph.server_indices)] = True
    switches = np.flatnonzero(~is_server).tolist()
    edges = range(len(graph.edge_u))
    dead_nodes = rng.sample(switches, max(1, round(0.01 * len(switches))))
    dead_edges = rng.sample(edges, max(1, round(0.05 * len(edges))))
    return MaskedGraph.from_indices(graph, dead_nodes, dead_edges)


def _allocate(graph) -> None:
    max_min_rates(batch_routes(graph, _permutation(graph)))


def _fct(graph) -> None:
    fluid_fct(batch_routes(graph, _permutation(graph)), np.ones(graph.num_servers))


def _repair(graph) -> None:
    batch_routes(graph, _permutation(graph), masked=_failures(graph))


def _sweep(graph) -> None:
    sweep_graph_distance_stats(graph, sample_sources=64, seed=0, workers=1)


def _handoff(graph) -> None:
    export_graph(CSRGraphView.of(graph)).release()


@dataclass(frozen=True)
class Layer:
    """One layer's counter, workload, three sizes, counts and slope bound."""

    counter: str
    run: Callable
    sizes: Tuple[Tuple[int, int, int], ...]
    counts: Tuple[int, ...]
    slope_bound: float


LEDGER: Dict[str, Layer] = {
    "allocate": Layer(
        "traffic.allocate.entries_scanned",
        _allocate,
        LARGE,
        (49_198, 379_076, 1_740_098),
        1.5,
    ),
    "fct": Layer("traffic.fct.solves", _fct, SMALL, (23, 73, 218), 1.25),
    "routes": Layer(
        "compiled.bfs.entries", _repair, SMALL, (11_778, 159_558, 1_800_752), 2.25
    ),
    "sweep": Layer(
        "engine.sweep.word_ops", _sweep, LARGE, (69_632, 352_512, 1_312_500), 1.25
    ),
    "hand-off": Layer("shm.bytes", _handoff, LARGE, (26_640, 133_072, 400_004), 1.1),
}


@pytest.fixture(scope="module")
def measure():
    """``measure(name, which)``: ``(servers, count)`` of one ledger case,
    each case run once per module."""
    graphs: Dict[Tuple[int, int, int], object] = {}
    measured: Dict[Tuple[str, int], Tuple[int, int]] = {}

    def run(name: str, which: int) -> Tuple[int, int]:
        if (name, which) not in measured:
            layer = LEDGER[name]
            size = layer.sizes[which]
            if size not in graphs:
                graphs[size] = fast_compiled(AbcccSpec(*size))
            graph = graphs[size]
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                layer.run(graph)
            finally:
                set_registry(previous)
            count = registry.counter_values().get(layer.counter, 0)
            measured[name, which] = (graph.num_servers, int(count))
        return measured[name, which]

    return run


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


CASES = [(name, which) for name in LEDGER for which in range(3)]


@pytest.mark.parametrize(
    "name,which",
    CASES,
    ids=[f"{name}-{'.'.join(map(str, LEDGER[name].sizes[w]))}" for name, w in CASES],
)
def test_count_equals_ledger(measure, name, which):
    layer = LEDGER[name]
    servers, count = measure(name, which)
    assert count == layer.counts[which], (
        f"{layer.counter} on ABCCC{layer.sizes[which]} ({servers} servers): "
        f"measured {count}, ledger {layer.counts[which]}; all three sizes "
        f"measure {[measure(name, w)[1] for w in range(3)]}"
    )


@pytest.mark.parametrize("name", list(LEDGER))
def test_slope_within_bound(measure, name):
    layer = LEDGER[name]
    points = [measure(name, which) for which in range(3)]
    servers, counts = zip(*points)
    slope = loglog_slope(servers, counts)
    assert slope <= layer.slope_bound, (
        f"{layer.counter}: log-log slope {slope:.3f} over {servers} "
        f"(measured {list(counts)}) exceeds {layer.slope_bound}"
    )


def test_work_counters_render_as_prometheus():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        graph = fast_compiled(AbcccSpec(3, 2, 2))
        for layer in ("fct", "routes", "sweep"):
            LEDGER[layer].run(graph)
    finally:
        set_registry(previous)
    snapshot = registry.snapshot()
    counted = {entry["name"] for entry in snapshot["counters"]}
    assert {
        "traffic.allocate.entries_scanned",
        "traffic.fct.solves",
        "compiled.bfs.entries",
        "engine.sweep.word_ops",
    } <= counted
    assert exposition_problems(render_prometheus(snapshot)) == []
