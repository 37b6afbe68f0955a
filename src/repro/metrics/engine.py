"""Parallel all-pairs sweep engine over compiled CSR graphs.

Every distance experiment reduces to the same kernel: one BFS per source
server, histogram the distances to all other servers, merge.  This
module runs that kernel over the compiled views from
:mod:`repro.topology.compiled` and fans the source set out in chunks
over :func:`repro.pool.map_graph`, which hands the kernel view to its
workers through shared memory, once per pool.

Two public entries:

* :func:`sweep_graph_distance_stats` — **graph-native**: takes any
  :class:`~repro.topology.compiled.CompiledGraph` /
  :class:`~repro.topology.fastbuild.FastCompiledGraph` (or a
  :class:`~repro.faults.mask.MaskedGraph`, swept through its alive-only
  view), so million-server fast-built graphs are swept without ever
  constructing a ``Network``.  Above ``AUTO_SAMPLE_THRESHOLD`` servers
  it defaults to sampled-source estimation and reports a 95% confidence
  interval on the mean (``DistanceStats.mean_ci95``).
* :func:`sweep_distance_stats` — the legacy ``Network`` entry, now a
  thin compile-then-delegate wrapper producing byte-identical
  ``DistanceStats`` (asserted in ``tests/test_metrics_engine.py`` and
  ``tests/test_engine_graph_native.py``).

One BFS kernel does the work: a level-synchronous multi-source BFS
with the frontier bit-packed into uint64 words (64 sources per word).
Expansion is a CSR gather + ``bitwise_or.reduceat``, histogramming is
popcount, and distances never materialise.  Sources run in blocks sized
from ``SWEEP_BUDGET_MB``.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.metrics.distance import DistanceStats
from repro.obs import trace as _obs
from repro.pool import map_graph, resolve_workers
from repro.topology.compiled import (
    CompiledGraph,
    CSRGraphView,
    compile_graph,
    compile_server_projection,
)
from repro.topology.graph import Network

#: below this many sources the fork/pickle overhead outweighs the fan-out.
PARALLEL_THRESHOLD = 16

#: above this many servers `sweep_graph_distance_stats` defaults to
#: sampled-source estimation (exact all-pairs at 786k servers would be
#: ~6 * 10^11 BFS-pair evaluations).  The Network wrapper never
#: auto-samples: its legacy semantics are exact unless asked.
AUTO_SAMPLE_THRESHOLD = 20_000

#: sources drawn when auto-sampling kicks in.
AUTO_SAMPLE_SOURCES = 1024

#: per-block working-set budget of the bit-packed kernel, in MB
#: (gather buffer + frontier + visited + next).
SWEEP_BUDGET_MB = 192.0

def resolve_kernel(kernel: Optional[str] = None, graph: Optional[CompiledGraph] = None) -> str:
    """Name of the sweep kernel, for reports: always ``"bitpack"``.

    The bit-packed BFS below is the only kernel; both arguments are
    accepted for callers that report the kernel and are ignored.
    """
    return "bitpack"


# ----------------------------------------------------------------------
# the kernel: multi-source sweep ->
#   (histogram, unreachable count, per-source sums, per-source reached)
# ----------------------------------------------------------------------
def _hist_dict(acc) -> Dict[int, int]:
    return {int(h): int(c) for h, c in enumerate(acc) if c}


#: _BYTE_BITS[b, j] = bit j of byte b — turns per-byte-value counts
#: into per-bit counts with one (256 x 8) matmul.
_BYTE_BITS = _np.array(
    [[(b >> j) & 1 for j in range(8)] for b in range(256)], dtype=_np.int64
)
if hasattr(_np, "bitwise_count"):

    def _popcount_sum(a) -> int:
        return int(_np.bitwise_count(a).sum())

else:  # pragma: no cover - numpy < 2.0
    _POP8 = _np.array([bin(b).count("1") for b in range(256)], dtype=_np.uint8)

    def _popcount_sum(a) -> int:
        return int(_POP8[_np.ascontiguousarray(a).view(_np.uint8)].sum(dtype=_np.int64))


def _per_source_counts(bits, width: int):
    """Per-source set-bit counts of a (rows x words) uint64 bit matrix.

    Column ``j`` of the packed matrix is source ``j``: byte ``p`` of the
    little-endian word stream holds sources ``8p .. 8p+7``, so one
    bincount per byte column + the byte->bit table recovers every
    source's count without unpacking the matrix.  The words are read as
    little-endian whatever the host byte order (no copy on
    little-endian hosts).
    """
    byte_cols = (
        _np.ascontiguousarray(bits, dtype="<u8").view(_np.uint8).reshape(len(bits), -1)
    )
    out = _np.zeros(byte_cols.shape[1] * 8, dtype=_np.int64)
    for p in range(byte_cols.shape[1]):
        out[p * 8 : (p + 1) * 8] = (
            _np.bincount(byte_cols[:, p], minlength=256) @ _BYTE_BITS
        )
    return out[:width]


def _bitpack_block(nodes: int, entries: int) -> int:
    """Sources per bit-packed block, from the working-set budget.

    Each uint64 word column costs ``8 * (entries + 3 * nodes)`` bytes
    (the gather buffer dominates); the budget caps that, and 64 words
    (4096 sources) caps the per-level popcount work.  Even at 1M nodes
    the block stays in the thousands.
    """
    per_word = 8.0 * (entries + 3 * max(nodes, 1))
    words = int(SWEEP_BUDGET_MB * 1e6 // per_word)
    return 64 * max(1, min(words, 64))


class _BitExpander:
    """Frontier expansion for the bit-packed kernel.

    ``expand(frontier)[v] = OR of frontier[u] over u adjacent to v`` —
    valid as the transpose-free form because the graphs are undirected
    (CSR == its transpose).  Implemented as one gather of the neighbor
    rows plus ``bitwise_or.reduceat`` over the row starts.  ``reduceat``
    cannot express an empty slice, so when a view has degree-0 rows
    (dead nodes in masked views) it reduces over the non-empty rows only
    and scatters them into a zeroed frontier.
    """

    __slots__ = ("neighbors", "starts", "rows", "entries")

    def __init__(self, graph: CompiledGraph) -> None:
        offsets = _np.asarray(graph.offsets, dtype=_np.int64)
        self.neighbors = _np.asarray(graph.neighbors, dtype=_np.int64)
        self.entries = len(self.neighbors)
        starts = offsets[:-1]
        #: ids of the non-empty rows, or None when every row is non-empty.
        self.rows = None
        if self.entries:
            nonempty = offsets[1:] > starts
            if not bool(nonempty.all()):
                self.rows = _np.flatnonzero(nonempty)
                starts = starts[self.rows]
        self.starts = starts

    def expand(self, frontier):
        if not self.entries:
            return _np.zeros_like(frontier)
        gathered = frontier[self.neighbors]
        nxt = _np.bitwise_or.reduceat(gathered, self.starts, axis=0)
        if self.rows is None:
            return nxt
        out = _np.zeros_like(frontier)
        out[self.rows] = nxt
        return out


def _sweep_bitpack(
    graph: CompiledGraph, sources: Sequence[int], per_source: bool
) -> Tuple[Dict[int, int], int, List[int], List[int]]:
    """Bit-packed level-synchronous multi-source BFS (see module docstring).

    The frontier/visited sets of a whole block are (nodes x words)
    uint64 matrices — 64 sources per word, one bit per (node, source)
    — so a block holds thousands of sources.  Histogram increments are
    popcounts; distances never materialise.  With ``per_source`` the
    last two elements carry, per source in input order, the sum of its
    distances and its reached-target count (exact ints) — the raw
    material for the sampled-sweep confidence interval.  Distance 0
    (the source itself) is excluded; unreachable (src, dst) pairs are
    counted, not raised — the caller decides.  The counter
    ``engine.sweep.word_ops`` gains the CSR entries times uint64 words
    the frontier expansions gathered.
    """
    expander = _BitExpander(graph)
    nodes = graph.num_nodes
    targets = _np.asarray(graph.server_indices, dtype=_np.int64)
    source_arr = _np.asarray(sources, dtype=_np.int64)
    block = _bitpack_block(nodes, expander.entries)
    acc = _np.zeros(1, dtype=_np.int64)
    unreachable = 0
    sums: List[int] = []
    reached: List[int] = []
    one = _np.uint64(1)
    word_ops = 0
    for lo in range(0, len(source_arr), block):
        chunk = source_arr[lo : lo + block]
        width = len(chunk)
        words = (width + 63) // 64
        col = _np.arange(width, dtype=_np.int64)
        frontier = _np.zeros((nodes, words), dtype=_np.uint64)
        frontier[chunk, col >> 6] = one << (col & 63).astype(_np.uint64)
        visited = frontier.copy()
        if per_source:
            chunk_sums = _np.zeros(width, dtype=_np.int64)
            chunk_reached = _np.zeros(width, dtype=_np.int64)
        level = 0
        while True:
            level += 1
            nxt = expander.expand(frontier)
            word_ops += expander.entries * words
            nxt &= ~visited
            if not nxt.any():
                break
            hit = nxt[targets]
            count = _popcount_sum(hit)
            if count:
                if level >= acc.size:
                    grown = _np.zeros(level + 1, dtype=_np.int64)
                    grown[: acc.size] = acc
                    acc = grown
                acc[level] += count
                if per_source:
                    per = _per_source_counts(hit, width)
                    chunk_sums += level * per
                    chunk_reached += per
            visited |= nxt
            frontier = nxt
        unreachable += width * len(targets) - _popcount_sum(visited[targets])
        if per_source:
            sums.extend(int(v) for v in chunk_sums)
            reached.extend(int(v) for v in chunk_reached)
    _obs.counter("engine.sweep.word_ops", word_ops)
    return _hist_dict(acc), unreachable, sums, reached


def pairwise_distances(
    graph: CompiledGraph, pairs: Sequence[Tuple[int, int]]
) -> List[int]:
    """Hop distance for each ``(src, dst)`` node-index pair (-1 = unreachable).

    Sources are deduplicated and run through the bit-packed block BFS,
    so a panel of hundreds of pairs costs a handful of block expansions
    instead of one full BFS per distinct source.  Instead of
    materialising distance columns, each pair watches one (row, word,
    bit) cell of the packed frontier and records the level at which its
    destination's bit first appears.  Used by the fault-routing
    experiments for their shortest-path baselines.
    """
    sources = sorted({u for u, _ in pairs})
    expander = _BitExpander(graph)
    nodes = graph.num_nodes
    block = _bitpack_block(nodes, expander.entries)
    position = {src: j for j, src in enumerate(sources)}
    results = [-1] * len(pairs)
    one = _np.uint64(1)
    for lo in range(0, len(sources), block):
        chunk = _np.asarray(sources[lo : lo + block], dtype=_np.int64)
        width = len(chunk)
        words = (width + 63) // 64
        col = _np.arange(width, dtype=_np.int64)
        frontier = _np.zeros((nodes, words), dtype=_np.uint64)
        frontier[chunk, col >> 6] = one << (col & 63).astype(_np.uint64)
        visited = frontier.copy()
        watch_ids: List[int] = []
        watch_row: List[int] = []
        watch_word: List[int] = []
        watch_mask: List[int] = []
        for i, (u, v) in enumerate(pairs):
            j = position[u]
            if not lo <= j < lo + width:
                continue
            if u == v:
                results[i] = 0
                continue
            watch_ids.append(i)
            watch_row.append(v)
            watch_word.append((j - lo) >> 6)
            watch_mask.append(1 << ((j - lo) & 63))
        ids = _np.asarray(watch_ids, dtype=_np.int64)
        row = _np.asarray(watch_row, dtype=_np.int64)
        word = _np.asarray(watch_word, dtype=_np.int64)
        mask = _np.asarray(watch_mask, dtype=_np.uint64)
        pending = _np.ones(len(ids), dtype=bool)
        level = 0
        while pending.any():
            level += 1
            nxt = expander.expand(frontier)
            nxt &= ~visited
            if not nxt.any():
                break
            found = pending & ((nxt[row, word] & mask) != 0)
            for i in ids[found]:
                results[int(i)] = level
            pending &= ~found
            visited |= nxt
            frontier = nxt
    return results


# ----------------------------------------------------------------------
# the fan-out: one task per chunk of sources
# ----------------------------------------------------------------------
def _sweep_chunk(graph: CompiledGraph, sources: Sequence[int], per_source: bool):
    """One chunk of a sweep, in a pool worker, the fallback or in-process."""
    with _obs.span("engine.batch", sources=len(sources)):
        _obs.counter("engine.batches")
        _obs.counter("engine.sources", len(sources))
        return _sweep_bitpack(graph, sources, per_source)


def _chunk(sources: Sequence[int], workers: int) -> List[Sequence[int]]:
    """Split sources into ~4 chunks per worker for load balancing."""
    per = max(1, math.ceil(len(sources) / (workers * 4)))
    return [sources[i : i + per] for i in range(0, len(sources), per)]


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def _mean_ci95(sums: Sequence[int], reached: Sequence[int]) -> float:
    """95% CI half-width of the mean distance, from per-source stats.

    Sources are the independent sampling unit, so the CI comes from the
    spread of per-source mean distances (sources that reach nothing are
    excluded — with drop semantics they contribute no pairs).  Inputs
    are exact ints from the kernel, so the result is bit-identical
    across the parallel/sequential paths.
    """
    means = [s / r for s, r in zip(sums, reached) if r]
    k = len(means)
    if k < 2:
        return 0.0
    mu = sum(means) / k
    var = sum((m - mu) ** 2 for m in means) / (k - 1)
    return 1.96 * math.sqrt(var / k)


def _graph_label(graph) -> str:
    layout = getattr(graph, "layout", None)
    if layout is not None:
        return layout.label()
    return f"<{type(graph).__name__}: {graph.num_servers} servers>"


def sweep_graph_distance_stats(
    graph,
    *,
    sample_sources: Optional[int] = None,
    seed: int = 0,
    workers: Optional[int] = None,
    unreachable: Optional[str] = None,
    auto_sample: bool = True,
    auto_sample_threshold: Optional[int] = None,
    label: Optional[str] = None,
) -> DistanceStats:
    """All-pairs (or sampled-source) server distance stats of a graph.

    The graph-native sweep entry: ``graph`` is any
    :class:`CompiledGraph` (including :class:`FastCompiledGraph` and
    :class:`CSRGraphView`) — or a
    :class:`~repro.faults.mask.MaskedGraph`, which is swept through its
    alive-only :meth:`~repro.faults.mask.MaskedGraph.sweep_view` so
    degraded topologies need no subgraph copy or recompile.

    ``unreachable`` decides what an unreachable (src, dst) pair does:
    ``"raise"`` (the default for plain graphs, matching the legacy
    Network path) or ``"drop"`` (the default for masked graphs — the
    pair is excluded from ``pairs`` and the mean).

    With ``sample_sources`` the sweep runs one BFS per sampled source:
    the diameter becomes a lower bound, the mean stays unbiased, and
    ``DistanceStats.mean_ci95`` carries a 95% confidence half-width
    from the per-source spread.  Above ``auto_sample_threshold``
    servers (default :data:`AUTO_SAMPLE_THRESHOLD`) sampling of
    :data:`AUTO_SAMPLE_SOURCES` sources becomes the default — exact
    all-pairs at that scale must be requested via
    ``auto_sample=False``.
    """
    if hasattr(graph, "sweep_view"):  # a MaskedGraph (duck-typed: no import cycle)
        view = graph.sweep_view()
        if unreachable is None:
            unreachable = "drop"
        if label is None:
            label = f"masked {_graph_label(graph.graph)}"
    else:
        view = graph
    if unreachable is None:
        unreachable = "raise"
    if unreachable not in ("raise", "drop"):
        raise ValueError(
            f"unreachable must be 'raise' or 'drop', got {unreachable!r}"
        )
    if label is None:
        label = _graph_label(view)

    servers = view.server_indices
    num_servers = len(servers)
    if num_servers < 2:
        return DistanceStats(diameter=0, mean=0.0, histogram={}, pairs=0, exact=True)

    threshold = (
        AUTO_SAMPLE_THRESHOLD if auto_sample_threshold is None else auto_sample_threshold
    )
    if sample_sources is None and auto_sample and num_servers > threshold:
        sample_sources = min(AUTO_SAMPLE_SOURCES, num_servers)
        _obs.event(
            "auto-sample",
            f"{label}: {num_servers} servers exceed the exact-sweep "
            f"threshold; sampling {sample_sources} sources",
            servers=num_servers,
            sources=sample_sources,
        )
    exact = sample_sources is None or sample_sources >= num_servers
    if exact:
        source_idx = [int(i) for i in servers]
    else:
        # Sample *positions*, not names: random.sample picks the same
        # positions for any equal-length population, so this matches the
        # legacy sample-the-name-list semantics bit for bit without
        # materialising a single name (LazyNames stays lazy).
        positions = random.Random(seed).sample(range(num_servers), sample_sources)
        source_idx = [int(servers[p]) for p in positions]

    per_source = not exact
    workers = resolve_workers(workers)
    pooled = workers > 1 and len(source_idx) >= max(PARALLEL_THRESHOLD, 2 * workers)
    chunks = _chunk(source_idx, workers) if pooled else [source_idx]
    results: List = [None] * len(chunks)
    with _obs.span(
        "engine.sweep",
        sources=len(source_idx),
        workers=workers,
        exact=exact,
    ):
        for index, result in map_graph(
            functools.partial(_sweep_chunk, per_source=per_source),
            CSRGraphView.of(view),
            chunks,
            workers=workers if pooled else 1,
            context="all-pairs distance sweep",
        ):
            results[index] = result
    # merged in task order, so the per-source lists (and mean_ci95) are
    # bit-identical whatever the chunking
    histogram: Counter = Counter()
    missed = 0
    sums: List[int] = []
    reached: List[int] = []
    for chunk_histogram, chunk_missed, chunk_sums, chunk_reached in results:
        histogram.update(chunk_histogram)
        missed += chunk_missed
        sums.extend(chunk_sums)
        reached.extend(chunk_reached)
    if missed and unreachable == "raise":
        raise ValueError(
            f"{missed} (src, dst) server pairs unreachable in {label}"
        )

    pairs = len(source_idx) * (num_servers - 1)
    if unreachable == "drop":
        pairs -= missed
    total = sum(h * c for h, c in histogram.items())
    return DistanceStats(
        diameter=max(histogram) if histogram else 0,
        mean=total / pairs if pairs else 0.0,
        histogram=dict(sorted(histogram.items())),
        pairs=pairs,
        exact=exact,
        mean_ci95=_mean_ci95(sums, reached) if per_source else 0.0,
    )


def sweep_distance_stats(
    net: Network,
    hops: str = "link",
    sample_sources: Optional[int] = None,
    seed: int = 0,
    workers: Optional[int] = None,
) -> DistanceStats:
    """All-pairs (or sampled-source) server distance stats for ``net``.

    ``hops`` selects the compiled view: ``"link"`` (physical link hops
    over the full graph) or ``"server"`` (logical server hops over the
    server projection).  A thin compile-then-delegate wrapper over
    :func:`sweep_graph_distance_stats`; sampling semantics, seeding and
    the resulting :class:`DistanceStats` match the legacy pure-Python
    sweep exactly (never auto-sampled, unreachable pairs raise).
    """
    if hops == "link":
        graph = compile_graph(net)
    elif hops == "server":
        graph = compile_server_projection(net)
    else:
        raise ValueError(f"hops must be 'link' or 'server', got {hops!r}")
    return sweep_graph_distance_stats(
        graph,
        sample_sources=sample_sources,
        seed=seed,
        workers=workers,
        auto_sample=False,
        label=f"{net.name!r} ({hops} hops)",
    )
