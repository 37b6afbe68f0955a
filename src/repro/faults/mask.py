"""Apply failure scenarios as masks over a compiled CSR graph.

A :class:`MaskedGraph` answers every failure query in the package:
which servers survive, which still reach each other, and what the
degraded adjacency looks like.  It keeps the original
:class:`~repro.topology.compiled.CompiledGraph` and overlays a
node-alive bitmap (a numpy bool array) plus a set of dead CSR entries,
so a degradation sweep reuses one compiled graph across all its trials
instead of copying the network and recompiling per trial.

Both constructors build the mask through the same code.  The name-keyed
one resolves every dead node to a node id and every dead link to an
edge id first, and raises ``KeyError`` when the graph has no such node
or edge, so a mistyped name never silently masks nothing.  The
copy-and-recompile reference the tests hold these answers against lives
in ``tests/fault_oracle.py``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.faults.plan import FailureScenario, FaultPlan
from repro.topology.compiled import CompiledGraph, CSRGraphView


def _scenario_of(scenario) -> FailureScenario:
    return scenario.scenario if isinstance(scenario, FaultPlan) else scenario


class MaskedGraph:
    """A compiled graph with one failure scenario overlaid as masks."""

    __slots__ = (
        "graph",
        "node_alive",
        "dead_entries",
        "dead_edge_ids",
        "_labels",
        "_sweep_view",
    )

    def __init__(self, graph: CompiledGraph, scenario) -> None:
        """Overlay a name-keyed scenario (a ``FailureScenario`` or ``FaultPlan``).

        Raises ``KeyError`` naming up to five dead nodes the graph does
        not have or dead links that are not edges of it.
        """
        scenario = _scenario_of(scenario)
        index = graph.index
        unknown: List[str] = []
        dead_nodes: List[int] = []
        for name in scenario.dead_servers + scenario.dead_switches:
            node = index.get(name)
            if node is None:
                unknown.append(name)
            else:
                dead_nodes.append(node)
        dead_edges: List[int] = []
        for link in scenario.dead_links:
            try:
                dead_edges.append(graph.edge_id(index[link[0]], index[link[1]]))
            except KeyError:
                unknown.append("--".join(link))
        if unknown:
            shown = ", ".join(list(dict.fromkeys(unknown))[:5])
            raise KeyError(f"scenario names unknown nodes or links: {shown}")
        self._overlay(graph, dead_nodes, dead_edges)

    @classmethod
    def from_indices(
        cls,
        graph: CompiledGraph,
        dead_nodes: Sequence[int] = (),
        dead_edges: Sequence[int] = (),
    ) -> "MaskedGraph":
        """Overlay a failure draw given as node ids and edge ids.

        The name-free constructor for lazy-name fast graphs (apply an
        :class:`~repro.faults.plan.IndexFaultPlan`, or any id-space
        draw): no name is ever resolved or materialised.  ``dead_edges``
        are positions into ``edge_u``/``edge_v``; both CSR entries of
        each edge are masked, so sweeps and component labels see the
        same degraded adjacency the name-keyed constructor produces.
        """
        masked = cls.__new__(cls)
        masked._overlay(graph, dead_nodes, dead_edges)
        return masked

    def _overlay(
        self, graph: CompiledGraph, dead_nodes: Sequence[int], dead_edges: Sequence[int]
    ) -> None:
        self.graph = graph
        alive = _np.ones(graph.num_nodes, dtype=bool)
        alive[[int(i) for i in dead_nodes]] = False
        self.node_alive = alive
        dead_entries: Set[int] = set()
        edge_u, edge_v = graph.edge_u, graph.edge_v
        for e in dead_edges:
            u, v = int(edge_u[int(e)]), int(edge_v[int(e)])
            dead_entries.add(graph.entry_index(u, v))
            dead_entries.add(graph.entry_index(v, u))
        self.dead_entries: Optional[Set[int]] = dead_entries or None
        self.dead_edge_ids: Tuple[int, ...] = tuple(int(e) for e in dead_edges)
        self._labels = None
        self._sweep_view: Optional[CSRGraphView] = None

    # ------------------------------------------------------------------
    def component_labels(self):
        """Masked component labels (``-1`` for dead nodes), cached."""
        if self._labels is None:
            self._labels = self.graph.component_labels_masked(
                self.node_alive, self.dead_edge_ids
            )
        return self._labels

    def sweep_view(self) -> CSRGraphView:
        """Alive-only kernel view of the masked graph, cached.

        Same node-id space as the parent graph: dead nodes keep their
        ids but lose every CSR entry, dead links lose their two entries,
        and ``server_indices`` shrinks to the alive servers — so the
        sweep engine (:func:`repro.metrics.engine
        .sweep_graph_distance_stats`, :func:`~repro.metrics.engine
        .pairwise_distances`) runs on the degraded topology without a
        ``subgraph_without`` copy or recompile.  Distances between alive
        servers match compiling the failure-injected subgraph exactly.
        """
        if self._sweep_view is not None:
            return self._sweep_view
        graph = self.graph
        num_nodes = graph.num_nodes
        neighbors = _np.asarray(graph.neighbors)
        rows = graph._entry_rows()
        alive = _np.asarray(self.node_alive, dtype=bool)
        keep = alive[rows] & alive[neighbors.astype(_np.int64)]
        if self.dead_entries:
            keep[list(self.dead_entries)] = False
        kept = _np.ascontiguousarray(neighbors[keep], dtype=_np.uint32)
        counts = _np.bincount(rows[keep], minlength=num_nodes)
        offsets = _np.zeros(num_nodes + 1, dtype=_np.int64)
        _np.cumsum(counts, out=offsets[1:])
        view = CSRGraphView(
            num_nodes,
            offsets.astype(_np.uint32),
            kept,
            _np.ascontiguousarray(self.alive_server_indices(), dtype=_np.uint32),
        )
        self._sweep_view = view
        return view

    def num_alive_servers(self) -> int:
        alive = self.node_alive
        return int(_np.asarray(alive, dtype=bool)[self.graph.server_indices].sum())

    def largest_component_fraction(self) -> float:
        """Alive servers in the largest component / alive servers.

        Dead servers carry label ``-1``, so the alive-server count and
        the component membership histogram both fall out of the label
        array directly.
        """
        labels = self.component_labels()
        server_labels = _np.asarray(labels)[self.graph.server_indices]
        server_labels = server_labels[server_labels >= 0]
        if server_labels.size == 0:
            return 0.0
        return int(_np.bincount(server_labels).max()) / int(server_labels.size)

    def alive_server_indices(self):
        """Node ids of alive servers, insertion order (numpy array)."""
        servers = _np.asarray(self.graph.server_indices)
        mask = _np.asarray(self.node_alive, dtype=bool)[servers.astype(_np.int64)]
        return servers[mask]

    def cut_off_servers(self, limit: int = 10):
        """Alive servers outside the largest alive component.

        Returns ``(count, names)`` where ``names`` holds at most
        ``limit`` examples (insertion order) — the "what breaks if this
        rack dies" answer: servers that survive the failure but lose
        the majority partition.  ``(0, [])`` when no server survives.
        """
        labels = self.component_labels()
        servers = _np.asarray(self.graph.server_indices).astype(_np.int64)
        server_labels = _np.asarray(labels)[servers]
        alive = server_labels >= 0
        if not bool(alive.any()):
            return 0, []
        majority = int(_np.bincount(server_labels[alive]).argmax())
        cut = alive & (server_labels != majority)
        count = int(cut.sum())
        names = self.graph.names
        examples = [names[int(i)] for i in servers[cut][:limit]]
        return count, examples

    def connection_ratio(self, sample_pairs: int = 200, seed: int = 0) -> float:
        """Fraction of sampled alive server pairs still mutually reachable.

        One ``random.Random(seed)`` draws ``sample_pairs`` pairs of
        distinct positions, ``rng.sample(range(count), 2)`` each, into
        the insertion-ordered alive servers; no name is materialised.
        ``random.sample`` picks positions from the population's length
        alone, so the pairs equal sampling the alive-server *name* list
        with the same seed.  0.0 with fewer than two alive servers or
        no pairs to sample.
        """
        alive = self.alive_server_indices()
        count = len(alive)
        if count < 2 or sample_pairs < 1:
            return 0.0
        rng = random.Random(seed)
        positions = [rng.sample(range(count), 2) for _ in range(sample_pairs)]
        return self.panel_ratio(alive[_np.asarray(positions)])

    def panel_ratio(self, panel: Sequence[Sequence[int]]) -> float:
        """Connection ratio over a fixed panel of server *index* pairs.

        Pairs with a dead endpoint are excluded (the ratio is over alive
        pairs, like the sampled protocol); returns 0.0 when no panel
        pair survives.  This is the degradation-sweep fast path: the
        panel is drawn once per sweep, so a trial costs two list
        lookups per pair instead of an RNG draw.
        """
        labels = self.component_labels()
        arr = _np.asarray(panel)
        pu, pv = arr[:, 0], arr[:, 1]
        alive = _np.asarray(self.node_alive, dtype=bool)
        ok = alive[pu] & alive[pv]
        total = int(ok.sum())
        if not total:
            return 0.0
        lab = _np.asarray(labels)
        connected = int((ok & (lab[pu] == lab[pv])).sum())
        return connected / total
