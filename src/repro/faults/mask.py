"""Apply failure scenarios as masks over a compiled CSR graph.

The historic failure path materialises every trial:
``subgraph_without`` copies the dict graph, ``compile_graph`` rebuilds
the CSR arrays, and only then does the connectivity question get
answered.  A :class:`MaskedGraph` skips both copies — it keeps the
original :class:`~repro.topology.compiled.CompiledGraph` and overlays a
node-alive bitmap plus a dead-entry set, so a degradation sweep reuses
one compiled kernel across all its trials.  The node-alive bitmap is a
numpy bool array.

Parity: :func:`masked_connection_ratio` and
:func:`masked_largest_component_fraction` reproduce the legacy
``connection_ratio`` / ``largest_component_fraction`` results *exactly*
(same sampling RNG, same alive-server ordering); the tests in
``tests/test_faults_mask.py`` assert identity on randomised scenarios
across topology families.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.faults.plan import FailureScenario, FaultPlan
from repro.topology.compiled import CompiledGraph, CSRGraphView, compile_graph
from repro.topology.graph import Network


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
        scenario = _scenario_of(scenario)
        self.graph = graph
        index = graph.index
        dead_nodes = [
            i
            for name in scenario.dead_servers + scenario.dead_switches
            for i in (index.get(name),)
            if i is not None
        ]
        alive = _np.ones(graph.num_nodes, dtype=bool)
        alive[dead_nodes] = False
        self.node_alive = alive
        dead_entries: Set[int] = set()
        dead_edge_ids: List[int] = []
        for u_name, v_name in scenario.dead_links:
            u, v = index.get(u_name), index.get(v_name)
            if u is None or v is None:
                continue
            try:
                dead_entries.add(graph.entry_index(u, v))
                dead_entries.add(graph.entry_index(v, u))
            except KeyError:
                continue  # legacy subgraph_without ignores missing links too
            try:
                dead_edge_ids.append(graph.edge_id(u, v))
            except KeyError:  # pragma: no cover - entry without edge row
                pass
        self.dead_entries: Optional[Set[int]] = dead_entries or None
        self.dead_edge_ids: Tuple[int, ...] = tuple(dead_edge_ids)
        self._labels = None
        self._sweep_view: Optional[CSRGraphView] = None

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
        same degraded adjacency the name path would produce.
        """
        masked = cls.__new__(cls)
        masked.graph = graph
        dead_node_list = [int(i) for i in dead_nodes]
        alive = _np.ones(graph.num_nodes, dtype=bool)
        alive[dead_node_list] = False
        masked.node_alive = alive
        dead_entries: Set[int] = set()
        edge_u, edge_v = graph.edge_u, graph.edge_v
        for e in dead_edges:
            u, v = int(edge_u[int(e)]), int(edge_v[int(e)])
            dead_entries.add(graph.entry_index(u, v))
            dead_entries.add(graph.entry_index(v, u))
        masked.dead_entries = dead_entries or None
        masked.dead_edge_ids = tuple(int(e) for e in dead_edges)
        masked._labels = None
        masked._sweep_view = None
        return masked

    @classmethod
    def from_plan(cls, graph: CompiledGraph, plan) -> "MaskedGraph":
        """Apply either plan flavor: name-based scenarios route through
        the name-resolving constructor, index plans stay in id space."""
        if hasattr(plan, "dead_nodes"):
            return cls.from_indices(graph, plan.dead_nodes, plan.dead_edges)
        return cls(graph, plan)

    # ------------------------------------------------------------------
    def component_labels(self):
        """Masked component labels (``-1`` for dead nodes), cached."""
        if self._labels is None:
            self._labels = self.graph.component_labels_masked(
                self.node_alive, self.dead_entries
            )
        return self._labels

    def alive_servers(self) -> List[str]:
        """Names of alive servers, in the network's insertion order.

        Matches ``subgraph_without(...).servers`` because both the
        compile order and ``Network.copy`` preserve insertion order.
        """
        names, alive = self.graph.names, self.node_alive
        return [names[i] for i in self.graph.server_indices if alive[i]]

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
        servers = _np.asarray(graph.server_indices)
        alive_servers = _np.ascontiguousarray(
            servers[alive[servers.astype(_np.int64)]], dtype=_np.uint32
        )
        view = CSRGraphView(num_nodes, offsets.astype(_np.uint32), kept, alive_servers)
        self._sweep_view = view
        return view

    def num_alive_servers(self) -> int:
        alive = self.node_alive
        return int(_np.asarray(alive, dtype=bool)[self.graph.server_indices].sum())

    def connected(self, src: str, dst: str) -> bool:
        """Are two alive nodes in the same alive component?"""
        index = self.graph.index
        u, v = index[src], index[dst]
        if not (self.node_alive[u] and self.node_alive[v]):
            return False
        labels = self.component_labels()
        return labels[u] == labels[v]

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

    def connection_ratio_indexed(self, sample_pairs: int = 200, seed: int = 0) -> float:
        """Sampled pair-connectivity ratio over server *indices*.

        Same estimator as :meth:`connection_ratio` but the RNG draws
        positions into the alive-server index array instead of names,
        so no name string is ever materialised — this is the query
        path for million-server fast-built graphs whose name tables
        are lazy.  (The draws differ from :meth:`connection_ratio` for
        the same seed: that method samples the *name list* to stay
        bit-identical with the legacy protocol.)
        """
        alive_idx = self.alive_server_indices()
        count = len(alive_idx)
        if count < 2:
            return 0.0
        rng = random.Random(seed)
        labels = self.component_labels()
        connected = 0
        for _ in range(sample_pairs):
            a, b = rng.sample(range(count), 2)
            if labels[int(alive_idx[a])] == labels[int(alive_idx[b])]:
                connected += 1
        return connected / sample_pairs

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

        Replicates the legacy ``connection_ratio`` protocol bit for bit:
        one ``random.Random(seed)``, ``sample_pairs`` draws of
        ``rng.sample(alive_servers, 2)`` over the insertion-ordered
        alive-server list.
        """
        servers = self.alive_servers()
        if len(servers) < 2:
            return 0.0
        rng = random.Random(seed)
        labels = self.component_labels()
        index = self.graph.index
        connected = 0
        total = 0
        for _ in range(sample_pairs):
            src, dst = rng.sample(servers, 2)
            total += 1
            if labels[index[src]] == labels[index[dst]]:
                connected += 1
        return connected / total if total else 0.0

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


# ----------------------------------------------------------------------
# drop-in masked equivalents of the legacy metric entry points
# ----------------------------------------------------------------------
def masked_connection_ratio(
    net: Network, scenario, sample_pairs: int = 200, seed: int = 0
) -> float:
    """``connection_ratio`` without the subgraph copy + recompile.

    Produces exactly the legacy value for the same arguments.
    """
    return MaskedGraph(compile_graph(net), scenario).connection_ratio(
        sample_pairs=sample_pairs, seed=seed
    )


def masked_largest_component_fraction(net: Network, scenario) -> float:
    """``largest_component_fraction`` without copy + recompile."""
    return MaskedGraph(compile_graph(net), scenario).largest_component_fraction()
