"""Compiled CSR view of a :class:`~repro.topology.graph.Network`.

The dict-of-set adjacency in :class:`Network` is convenient for builders
and failure injection but slow for the all-pairs sweeps that dominate
every distance/resilience experiment: each BFS step pays a hash lookup
per neighbor and allocates a dict entry per settled node.  This module
flattens a network once into int-indexed CSR arrays (``offsets`` +
``neighbors``) plus name/server lookup tables, and runs the BFS frontier
loop over those flat arrays, vectorised with numpy.  Masked component
labels on larger graphs go through scipy's ``connected_components``.

Two compiled views exist per network:

* the **link graph** — every node, physical links; distances are *link
  hops*;
* the **server projection** — servers only, two servers adjacent when
  they share a switch or a direct cable; distances are logical *server
  hops* (see :func:`repro.metrics.distance.logical_server_adjacency`).

Both are cached on the network (``net.meta["_compiled"]``) and keyed by
:attr:`Network.version`, which every mutation bumps — so fault-injection
loops recompile only after an actual ``remove_node``/``remove_link``,
and :meth:`Network.copy`/``subgraph_without`` clones start with a cold
cache (underscore meta keys are not copied).

A :class:`CompiledGraph` is a plain picklable value object: the parallel
sweep engine (:mod:`repro.metrics.engine`) ships it to worker processes
once per pool, not once per BFS.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as _np
from scipy.sparse import csr_matrix as _scipy_csr
from scipy.sparse.csgraph import connected_components as _scipy_components

from repro.obs import trace as _obs
from repro.topology.graph import Network


def _index_array(values: Iterable[int]):
    """A flat *node/entry index* sequence as a numpy uint32 array.

    Indices are non-negative and bounded by the node/entry count, so
    uint32 is always wide enough (compilation refuses larger graphs)
    and halves the footprint of every CSR the engine ships to workers
    and every masked-fault trial keeps resident.  Signed int64 stays
    reserved for value arrays that need a ``-1`` sentinel (distances,
    component labels).
    """
    return _np.fromiter(values, dtype=_np.uint32)


class CompiledGraph:
    """Immutable CSR snapshot of a network (or of its server projection).

    Attributes:
        names: node name per index (compilation order).
        index: name -> index (inverse of ``names``).
        offsets: CSR row offsets, length ``num_nodes + 1``.
        neighbors: concatenated adjacency lists, length ``2 * num_edges``.
        server_indices: indices of server nodes, insertion order.
        edge_u/edge_v: one entry per undirected edge (``u < v`` by index
            is *not* guaranteed; pairs are stored as compiled).
        edge_capacity: capacity per edge, aligned with ``edge_u/edge_v``.
    """

    __slots__ = (
        "names",
        "index",
        "offsets",
        "neighbors",
        "server_indices",
        "edge_u",
        "edge_v",
        "edge_capacity",
        "_edge_lookup",
        "_indices32",
        "_rows",
        "_masked_template",
    )

    def __init__(
        self,
        names: Tuple[str, ...],
        offsets,
        neighbors,
        server_indices,
        edge_u,
        edge_v,
        edge_capacity: Tuple[float, ...],
    ) -> None:
        self.names = names
        self.index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self.offsets = offsets
        self.neighbors = neighbors
        self.server_indices = server_indices
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_capacity = edge_capacity
        self._edge_lookup: Optional[Dict[Tuple[int, int], int]] = None
        self._indices32 = None
        self._rows = None
        self._masked_template = None

    # ------------------------------------------------------------------
    # pickling (slots classes need explicit state; workers receive these)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (
            self.names,
            self.offsets,
            self.neighbors,
            self.server_indices,
            self.edge_u,
            self.edge_v,
            self.edge_capacity,
        )

    def __setstate__(self, state):
        self.__init__(*state)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, net: Network) -> "CompiledGraph":
        """Compile the full link graph (all nodes, physical links)."""
        names = tuple(net.node_names())
        index = {name: i for i, name in enumerate(names)}
        adjacency = [sorted(index[v] for v in net.neighbors(u)) for u in names]
        servers = _index_array(
            i for i, name in enumerate(names) if net.node(name).is_server
        )
        edge_u: List[int] = []
        edge_v: List[int] = []
        capacities: List[float] = []
        for link in net.links():
            edge_u.append(index[link.u])
            edge_v.append(index[link.v])
            capacities.append(link.capacity)
        return cls(
            names,
            *_csr_from_lists(adjacency),
            server_indices=servers,
            edge_u=_index_array(edge_u),
            edge_v=_index_array(edge_v),
            edge_capacity=tuple(capacities),
        )

    @classmethod
    def from_server_projection(cls, net: Network) -> "CompiledGraph":
        """Compile the logical server projection (server-hop distances)."""
        names = tuple(net.servers)
        index = {name: i for i, name in enumerate(names)}
        pairs: Set[Tuple[int, int]] = set()
        for node in net.nodes():
            if not node.is_switch:
                continue
            members = [
                index[v] for v in net.neighbors(node.name) if net.node(v).is_server
            ]
            for a, u in enumerate(members):
                for v in members[a + 1 :]:
                    pairs.add((u, v) if u < v else (v, u))
        for link in net.links():
            if link.u in index and link.v in index:
                u, v = index[link.u], index[link.v]
                pairs.add((u, v) if u < v else (v, u))
        adjacency: List[List[int]] = [[] for _ in names]
        edge_u: List[int] = []
        edge_v: List[int] = []
        for u, v in sorted(pairs):
            adjacency[u].append(v)
            adjacency[v].append(u)
            edge_u.append(u)
            edge_v.append(v)
        for row in adjacency:
            row.sort()
        return cls(
            names,
            *_csr_from_lists(adjacency),
            server_indices=_index_array(range(len(names))),
            edge_u=_index_array(edge_u),
            edge_v=_index_array(edge_v),
            edge_capacity=tuple(1.0 for _ in edge_u),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.names)

    @property
    def num_edges(self) -> int:
        return len(self.edge_u)

    @property
    def num_servers(self) -> int:
        return len(self.server_indices)

    def degree(self, node: int) -> int:
        return int(self.offsets[node + 1] - self.offsets[node])

    def edge_id(self, u: int, v: int) -> int:
        """Dense edge index of the edge ``{u, v}``; raises ``KeyError``."""
        if self._edge_lookup is None:
            self._edge_lookup = {
                (min(a, b), max(a, b)): e
                for e, (a, b) in enumerate(zip(self.edge_u, self.edge_v))
            }
        return self._edge_lookup[(u, v) if u < v else (v, u)]

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def bfs_distances(self, src: int):
        """Hop distances from ``src`` to every node (-1 = unreachable).

        Returns a numpy int64 array indexed by node id.
        """
        offsets, neighbors = self.offsets, self.neighbors
        dist = _np.full(self.num_nodes, -1, dtype=_np.int64)
        dist[src] = 0
        frontier = _np.array([src], dtype=_np.int64)
        level = 0
        while frontier.size:
            level += 1
            # int64 copies keep the gather arithmetic signed — the CSR
            # arrays themselves are uint32 (see ``_index_array``).
            starts = offsets[frontier].astype(_np.int64)
            counts = offsets[frontier + 1].astype(_np.int64) - starts
            total = int(counts.sum())
            if total == 0:
                break
            # Gather the concatenated neighbor slices of the frontier.
            ends = _np.cumsum(counts)
            gather = _np.arange(total) + _np.repeat(starts - (ends - counts), counts)
            fresh = neighbors[gather]
            fresh = fresh[dist[fresh] < 0]
            if fresh.size == 0:
                break
            dist[fresh] = level
            frontier = _np.unique(fresh)
        return dist

    def entry_index(self, u: int, v: int) -> int:
        """Position of neighbor ``v`` inside ``u``'s CSR row.

        Rows are sorted at compile time, so this is a binary search;
        raises ``KeyError`` when ``{u, v}`` is not an edge.  Entry
        indices are how the fault-injection layer masks individual
        links without recompiling (see :mod:`repro.faults.mask`).
        """
        from bisect import bisect_left

        lo, hi = int(self.offsets[u]), int(self.offsets[u + 1])
        j = bisect_left(self.neighbors, v, lo, hi)
        if j >= hi or self.neighbors[j] != v:
            raise KeyError(f"no edge between node {u} and node {v}")
        return j

    def component_labels_masked(self, node_alive, dead_entries=None):
        """Component labels with failures applied as masks over the CSR.

        ``node_alive`` is a boolean sequence aligned with node indices;
        ``dead_entries`` an optional set of CSR entry positions to skip
        (both directions of a dead link — see :meth:`entry_index`).
        Dead nodes are labeled ``-1``.  Alive nodes get the same
        partition that compiling the failure-injected subgraph would
        produce, at the cost of one flat BFS — no ``subgraph_without``
        copy, no recompile.  Label *values* identify the partition only
        (equal label == same component); callers must not depend on the
        numbering, which differs between the Python BFS and the scipy
        fast path used for larger graphs.
        """
        if self.num_nodes >= _SCIPY_MASK_THRESHOLD:
            return self._component_labels_masked_scipy(node_alive, dead_entries)
        labels = [-1] * self.num_nodes
        offsets, neighbors = self.offsets, self.neighbors
        current = 0
        for start in range(self.num_nodes):
            if labels[start] >= 0 or not node_alive[start]:
                continue
            labels[start] = current
            frontier = [start]
            while frontier:
                nxt: List[int] = []
                for u in frontier:
                    for j in range(offsets[u], offsets[u + 1]):
                        if dead_entries is not None and j in dead_entries:
                            continue
                        v = neighbors[j]
                        if labels[v] < 0 and node_alive[v]:
                            labels[v] = current
                            nxt.append(v)
                frontier = nxt
            current += 1
        return _np.fromiter(labels, dtype=_np.int64)

    def _component_labels_masked_scipy(self, node_alive, dead_entries):
        """Masked labels via ``scipy.sparse.csgraph.connected_components``.

        The CSR entry order matches ``neighbors``, so the mask is one
        boolean filter over the flat entry arrays: keep an entry when
        both endpoints are alive and it is not a dead link, rebuild the
        (indptr, indices) pair with ``bincount``/``cumsum``, and label
        the whole matrix in C.  Dead nodes survive as isolated rows with
        throwaway unique labels, overwritten with ``-1`` afterwards —
        the alive partition is unaffected.
        """
        num_nodes = self.num_nodes
        alive = _np.asarray(node_alive, dtype=bool)
        # int32, not the CSR's uint32: scipy needs signed indices.
        if self._indices32 is None:
            self._indices32 = _np.asarray(self.neighbors, dtype=_np.int32)
        indices = self._indices32
        rows = self._entry_rows()
        keep = alive[rows] & alive[indices]
        if dead_entries:
            keep[list(dead_entries)] = False
        kept_indices = indices[keep]
        counts = _np.bincount(rows[keep], minlength=num_nodes)
        indptr = _np.zeros(num_nodes + 1, dtype=_np.int32)
        _np.cumsum(counts, out=indptr[1:])
        # float64 data: csgraph would otherwise astype-copy int weights.
        # The csr_matrix object itself is built once and reused — its
        # constructor re-validates index dtypes on every call, which is
        # measurable at one matrix per trial; swapping the arrays on a
        # template skips that while staying a perfectly formed CSR.
        data = _np.ones(len(kept_indices), dtype=_np.float64)
        masked = self._masked_template
        if masked is None:
            masked = _scipy_csr(
                (data, kept_indices, indptr), shape=(num_nodes, num_nodes)
            )
            self._masked_template = masked
        else:
            masked.data = data
            masked.indices = kept_indices
            masked.indptr = indptr
        _, labels = _scipy_components(masked, directed=False)
        labels = labels.astype(_np.int64)
        labels[~alive] = -1
        return labels

    def _entry_rows(self):
        """Row (source-node) index of every CSR entry, cached (numpy)."""
        if self._rows is None:
            self._rows = _np.repeat(
                _np.arange(self.num_nodes, dtype=_np.int32),
                _np.diff(_np.asarray(self.offsets)),
            )
        return self._rows


class CSRGraphView(CompiledGraph):
    """Kernel-only CSR view: the traversal arrays, nothing else.

    The sweep engine's kernels touch exactly three arrays — ``offsets``,
    ``neighbors`` and ``server_indices`` — yet a full
    :class:`CompiledGraph` drags its name table, edge list and lookup
    dict along whenever it is handed to a worker pool.  A view carries
    only the arrays (node count kept explicitly, since there is no name
    tuple to measure), so the shared-memory hand-off in
    :mod:`repro.topology.shm` ships megabytes, not graph objects, and a
    masked sweep (:meth:`repro.faults.mask.MaskedGraph.sweep_view`) can
    splice in filtered arrays without inventing fake names.

    Name/index lookups raise ``TypeError`` — a view is for kernels; use
    the graph it was taken from for identity queries.
    """

    __slots__ = ("_num_nodes",)

    def __init__(self, num_nodes: int, offsets, neighbors, server_indices) -> None:
        self._num_nodes = int(num_nodes)
        self.offsets = offsets
        self.neighbors = neighbors
        self.server_indices = server_indices
        self.edge_u = ()
        self.edge_v = ()
        self.edge_capacity = ()
        self._edge_lookup = None
        self._indices32 = None
        self._rows = None
        self._masked_template = None

    @classmethod
    def of(cls, graph: "CompiledGraph") -> "CSRGraphView":
        """The kernel view of ``graph`` (identity when already a view)."""
        if isinstance(graph, CSRGraphView):
            return graph
        return cls(
            graph.num_nodes, graph.offsets, graph.neighbors, graph.server_indices
        )

    @property
    def num_nodes(self) -> int:  # type: ignore[override]
        return self._num_nodes

    @property
    def names(self):  # type: ignore[override]
        raise TypeError(
            "CSRGraphView is a kernel-only view and carries no node names; "
            "query the graph it was taken from"
        )

    @property
    def index(self):  # type: ignore[override]
        raise TypeError(
            "CSRGraphView is a kernel-only view and carries no name index; "
            "query the graph it was taken from"
        )

    def __getstate__(self):
        return (self._num_nodes, self.offsets, self.neighbors, self.server_indices)

    def __setstate__(self, state):
        self.__init__(*state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CSRGraphView: {self.num_servers} servers, "
            f"{self.num_nodes} nodes, {len(self.neighbors)} entries>"
        )


#: below this node count the pure-Python masked BFS beats the scipy
#: slice-and-label round trip (measured on the quick-mode instances).
_SCIPY_MASK_THRESHOLD = 192


def _csr_from_lists(adjacency: Sequence[Sequence[int]]):
    """Pack per-node adjacency lists into ``(offsets, neighbors)``."""
    offsets = [0]
    flat: List[int] = []
    for row in adjacency:
        flat.extend(row)
        offsets.append(len(flat))
    return _index_array(offsets), _index_array(flat)


# ----------------------------------------------------------------------
# per-network compile cache
# ----------------------------------------------------------------------
_CACHE_KEY = "_compiled"


def _cache_slot(net: Network) -> Dict[str, object]:
    cache = net.meta.get(_CACHE_KEY)
    if not isinstance(cache, dict) or cache.get("version") != net.version:
        cache = {"version": net.version}
        net.meta[_CACHE_KEY] = cache
    return cache


def compile_graph(net: Network) -> CompiledGraph:
    """The cached compiled link graph of ``net`` (recompiled on mutation)."""
    cache = _cache_slot(net)
    compiled = cache.get("link")
    if compiled is None:
        _obs.counter("compiled.link.cache_miss")
        with _obs.span("topology.compile", view="link", net=net.name):
            compiled = CompiledGraph.from_network(net)
        cache["link"] = compiled
    else:
        _obs.counter("compiled.link.cache_hit")
    return compiled


def build_compiled(spec, memmap_dir: Optional[str] = None):
    """Compiled CSR link graph of a :class:`~repro.topology.spec.TopologySpec`.

    The compile seam for code that needs the arrays, not the object
    graph: when the spec's family has a vectorized direct-to-CSR
    constructor (ABCCC / BCCC / BCube — see
    :mod:`repro.topology.fastbuild`), the returned graph is generated
    straight from digit arithmetic without ever materialising ``Node``
    objects, which is orders of magnitude faster and smaller at
    datacenter scale.  Otherwise it falls back to
    ``compile_graph(spec.build())``.

    ``memmap_dir`` asks the fast path to back the large CSR arrays with
    memory-mapped files in that directory; the object path ignores it.
    """
    from repro.topology import fastbuild

    if fastbuild.supports(spec):
        return fastbuild.fast_compiled(spec, memmap_dir=memmap_dir)
    return compile_graph(spec.build())


def compile_server_projection(net: Network) -> CompiledGraph:
    """The cached compiled server projection of ``net``."""
    cache = _cache_slot(net)
    compiled = cache.get("server")
    if compiled is None:
        _obs.counter("compiled.server.cache_miss")
        with _obs.span("topology.compile", view="server", net=net.name):
            compiled = CompiledGraph.from_server_projection(net)
        cache["server"] = compiled
    else:
        _obs.counter("compiled.server.cache_hit")
    return compiled
