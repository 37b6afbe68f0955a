"""Flow x link incidence: routes as edge-id arrays over the CSR graph.

One Python ``Route`` object and one ``(name, name)`` link-key list per
flow is gigabytes of dict churn at a few hundred thousand flows.  A
:class:`RouteSet` stores the same information as two flat numpy arrays —
the concatenated undirected *edge ids* every flow crosses and a
per-flow offset array — which is all progressive filling ever looks
at.  Multiplicity is preserved (a detour crossing a link twice consumes
capacity twice), and a flow with no surviving path is an empty slice
plus a bit in :attr:`RouteSet.unreachable`, never an exception:
degraded networks are results, not errors.

Edge ids are positions into ``graph.edge_u`` / ``graph.edge_v`` /
``graph.edge_capacity`` — the id space shared by object-built
:class:`~repro.topology.compiled.CompiledGraph`, fast-built
:class:`~repro.topology.fastbuild.FastCompiledGraph` and
:class:`~repro.faults.mask.MaskedGraph` (same arrays, masked entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as _np


class RouteSetError(ValueError):
    """Raised when routes cannot be expressed against the graph."""


def edge_id_array(graph, u, v):
    """Vectorized undirected ``(u, v) -> edge id`` lookup.

    Builds a sorted composite-key index over ``edge_u``/``edge_v`` once
    per call (O(E log E)), then answers all queries by binary search —
    the batch twin of :meth:`CompiledGraph.edge_id`.  Raises
    :class:`RouteSetError` if any queried pair is not an edge.
    """
    u = _np.asarray(u, dtype=_np.int64)
    v = _np.asarray(v, dtype=_np.int64)
    num_nodes = int(graph.num_nodes)
    edge_u = _np.asarray(graph.edge_u, dtype=_np.int64)
    edge_v = _np.asarray(graph.edge_v, dtype=_np.int64)
    keys = _np.minimum(edge_u, edge_v) * num_nodes + _np.maximum(edge_u, edge_v)
    order = _np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    queries = _np.minimum(u, v) * num_nodes + _np.maximum(u, v)
    pos = _np.searchsorted(sorted_keys, queries)
    pos = _np.minimum(pos, len(sorted_keys) - 1) if len(sorted_keys) else pos
    if len(sorted_keys) == 0 or not bool((sorted_keys[pos] == queries).all()):
        missing = (
            int(u[0]),
            int(v[0]),
        ) if len(sorted_keys) == 0 else tuple(
            int(x) for x in (u[(sorted_keys[pos] != queries)][0], v[(sorted_keys[pos] != queries)][0])
        )
        raise RouteSetError(f"no edge between nodes {missing[0]} and {missing[1]}")
    return order[pos].astype(_np.int64, copy=False)


@dataclass(frozen=True)
class RouteSet:
    """Routes for one flow set, as a sparse flow x edge incidence.

    Attributes:
        graph: the compiled graph the edge ids index into.
        src_nodes, dst_nodes: int64 node ids, one per flow.
        edge_ids: int64 concatenated undirected edge ids, route order,
            with multiplicity.
        offsets: int64 array of length ``num_flows + 1``; flow ``i``
            crosses ``edge_ids[offsets[i]:offsets[i+1]]``.
        unreachable: bool array — flows with no surviving path (their
            slice is empty).
    """

    graph: Any
    src_nodes: Any
    dst_nodes: Any
    edge_ids: Any
    offsets: Any
    unreachable: Any

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.src_nodes) + 1:
            raise RouteSetError("offsets must have num_flows + 1 entries")
        if int(self.offsets[-1]) != len(self.edge_ids):
            raise RouteSetError("offsets[-1] must equal len(edge_ids)")

    @property
    def num_flows(self) -> int:
        return len(self.src_nodes)

    @property
    def num_edges(self) -> int:
        return len(self.graph.edge_u)

    @property
    def hop_counts(self):
        """Link hops per flow (0 for unreachable flows)."""
        return _np.diff(self.offsets)

    @property
    def num_unreachable(self) -> int:
        return int(_np.count_nonzero(self.unreachable))

    def incidence_flows(self):
        """Flow index per incidence entry, aligned with ``edge_ids``."""
        return _np.repeat(
            _np.arange(self.num_flows, dtype=_np.int64), self.hop_counts
        )

    def crossings(self):
        """Crossing count per edge (multiplicity included), length E."""
        return _np.bincount(self.edge_ids, minlength=self.num_edges)

    def capacities(self):
        """Per-edge capacity as float64 (tuple- or array-backed)."""
        return _np.asarray(self.graph.edge_capacity, dtype=_np.float64)

    def max_link_load(self):
        """Max crossings/capacity over loaded edges — the F7 column."""
        crossings = self.crossings()
        loaded = crossings > 0
        if not bool(loaded.any()):
            return 0.0
        return float((crossings[loaded] / self.capacities()[loaded]).max())

    def validate_against_matrix(self, matrix) -> None:
        """Check the route endpoints match a matrix's ordinal pairs."""
        if matrix.num_flows != self.num_flows:
            raise RouteSetError(
                f"route set has {self.num_flows} flows, "
                f"matrix has {matrix.num_flows}"
            )
        servers = _np.asarray(self.graph.server_indices, dtype=_np.int64)
        want_src = servers[_np.asarray(matrix.src, dtype=_np.int64)]
        want_dst = servers[_np.asarray(matrix.dst, dtype=_np.int64)]
        if not bool((want_src == _np.asarray(self.src_nodes)).all()) or not bool(
            (want_dst == _np.asarray(self.dst_nodes)).all()
        ):
            raise RouteSetError("route endpoints do not match the traffic matrix")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_node_paths(
        cls,
        graph,
        paths: Sequence[Optional[Sequence[int]]],
        src_nodes=None,
        dst_nodes=None,
    ) -> "RouteSet":
        """Build from per-flow node-id paths (``None`` = unreachable).

        Edge ids are resolved in one vectorized lookup over all hops.
        """
        hop_u: List[Any] = []
        hop_v: List[Any] = []
        counts = _np.zeros(len(paths), dtype=_np.int64)
        srcs = _np.empty(len(paths), dtype=_np.int64)
        dsts = _np.empty(len(paths), dtype=_np.int64)
        unreachable = _np.zeros(len(paths), dtype=bool)
        for i, path in enumerate(paths):
            if path is None:
                unreachable[i] = True
                srcs[i] = -1 if src_nodes is None else int(src_nodes[i])
                dsts[i] = -1 if dst_nodes is None else int(dst_nodes[i])
                continue
            nodes = _np.asarray(path, dtype=_np.int64)
            if nodes.size < 2:
                raise RouteSetError(f"path for flow {i} has fewer than two nodes")
            srcs[i] = int(nodes[0])
            dsts[i] = int(nodes[-1])
            counts[i] = nodes.size - 1
            hop_u.append(nodes[:-1])
            hop_v.append(nodes[1:])
        offsets = _np.zeros(len(paths) + 1, dtype=_np.int64)
        _np.cumsum(counts, out=offsets[1:])
        if hop_u:
            edge_ids = edge_id_array(
                graph, _np.concatenate(hop_u), _np.concatenate(hop_v)
            )
        else:
            edge_ids = _np.empty(0, dtype=_np.int64)
        return cls(
            graph=graph,
            src_nodes=srcs,
            dst_nodes=dsts,
            edge_ids=edge_ids,
            offsets=offsets,
            unreachable=unreachable,
        )

    @classmethod
    def from_name_routes(cls, graph, flows, routes: Dict[str, Any]) -> "RouteSet":
        """Build from ``flow_id -> Route`` name paths.

        The bridge for name-based routers (experiments, examples, the
        job simulator): each flow's route is looked up by ``flow_id``
        and converted to edge ids.  Flow order defines flow index order.

        Raises:
            KeyError: if a flow has no route.
            RouteSetError: on duplicate flow ids, or a route that does
                not connect its flow's ``src`` to its ``dst``.
        """
        index = graph.index
        paths = []
        for flow in flows:
            route = routes[flow.flow_id]
            if route.source != flow.src or route.destination != flow.dst:
                raise RouteSetError(
                    f"route for {flow.flow_id} connects "
                    f"{route.source}->{route.destination}, "
                    f"flow wants {flow.src}->{flow.dst}"
                )
            paths.append([index[name] for name in route.nodes])
        if len({flow.flow_id for flow in flows}) != len(paths):
            raise RouteSetError("duplicate flow ids")
        return cls.from_node_paths(graph, paths)

    @classmethod
    def from_edge_arrays(
        cls, graph, src_nodes, dst_nodes, edge_ids, offsets, unreachable=None
    ) -> "RouteSet":
        """Build from precomputed arrays (the batch routers' output)."""
        src_nodes = _np.asarray(src_nodes, dtype=_np.int64)
        if unreachable is None:
            unreachable = _np.zeros(len(src_nodes), dtype=bool)
        return cls(
            graph=graph,
            src_nodes=src_nodes,
            dst_nodes=_np.asarray(dst_nodes, dtype=_np.int64),
            edge_ids=_np.asarray(edge_ids, dtype=_np.int64),
            offsets=_np.asarray(offsets, dtype=_np.int64),
            unreachable=_np.asarray(unreachable, dtype=bool),
        )
