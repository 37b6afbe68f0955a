"""Batch route extraction on the CSR kernel.

Two batch routers feed the :mod:`repro.traffic` engine:

* :func:`abccc_batch_routes` — the paper's digit-correction algorithm
  (:func:`repro.core.routing.abccc_route`, locality order) computed for
  *every flow at once* as numpy digit arithmetic on a fast-built ABCCC
  layout.  No node names, no per-flow Python: edge ids come straight
  from the closed forms :func:`repro.topology.fastbuild._generate_edges`
  lays the edge arrays out with, so a 163k-server permutation routes in
  milliseconds.  Route-for-route identical to the per-flow oracle (the
  tests assert edge-sequence equality).  :func:`abccc_node_path` runs
  the same arithmetic for one flow and returns its node path; the serve
  engine answers healthy ABCCC route and distance queries with it.
* :func:`bfs_batch_routes` — shortest paths grouped by destination: one
  frontier BFS per *distinct* destination, then the deterministic
  lowest-indexed-predecessor backtrack (:func:`_backtrack`, which the
  serve engine's scenario and ``avoid`` route answers also use) per
  flow.  Works on any compiled graph or alive-only masked view;
  unreachable flows come back as ``None`` paths, never exceptions.

:func:`batch_routes` dispatches: arithmetic routing when the graph is a
fast-built ABCCC, BFS otherwise — and under a
:class:`~repro.faults.mask.MaskedGraph` it routes arithmetically first,
then repairs only the flows whose healthy route touches a dead
node/edge by BFS on the surviving subgraph (the common case after a
small fault draw is that most routes survive untouched).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as _np

from repro.traffic.routes import RouteSet


class BatchRoutingError(ValueError):
    """Raised when a batch router cannot serve the requested graph."""


# ----------------------------------------------------------------------
# vectorized ABCCC digit correction
# ----------------------------------------------------------------------
def _is_fast_abccc(graph) -> bool:
    layout = getattr(graph, "layout", None)
    return layout is not None and getattr(layout, "family", None) == "abccc"


def _rest_weight_table(n: int, k: int):
    """``W[l, q]`` = weight of digit position ``q`` in the rest-rank of
    the level-``l`` switch (0 at ``q == l``).

    Mirrors ``_generate_edges``: rest position ``p`` maps to digit
    position ``q = p`` below ``l`` and ``q = p + 1`` above, with
    MSB-first weights ``n^(k-1-p)``.
    """
    levels = k + 1
    table = _np.zeros((levels, levels), dtype=_np.int64)
    for l in range(levels):
        for q in range(levels):
            if q < l:
                table[l, q] = n ** (k - 1 - q)
            elif q > l:
                table[l, q] = n ** (k - q)
    return table


def _abccc_edge_buffer(layout, src_ordinals, dst_ordinals):
    """Per-flow edge-id walks as a padded buffer.

    Returns ``(buf, counts)``: ``buf[f, :counts[f]]`` is flow ``f``'s
    undirected edge-id sequence in route order.  Pure digit arithmetic —
    replays :func:`repro.core.routing.route_with_order` with the
    locality order, one vectorized pass per correction slot.
    """
    np = _np
    n, k, s = layout.n, layout.k, layout.s
    levels = k + 1
    c = layout.crossbar_size
    C = layout.num_crossbars
    has_csw = layout.has_crossbar_switch
    cb_edges = C * c if has_csw else 0  # level links start after these

    src = np.asarray(src_ordinals, dtype=np.int64)
    dst = np.asarray(dst_ordinals, dtype=np.int64)
    num_flows = len(src)
    s_enum, s_idx = src // c, src % c
    d_enum, d_idx = dst // c, dst % c

    # LSB-first digit matrices: ABCCC enumerates crossbars in rank order.
    pw = n ** np.arange(levels, dtype=np.int64)
    sd = (s_enum[:, None] // pw[None, :]) % n
    dd = (d_enum[:, None] // pw[None, :]) % n
    owner_vec = np.arange(levels, dtype=np.int64) // (s - 1)

    differ = sd != dd
    ndiff = differ.sum(axis=1)

    # Locality order as one argsort: rank 0 = source server's own owner
    # group, c+2 = destination's, owner+1 in between (middle groups by
    # ascending owner, levels ascending inside each group) — exactly
    # repro.core.permutation._locality_sequence.
    owner_row = owner_vec[None, :]
    first_present = (differ & (owner_row == s_idx[:, None])).any(axis=1)
    dst_present = (differ & (owner_row == d_idx[:, None])).any(axis=1)
    last_used = dst_present & ~(first_present & (d_idx == s_idx))
    is_first = differ & first_present[:, None] & (owner_row == s_idx[:, None])
    is_last = (
        differ & last_used[:, None] & (owner_row == d_idx[:, None]) & ~is_first
    )
    rank = np.where(is_first, 0, np.where(is_last, c + 2, owner_row + 1))
    key = np.where(differ, rank * (levels + 1) + np.arange(levels)[None, :], 2**40)
    order = np.argsort(key, axis=1, kind="stable")

    max_edges = 4 * levels + 2
    buf = np.empty((num_flows, max_edges), dtype=np.int64)
    cursor = np.zeros(num_flows, dtype=np.int64)

    def append(rows, values) -> None:
        buf[rows, cursor[rows]] = values
        cursor[rows] += 1

    cur_idx = s_idx.copy()
    cur_d = sd.copy()
    cur_enum = s_enum.copy()
    weight_table = _rest_weight_table(n, k)

    for slot in range(levels):
        rows = np.flatnonzero(ndiff > slot)
        if rows.size == 0:
            break
        level = order[rows, slot]
        owner = owner_vec[level]
        # transfer to the owning server of this level, if not there
        need = cur_idx[rows] != owner
        trows, towner = rows[need], owner[need]
        if trows.size:
            base = cur_enum[trows] * c
            append(trows, base + cur_idx[trows])
            append(trows, base + towner)
            cur_idx[trows] = towner
        # correct the digit through the level switch: two level links
        # sharing the switch's (level, rest-rank) slot group
        rest_rank = (cur_d[rows] * weight_table[level]).sum(axis=1)
        base = cb_edges + level * C + rest_rank * n
        old_digit = cur_d[rows, level]
        new_digit = dd[rows, level]
        append(rows, base + old_digit)
        append(rows, base + new_digit)
        cur_enum[rows] += (new_digit - old_digit) * pw[level]
        cur_d[rows, level] = new_digit

    # final transfer to the destination server's in-crossbar slot
    rows = np.flatnonzero(cur_idx != d_idx)
    if rows.size:
        base = cur_enum[rows] * c
        append(rows, base + cur_idx[rows])
        append(rows, base + d_idx[rows])
    return buf, cursor


def _buffer_to_routeset(graph, buf, counts, src_nodes, dst_nodes) -> RouteSet:
    offsets = _np.zeros(len(counts) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=offsets[1:])
    mask = _np.arange(buf.shape[1])[None, :] < counts[:, None]
    return RouteSet.from_edge_arrays(
        graph, src_nodes, dst_nodes, buf[mask], offsets
    )


def abccc_batch_routes(graph, src_ordinals, dst_ordinals) -> RouteSet:
    """Locality-order digit-correction routes for all flows at once.

    ``src_ordinals`` / ``dst_ordinals`` are server ordinals (positions in
    ``graph.server_indices``).  ``graph`` must be a fast-built ABCCC.
    """
    if not _is_fast_abccc(graph):
        raise BatchRoutingError(
            "arithmetic batch routing needs a fast-built ABCCC graph; "
            "use bfs_batch_routes for other graphs"
        )
    layout = graph.layout
    buf, counts = _abccc_edge_buffer(layout, src_ordinals, dst_ordinals)
    servers = _np.asarray(graph.server_indices, dtype=_np.int64)
    return _buffer_to_routeset(
        graph,
        buf,
        counts,
        servers[_np.asarray(src_ordinals, dtype=_np.int64)],
        servers[_np.asarray(dst_ordinals, dtype=_np.int64)],
    )


def abccc_node_path(graph, src: int, dst: int) -> List[int]:
    """Node ids of the digit-correction route from server ``src`` to
    server ``dst`` of a fast-built ABCCC, both ends included.

    One flow through :func:`_abccc_edge_buffer`, the routine
    :func:`batch_routes` runs for every traffic flow, walked from
    ``src`` over ``edge_u`` / ``edge_v``.

    The route is a shortest path.  A level hop corrects exactly one
    digit and keeps the in-crossbar slot; a crossbar hop changes only
    the slot.  So any path corrects each differing digit at least once,
    and visits the owner slot of every owner group with a differing
    digit, then the destination's slot.  The locality order visits each
    group once, first the source's and last the destination's, so it
    meets that lower bound.
    """
    if not _is_fast_abccc(graph):
        raise BatchRoutingError("digit-correction routes need a fast-built ABCCC graph")
    servers = graph.server_indices
    # the array's own dtype: a mixed-dtype search casts all of ``servers``
    ends = _np.array([src, dst], dtype=servers.dtype)
    ordinals = _np.minimum(_np.searchsorted(servers, ends), len(servers) - 1)
    if (servers[ordinals] != ends).any():
        raise BatchRoutingError(f"route endpoints {src}, {dst} are not both servers")
    buf, counts = _abccc_edge_buffer(graph.layout, ordinals[:1], ordinals[1:])
    edge_u, edge_v = graph.edge_u, graph.edge_v
    path = [int(src)]
    for edge in buf[0, : counts[0]].tolist():
        u = int(edge_u[edge])
        path.append(int(edge_v[edge]) if u == path[-1] else u)
    return path


# ----------------------------------------------------------------------
# grouped-by-destination BFS fallback
# ----------------------------------------------------------------------
def _backtrack(view, dist, src: int) -> List[int]:
    """Forward walk src -> dst stepping to the lowest-indexed neighbor
    one BFS level closer — the serve engine's determinism contract."""
    offsets, neighbors = view.offsets, view.neighbors
    path = [src]
    current = src
    for level in range(int(dist[src]), 0, -1):
        step = None
        for j in range(int(offsets[current]), int(offsets[current + 1])):
            candidate = int(neighbors[j])
            if int(dist[candidate]) == level - 1 and (step is None or candidate < step):
                step = candidate
        if step is None:  # pragma: no cover - BFS invariant
            raise BatchRoutingError("BFS backtrack found no predecessor")
        path.append(step)
        current = step
    return path


def bfs_node_paths(
    view, src_nodes, dst_nodes
) -> List[Optional[List[int]]]:
    """Shortest node paths per flow; ``None`` where unreachable.

    One BFS per *distinct destination* (``view.bfs_distances``), shared
    by every flow targeting it, then a deterministic per-flow backtrack.
    """
    src_nodes = _np.asarray(src_nodes, dtype=_np.int64)
    dst_nodes = _np.asarray(dst_nodes, dtype=_np.int64)
    paths: List[Optional[List[int]]] = [None] * len(src_nodes)
    unique_dsts, inverse = _np.unique(dst_nodes, return_inverse=True)
    for which, dst in enumerate(unique_dsts):
        flows = _np.flatnonzero(inverse == which)
        dist = view.bfs_distances(int(dst))
        for f in flows:
            src = int(src_nodes[f])
            if int(dist[src]) < 0:
                continue  # unreachable: stays None
            paths[int(f)] = _backtrack(view, dist, src)
    return paths


def bfs_batch_routes(graph, src_nodes, dst_nodes, view=None) -> RouteSet:
    """Shortest-path :class:`RouteSet` via grouped-by-destination BFS.

    ``view`` (e.g. a masked graph's ``sweep_view()``) carries the
    adjacency to search; edge ids always resolve against ``graph``, so
    a degraded route still indexes the parent capacity arrays.
    """
    paths = bfs_node_paths(view if view is not None else graph, src_nodes, dst_nodes)
    return RouteSet.from_node_paths(graph, paths, src_nodes, dst_nodes)


# ----------------------------------------------------------------------
# dispatch, healthy or degraded
# ----------------------------------------------------------------------
def _edge_alive(graph, masked):
    """Per-edge-id survival under a mask: both endpoints alive and the
    edge not explicitly failed."""
    node_alive = _np.asarray(masked.node_alive, dtype=bool)
    edge_u = _np.asarray(graph.edge_u, dtype=_np.int64)
    edge_v = _np.asarray(graph.edge_v, dtype=_np.int64)
    alive = node_alive[edge_u] & node_alive[edge_v]
    dead_edges = getattr(masked, "dead_edge_ids", None)
    if dead_edges is not None and len(dead_edges):
        alive[_np.asarray(dead_edges, dtype=_np.int64)] = False
    return alive


def _scatter_segments(dst_flat, dst_offsets, rows, seg_flat, seg_offsets) -> None:
    """Copy ragged segments into their destination rows, vectorized."""
    counts = _np.diff(seg_offsets)
    total = int(counts.sum())
    if total == 0:
        return
    local = _np.arange(total, dtype=_np.int64) - _np.repeat(
        seg_offsets[:-1], counts
    )
    dst_idx = local + _np.repeat(dst_offsets[rows], counts)
    src_idx = local + _np.repeat(seg_offsets[:-1], counts)
    dst_flat[dst_idx] = seg_flat[src_idx]


def batch_routes(graph, matrix, masked=None) -> RouteSet:
    """Routes for a :class:`~repro.traffic.matrix.TrafficMatrix`.

    Healthy fast-built ABCCC: pure arithmetic.  Degraded ABCCC:
    arithmetic first, then BFS repair of only the flows whose route
    died.  Everything else: grouped-by-destination BFS (on the masked
    sweep view when degraded).
    """
    servers = _np.asarray(graph.server_indices, dtype=_np.int64)
    src_ord = _np.asarray(matrix.src, dtype=_np.int64)
    dst_ord = _np.asarray(matrix.dst, dtype=_np.int64)
    if src_ord.size and (
        int(src_ord.max()) >= len(servers) or int(dst_ord.max()) >= len(servers)
    ):
        raise BatchRoutingError(
            f"matrix is over {matrix.num_servers} servers but the graph has "
            f"{len(servers)}"
        )
    src_nodes, dst_nodes = servers[src_ord], servers[dst_ord]

    if not _is_fast_abccc(graph):
        view = masked.sweep_view() if masked is not None else graph
        routes = bfs_batch_routes(graph, src_nodes, dst_nodes, view=view)
        if masked is not None:
            routes = _mask_endpoints(routes, masked)
        return routes

    buf, counts = _abccc_edge_buffer(graph.layout, src_ord, dst_ord)
    if masked is None:
        return _buffer_to_routeset(graph, buf, counts, src_nodes, dst_nodes)

    # degraded: keep surviving arithmetic routes, BFS-repair the rest
    np = _np
    edge_alive = _edge_alive(graph, masked)
    node_alive = np.asarray(masked.node_alive, dtype=bool)
    in_range = np.arange(buf.shape[1])[None, :] < counts[:, None]
    dead_hop = in_range & ~edge_alive[np.where(in_range, buf, 0)]
    endpoint_dead = ~node_alive[src_nodes] | ~node_alive[dst_nodes]
    broken = dead_hop.any(axis=1) & ~endpoint_dead
    unreachable = endpoint_dead.copy()

    new_counts = counts.copy()
    repaired_rows = np.flatnonzero(broken)
    seg_flat = np.empty(0, dtype=np.int64)
    seg_offsets = np.zeros(1, dtype=np.int64)
    if repaired_rows.size:
        view = masked.sweep_view()
        paths = bfs_node_paths(
            view, src_nodes[repaired_rows], dst_nodes[repaired_rows]
        )
        repaired = RouteSet.from_node_paths(
            graph, paths, src_nodes[repaired_rows], dst_nodes[repaired_rows]
        )
        seg_flat = np.asarray(repaired.edge_ids, dtype=np.int64)
        seg_offsets = np.asarray(repaired.offsets, dtype=np.int64)
        new_counts[repaired_rows] = repaired.hop_counts
        unreachable[repaired_rows] = repaired.unreachable
    new_counts[endpoint_dead] = 0

    offsets = np.zeros(len(new_counts) + 1, dtype=np.int64)
    np.cumsum(new_counts, out=offsets[1:])
    edge_ids = np.empty(int(offsets[-1]), dtype=np.int64)
    keep_rows = np.flatnonzero(~broken & ~endpoint_dead)
    healthy_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=healthy_offsets[1:])
    healthy_flat = buf[in_range]
    if keep_rows.size:
        seg = _ragged_take(healthy_flat, healthy_offsets, keep_rows)
        _scatter_segments(edge_ids, offsets, keep_rows, seg[0], seg[1])
    if repaired_rows.size:
        _scatter_segments(edge_ids, offsets, repaired_rows, seg_flat, seg_offsets)
    return RouteSet.from_edge_arrays(
        graph, src_nodes, dst_nodes, edge_ids, offsets, unreachable
    )


def _ragged_take(flat, offsets, rows) -> Tuple[Sequence[int], Sequence[int]]:
    """``(segments, segment_offsets)`` of ``rows``' slices of a ragged array."""
    counts = offsets[rows + 1] - offsets[rows]
    out_offsets = _np.zeros(len(rows) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=out_offsets[1:])
    total = int(out_offsets[-1])
    idx = (
        _np.arange(total, dtype=_np.int64)
        - _np.repeat(out_offsets[:-1], counts)
        + _np.repeat(offsets[rows], counts)
    )
    return flat[idx], out_offsets


def _mask_endpoints(routes: RouteSet, masked) -> RouteSet:
    """Mark flows with a dead endpoint unreachable (BFS already returns
    empty paths for them when the view dropped the node's entries, but a
    dead *isolated-yet-present* endpoint must not route to itself)."""
    node_alive = _np.asarray(masked.node_alive, dtype=bool)
    endpoint_dead = (
        ~node_alive[_np.asarray(routes.src_nodes, dtype=_np.int64)]
        | ~node_alive[_np.asarray(routes.dst_nodes, dtype=_np.int64)]
    )
    if not bool(endpoint_dead.any()):
        return routes
    counts = _np.asarray(routes.hop_counts).copy()
    counts[endpoint_dead] = 0
    offsets = _np.zeros(len(counts) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=offsets[1:])
    keep = _np.repeat(~endpoint_dead, routes.hop_counts)
    return RouteSet.from_edge_arrays(
        routes.graph,
        routes.src_nodes,
        routes.dst_nodes,
        _np.asarray(routes.edge_ids)[keep],
        offsets,
        _np.asarray(routes.unreachable) | endpoint_dead,
    )
