"""Parallel-path construction for ABCCC.

ABCCC inherits BCube's path diversity at the *crossbar* level: correcting
the address digits in the ``k + 1`` rotations of the level order yields up
to ``k + 1`` routes whose intermediate crossbars are pairwise disjoint
whenever all digits differ (each intermediate's digit pattern is a distinct
circular interval of corrected levels, which identifies its rotation
uniquely).  Servers have only ``s`` ports, so full node-disjointness at the
endpoints is capped by ``s``; the experiments therefore report both the
crossbar-disjoint family size and the true max-flow edge-disjoint count.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.core.address import AbcccParams, ServerAddress
from repro.core.permutation import differing_levels
from repro.core.routing import route_with_order
from repro.routing.base import Route
from repro.topology.graph import Network


def rotation_routes(
    params: AbcccParams, src: ServerAddress, dst: ServerAddress
) -> List[Route]:
    """One route per rotation of the differing-level sequence.

    Returns between 1 and ``len(differing levels)`` routes (a single
    degenerate route when the crossbar addresses already agree).
    """
    levels = differing_levels(src, dst)
    if not levels:
        return [route_with_order(params, src, dst, [])]
    routes = []
    for shift in range(len(levels)):
        order = levels[shift:] + levels[:shift]
        routes.append(route_with_order(params, src, dst, order))
    return routes


def intermediate_crossbars(route: Route) -> Set[Tuple[int, ...]]:
    """Crossbar digit-vectors visited strictly between the endpoints."""
    seen: Set[Tuple[int, ...]] = set()
    for name in route.nodes[1:-1]:
        if name.startswith("s"):
            seen.add(ServerAddress.parse(name).digits)
    endpoints = {
        ServerAddress.parse(route.source).digits,
        ServerAddress.parse(route.destination).digits,
    }
    return seen - endpoints


def crossbar_disjoint_routes(
    params: AbcccParams, src: ServerAddress, dst: ServerAddress
) -> List[Route]:
    """A maximal subfamily of rotation routes with pairwise disjoint
    intermediate crossbars (greedy selection in rotation order).

    When **all** ``k + 1`` digits differ the full family is returned — the
    paper's parallel-path claim — and tests assert no greedy filtering was
    needed in that case.
    """
    chosen: List[Route] = []
    used: Set[Tuple[int, ...]] = set()
    for route in rotation_routes(params, src, dst):
        inter = intermediate_crossbars(route)
        if inter & used:
            continue
        chosen.append(route)
        used |= inter
    return chosen


def edge_disjoint_path_count(net: Network, src: str, dst: str) -> int:
    """Ground-truth number of edge-disjoint paths (max-flow, unit caps)."""
    import networkx as nx

    graph = net.to_networkx()
    return nx.algorithms.connectivity.edge_connectivity(graph, src, dst)


def node_disjoint_path_count(net: Network, src: str, dst: str) -> int:
    """Ground-truth number of internally node-disjoint paths."""
    import networkx as nx

    graph = net.to_networkx()
    return nx.algorithms.connectivity.node_connectivity(graph, src, dst)
