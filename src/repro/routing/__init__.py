"""Generic routing substrate: routes, BFS, ECMP, forwarding tables."""

from repro.routing.base import Route, Router, RoutingError, route_all, stretch
from repro.routing.ecmp import EcmpRouter, fnv1a
from repro.routing.shortest import (
    all_pairs_server_distances,
    bfs_distances,
    bfs_path,
    eccentricity,
    k_shortest_paths,
    shortest_distance,
)
from repro.routing.table import ForwardingTable

__all__ = [
    "EcmpRouter",
    "ForwardingTable",
    "Route",
    "Router",
    "RoutingError",
    "all_pairs_server_distances",
    "bfs_distances",
    "bfs_path",
    "eccentricity",
    "fnv1a",
    "k_shortest_paths",
    "route_all",
    "shortest_distance",
    "stretch",
]
