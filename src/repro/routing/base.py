"""Route objects and the routing-algorithm protocol.

A :class:`Route` is an explicit node-name walk through a
:class:`~repro.topology.graph.Network`.  Lengths are reported two ways,
matching the two conventions in the data-center literature:

* ``link_hops`` — number of physical links traversed (switches count);
* ``server_hops`` — number of *logical* server-to-server hops, i.e. the
  BCube-style metric where ``server - switch - server`` is one hop.  For
  direct server-server links (DCell/FiConn) each such link is also one
  logical hop, so ``server_hops == number of servers on the walk - 1``
  for every topology in this library.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Dict, Iterator, Protocol, Sequence, Tuple

from repro.topology.graph import Network
from repro.topology.node import NodeKind


class RoutingError(Exception):
    """Raised when a route cannot be produced (disconnected, bad input)."""


@dataclass(frozen=True)
class Route:
    """An explicit walk ``nodes[0] -> nodes[-1]`` through a network."""

    nodes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 1:
            raise ValueError("a route needs at least one node")

    @classmethod
    def of(cls, nodes: Sequence[str]) -> "Route":
        return cls(tuple(nodes))

    @property
    def source(self) -> str:
        return self.nodes[0]

    @property
    def destination(self) -> str:
        return self.nodes[-1]

    @property
    def link_hops(self) -> int:
        return len(self.nodes) - 1

    def server_hops(self, net: Network) -> int:
        """Logical server-to-server hop count (see module docstring)."""
        servers = sum(1 for n in self.nodes if net.node(n).kind is NodeKind.SERVER)
        return max(servers - 1, 0)

    @property
    def is_simple(self) -> bool:
        """True iff no node repeats."""
        return len(set(self.nodes)) == len(self.nodes)

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Consecutive node pairs along the walk."""
        for i in range(len(self.nodes) - 1):
            yield self.nodes[i], self.nodes[i + 1]

    def is_valid(self, net: Network) -> bool:
        """True iff every node exists and every consecutive pair is a link."""
        try:
            self.validate(net)
        except RoutingError:
            return False
        return True

    def validate(self, net: Network) -> None:
        """Raise :class:`RoutingError` with a precise message if invalid."""
        adj = net.adjacency()
        prev = None
        for n in self.nodes:
            if n not in adj:
                raise RoutingError(f"route visits unknown node {n!r}")
            if prev is not None and n not in adj[prev]:
                raise RoutingError(f"route uses non-existent link {prev!r} - {n!r}")
            prev = n

    def concat(self, other: "Route") -> "Route":
        """Join two walks; ``other`` must start where this one ends."""
        if self.destination != other.source:
            raise RoutingError(
                f"cannot concat: {self.destination!r} != {other.source!r}"
            )
        return Route(self.nodes + other.nodes[1:])

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes)


class Router(Protocol):
    """Anything that can produce a route between two servers."""

    def route(self, net: Network, src: str, dst: str) -> Route:  # pragma: no cover
        """Return a route from ``src`` to ``dst`` in ``net``."""
        ...


def route_all(net: Network, flows: Sequence, router) -> Dict[str, Route]:
    """Produce a route per flow via ``router(net, src, dst)``.

    ``flows`` are :class:`~repro.sim.traffic.Flow`-shaped (``flow_id``,
    ``src``, ``dst``).  ``router`` may also accept a ``flow_id`` keyword
    (ECMP hashing); it is passed when the signature supports it.
    """
    try:
        wants_flow_id = "flow_id" in inspect.signature(router).parameters
    except (TypeError, ValueError):  # builtins / C callables
        wants_flow_id = False
    routes: Dict[str, Route] = {}
    for flow in flows:
        if wants_flow_id:
            routes[flow.flow_id] = router(net, flow.src, flow.dst, flow_id=flow.flow_id)
        else:
            routes[flow.flow_id] = router(net, flow.src, flow.dst)
    return routes


def stretch(route: Route, shortest_links: int) -> float:
    """Multiplicative stretch of ``route`` over the shortest link-hop count.

    A zero-length shortest path (src == dst) has stretch 1.0 by convention.
    """
    if shortest_links == 0:
        return 1.0
    return route.link_hops / shortest_links
