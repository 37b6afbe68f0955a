"""The :class:`Network` container: a typed, port-budgeted undirected graph.

This is the substrate every topology builder targets and every metric,
router and simulator consumes.  It is a thin, fast adjacency-dict graph
with three extras over a plain graph:

* nodes are typed (:class:`~repro.topology.node.NodeKind`) and carry a
  port budget that :meth:`Network.add_link` enforces;
* links are first-class (:class:`~repro.topology.node.Link`) so capacities
  feed straight into the flow and packet simulators;
* conversion to :mod:`networkx` for algorithms we do not hand-roll.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.topology.node import Link, Node, NodeKind, link_key

if TYPE_CHECKING:  # imported in to_networkx: most processes never convert
    import networkx as nx


class NetworkError(Exception):
    """Raised on structural misuse of a :class:`Network`."""


class Network:
    """An undirected data-center network of servers and switches.

    Node names are the graph keys.  The class is deliberately mutable and
    append-only (nodes and links can be added, and links/nodes can be
    removed to model failures); builders construct it incrementally.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._adj: Dict[str, Set[str]] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: free-form metadata set by builders (parameters, analytic props).
        self.meta: Dict[str, Any] = {}
        #: monotone mutation counter; caches key on it (see ``version``).
        self._version = 0

    @property
    def version(self) -> int:
        """Bumped by every structural mutation (add/remove node/link).

        Derived caches — notably the compiled CSR views in
        :mod:`repro.topology.compiled` — key on this counter, so they are
        invalidated exactly when the graph actually changes and reused
        across repeated sweeps otherwise.
        """
        return self._version

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Insert ``node``; the name must be unused."""
        if node.name in self._nodes:
            raise NetworkError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._adj[node.name] = set()
        self._version += 1
        return node

    def add_server(self, name: str, ports: int, address: Any = None, role: str = "") -> Node:
        """Convenience wrapper to insert a server node."""
        return self.add_node(Node(name, NodeKind.SERVER, ports, role=role, address=address))

    def add_switch(self, name: str, ports: int, address: Any = None, role: str = "") -> Node:
        """Convenience wrapper to insert a switch node."""
        return self.add_node(Node(name, NodeKind.SWITCH, ports, role=role, address=address))

    def add_link(self, u: str, v: str, capacity: float = 1.0, length: float = 1.0) -> Link:
        """Connect ``u`` and ``v``, consuming one port on each.

        Raises :class:`NetworkError` if either endpoint is unknown, the link
        already exists, or an endpoint has no free port.
        """
        for endpoint in (u, v):
            if endpoint not in self._nodes:
                raise NetworkError(f"unknown node {endpoint!r}")
        key = link_key(u, v)
        if key in self._links:
            raise NetworkError(f"duplicate link {u!r} - {v!r}")
        for endpoint in (u, v):
            node = self._nodes[endpoint]
            if len(self._adj[endpoint]) >= node.ports:
                raise NetworkError(
                    f"{endpoint!r} has no free port "
                    f"(ports={node.ports}, degree={len(self._adj[endpoint])})"
                )
        link = Link.between(u, v, capacity=capacity, length=length)
        self._links[key] = link
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._version += 1
        return link

    # ------------------------------------------------------------------
    # removal (failure modelling)
    # ------------------------------------------------------------------
    def remove_link(self, u: str, v: str) -> Link:
        """Remove the link ``{u, v}``; returns the removed :class:`Link`."""
        key = link_key(u, v)
        try:
            link = self._links.pop(key)
        except KeyError:
            raise NetworkError(f"no link {u!r} - {v!r}") from None
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._version += 1
        return link

    def remove_node(self, name: str) -> Node:
        """Remove ``name`` and all its incident links."""
        try:
            node = self._nodes.pop(name)
        except KeyError:
            raise NetworkError(f"no node {name!r}") from None
        for neighbor in list(self._adj[name]):
            self.remove_link(name, neighbor)
        del self._adj[name]
        self._version += 1
        return node

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"no node {name!r}") from None

    def has_link(self, u: str, v: str) -> bool:
        return link_key(u, v) in self._links

    def link(self, u: str, v: str) -> Link:
        try:
            return self._links[link_key(u, v)]
        except KeyError:
            raise NetworkError(f"no link {u!r} - {v!r}") from None

    def neighbors(self, name: str) -> Set[str]:
        """The (live) neighbor set of ``name`` — do not mutate."""
        try:
            return self._adj[name]
        except KeyError:
            raise NetworkError(f"no node {name!r}") from None

    def adjacency(self) -> Dict[str, Set[str]]:
        """The full name -> neighbor-set map — read-only, do not mutate.

        One dict lookup answers both "is ``v`` alive" and "is ``u - v``
        a live link" (``v in adjacency()[u]``), which is what the
        fault-routing inner loop needs thousands of times per route.
        """
        return self._adj

    def degree(self, name: str) -> int:
        return len(self.neighbors(name))

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_names(self) -> Iterator[str]:
        return iter(self._nodes)

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    @property
    def servers(self) -> List[str]:
        """Names of all server nodes, in insertion order."""
        return [n.name for n in self._nodes.values() if n.is_server]

    @property
    def switches(self) -> List[str]:
        """Names of all switch nodes, in insertion order."""
        return [n.name for n in self._nodes.values() if n.is_switch]

    @property
    def num_servers(self) -> int:
        return sum(1 for n in self._nodes.values() if n.is_server)

    @property
    def num_switches(self) -> int:
        return sum(1 for n in self._nodes.values() if n.is_switch)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def switches_by_role(self, role: str) -> List[str]:
        """Switch names whose ``role`` matches exactly."""
        return [
            n.name for n in self._nodes.values() if n.is_switch and n.role == role
        ]

    def find_by_address(self, address: Any) -> Optional[str]:
        """Name of the node with ``address``, or ``None``.

        Builds a lazy reverse index on first use; builders set addresses
        before routing queries begin, so the cache stays valid.  The cache
        is invalidated by node removal.
        """
        index = self.meta.get("_address_index")
        if index is None or len(index) != len(self._nodes):
            index = {
                node.address: node.name
                for node in self._nodes.values()
                if node.address is not None
            }
            self.meta["_address_index"] = index
        return index.get(address)

    # ------------------------------------------------------------------
    # views and exports
    # ------------------------------------------------------------------
    def copy(self) -> "Network":
        """Deep-enough copy: shares immutable Node/Link values, new containers."""
        clone = Network(self.name)
        clone._nodes = dict(self._nodes)
        clone._adj = {name: set(neigh) for name, neigh in self._adj.items()}
        clone._links = dict(self._links)
        clone.meta = {k: v for k, v in self.meta.items() if not k.startswith("_")}
        return clone

    def subgraph_without(
        self,
        dead_nodes: Iterable[str] = (),
        dead_links: Iterable[Tuple[str, str]] = (),
    ) -> "Network":
        """A copy with the given nodes/links removed (failure scenarios)."""
        clone = self.copy()
        for u, v in dead_links:
            if clone.has_link(u, v):
                clone.remove_link(u, v)
        for name in dead_nodes:
            if name in clone:
                clone.remove_node(name)
        return clone

    def to_networkx(self) -> nx.Graph:
        """Export as an :class:`networkx.Graph` with node/link attributes."""
        import networkx as nx

        graph = nx.Graph(name=self.name)
        for node in self._nodes.values():
            graph.add_node(
                node.name,
                kind=node.kind.value,
                ports=node.ports,
                role=node.role,
            )
        for link in self._links.values():
            graph.add_edge(link.u, link.v, capacity=link.capacity, length=link.length)
        return graph

    def __repr__(self) -> str:
        return (
            f"<Network {self.name!r}: {self.num_servers} servers, "
            f"{self.num_switches} switches, {self.num_links} links>"
        )
