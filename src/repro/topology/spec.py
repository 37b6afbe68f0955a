"""The common interface every topology implements.

A :class:`TopologySpec` is an immutable parameter set that knows how to

* ``build()`` the concrete :class:`~repro.topology.graph.Network`;
* predict its own analytic properties (server/switch/link counts,
  diameter, bisection width) *without* building, so size sweeps can reach
  scales that would not fit in memory;
* produce topology-native routes (``route``), defaulting to BFS when the
  topology has no bespoke algorithm.

Experiments treat all topologies uniformly through this interface.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.topology.graph import Network
from repro.topology.validate import LinkPolicy

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.routing.base import Route


class TopologySpec(abc.ABC):
    """Parameter object + factory for one data-center topology instance."""

    #: short machine name, e.g. ``"abccc"``; set by subclasses.
    kind: str = ""

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def params(self) -> Dict[str, Any]:
        """The defining parameters, e.g. ``{"n": 4, "k": 2, "s": 3}``."""

    @property
    def label(self) -> str:
        """Human-readable instance label, e.g. ``ABCCC(n=4, k=2, s=3)``."""
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.kind.upper()}({inner})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.label

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TopologySpec)
            and self.kind == other.kind
            and self.params() == other.params()
        )

    def __hash__(self) -> int:
        return hash((self.kind, tuple(sorted(self.params().items()))))

    # ------------------------------------------------------------------
    # analytic properties (no build required)
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def num_servers(self) -> int:
        """Number of servers, from the closed-form count."""

    @property
    @abc.abstractmethod
    def num_switches(self) -> int:
        """Number of switches, from the closed-form count."""

    @property
    @abc.abstractmethod
    def num_links(self) -> int:
        """Number of links, from the closed-form count."""

    @property
    @abc.abstractmethod
    def server_ports(self) -> int:
        """NIC ports required per server."""

    @property
    @abc.abstractmethod
    def switch_ports(self) -> int:
        """Port count of the commodity switches used."""

    @property
    def diameter_server_hops(self) -> Optional[int]:
        """Worst-case logical server-hop distance, or ``None`` if unknown."""
        return None

    def switch_inventory(self) -> Dict[int, int]:
        """Switch purchase list: ``{port_count: how_many}``.

        Defaults to all switches having :attr:`switch_ports` ports;
        topologies mixing switch sizes override (e.g. ABCCC when crossbars
        outgrow the radix).
        """
        if self.num_switches == 0:
            return {}
        return {self.switch_ports: self.num_switches}

    @property
    def diameter_link_hops(self) -> Optional[int]:
        """Worst-case physical link-hop distance.

        Defaults to twice the server-hop diameter, which is exact for
        server-centric topologies whose paths alternate server/switch;
        topologies with direct server links or switch fabrics override.
        """
        server_hops = self.diameter_server_hops
        if server_hops is None:
            return None
        return 2 * server_hops

    @property
    def bisection_links(self) -> Optional[float]:
        """Analytic bisection width in links, or ``None`` if unknown."""
        return None

    def link_policy(self) -> LinkPolicy:
        """Which link pairings this topology legitimately uses."""
        return LinkPolicy.unrestricted()

    # ------------------------------------------------------------------
    # construction & routing
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build(self) -> Network:
        """Construct the full network graph."""

    def compiled(self, memmap_dir: Optional[str] = None):
        """The compiled CSR link graph of this topology.

        Dispatches to the vectorized direct-to-CSR constructor
        (:mod:`repro.topology.fastbuild`) when this family has one — no
        ``Node`` objects are created — and otherwise to
        ``compile_graph(self.build())``.  The two paths produce
        identical CSR arrays (``compile_graph(self.build())`` is the
        parity oracle).  ``memmap_dir`` lets the fast path back its
        large arrays with memory-mapped files.
        """
        from repro.topology.compiled import build_compiled

        return build_compiled(self, memmap_dir=memmap_dir)

    def route(self, net: Network, src: str, dst: str) -> "Route":
        """Topology-native one-to-one route (default: BFS shortest path).

        ``net`` must be a network built by this spec (or a failure-injected
        copy of one).
        """
        from repro.routing.shortest import bfs_path

        return bfs_path(net, src, dst)
