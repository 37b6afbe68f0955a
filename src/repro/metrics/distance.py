"""Distance metrics: diameter, average path length, hop histograms.

Two hop conventions are reported throughout (see
:mod:`repro.routing.base`): physical *link hops* over the full graph and
logical *server hops* over the server-projected graph (two servers are
logically adjacent when they share a switch or a direct cable).  The
projection makes server-hop distances well-defined even for topologies
mixing switched and direct links (DCell, FiConn).

:func:`link_hop_stats` and :func:`server_hop_stats` route through the
compiled CSR kernel and (optionally parallel) sweep engine
(:mod:`repro.metrics.engine`).  The original dict-BFS implementations
live on as test oracles in ``tests/hop_oracle.py``; the parity tests
assert both paths produce identical :class:`DistanceStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.topology.graph import Network
from repro.topology.node import NodeKind


def logical_server_adjacency(net: Network) -> Dict[str, Set[str]]:
    """Server-projected adjacency: shared switch or direct server link."""
    adjacency: Dict[str, Set[str]] = {s: set() for s in net.servers}
    for node in net.nodes():
        if node.kind is NodeKind.SWITCH:
            members = [v for v in net.neighbors(node.name) if net.node(v).is_server]
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
    for link in net.links():
        if net.node(link.u).is_server and net.node(link.v).is_server:
            adjacency[link.u].add(link.v)
            adjacency[link.v].add(link.u)
    return adjacency


@dataclass(frozen=True)
class DistanceStats:
    """Summary of pairwise server distances under one hop convention.

    ``mean_ci95`` is the 95% confidence half-width of ``mean`` when the
    sweep was sampled (``exact`` is False), computed from the spread of
    per-source mean distances; exact sweeps carry 0.0.
    """

    diameter: int
    mean: float
    histogram: Dict[int, int]
    pairs: int
    exact: bool
    mean_ci95: float = 0.0

    @property
    def p99(self) -> int:
        """99th percentile distance (from the histogram)."""
        threshold = 0.99 * self.pairs
        seen = 0
        for hops in sorted(self.histogram):
            seen += self.histogram[hops]
            if seen >= threshold:
                return hops
        return self.diameter


def link_hop_stats(
    net: Network,
    sample_sources: Optional[int] = None,
    seed: int = 0,
    workers: Optional[int] = None,
) -> DistanceStats:
    """Pairwise server distances in link hops (compiled sweep engine).

    Exact (all sources) when ``sample_sources`` is None; otherwise one BFS
    per sampled source — diameter becomes a lower bound, means stay
    unbiased.  ``workers`` fans the sweep out over processes (``None`` =
    default, see :func:`repro.pool.resolve_workers`).
    """
    from repro.metrics.engine import sweep_distance_stats

    return sweep_distance_stats(
        net, hops="link", sample_sources=sample_sources, seed=seed, workers=workers
    )


def server_hop_stats(
    net: Network,
    sample_sources: Optional[int] = None,
    seed: int = 0,
    workers: Optional[int] = None,
) -> DistanceStats:
    """Pairwise server distances in logical server hops (compiled engine)."""
    from repro.metrics.engine import sweep_distance_stats

    return sweep_distance_stats(
        net, hops="server", sample_sources=sample_sources, seed=seed, workers=workers
    )


def server_diameter(net: Network) -> int:
    """Exact logical server-hop diameter."""
    return server_hop_stats(net).diameter


def link_diameter(net: Network) -> int:
    """Exact link-hop diameter over server pairs."""
    return link_hop_stats(net).diameter
