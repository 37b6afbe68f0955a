"""Dict-BFS reference paths for the distance sweep engine.

:func:`legacy_link_hop_stats` and :func:`legacy_server_hop_stats` walk
the ``Network`` adjacency (or its server projection) one Python BFS per
source.  The parity tests require the compiled engine's
:class:`~repro.metrics.distance.DistanceStats` to be byte-identical to
theirs, sampled sources included.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Dict, FrozenSet, Optional, Sequence, Set

from repro.metrics.distance import DistanceStats, logical_server_adjacency
from repro.routing.shortest import bfs_distances
from repro.topology.graph import Network


def _bfs_over(adjacency: Dict[str, Set[str]], source: str) -> Dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _pick_sources(
    servers: Sequence[str], sample: Optional[int], seed: int
) -> Sequence[str]:
    if sample is None or sample >= len(servers):
        return servers
    return random.Random(seed).sample(list(servers), sample)


def _collect(
    sources: Sequence[str],
    all_servers: Sequence[str],
    dist_fn,
    exact: bool,
) -> DistanceStats:
    histogram: Counter = Counter()
    total = 0
    diameter = 0
    targets: FrozenSet[str] = frozenset(all_servers)
    expected = len(targets) - 1
    for src in sources:
        reached = 0
        for dst, hops in dist_fn(src).items():
            if hops == 0 or dst not in targets:
                continue
            reached += 1
            histogram[hops] += 1
            total += hops
            if hops > diameter:
                diameter = hops
        if reached != expected:
            raise ValueError(
                f"{expected - reached} servers unreachable from {src!r}"
            )
    pairs = len(sources) * expected
    return DistanceStats(
        diameter=diameter,
        mean=total / pairs if pairs else 0.0,
        histogram=dict(sorted(histogram.items())),
        pairs=pairs,
        exact=exact,
    )


def legacy_link_hop_stats(
    net: Network, sample_sources: Optional[int] = None, seed: int = 0
) -> DistanceStats:
    """Link-hop distance stats by dict-BFS over the ``Network`` adjacency."""
    servers = net.servers
    sources = _pick_sources(servers, sample_sources, seed)
    return _collect(
        sources,
        servers,
        lambda src: bfs_distances(net, src),
        exact=sample_sources is None or sample_sources >= len(servers),
    )


def legacy_server_hop_stats(
    net: Network, sample_sources: Optional[int] = None, seed: int = 0
) -> DistanceStats:
    """Server-hop distance stats by dict-BFS over the server projection."""
    adjacency = logical_server_adjacency(net)
    servers = net.servers
    sources = _pick_sources(servers, sample_sources, seed)
    return _collect(
        sources,
        servers,
        lambda src: _bfs_over(adjacency, src),
        exact=sample_sources is None or sample_sources >= len(servers),
    )
