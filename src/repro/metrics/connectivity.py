"""Structural path diversity between server pairs.

Node and edge connectivity of sampled server pairs, via networkx.
Degradation under component failures (connection ratio, largest
component) is answered by :class:`repro.faults.mask.MaskedGraph`.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set, Tuple

from repro.topology.graph import Network


def server_pair_connectivity(
    net: Network, pairs: Sequence[Tuple[str, str]]
) -> List[Tuple[int, int]]:
    """``(node_connectivity, edge_connectivity)`` for each server pair."""
    import networkx as nx

    graph = net.to_networkx()
    results = []
    for src, dst in pairs:
        node_conn = nx.node_connectivity(graph, src, dst)
        edge_conn = nx.edge_connectivity(graph, src, dst)
        results.append((node_conn, edge_conn))
    return results


def sample_server_pairs(
    net: Network, count: int, seed: int = 0
) -> List[Tuple[str, str]]:
    """``count`` distinct random ordered server pairs (src != dst)."""
    servers = list(net.servers)
    if len(servers) < 2:
        raise ValueError("need at least two servers")
    rng = random.Random(seed)
    pairs: Set[Tuple[str, str]] = set()
    limit = len(servers) * (len(servers) - 1)
    while len(pairs) < min(count, limit):
        src, dst = rng.sample(servers, 2)
        pairs.add((src, dst))
    return sorted(pairs)
