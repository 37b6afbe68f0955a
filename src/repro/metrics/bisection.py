"""Bisection-width estimation.

The bisection width is the minimum number of links that must be cut to
split the *servers* into two (near-)halves; switches fall on whichever
side minimises the cut.  Finding the optimum is NP-hard, so the module
provides:

* :func:`partition_cut_width` — **exact** minimum cut for a *given* server
  bipartition (switch placement optimised by max-flow on the contracted
  graph);
* :func:`bisection_upper_bound` — the best (smallest) cut over a portfolio
  of candidate partitions: spectral (Fiedler-vector) splits, address-digit
  splits supplied by the caller, and random splits.  An upper bound on the
  true width — tests assert it *meets* the closed-form value on ABCCC and
  BCube instances, which certifies both the formula and the estimator;
* :func:`exact_bisection_small` — brute force over all balanced server
  bipartitions, feasible up to ~14 servers, used as ground truth in tests.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.topology.compiled import compile_graph
from repro.topology.graph import Network


def partition_cut_width(net: Network, side_a: Iterable[str]) -> int:
    """Exact min link cut separating ``side_a`` servers from the rest.

    Servers are pinned to their side; switches are free.  Computed as a
    max-flow between two contracted terminals (unit link capacities) on
    the contracted graph, built from the compiled edge arrays — the
    compile is cached per network, so the portfolio search in
    :func:`bisection_upper_bound` flattens the network only once.
    """
    side_a = set(side_a)
    servers = set(net.servers)
    if not side_a or side_a == servers:
        raise ValueError("side_a must be a proper non-empty subset of servers")
    if not side_a <= servers:
        raise ValueError("side_a contains non-server nodes")

    import networkx as nx

    compiled = compile_graph(net)
    side = {compiled.index[name] for name in side_a}
    server_ids = set(int(i) for i in compiled.server_indices)
    # Terminal (or own index) per node: contract servers into _A/_B.
    terminal = [
        "_A" if i in side else ("_B" if i in server_ids else i)
        for i in range(compiled.num_nodes)
    ]
    graph = nx.Graph()
    for u, v in zip(compiled.edge_u, compiled.edge_v):
        a, b = terminal[u], terminal[v]
        if a == b:
            continue
        # Parallel links accumulate capacity.
        if graph.has_edge(a, b):
            graph[a][b]["capacity"] += 1
        else:
            graph.add_edge(a, b, capacity=1)
    cut_value, _ = nx.minimum_cut(graph, "_A", "_B")
    return int(cut_value)


def spectral_split(net: Network, seed: int = 0) -> Set[str]:
    """Server halves from the Fiedler vector of the full graph."""
    import networkx as nx

    graph = net.to_networkx()
    servers = net.servers
    try:
        fiedler = nx.fiedler_vector(graph, seed=seed, method="tracemin_lu")
        order = sorted(zip(graph.nodes(), fiedler), key=lambda kv: kv[1])
        ranked = [name for name, _ in order if name in set(servers)]
    except nx.NetworkXError:  # tiny or disconnected graphs
        ranked = list(servers)
    return set(ranked[: len(servers) // 2])


def random_split(net: Network, seed: int) -> Set[str]:
    servers = list(net.servers)
    rng = random.Random(seed)
    rng.shuffle(servers)
    return set(servers[: len(servers) // 2])


def bisection_upper_bound(
    net: Network,
    candidate_partitions: Sequence[Iterable[str]] = (),
    random_tries: int = 3,
    spectral: bool = True,
    seed: int = 0,
) -> int:
    """Smallest exact cut over spectral, supplied, and random partitions."""
    candidates: List[Set[str]] = [set(p) for p in candidate_partitions]
    if spectral:
        candidates.append(spectral_split(net, seed=seed))
    for i in range(random_tries):
        candidates.append(random_split(net, seed + 1000 + i))
    best = None
    for side in candidates:
        width = partition_cut_width(net, side)
        if best is None or width < best:
            best = width
    if best is None:
        raise ValueError("no candidate partitions")
    return best


def exact_bisection_small(net: Network, max_servers: int = 14) -> int:
    """Ground-truth bisection width by exhaustive balanced bipartition."""
    servers = list(net.servers)
    if len(servers) > max_servers:
        raise ValueError(
            f"{len(servers)} servers is too many for exhaustive bisection "
            f"(limit {max_servers})"
        )
    half = len(servers) // 2
    anchor = servers[0]  # fix one server's side to halve the search
    best: Optional[int] = None
    for rest in itertools.combinations(servers[1:], half - 1):
        side = set(rest) | {anchor}
        width = partition_cut_width(net, side)
        if best is None or width < best:
            best = width
    if best is None:  # fewer than 2 servers
        raise ValueError("need at least 2 servers for a bisection")
    return best


def digit_split_abccc(net: Network, level: int) -> Set[str]:
    """ABCCC/BCCC candidate partition: low half of the level's digit."""
    from repro.core.address import ServerAddress

    params = net.meta.get("params")
    if params is None:
        raise ValueError("network was not built by the ABCCC builder")
    half = params.n // 2
    side = set()
    for name in net.servers:
        if ServerAddress.parse(name).digit(level) < half:
            side.add(name)
    return side


def digit_split_bcube(net: Network, level: int) -> Set[str]:
    """BCube candidate partition: low half of the level's digit."""
    from repro.baselines.bcube import parse_server

    n = net.meta["n"]
    half = n // 2
    return {name for name in net.servers if parse_server(name)[level] < half}


def pod_split_fattree(net: Network) -> Set[str]:
    """Fat-tree candidate partition: low half of the pods."""
    p = net.meta["p"]
    side = set()
    for name in net.servers:
        pod = int(name[1:].split(".")[0])
        if pod < p // 2:
            side.add(name)
    return side
