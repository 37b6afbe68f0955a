"""Traffic patterns: the workloads the evaluation runs on every topology.

A *pattern* is a list of :class:`Flow` endpoint pairs.  All generators are
deterministic for a given seed, and operate on the server list of any
topology, so identical workloads can be applied across topologies — the
discipline the paper's "extensive simulations" comparisons need.

Endpoints are opaque hashable ids: server *name strings* on the object
graph, or *integer ordinals* (``range(num_servers)``, a numpy index
array) on the compiled CSR path — every generator accepts either, so
the same code drives :func:`repro.routing.base.route_all` and the
batch-native :mod:`repro.traffic` engine.  For large-scale seeded
matrices prefer :mod:`repro.traffic.matrix`, whose PCG64 streams are
process-stable; these ``random.Random`` generators remain the
small-scale, name-friendly originals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

#: a server id: a name string on the object graph, an integer ordinal on
#: the compiled path.  Only equality/hashability is assumed.
ServerId = Any


@dataclass(frozen=True)
class Flow:
    """One unidirectional traffic demand."""

    flow_id: str
    src: ServerId
    dst: ServerId
    size: float = 1.0  # abstract data volume (packets for the packet sim)

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"flow {self.flow_id}: src == dst == {self.src!r}")
        if self.size <= 0:
            raise ValueError(f"flow {self.flow_id}: size must be positive")


def permutation_traffic(servers: Sequence[ServerId], seed: int = 0) -> List[Flow]:
    """A random server permutation with no fixed points (derangement).

    Every server sends exactly one flow and receives exactly one flow —
    the classic stress pattern for path diversity.
    """
    servers = list(servers)
    if len(servers) < 2:
        raise ValueError("need at least two servers")
    rng = random.Random(seed)
    destinations = servers[:]
    # Sattolo's algorithm yields a uniformly random single cycle, which is
    # always a derangement.
    for i in range(len(destinations) - 1, 0, -1):
        j = rng.randrange(i)
        destinations[i], destinations[j] = destinations[j], destinations[i]
    return [
        Flow(f"perm-{i}", src, dst)
        for i, (src, dst) in enumerate(zip(servers, destinations))
    ]


def all_to_all_traffic(
    servers: Sequence[ServerId], max_flows: Optional[int] = None, seed: int = 0
) -> List[Flow]:
    """Every ordered pair — optionally subsampled to ``max_flows``.

    Subsampling keeps per-server symmetry loose but unbiased; experiments
    on larger instances use it to bound runtime.
    """
    servers = list(servers)
    pairs = [(s, d) for s in servers for d in servers if s != d]
    if max_flows is not None and max_flows < len(pairs):
        pairs = random.Random(seed).sample(pairs, max_flows)
    return [Flow(f"a2a-{i}", s, d) for i, (s, d) in enumerate(pairs)]


def uniform_random_traffic(
    servers: Sequence[ServerId], num_flows: int, seed: int = 0
) -> List[Flow]:
    """``num_flows`` source/destination pairs drawn uniformly."""
    servers = list(servers)
    if len(servers) < 2:
        raise ValueError("need at least two servers")
    rng = random.Random(seed)
    flows = []
    for i in range(num_flows):
        src, dst = rng.sample(servers, 2)
        flows.append(Flow(f"uni-{i}", src, dst))
    return flows


def hotspot_traffic(
    servers: Sequence[ServerId],
    num_flows: int,
    num_hotspots: int = 1,
    hot_fraction: float = 0.7,
    seed: int = 0,
) -> List[Flow]:
    """Skewed traffic: ``hot_fraction`` of flows target a few servers.

    Models incast toward popular services; the remaining flows are
    uniform.
    """
    servers = list(servers)
    if not 0 <= hot_fraction <= 1:
        raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    if not 1 <= num_hotspots < len(servers):
        raise ValueError("num_hotspots must be in [1, num_servers)")
    rng = random.Random(seed)
    hotspots = rng.sample(servers, num_hotspots)
    flows = []
    for i in range(num_flows):
        if rng.random() < hot_fraction:
            dst = rng.choice(hotspots)
            src = rng.choice([s for s in servers if s != dst])
        else:
            src, dst = rng.sample(servers, 2)
        flows.append(Flow(f"hot-{i}", src, dst))
    return flows


def shuffle_traffic(
    servers: Sequence[ServerId],
    num_mappers: int,
    num_reducers: int,
    seed: int = 0,
) -> List[Flow]:
    """MapReduce shuffle: every mapper sends to every reducer.

    Mappers and reducers are disjoint random server subsets.
    """
    servers = list(servers)
    if num_mappers + num_reducers > len(servers):
        raise ValueError("mappers + reducers exceed the server count")
    rng = random.Random(seed)
    chosen = rng.sample(servers, num_mappers + num_reducers)
    mappers, reducers = chosen[:num_mappers], chosen[num_mappers:]
    return [
        Flow(f"shfl-{m}-{r}", mapper, reducer)
        for m, mapper in enumerate(mappers)
        for r, reducer in enumerate(reducers)
    ]


def one_to_all_traffic(servers: Sequence[ServerId], source: Optional[ServerId] = None) -> List[Flow]:
    """The broadcast demand set: one flow from ``source`` to every other."""
    servers = list(servers)
    src = source if source is not None else servers[0]
    if src not in servers:
        raise ValueError(f"source {src!r} is not a server")
    return [
        Flow(f"o2a-{i}", src, dst) for i, dst in enumerate(s for s in servers if s != src)
    ]


PATTERNS = {
    "permutation": permutation_traffic,
    "all_to_all": all_to_all_traffic,
    "uniform": uniform_random_traffic,
    "hotspot": hotspot_traffic,
    "shuffle": shuffle_traffic,
    "one_to_all": one_to_all_traffic,
}
