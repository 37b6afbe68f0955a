"""Max-min fair allocation and fluid FCT over a RouteSet.

The one max-min and fluid-FCT implementation in the tree: every
experiment, ``repro traffic`` and the job simulator allocate here.
Water-filling runs in batched rounds: each round freezes the flows of
every locally minimal edge at once, so a permutation takes tens of
rounds (27–32 at 38,880 flows, 32–35 at 163,840), each a handful of
array passes over the live incidence.  The test suite checks the rates
against an exact ``Fraction`` water-filling oracle and the max-min
certificate.

Flows marked unreachable in the :class:`~repro.traffic.routes.RouteSet`
allocate at rate 0.0 and are excluded from the fairness statistics —
under a degraded network, lost flows are reported, not crashed on.

FCT comes from the fluid trajectory: re-solve max-min over the active
flows, advance to the next completion or arrival, retire, admit,
repeat.  Every solve retires or admits at least one flow, so the loop
runs at most two solves per flow.  In practice it is about one per
five to ten flows, not a handful: on ABCCC(4,3,2), a 1,024-flow
permutation takes 213–220 solves and a 4,096-flow all-to-all 433–449
(matrix seeds 0, 1 and 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

import numpy as _np

from repro.obs import trace as _obs

#: relative tie tolerance between saturation levels, and the relative
#: completion and arrival thresholds of the fluid FCT loop.
SATURATION_EPS = 1e-12


@dataclass(frozen=True)
class TrafficAllocation:
    """Max-min fair outcome for one RouteSet, batch form.

    Attributes:
        rates: float64 rate per flow (0.0 for unreachable flows).
        bottleneck_edges: per flow, the first edge on its route that
            is saturated and on which no flow has a higher rate; -1 for
            unreachable, inactive or uncapped flows.
        unreachable: per-flow bool, copied from the RouteSet.
        rounds: batched water-filling rounds; each freezes the flows of
            every locally minimal edge.
    """

    rates: Any
    bottleneck_edges: Any
    unreachable: Any
    rounds: int

    @property
    def num_flows(self) -> int:
        return len(self.rates)

    @property
    def num_unreachable(self) -> int:
        return int(_np.count_nonzero(self.unreachable))

    def _served(self):
        return self.rates[~self.unreachable]

    @property
    def aggregate_throughput(self) -> float:
        return float(self._served().sum())

    @property
    def min_rate(self) -> float:
        served = self._served()
        return float(served.min()) if served.size else 0.0

    @property
    def max_rate(self) -> float:
        served = self._served()
        return float(served.max()) if served.size else 0.0

    @property
    def mean_rate(self) -> float:
        served = self._served()
        return float(served.mean()) if served.size else 0.0

    @property
    def jain_fairness(self) -> float:
        """Jain's index over served flows, clamped into [0, 1]."""
        served = self._served()
        if not served.size:
            return 0.0
        square_of_sum = float(served.sum()) ** 2
        sum_of_squares = float((served * served).sum())
        return min(square_of_sum / (served.size * sum_of_squares), 1.0)

    def rate_percentiles(self, qs: Sequence[float] = (0.01, 0.50, 0.99)):
        """Nearest-rank percentiles of the served rate distribution."""
        served = _np.sort(self._served())
        if not served.size:
            return {q: 0.0 for q in qs}
        ranks = [min(max(math.ceil(q * served.size) - 1, 0), served.size - 1) for q in qs]
        return {q: float(served[r]) for q, r in zip(qs, ranks)}


def max_min_rates(routes, active: Optional[Any] = None) -> TrafficAllocation:
    """Max-min fair rates for a RouteSet, by batched water-filling.

    Args:
        routes: the flow x edge incidence.
        active: optional per-flow bool — flows outside the mask get
            rate 0.0 and consume no capacity (the FCT loop's retired
            flows).

    An edge's level is ``(capacity - rates frozen on it) / live
    crossings``, crossings counted with multiplicity.  Each round
    computes every live edge's level and freezes the flows of every
    locally minimal edge: one on which no live flow crosses an edge with
    a lower level, within a relative ``SATURATION_EPS``.  Levels only
    rise as flows freeze, so such an edge saturates at exactly its
    current level, and all of them freeze in the same round; a flow that
    crosses two of them sees levels within the tie tolerance and takes
    the lower.  The round then drops its frozen flows from the live
    incidence.  The tie rule is relative, so rounds and rates do not
    depend on the capacity unit.

    A running float sum of the frozen rates only compares levels.  The
    level that sets a rate divides the edge's exactly rounded headroom,
    its capacity less the ``math.fsum`` of the rates frozen on it, so
    rates stay within a few ulps of exact water-filling.

    A flow's bottleneck is the first edge on its route that is saturated
    and on which no flow has a higher rate, both within
    ``SATURATION_EPS``: the witness of the max-min certificate, taken
    from the final rates.

    The counter ``traffic.allocate.entries_scanned`` gains the live
    incidence entries the rounds scan.
    """
    np = _np
    num_flows = routes.num_flows
    num_edges = routes.num_edges
    unreachable = np.asarray(routes.unreachable, dtype=bool)
    flow_active = ~unreachable
    if active is not None:
        flow_active &= np.asarray(active, dtype=bool)
    offsets = np.asarray(routes.offsets, dtype=np.int64)
    edge_ids = np.asarray(routes.edge_ids, dtype=np.int64)
    hops = np.diff(offsets)
    capacity = routes.capacities()

    # Edge -> flow adjacency, for the rates frozen on an edge: every
    # entry's flow, grouped by edge.  Sorting packed (edge, flow) keys
    # is several times faster than a stable argsort of the edges.
    packed = edge_ids << 32
    packed |= np.repeat(np.arange(num_flows, dtype=np.int32), hops)
    packed.sort()
    packed &= 0xFFFFFFFF
    edge_flows = packed.astype(np.int32)
    del packed
    edge_offsets = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_ids, minlength=num_edges), out=edge_offsets[1:])

    # The live incidence in flow order: the unfrozen flows that cross an
    # edge, their hop counts, and the edges of their entries.
    live_flows = np.flatnonzero(flow_active & (hops > 0)).astype(np.int32)
    live_hops = hops[live_flows]
    live_edges = edge_ids.astype(np.int32)[np.repeat(flow_active, hops)]
    crossings = np.bincount(live_edges, minlength=num_edges)
    residual = capacity.copy()
    rates = np.zeros(num_flows, dtype=np.float64)
    # Per flow, the lowest exact level among the minimal edges it has
    # crossed; inf while it has crossed none.  Read for live flows only.
    freeze_level = np.full(num_flows, math.inf)
    rounds = 0
    scanned = 0
    # Each round deletes its temporaries once used: incidence-sized
    # arrays alive together set the allocator's peak memory.
    while live_flows.size:
        rounds += 1
        scanned += live_edges.size
        starts = np.zeros(live_flows.size, dtype=np.int64)
        np.cumsum(live_hops[:-1], out=starts[1:])
        # Levels of edges that no live flow crosses are never read.
        level = residual / np.maximum(crossings, 1)
        # Each flow's lowest level, within the tie rule; an edge is
        # locally minimal when its level is within the limit of every
        # flow on it.
        limit = np.minimum.reduceat(level[live_edges], starts)
        limit += limit * SATURATION_EPS
        edge_limit = np.full(num_edges, math.inf)
        np.minimum.at(edge_limit, live_edges, np.repeat(limit, live_hops))
        del limit
        minimal = np.flatnonzero((crossings > 0) & (level <= edge_limit))
        del edge_limit

        # The flows crossing the minimal edges, edge by edge.  Unfrozen
        # flows still read rate 0.0, so the nonzero rates among them are
        # the frozen ones; an edge with none has its exact level already.
        first = edge_offsets[minimal]
        lens = edge_offsets[minimal + 1] - first
        ends = np.cumsum(lens)
        crossing = edge_flows[
            np.repeat(first - ends + lens, lens) + np.arange(ends[-1])
        ]
        crossing_rates = rates[crossing]
        held = np.flatnonzero(crossing_rates)
        minimal_level = level[minimal]
        if held.size:
            owners = np.searchsorted(ends, held, side="right")
            cuts = np.flatnonzero(owners[1:] != owners[:-1]) + 1
            bounds = [0, *cuts.tolist(), held.size]
            owners = owners[bounds[:-1]]
            edges = minimal[owners]
            terms = (-crossing_rates[held]).tolist()
            headroom = [
                math.fsum([cap, *terms[lo:hi]])
                for cap, lo, hi in zip(capacity[edges].tolist(), bounds, bounds[1:])
            ]
            minimal_level[owners] = np.array(headroom) / crossings[edges]
        del crossing_rates, held

        # Every live flow on a minimal edge freezes, at its lowest such
        # level.
        np.minimum.at(freeze_level, crossing, np.repeat(minimal_level, lens))
        del crossing
        frozen_rate = freeze_level[live_flows]
        frozen = frozen_rate < math.inf
        frozen_rate = frozen_rate[frozen]
        rates[live_flows[frozen]] = frozen_rate
        leaving = np.repeat(frozen, live_hops)
        gone = live_edges[leaving]
        crossings -= np.bincount(gone, minlength=num_edges)
        residual -= np.bincount(
            gone,
            weights=np.repeat(frozen_rate, live_hops[frozen]),
            minlength=num_edges,
        )
        del gone
        live_edges = live_edges[~leaving]
        del leaving
        live_flows = live_flows[~frozen]
        live_hops = live_hops[~frozen]
    del edge_flows, live_edges

    # Active flows that cross no edge meet no constraint.
    rates[flow_active & (hops == 0)] = math.inf
    # Each flow's bottleneck, from the final rates: its first edge that
    # is saturated and on which no flow has a higher rate.
    entry_rate = np.repeat(rates, hops)
    load = np.bincount(edge_ids, weights=entry_rate, minlength=num_edges)
    top = np.zeros(num_edges, dtype=np.float64)
    np.maximum.at(top, edge_ids, entry_rate)
    threshold = np.where(
        load >= capacity * (1 - SATURATION_EPS), top * (1 - SATURATION_EPS), math.inf
    )
    del load, top
    witness = np.flatnonzero(entry_rate >= threshold[edge_ids])
    del entry_rate
    witnessed, first = np.unique(
        np.searchsorted(offsets, witness, side="right") - 1, return_index=True
    )
    bottlenecks = np.full(num_flows, -1, dtype=np.int64)
    bottlenecks[witnessed] = edge_ids[witness[first]]
    _obs.counter("traffic.allocate.entries_scanned", scanned)
    return TrafficAllocation(
        rates=rates,
        bottleneck_edges=bottlenecks,
        unreachable=unreachable,
        rounds=rounds,
    )


@dataclass(frozen=True)
class FctStats:
    """Flow-completion-time distribution from the fluid trajectory.

    ``completion_times`` are absolute instants; the statistics are over
    durations (completion - start) of the flows that completed.
    """

    completion_times: Any  # float64 per flow; inf for unreachable flows
    start_times: Any  # float64 per flow
    solves: int

    @property
    def num_completed(self) -> int:
        return int(_np.count_nonzero(_np.isfinite(self.completion_times)))

    @property
    def durations(self):
        """Per-flow FCT (completion - start); inf for unreachable flows."""
        return _np.asarray(self.completion_times) - _np.asarray(self.start_times)

    def _finite(self):
        durations = self.durations
        return _np.sort(durations[_np.isfinite(durations)])

    @property
    def mean_fct(self) -> float:
        finite = self._finite()
        return float(finite.mean()) if finite.size else 0.0

    @property
    def max_fct(self) -> float:
        finite = self._finite()
        return float(finite[-1]) if finite.size else 0.0

    def percentile(self, q: float) -> float:
        finite = self._finite()
        if not finite.size:
            return 0.0
        rank = min(max(math.ceil(q * finite.size) - 1, 0), finite.size - 1)
        return float(finite[rank])

    def summary(self) -> Dict[str, float]:
        return {
            "mean_fct": self.mean_fct,
            "p50_fct": self.percentile(0.50),
            "p95_fct": self.percentile(0.95),
            "p99_fct": self.percentile(0.99),
            "max_fct": self.max_fct,
        }


def fluid_fct(routes, sizes, starts: Optional[Any] = None) -> FctStats:
    """Fluid-model completion times: solve, advance, retire, admit.

    Args:
        routes: the flow x edge incidence.
        sizes: data volume per flow, in link-capacity x time units.
        starts: optional start time per flow (default: all at 0.0).

    Flows starting at the first start instant are admitted at once.
    Each solve allocates max-min rates over the active flows, then
    advances to the earlier of the next completion and the next start.
    A flow completes once its remaining volume is at most
    ``SATURATION_EPS`` of its size, and starts at most ``SATURATION_EPS``
    of the new instant after it are admitted with it, so the result
    does not depend on the unit of ``sizes`` or of time.  With no active
    flow, time jumps to the next start.  Unreachable flows never start
    and keep completion ``inf``.  The counter ``traffic.fct.solves``
    gains the solves.

    Raises:
        ValueError: if ``sizes`` or ``starts`` has the wrong length, or
            a start is not finite.
        RuntimeError: if a solve neither retires nor admits a flow.
    """
    np = _np
    num_flows = routes.num_flows
    sizes = np.asarray(sizes, dtype=np.float64)
    if len(sizes) != num_flows:
        raise ValueError("sizes must have one entry per flow")
    if starts is None:
        start_times = np.zeros(num_flows, dtype=np.float64)
    else:
        start_times = np.asarray(starts, dtype=np.float64)
        if len(start_times) != num_flows:
            raise ValueError("starts must have one entry per flow")
        if not bool(np.isfinite(start_times).all()):
            raise ValueError("starts must be finite")
    remaining = sizes.copy()
    done_below = SATURATION_EPS * sizes
    finish = np.full(num_flows, math.inf, dtype=np.float64)
    active = np.zeros(num_flows, dtype=bool)
    pending = np.flatnonzero(~np.asarray(routes.unreachable, dtype=bool))
    pending = pending[np.argsort(start_times[pending], kind="stable")]
    pending_starts = start_times[pending]
    admitted = 0

    def admit(horizon: float) -> int:
        nonlocal admitted
        stop = int(np.searchsorted(pending_starts, horizon, side="right"))
        active[pending[admitted:stop]] = True
        count, admitted = stop - admitted, stop
        return count

    now = float(pending_starts[0]) if pending.size else 0.0
    admit(now)
    solves = 0
    while admitted < pending.size or bool(active.any()):
        if not bool(active.any()):
            now = float(pending_starts[admitted])
            admit(now)
            continue
        rates = max_min_rates(routes, active=active).rates
        solves += 1
        positive = active & (rates > 0.0)
        step = (
            float((remaining[positive] / rates[positive]).min())
            if bool(positive.any())
            else math.inf
        )
        next_start = (
            float(pending_starts[admitted]) if admitted < pending.size else math.inf
        )
        arrival_bound = next_start - now <= step
        step = min(step, next_start - now)
        if not math.isfinite(step):
            raise RuntimeError("no progress possible: every active flow has rate 0")
        now += step
        remaining[positive] -= rates[positive] * step
        done = positive & (remaining <= done_below)
        finish[done] = now
        active &= ~done
        # An arrival-bound step admits that arrival even when rounding
        # left ``now`` an ulp short of it.
        horizon = now + abs(now) * SATURATION_EPS
        if arrival_bound:
            horizon = max(horizon, next_start)
        if not admit(horizon) and not bool(done.any()):
            raise RuntimeError(
                f"fluid FCT solve {solves} neither retired nor admitted a flow"
            )
    _obs.counter("traffic.fct.solves", solves)
    return FctStats(completion_times=finish, start_times=start_times, solves=solves)
