"""Max-min fair allocation and fluid FCT over a RouteSet.

The one max-min and fluid-FCT implementation in the tree: every
experiment, ``repro traffic`` and the job simulator allocate here.
Water-filling keeps every loaded edge in a binary heap keyed by the
level at which it saturates and freezes flows batch by batch, in
O(incidence · log E) work; a 163,840-flow permutation on ABCCC(8,4,2)
allocates in a few seconds.  The test suite checks the rates against an
exact ``Fraction`` water-filling oracle and the max-min certificate.

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

import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

import numpy as _np

#: relative tie tolerance between saturation levels, and the relative
#: completion threshold of the fluid FCT loop.
SATURATION_EPS = 1e-12

#: arrivals this close after the current instant are admitted with it.
ARRIVAL_SLACK = 1e-12

#: edge -> flow entries from which a tie batch freezes through array
#: calls rather than the scalar loop (incast's shared links); both
#: paths leave bit-equal state.
BATCH_ARRAY_MIN = 512


@dataclass(frozen=True)
class TrafficAllocation:
    """Max-min fair outcome for one RouteSet, batch form.

    Attributes:
        rates: float64 rate per flow (0.0 for unreachable flows).
        bottleneck_edges: per flow, the first edge on its route that
            saturated in its round; -1 for unreachable (or uncapped)
            flows.
        unreachable: per-flow bool, copied from the RouteSet.
        rounds: tie batches the water-filling froze.
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


def _ragged_gather(starts, lens):
    """Flattened ``[start, start + len)`` slices, concatenated in order."""
    np = _np
    nonzero = lens > 0
    starts = starts[nonzero]
    lens = lens[nonzero]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    step = np.ones(int(lens.sum()), dtype=np.int64)
    step[0] = starts[0]
    ends = np.cumsum(lens)[:-1]
    step[ends] = starts[1:] - starts[:-1] - lens[:-1] + 1
    return np.cumsum(step)


def max_min_rates(routes, active: Optional[Any] = None) -> TrafficAllocation:
    """Max-min fair rates for a RouteSet, by lazy-heap water-filling.

    Args:
        routes: the flow x edge incidence.
        active: optional per-flow bool — flows outside the mask get
            rate 0.0 and consume no capacity (the FCT loop's retired
            flows).

    Each loaded edge is keyed by the level at which it saturates,
    ``(capacity - frozen rate sum) / active crossings``, crossings
    counted with multiplicity.  Freezing flows at the current level can
    only raise the keys of the edges they cross, so a binary heap with
    lazy re-push finds the next bottleneck: when the minimum entry's key
    is stale, push the current key back; otherwise every active flow on
    that edge, and on every edge whose key lies within a relative
    ``SATURATION_EPS`` of it, freezes at its level.  One such tie batch
    is one round, and a flow's bottleneck is the first edge of its
    round's batch in route order.  The tie rule is relative, so rounds
    and rates do not depend on the capacity unit.  The level itself is
    the batch edge's headroom summed exactly (``math.fsum``) over the
    rates frozen on it, so rates stay within a few ulps of exact
    water-filling.  Each incidence entry is visited O(1) times and each
    visit costs at most one heap operation: O(incidence · log E) in all.
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

    # Edge -> flow adjacency: the flow of every incidence entry, grouped
    # by edge in flow order.  Inactive flows stay in it and are skipped
    # at use.  Temporaries are dropped as soon as they are used, so they
    # are not alive with the heap, which sets the peak memory.
    order = np.argsort(edge_ids, kind="stable")
    edge_flows = np.repeat(
        np.arange(num_flows, dtype=np.int32), np.diff(offsets)
    )[order]
    del order
    crossings = np.bincount(edge_ids, minlength=num_edges)
    edge_offsets = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(crossings, out=edge_offsets[1:])
    if not bool(flow_active.all()):
        live_entries = np.repeat(flow_active, np.diff(offsets))
        crossings = np.bincount(edge_ids[live_entries], minlength=num_edges)
        del live_entries
    capacity = routes.capacities()
    residual = capacity.copy()
    loaded = np.flatnonzero(crossings)
    heap = list(zip((residual[loaded] / crossings[loaded]).tolist(), loaded.tolist()))
    del loaded
    heapq.heapify(heap)

    rates = np.zeros(num_flows, dtype=np.float64)
    bottlenecks = np.full(num_flows, -1, dtype=np.int64)
    live = flow_active.astype(np.uint8)
    batch_round = np.zeros(num_edges, dtype=np.int64)
    # Scalar state behind memoryviews: most batches freeze a handful of
    # flows, too few to amortise numpy calls, and memoryviews keep no
    # per-element Python objects alive.
    rate_v, bottleneck_v, live_v = rates.data, bottlenecks.data, live.data
    capacity_v, residual_v, count_v = capacity.data, residual.data, crossings.data
    batch_v = batch_round.data
    offset_v, edge_v = offsets.data, edge_ids.data
    adj_offset_v, adj_flow_v = edge_offsets.data, edge_flows.data
    heappop, heapreplace, fsum = heapq.heappop, heapq.heapreplace, math.fsum

    # Flows left to freeze; once none is, the heap's drained entries
    # need not be popped.
    remaining = int(np.count_nonzero(flow_active & (offsets[1:] > offsets[:-1])))
    rounds = 0
    while remaining:
        key, edge = heap[0]
        count = count_v[edge]
        if not count:
            heappop(heap)
            continue
        current = residual_v[edge] / count
        if current != key:
            heapreplace(heap, (current, edge))
            continue
        heappop(heap)
        rounds += 1
        # The running residual only orders the heap: it loses digits to
        # cancellation as an edge fills.  The level divides the exactly
        # rounded headroom, capacity minus the rates already frozen on
        # the edge.
        crossing = adj_flow_v[adj_offset_v[edge] : adj_offset_v[edge + 1]]
        headroom = [-rate_v[flow] for flow in crossing if not live_v[flow]]
        headroom.append(capacity_v[edge])
        level = fsum(headroom) / count
        limit = level + level * SATURATION_EPS
        batch = [edge]
        entries = len(crossing)
        while heap and heap[0][0] <= limit:
            other = heap[0][1]
            count = count_v[other]
            if not count:
                heappop(heap)
                continue
            current = residual_v[other] / count
            if current <= limit:
                heappop(heap)
                batch.append(other)
                entries += adj_offset_v[other + 1] - adj_offset_v[other]
            else:
                heapreplace(heap, (current, other))
        for edge in batch:
            batch_v[edge] = rounds
        if entries >= BATCH_ARRAY_MIN:
            # The same freeze as the loop below.  Every crossing of a
            # batch subtracts the same level, once each (ufunc.at is
            # unbuffered), so the residuals end bit-equal in any order.
            edges = np.asarray(batch, dtype=np.int64)
            starts = edge_offsets[edges]
            candidates = edge_flows[_ragged_gather(starts, edge_offsets[edges + 1] - starts)]
            newly = np.unique(candidates[live[candidates] != 0])
            rates[newly] = level
            live[newly] = 0
            remaining -= newly.size
            lens = offsets[newly + 1] - offsets[newly]
            route_edges = edge_ids[_ragged_gather(offsets[newly], lens)]
            in_batch = batch_round[route_edges] == rounds
            first_flows, first = np.unique(
                np.repeat(newly, lens)[in_batch], return_index=True
            )
            bottlenecks[first_flows] = route_edges[in_batch][first]
            np.subtract.at(residual, route_edges, level)
            np.subtract.at(crossings, route_edges, 1)
            continue
        single = len(batch) == 1
        for edge in batch:
            for flow in adj_flow_v[adj_offset_v[edge] : adj_offset_v[edge + 1]]:
                if not live_v[flow]:
                    continue
                live_v[flow] = 0
                rate_v[flow] = level
                remaining -= 1
                route = edge_v[offset_v[flow] : offset_v[flow + 1]]
                if single:
                    bottleneck_v[flow] = edge
                else:
                    for crossed in route:
                        if batch_v[crossed] == rounds:
                            bottleneck_v[flow] = crossed
                            break
                for crossed in route:
                    residual_v[crossed] -= level
                    count_v[crossed] -= 1

    # Active flows that cross no edge meet no constraint.
    rates[live.view(bool)] = math.inf
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
    ``SATURATION_EPS`` of its size, so the result does not depend on
    the unit of ``sizes``.  Starts within ``ARRIVAL_SLACK`` after the
    new instant are admitted; with no active flow, time jumps to the
    next start.  Unreachable flows never start and keep completion
    ``inf``.

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
        horizon = now + ARRIVAL_SLACK
        if arrival_bound:
            horizon = max(horizon, next_start)
        if not admit(horizon) and not bool(done.any()):
            raise RuntimeError(
                f"fluid FCT solve {solves} neither retired nor admitted a flow"
            )
    return FctStats(completion_times=finish, start_times=start_times, solves=solves)
