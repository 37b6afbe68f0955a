"""Vectorized max-min fair allocation and fluid FCT over a RouteSet.

The one max-min and fluid-FCT implementation in the tree: every
experiment, ``repro traffic`` and the job simulator allocate here.
Progressive filling runs one saturation round as a handful of array
operations over the flow x edge incidence — increment = min headroom
per crossing, drain every loaded edge by ``increment * count`` clamped
at zero, freeze the flows of every edge at ``<= SATURATION_EPS``.  The
test suite checks the rates against an exact ``Fraction`` water-filling
oracle and bit for bit against a small float progressive filler.

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
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as _np

#: saturation threshold of the filler, and the relative completion
#: threshold of the fluid FCT loop.
SATURATION_EPS = 1e-12

#: arrivals this close after the current instant are admitted with it.
ARRIVAL_SLACK = 1e-12


@dataclass(frozen=True)
class TrafficAllocation:
    """Max-min fair outcome for one RouteSet, batch form.

    Attributes:
        rates: float64 rate per flow (0.0 for unreachable flows).
        bottleneck_edges: saturating edge id per flow, route order,
            -1 for unreachable (or uncapped) flows.
        unreachable: per-flow bool, copied from the RouteSet.
        rounds: saturation rounds the filler ran.
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
    """Progressive-filling max-min rates for a RouteSet, vectorized.

    Args:
        routes: the flow x edge incidence.
        active: optional per-flow bool — flows outside the mask get
            rate 0.0 and consume no capacity (the FCT loop's retired
            flows).

    Round structure: increment = min over loaded edges of
    ``residual / crossings``; every loaded edge drains by
    ``increment * crossings`` clamped at zero; edges at ``<= 1e-12``
    freeze every flow crossing them at the accumulated level.

    The loaded-edge state lives in compacted arrays (an edge drops out
    the round its crossing count hits zero) and frozen flows are found
    through an edge -> flow adjacency, so one round costs
    O(loaded edges) rather than O(total incidence); with ~10^5 flows at
    ~10^4 saturation rounds that is the difference between seconds and
    minutes.  The per-edge float sequence is untouched by the
    compaction — the loaded set is identical to a ``counts > 0`` test
    and min/subtract/clamp are elementwise — so the rates stay bit-equal
    to a plain per-edge filler.
    """
    np = _np
    num_flows = routes.num_flows
    num_edges = routes.num_edges
    rates = np.zeros(num_flows, dtype=np.float64)
    bottlenecks = np.full(num_flows, -1, dtype=np.int64)
    unreachable = np.asarray(routes.unreachable, dtype=bool)

    flow_active = ~unreachable
    if active is not None:
        flow_active = flow_active & np.asarray(active, dtype=bool)

    offsets = np.asarray(routes.offsets, dtype=np.int64)
    hop_counts = np.diff(offsets)
    inc_edge = np.asarray(routes.edge_ids, dtype=np.int64)
    inc_flow = routes.incidence_flows()

    counts = np.bincount(inc_edge[flow_active[inc_flow]], minlength=num_edges)
    # Compacted parallel arrays over the currently loaded edges; pos maps
    # edge id -> compacted slot (stale once an edge drains, but a drained
    # edge only carried now-frozen flows and is never decremented again).
    loaded_ids = np.flatnonzero(counts > 0).astype(np.int64)
    # float64 counts: exact for any realistic crossing count, and a
    # divide/multiply by int counts converts them to float64 anyway — so
    # the arithmetic is value-identical while skipping the per-round
    # conversion pass.
    cnt_l = counts[loaded_ids].astype(np.float64)
    res_l = routes.capacities()[loaded_ids]
    pos = np.full(num_edges, -1, dtype=np.int64)
    pos[loaded_ids] = np.arange(loaded_ids.size, dtype=np.int64)
    # scratch buffers reused every round (sliced to the live prefix)
    scratch = np.empty(loaded_ids.size, dtype=np.float64)
    sat_buf = np.empty(loaded_ids.size, dtype=bool)

    # Edge -> flow adjacency, built once: when an edge saturates, its
    # slice names the flows to freeze.  Entries are filtered by liveness
    # at use and an edge saturates at most once, so each incidence entry
    # is scanned O(1) times over the whole fill.
    ef_order = np.argsort(inc_edge, kind="stable")
    ef_flow = inc_flow[ef_order]
    ef_offsets = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(np.bincount(inc_edge, minlength=num_edges), out=ef_offsets[1:])

    sat_round = np.zeros(num_edges, dtype=np.int64)
    level = 0.0
    rounds = 0
    remaining = int(np.count_nonzero(flow_active))

    while remaining > 0:
        if loaded_ids.size == 0:
            # No capacity constraint binds (cannot happen for positive-
            # length routes): rate = inf.
            rates[flow_active] = math.inf
            break
        rounds += 1
        tmp = scratch[: res_l.size]
        sat = sat_buf[: res_l.size]
        np.divide(res_l, cnt_l, out=tmp)
        increment = float(tmp.min())
        level += increment
        np.multiply(cnt_l, increment, out=tmp)
        np.subtract(res_l, tmp, out=res_l)
        np.maximum(res_l, 0.0, out=res_l)
        np.less_equal(res_l, SATURATION_EPS, out=sat)
        if not bool(sat.any()):
            # Large capacities can leave a sub-ulp residue above the
            # threshold; run another round.  Guard runaways.
            if rounds > 64 * max(num_flows, 1):  # pragma: no cover
                raise RuntimeError("progressive filling failed to converge")
            continue
        sat_local = np.flatnonzero(sat)
        sat_edges = loaded_ids[sat_local]
        sat_round[sat_edges] = rounds
        cand = ef_flow[
            _ragged_gather(
                ef_offsets[sat_edges], ef_offsets[sat_edges + 1] - ef_offsets[sat_edges]
            )
        ]
        # A loaded edge has at least one active crossing, so newly != [].
        newly = np.unique(cand[flow_active[cand]])
        rates[newly] = level
        flow_active[newly] = False
        remaining -= int(newly.size)
        # One walk over the frozen flows' routes covers both bottleneck
        # attribution (first edge saturated this round, route order —
        # newly is sorted, so the repeat below is flow-major) and
        # crossing-count decrements.
        lens = hop_counts[newly]
        redges = inc_edge[_ragged_gather(offsets[newly], lens)]
        rflows = np.repeat(newly, lens)
        hit = sat_round[redges] == rounds
        uniq, first_of = np.unique(rflows[hit], return_index=True)
        bottlenecks[uniq] = redges[hit][first_of]
        dec_edges, dec_by = np.unique(redges, return_counts=True)
        cnt_l[pos[dec_edges]] -= dec_by
        keep = cnt_l > 0
        if not bool(keep.all()):
            loaded_ids = loaded_ids[keep]
            cnt_l = cnt_l[keep]
            res_l = res_l[keep]
            pos[loaded_ids] = np.arange(loaded_ids.size, dtype=np.int64)

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
