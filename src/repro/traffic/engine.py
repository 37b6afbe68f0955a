"""Vectorized max-min fair allocation and fluid FCT over a RouteSet.

The allocator is the batch twin of
:func:`repro.sim.flow.max_min_allocation` — progressive filling, but
every saturation round is a handful of array operations over the
flow x edge incidence instead of Python dict walks.  The float
operations per round are *identical* to the legacy loop (same headroom
division, same ``max(residual - increment * count, 0.0)`` drain, same
``1e-12`` saturation threshold, same scalar ``level`` accumulation), so
for equal inputs the computed rates are bit-for-bit equal — the test
suite asserts exactly that against the legacy oracle, which stays in
the tree for that purpose.

Flows marked unreachable in the :class:`~repro.traffic.routes.RouteSet`
allocate at rate 0.0 and are excluded from the fairness statistics —
under a degraded network, lost flows are reported, not crashed on.

FCT comes from the fluid trajectory: re-solve max-min over the still
active flows, advance to the next completion instant, retire, repeat.
With structured matrices the number of distinct completion instants is
small, so the loop runs a handful of solves even at 10^5 flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as _np

#: the legacy filler's saturation threshold — keep in lockstep with
#: repro.sim.flow.max_min_allocation for bit parity.
SATURATION_EPS = 1e-12


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


def max_min_rates(
    routes, active: Optional[Any] = None, sizes_scale: Optional[Any] = None
) -> TrafficAllocation:
    """Progressive-filling max-min rates for a RouteSet, vectorized.

    Args:
        routes: the flow x edge incidence.
        active: optional per-flow bool — flows outside the mask get
            rate 0.0 and consume no capacity (the FCT loop's retired
            flows).
        sizes_scale: reserved for weighted filling; must be ``None``.

    Round structure (legacy-identical): increment = min over loaded
    edges of ``residual / crossings``; every loaded edge drains by
    ``increment * crossings`` clamped at zero; edges at ``<= 1e-12``
    freeze every flow crossing them at the accumulated level.

    The loaded-edge state lives in compacted arrays (an edge drops out
    the round its crossing count hits zero) and frozen flows are found
    through an edge -> flow adjacency, so one round costs
    O(loaded edges) rather than O(total incidence); with ~10^5 flows at
    ~10^4 saturation rounds that is the difference between seconds and
    minutes.  The per-edge float sequence is untouched by the
    compaction — the loaded set is identical to the legacy
    ``counts > 0`` test and min/subtract/clamp are elementwise — so bit
    parity with the oracle survives.
    """
    if sizes_scale is not None:
        raise NotImplementedError("weighted max-min filling is not implemented")
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
    # float64 counts: exact for any realistic crossing count, and the
    # legacy divide/multiply converts int counts to float64 anyway — so
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
            # length routes) — mirror the legacy guard: rate = inf.
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
            # threshold; the legacy loop re-rounds too.  Guard runaways.
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
        # newly is sorted, so the repeat below is flow-major like the
        # legacy incidence scan) and crossing-count decrements.
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
    """Flow-completion-time distribution from the fluid trajectory."""

    completion_times: Any  # float64 per flow; inf for unreachable flows
    solves: int

    @property
    def num_completed(self) -> int:
        return int(_np.count_nonzero(_np.isfinite(self.completion_times)))

    def _finite(self):
        times = _np.asarray(self.completion_times)
        return _np.sort(times[_np.isfinite(times)])

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


def fluid_fct(routes, sizes, max_solves: Optional[int] = None) -> FctStats:
    """Fluid-model completion times: re-solve, advance, retire.

    All flows start at time zero (the matrices are static snapshots);
    arrivals belong to the event-driven :mod:`repro.sim.fct`, which
    remains the small-scale oracle for that regime.
    """
    np = _np
    sizes = np.asarray(sizes, dtype=np.float64)
    if len(sizes) != routes.num_flows:
        raise ValueError("sizes must have one entry per flow")
    remaining = sizes.copy()
    finish = np.full(routes.num_flows, math.inf, dtype=np.float64)
    active = ~np.asarray(routes.unreachable, dtype=bool)
    now = 0.0
    solves = 0
    limit = routes.num_flows if max_solves is None else max_solves
    while bool(active.any()) and solves < limit + 1:
        allocation = max_min_rates(routes, active=active)
        solves += 1
        rates = allocation.rates
        positive = active & (rates > 0.0)
        if not bool(positive.any()):  # pragma: no cover - invariant
            break
        dt = float((remaining[positive] / rates[positive]).min())
        now += dt
        remaining[positive] -= rates[positive] * dt
        done = positive & (remaining <= SATURATION_EPS)
        finish[done] = now
        active &= ~done
    return FctStats(completion_times=finish, solves=solves)
