"""Reference checks the flow engine is tested against.

* :func:`exact_max_min_rates` and :func:`exact_fluid_fct` — water-filling
  and the fluid completion trajectory in ``Fraction`` arithmetic.  No
  rounding, no thresholds: the ground truth on small instances.
* :func:`max_min_problems` — the max-min certificate, which needs no
  reference answer and so runs at any size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

#: relative tolerance of the max-min certificate.
CERT_TOL = 1e-9


def max_min_problems(routes, rates) -> Optional[str]:
    """The max-min certificate; ``None`` when it holds.

    Rates are max-min fair exactly when they are feasible (no edge
    carries more than its capacity) and every served flow crosses a
    saturated edge on which its rate is the largest.  Unreachable flows
    must get rate 0.  Load is counted per crossing, so a route that
    crosses a link twice loads it twice.
    """
    offsets = np.asarray(routes.offsets, dtype=np.int64)
    edges = np.asarray(routes.edge_ids, dtype=np.int64)
    flows = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
    served = ~np.asarray(routes.unreachable, dtype=bool)
    rates = np.asarray(rates, dtype=np.float64)
    if not bool(np.isfinite(rates[served]).all()) or bool((rates[served] <= 0).any()):
        return "a served flow has a non-positive or infinite rate"
    if bool((rates[~served] != 0).any()):
        return "an unreachable flow was given a rate"
    cap = np.asarray(routes.graph.edge_capacity, dtype=np.float64)
    entry_rate = rates[flows]
    load = np.bincount(edges, weights=entry_rate, minlength=len(cap))
    if bool((load > cap * (1 + CERT_TOL)).any()):
        return f"{int((load > cap * (1 + CERT_TOL)).sum())} edges over capacity"
    saturated = load >= cap * (1 - CERT_TOL)
    top = np.zeros(len(cap))
    np.maximum.at(top, edges, entry_rate)
    witness = saturated[edges] & (entry_rate >= top[edges] * (1 - CERT_TOL))
    has_witness = np.bincount(flows, weights=witness, minlength=len(rates)) > 0
    lacking = int((served & ~has_witness).sum())
    if lacking:
        return f"{lacking} served flows have no saturated edge where they are maximal"
    return None


def incidence(routes):
    """``(per-flow edge-id lists, per-edge Fraction capacities)``."""
    offsets = [int(x) for x in routes.offsets]
    edge_ids = [int(x) for x in routes.edge_ids]
    flow_edges = [edge_ids[offsets[i] : offsets[i + 1]] for i in range(routes.num_flows)]
    capacities = [Fraction(float(c)) for c in routes.capacities()]
    return flow_edges, capacities


def exact_max_min_rates(
    flow_edges: Sequence[Sequence[int]],
    capacities: Sequence[Fraction],
    active: Optional[Sequence[bool]] = None,
) -> List[Optional[Fraction]]:
    """Exact water-filling; ``None`` for inactive flows."""
    unfrozen = {
        i for i in range(len(flow_edges)) if active is None or active[i]
    }
    residual = list(capacities)
    counts = [0] * len(capacities)
    for i in unfrozen:
        for e in flow_edges[i]:
            counts[e] += 1
    rates: List[Optional[Fraction]] = [None] * len(flow_edges)
    level = Fraction(0)
    while unfrozen:
        loaded = [e for e, c in enumerate(counts) if c > 0]
        increment = min(residual[e] / counts[e] for e in loaded)
        level += increment
        for e in loaded:
            residual[e] -= increment * counts[e]
        saturated = {e for e in loaded if residual[e] == 0}
        for i in [i for i in unfrozen if saturated.intersection(flow_edges[i])]:
            rates[i] = level
            unfrozen.discard(i)
            for e in flow_edges[i]:
                counts[e] -= 1
    return rates


def exact_fluid_fct(
    flow_edges: Sequence[Sequence[int]],
    capacities: Sequence[Fraction],
    sizes: Sequence[Fraction],
    starts: Sequence[Fraction],
) -> List[Fraction]:
    """Exact completion instants of the fluid max-min trajectory."""
    num = len(flow_edges)
    remaining = list(sizes)
    finish: List[Optional[Fraction]] = [None] * num
    pending = sorted(range(num), key=lambda i: starts[i])
    active = [False] * num
    now = starts[pending[0]] if pending else Fraction(0)
    while pending or any(active):
        while pending and starts[pending[0]] <= now:
            active[pending.pop(0)] = True
        if not any(active):
            now = starts[pending[0]]
            continue
        rates = exact_max_min_rates(flow_edges, capacities, active)
        step = min(remaining[i] / rates[i] for i in range(num) if active[i])
        if pending:
            step = min(step, starts[pending[0]] - now)
        now += step
        for i in range(num):
            if active[i]:
                remaining[i] -= rates[i] * step
                if remaining[i] == 0:
                    finish[i] = now
                    active[i] = False
    return finish


def relative_error(value: float, exact: Fraction) -> float:
    """``|value - exact| / |exact|`` evaluated exactly, then rounded."""
    if exact == 0:
        return math.inf if value else 0.0
    return float(abs(Fraction(value) - exact) / abs(exact))
