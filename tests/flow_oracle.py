"""Reference implementations the flow engine is checked against.

* :func:`float_max_min_rates` — a plain per-link progressive filler over
  name routes.  It performs the same float operations per round as
  :func:`repro.traffic.engine.max_min_rates`, so the two agree bit for
  bit on equal inputs.
* :func:`exact_max_min_rates` and :func:`exact_fluid_fct` — water-filling
  and the fluid completion trajectory in ``Fraction`` arithmetic.  No
  rounding, no thresholds: the ground truth on small instances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.topology.node import link_key


def float_max_min_rates(net, flows, routes) -> List[float]:
    """Float progressive filling over ``flow_id -> Route``; flow order."""
    flow_links = {
        f.flow_id: [link_key(u, v) for u, v in routes[f.flow_id].edges()] for f in flows
    }
    residual: Dict = {}
    crossings: Dict = {}
    for keys in flow_links.values():
        for key in keys:
            residual.setdefault(key, net.link(*key).capacity)
            crossings[key] = crossings.get(key, 0) + 1
    rates: Dict[str, float] = {}
    unfrozen = set(flow_links)
    level = 0.0
    while unfrozen:
        increment = min(residual[k] / c for k, c in crossings.items() if c > 0)
        level += increment
        for key, count in crossings.items():
            if count > 0:
                residual[key] = max(residual[key] - increment * count, 0.0)
        saturated = {k for k, r in residual.items() if r <= 1e-12 and crossings[k] > 0}
        for flow_id in [f for f in unfrozen if saturated.intersection(flow_links[f])]:
            rates[flow_id] = level
            unfrozen.discard(flow_id)
            for key in flow_links[flow_id]:
                crossings[key] -= 1
    return [rates[f.flow_id] for f in flows]


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
