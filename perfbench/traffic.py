"""Traffic workloads: permutation matrix -> (faults) -> routes -> rates or FCT.

Each op draws a fresh seeded permutation (and, for ``degraded-5k``, a
fresh index-space fault draw), routes it with ``batch_routes`` and runs
either ``max_min_rates`` or ``fluid_fct``.  Every op's output is checked
outside the timed region:

* a max-min certificate with a relative tolerance: no edge carries more
  than its capacity, and every served flow crosses a saturated edge on
  which its rate is the largest;
* every route is a walk from its source to its destination, and under a
  fault mask every edge it crosses is alive;
* fluid FCT: every reachable flow finishes at a finite time (the run was
  not truncated).
"""

import time
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core import AbcccSpec
from repro.faults.mask import MaskedGraph
from repro.faults.plan import random_index_failures
from repro.routing.batch import batch_routes
from repro.topology.fastbuild import fast_compiled
from repro.traffic import fluid_fct, generate_matrix, max_min_rates

from common import NULL_RECORDER, derive_seed, loglog_slope, median

#: relative tolerance of the max-min certificate.
CERT_TOL = 1e-9


@dataclass(frozen=True)
class TrafficConfig:
    spec: Tuple[int, int, int]
    nominal_op_s: float  # one op on a 2-vCPU container; sizes the op count
    faults: Tuple[Tuple[str, float], ...] = ()
    fct: bool = False


WORKLOADS = {
    "perm-38k": TrafficConfig(spec=(6, 4, 2), nominal_op_s=3.5),
    "degraded-5k": TrafficConfig(
        spec=(6, 3, 2),
        nominal_op_s=4.2,
        faults=(("switch_fraction", 0.01), ("link_fraction", 0.05)),
    ),
    "fct-1k": TrafficConfig(spec=(4, 3, 2), nominal_op_s=2.4, fct=True),
}

#: the allocator scaling record: (spec, ops) at 1,024, 5,184 and 15,625
#: flows; the 38,880-flow point comes from perm-38k's own ops.
SCALING = (((4, 3, 2), 9), ((6, 3, 2), 5), ((5, 4, 2), 3))

WARM_UP_SPEC = (3, 2, 2)

LAYERS = ("matrix", "faults.plan", "faults.mask", "routes", "allocate", "fct")


def build(cfg: TrafficConfig):
    return fast_compiled(AbcccSpec(*cfg.spec))


def warm_up(cfg: TrafficConfig) -> None:
    """One op on an 81-server ABCCC, so first-call costs stay untimed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fault counts floor at 1 here
        op(fast_compiled(AbcccSpec(*WARM_UP_SPEC)), cfg, 0, NULL_RECORDER)


def op(graph, cfg: TrafficConfig, op_seed: int, rec) -> Dict[str, Any]:
    """One closed-loop op; returns everything the checks need."""
    result: Dict[str, Any] = {"plan": None, "masked": None}
    with rec.span("op", seed=op_seed):
        with rec.span("matrix"):
            matrix = generate_matrix("permutation", graph.num_servers, seed=op_seed)
        if cfg.faults:
            with rec.span("faults.plan"):
                plan = random_index_failures(
                    graph, seed=derive_seed(op_seed, "faults"), **dict(cfg.faults)
                )
            with rec.span("faults.mask"):
                masked = MaskedGraph.from_indices(graph, plan.dead_nodes, plan.dead_edges)
            result.update(plan=plan, masked=masked)
        with rec.span("routes"):
            routes = batch_routes(graph, matrix, result["masked"])
        if cfg.fct:
            with rec.span("fct"):
                result["fct"] = fluid_fct(routes, matrix.size)
        else:
            with rec.span("allocate"):
                result["allocation"] = max_min_rates(routes)
    result.update(matrix=matrix, routes=routes)
    return result


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _incidence(routes):
    hops = np.diff(np.asarray(routes.offsets, dtype=np.int64))
    flows = np.repeat(np.arange(len(hops), dtype=np.int64), hops)
    return np.asarray(routes.edge_ids, dtype=np.int64), flows, hops


def max_min_problems(routes, rates) -> Optional[str]:
    """The max-min certificate; ``None`` when it holds."""
    edges, flows, _ = _incidence(routes)
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


def walk_problems(graph, routes, edge_alive=None) -> Optional[str]:
    """Every served route walks src -> dst over (alive) graph edges."""
    edges, _, hops = _incidence(routes)
    offsets = np.asarray(routes.offsets, dtype=np.int64)
    edge_u = np.asarray(graph.edge_u, dtype=np.int64)
    edge_v = np.asarray(graph.edge_v, dtype=np.int64)
    if edge_alive is not None and not bool(edge_alive[edges].all()):
        return f"{int((~edge_alive[edges]).sum())} route hops cross a dead edge or node"
    served = ~np.asarray(routes.unreachable, dtype=bool)
    if bool((hops[served] == 0).any()):
        return "a served flow has an empty route"
    current = np.asarray(routes.src_nodes, dtype=np.int64).copy()
    for step in range(int(hops.max(initial=0))):
        rows = np.flatnonzero(hops > step)
        e = edges[offsets[rows] + step]
        u, v = edge_u[e], edge_v[e]
        here = current[rows]
        if not bool(((u == here) | (v == here)).all()):
            return "a route hop does not continue from the previous node"
        current[rows] = np.where(u == here, v, u)
    dst = np.asarray(routes.dst_nodes, dtype=np.int64)
    if not bool((current[served] == dst[served]).all()):
        return "a route does not end at its destination"
    return None


def _edge_alive(graph, plan):
    alive = np.ones(graph.num_nodes, dtype=bool)
    alive[list(plan.dead_nodes)] = False
    edge_alive = alive[np.asarray(graph.edge_u, dtype=np.int64)] & alive[
        np.asarray(graph.edge_v, dtype=np.int64)
    ]
    edge_alive[list(plan.dead_edges)] = False
    return alive, edge_alive


def check_op(graph, cfg: TrafficConfig, result, out) -> Dict[str, int]:
    """Run the op's output checks into ``out``; returns its exact counts."""
    routes, matrix = result["routes"], result["matrix"]
    counts = {
        "flows": routes.num_flows,
        "unreachable_flows": routes.num_unreachable,
    }
    out.check(routes.num_flows == graph.num_servers, "permutation is not one flow per server")
    edge_alive = None
    plan = result["plan"]
    if plan is not None:
        node_alive, edge_alive = _edge_alive(graph, plan)
        # Flows whose fault-free route crosses a dead edge or node (with
        # both endpoints alive) are the ones the router has to repair.
        healthy = batch_routes(graph, matrix)
        h_edges, h_flows, _ = _incidence(healthy)
        broken = np.bincount(h_flows, weights=~edge_alive[h_edges], minlength=routes.num_flows) > 0
        src = np.asarray(routes.src_nodes, dtype=np.int64)
        dst = np.asarray(routes.dst_nodes, dtype=np.int64)
        rerouted = broken & node_alive[src] & node_alive[dst]
        counts.update(
            dead_nodes=len(plan.dead_nodes),
            dead_links=len(plan.dead_edges),
            rerouted_flows=int(rerouted.sum()),
            bfs_calls=int(np.unique(dst[rerouted]).size),
        )
    else:
        out.check(routes.num_unreachable == 0, "healthy network left a flow unreachable")
    problem = walk_problems(graph, routes, edge_alive)
    out.check(problem is None, f"routes: {problem}")
    if "allocation" in result:
        allocation = result["allocation"]
        problem = max_min_problems(routes, allocation.rates)
        out.check(problem is None, f"max-min certificate: {problem}")
        counts["rounds"] = allocation.rounds
        counts["loaded_edges"] = int(np.unique(np.asarray(routes.edge_ids)).size)
    if "fct" in result:
        fct = result["fct"]
        times = np.asarray(fct.completion_times)
        reachable = ~np.asarray(routes.unreachable, dtype=bool)
        truncated = int((~np.isfinite(times[reachable])).sum())
        out.check(truncated == 0, f"fluid FCT truncated: {truncated} flows never finished")
        out.check(bool((times[reachable] > 0).all()), "a flow finished at time <= 0")
        counts["solves"] = fct.solves
        counts["truncated"] = truncated
    return counts


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
def layer_metrics(rec, totals) -> Dict[str, tuple]:
    """Per-layer medians from the traced ops plus the run's exact counts."""
    rows = rec.layer_ms("op", LAYERS)
    per = {name: median(row[name] for row in rows) for name in LAYERS}
    op_ms = median(row["op"] for row in rows)
    uncovered = median(row["uncovered"] for row in rows)
    rec.note(
        "op-split",
        f"median op {op_ms:.1f} ms; layer medians "
        + ", ".join(f"{name} {per[name]:.1f}" for name in LAYERS if per[name])
        + f", uncovered {uncovered:.3f} ms",
        op_ms=op_ms,
        uncovered_ms=uncovered,
        **{name: per[name] for name in LAYERS},
    )
    rounds = totals.get("rounds", 0)
    solves = totals.get("solves", 0)
    allocate_total_ms = sum(row["allocate"] for row in rows)
    fct_total_ms = sum(row["fct"] for row in rows)
    return {
        "matrix.ms": (per["matrix"], "ms"),
        "faults.plan_ms": (per["faults.plan"], "ms"),
        "faults.mask_ms": (per["faults.mask"], "ms"),
        "faults.dead_nodes": (totals.get("dead_nodes", 0), "count"),
        "faults.dead_links": (totals.get("dead_links", 0), "count"),
        "routes.ms": (per["routes"], "ms"),
        "routes.rerouted_flows": (totals.get("rerouted_flows", 0), "count"),
        "routes.bfs_calls": (totals.get("bfs_calls", 0), "count"),
        "routes.unreachable_flows": (totals.get("unreachable_flows", 0), "count"),
        "allocate.ms": (per["allocate"], "ms"),
        "allocate.rounds": (rounds, "count"),
        "allocate.us_per_round": (
            1000.0 * allocate_total_ms / rounds if rounds else 0.0,
            "us",
        ),
        "allocate.loaded_edges": (totals.get("loaded_edges", 0), "count"),
        "fct.ms": (per["fct"], "ms"),
        "fct.solves": (solves, "count"),
        "fct.ms_per_solve": (fct_total_ms / solves if solves else 0.0, "ms"),
        "fct.truncated": (totals.get("truncated", 0), "count"),
        "trace.uncovered_pct": (
            median(100.0 * row["uncovered"] / row["op"] for row in rows),
            "%",
        ),
    }


def scaling_record(op_seeds, points_38k, rec) -> Dict[str, tuple]:
    """allocate ms and rounds at 1,024 / 5,184 / 15,625 / 38,880 flows,
    plus their log-log slopes.

    ``points_38k`` are (allocate ms, rounds) of perm-38k's traced ops.
    """
    points = {}
    for spec, ops in SCALING:
        graph = fast_compiled(AbcccSpec(*spec))
        samples = []
        for i in range(ops):
            matrix = generate_matrix("permutation", graph.num_servers, seed=op_seeds(i))
            routes = batch_routes(graph, matrix)
            with rec.span("scaling.allocate", flows=graph.num_servers):
                started = time.perf_counter()
                allocation = max_min_rates(routes)
                samples.append((1000.0 * (time.perf_counter() - started), allocation.rounds))
        points[graph.num_servers] = samples
    points[38_880] = points_38k
    flows = sorted(points)
    ms = [median(s[0] for s in points[f]) for f in flows]
    rounds = [median(s[1] for s in points[f]) for f in flows]
    metrics = {}
    for f, m, r in zip(flows, ms, rounds):
        metrics[f"allocate.scale.{f}.ms"] = (m, "ms")
        metrics[f"allocate.scale.{f}.rounds"] = (r, "count")
    metrics["allocate.scale.slope_ms"] = (loglog_slope(flows, ms), "exponent")
    metrics["allocate.scale.slope_rounds"] = (loglog_slope(flows, rounds), "exponent")
    return metrics
