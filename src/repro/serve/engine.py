"""Query execution: one parsed request against one compiled graph.

Pure functions shared by every execution context — inline handler
threads, worker processes, tests — so the transport layers stay free of
graph logic.  All three query families resolve through the same
machinery:

* ``route`` / ``distance`` between two servers of a healthy fast-built
  ABCCC — the paper's digit-correction route
  (:func:`repro.routing.batch.abccc_node_path`, the arithmetic
  ``repro traffic`` routes every flow with), a shortest path found
  without a graph search.
* any other ``route`` / ``distance`` — one frontier BFS over the CSR
  arrays (numpy-vectorised via :meth:`CompiledGraph.bfs_distances`)
  plus, for routes, the deterministic backtrack the batch BFS router
  uses (:func:`repro.routing.batch._backtrack`), which always steps to
  the lowest-indexed predecessor.  Both kinds of answer are stable
  across workers and restarts, which is what makes retried requests
  idempotent in the strong sense (same answer, not just same shape).
* ``whatif`` — a :class:`~repro.faults.mask.MaskedGraph` fetched from
  the scenario LRU; degraded topologies (dead racks, empty survivor
  sets) are *answers*, never errors.
* a ``scenario`` (or ``avoid`` list) attached to a route/distance query
  runs the BFS on the scenario's alive-only sweep view — same node-id
  space, so no index translation.

Results are plain JSON-serialisable dicts with ``status: ok|degraded``
(see :mod:`repro.serve.protocol`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _obs
from repro.routing.batch import _backtrack, _is_fast_abccc, abccc_node_path
from repro.serve import protocol
from repro.serve.protocol import bad_request, degraded, ok
from repro.serve.scenario import ScenarioCache


def resolve_server(graph, token: str) -> int:
    """Node id of a server named ``token`` (name or server ordinal)."""
    node = graph.index.get(token)
    if node is None:
        try:
            ordinal = int(token)
        except ValueError:
            raise bad_request(f"{token!r} is neither a node name nor a server index")
        servers = graph.server_indices
        if not 0 <= ordinal < len(servers):
            raise bad_request(
                f"server index {ordinal} out of range 0..{len(servers) - 1}"
            )
        return int(servers[ordinal])
    return int(node)


def _masked_for(request: Dict[str, Any], scenarios: ScenarioCache):
    """The MaskedGraph a request's scenario+avoid imply, or ``None``."""
    key = protocol.request_scenario_key(request)
    avoid = request.get("avoid")
    if avoid:
        merged = protocol.scenario_key(
            list(key[0]) + list(avoid), list(key[1]) + list(avoid), list(key[2])
        )
        # avoid-names may be servers or switches; listing each name in
        # both dead sets is harmless (MaskedGraph resolves by name) but
        # validation must not reject a server name as an unknown switch,
        # so merge *before* the cache validates.
        key = merged
    if key == protocol.EMPTY_SCENARIO_KEY:
        return None
    return scenarios.get(key)


def _alive_guard(masked, node: int, token: str) -> Optional[str]:
    if masked is not None and not bool(masked.node_alive[node]):
        return f"{token} is dead under this scenario"
    return None


def _route_or_distance(
    graph, request: Dict[str, Any], scenarios: ScenarioCache, want_path: bool
) -> Dict[str, Any]:
    src = resolve_server(graph, request["src"])
    dst = resolve_server(graph, request["dst"])
    masked = _masked_for(request, scenarios)
    view = masked.sweep_view() if masked is not None else graph
    for node, token in ((src, request["src"]), (dst, request["dst"])):
        reason = _alive_guard(masked, node, token)
        if reason is not None:
            return degraded(
                {"src": request["src"], "dst": request["dst"], "reachable": False},
                reason,
            )
    op = "route" if want_path else "distance"
    registry = _metrics.get_registry()
    nodes: List[int] = []
    if (
        masked is None
        and _is_fast_abccc(graph)
        and graph.is_server(src)
        and graph.is_server(dst)
    ):
        registry.counter("serve.paths", op=op, method="digit").inc()
        nodes = abccc_node_path(graph, src, dst)
        hops = len(nodes) - 1
    else:
        registry.counter("serve.paths", op=op, method="bfs").inc()
        with _obs.span("serve.bfs", op=op):
            dist = view.bfs_distances(src)
        hops = int(dist[dst])
        if want_path and hops >= 0:
            # walk dst -> src over the BFS levels from src, then reverse
            nodes = _backtrack(view, dist, dst)[::-1]
    payload: Dict[str, Any] = {
        "src": request["src"],
        "dst": request["dst"],
        "reachable": hops >= 0,
    }
    if hops < 0:
        return degraded(payload, "no surviving path between src and dst")
    payload["link_hops"] = hops
    if want_path:
        names = graph.names
        payload["path"] = [names[i] for i in nodes]
    return ok(payload)


def _whatif(graph, request: Dict[str, Any], scenarios: ScenarioCache) -> Dict[str, Any]:
    key = protocol.request_scenario_key(request)
    masked = scenarios.get(key)
    with _obs.span("serve.whatif", components=sum(len(part) for part in key)):
        alive = masked.num_alive_servers()
        total = graph.num_servers
        payload: Dict[str, Any] = {
            "num_servers": total,
            "alive_servers": alive,
            "dead_servers": len(key[0]),
            "dead_switches": len(key[1]),
            "dead_links": len(key[2]),
        }
        if alive == 0:
            payload.update(
                largest_component_fraction=0.0,
                connection_ratio=0.0,
                cut_off_servers=0,
                cut_off_examples=[],
            )
            return degraded(payload, "no surviving servers")
        payload["largest_component_fraction"] = masked.largest_component_fraction()
        payload["connection_ratio"] = masked.connection_ratio(
            sample_pairs=request.get("sample_pairs", 200),
            seed=request.get("seed", 0),
        )
        count, examples = masked.cut_off_servers()
        payload["cut_off_servers"] = count
        payload["cut_off_examples"] = examples
    if payload["largest_component_fraction"] < 1.0:
        return degraded(payload, "surviving servers are partitioned")
    return ok(payload)


def execute(graph, request: Dict[str, Any], scenarios: ScenarioCache) -> Dict[str, Any]:
    """Run one canonical request dict; returns the response payload.

    Raises :class:`~repro.serve.protocol.ServeError` for request-level
    problems; anything else is a server bug the caller must convert to
    an ``internal`` error (without leaking a traceback on the wire).
    """
    op = request.get("op")
    if op == "ping":
        return ok({"pong": True, "num_servers": graph.num_servers})
    if op in ("route", "distance"):
        return _route_or_distance(graph, request, scenarios, want_path=op == "route")
    if op == "whatif":
        return _whatif(graph, request, scenarios)
    raise bad_request(f"unknown operation {op!r}")
