"""Worker-process entry point of the topology query service.

Each worker is one OS process connected to the parent by a private
duplex :class:`multiprocessing.Pipe`.  Privacy is the crash-isolation
property: ``multiprocessing.Queue`` shares reader/writer locks between
consumers, so a worker SIGKILLed mid-``get`` can leave the lock held
and deadlock every sibling — with one pipe per worker, a killed worker
costs exactly its own in-flight request (the parent sees EOF on *that*
pipe and fails *that* request as retryable), and the supervisor
replaces the process without touching the others.

The graph arrives as a :class:`~repro.topology.shm.GraphHandle`: the
CSR arrays live once in shared memory (or in memmap files), so spawning
or respawning a worker attaches megabytes instead of copying them —
restart cost stays flat in graph size.

Protocol on the pipe (all plain picklable dicts):

* parent -> worker: ``{"seq": n, "request": <canonical request>}`` —
  the request may carry a ``"trace"`` key (the client's trace id),
  which the worker binds around execution so its spans stitch into the
  request's end-to-end trace;
* worker -> parent: ``{"seq": n, "result": payload}`` or
  ``{"seq": n, "error": <ServeError payload>}``.  Result replies carry
  a ``"worker"`` meta dict (popped by the parent agent, never sent to
  clients) with the worker's pid, scenario-cache stats, a live metrics
  snapshot and its peak RSS — the piggyback channel that merges
  worker-side telemetry into the parent without extra IPC.  When the
  parent traces, every reply also carries ``"trace"``: the JSON lines
  the worker's in-memory tracer wrote since the last reply, which the
  parent appends to its trace file.

The ``seq`` echo lets the parent discard stale replies after it has
already timed out a request — the pipe stays usable without a restart.
A worker exits on EOF (parent closed the pipe = drain) and never
touches the segment's lifetime: the parent owns it.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from repro.serve import engine
from repro.serve.protocol import ServeError
from repro.serve.scenario import ScenarioCache


def worker_main(
    conn, handle, scenario_capacity: int = 64, traced: bool = False
) -> None:
    """Blocking request loop; returns (exiting the process) on EOF.

    ``traced`` says whether the parent traces: then this worker traces
    into memory and sends its lines home on every reply.
    """
    from repro.obs import trace as obs_trace
    from repro.obs.memory import peak_rss_mb
    from repro.obs.metrics import get_registry

    tracer = obs_trace.Tracer(None) if traced else obs_trace.NULL_TRACER
    obs_trace.set_tracer(tracer)
    graph = handle.materialize()
    scenarios = ScenarioCache(graph, capacity=scenario_capacity)
    registry = get_registry()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:  # explicit stop sentinel
                break
            reply: Dict[str, Any] = {"seq": message.get("seq")}
            request = message.get("request") or {}
            op = request.get("op", "?")
            # the span closes before the snapshot below is taken, so
            # the snapshot riding on this reply counts this request.
            with obs_trace.trace_context(request.get("trace")), obs_trace.span(
                "serve.execute.latency", endpoint=op, outcome="error"
            ) as span:
                try:
                    result = engine.execute(graph, request, scenarios)
                    degraded = result.get("status") == "degraded"
                    span.tag(outcome="degraded" if degraded else "ok")
                    result["worker"] = {
                        "pid": os.getpid(),
                        "cache": scenarios.stats(),
                    }
                    reply["result"] = result
                except ServeError as error:
                    span.tag(outcome="timeout" if error.code == "timeout" else "error")
                    reply["error"] = error.to_payload()
                except Exception as error:  # noqa: BLE001 - must not kill the loop
                    reply["error"] = ServeError(
                        "internal", f"{type(error).__name__}: {error}"
                    ).to_payload()
            if "result" in reply:
                # telemetry piggybacks on every result reply: the
                # parent pops it, so the wire payload stays unchanged.
                reply["result"]["worker"]["metrics"] = registry.snapshot()
                reply["result"]["worker"]["rss_mb"] = peak_rss_mb()
            if traced:
                reply["trace"] = tracer.drain()
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()
