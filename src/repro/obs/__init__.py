"""Observability: structured tracing, live metrics, logging, reports.

The package behind ``repro run --trace``, ``repro obs report`` and the
serve daemon's ``GET /metrics``:

* :mod:`repro.obs.scope` — :func:`run`, the one scope that installs a
  run's registry and trace file and reports its phase totals;
* :mod:`repro.obs.trace` — spans, the one timer, plus the JSONL
  tracer, trace-id context propagation and worker-shard handling;
* :mod:`repro.obs.metrics` — the live metrics registry, the one store
  of counts and timings: counters, gauges and log-linear latency
  histograms with mergeable snapshots and Prometheus text exposition;
* :mod:`repro.obs.memory` — RSS/peak-memory sampling;
* :mod:`repro.obs.log` — the stderr progress logger and heartbeat;
* :mod:`repro.obs.profile` — opt-in cProfile hook;
* :mod:`repro.obs.report` — trace loading, validation, the
  per-phase/utilization/peak-RSS report, per-trace-id stitching and
  the live tail follower.

Instrumented code imports the module-level proxies (:func:`span`,
:func:`record_span`, :func:`event`, :func:`counter`), so call sites
stay unconditional.  Every span times into the active metrics registry
as ``<span name>_seconds``, whether or not a trace file is open; a
file-backed tracer also writes the span and event records.
:func:`counter` bumps the unlabeled counter of the active registry,
and a tracer reports the counts of the run it belongs to.  See
docs/OBSERVABILITY.md for the trace schema, span and metric names and
environment variables.
"""

from repro.obs.log import Heartbeat, get_logger, heartbeat_interval
from repro.obs.memory import MemorySampler, memory_sample, peak_rss_mb
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exposition_problems,
    get_registry,
    merge_snapshots,
    render_prometheus,
    set_registry,
)
from repro.obs.profile import maybe_profile, profile_enabled
from repro.obs.report import (
    PhaseStats,
    PoolStats,
    TraceSummary,
    cache_hit_lines,
    follow_trace,
    load_trace,
    render_report,
    render_tail_event,
    render_trace,
    report_files,
    report_trace_id,
    summarize,
    trace_spans,
    validate_trace,
)
from repro.obs.scope import RunScope, run
from repro.obs.trace import (
    NULL_TRACER,
    PROFILE_ENV,
    SCHEMA_VERSION,
    SHARD_ENV,
    TRACE_ENV,
    NullTracer,
    Span,
    Tracer,
    counter,
    current_trace_id,
    event,
    get_tracer,
    maybe_init_worker,
    merge_shards,
    mint_trace_id,
    record_span,
    set_tracer,
    span,
    trace_context,
    trace_path_from_env,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "MemorySampler",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PROFILE_ENV",
    "PhaseStats",
    "PoolStats",
    "RunScope",
    "SCHEMA_VERSION",
    "SHARD_ENV",
    "Span",
    "TRACE_ENV",
    "TraceSummary",
    "Tracer",
    "cache_hit_lines",
    "counter",
    "current_trace_id",
    "event",
    "exposition_problems",
    "follow_trace",
    "get_logger",
    "get_registry",
    "get_tracer",
    "heartbeat_interval",
    "load_trace",
    "maybe_init_worker",
    "maybe_profile",
    "memory_sample",
    "merge_shards",
    "merge_snapshots",
    "mint_trace_id",
    "peak_rss_mb",
    "profile_enabled",
    "record_span",
    "render_prometheus",
    "render_report",
    "render_tail_event",
    "render_trace",
    "report_files",
    "report_trace_id",
    "run",
    "set_registry",
    "set_tracer",
    "span",
    "summarize",
    "trace_context",
    "trace_path_from_env",
    "trace_spans",
    "validate_trace",
]
