"""Span-based tracing: the one timer, JSONL events, worker lines.

One tracer is active per process (installed by :func:`repro.obs.run`,
through :func:`set_tracer`); instrumented code talks to it through the
module-level proxies :func:`span`, :func:`record_span` and
:func:`event`, which forward to the active tracer.  When nothing is
installed the active tracer is :data:`NULL_TRACER`, which keeps no
trace file.

Every span is timed, traced or not: when a span closes (or
:func:`record_span` records one) its duration is observed into the
active :class:`~repro.obs.metrics.MetricsRegistry` histogram
``<span name>_seconds``, labeled by the span's tags that appear in
:data:`LABEL_TAGS`.  The registry is the one store of counts and
timings; ``/metrics``, ``repro traffic --metrics`` and the phase rows
of ``runtimes.csv`` all read it.  A span without a trace file costs a
few microseconds (measured in docs/OBSERVABILITY.md), so spans wrap
phases, trials and requests, never per-flow or per-source work.  The
fourth proxy, :func:`counter`, does not go through the tracer: it bumps
the unlabeled counter of the active registry.

A :class:`Tracer` additionally streams one JSON object per line to its
``path``:

* ``meta`` — trace header: schema version, pid, free-form run tags;
* ``span`` — emitted when a span closes: monotonic start ``t``,
  duration ``dur``, per-process span id ``sid``, ``parent`` sid (or
  ``None`` for top-level spans), ``name`` and ``tags``;
* ``counters`` — one event, written by the main tracer on close: the
  counts of the run's registry, labeled series keyed ``name{k=v,...}``.
  Worker processes' counts are already in them: each pool task and
  each serve reply ships its counts home (see :mod:`repro.pool`);
* ``rss`` — periodic memory samples (see :mod:`repro.obs.memory`);
* ``warning`` — structured degradation/retry events;
* ``note`` — any other structured event (serve lifecycle, auto-sample
  decisions, gauges).

Every event carries ``t`` (``time.perf_counter()``), ``pid`` and a
per-process ``seq``, so ``(t, pid, seq)`` is a total order.  On Linux
``perf_counter`` is ``CLOCK_MONOTONIC`` and therefore comparable across
the processes of one boot; on platforms where it is per-process,
cross-process ordering is approximate but per-process durations stay
exact.

Worker processes (pool workers, serve workers) trace into memory: a
``Tracer(None)`` of their own, installed before their first task.  Its
lines come home with each task's result or reply (:meth:`Tracer.drain`
in the worker, :meth:`Tracer.write_lines` in the parent), so the trace
file is append-only, in arrival order, and every reader that needs
time order sorts by ``(t, pid, seq)``.
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs import metrics as _metrics

#: bump when the event schema changes incompatibly (documented in
#: docs/OBSERVABILITY.md).
SCHEMA_VERSION = 1

#: environment variable enabling tracing without the ``--trace`` flag
#: ("1"/"true" = default per-run path; anything else = explicit path).
TRACE_ENV = "REPRO_TRACE"

#: environment variable enabling the cProfile hook (see repro.obs.profile).
PROFILE_ENV = "REPRO_PROFILE"


# ----------------------------------------------------------------------
# trace context: one logical request = one trace id
# ----------------------------------------------------------------------
#: the trace id bound to the current task/thread (contextvar so it
#: follows async tasks and is inherited by threads started under it
#: only when explicitly rebound — which is what the serve stack does).
_TRACE_CTX: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace id (little entropy needed: ids only
    have to be unique within one trace file's lifetime)."""
    return os.urandom(8).hex()


def current_trace_id() -> Optional[str]:
    """The trace id bound to the calling context, or ``None``."""
    return _TRACE_CTX.get()


@contextlib.contextmanager
def trace_context(trace_id: Optional[str]):
    """Bind ``trace_id`` for the duration of the block.

    Spans opened inside the block on a :class:`Tracer` are tagged
    ``trace=<id>``, which is what ``repro obs report --trace-id`` uses
    to stitch the client → queue → worker critical path back together.
    ``None`` unbinds (useful to keep an inherited id out of unrelated
    background work).
    """
    token = _TRACE_CTX.set(trace_id)
    try:
        yield trace_id
    finally:
        _TRACE_CTX.reset(token)


#: span tags that label a span's ``<name>_seconds`` histogram.  Each
#: takes a handful of values; every other tag (seeds, trials, sizes,
#: slots, trace ids) stays in the trace file, so a registry never grows
#: a series per trial or per request.
LABEL_TAGS = ("op", "endpoint", "outcome", "pattern")


def _observe(name: str, dur: float, tags: Dict[str, Any]) -> None:
    """Time one finished span into the active registry."""
    labels = {key: tags[key] for key in LABEL_TAGS if key in tags}
    _metrics.get_registry().histogram(name + "_seconds", **labels).observe(dur)


class NullTracer:
    """The tracer without a trace file: spans time, nothing is written.

    A singleton (:data:`NULL_TRACER`) is installed by default, so
    instrumented code never needs an ``if tracing:`` guard.
    """

    __slots__ = ()
    enabled = False
    path: Optional[str] = None
    _handle = None

    def span(self, name: str, **tags: Any) -> "Span":
        return Span(self, name, tags)

    def event(self, kind: str, message: str = "", **data: Any) -> None:
        return None

    def record_span(self, name: str, t0: float, dur: float, **tags: Any) -> None:
        _observe(name, dur, tags)

    def sample_memory(self) -> None:
        return None

    def drain(self) -> str:
        return ""

    def write_lines(self, text: str) -> None:
        return None

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Span:
    """One timed region; use via ``with tracer.span(name, **tags):``.

    Closing it observes its duration into ``<name>_seconds`` of the
    active registry, labeled by its :data:`LABEL_TAGS` tags at close; a
    :class:`Tracer` also writes a ``span`` event.  The duration stays
    readable as :attr:`dur` once the span has closed, so code that needs
    the time of its own region reads the span instead of a second timer.
    """

    __slots__ = ("_tracer", "name", "tags", "sid", "parent", "t0", "dur")

    def __init__(self, tracer, name: str, tags: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.tags = tags

    def tag(self, **tags: Any) -> "Span":
        """Attach tags after entry (e.g. results known only at the end)."""
        self.tags.update(tags)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        # sid/parent bookkeeping only matters for written events; spans
        # of the NullTracer skip it so per-trial spans stay cheap.
        if tracer._handle is not None:
            stack = tracer._stack()
            self.parent = stack[-1].sid if stack else None
            self.sid = tracer._next_sid()
            stack.append(self)
            if "trace" not in self.tags:
                trace_id = _TRACE_CTX.get()
                if trace_id is not None:
                    self.tags["trace"] = trace_id
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.dur = dur = time.perf_counter() - self.t0
        _observe(self.name, dur, self.tags)
        tracer = self._tracer
        if tracer._handle is not None:
            stack = tracer._stack()
            if stack and stack[-1] is self:
                stack.pop()
            tracer._emit(
                {
                    "ev": "span",
                    "t": self.t0,
                    "dur": dur,
                    "name": self.name,
                    "sid": self.sid,
                    "parent": self.parent,
                    "tags": self.tags,
                }
            )


class Tracer:
    """Tracer that writes: spans time like :class:`NullTracer`'s, and
    every span and event is also written as one JSON line.

    With a ``path`` the lines stream to that file, after a ``meta``
    header carrying ``run_tags``; on close, the ``counters`` event holds
    the counts of the registry that was active when the tracer opened
    (:func:`repro.obs.run` opens every run's tracer on a fresh registry,
    so those are the run's counts).  With ``path=None`` the lines stay
    in memory until :meth:`drain` takes them: that is a worker
    process's tracer, whose lines the parent appends to its own file
    with :meth:`write_lines`.
    """

    def __init__(
        self, path: Optional[str], run_tags: Optional[Dict[str, Any]] = None
    ) -> None:
        self.enabled = True
        self.path = path
        self._pid = os.getpid()
        self._sid = 0
        self._seq = 0
        self._registry = _metrics.get_registry()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sampler = None
        self._closed = False
        if path is None:
            self._handle = io.StringIO()
            return
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "w", encoding="utf-8")
        self._emit(
            {
                "ev": "meta",
                "t": time.perf_counter(),
                "schema": SCHEMA_VERSION,
                "tags": dict(run_tags or {}),
            }
        )
        interval = os.environ.get("REPRO_TRACE_MEM_INTERVAL", "0.5").strip()
        if interval and float(interval) > 0:
            from repro.obs.memory import MemorySampler

            self._sampler = MemorySampler(self, float(interval))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_sid(self) -> int:
        with self._lock:
            self._sid += 1
            return self._sid

    def _emit(self, obj: Dict[str, Any]) -> None:
        if self._handle is None:
            return
        with self._lock:
            obj["pid"] = self._pid
            obj["seq"] = self._seq
            self._seq += 1
            self._handle.write(json.dumps(obj) + "\n")
            self._handle.flush()

    # ------------------------------------------------------------------
    # public API (mirrors NullTracer)
    # ------------------------------------------------------------------
    def span(self, name: str, **tags: Any) -> Span:
        return Span(self, name, tags)

    def event(self, kind: str, message: str = "", **data: Any) -> None:
        # Anything that is not a failure-ish warning travels as a
        # generic "note" so the trace schema stays closed: new kinds
        # (serve lifecycle, auto-sample decisions, gauges) never make a
        # trace invalid.
        self._emit(
            {
                "ev": "warning" if kind in ("degraded-mode", "pool-retry") else "note",
                "t": time.perf_counter(),
                "kind": kind,
                "message": message,
                "data": data,
            }
        )

    def record_span(self, name: str, t0: float, dur: float, **tags: Any) -> None:
        """Record a span retroactively from measured timestamps.

        For regions whose start and end are observed in *different*
        call frames (e.g. queue wait: enqueue in the service thread,
        pickup in the worker agent), where a ``with span():`` block
        cannot wrap the region.  ``t0`` must come from
        ``time.perf_counter()``.  The span is top-level (no parent —
        the recording thread's open spans are unrelated to the measured
        region) and is timed into the registry like any other span.
        """
        _observe(name, dur, tags)
        if self._handle is not None:
            if "trace" not in tags:
                trace_id = _TRACE_CTX.get()
                if trace_id is not None:
                    tags["trace"] = trace_id
            self._emit(
                {
                    "ev": "span",
                    "t": t0,
                    "dur": dur,
                    "name": name,
                    "sid": self._next_sid(),
                    "parent": None,
                    "tags": tags,
                }
            )

    def sample_memory(self) -> None:
        """Emit one ``rss`` event (no-op once closed)."""
        if self._handle is None:
            return
        from repro.obs.memory import memory_sample

        sample = memory_sample()
        if sample:
            self._emit({"ev": "rss", "t": time.perf_counter(), **sample})

    def drain(self) -> str:
        """Take the lines an in-memory tracer has written since the last drain."""
        with self._lock:
            text = self._handle.getvalue()
            self._handle = io.StringIO()
        return text

    def write_lines(self, text: str) -> None:
        """Append JSON lines drained from a worker's tracer (no-op once closed)."""
        if text and self._handle is not None:
            with self._lock:
                self._handle.write(text)
                self._handle.flush()

    def close(self) -> None:
        """Stop sampling and write the last memory sample and the counters.

        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        self.sample_memory()
        counts = self._registry.counter_values()
        if counts:
            event = {"ev": "counters", "t": time.perf_counter(), "values": counts}
            self._emit(event)
        self._handle.close()
        self._handle = None


# ----------------------------------------------------------------------
# the active tracer
# ----------------------------------------------------------------------
_ACTIVE: Any = NULL_TRACER


def get_tracer():
    """The process-wide active tracer (:data:`NULL_TRACER` by default)."""
    return _ACTIVE


def set_tracer(tracer) -> Any:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


def span(name: str, **tags: Any):
    """Open a span on the active tracer; it times into the registry."""
    return _ACTIVE.span(name, **tags)


def counter(name: str, inc: float = 1) -> None:
    """Bump the unlabeled counter ``name`` of the active metrics registry."""
    _metrics.get_registry().counter(name).inc(inc)


def event(kind: str, message: str = "", **data: Any) -> None:
    """Record a structured event (warnings, retries) on the active tracer."""
    _ACTIVE.event(kind, message, **data)


def record_span(name: str, t0: float, dur: float, **tags: Any) -> None:
    """Record a retroactively-measured span on the active tracer."""
    _ACTIVE.record_span(name, t0, dur, **tags)


def trace_path_from_env(default_path: str) -> Optional[str]:
    """Resolve :data:`TRACE_ENV` into a trace path (None = tracing off)."""
    value = os.environ.get(TRACE_ENV, "").strip()
    if not value or value == "0":
        return None
    if value.lower() in ("1", "true", "yes", "on"):
        return default_path
    return value
