"""Span-based tracing: the one timer, JSONL events, worker shards.

One tracer is active per process (installed with :func:`set_tracer`);
instrumented code talks to it through the module-level proxies
:func:`span`, :func:`record_span` and :func:`event`, which forward to
the active tracer.  When nothing is installed the active tracer is
:data:`NULL_TRACER`, which keeps no trace file.

Every span is timed, traced or not: when a span closes (or
:func:`record_span` records one) its duration is observed into the
active :class:`~repro.obs.metrics.MetricsRegistry` histogram
``<span name>_seconds``, labeled by the span's tags that appear in
:data:`LABEL_TAGS`.  The registry is the one store of counts and
timings; ``/metrics``, ``repro traffic --metrics`` and the harness's
``runtimes.csv`` phase cells all read it.  A span without a trace
file costs a few microseconds (measured in docs/OBSERVABILITY.md), so
spans wrap phases, trials and requests, never per-flow or per-source
work.  The fourth proxy, :func:`counter`, does not go through the
tracer: it bumps the unlabeled counter of the active registry.

A :class:`Tracer` additionally streams one JSON object per line to its
``path``:

* ``meta`` — trace header: schema version, pid, free-form run tags;
* ``span`` — emitted when a span closes: monotonic start ``t``,
  duration ``dur``, per-process span id ``sid``, ``parent`` sid (or
  ``None`` for top-level spans), ``name`` and ``tags``;
* ``counters`` — one event, written by the main tracer on close: the
  registry counts recorded while it was open, labeled series keyed
  ``name{k=v,...}``.  Pool workers' counts are already in them: each
  pool task ships its counts home with its result (see
  :func:`repro.metrics.engine.map_with_pool_recovery`).  Shards write
  none;
* ``rss`` — periodic memory samples (see :mod:`repro.obs.memory`);
* ``warning`` — structured degradation/retry events;
* ``note`` — any other structured event (serve lifecycle, auto-sample
  decisions, gauges).

Every event carries ``t`` (``time.perf_counter()``), ``pid`` and a
per-emitter ``seq``; the merged trace is sorted by ``(t, pid, seq)``,
which makes merging deterministic.  On Linux ``perf_counter`` is
``CLOCK_MONOTONIC`` and therefore comparable across the processes of
one boot; on platforms where it is per-process, cross-process ordering
is approximate but per-process durations stay exact.

Worker processes: a tracer exports its path via the
``REPRO_TRACE_SHARD_BASE`` environment variable.  Fork-started workers
inherit the tracer object itself — the first emit in a child notices
the pid change and reopens onto a private ``<path>.shard-<pid>`` file.
Spawn-started workers call :func:`maybe_init_worker` from the pool
initializer and get a fresh shard tracer from the environment variable.
Either way the parent's :meth:`Tracer.close` merges all shards into the
main file (sorted, then deleted), so a finished trace is always a
single self-contained JSONL file.
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import glob
import json
import os
import re
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics as _metrics

#: bump when the event schema changes incompatibly (documented in
#: docs/OBSERVABILITY.md).
SCHEMA_VERSION = 1

#: environment variable carrying the main trace path to worker processes.
SHARD_ENV = "REPRO_TRACE_SHARD_BASE"

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

    Spans opened inside the block on a *file-backed* tracer are tagged
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

    def counters(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Span:
    """One timed region; use via ``with tracer.span(name, **tags):``.

    Closing it observes its duration into ``<name>_seconds`` of the
    active registry, labeled by its :data:`LABEL_TAGS` tags at close; a
    file-backed tracer also writes a ``span`` event.
    """

    __slots__ = ("_tracer", "name", "tags", "sid", "parent", "t0")

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
        # without a trace file skip it so per-trial spans stay cheap.
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
        dur = time.perf_counter() - self.t0
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
    """File-backed tracer: spans time like :class:`NullTracer`'s, and
    every span and event is also streamed as JSONL to ``path``.

    ``run_tags`` lands in the ``meta`` header event.  ``shard`` marks a
    worker-side tracer: it neither exports :data:`SHARD_ENV` nor merges
    shards on close, and writes no ``counters`` event.
    """

    def __init__(
        self,
        path: str,
        run_tags: Optional[Dict[str, Any]] = None,
        shard: bool = False,
    ) -> None:
        self.enabled = True
        self.path = path
        self._shard = shard
        self._pid = os.getpid()
        self._sid = 0
        self._seq = 0
        # counters() reports this registry's growth since the tracer opened
        self._registry = _metrics.get_registry()
        self._counts_at_open = self._registry.counter_values()
        self._counts_at_close: Optional[Dict[str, float]] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sampler = None
        self._closed = False
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
        if not shard:
            os.environ[SHARD_ENV] = path
            interval = os.environ.get("REPRO_TRACE_MEM_INTERVAL", "0.5").strip()
            if interval and float(interval) > 0:
                from repro.obs.memory import MemorySampler

                self._sampler = MemorySampler(self, float(interval))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        # Keyed by pid: a fork-started worker inherits this tracer with
        # the parent's open spans on the stack — its own spans must not
        # parent onto sids emitted by another process.
        local = self._local
        pid = os.getpid()
        stack = getattr(local, "stack", None)
        if stack is None or getattr(local, "pid", None) != pid:
            stack = []
            local.stack = stack
            local.pid = pid
        return stack

    def _next_sid(self) -> int:
        with self._lock:
            self._sid += 1
            return self._sid

    def _emit(self, obj: Dict[str, Any]) -> None:
        if self._handle is None:
            return
        if os.getpid() != self._pid:
            self._become_shard()
        with self._lock:
            obj["pid"] = os.getpid()
            obj["seq"] = self._seq
            self._seq += 1
            self._handle.write(json.dumps(obj) + "\n")
            self._handle.flush()

    def _become_shard(self) -> None:
        """First emit after a fork: redirect this copy to a shard file.

        Fork-started pool workers inherit the parent tracer object (and
        its open handle); writing through it would interleave bytes with
        the parent.  Instead the child reopens onto its own
        ``<path>.shard-<pid>`` file, which the parent merges on close.
        """
        pid = os.getpid()
        self._pid = pid
        self._seq = 0
        self._sid = int(pid) * 1_000_000  # keep sids unique across shards
        self._local = threading.local()
        self._shard = True
        self._sampler = None
        self.path = f"{self.path}.shard-{pid}"
        self._handle = open(self.path, "w", encoding="utf-8")
        atexit.register(self.close)

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

    def counters(self) -> Dict[str, float]:
        """Registry counts recorded while this tracer is open.

        Keyed like :meth:`~repro.obs.metrics.MetricsRegistry.counter_values`;
        a series that existed at open reports only its growth since.
        Frozen at :meth:`close`.
        """
        if self._counts_at_close is not None:
            return dict(self._counts_at_close)
        before = self._counts_at_open
        return {
            key: value - before.get(key, 0)
            for key, value in self._registry.counter_values().items()
            if key not in before or value != before[key]
        }

    def close(self) -> None:
        """Stop sampling, write the counters event, merge worker shards.

        Idempotent; shard tracers also run it from ``atexit`` so a
        spawn-started worker's file gets its last memory sample.
        """
        if self._closed:
            return
        self._closed = True
        self._counts_at_close = self.counters()
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        self.sample_memory()
        counts = self._counts_at_close
        if counts and not self._shard:
            event = {"ev": "counters", "t": time.perf_counter(), "values": counts}
            self._emit(event)
        self._handle.close()
        self._handle = None
        if not self._shard:
            merge_shards(self.path)
            if os.environ.get(SHARD_ENV) == self.path:
                del os.environ[SHARD_ENV]

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# shard merging
# ----------------------------------------------------------------------
def _read_events(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Events of one JSONL file plus the number of skipped bad lines.

    A worker killed mid-write (SIGKILL, OOM) leaves a truncated final
    line; such lines parse as garbage and are counted, not raised.
    """
    events: List[Dict[str, Any]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                event = json.loads(stripped)
            except ValueError:
                skipped += 1  # truncated tail from a killed writer
                continue
            if isinstance(event, dict):
                events.append(event)
            else:
                skipped += 1
    return events, skipped


def _iter_events(path: str) -> Iterator[Dict[str, Any]]:
    for event in _read_events(path)[0]:
        yield event


_SHARD_PID_RE = re.compile(r"\.shard-(\d+)$")


def merge_shards(path: str) -> int:
    """Fold ``<path>.shard-*`` files into ``path``, deterministically.

    Events are sorted by ``(t, pid, seq)`` — a total order, since
    ``seq`` is unique per pid — so merging the same shard set twice
    produces byte-identical output.  Returns the number of shard files
    merged (0 when there were none; the main file is then untouched).

    Truncated records (a worker SIGKILLed mid-write leaves a partial
    final line in its shard) are skipped, and one synthetic
    ``warning``/``truncated-shard`` event per affected file is merged
    in their place, so the loss is visible in ``repro obs report``
    instead of silently dropped or fatal.
    """
    shards = sorted(glob.glob(glob.escape(path) + ".shard-*"))
    if not shards:
        return 0
    events, _ = _read_events(path)
    for shard in shards:
        shard_events, skipped = _read_events(shard)
        events.extend(shard_events)
        if skipped:
            match = _SHARD_PID_RE.search(shard)
            pid = int(match.group(1)) if match else 0
            last_t = max((e.get("t", 0.0) for e in shard_events), default=0.0)
            events.append(
                {
                    "ev": "warning",
                    "t": last_t,
                    "pid": pid,
                    # far above any real seq so the warning sorts after
                    # the shard's surviving events at the same t
                    "seq": 1_000_000_000,
                    "kind": "truncated-shard",
                    "message": f"skipped {skipped} partial record(s) "
                    f"(writer likely killed mid-write)",
                    "data": {"path": os.path.basename(shard), "skipped": skipped},
                }
            )
    events.sort(key=lambda e: (e.get("t", 0.0), e.get("pid", 0), e.get("seq", 0)))
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")
    os.replace(tmp, path)
    for shard in shards:
        try:
            os.unlink(shard)
        except FileNotFoundError:
            pass
    return len(shards)


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


def maybe_init_worker() -> None:
    """Adopt a shard tracer in a worker process, if the parent traces.

    Called from pool initializers.  Fork-started workers share the
    parent's tracer: sharding it here, before the first task, gives the
    worker its own file and span ids up front (lazy self-sharding on
    first emit remains the fallback).  Spawn workers get a fresh shard
    tracer from :data:`SHARD_ENV`.
    """
    if _ACTIVE.enabled:
        if (
            isinstance(_ACTIVE, Tracer)
            and os.getpid() != _ACTIVE._pid
            and _ACTIVE._handle is not None
        ):
            _ACTIVE._become_shard()
        return
    base = os.environ.get(SHARD_ENV, "").strip()
    if not base:
        return
    shard = Tracer(path=f"{base}.shard-{os.getpid()}", shard=True)
    set_tracer(shard)
    atexit.register(shard.close)


def trace_path_from_env(default_path: str) -> Optional[str]:
    """Resolve :data:`TRACE_ENV` into a trace path (None = tracing off)."""
    value = os.environ.get(TRACE_ENV, "").strip()
    if not value or value == "0":
        return None
    if value.lower() in ("1", "true", "yes", "on"):
        return default_path
    return value
