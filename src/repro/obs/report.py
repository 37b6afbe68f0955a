"""Trace analysis: load a run's JSONL trace, explain where time went.

``repro obs report TRACE…`` renders, per trace file:

* the run header (meta tags, event count, wall time, peak RSS);
* a per-phase wall-time breakdown — spans aggregated by name, with
  counts, totals and share of the run's wall clock;
* the N slowest individual spans;
* worker-pool utilization — per ``pool`` span, the busy time of worker
  top-level spans inside its window against ``workers x wall``;
* cumulative counters, with compile-cache hit rates derived from the
  ``compiled.*`` counters;
* structured warnings (pool retries, degraded-mode fallbacks).

The loader is forgiving (truncated tails and junk lines are skipped —
traces of killed runs must still report); :func:`validate_trace` is the
strict half, used by the schema tests and the CI smoke job.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.trace import read_events

_NUMERIC = (int, float)

#: event types defined by schema version 1 (see docs/OBSERVABILITY.md).
KNOWN_EVENTS = ("meta", "span", "counters", "rss", "warning", "note")


def load_trace(path: str) -> List[Dict[str, Any]]:
    """All parseable events of one JSONL trace file, in file order."""
    return read_events(path)[0]


def validate_trace(events: Sequence[Dict[str, Any]]) -> List[str]:
    """Schema problems in ``events`` (empty list == valid trace).

    Checks the documented invariants: known event types, required
    fields with the right shapes, per-pid unique span ids, and span
    parents that reference an emitted span of the same process.
    """
    problems: List[str] = []
    sids: Dict[Tuple[int, int], int] = {}
    spans_by_pid: Dict[int, set] = {}
    parents: List[Tuple[int, int, int]] = []
    for i, event in enumerate(events):
        where = f"event {i}"
        kind = event.get("ev")
        if kind not in KNOWN_EVENTS:
            problems.append(f"{where}: unknown event type {kind!r}")
            continue
        for name, types in (("t", _NUMERIC), ("pid", (int,)), ("seq", (int,))):
            if not isinstance(event.get(name), types):
                problems.append(f"{where} ({kind}): bad or missing {name!r}")
        if kind == "meta":
            if not isinstance(event.get("schema"), int):
                problems.append(f"{where}: meta without integer 'schema'")
            if not isinstance(event.get("tags"), dict):
                problems.append(f"{where}: meta without 'tags' object")
        elif kind == "span":
            if not isinstance(event.get("name"), str) or not event.get("name"):
                problems.append(f"{where}: span without a name")
            if not isinstance(event.get("dur"), _NUMERIC) or event.get("dur", -1) < 0:
                problems.append(f"{where}: span without non-negative 'dur'")
            if not isinstance(event.get("tags"), dict):
                problems.append(f"{where}: span without 'tags' object")
            sid, pid = event.get("sid"), event.get("pid")
            if not isinstance(sid, int):
                problems.append(f"{where}: span without integer 'sid'")
            elif isinstance(pid, int):
                key = (pid, sid)
                if key in sids:
                    problems.append(f"{where}: duplicate sid {sid} in pid {pid}")
                sids[key] = i
                spans_by_pid.setdefault(pid, set()).add(sid)
                parent = event.get("parent")
                if parent is not None:
                    if not isinstance(parent, int):
                        problems.append(f"{where}: non-integer span parent")
                    else:
                        parents.append((i, pid, parent))
        elif kind == "counters":
            values = event.get("values")
            if not isinstance(values, dict) or not all(
                isinstance(v, _NUMERIC) for v in values.values()
            ):
                problems.append(f"{where}: counters without numeric 'values'")
        elif kind == "rss":
            for name in ("rss_mb", "peak_mb"):
                if not isinstance(event.get(name), _NUMERIC):
                    problems.append(f"{where}: rss without numeric {name!r}")
        elif kind in ("warning", "note"):
            if not isinstance(event.get("kind"), str):
                problems.append(f"{where}: {kind} without 'kind'")
    for i, pid, parent in parents:
        if parent not in spans_by_pid.get(pid, ()):
            problems.append(f"event {i}: span parent {parent} not emitted by pid {pid}")
    return problems


# ----------------------------------------------------------------------
# summarisation
# ----------------------------------------------------------------------
@dataclass
class PhaseStats:
    name: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_ms(self) -> float:
        return 1000.0 * self.total_s / self.count if self.count else 0.0


@dataclass
class PoolStats:
    context: str
    workers: int
    tasks: int
    wall_s: float
    busy_s: float = 0.0

    @property
    def utilization(self) -> float:
        capacity = self.workers * self.wall_s
        return self.busy_s / capacity if capacity > 0 else 0.0


@dataclass
class TraceSummary:
    meta_tags: Dict[str, Any] = field(default_factory=dict)
    events: int = 0
    main_pid: Optional[int] = None
    worker_pids: List[int] = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_mb: Optional[float] = None
    rss_by_pid: Dict[int, float] = field(default_factory=dict)
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    pools: List[PoolStats] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    warnings: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[Dict[str, Any]] = field(default_factory=list)

    def slowest(self, n: int = 10) -> List[Dict[str, Any]]:
        return sorted(self.spans, key=lambda s: -s.get("dur", 0.0))[:n]


def summarize(events: Sequence[Dict[str, Any]]) -> TraceSummary:
    """Aggregate one trace's events into a :class:`TraceSummary`."""
    summary = TraceSummary(events=len(events))
    t_min = t_max = None
    # Counter values are cumulative per emitting process: the latest
    # event per pid supersedes earlier snapshots, pids sum.
    counters_by_pid: Dict[Any, Dict[str, float]] = {}
    for event in events:
        kind = event.get("ev")
        t = event.get("t")
        if isinstance(t, _NUMERIC):
            end = t + event.get("dur", 0.0) if kind == "span" else t
            t_min = t if t_min is None else min(t_min, t)
            t_max = end if t_max is None else max(t_max, end)
        if kind == "meta":
            if summary.main_pid is None:
                summary.main_pid = event.get("pid")
                summary.meta_tags = dict(event.get("tags") or {})
        elif kind == "span":
            summary.spans.append(event)
            stats = summary.phases.setdefault(
                event.get("name", "?"), PhaseStats(event.get("name", "?"))
            )
            dur = float(event.get("dur", 0.0))
            stats.count += 1
            stats.total_s += dur
            stats.max_s = max(stats.max_s, dur)
        elif kind == "counters":
            counters_by_pid[event.get("pid")] = event.get("values") or {}
        elif kind == "rss":
            peak = event.get("peak_mb")
            if isinstance(peak, _NUMERIC):
                if summary.peak_rss_mb is None or peak > summary.peak_rss_mb:
                    summary.peak_rss_mb = float(peak)
                pid = event.get("pid")
                if isinstance(pid, int):
                    if float(peak) > summary.rss_by_pid.get(pid, 0.0):
                        summary.rss_by_pid[pid] = float(peak)
        elif kind == "warning":
            summary.warnings.append(event)
        elif kind == "note":
            summary.notes.append(event)
    for values in counters_by_pid.values():
        for name, value in values.items():
            summary.counters[name] = summary.counters.get(name, 0) + value
    if summary.main_pid is None and summary.spans:
        summary.main_pid = summary.spans[0].get("pid")
    summary.worker_pids = sorted(
        {
            s.get("pid")
            for s in summary.spans
            if isinstance(s.get("pid"), int) and s.get("pid") != summary.main_pid
        }
    )
    summary.wall_s = (t_max - t_min) if (t_min is not None and t_max is not None) else 0.0

    # Pool utilization: worker top-level spans inside each pool window.
    worker_top = [
        s
        for s in summary.spans
        if s.get("pid") in summary.worker_pids and s.get("parent") is None
    ]
    for pool in (s for s in summary.spans if s.get("name") == "pool"):
        tags = pool.get("tags") or {}
        t0 = float(pool.get("t", 0.0))
        t1 = t0 + float(pool.get("dur", 0.0))
        busy = sum(
            float(s.get("dur", 0.0))
            for s in worker_top
            if t0 <= float(s.get("t", 0.0)) <= t1
        )
        summary.pools.append(
            PoolStats(
                context=str(tags.get("context", "?")),
                workers=int(tags.get("workers", 0) or 0),
                tasks=int(tags.get("tasks", 0) or 0),
                wall_s=float(pool.get("dur", 0.0)),
                busy_s=busy,
            )
        )
    return summary


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_tags(tags: Dict[str, Any], limit: int = 48) -> str:
    text = " ".join(f"{k}={v}" for k, v in tags.items())
    return text if len(text) <= limit else text[: limit - 1] + "…"


def cache_hit_lines(counters: Dict[str, float]) -> List[str]:
    """Human lines for every ``<name>.cache_hit``/``.cache_miss`` pair."""
    lines = []
    bases = sorted(
        {
            name.rsplit(".", 1)[0]
            for name in counters
            if name.endswith((".cache_hit", ".cache_miss"))
        }
    )
    for base in bases:
        hits = counters.get(f"{base}.cache_hit", 0)
        misses = counters.get(f"{base}.cache_miss", 0)
        total = hits + misses
        rate = 100.0 * hits / total if total else 0.0
        lines.append(
            f"  {base:<28} {int(hits)} hit / {int(misses)} miss ({rate:.0f}% hit)"
        )
    return lines


def render_report(path: str, summary: TraceSummary, slowest: int = 10) -> str:
    """The human-readable report for one summarised trace."""
    lines: List[str] = [f"=== trace: {path} ==="]
    tags = " ".join(f"{k}={v}" for k, v in summary.meta_tags.items())
    peak = f"{summary.peak_rss_mb:.1f} MB" if summary.peak_rss_mb is not None else "n/a"
    lines.append(
        f"run: {tags or '(untagged)'} · {summary.events} events · "
        f"wall {summary.wall_s:.3f}s · peak RSS {peak}"
    )
    if summary.worker_pids:
        lines.append(
            f"processes: main pid {summary.main_pid} + "
            f"{len(summary.worker_pids)} workers"
        )
    if len(summary.rss_by_pid) > 1:
        # Per-process peaks only earn a section once workers sampled
        # memory too; a single-process run is covered by the header.
        lines.append("memory (peak RSS per process):")
        total = 0.0
        for pid in sorted(summary.rss_by_pid):
            role = "main" if pid == summary.main_pid else "worker"
            peak_mb = summary.rss_by_pid[pid]
            total += peak_mb
            lines.append(f"  pid {pid:<8} {role:<7} {peak_mb:>9.1f} MB")
        lines.append(f"  {'pool total':<16} {total:>9.1f} MB")

    lines.append("")
    lines.append("phase breakdown (spans aggregated by name):")
    lines.append(
        f"  {'name':<26} {'count':>7} {'total_s':>9} {'mean_ms':>9} "
        f"{'max_ms':>9} {'%wall':>6}"
    )
    wall = summary.wall_s or 1.0
    for stats in sorted(summary.phases.values(), key=lambda p: -p.total_s):
        lines.append(
            f"  {stats.name:<26} {stats.count:>7} {stats.total_s:>9.3f} "
            f"{stats.mean_ms:>9.2f} {1000 * stats.max_s:>9.2f} "
            f"{100 * stats.total_s / wall:>5.1f}%"
        )

    top = summary.slowest(slowest)
    if top:
        lines.append("")
        lines.append(f"slowest spans (top {len(top)}):")
        lines.append(f"  {'dur_ms':>9}  {'pid':>7}  {'name':<26} tags")
        for s in top:
            lines.append(
                f"  {1000 * float(s.get('dur', 0.0)):>9.2f}  {s.get('pid', '?'):>7}  "
                f"{s.get('name', '?'):<26} {_fmt_tags(s.get('tags') or {})}"
            )

    if summary.pools:
        lines.append("")
        lines.append("worker pools:")
        lines.append(
            f"  {'context':<36} {'workers':>7} {'tasks':>6} {'wall_s':>8} "
            f"{'busy_s':>8} {'util%':>6}"
        )
        for pool in summary.pools:
            lines.append(
                f"  {pool.context:<36} {pool.workers:>7} {pool.tasks:>6} "
                f"{pool.wall_s:>8.3f} {pool.busy_s:>8.3f} "
                f"{100 * pool.utilization:>5.1f}%"
            )

    if summary.counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(summary.counters):
            value = summary.counters[name]
            shown = int(value) if float(value).is_integer() else round(value, 4)
            lines.append(f"  {name:<28} {shown}")
        hits = cache_hit_lines(summary.counters)
        if hits:
            lines.append("cache hit rates:")
            lines.extend(hits)

    lines.append("")
    if summary.warnings:
        lines.append(f"warnings ({len(summary.warnings)}):")
        for warning in summary.warnings:
            lines.append(
                f"  [{warning.get('kind', '?')}] {warning.get('message', '')} "
                f"{_fmt_tags(warning.get('data') or {}, limit=80)}"
            )
    else:
        lines.append("warnings: none")
    if summary.notes:
        kinds: Dict[str, int] = {}
        for note in summary.notes:
            key = str(note.get("kind", "?"))
            kinds[key] = kinds.get(key, 0) + 1
        breakdown = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(kinds.items())
        )
        lines.append(f"notes ({len(summary.notes)}): {breakdown}")
    return "\n".join(lines)


def report_files(paths: Sequence[str], slowest: int = 10) -> str:
    """Load, summarise and render one report section per trace file."""
    sections = []
    for path in paths:
        events = load_trace(path)
        problems = validate_trace(events)
        section = render_report(path, summarize(events), slowest=slowest)
        if problems:
            section += (
                f"\nschema problems ({len(problems)}):\n  "
                + "\n  ".join(problems[:10])
            )
        sections.append(section)
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# trace stitching: one request's client → queue → worker critical path
# ----------------------------------------------------------------------
def trace_spans(
    events: Sequence[Dict[str, Any]], trace_id: str
) -> List[Dict[str, Any]]:
    """All spans tagged ``trace=<trace_id>``, in start order.

    The serve stack tags every span it opens under a bound trace
    context (client request, server-side submit, retroactive queue
    wait, worker execute) with the request's trace id, so filtering on
    the tag reassembles the request across processes and trace files.
    """
    spans = [
        event
        for event in events
        if event.get("ev") == "span"
        and (event.get("tags") or {}).get("trace") == trace_id
    ]
    spans.sort(key=lambda s: (s.get("t", 0.0), s.get("pid", 0), s.get("seq", 0)))
    return spans


def render_trace(trace_id: str, spans: Sequence[Dict[str, Any]]) -> str:
    """An indented tree of one stitched trace, timed relative to its start.

    Parent/child nesting uses the emitted ``parent`` sids *within* a
    pid; across pids (client process → server process → worker) spans
    are separate roots ordered by start time, which reads as the
    request's hop sequence.  A retried request (worker died, client
    retried) shows each attempt's spans under the same id — that is the
    point: the whole story of one logical request in one place.
    """
    if not spans:
        return f"trace {trace_id}: no spans"
    t0 = min(float(s.get("t", 0.0)) for s in spans)
    by_key = {(s.get("pid"), s.get("sid")): s for s in spans}
    children: Dict[Tuple[Any, Any], List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for s in spans:
        parent_key = (s.get("pid"), s.get("parent"))
        if s.get("parent") is not None and parent_key in by_key:
            children.setdefault(parent_key, []).append(s)
        else:
            roots.append(s)
    pids = sorted({s.get("pid") for s in spans if isinstance(s.get("pid"), int)})
    lines = [
        f"trace {trace_id}: {len(spans)} span(s) across "
        f"{len(pids)} process(es) {pids}"
    ]
    lines.append(f"  {'offset_ms':>10} {'dur_ms':>9}  {'pid':>7}  span")

    def _walk(span: Dict[str, Any], depth: int) -> None:
        offset_ms = 1000.0 * (float(span.get("t", 0.0)) - t0)
        dur_ms = 1000.0 * float(span.get("dur", 0.0))
        tags = {
            k: v for k, v in (span.get("tags") or {}).items() if k != "trace"
        }
        lines.append(
            f"  {offset_ms:>10.2f} {dur_ms:>9.2f}  {span.get('pid', '?'):>7}  "
            f"{'  ' * depth}{span.get('name', '?')} {_fmt_tags(tags, limit=60)}"
        )
        for child in sorted(
            children.get((span.get("pid"), span.get("sid")), ()),
            key=lambda s: s.get("t", 0.0),
        ):
            _walk(child, depth + 1)

    for root in sorted(roots, key=lambda s: s.get("t", 0.0)):
        _walk(root, 0)
    return "\n".join(lines)


def report_trace_id(paths: Sequence[str], trace_id: str) -> Tuple[str, int]:
    """Stitch ``trace_id`` across trace files; (rendered text, span count)."""
    spans: List[Dict[str, Any]] = []
    for path in paths:
        if os.path.exists(path):
            spans.extend(trace_spans(load_trace(path), trace_id))
    spans.sort(key=lambda s: (s.get("t", 0.0), s.get("pid", 0), s.get("seq", 0)))
    return render_trace(trace_id, spans), len(spans)


# ----------------------------------------------------------------------
# live following (repro obs tail)
# ----------------------------------------------------------------------
def follow_trace(
    path: str,
    poll_s: float = 0.25,
    timeout_s: Optional[float] = None,
    max_events: Optional[int] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield events appended to a live trace file (and its worker shards).

    ``tail -f`` for JSONL traces: starts at the beginning, then polls
    for growth.  Partial trailing lines (a writer mid-``write``) are
    held back until their newline arrives.  Worker shard files
    (``<path>.shard-*``) are picked up as they appear, so spans emitted
    by pool workers stream too.  Stops after ``timeout_s`` without the
    file existing/growing, or once ``max_events`` events were yielded;
    runs forever when both are ``None`` (caller interrupts).
    """
    import glob as _glob

    yielded = 0
    offsets: Dict[str, int] = {}
    buffers: Dict[str, str] = {}
    last_progress = time.monotonic()

    def _drain(file_path: str) -> Iterator[Dict[str, Any]]:
        try:
            size = os.path.getsize(file_path)
        except OSError:
            return
        offset = offsets.get(file_path, 0)
        if size <= offset:
            if size < offset:  # merged/rewritten: start over
                offsets[file_path] = 0
                buffers[file_path] = ""
            return
        with open(file_path, "r", encoding="utf-8") as handle:
            handle.seek(offset)
            chunk = handle.read()
            offsets[file_path] = handle.tell()
        pending = buffers.get(file_path, "") + chunk
        lines = pending.split("\n")
        buffers[file_path] = lines.pop()  # tail without newline: hold back
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                yield event

    while True:
        progressed = False
        for file_path in [path] + sorted(_glob.glob(_glob.escape(path) + ".shard-*")):
            for event in _drain(file_path):
                progressed = True
                yielded += 1
                yield event
                if max_events is not None and yielded >= max_events:
                    return
        now = time.monotonic()
        if progressed:
            last_progress = now
        elif timeout_s is not None and now - last_progress >= timeout_s:
            return
        time.sleep(poll_s)


def render_tail_event(event: Dict[str, Any]) -> Optional[str]:
    """One-line rendering of a followed event (None = not shown)."""
    kind = event.get("ev")
    pid = event.get("pid", "?")
    if kind == "span":
        tags = _fmt_tags(event.get("tags") or {}, limit=60)
        return (
            f"[{pid}] span  {event.get('name', '?'):<26} "
            f"{1000.0 * float(event.get('dur', 0.0)):>9.2f} ms  {tags}"
        )
    if kind in ("warning", "note"):
        return (
            f"[{pid}] {kind:<5} {event.get('kind', '?')}: "
            f"{event.get('message', '')} "
            f"{_fmt_tags(event.get('data') or {}, limit=60)}"
        )
    if kind == "rss":
        return (
            f"[{pid}] rss   {event.get('rss_mb', 0.0):.1f} MB "
            f"(peak {event.get('peak_mb', 0.0):.1f} MB)"
        )
    if kind == "meta":
        tags = _fmt_tags(event.get("tags") or {}, limit=60)
        return f"[{pid}] meta  schema={event.get('schema')} {tags}"
    return None  # counters snapshots are too chatty for a live tail
