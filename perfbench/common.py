"""Shared plumbing: statistics, the span recorder and the run outcome.

Spans are recorded in memory by the benchmark's own code, around its
calls into each layer, and written once at the end of a traced run as a
``repro.obs`` schema-v1 JSONL trace (``meta`` + ``span`` + ``counters``
events), which ``repro obs report`` reads.  Untraced runs use
:data:`NULL_RECORDER`, whose ``span()`` is a shared no-op.
"""

import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: repro.obs trace schema version the recorder writes.
TRACE_SCHEMA = 1


def derive_seed(seed: int, *labels: object) -> int:
    """A 63-bit seed from ``seed`` and a label path (stable across runs)."""
    text = ":".join(str(part) for part in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def digest(value: object) -> int:
    """A 48-bit fingerprint of ``repr(value)``, for exact-repeat checks."""
    return int(hashlib.sha256(repr(value).encode()).hexdigest()[:12], 16)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(max(math.ceil(q * len(ordered)) - 1, 0), len(ordered) - 1)
    return float(ordered[rank])


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    den = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / den


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("rec", "name", "tags", "sid", "parent", "t0")

    def __init__(self, rec: "SpanRecorder", name: str, tags: Dict[str, Any]) -> None:
        self.rec = rec
        self.name = name
        self.tags = tags

    def __enter__(self):
        stack = self.rec._stack()
        self.sid = next(self.rec._sids)
        self.parent = stack[-1] if stack else None
        stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        dur = time.perf_counter() - self.t0
        rec = self.rec
        rec._stack().pop()
        rec.spans.append(
            {
                "t": self.t0,
                "dur": dur,
                "name": self.name,
                "sid": self.sid,
                "parent": self.parent,
                "tags": self.tags,
            }
        )
        return None


class SpanRecorder:
    """Nested spans kept in memory; :meth:`write` emits a repro.obs trace.

    Safe to share between client threads: each thread nests on its own
    stack, span ids come from one atomic counter and finished spans are
    appended to one list.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.notes: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._sids = itertools.count(1)

    def note(self, kind: str, message: str, **data: Any) -> None:
        """A ``note`` event (``repro obs report`` lists them)."""
        self.notes.append(
            {"ev": "note", "t": time.perf_counter(), "kind": kind, "message": message, "data": data}
        )

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags: Any):
        return _Span(self, name, tags)

    def layer_ms(self, op_name: str, layers) -> List[Dict[str, float]]:
        """Per recorded ``op_name`` span: total ms of each direct child
        layer, plus ``"op"`` (the op span) and ``"uncovered"`` (op minus
        the children)."""
        children: Dict[int, Dict[str, float]] = {}
        for span in self.spans:
            if span["parent"] is not None and span["name"] in layers:
                slot = children.setdefault(span["parent"], {})
                slot[span["name"]] = slot.get(span["name"], 0.0) + 1000.0 * span["dur"]
        rows = []
        for span in self.spans:
            if span["name"] != op_name:
                continue
            row = {name: 0.0 for name in layers}
            row.update(children.get(span["sid"], {}))
            row["op"] = 1000.0 * span["dur"]
            row["uncovered"] = row["op"] - sum(row[name] for name in layers)
            rows.append(row)
        return rows

    def write(self, path: str, run_tags: Dict[str, Any], counters: Dict[str, float]) -> None:
        pid = os.getpid()
        spans = sorted(self.spans, key=lambda s: s["t"])
        first = spans[0]["t"] if spans else time.perf_counter()
        events = [{"ev": "meta", "t": first, "schema": TRACE_SCHEMA, "tags": run_tags}]
        events.extend(dict(span, ev="span") for span in spans)
        events.extend(self.notes)
        events.append({"ev": "counters", "t": time.perf_counter(), "values": counters})
        with open(path, "w", encoding="utf-8") as handle:
            for seq, event in enumerate(events):
                event["pid"] = pid
                event["seq"] = seq
                handle.write(json.dumps(event) + "\n")


class NullRecorder:
    """Tracing off: ``span()`` returns a shared no-op context manager."""

    enabled = False

    def span(self, name: str, **tags: Any):
        return _NULL_SPAN


NULL_RECORDER = NullRecorder()


@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics.

    ``counters`` are exact counts that must repeat for the same seed;
    ``layers`` are the per-layer metrics of a traced run (name ->
    (value, unit)); ``problems`` are failed output checks.
    """

    setup_s: List[float] = field(default_factory=list)
    op_ms: List[float] = field(default_factory=list)
    units: float = 0.0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, tuple] = field(default_factory=dict)
    peak_rss_mb: Optional[float] = None

    def check(self, ok: bool, message: str) -> bool:
        """Count one output check; record ``message`` when it fails."""
        self.checks += 1
        if not ok:
            self.problems.append(message)
        return ok

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
