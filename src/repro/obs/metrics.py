"""Process-local live metrics: counters, gauges, latency histograms.

The one store of counts and timings in the package, and the registry
behind ``GET /metrics`` on the serve daemon.  Where a file-backed
:mod:`repro.obs.trace` tracer is a flight recorder (post-hoc spans on
disk), this module is the *live* half of observability: always-on
in-memory aggregates cheap enough to update on every request,
snapshotted on demand, and rendered in Prometheus text exposition
format for scrapes.  Every closed span observes its duration into the
histogram ``<span name>_seconds``; ``repro.obs.counter`` bumps the
unlabeled counter of the active registry, and a tracer's ``counters``
event reports what the registry counted while it was open.

Three metric kinds, all label-aware:

* :class:`Counter` — monotonically increasing float (requests served,
  cache hits);
* :class:`Gauge` — last-written value (queue depth, worker age);
* :class:`Histogram` — log-linear latency buckets: every power of two
  between :data:`HIST_MIN` and :data:`HIST_MAX` seconds is split into
  :data:`HIST_LINEAR` equal-width sub-buckets, so relative bucket error
  is bounded (~12% with the default 4) across six orders of magnitude
  while the whole histogram stays ~120 integers.  Quantiles
  (:meth:`Histogram.quantile`) are *exact-bucket*: the reported value
  is the upper bound of the bucket the quantile falls in — never an
  interpolated guess — and observations above the last bound report
  the exact observed maximum.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON dicts and
**mergeable**: :meth:`MetricsRegistry.merge` folds one into a registry,
and :func:`merge_snapshots` (a fold over it) is associative and
commutative over counters and histograms (element-wise sums).  That is
what lets worker processes ship their snapshots home — serve workers
over their reply pipes, pool workers with each task's result — and the
parent fold them into one view.

Overhead: one ``observe()`` is a ``bisect`` over ~120 floats plus two
dict updates under a per-metric lock (sub-microsecond); handle lookup
(``registry.counter(name, **labels)``) costs one dict probe and can be
hoisted out of hot loops.  Nothing here ever touches disk.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: snapshot schema version (bump on incompatible changes).
SNAPSHOT_SCHEMA = 1

#: histogram range: first bucket upper bound and last finite bound (s).
HIST_MIN = 1e-6
HIST_MAX = 128.0

#: linear sub-buckets per power of two.
HIST_LINEAR = 4

#: quantiles surfaced by snapshots and ``/stats``.
QUANTILES = (0.5, 0.9, 0.99, 0.999)


def _log_linear_bounds(
    lo: float = HIST_MIN, hi: float = HIST_MAX, linear: int = HIST_LINEAR
) -> Tuple[float, ...]:
    """Upper bucket bounds: ``linear`` equal steps per power of two."""
    bounds: List[float] = []
    exp = math.floor(math.log2(lo))
    base = 2.0 ** exp
    while base < hi:
        step = base / linear
        for i in range(1, linear + 1):
            bound = base + i * step
            if bound >= lo:
                bounds.append(bound)
        base *= 2.0
    # dedupe (the seam between octaves repeats the octave top) and cap.
    out: List[float] = []
    for bound in bounds:
        if not out or bound > out[-1]:
            out.append(bound)
        if bound >= hi:
            break
    return tuple(out)


#: shared bucket bounds of every histogram (same scheme == mergeable).
BUCKET_BOUNDS: Tuple[float, ...] = _log_linear_bounds()

#: index of the overflow (+Inf) bucket.
OVERFLOW_BUCKET = len(BUCKET_BOUNDS)

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic labeled counter."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins labeled gauge."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Log-linear-bucket histogram with exact-bucket quantiles.

    Bucket ``i`` counts observations ``v`` with
    ``BUCKET_BOUNDS[i-1] < v <= BUCKET_BOUNDS[i]``; values at or below
    the first bound (including zero and negatives) land in bucket 0,
    values above the last bound in the overflow bucket.  Counts are
    kept sparse — an idle histogram is two numbers and an empty dict.
    """

    __slots__ = ("_lock", "buckets", "count", "sum", "max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(BUCKET_BOUNDS, value)
        with self._lock:
            self.buckets[index] = self.buckets.get(index, 0) + 1
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Bulk observe: one bucket pass for a whole array of values.

        The traffic engine records 10^5-flow rate distributions per
        trial; per-value ``observe`` calls would dominate the trial.
        From 32 values up this is a vectorized ``searchsorted`` +
        ``bincount`` (identical bucketing to ``bisect_left``); shorter
        inputs loop.
        """
        if len(values) < 32:
            for value in values:
                self.observe(value)
            return
        import numpy as np

        arr = np.asarray(values, dtype=np.float64)
        indices = np.searchsorted(BUCKET_BOUNDS, arr, side="left")
        counts = np.bincount(indices, minlength=OVERFLOW_BUCKET + 1)
        total = float(arr.sum())
        peak = float(arr.max()) if arr.size else 0.0
        with self._lock:
            for index in np.flatnonzero(counts):
                self.buckets[int(index)] = self.buckets.get(int(index), 0) + int(
                    counts[index]
                )
            self.count += int(arr.size)
            self.sum += total
            if peak > self.max:
                self.max = peak

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket the ``q``-quantile falls in.

        ``None`` on an empty histogram.  For quantiles landing in the
        overflow bucket the observed maximum is returned (the bucket
        has no finite upper bound).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return None
            target = q * self.count
            cumulative = 0
            for index in sorted(self.buckets):
                cumulative += self.buckets[index]
                if cumulative >= target:
                    if index >= OVERFLOW_BUCKET:
                        return self.max
                    return BUCKET_BOUNDS[index]
            return self.max  # pragma: no cover - cumulative == count above


class MetricsRegistry:
    """Named, labeled metrics of one process (or one service).

    ``counter``/``gauge``/``histogram`` get-or-create the instance for
    ``(name, labels)``; handles are stable, so hot paths can hoist the
    lookup.  One registry is process-global (:func:`get_registry`) —
    worker processes each get their own and ship snapshots to the
    parent for merging.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}

    def _get(self, table: Dict, factory, name: str, labels: Mapping[str, Any]):
        key = (name, _labels_key(labels) if labels else ())
        metric = table.get(key)
        if metric is None:
            with self._lock:
                metric = table.get(key)
                if metric is None:
                    metric = table[key] = factory()
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    def snapshot(self) -> Dict[str, Any]:
        """The registry's state as a mergeable, JSON-serialisable dict."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        snap: Dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA,
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        for (name, labels), counter in sorted(counters):
            snap["counters"].append(
                {"name": name, "labels": dict(labels), "value": counter.value}
            )
        for (name, labels), gauge in sorted(gauges):
            snap["gauges"].append(
                {"name": name, "labels": dict(labels), "value": gauge.value}
            )
        for (name, labels), hist in sorted(histograms):
            with hist._lock:
                entry = {
                    "name": name,
                    "labels": dict(labels),
                    "count": hist.count,
                    "sum": round(hist.sum, 9),
                    "max": round(hist.max, 9),
                    "buckets": {str(i): c for i, c in sorted(hist.buckets.items())},
                }
            entry["q"] = _bucket_quantiles(entry)
            snap["histograms"].append(entry)
        return snap

    def merge(self, snapshot: Optional[Mapping[str, Any]]) -> None:
        """Fold a snapshot in: counters and histograms add, gauges overwrite.

        How worker processes' counts come home: each ships a snapshot
        and the parent merges it.  ``None`` is a no-op.
        """
        if not snapshot:
            return
        for entry in snapshot.get("counters", ()):
            labels = entry.get("labels") or {}
            self.counter(entry["name"], **labels).inc(entry.get("value", 0.0))
        for entry in snapshot.get("gauges", ()):
            labels = entry.get("labels") or {}
            self.gauge(entry["name"], **labels).set(entry.get("value", 0.0))
        for entry in snapshot.get("histograms", ()):
            hist = self.histogram(entry["name"], **(entry.get("labels") or {}))
            with hist._lock:
                hist.count += int(entry.get("count", 0))
                hist.sum = round(hist.sum + float(entry.get("sum", 0.0)), 9)
                hist.max = max(hist.max, float(entry.get("max", 0.0)))
                for index, bucket_count in (entry.get("buckets") or {}).items():
                    index = int(index)
                    hist.buckets[index] = hist.buckets.get(index, 0) + int(bucket_count)

    def counter_values(self) -> Dict[str, float]:
        """Every counter's value, keyed ``name`` or ``name{k=v,...}``."""
        with self._lock:
            counters = list(self._counters.items())
        values: Dict[str, float] = {}
        for (name, labels), counter in counters:
            if labels:
                name += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            values[name] = counter.value
        return values

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# snapshot algebra
# ----------------------------------------------------------------------
def _bucket_quantiles(entry: Mapping[str, Any]) -> Dict[str, Optional[float]]:
    """Exact-bucket p50/p90/p99/p999 of one snapshot histogram entry."""
    count = int(entry.get("count", 0))
    out: Dict[str, Optional[float]] = {}
    buckets = sorted((int(i), int(c)) for i, c in (entry.get("buckets") or {}).items())
    for q in QUANTILES:
        label = "p" + format(q, "g").replace("0.", "").ljust(2, "0")
        if count == 0:
            out[label] = None
            continue
        target = q * count
        cumulative = 0
        value: Optional[float] = None
        for index, bucket_count in buckets:
            cumulative += bucket_count
            if cumulative >= target:
                value = (
                    float(entry.get("max", 0.0))
                    if index >= OVERFLOW_BUCKET
                    else BUCKET_BOUNDS[index]
                )
                break
        out[label] = value if value is not None else float(entry.get("max", 0.0))
    return out


def merge_snapshots(*snapshots: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold snapshots into one: counters/histograms sum, gauges last-wins.

    A fold of :meth:`MetricsRegistry.merge` over a fresh registry, so
    there is one merge rule.  Associative and commutative for counters
    and histograms (sums); gauges take the value of the *last* snapshot
    that carries the series, which is associative (last-wins composes).
    ``None`` arguments are skipped, so callers can pass optional worker
    snapshots unguarded.
    """
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge(snap)
    return registry.snapshot()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
#: metric-name sanitiser (dots and dashes become underscores).
_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: one well-formed sample line (name, optional labels, numeric value);
#: label values may contain backslash-escaped quotes and backslashes.
_LABEL_VALUE = r"\"(?:[^\"\\\n]|\\.)*\""
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=" + _LABEL_VALUE
    + r"(,[a-zA-Z_][a-zA-Z0-9_]*=" + _LABEL_VALUE + r")*\})?"
    r" (-?[0-9.eE+-]+|\+Inf|NaN)$"
)


def metric_name(name: str, prefix: str = "repro_") -> str:
    """Exposition-safe metric name for a dotted registry name."""
    return prefix + _NAME_RE.sub("_", name)


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _label_str(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        _NAME_RE.sub("_", k) + '="' + _escape_label(v) + '"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    value = float(value)
    if value == math.inf:
        return "+Inf"
    return format(value, ".10g")


def render_prometheus(snapshot: Mapping[str, Any], prefix: str = "repro_") -> str:
    """One snapshot in Prometheus text exposition format (version 0.0.4).

    Counters get the ``_total`` suffix; histograms expand into
    cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
    Output is deterministic (sorted by name then labels).
    """
    lines: List[str] = []
    seen_type: set = set()

    def _head(name: str, kind: str) -> None:
        if name not in seen_type:
            seen_type.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        name = metric_name(entry["name"], prefix) + "_total"
        _head(name, "counter")
        lines.append(f"{name}{_label_str(entry.get('labels') or {})} {_fmt(entry['value'])}")
    for entry in snapshot.get("gauges", ()):
        name = metric_name(entry["name"], prefix)
        _head(name, "gauge")
        lines.append(f"{name}{_label_str(entry.get('labels') or {})} {_fmt(entry['value'])}")
    for entry in snapshot.get("histograms", ()):
        name = metric_name(entry["name"], prefix)
        _head(name, "histogram")
        labels = entry.get("labels") or {}
        cumulative = 0
        for index, bucket_count in sorted(
            ((int(i), int(c)) for i, c in (entry.get("buckets") or {}).items())
        ):
            if index >= OVERFLOW_BUCKET:
                continue  # covered by the unconditional +Inf line below
            cumulative += bucket_count
            le = 'le="' + _fmt(BUCKET_BOUNDS[index]) + '"'
            lines.append(f"{name}_bucket{_label_str(labels, le)} {cumulative}")
        inf_le = 'le="+Inf"'
        lines.append(
            f"{name}_bucket{_label_str(labels, inf_le)} {int(entry.get('count', 0))}"
        )
        lines.append(f"{name}_sum{_label_str(labels)} {_fmt(entry.get('sum', 0.0))}")
        lines.append(f"{name}_count{_label_str(labels)} {int(entry.get('count', 0))}")
    return "\n".join(lines) + "\n"


def exposition_problems(text: str) -> List[str]:
    """Well-formedness problems of an exposition document (empty = OK).

    Checks every non-comment line against the sample grammar and, per
    histogram, that bucket counts are cumulative (non-decreasing in
    ``le``) and that the ``+Inf`` bucket equals ``_count``.  Used by
    the CI serve-smoke scrape and the metrics tests.
    """
    problems: List[str] = []
    bucket_last: Dict[str, Tuple[float, int]] = {}
    inf_buckets: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            problems.append(f"line {lineno}: blank line inside exposition")
            continue
        if line.startswith("#"):
            if not re.match(r"^# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* ", line):
                problems.append(f"line {lineno}: malformed comment {line!r}")
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name_and_labels, _, value = line.rpartition(" ")
        if "_bucket{" in name_and_labels:
            le_match = re.search(r'le="([^"]+)"', name_and_labels)
            series = re.sub(r',?le="[^"]+"', "", name_and_labels)
            if le_match is None:
                problems.append(f"line {lineno}: bucket sample without le label")
                continue
            bound = math.inf if le_match.group(1) == "+Inf" else float(le_match.group(1))
            count = int(value)
            if bound == math.inf:
                inf_buckets[series] = count
            previous = bucket_last.get(series)
            if previous is not None:
                last_bound, last_count = previous
                if bound <= last_bound:
                    problems.append(f"line {lineno}: bucket bounds not increasing")
                if count < last_count:
                    problems.append(f"line {lineno}: bucket counts not cumulative")
            bucket_last[series] = (bound, count)
        elif re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*_count", name_and_labels):
            series = name_and_labels.replace("_count", "_bucket", 1)
            counts[series] = int(value)
    for series, total in counts.items():
        if series in inf_buckets and inf_buckets[series] != total:
            problems.append(
                f"{series}: +Inf bucket {inf_buckets[series]} != count {total}"
            )
    return problems


# ----------------------------------------------------------------------
# the process-global registry
# ----------------------------------------------------------------------
_ACTIVE = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide live registry (always on, never touches disk)."""
    return _ACTIVE


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as the process registry; returns the old one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return previous
