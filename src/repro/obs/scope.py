"""The run scope: where one command's counts, timings and trace go.

``with obs.run(trace=None, **tags) as scope:`` is the only code that
installs a registry or a tracer for a run.  ``repro run`` (once per
experiment), ``repro traffic``, ``repro sweep``, ``repro build --fast``
and ``repro serve`` each open one, and every time they print or write
comes from the spans it collected (:meth:`RunScope.phases`).  Pool
workers' counts and timings are included: each task ships its registry
home with its result (:func:`repro.metrics.engine.map_with_pool_recovery`).
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace


class RunScope:
    """What one :func:`run` block recorded: its registry and trace path."""

    def __init__(self, registry: _metrics.MetricsRegistry, trace: Optional[str]) -> None:
        self.registry = registry
        self.trace = trace

    def phases(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (count, seconds) of every span that closed.

        Sums each ``<span>_seconds`` histogram over its labels; a span
        that never closed has no entry.
        """
        totals: Dict[str, Tuple[int, float]] = {}
        for entry in self.registry.snapshot()["histograms"]:
            name = entry["name"]
            if name.endswith("_seconds"):
                span = name[: -len("_seconds")]
                count, seconds = totals.get(span, (0, 0.0))
                totals[span] = (count + entry["count"], seconds + entry["sum"])
        return totals


@contextlib.contextmanager
def run(trace: Optional[str] = None, **tags: Any) -> Iterator[RunScope]:
    """Record one run under a fresh registry and, given a path, a trace.

    The registry goes in before the tracer, because a tracer reports the
    counts of the registry active when it opens.  ``tags`` become the
    trace's ``meta`` tags.  On any exit the tracer closes (worker shards
    merge, so a failed run's trace still reports) and the registry's
    snapshot folds into the caller's registry.
    """
    registry = _metrics.MetricsRegistry()
    outer = _metrics.set_registry(registry)
    try:
        tracer = _trace.Tracer(trace, run_tags=tags) if trace else None
        previous = _trace.set_tracer(tracer) if tracer is not None else None
        try:
            yield RunScope(registry, trace or None)
        finally:
            if tracer is not None:
                _trace.set_tracer(previous)
                tracer.close()
    finally:
        _metrics.set_registry(outer)
        outer.merge(registry.snapshot())
