"""The worker boundary: ``fn(graph, task)`` over tasks in a process pool.

:func:`map_graph` is the one place a worker pool starts.  The distance
sweep (:mod:`repro.metrics.engine`), ``run_traffic``
(:mod:`repro.traffic.run`) and ``degradation_sweep``
(:mod:`repro.faults.sweep`) each hand it a module-level task function,
their graph and their task list:

* the graph is exported once (:func:`repro.topology.shm.export_graph`)
  and every worker attaches it zero-copy in the pool initializer, so
  pool spin-up is O(graph), not O(workers x graph);
* each task runs under a fresh metrics registry and, when the parent
  traces, the worker's in-memory tracer; the task's result, registry
  snapshot and trace lines come home together, and the parent merges
  the snapshot into its registry and appends the lines to its trace;
* a task that raises does not throw away the others, and a broken pool
  is retried once, then the tasks still without a result run here,
  loudly (:class:`DegradedModeWarning`).

Worker-count resolution (:func:`resolve_workers`): an explicit int
wins; 0 or a negative value means "all cores"; ``None`` falls back to
the ``REPRO_WORKERS`` environment variable (invalid values warn and
fall back), then the module default set by :func:`set_default_workers`
(the experiment runner's ``--workers`` flag sets that default for a
run).
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.obs import metrics as _metrics
from repro.obs import trace as _obs

#: seconds to back off before the single pool-recovery retry.
POOL_RETRY_BACKOFF_S = 0.25

#: exception classes that mean "the worker pool is unusable", not "the
#: computation is wrong": a crashed/OOM-killed worker, an unpicklable
#: payload, or a platform without fork/semaphores.  AttributeError and
#: TypeError are what CPython's pickle actually raises for local
#: functions and unpicklable objects (not PicklingError); catching them
#: here is safe because the sequential fallback re-runs the computation
#: and reproduces any genuine error in the task function itself.
POOL_FAILURES = (
    BrokenProcessPool,
    OSError,
    PermissionError,
    pickle.PicklingError,
    AttributeError,
    TypeError,
)

_DEFAULT_WORKERS = 1

#: the graph a pool worker's tasks run on, attached once per worker.
_GRAPH: Any = None


class DegradedModeWarning(UserWarning):
    """A parallel stage lost its worker pool and ran sequentially.

    Structured: carries the stage ``context``, the requested ``workers``
    and the final ``error`` so harnesses and tests can filter on them
    rather than parse the message.
    """

    def __init__(self, context: str, workers: int, error: BaseException) -> None:
        self.context = context
        self.workers = workers
        self.error = error
        super().__init__(
            f"{context}: worker pool (workers={workers}) failed twice "
            f"({type(error).__name__}: {error}); degraded to sequential "
            f"execution — results are complete but slower"
        )


def _init_worker(handle, traced: bool) -> None:
    """Pool initializer: install this worker's tracer, attach the graph.

    The tracer goes in first, so a fork-started worker never touches the
    tracer (its lock, its open file) it inherited from the parent.
    """
    global _GRAPH
    _obs.set_tracer(_obs.Tracer(None) if traced else _obs.NULL_TRACER)
    _GRAPH = handle.materialize()


def _run_task(fn: Callable, task) -> Tuple[Any, Dict[str, Any], str]:
    """One task in a worker: ``(result, registry snapshot, trace lines)``.

    The lines end with one ``rss`` sample.  A task that raises carries
    its lines home on the exception (``trace_lines``), so its spans
    still reach the trace; its counts do not, because a retry or the
    fallback may run it again.
    """
    tracer = _obs.get_tracer()
    registry = _metrics.MetricsRegistry()
    previous = _metrics.set_registry(registry)
    try:
        result = fn(_GRAPH, task)
    except Exception as error:
        error.trace_lines = tracer.drain()
        raise
    finally:
        _metrics.set_registry(previous)
    tracer.sample_memory()
    return result, registry.snapshot(), tracer.drain()


def map_graph(
    fn: Callable[[Any, Any], Any],
    graph,
    tasks: Sequence,
    *,
    workers: int,
    context: str,
) -> Iterator[Tuple[int, Any]]:
    """``fn(graph, task)`` for every task, yielding ``(index, result)``
    as each task completes; callers put results back in task order.

    ``workers <= 1`` runs every task here, in order: no export, no pool.
    Otherwise the graph is exported once and the tasks run in a pool of
    ``workers`` processes, inside one ``pool`` span whose
    ``pool.handoff`` child times the export.  ``fn`` must pickle (a
    module-level function or a :func:`functools.partial` of one).

    Every result that completes is handed over, and a task that raises
    does not throw away the others: the error propagates after them.  A
    crashed pool (``BrokenProcessPool``), a pickling failure or a
    missing-fork platform is retried once after
    :data:`POOL_RETRY_BACKOFF_S`, and if it fails again the tasks still
    without a result run through ``fn(graph, task)`` here, with a
    :class:`DegradedModeWarning`.  A kept result is never recomputed,
    so no task is counted twice.
    """
    if workers <= 1:
        for index, task in enumerate(tasks):
            yield index, fn(graph, task)
        return
    from repro.topology.shm import export_graph

    remaining = dict(enumerate(tasks))
    registry = _metrics.get_registry()
    tracer = _obs.get_tracer()
    last_error: Optional[BaseException] = None
    with _obs.span("pool", context=context, workers=workers, tasks=len(tasks)) as pool_span:
        with _obs.span("pool.handoff", workers=workers):
            handle = export_graph(graph)
        try:
            for attempt in (1, 2):
                try:
                    failed: Optional[BaseException] = None
                    with ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=_init_worker,
                        initargs=(handle, tracer.enabled),
                    ) as pool:
                        futures = {
                            pool.submit(_run_task, fn, task): index
                            for index, task in remaining.items()
                        }
                        for future in as_completed(futures):
                            try:
                                result, snapshot, lines = future.result()
                            except Exception as error:
                                tracer.write_lines(getattr(error, "trace_lines", ""))
                                failed = failed or error
                                continue
                            registry.merge(snapshot)
                            tracer.write_lines(lines)
                            del remaining[futures[future]]
                            yield futures[future], result
                    if failed is not None:
                        raise failed
                    pool_span.tag(attempts=attempt)
                    return
                except POOL_FAILURES as error:
                    last_error = error
                    if attempt == 1:
                        _obs.event(
                            "pool-retry",
                            f"{context}: worker pool failed, retrying once",
                            context=context,
                            workers=workers,
                            error=f"{type(error).__name__}: {error}",
                        )
                        _obs.counter("pool.retries")
                        time.sleep(POOL_RETRY_BACKOFF_S)
            assert last_error is not None
            _obs.event(
                "degraded-mode",
                f"{context}: worker pool failed twice; degraded to sequential",
                context=context,
                workers=workers,
                error=f"{type(last_error).__name__}: {last_error}",
            )
            _obs.counter("pool.degraded")
            pool_span.tag(degraded=True)
            warnings.warn(
                DegradedModeWarning(context, workers, last_error), stacklevel=2
            )
            for index, task in list(remaining.items()):
                yield index, fn(graph, task)
        finally:
            handle.release()


def set_default_workers(workers: int) -> int:
    """Set the module-default worker count; returns the previous value."""
    global _DEFAULT_WORKERS
    previous = _DEFAULT_WORKERS
    _DEFAULT_WORKERS = int(workers)
    return previous


def get_default_workers() -> int:
    return _DEFAULT_WORKERS


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve an effective worker count (see module docstring)."""
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                warnings.warn(
                    f"ignoring invalid REPRO_WORKERS={env!r} (not an integer); "
                    f"using the module default ({_DEFAULT_WORKERS})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                workers = _DEFAULT_WORKERS
        else:
            workers = _DEFAULT_WORKERS
    workers = int(workers)
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers
