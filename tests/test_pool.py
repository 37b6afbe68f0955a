"""The worker boundary: each pooled task brings its result, counts and
spans home together, through a crash, a held lock or a broken pool."""

import multiprocessing
import os
import signal
import threading

import pytest

from repro import obs, pool
from repro.core import AbcccSpec
from repro.metrics.engine import sweep_distance_stats
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.report import load_trace, summarize, validate_trace
from repro.topology.fastbuild import fast_compiled
from repro.traffic import COLUMNS, run_traffic, run_trial

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="needs pool workers that fork",
)


@pytest.fixture(scope="module")
def graph():
    return fast_compiled(AbcccSpec(3, 2, 2))


class AlwaysBroken:
    def __init__(self, *args, **kwargs):
        raise OSError("no fork for you")


def _rows_without_time(table):
    return [{c: row[c] for c in COLUMNS if c != "elapsed_s"} for row in table.rows]


def _span_names(events, name):
    return [e for e in events if e["ev"] == "span" and e["name"] == name]


@FORK_ONLY
def test_sigkilled_worker_costs_only_its_tasks(graph, tmp_path, monkeypatch, recwarn):
    from repro.traffic import run as run_module

    want = run_traffic(graph, "t", "permutation", trials=8, seed=2, workers=1)
    monkeypatch.setitem(_KILL_MARKER, "path", str(tmp_path / "killed"))
    monkeypatch.setattr(run_module, "run_trial", _kill_worker_on_trial_5)
    monkeypatch.setattr(pool, "POOL_RETRY_BACKOFF_S", 0.0)
    path = str(tmp_path / "t.jsonl")
    with obs.run(path) as scope:
        got = run_traffic(graph, "t", "permutation", trials=8, seed=2, workers=2)
    assert os.path.exists(_KILL_MARKER["path"]), "trial 5 never killed its worker"
    assert _rows_without_time(got) == _rows_without_time(want)
    counters = scope.registry.counter_values()
    assert counters["traffic.trials"] == 8
    assert counters["pool.retries"] == 1
    assert not [w for w in recwarn.list if w.category is pool.DegradedModeWarning]
    events = load_trace(path)
    assert validate_trace(events) == []
    assert [e["kind"] for e in events if e["ev"] == "warning"] == ["pool-retry"]
    assert len(_span_names(events, "traffic.trial")) == 8


@FORK_ONLY
def test_pool_finishes_when_workers_fork_with_the_tracer_lock_held(
    graph, tmp_path, monkeypatch
):
    class LockedFirstSubmit(pool.ProcessPoolExecutor):
        """Forks the workers while the tracer lock is held, as the
        memory sampler holds it for every ``rss`` write."""

        locked = True

        def submit(self, *args, **kwargs):
            if not LockedFirstSubmit.locked:
                return super().submit(*args, **kwargs)
            LockedFirstSubmit.locked = False
            with obs.get_tracer()._lock:
                return super().submit(*args, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", LockedFirstSubmit)
    path = str(tmp_path / "t.jsonl")
    outcome = {}

    def body():
        with obs.run(path):
            outcome["results"] = dict(
                pool.map_graph(_spanned, graph, range(4), workers=2, context="lock")
            )

    runner = threading.Thread(target=body, daemon=True)
    runner.start()
    runner.join(timeout=15)
    hung = runner.is_alive()
    if hung:  # fail rather than hang: kill the stuck workers
        for child in multiprocessing.active_children():
            os.kill(child.pid, signal.SIGKILL)
        runner.join(timeout=30)
    assert not hung, "a worker forked with the tracer lock held never finished"
    assert outcome["results"] == {0: 0, 1: 1, 2: 2, 3: 3}
    assert len(_span_names(load_trace(path), "task")) == 4


def test_every_worker_reports_its_memory(graph, tmp_path):
    path = str(tmp_path / "t.jsonl")
    with obs.run(path):
        run_traffic(graph, "t", "permutation", trials=8, workers=2)
    summary = summarize(load_trace(path))
    assert summary.worker_pids
    assert set(summary.worker_pids) <= set(summary.rss_by_pid)


def test_sweep_counts_the_same_in_process_pooled_and_degraded(monkeypatch):
    net = AbcccSpec(3, 1, 2).build()

    def counted(workers):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            stats = sweep_distance_stats(net, sample_sources=16, seed=0, workers=workers)
        finally:
            set_registry(previous)
        counts = registry.counter_values()
        return stats.histogram, counts["engine.sources"], counts["engine.batches"]

    in_process = counted(1)
    pooled = counted(2)
    monkeypatch.setattr(pool, "ProcessPoolExecutor", AlwaysBroken)
    monkeypatch.setattr(pool, "POOL_RETRY_BACKOFF_S", 0.0)
    with pytest.warns(pool.DegradedModeWarning):
        degraded = counted(2)
    assert in_process[:2] == pooled[:2] == degraded[:2]
    assert in_process[1] == 16
    # in-process sweeps run their sources as one batch
    assert (in_process[2], pooled[2], degraded[2]) == (1, 8, 8)


def test_a_raising_task_keeps_its_spans(graph, tmp_path):
    path = str(tmp_path / "t.jsonl")
    with obs.run(path):
        with pytest.raises(RuntimeError, match="task 3"):
            dict(
                pool.map_graph(
                    _spanned_raising_on_3, graph, range(6), workers=2, context="raise"
                )
            )
    spans = _span_names(load_trace(path), "task")
    assert sorted(s["tags"]["task"] for s in spans) == list(range(6))


#: the marker file that makes :func:`_kill_worker_on_trial_5` kill once.
_KILL_MARKER: dict = {}


def _kill_worker_on_trial_5(graph, spec):
    marker = _KILL_MARKER["path"]
    if spec.trial == 5 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return run_trial(graph, spec)


def _spanned(graph, task):
    with obs.span("task", task=task):
        return task


def _spanned_raising_on_3(graph, task):
    with obs.span("task", task=task):
        if task == 3:
            raise RuntimeError("task 3 failed")
        return task
