"""Experiment harness: registry, runner, CSV output.

Every module in :mod:`repro.experiments` defines one paper artefact
(table or figure) as an :class:`Experiment`: an id (``T1``, ``F5``…), a
title, the qualitative *expectation* the paper's abstract/claims imply,
and a ``run(quick)`` callable returning :class:`ResultTable` objects.

``quick=True`` shrinks instance sizes/samples so the same code path runs
inside pytest-benchmark targets; full runs regenerate the numbers recorded
in EXPERIMENTS.md.

Robustness: when an output directory is set, each run opens a trial
journal at ``<out_dir>/<exp_id>.journal.jsonl`` and installs it as the
active journal for the fault sweeps (:mod:`repro.faults`) — every
completed failure trial is flushed to disk, so a killed run (crash,
SIGKILL, :class:`ExperimentTimeout`) can be re-run with ``resume=True``
and only the missing trials are recomputed.  The journal is deleted on
success; one on disk always means an interrupted run.  ``timeout``
bounds an experiment's wall clock via ``SIGALRM`` (POSIX main thread
only; a no-op elsewhere).

Observability: every experiment runs under a fresh
:class:`~repro.obs.metrics.MetricsRegistry`, folded into the caller's
registry when it ends.  Its spans time into that registry, pool
workers' included, and ``runtimes.csv`` reads its phase cells from
there.  A JSONL trace is streamed only when ``trace=`` / ``--trace`` /
``REPRO_TRACE`` opt in (summarise with ``repro obs report``).  Progress messages go to stderr through the ``repro``
logger, with a periodic heartbeat on long runs; result tables stay on
stdout.
"""

from __future__ import annotations

import csv
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro import obs
from repro.sim.results import ResultTable

#: per-run timing log written next to the experiment CSVs; one row per
#: (experiment, quick, workers) key — re-runs replace their row, so the
#: file is a table of current timings, not an append-only history.
RUNTIMES_FILENAME = "runtimes.csv"

#: runtimes.csv schema: identity key, wall clock, per-phase attribution
#: (span totals from the run's registry) and the process peak RSS.
RUNTIMES_COLUMNS = (
    "experiment",
    "quick",
    "workers",
    "wall_time_s",
    "compile_s",
    "sweep_s",
    "handoff_s",
    "plan_s",
    "mask_s",
    "trials_s",
    "journal_s",
    "peak_rss_mb",
)

#: span name feeding each phase column of runtimes.csv.
_PHASE_COLUMNS = {
    "compile_s": "topology.compile",
    "sweep_s": "engine.sweep",
    "handoff_s": "engine.handoff",
    "plan_s": "faults.plan",
    "mask_s": "faults.mask",
    "trials_s": "faults.trials",
    "journal_s": "faults.journal",
}


@dataclass(frozen=True)
class Experiment:
    """One reproducible table/figure of the evaluation."""

    exp_id: str
    title: str
    expectation: str  # the qualitative shape that must hold
    run: Callable[[bool], List[ResultTable]]

    def execute(self, quick: bool = False) -> List[ResultTable]:
        return self.run(quick)


_REGISTRY: Dict[str, Experiment] = {}


def register(
    exp_id: str, title: str, expectation: str
) -> Callable[[Callable[[bool], List[ResultTable]]], Callable[[bool], List[ResultTable]]]:
    """Decorator registering a ``run(quick) -> [ResultTable]`` function."""

    def decorator(fn: Callable[[bool], List[ResultTable]]):
        if exp_id in _REGISTRY:
            raise ValueError(f"experiment {exp_id!r} already registered")
        _REGISTRY[exp_id] = Experiment(exp_id, title, expectation, fn)
        return fn

    return decorator


def _load_all() -> None:
    """Import every experiment module (registration side effect)."""
    from repro.experiments import (  # noqa: F401
        ext1_state,
        ext2_provisioning,
        ext3_adaptive,
        ext4_layout,
        ext5_baselines,
        ext6_repair,
        ext7_rackfail,
        ext8_availability,
        fig1_diameter,
        fig2_size,
        fig3_bisection,
        fig4_capex,
        fig5_expansion,
        fig6_routing,
        fig7_throughput,
        fig8_faults,
        fig9_broadcast,
        fig10_packet,
        fig11_tradeoff,
        fig12_permutation,
        table1_properties,
        table2_capex,
    )


#: id-prefix ordering: paper tables, paper figures, then extensions.
_KIND_ORDER = {"T": 0, "F": 1, "E": 2}


def all_experiments() -> List[Experiment]:
    """Registered experiments in id order (T*, F*, then E*; numeric within)."""
    _load_all()

    def sort_key(exp: Experiment):
        kind = exp.exp_id[0]
        number = int(exp.exp_id[1:])
        return (_KIND_ORDER.get(kind, 9), number)

    return sorted(_REGISTRY.values(), key=sort_key)


def get_experiment(exp_id: str) -> Experiment:
    _load_all()
    try:
        return _REGISTRY[exp_id.upper()]
    except KeyError:
        known = ", ".join(e.exp_id for e in all_experiments())
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None


class ExperimentTimeout(RuntimeError):
    """An experiment exceeded its wall-clock timeout."""


@contextmanager
def _wall_clock_limit(seconds: Optional[float], exp_id: str) -> Iterator[None]:
    """Raise :class:`ExperimentTimeout` after ``seconds`` of wall clock.

    Implemented with ``SIGALRM``/``setitimer``, so it only arms on a
    POSIX main thread; anywhere else (Windows, worker threads) it is a
    no-op rather than a crash.  The previous handler and any pending
    itimer are restored on exit.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise ExperimentTimeout(
            f"experiment {exp_id} exceeded its {seconds:g}s wall-clock timeout"
        )

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *previous_timer)
        signal.signal(signal.SIGALRM, previous_handler)


def journal_path(out_dir: str, exp_id: str) -> str:
    """Where ``run_experiment`` journals an experiment's fault trials."""
    return os.path.join(out_dir, f"{exp_id.lower()}.journal.jsonl")


def trace_path(out_dir: Optional[str], exp_id: str) -> str:
    """Default per-run trace file for an experiment."""
    return os.path.join(out_dir or ".", f"{exp_id.lower()}.trace.jsonl")


def _resolve_trace(
    trace: Union[bool, str, None], out_dir: Optional[str], exp_id: str
) -> Optional[str]:
    """Turn the ``--trace`` argument / ``REPRO_TRACE`` env into a path."""
    default = trace_path(out_dir, exp_id)
    if trace is None:
        return obs.trace_path_from_env(default)
    if trace is True:
        return default
    if not trace:
        return None
    return str(trace)


def run_experiment(
    exp_id: str,
    quick: bool = False,
    out_dir: Optional[str] = "results",
    verbose: bool = True,
    workers: Optional[int] = None,
    resume: bool = False,
    timeout: Optional[float] = None,
    trace: Union[bool, str, None] = None,
    profile: Optional[bool] = None,
) -> List[ResultTable]:
    """Run one experiment; print its tables and write CSVs under out_dir.

    ``workers`` sets the sweep engine's default worker count for the
    duration of the run (see :mod:`repro.metrics.engine`); every run
    upserts its wall time, per-phase breakdown and peak RSS into
    ``out_dir/runtimes.csv`` (keyed by experiment/quick/workers).

    ``resume=True`` replays the trial journal a previous interrupted run
    left in ``out_dir`` (completed fault-sweep trials are not recomputed);
    without it, a stale journal is discarded and the run starts fresh.
    ``timeout`` (seconds) bounds the experiment's wall clock and raises
    :class:`ExperimentTimeout` — the journal survives, so the run is
    resumable.

    Observability: result tables go to **stdout**; progress (start,
    heartbeat, resume notices, finish) goes to **stderr** through the
    :mod:`repro.obs` logger.  ``trace`` enables the JSONL span trace
    (``True`` = default path ``<out_dir>/<exp_id>.trace.jsonl``; a
    string = explicit path; ``None`` consults ``REPRO_TRACE``), and
    ``profile`` the cProfile hook (``None`` consults ``REPRO_PROFILE``).
    """
    from repro.faults.journal import TrialJournal, set_active_journal
    from repro.metrics import engine

    experiment = get_experiment(exp_id)
    logger = obs.get_logger("repro.harness")
    previous = engine.set_default_workers(workers) if workers is not None else None
    journal = None
    previous_journal = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = journal_path(out_dir, experiment.exp_id)
        if not resume and os.path.exists(path):
            os.unlink(path)
        journal = TrialJournal(path)
        previous_journal = set_active_journal(journal)
        if resume and verbose and len(journal):
            logger.info(
                "%s: resuming — %d journaled trials will be replayed",
                experiment.exp_id,
                len(journal),
            )

    effective_workers = engine.resolve_workers(workers)
    # the run's own registry, like each pool task's: its counts and span
    # timings are this experiment's alone.  Installed before the tracer,
    # whose counters event reports the registry active when it opened.
    registry = obs.MetricsRegistry()
    previous_registry = obs.set_registry(registry)
    trace_file = _resolve_trace(trace, out_dir, experiment.exp_id)
    tracer = None
    if trace_file:
        tracer = obs.Tracer(
            trace_file,
            run_tags={
                "experiment": experiment.exp_id,
                "quick": int(quick),
                "workers": effective_workers,
            },
        )
    previous_tracer = obs.set_tracer(tracer)
    started = time.perf_counter()

    def _beat() -> None:
        counters = registry.counter_values()
        trials = int(
            counters.get("faults.trials", 0)
            + counters.get("faults.trials_replayed", 0)
        )
        logger.info(
            "%s running — %.0fs elapsed, %d fault trials",
            experiment.exp_id,
            time.perf_counter() - started,
            trials,
        )

    heartbeat = obs.Heartbeat(obs.heartbeat_interval() if verbose else 0.0, _beat)
    try:
        with obs.span(
            "experiment",
            exp=experiment.exp_id,
            quick=int(quick),
            workers=effective_workers,
        ):
            with _wall_clock_limit(timeout, experiment.exp_id):
                with obs.maybe_profile(
                    obs.profile_enabled(profile), out_dir, experiment.exp_id
                ):
                    tables = experiment.execute(quick=quick)
    except BaseException:
        # Keep the journal on disk: completed trials are not lost and
        # the run is resumable with resume=True.  The tracer is closed
        # (shards merged) so a killed run's trace is still reportable.
        if journal is not None:
            journal.close()
        if tracer is not None:
            tracer.close()
        raise
    finally:
        heartbeat.stop()
        obs.set_tracer(previous_tracer)
        obs.set_registry(previous_registry)
        previous_registry.merge(registry.snapshot())
        if journal is not None:
            set_active_journal(previous_journal)
        if previous is not None:
            engine.set_default_workers(previous)
    elapsed = time.perf_counter() - started
    if verbose:
        print(f"### {experiment.exp_id} — {experiment.title}")
        print(f"expectation: {experiment.expectation}")
        for table in tables:
            table.print()
        logger.info("%s finished in %.1fs", experiment.exp_id, elapsed)
    if out_dir:
        for i, table in enumerate(tables):
            suffix = "" if len(tables) == 1 else f"_{i}"
            name = f"{experiment.exp_id.lower()}{suffix}.csv"
            table.to_csv(os.path.join(out_dir, name))
        _append_runtime(
            out_dir,
            experiment.exp_id,
            quick,
            effective_workers,
            elapsed,
            phases=_span_seconds(registry.snapshot()),
            peak_rss_mb=obs.peak_rss_mb(),
        )
    if tracer is not None:
        tracer.close()
        if verbose:
            logger.info("%s trace written to %s", experiment.exp_id, tracer.path)
    if journal is not None:
        journal.delete()
    return tables


def _span_seconds(snapshot: Dict) -> Dict[str, float]:
    """Total seconds per span name in a registry snapshot.

    Sums each ``<span>_seconds`` histogram over its labels; a span that
    never closed has no entry.
    """
    totals: Dict[str, float] = {}
    for entry in snapshot["histograms"]:
        name = entry["name"]
        if name.endswith("_seconds"):
            span = name[: -len("_seconds")]
            totals[span] = totals.get(span, 0.0) + entry["sum"]
    return totals


def _append_runtime(
    out_dir: str,
    exp_id: str,
    quick: bool,
    workers: int,
    elapsed: float,
    phases: Optional[Dict[str, float]] = None,
    peak_rss_mb: Optional[float] = None,
) -> str:
    """Upsert one timing row in ``out_dir/runtimes.csv``.

    Rows are keyed by ``(experiment, quick, workers)``: re-running an
    experiment replaces its row instead of appending a duplicate, so
    the file stays a current-timings table.  Pre-existing files with
    the old 4-column header are upgraded in place (missing phase cells
    become empty).  ``phases`` maps span names to seconds; a phase
    column whose span is absent (it did not run) is left empty.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, RUNTIMES_FILENAME)
    phases = phases or {}
    row = {
        "experiment": exp_id,
        "quick": str(int(quick)),
        "workers": str(workers),
        "wall_time_s": f"{elapsed:.3f}",
        "peak_rss_mb": "" if peak_rss_mb is None else f"{peak_rss_mb:.1f}",
    }
    for column, span_name in _PHASE_COLUMNS.items():
        seconds = phases.get(span_name)
        row[column] = "" if seconds is None else f"{seconds:.3f}"

    rows: List[Dict[str, str]] = []
    if os.path.exists(path):
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                header = []
            for old in reader:
                if not old:
                    continue
                entry = {
                    name: (old[i] if i < len(old) else "")
                    for i, name in enumerate(header)
                }
                rows.append(
                    {name: entry.get(name, "") for name in RUNTIMES_COLUMNS}
                )

    key = (row["experiment"], row["quick"], row["workers"])
    for i, existing in enumerate(rows):
        if (existing["experiment"], existing["quick"], existing["workers"]) == key:
            rows[i] = row
            break
    else:
        rows.append(row)

    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(RUNTIMES_COLUMNS))
        writer.writeheader()
        writer.writerows(rows)
    return path


def run_all(
    quick: bool = False,
    out_dir: Optional[str] = "results",
    verbose: bool = True,
    workers: Optional[int] = None,
    resume: bool = False,
    timeout: Optional[float] = None,
    trace: Union[bool, str, None] = None,
    profile: Optional[bool] = None,
) -> Dict[str, List[ResultTable]]:
    """Run the full evaluation suite (``timeout`` applies per experiment).

    ``trace=True`` writes one trace per experiment under ``out_dir``; a
    string is treated as a *directory* for the per-experiment traces.
    """
    results: Dict[str, List[ResultTable]] = {}
    for exp in all_experiments():
        exp_trace: Union[bool, str, None] = trace
        if isinstance(trace, str):
            exp_trace = os.path.join(trace, f"{exp.exp_id.lower()}.trace.jsonl")
        results[exp.exp_id] = run_experiment(
            exp.exp_id,
            quick=quick,
            out_dir=out_dir,
            verbose=verbose,
            workers=workers,
            resume=resume,
            timeout=timeout,
            trace=exp_trace,
            profile=profile,
        )
    return results
