"""Experiment harness: registry, runner, CSV output.

Every module in :mod:`repro.experiments` defines one paper artefact
(table or figure) as an :class:`Experiment`: an id (``T1``, ``F5``…), a
title, the qualitative *expectation* the paper's abstract/claims imply,
and a ``run(quick)`` callable returning :class:`ResultTable` objects.

``quick=True`` shrinks instance sizes/samples so the same code path runs
in seconds inside the test suite; full runs regenerate the numbers
recorded in EXPERIMENTS.md.

Robustness: when an output directory is set, each run opens a trial
journal at ``<out_dir>/<exp_id>.journal.jsonl`` through
:func:`repro.faults.journal.journaled`, active for the fault sweeps
(:mod:`repro.faults`) — every completed failure trial is flushed to
disk, so a killed run (crash, SIGKILL, :class:`ExperimentTimeout`) can
be re-run with ``resume=True`` and only the missing trials are
recomputed.  The journal is deleted on success; one on disk always
means an interrupted run.  ``timeout`` bounds an experiment's wall
clock via ``SIGALRM`` (POSIX main thread only; a no-op elsewhere).

Observability: every experiment runs in its own :func:`repro.obs.run`
scope.  Its spans, pool workers' included, time into the scope's
registry, and ``runtimes.csv`` gets one row per phase that ran, read
from there.  A JSONL trace is streamed only when ``trace=`` /
``--trace`` / ``REPRO_TRACE`` opt in (summarise with ``repro obs
report``).  Progress messages go to stderr through the ``repro``
logger, with a periodic heartbeat on long runs; result tables stay on
stdout.
"""

from __future__ import annotations

import csv
import os
import re
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.sim.results import ResultTable

#: per-run timing log written next to the experiment CSVs: one row per
#: phase that ran, keyed by (experiment, quick, workers, phase) — a
#: re-run replaces its key's rows, so the file is a table of current
#: timings, not an append-only history.
RUNTIMES_FILENAME = "runtimes.csv"

#: runtimes.csv schema: the run's key, one span name with its count and
#: summed seconds (pool workers' included), and the process's peak RSS.
#: The ``experiment`` phase is an experiment's wall time.  The peak is
#: the process high-water mark when the run ended, so in ``run all`` it
#: includes every earlier experiment.
RUNTIMES_COLUMNS = (
    "experiment",
    "quick",
    "workers",
    "phase",
    "count",
    "seconds",
    "process_peak_rss_mb",
)


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

    The CSVs replace every ``<id>.csv`` and ``<id>_<n>.csv`` an earlier
    run of the experiment left in ``out_dir``, quick or full.

    ``workers`` sets the sweep engine's default worker count for the
    duration of the run (see :mod:`repro.metrics.engine`); every run
    replaces its rows of ``out_dir/runtimes.csv`` (keyed by
    experiment/quick/workers) with one row per phase that ran.

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
    from repro.faults.journal import journaled
    from repro.metrics import engine

    experiment = get_experiment(exp_id)
    logger = obs.get_logger("repro.harness")
    journal_file = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        journal_file = journal_path(out_dir, experiment.exp_id)
    previous = engine.set_default_workers(workers) if workers is not None else None
    try:
        effective_workers = engine.resolve_workers(workers)
        with journaled(journal_file, resume) as journal:
            if resume and verbose and len(journal):
                logger.info(
                    "%s: resuming — %d journaled trials will be replayed",
                    experiment.exp_id,
                    len(journal),
                )
            with obs.run(
                _resolve_trace(trace, out_dir, experiment.exp_id),
                experiment=experiment.exp_id,
                quick=int(quick),
                workers=effective_workers,
            ) as scope:

                def _beat(elapsed: float) -> None:
                    counters = scope.registry.counter_values()
                    trials = int(
                        counters.get("faults.trials", 0)
                        + counters.get("faults.trials_replayed", 0)
                    )
                    logger.info(
                        "%s running — %.0fs elapsed, %d fault trials",
                        experiment.exp_id,
                        elapsed,
                        trials,
                    )

                heartbeat = obs.Heartbeat(
                    obs.heartbeat_interval() if verbose else 0.0, _beat
                )
                with heartbeat, obs.span(
                    "experiment",
                    exp=experiment.exp_id,
                    quick=int(quick),
                    workers=effective_workers,
                ) as whole:
                    with _wall_clock_limit(timeout, experiment.exp_id):
                        with obs.maybe_profile(
                            obs.profile_enabled(profile), out_dir, experiment.exp_id
                        ):
                            tables = experiment.execute(quick=quick)
            if verbose:
                print(f"### {experiment.exp_id} — {experiment.title}")
                print(f"expectation: {experiment.expectation}")
                for table in tables:
                    table.print()
                logger.info("%s finished in %.1fs", experiment.exp_id, whole.dur)
            if out_dir:
                stem = experiment.exp_id.lower()
                # A quick run writes one table where the full run writes
                # several (or the reverse): clear every table of this
                # experiment first, so no stale CSV stays beside the ones
                # this run wrote.
                for name in os.listdir(out_dir):
                    if re.fullmatch(rf"{stem}(_\d+)?\.csv", name):
                        os.unlink(os.path.join(out_dir, name))
                for i, table in enumerate(tables):
                    suffix = "" if len(tables) == 1 else f"_{i}"
                    table.to_csv(os.path.join(out_dir, f"{stem}{suffix}.csv"))
                write_runtimes(
                    out_dir, experiment.exp_id, quick, effective_workers, scope.phases()
                )
            if verbose and scope.trace:
                logger.info("%s trace written to %s", experiment.exp_id, scope.trace)
    finally:
        if previous is not None:
            engine.set_default_workers(previous)
    return tables


def write_runtimes(
    out_dir: str,
    experiment: str,
    quick: bool,
    workers: int,
    phases: Dict[str, Tuple[int, float]],
) -> str:
    """Replace one run's rows of ``out_dir/runtimes.csv``.

    Writes one row per entry of ``phases`` (span name -> (count,
    seconds), as :meth:`repro.obs.RunScope.phases` reports them) under
    the key ``(experiment, quick, workers)``, in place of that key's
    earlier rows; other keys' rows stay.  A file with another header
    (an older layout) is rewritten, not merged.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, RUNTIMES_FILENAME)
    key = [experiment, str(int(quick)), str(workers)]
    rows: List[List[str]] = []
    if os.path.exists(path):
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            if next(reader, None) == list(RUNTIMES_COLUMNS):
                rows = [row for row in reader if row]
    at = next((i for i, row in enumerate(rows) if row[:3] == key), len(rows))
    rows = [row for row in rows if row[:3] != key]
    peak = obs.peak_rss_mb()
    rss = "" if peak is None else f"{peak:.1f}"
    rows[at:at] = [
        key + [phase, str(count), f"{seconds:.6f}", rss]
        for phase, (count, seconds) in sorted(phases.items())
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RUNTIMES_COLUMNS)
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
