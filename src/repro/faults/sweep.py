"""Degradation sweeps: masked-CSR failure trials, journaled and parallel.

One call answers the paper's headline resilience question — how does
the connection ratio degrade as failures grow? — for any topology and
any :class:`~repro.faults.plan.FaultModel`:

``degradation_sweep(net, model, levels, trials)`` draws ``trials``
scenarios per severity level, evaluates each as an int-mask over the
*one* compiled CSR graph (no ``subgraph_without`` copy, no recompile —
see :mod:`repro.faults.mask`), and returns per-level connection-ratio
and largest-component curves with 95% confidence intervals.

Robustness:

* every completed trial is journaled (when a
  :class:`~repro.faults.journal.TrialJournal` is active or passed), so
  a killed run resumes without recomputing finished trials;
* worker fan-out goes through :func:`repro.pool.map_graph` — a
  crashed pool is retried once, then degraded to sequential with a
  loud :class:`~repro.pool.DegradedModeWarning` — and the workers'
  counts (``faults.trials``) and spans come home with their results.

The copy-and-recompile reference path (``subgraph_without`` plus a cold
compile per trial) lives in ``tests/fault_oracle.py``; the parity tests
assert it produces *identical* trial results.

``REPRO_FAULTS_TRIAL_SLEEP`` (seconds, float) throttles each computed
trial — a test hook so crash/resume tests can interrupt a quick-mode
run deterministically.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.journal import TrialJournal, get_active_journal
from repro.faults.mask import MaskedGraph
from repro.faults.plan import FailureScenario, FaultModel, FaultPlan, child_seed, seed_stream
from repro.obs import trace as _obs
from repro.pool import map_graph, resolve_workers
from repro.topology.compiled import CompiledGraph, compile_graph
from repro.topology.graph import Network

#: fewer pending trials than this and process fan-out cannot pay off.
SWEEP_PARALLEL_THRESHOLD = 8


@dataclass(frozen=True)
class TrialOutcome:
    """One evaluated failure trial."""

    level: float
    trial: int
    seed: int
    connection_ratio: float
    largest_component: float
    alive_servers: int
    dead_servers: int
    dead_switches: int
    dead_links: int


@dataclass(frozen=True)
class LevelStats:
    """Aggregates over the trials of one severity level."""

    level: float
    trials: int
    mean_ratio: float
    ci95_ratio: float
    mean_largest: float
    ci95_largest: float
    mean_alive_servers: float


@dataclass(frozen=True)
class DegradationCurve:
    """The result of one sweep: per-level stats plus raw trial outcomes."""

    net_name: str
    model: str
    sample_pairs: int
    points: Tuple[LevelStats, ...]
    outcomes: Tuple[TrialOutcome, ...]

    def point(self, level: float) -> LevelStats:
        for stats in self.points:
            if stats.level == level:
                return stats
        raise KeyError(f"no level {level!r} in sweep of {self.net_name!r}")


def _ci95(values: Sequence[float]) -> float:
    """Half-width of the normal 95% CI of the mean (sample stdev).

    Plain float arithmetic — ``statistics.stdev`` goes through exact
    ``Fraction`` math, which showed up in sweep profiles.
    """
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return 1.96 * math.sqrt(variance / n)


def _model_tag(model: FaultModel) -> str:
    if model.kind == "rack":
        return f"rack@rc{model.rack_capacity}"
    return model.kind


def _trial_sleep() -> None:
    delay = os.environ.get("REPRO_FAULTS_TRIAL_SLEEP", "").strip()
    if delay:
        time.sleep(float(delay))


def _draw_panel(
    graph: CompiledGraph, net_name: str, tag: str, sample_pairs: int, seed: int
) -> Tuple[Tuple[str, str], ...]:
    """The sweep's pair panel: ``sample_pairs`` distinct ordered pairs.

    The panel is part of the sweep's identity: drawn once from the full
    server list, reused by every trial (dead-endpoint pairs are excluded
    per trial — the ratio stays "over alive pairs").  Two C-level
    ``random()`` draws per pair — uniform over the same pair space as
    ``sample(servers, 2)`` at a fraction of the cost (the 2^-53
    truncation bias is immaterial for panel sampling).
    """
    servers = [graph.names[i] for i in graph.server_indices]
    uniform = seed_stream(seed, "panel", net_name, tag).random
    count = len(servers)
    panel = []
    for _ in range(sample_pairs):
        u = int(uniform() * count)
        v = int(uniform() * (count - 1))
        if v >= u:
            v += 1
        panel.append((servers[u], servers[v]))
    return tuple(panel)


# ----------------------------------------------------------------------
# trial evaluation
# ----------------------------------------------------------------------
def _evaluate_masked(
    graph: CompiledGraph, scenario: FailureScenario, panel: Sequence[Tuple[int, int]]
) -> Tuple[float, float, int]:
    """``(connection_ratio, largest_component, alive_servers)`` via masks."""
    with _obs.span("faults.mask"):
        masked = MaskedGraph(graph, scenario)
    with _obs.span("faults.trial"):
        _obs.counter("faults.trials")
        return (
            masked.panel_ratio(panel),
            masked.largest_component_fraction(),
            masked.num_alive_servers(),
        )


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def degradation_sweep(
    net: Network,
    model: FaultModel,
    levels: Sequence[float],
    trials: int,
    sample_pairs: int = 200,
    seed: int = 0,
    workers: Optional[int] = None,
    journal: Optional[TrialJournal] = None,
) -> DegradationCurve:
    """Connection-ratio / largest-component degradation curves for ``net``.

    For each severity ``level`` (a failure fraction, or a rack count for
    the rack model) the sweep draws ``trials`` independent scenarios —
    seeds streamed from ``seed`` via :func:`~repro.faults.plan.child_seed`,
    so trial (level, i) gets the same draw regardless of execution
    order, worker count or resume — and evaluates the connection ratio
    over a fixed panel of ``sample_pairs`` server pairs plus the largest
    alive component fraction.

    When a journal is active (or passed), completed trials are replayed
    from it and newly computed ones are appended, making the sweep
    crash-safe and resumable.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    journal = journal if journal is not None else get_active_journal()
    tag = _model_tag(model)
    graph = compile_graph(net)
    if graph.num_servers < 2:
        raise ValueError(f"need at least two servers in {net.name!r}")
    index = graph.index
    panel = tuple(
        (index[u], index[v])
        for u, v in _draw_panel(graph, net.name, tag, sample_pairs, seed)
    )

    def key_of(level: float, trial: int) -> str:
        return f"{net.name}|{tag}|L{level!r}|p{sample_pairs}|s{seed}|t{trial}"

    # Draw every plan up front (cheap — sampling only) so pending work
    # is a flat task list that can ship to a worker pool.
    plans: Dict[str, FaultPlan] = {}
    trial_meta: Dict[str, Tuple[float, int, int]] = {}
    pending: List[str] = []
    with _obs.span(
        "faults.plan", net=net.name, model=tag, levels=len(levels), trials=trials
    ):
        for level in levels:
            for trial in range(trials):
                key = key_of(level, trial)
                trial_seed = child_seed(seed, tag, level, trial)
                trial_meta[key] = (level, trial, trial_seed)
                if journal is not None and key in journal:
                    _obs.counter("faults.trials_replayed")
                    continue
                plans[key] = model.draw(net, level, trial_seed)
                pending.append(key)

    # Trials with identical scenarios (every trial of the 0.0 level draws
    # the same empty scenario, for one) evaluate once and share the
    # result — scenarios are frozen/hashable, so this is parity-exact.
    keys_of: Dict[FailureScenario, List[str]] = {}
    for key in pending:
        keys_of.setdefault(plans[key].scenario, []).append(key)
    unique = list(keys_of)
    _obs.counter("faults.scenario_dedup", len(pending) - len(unique))
    computed: Dict[str, Tuple[float, float, int]] = {}
    workers = resolve_workers(workers)
    pooled = workers > 1 and len(pending) >= max(SWEEP_PARALLEL_THRESHOLD, 2 * workers)
    with _obs.span(
        "faults.trials", net=net.name, model=tag, pending=len(pending), workers=workers
    ):
        # each scenario's trials are journaled as soon as it finishes
        for index, result in map_graph(
            functools.partial(_evaluate_masked, panel=panel),
            graph,
            unique,
            workers=workers if pooled else 1,
            context=f"degradation sweep {net.name}/{tag}",
        ):
            for key in keys_of[unique[index]]:
                computed[key] = result
                _trial_sleep()
                if journal is not None:
                    _record(journal, key, plans[key], result)

    # Assemble outcomes from journal replays + fresh computations.
    outcomes: List[TrialOutcome] = []
    for level in levels:
        for trial in range(trials):
            key = key_of(level, trial)
            _, _, trial_seed = trial_meta[key]
            if key in computed:
                ratio, largest, alive = computed[key]
                plan = plans[key]
                dead = plan.effective
            else:
                entry = journal.get(key)  # journal is not None here
                ratio, largest, alive = (
                    entry["ratio"],
                    entry["largest"],
                    entry["alive_servers"],
                )
                dead = entry["dead"]
            outcomes.append(
                TrialOutcome(
                    level=level,
                    trial=trial,
                    seed=trial_seed,
                    connection_ratio=ratio,
                    largest_component=largest,
                    alive_servers=alive,
                    dead_servers=dead["dead_servers"],
                    dead_switches=dead["dead_switches"],
                    dead_links=dead["dead_links"],
                )
            )

    points: List[LevelStats] = []
    for level in levels:
        of_level = [o for o in outcomes if o.level == level]
        ratios = [o.connection_ratio for o in of_level]
        largests = [o.largest_component for o in of_level]
        points.append(
            LevelStats(
                level=level,
                trials=len(of_level),
                mean_ratio=statistics.fmean(ratios),
                ci95_ratio=_ci95(ratios),
                mean_largest=statistics.fmean(largests),
                ci95_largest=_ci95(largests),
                mean_alive_servers=statistics.fmean(o.alive_servers for o in of_level),
            )
        )
    return DegradationCurve(
        net_name=net.name,
        model=tag,
        sample_pairs=sample_pairs,
        points=tuple(points),
        outcomes=tuple(outcomes),
    )


def _record(
    journal: TrialJournal,
    key: str,
    plan: FaultPlan,
    result: Tuple[float, float, int],
) -> None:
    ratio, largest, alive = result
    journal.record(
        key,
        {
            "ratio": ratio,
            "largest": largest,
            "alive_servers": alive,
            "dead": dict(plan.effective),
        },
    )
