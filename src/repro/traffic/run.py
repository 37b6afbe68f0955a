"""Journaled multi-trial traffic runs: matrix -> routes -> rates -> table.

One :func:`run_traffic` call is the ``repro traffic`` command's engine:
for each trial it draws a seeded :class:`~repro.traffic.matrix
.TrafficMatrix`, optionally degrades the network with an index-based
fault draw (:func:`repro.faults.plan.random_index_failures` +
:meth:`repro.faults.mask.MaskedGraph.from_indices` — no names touched,
so lazy-name fast graphs stay lazy), extracts batch routes
(:func:`repro.routing.batch.batch_routes`), solves max-min rates
(:func:`repro.traffic.engine.max_min_rates`) and, when asked, the fluid
FCT distribution.  Results land in the standard pipeline:

* a :class:`~repro.sim.results.ResultTable` row per trial (rate and FCT
  percentiles, throughput, link-load, unreachable counts);
* :mod:`repro.obs` spans per trial (``traffic.trial``, the row's
  ``elapsed_s``) and per phase (``traffic.matrix`` / ``traffic.routes``
  / ``traffic.allocate`` / ``traffic.fct``), timed into
  ``<span>_seconds`` registry histograms labeled by pattern, and
  counters, so ``repro obs report`` works on traced runs;
* histograms of the flow model's results (``traffic.rate.units`` /
  ``traffic.fct.units``, in capacity and size-over-capacity units,
  labeled by pattern) recorded in bulk via ``observe_many``;
* every completed trial journaled under a deterministic key — a killed
  multi-trial run resumes without recomputing finished trials.

Trials fan out over :func:`repro.pool.map_graph` above a threshold:
the compiled graph ships once per pool through shared memory, and each
trial's row, counts and spans come home together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.faults.journal import TrialJournal, get_active_journal
from repro.faults.mask import MaskedGraph
from repro.faults.plan import child_seed, random_index_failures
from repro.obs import metrics as _metrics
from repro.obs import trace as _obs
from repro.pool import map_graph, resolve_workers
from repro.sim.results import ResultTable
from repro.traffic.engine import fluid_fct, max_min_rates
from repro.traffic.matrix import generate_matrix

#: fewer pending trials than this and process fan-out cannot pay off.
TRAFFIC_PARALLEL_THRESHOLD = 4

#: the fixed table schema of one traffic run.
COLUMNS = [
    "trial",
    "pattern",
    "servers",
    "flows",
    "unreachable",
    "agg_throughput",
    "agg_per_server",
    "min_rate",
    "p50_rate",
    "mean_rate",
    "p99_rate",
    "max_rate",
    "jain",
    "max_link_load",
    "rounds",
    "mean_fct",
    "p50_fct",
    "p99_fct",
    "max_fct",
    "dead_nodes",
    "dead_links",
    "elapsed_s",
]


@dataclass(frozen=True)
class TrafficTrialSpec:
    """Everything one trial needs besides the graph itself."""

    pattern: str
    num_servers: int
    seed: int
    trial: int
    pattern_params: Tuple[Tuple[str, Any], ...] = ()
    fault_fractions: Tuple[Tuple[str, float], ...] = ()
    fault_seed: int = 0
    fct: bool = False


def run_trial(graph, spec: TrafficTrialSpec) -> Dict[str, Any]:
    """Execute one trial against ``graph``; returns the table row dict.

    The trial is one ``traffic.trial`` span, and its duration is the
    row's ``elapsed_s``.
    """
    with _obs.span("traffic.trial", pattern=spec.pattern, trial=spec.trial) as trial:
        row = _trial_row(graph, spec)
    row["elapsed_s"] = trial.dur
    return row


def _trial_row(graph, spec: TrafficTrialSpec) -> Dict[str, Any]:
    # Deferred: repro.routing.batch imports repro.traffic.routes, so a
    # top-level import here would close an import cycle.
    from repro.routing.batch import batch_routes

    with _obs.span("traffic.matrix", pattern=spec.pattern, trial=spec.trial):
        matrix = generate_matrix(
            spec.pattern,
            spec.num_servers,
            seed=child_seed(spec.seed, "traffic-matrix", spec.trial),
            **dict(spec.pattern_params),
        )
    masked = None
    dead_nodes = dead_links = 0
    if spec.fault_fractions:
        with _obs.span("traffic.faults", trial=spec.trial):
            plan = random_index_failures(
                graph,
                seed=child_seed(spec.fault_seed, "traffic-fault", spec.trial),
                **dict(spec.fault_fractions),
            )
            masked = MaskedGraph.from_indices(graph, plan.dead_nodes, plan.dead_edges)
            dead_nodes, dead_links = len(plan.dead_nodes), len(plan.dead_edges)
    with _obs.span("traffic.routes", pattern=spec.pattern, trial=spec.trial):
        routes = batch_routes(graph, matrix, masked)
    with _obs.span("traffic.allocate", pattern=spec.pattern, trial=spec.trial):
        allocation = max_min_rates(routes)
    _obs.counter("traffic.trials")
    _obs.counter("traffic.flows", routes.num_flows)
    registry = _metrics.get_registry()
    registry.histogram("traffic.rate.units", pattern=spec.pattern).observe_many(
        allocation.rates[~allocation.unreachable]
    )
    percentiles = allocation.rate_percentiles((0.50, 0.99))
    fct_summary = {"mean_fct": 0.0, "p50_fct": 0.0, "p99_fct": 0.0, "max_fct": 0.0}
    if spec.fct:
        with _obs.span("traffic.fct", pattern=spec.pattern, trial=spec.trial):
            fct = fluid_fct(routes, matrix.size)
        fct_summary = {
            key: fct.summary()[key] for key in ("mean_fct", "p50_fct", "p99_fct", "max_fct")
        }
        times = fct.completion_times
        import numpy as np

        finite = np.asarray(times)
        registry.histogram("traffic.fct.units", pattern=spec.pattern).observe_many(
            finite[np.isfinite(finite)]
        )
    num_servers = matrix.num_servers
    row = {
        "trial": spec.trial,
        "pattern": spec.pattern,
        "servers": num_servers,
        "flows": routes.num_flows,
        "unreachable": allocation.num_unreachable,
        "agg_throughput": allocation.aggregate_throughput,
        "agg_per_server": allocation.aggregate_throughput / num_servers,
        "min_rate": allocation.min_rate,
        "p50_rate": percentiles[0.50],
        "mean_rate": allocation.mean_rate,
        "p99_rate": percentiles[0.99],
        "max_rate": allocation.max_rate,
        "jain": allocation.jain_fairness,
        "max_link_load": routes.max_link_load(),
        "rounds": allocation.rounds,
        "dead_nodes": dead_nodes,
        "dead_links": dead_links,
    }
    row.update(fct_summary)
    return row


def trial_key(label: str, spec: TrafficTrialSpec) -> str:
    """The deterministic journal key of one trial."""
    params = ",".join(f"{k}={v}" for k, v in spec.pattern_params)
    faults = ",".join(f"{k}={v}" for k, v in spec.fault_fractions)
    return (
        f"traffic|{label}|{spec.pattern}|params={params}|seed={spec.seed}"
        f"|trial={spec.trial}|faults={faults}|fseed={spec.fault_seed}"
        f"|fct={int(spec.fct)}"
    )


def run_traffic(
    graph,
    label: str,
    pattern: str,
    *,
    trials: int = 1,
    seed: int = 0,
    pattern_params: Optional[Mapping[str, Any]] = None,
    fault_fractions: Optional[Mapping[str, float]] = None,
    fault_seed: Optional[int] = None,
    fct: bool = False,
    workers: Optional[int] = None,
    journal: Optional[TrialJournal] = None,
) -> ResultTable:
    """Multi-trial traffic run over one compiled graph.

    Args:
        graph: any compiled / fast-built graph (healthy baseline).
        label: instance label for titles and journal keys.
        pattern: matrix family name (see ``repro.traffic.MATRICES``).
        pattern_params: generator overrides (``fan_in=...``); scale-aware
            defaults fill the rest.
        fault_fractions: optional ``{"server_fraction": ..., ...}`` —
            each trial draws its own indexed fault plan and runs on the
            degraded network.
        fct: also compute the fluid FCT distribution per trial.
        journal: explicit journal; falls back to the ambient
            :func:`~repro.faults.journal.get_active_journal`.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    journal = journal if journal is not None else get_active_journal()
    num_servers = int(len(graph.server_indices))
    specs = [
        TrafficTrialSpec(
            pattern=pattern,
            num_servers=num_servers,
            seed=seed,
            trial=t,
            pattern_params=tuple(sorted((pattern_params or {}).items())),
            fault_fractions=tuple(
                sorted((k, float(v)) for k, v in (fault_fractions or {}).items() if v)
            ),
            fault_seed=seed if fault_seed is None else fault_seed,
            fct=fct,
        )
        for t in range(trials)
    ]

    rows: Dict[int, Dict[str, Any]] = {}
    pending: List[TrafficTrialSpec] = []
    for spec in specs:
        key = trial_key(label, spec)
        if journal is not None and key in journal:
            cached = journal.get(key)
            if isinstance(cached, dict):
                rows[spec.trial] = cached
                _obs.counter("traffic.journal_replays")
                continue
        pending.append(spec)

    workers = resolve_workers(workers)
    pooled = workers > 1 and len(pending) >= TRAFFIC_PARALLEL_THRESHOLD
    with _obs.span(
        "traffic.run",
        pattern=pattern,
        label=label,
        trials=trials,
        pending=len(pending),
        workers=workers,
    ):
        # each trial is journaled as soon as it finishes
        for index, row in map_graph(
            run_trial,
            graph,
            pending,
            workers=min(workers, len(pending)) if pooled else 1,
            context=f"traffic {label}/{pattern}",
        ):
            spec = pending[index]
            rows[spec.trial] = row
            if journal is not None:
                journal.record(trial_key(label, spec), row)

    table = ResultTable(
        title=f"Traffic: {pattern} on {label} ({num_servers} servers)",
        columns=list(COLUMNS),
    )
    for t in range(trials):
        table.add_row(**rows[t])
    if fault_fractions:
        table.add_note(
            "degraded: "
            + ", ".join(f"{k}={v}" for k, v in sorted(fault_fractions.items()) if v)
        )
    if fct:
        table.add_note("fct: fluid-model completion times (all flows start at t=0)")
    return table
