"""Unified fault injection and resilience sweeps.

This package is the single home for everything failure-related:

* :mod:`repro.faults.plan` — :class:`FaultPlan` (scenario + provenance),
  the :class:`FaultModel` generators (server / switch / link / rack),
  the churn up–down event process, and the ``child_seed`` /
  ``seed_stream`` seed-streaming helpers;
* :mod:`repro.faults.mask` — :class:`MaskedGraph`, applying a scenario
  as masks over one compiled CSR graph instead of copying and
  recompiling per trial; it answers every failure query (survivors,
  pair connectivity, largest component, the degraded sweep view);
* :mod:`repro.faults.sweep` — :func:`degradation_sweep`, the journaled,
  parallel, crash-recoverable degradation-curve engine that the F8 /
  E7 / E8 experiments and the churn simulator are built on;
* :mod:`repro.faults.journal` — the append-only :class:`TrialJournal`
  behind ``--resume``.
"""

from repro.faults.journal import TrialJournal, get_active_journal, set_active_journal
from repro.faults.mask import MaskedGraph
from repro.faults.plan import (
    ChurnEvent,
    FailureScenario,
    FaultModel,
    FaultPlan,
    FaultRoundingWarning,
    IndexFaultPlan,
    child_seed,
    churn_events,
    explicit_failures,
    rack_assignment,
    rack_failures,
    random_failures,
    random_index_failures,
    seed_stream,
)
from repro.faults.sweep import (
    DegradationCurve,
    LevelStats,
    TrialOutcome,
    degradation_sweep,
)

__all__ = [
    "ChurnEvent",
    "DegradationCurve",
    "FailureScenario",
    "FaultModel",
    "FaultPlan",
    "FaultRoundingWarning",
    "IndexFaultPlan",
    "LevelStats",
    "MaskedGraph",
    "TrialJournal",
    "TrialOutcome",
    "child_seed",
    "churn_events",
    "degradation_sweep",
    "explicit_failures",
    "get_active_journal",
    "rack_assignment",
    "rack_failures",
    "random_failures",
    "random_index_failures",
    "seed_stream",
    "set_active_journal",
]
