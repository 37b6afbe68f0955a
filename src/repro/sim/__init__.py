"""Simulators: discrete events, packet level, jobs, churn, traffic patterns.

Flow-level max-min rates and fluid completion times live in
:mod:`repro.traffic`; :mod:`repro.sim.jobs` runs job arrivals on it.
"""

from repro.sim.churn import ChurnConfig, ChurnResult, simulate_churn
from repro.sim.events import EventHandle, SimulationError, Simulator
from repro.sim.jobs import (
    Job,
    JobResult,
    JobSimResult,
    disseminate_job,
    incast_job,
    shuffle_job,
    simulate_jobs,
)
from repro.sim.packet import PacketSimConfig, PacketSimResult, PacketSimulator
from repro.sim.results import ResultTable
from repro.sim.traffic import (
    PATTERNS,
    Flow,
    all_to_all_traffic,
    hotspot_traffic,
    one_to_all_traffic,
    permutation_traffic,
    shuffle_traffic,
    uniform_random_traffic,
)

__all__ = [
    "ChurnConfig",
    "ChurnResult",
    "EventHandle",
    "simulate_churn",
    "Flow",
    "Job",
    "JobResult",
    "JobSimResult",
    "disseminate_job",
    "incast_job",
    "shuffle_job",
    "simulate_jobs",
    "PATTERNS",
    "PacketSimConfig",
    "PacketSimResult",
    "PacketSimulator",
    "ResultTable",
    "SimulationError",
    "Simulator",
    "all_to_all_traffic",
    "hotspot_traffic",
    "one_to_all_traffic",
    "permutation_traffic",
    "shuffle_traffic",
    "uniform_random_traffic",
]
