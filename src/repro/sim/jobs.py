"""Job-level workloads over the fluid simulator.

The evaluation's traffic patterns are single flow sets; production
clusters run *jobs* — a MapReduce shuffle, a parameter-server sync, a
backup — each a batch of flows sharing a start time, arriving over time.
This module models that layer:

* :class:`Job` — a named batch of flows with an arrival time;
* :func:`job_flows` generators for common job shapes (shuffle,
  aggregate/incast, broadcast-style disseminate);
* :func:`simulate_jobs` — run a job sequence through
  :func:`repro.traffic.engine.fluid_fct`, with each flow starting at
  its job's arrival, and report per-job completion times (a job
  completes when its last flow does) and cluster-level statistics.

Powers the ``examples/deployment_manifest.py`` walk-through and gives
the library a realistic top layer users actually want.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.routing.base import Route
from repro.sim.traffic import Flow
from repro.topology.compiled import compile_graph
from repro.topology.graph import Network

# Submodules, not the package: repro.traffic imports repro.traffic.run,
# which imports repro.sim, so the package may still be initialising here.
from repro.traffic.engine import FctStats, fluid_fct
from repro.traffic.routes import RouteSet


@dataclass(frozen=True)
class Job:
    """A batch of flows submitted together."""

    job_id: str
    arrival: float
    flows: Tuple[Flow, ...]

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError(f"job {self.job_id}: negative arrival time")
        if not self.flows:
            raise ValueError(f"job {self.job_id}: no flows")
        ids = {f.flow_id for f in self.flows}
        if len(ids) != len(self.flows):
            raise ValueError(f"job {self.job_id}: duplicate flow ids")

    @property
    def total_volume(self) -> float:
        return sum(f.size for f in self.flows)


def shuffle_job(
    job_id: str,
    arrival: float,
    servers: Sequence[str],
    num_mappers: int,
    num_reducers: int,
    volume_per_flow: float = 1.0,
    seed: int = 0,
) -> Job:
    """An m x r all-to-all shuffle between disjoint random server sets."""
    rng = random.Random(seed)
    chosen = rng.sample(list(servers), num_mappers + num_reducers)
    mappers, reducers = chosen[:num_mappers], chosen[num_mappers:]
    flows = tuple(
        Flow(f"{job_id}/s{m}-{r}", mapper, reducer, size=volume_per_flow)
        for m, mapper in enumerate(mappers)
        for r, reducer in enumerate(reducers)
    )
    return Job(job_id, arrival, flows)


def incast_job(
    job_id: str,
    arrival: float,
    servers: Sequence[str],
    num_workers: int,
    volume_per_flow: float = 1.0,
    seed: int = 0,
) -> Job:
    """Aggregation: many workers send to one coordinator simultaneously."""
    rng = random.Random(seed)
    chosen = rng.sample(list(servers), num_workers + 1)
    coordinator, workers = chosen[0], chosen[1:]
    flows = tuple(
        Flow(f"{job_id}/w{i}", worker, coordinator, size=volume_per_flow)
        for i, worker in enumerate(workers)
    )
    return Job(job_id, arrival, flows)


def disseminate_job(
    job_id: str,
    arrival: float,
    servers: Sequence[str],
    num_receivers: int,
    volume_per_flow: float = 1.0,
    seed: int = 0,
) -> Job:
    """One source pushes a dataset to many receivers (unicast fan-out)."""
    rng = random.Random(seed)
    chosen = rng.sample(list(servers), num_receivers + 1)
    source, receivers = chosen[0], chosen[1:]
    flows = tuple(
        Flow(f"{job_id}/r{i}", source, receiver, size=volume_per_flow)
        for i, receiver in enumerate(receivers)
    )
    return Job(job_id, arrival, flows)


@dataclass(frozen=True)
class JobResult:
    """Completion record of one job."""

    job_id: str
    arrival: float
    completion: float

    @property
    def duration(self) -> float:
        return self.completion - self.arrival


@dataclass(frozen=True)
class JobSimResult:
    """Outcome of a multi-job fluid simulation."""

    jobs: Tuple[JobResult, ...]
    #: per-flow fluid outcome, flows in job-then-flow order.
    flow_result: FctStats

    @property
    def makespan(self) -> float:
        return max((j.completion for j in self.jobs), default=0.0)

    @property
    def mean_duration(self) -> float:
        return statistics.fmean(j.duration for j in self.jobs) if self.jobs else 0.0

    @property
    def p99_duration(self) -> float:
        if not self.jobs:
            return 0.0
        ordered = sorted(j.duration for j in self.jobs)
        return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]

    def job(self, job_id: str) -> JobResult:
        for result in self.jobs:
            if result.job_id == job_id:
                return result
        raise KeyError(job_id)


def simulate_jobs(
    net: Network,
    jobs: Sequence[Job],
    router: Callable[[Network, str, str], Route],
) -> JobSimResult:
    """Run the job sequence to completion under max-min fair sharing.

    All jobs' flows share the fabric; a job's completion time is its last
    flow's completion.  ``router`` produces each flow's path once, at
    submission (static routing, the model the paper evaluates).
    """
    all_flows: List[Flow] = []
    starts: List[float] = []
    seen = set()
    for job in jobs:
        for flow in job.flows:
            if flow.flow_id in seen:
                raise ValueError(f"duplicate flow id {flow.flow_id!r} across jobs")
            seen.add(flow.flow_id)
            all_flows.append(flow)
            starts.append(job.arrival)

    routes = {f.flow_id: router(net, f.src, f.dst) for f in all_flows}
    route_set = RouteSet.from_name_routes(compile_graph(net), all_flows, routes)
    flow_result = fluid_fct(route_set, [f.size for f in all_flows], starts)

    results = []
    first = 0
    for job in jobs:
        last = first + len(job.flows)
        completion = float(flow_result.completion_times[first:last].max())
        results.append(JobResult(job.job_id, job.arrival, completion))
        first = last
    return JobSimResult(jobs=tuple(results), flow_result=flow_result)
