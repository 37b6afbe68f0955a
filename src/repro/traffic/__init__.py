"""Vectorized flow-level traffic: matrices, batch routes, max-min, FCT.

The library's one flow-level engine — experiments, examples, the job
simulator and ``repro traffic`` all allocate here.  Every flow lives in
numpy batch state over the compiled CSR graphs —

* :mod:`repro.traffic.matrix` — seeded :class:`TrafficMatrix`
  generators (permutation, all-to-all, uniform, incast, hot-rack,
  job-placement-driven) over integer server ordinals;
* :mod:`repro.traffic.routes` — :class:`RouteSet`, routes as a
  flow x link sparse incidence of undirected edge ids;
* :mod:`repro.traffic.engine` — vectorized progressive filling
  (:func:`max_min_rates`) and fluid FCT with per-flow start times
  (:func:`fluid_fct`);
* :mod:`repro.traffic.run` — journaled multi-trial orchestration
  behind ``repro traffic``.

Batch route extraction lives in :mod:`repro.routing.batch` (arithmetic
digit-correction on fast ABCCC layouts, grouped-BFS everywhere else);
name-based routers reach the engine through
:meth:`RouteSet.from_name_routes`.
"""

from repro.traffic.engine import (
    FctStats,
    TrafficAllocation,
    fluid_fct,
    max_min_rates,
)
from repro.traffic.matrix import (
    MATRICES,
    TrafficError,
    TrafficMatrix,
    all_to_all_matrix,
    default_params,
    generate_matrix,
    hot_rack_matrix,
    incast_matrix,
    job_matrix,
    permutation_matrix,
    uniform_matrix,
)
from repro.traffic.routes import RouteSet, RouteSetError, edge_id_array
from repro.traffic.run import COLUMNS, TrafficTrialSpec, run_traffic, run_trial

__all__ = [
    "COLUMNS",
    "FctStats",
    "MATRICES",
    "RouteSet",
    "RouteSetError",
    "TrafficAllocation",
    "TrafficError",
    "TrafficMatrix",
    "TrafficTrialSpec",
    "all_to_all_matrix",
    "default_params",
    "edge_id_array",
    "fluid_fct",
    "generate_matrix",
    "hot_rack_matrix",
    "incast_matrix",
    "job_matrix",
    "max_min_rates",
    "permutation_matrix",
    "run_traffic",
    "run_trial",
    "uniform_matrix",
]
