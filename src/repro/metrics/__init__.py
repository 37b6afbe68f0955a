"""Metrics: distances, bisection width, throughput, resilience, cost."""

from repro.metrics.bisection import (
    bisection_upper_bound,
    digit_split_abccc,
    digit_split_bcube,
    exact_bisection_small,
    partition_cut_width,
    pod_split_fattree,
    spectral_split,
)
from repro.metrics.bottleneck import (
    LinkLoadStats,
    aggregate_bottleneck_throughput,
    link_loads,
    load_stats,
    per_server_abt,
)
from repro.metrics.connectivity import (
    sample_server_pairs,
    server_pair_connectivity,
)
from repro.metrics.bounds import (
    ThroughputBounds,
    all_to_all_bounds,
    per_server_ceiling,
)
from repro.metrics.cost import CapexBreakdown, PriceBook, capex, expansion_capex
from repro.metrics.layout import CablePlan, LayoutConfig, assign_racks, cable_plan
from repro.metrics.state import (
    StateStats,
    algorithmic_state,
    state_ratio,
    table_state,
)
from repro.metrics.distance import (
    DistanceStats,
    link_diameter,
    link_hop_stats,
    logical_server_adjacency,
    server_diameter,
    server_hop_stats,
)
from repro.metrics.engine import sweep_distance_stats
from repro.pool import get_default_workers, resolve_workers, set_default_workers

__all__ = [
    "CablePlan",
    "CapexBreakdown",
    "DistanceStats",
    "LayoutConfig",
    "StateStats",
    "ThroughputBounds",
    "all_to_all_bounds",
    "per_server_ceiling",
    "algorithmic_state",
    "assign_racks",
    "cable_plan",
    "state_ratio",
    "table_state",
    "LinkLoadStats",
    "PriceBook",
    "aggregate_bottleneck_throughput",
    "bisection_upper_bound",
    "capex",
    "digit_split_abccc",
    "digit_split_bcube",
    "exact_bisection_small",
    "expansion_capex",
    "get_default_workers",
    "link_diameter",
    "link_hop_stats",
    "link_loads",
    "load_stats",
    "logical_server_adjacency",
    "partition_cut_width",
    "per_server_abt",
    "pod_split_fattree",
    "resolve_workers",
    "sample_server_pairs",
    "server_diameter",
    "server_hop_stats",
    "server_pair_connectivity",
    "set_default_workers",
    "spectral_split",
    "sweep_distance_stats",
]
