"""The degradation sweep's reference path: subgraph copy + cold recompile.

:func:`repro.faults.sweep.degradation_sweep` evaluates every trial as a
mask over one compiled graph.  :func:`legacy_trial` evaluates the same
scenario the slow way — ``subgraph_without`` plus a fresh compile — and
the parity tests require identical results, trial for trial.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.faults.plan import FailureScenario, FaultModel
from repro.faults.sweep import _draw_panel, _model_tag
from repro.topology.compiled import compile_graph
from repro.topology.graph import Network


def sweep_panel(
    net: Network, model: FaultModel, sample_pairs: int, seed: int
) -> Tuple[Tuple[str, str], ...]:
    """The server-name pair panel ``degradation_sweep`` draws for these args."""
    graph = compile_graph(net)
    return _draw_panel(graph, net.name, _model_tag(model), sample_pairs, seed)


def legacy_trial(
    net: Network, panel: Sequence[Tuple[str, str]], scenario: FailureScenario
) -> Tuple[float, float, int]:
    """``(connection_ratio, largest_component, alive_servers)`` of one trial."""
    alive = net.subgraph_without(
        dead_nodes=list(scenario.dead_servers) + list(scenario.dead_switches),
        dead_links=scenario.dead_links,
    )
    graph = compile_graph(alive)
    labels = graph.component_labels()
    index = graph.index
    connected = 0
    total = 0
    for src, dst in panel:
        u, v = index.get(src), index.get(dst)
        if u is None or v is None:
            continue
        total += 1
        if labels[u] == labels[v]:
            connected += 1
    ratio = connected / total if total else 0.0
    alive_servers = graph.num_servers
    if alive_servers == 0:
        return ratio, 0.0, 0
    members: Dict[int, int] = {}
    for server in graph.server_indices:
        label = int(labels[server])
        members[label] = members.get(label, 0) + 1
    return ratio, max(members.values()) / alive_servers, alive_servers
