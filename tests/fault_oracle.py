"""The copy-and-recompile reference for every failure query.

:class:`repro.faults.mask.MaskedGraph` answers failure queries as masks
over one compiled graph.  The functions here answer the same questions
the slow way — ``subgraph_without`` copies the network, ``compile_graph``
recompiles the survivors, and networkx labels the components — so they
share no code with the masked path.  The parity tests require identical
results.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, FrozenSet, Sequence, Set, Tuple

import networkx as nx

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


def _alive_components(
    net: Network, scenario: FailureScenario
) -> Tuple[Network, Dict[str, int]]:
    """The failure-injected copy of ``net`` and its component per node name."""
    alive = net.subgraph_without(
        dead_nodes=list(scenario.dead_servers) + list(scenario.dead_switches),
        dead_links=scenario.dead_links,
    )
    component = {
        name: label
        for label, members in enumerate(nx.connected_components(alive.to_networkx()))
        for name in members
    }
    return alive, component


def alive_partition(net: Network, scenario: FailureScenario) -> Set[FrozenSet[str]]:
    """The connected components of the failure-injected copy, as name sets."""
    _, component = _alive_components(net, scenario)
    members: Dict[int, Set[str]] = {}
    for name, label in component.items():
        members.setdefault(label, set()).add(name)
    return {frozenset(names) for names in members.values()}


def connection_ratio(
    net: Network, scenario: FailureScenario, sample_pairs: int = 200, seed: int = 0
) -> float:
    """Fraction of sampled alive server pairs still mutually reachable.

    One ``random.Random(seed)`` and ``sample_pairs`` draws of
    ``rng.sample(alive_servers, 2)`` over the insertion-ordered alive
    server names.
    """
    alive, component = _alive_components(net, scenario)
    servers = alive.servers
    if len(servers) < 2 or sample_pairs < 1:
        return 0.0
    rng = random.Random(seed)
    connected = 0
    for _ in range(sample_pairs):
        src, dst = rng.sample(servers, 2)
        connected += component[src] == component[dst]
    return connected / sample_pairs


def _largest_fraction(alive: Network, component: Dict[str, int]) -> float:
    if alive.num_servers == 0:
        return 0.0
    members = Counter(component[name] for name in alive.servers)
    return max(members.values()) / alive.num_servers


def largest_component_fraction(net: Network, scenario: FailureScenario) -> float:
    """Alive servers in the largest connected component / alive servers."""
    return _largest_fraction(*_alive_components(net, scenario))


def legacy_trial(
    net: Network, panel: Sequence[Tuple[str, str]], scenario: FailureScenario
) -> Tuple[float, float, int]:
    """``(connection_ratio, largest_component, alive_servers)`` of one trial."""
    alive, component = _alive_components(net, scenario)
    connected = 0
    total = 0
    for src, dst in panel:
        if src not in component or dst not in component:
            continue
        total += 1
        connected += component[src] == component[dst]
    ratio = connected / total if total else 0.0
    return ratio, _largest_fraction(alive, component), alive.num_servers
