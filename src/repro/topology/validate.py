"""Structural invariant checks for built networks.

Builders are trusted to be correct, but tests (and cautious users) can run
:func:`validate_network` to assert the physical-plausibility invariants
that every data-center topology must satisfy:

* every node's degree is within its port budget;
* the network is connected (unless explicitly waived);
* no switch-to-switch links for *server-centric* topologies (ABCCC, BCube,
  BCCC, DCell, FiConn keep switches as dumb crossbars that only face
  servers), controlled by a policy flag because switch-centric baselines
  (fat-tree) legitimately wire switches together;
* no server-to-server links unless the topology uses direct server wiring
  (DCell, FiConn), again policy-controlled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.topology.graph import Network
from repro.topology.node import NodeKind


@dataclass(frozen=True)
class LinkPolicy:
    """Which endpoint pairings a topology permits."""

    server_server: bool = False
    switch_switch: bool = False

    @classmethod
    def server_centric(cls) -> "LinkPolicy":
        """Switches only face servers (ABCCC / BCube / BCCC)."""
        return cls(server_server=False, switch_switch=False)

    @classmethod
    def direct_server(cls) -> "LinkPolicy":
        """Servers may wire to each other (DCell / FiConn)."""
        return cls(server_server=True, switch_switch=False)

    @classmethod
    def switch_centric(cls) -> "LinkPolicy":
        """Switch fabric above the servers (fat-tree / Clos)."""
        return cls(server_server=False, switch_switch=True)

    @classmethod
    def unrestricted(cls) -> "LinkPolicy":
        return cls(server_server=True, switch_switch=True)


class ValidationError(Exception):
    """Raised when a network violates a structural invariant."""

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def find_problems(
    net: Network,
    policy: LinkPolicy = LinkPolicy.unrestricted(),
    require_connected: bool = True,
) -> List[str]:
    """Return a list of human-readable invariant violations (empty = OK)."""
    problems: List[str] = []
    for node in net.nodes():
        degree = net.degree(node.name)
        if degree > node.ports:
            problems.append(
                f"{node.name} exceeds port budget: degree {degree} > ports {node.ports}"
            )
    for link in net.links():
        ku = net.node(link.u).kind
        kv = net.node(link.v).kind
        if ku is NodeKind.SERVER and kv is NodeKind.SERVER and not policy.server_server:
            problems.append(f"server-server link {link.u} - {link.v} not permitted")
        if ku is NodeKind.SWITCH and kv is NodeKind.SWITCH and not policy.switch_switch:
            problems.append(f"switch-switch link {link.u} - {link.v} not permitted")
    if require_connected and len(net) > 0 and not is_connected(net):
        problems.append("network is not connected")
    return problems


def validate_network(
    net: Network,
    policy: LinkPolicy = LinkPolicy.unrestricted(),
    require_connected: bool = True,
) -> None:
    """Raise :class:`ValidationError` if any invariant is violated."""
    problems = find_problems(net, policy=policy, require_connected=require_connected)
    if problems:
        raise ValidationError(problems)


def is_connected(net: Network) -> bool:
    """True iff the network has a single connected component."""
    if len(net) == 0:
        return True
    start = next(net.node_names())
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: List[str] = []
        for u in frontier:
            for v in net.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == len(net)


def connected_component(net: Network, start: str) -> set:
    """The set of node names reachable from ``start``."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: List[str] = []
        for u in frontier:
            for v in net.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen
