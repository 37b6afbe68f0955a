"""Fast-built CSR graphs against the object-path compile.

:mod:`repro.topology.fastbuild` generates CSR arrays straight from digit
arithmetic; compiling ``spec.build()`` is the reference.  The parity
tests require the two to agree exactly, node for node and edge for edge.
"""

from __future__ import annotations

from typing import List

from repro.topology.compiled import compile_graph
from repro.topology.graph import Network
from repro.topology.validate import ValidationError


def csr_parity_problems(graph, net: Network) -> List[str]:
    """Exhaustive parity check of a compiled CSR graph against its oracle.

    ``graph`` is any :class:`~repro.topology.compiled.CompiledGraph`-shaped
    object (typically a fast-built one, see
    :mod:`repro.topology.fastbuild`); ``net`` is the object-path build of
    the same spec, compiled here as the oracle.  Returns human-readable
    mismatches (empty = parity):

    * identical node-name sequences (same ids, same insertion order);
    * identical CSR rows — offsets and canonically sorted neighbor lists;
    * identical server-index tables and dense edge lists;
    * node-kind, role and structured-address tables matching the
      ``Node`` objects, when ``graph`` exposes ``is_server`` /
      ``role_of`` / ``address_of`` per id;
    * name -> id index round-trip.

    Meant for small instances: every node and edge is visited.
    """
    oracle = compile_graph(net)
    problems: List[str] = []
    if graph.num_nodes != oracle.num_nodes:
        problems.append(
            f"node count mismatch: {graph.num_nodes} != {oracle.num_nodes}"
        )
        return problems

    names = list(graph.names)
    oracle_names = list(oracle.names)
    if names != oracle_names:
        diverge = next(
            (i for i, (a, b) in enumerate(zip(names, oracle_names)) if a != b), None
        )
        problems.append(
            f"name sequence mismatch (first divergence at id {diverge}: "
            f"{names[diverge]!r} != {oracle_names[diverge]!r})"
            if diverge is not None
            else "name sequence mismatch"
        )
        return problems

    if [int(x) for x in graph.offsets] != [int(x) for x in oracle.offsets]:
        problems.append("CSR offsets differ")
    if [int(x) for x in graph.neighbors] != [int(x) for x in oracle.neighbors]:
        problems.append("CSR neighbor lists differ")
    if [int(x) for x in graph.server_indices] != [
        int(x) for x in oracle.server_indices
    ]:
        problems.append("server index tables differ")
    fast_edges = sorted(
        (min(int(u), int(v)), max(int(u), int(v)))
        for u, v in zip(graph.edge_u, graph.edge_v)
    )
    oracle_edges = sorted(
        (min(int(u), int(v)), max(int(u), int(v)))
        for u, v in zip(oracle.edge_u, oracle.edge_v)
    )
    if fast_edges != oracle_edges:
        problems.append("canonical edge sets differ")

    for i, name in enumerate(names):
        node = net.node(name)
        if graph.index[name] != i:
            problems.append(f"index round-trip failed for {name!r}")
        if hasattr(graph, "is_server") and graph.is_server(i) != node.is_server:
            problems.append(f"node kind mismatch for {name!r}")
        if hasattr(graph, "role_of") and graph.role_of(i) != node.role:
            problems.append(
                f"role mismatch for {name!r}: "
                f"{graph.role_of(i)!r} != {node.role!r}"
            )
        if (
            hasattr(graph, "address_of")
            and node.address is not None
            and graph.address_of(i) != node.address
        ):
            problems.append(
                f"address mismatch for {name!r}: "
                f"{graph.address_of(i)!r} != {node.address!r}"
            )
        if len(problems) > 25:
            problems.append("… (truncated)")
            break
    return problems


def assert_csr_parity(graph, net: Network) -> None:
    """Raise :class:`ValidationError` unless ``graph`` matches the oracle."""
    problems = csr_parity_problems(graph, net)
    if problems:
        raise ValidationError(problems)
