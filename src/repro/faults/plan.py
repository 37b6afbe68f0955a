"""Unified fault models: scenarios, plans, and seed-streamed generators.

This module is the single home for failure draws:

* :class:`FailureScenario` — the *what*: which servers, switches and
  links are dead.  :class:`~repro.faults.mask.MaskedGraph` applies one
  to a compiled graph.
* :class:`FaultPlan` — a scenario plus full provenance: the model that
  produced it, the requested parameters, the seed, and the *effective*
  dead counts (what a fraction actually rounded to on this instance).
* Generators — :func:`random_failures`, :func:`rack_failures`,
  :func:`explicit_failures` and the churn up/down process
  :func:`churn_events` — all derive their randomness from one
  seed-streaming scheme (:func:`child_seed`), so every consumer gets an
  independent, process-stable stream from a single experiment seed.

Rounding guard: ``round(fraction * population)`` silently selects zero
components on small quick-mode instances (5% of 8 switches is 0.4 → 0),
which made quick runs measure an *unfailed* network.  A nonzero fraction
now floors at one dead component and emits a
:class:`FaultRoundingWarning`; the adjustment is recorded on the plan.
"""

from __future__ import annotations

import hashlib
import random
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.topology.graph import Network


class FaultRoundingWarning(UserWarning):
    """A nonzero failure fraction rounded to zero and was floored to 1."""


@dataclass(frozen=True)
class FailureScenario:
    """One failure draw: the dead component sets."""

    dead_servers: Tuple[str, ...]
    dead_switches: Tuple[str, ...]
    dead_links: Tuple[Tuple[str, str], ...]

    @property
    def is_empty(self) -> bool:
        return not (self.dead_servers or self.dead_switches or self.dead_links)


@dataclass(frozen=True)
class FaultPlan:
    """A :class:`FailureScenario` with full provenance.

    Attributes:
        model: generator name (``"random"``, ``"rack"``, ``"explicit"``).
        scenario: the dead component sets.
        seed: the seed the generator consumed (``None`` for explicit).
        requested: the caller's parameters (fractions, rack count, …).
        effective: actual dead counts per component class.
        notes: human-readable adjustments (e.g. rounding floors).
    """

    model: str
    scenario: FailureScenario
    seed: Optional[int]
    requested: Mapping[str, float] = field(default_factory=dict)
    effective: Mapping[str, int] = field(default_factory=dict)
    notes: Tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return self.scenario.is_empty


def _effective_counts(scenario: FailureScenario) -> Dict[str, int]:
    return {
        "dead_servers": len(scenario.dead_servers),
        "dead_switches": len(scenario.dead_switches),
        "dead_links": len(scenario.dead_links),
    }


# ----------------------------------------------------------------------
# seed streaming
# ----------------------------------------------------------------------
def child_seed(seed: int, *labels: object) -> int:
    """A stable child seed derived from ``seed`` and a label path.

    Unlike ``hash()``, the derivation is independent of
    ``PYTHONHASHSEED`` and of the process, so worker pools, resumed runs
    and re-ordered loops all see the same stream for the same labels.
    """
    text = ":".join([str(int(seed))] + [str(label) for label in labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seed_stream(seed: int, *labels: object) -> random.Random:
    """An independent :class:`random.Random` for one (seed, label) path."""
    return random.Random(child_seed(seed, *labels))


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
_SORTED_COMPONENTS_KEY = "_fault_components"


def _sorted_components(net: Network):
    """``(servers, switches, link_keys)`` sorted; cached on ``net.meta``.

    Random draws sample from sorted name lists so the draw depends only
    on the network's content, not its construction order.  The sort is
    O(N log N) per call, which dominates a masked trial — cache it keyed
    on :attr:`Network.version` like the compiled views.
    """
    cache = net.meta.get(_SORTED_COMPONENTS_KEY)
    if not isinstance(cache, dict) or cache.get("version") != net.version:
        cache = {
            "version": net.version,
            "servers": sorted(net.servers),
            "switches": sorted(net.switches),
            "links": sorted(link.key for link in net.links()),
        }
        net.meta[_SORTED_COMPONENTS_KEY] = cache
    return cache["servers"], cache["switches"], cache["links"]


def _dead_count(
    fraction: float, population: int, kind: str, notes: List[str]
) -> int:
    count = round(fraction * population)
    if fraction > 0.0 and population > 0 and count == 0:
        note = (
            f"{kind}_fraction={fraction} rounds to zero of {population} "
            f"{kind}s; floored to 1 dead {kind}"
        )
        warnings.warn(FaultRoundingWarning(note), stacklevel=4)
        notes.append(note)
        count = 1
    return count


def random_failures(
    net: Network,
    server_fraction: float = 0.0,
    switch_fraction: float = 0.0,
    link_fraction: float = 0.0,
    seed: int = 0,
) -> FaultPlan:
    """Fail a uniform random fraction of each component class.

    The sampling protocol is one ``random.Random(seed)``, servers then
    switches then links, populations in sorted name order; the F8 and
    E6 tables depend on it, and ``tests/test_faults_plan.py`` pins the
    names it draws.  Nonzero fractions floor at one dead component (see
    :class:`FaultRoundingWarning`).
    """
    for name, fraction in (
        ("server", server_fraction),
        ("switch", switch_fraction),
        ("link", link_fraction),
    ):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"{name}_fraction must be in [0, 1], got {fraction}")
    rng = random.Random(seed)
    servers, switches, links = _sorted_components(net)
    notes: List[str] = []

    def _draw(population, count):
        # sample(pop, 0) consumes no RNG state, so skipping it entirely
        # is stream-identical to the historic protocol — just faster.
        return tuple(rng.sample(population, count)) if count else ()

    scenario = FailureScenario(
        dead_servers=_draw(
            servers, _dead_count(server_fraction, len(servers), "server", notes)
        ),
        dead_switches=_draw(
            switches, _dead_count(switch_fraction, len(switches), "switch", notes)
        ),
        dead_links=_draw(
            links, _dead_count(link_fraction, len(links), "link", notes)
        ),
    )
    return FaultPlan(
        model="random",
        scenario=scenario,
        seed=seed,
        requested={
            "server_fraction": server_fraction,
            "switch_fraction": switch_fraction,
            "link_fraction": link_fraction,
        },
        effective=_effective_counts(scenario),
        notes=tuple(notes),
    )


_RACK_CACHE_KEY = "_fault_racks"


def rack_assignment(net: Network, rack_capacity: int) -> Dict[str, str]:
    """The layout model's rack map, cached per (network version, capacity)."""
    cache = net.meta.get(_RACK_CACHE_KEY)
    if (
        not isinstance(cache, dict)
        or cache.get("version") != net.version
        or cache.get("capacity") != rack_capacity
    ):
        from repro.metrics.layout import LayoutConfig, assign_racks

        cache = {
            "version": net.version,
            "capacity": rack_capacity,
            "racks": assign_racks(net, LayoutConfig(rack_capacity=rack_capacity)),
        }
        net.meta[_RACK_CACHE_KEY] = cache
    return cache["racks"]


def rack_failures(
    net: Network,
    num_racks: int,
    rack_capacity: int = 40,
    seed: int = 0,
) -> FaultPlan:
    """Correlated failure: whole racks go dark (PDU/cooling events).

    Uses the same address-order rack assignment as the layout model
    (:mod:`repro.metrics.layout`) and kills every server *and switch*
    placed in ``num_racks`` randomly chosen racks.
    """
    racks = rack_assignment(net, rack_capacity)
    all_racks = sorted(set(racks.values()))
    if not 0 <= num_racks <= len(all_racks):
        raise ValueError(f"num_racks must be in [0, {len(all_racks)}], got {num_racks}")
    rng = random.Random(seed)
    dead_racks = set(rng.sample(all_racks, num_racks))
    scenario = FailureScenario(
        dead_servers=tuple(
            sorted(name for name in net.servers if racks[name] in dead_racks)
        ),
        dead_switches=tuple(
            sorted(name for name in net.switches if racks[name] in dead_racks)
        ),
        dead_links=(),
    )
    return FaultPlan(
        model="rack",
        scenario=scenario,
        seed=seed,
        requested={"num_racks": num_racks, "rack_capacity": rack_capacity},
        effective=_effective_counts(scenario),
    )


def explicit_failures(
    dead_servers: Iterable[str] = (),
    dead_switches: Iterable[str] = (),
    dead_links: Iterable[Tuple[str, str]] = (),
) -> FaultPlan:
    """Wrap a hand-picked failure set in a provenance-carrying plan."""
    scenario = FailureScenario(
        dead_servers=tuple(dead_servers),
        dead_switches=tuple(dead_switches),
        dead_links=tuple(dead_links),
    )
    return FaultPlan(
        model="explicit",
        scenario=scenario,
        seed=None,
        effective=_effective_counts(scenario),
    )


# ----------------------------------------------------------------------
# index-based plans (lazy-name fast graphs never resolve a name)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IndexFaultPlan:
    """A failure draw expressed in node ids and edge ids, with provenance.

    The fast-built graphs keep their name tables lazy; resolving a
    scenario's name strings would materialise exactly what the fast path
    avoids.  An :class:`IndexFaultPlan` stays in the compiled id space:
    ``dead_nodes`` are node ids (servers or switches), ``dead_edges``
    are positions into ``edge_u``/``edge_v``.  Apply with
    :meth:`repro.faults.mask.MaskedGraph.from_indices`.
    """

    model: str
    dead_nodes: Tuple[int, ...]
    dead_edges: Tuple[int, ...]
    seed: Optional[int]
    requested: Mapping[str, float] = field(default_factory=dict)
    effective: Mapping[str, int] = field(default_factory=dict)
    notes: Tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.dead_nodes or self.dead_edges)


def random_index_failures(
    graph,
    server_fraction: float = 0.0,
    switch_fraction: float = 0.0,
    link_fraction: float = 0.0,
    seed: int = 0,
) -> IndexFaultPlan:
    """Uniform random failures drawn directly over a compiled graph.

    The populations are the graph's server node ids, switch node ids
    (every non-server node) and edge ids; each class draws from its own
    :func:`child_seed` PCG64 stream, so the plan is stable across
    processes and independent of draw order.  Nonzero fractions floor at
    one dead component (:class:`FaultRoundingWarning`), matching
    :func:`random_failures`.

    This is the name-free twin of :func:`random_failures`, not a
    stream-compatible replacement: the name-based protocol samples
    sorted *name* lists with one shared ``random.Random``.
    """
    import numpy as np

    for name, fraction in (
        ("server", server_fraction),
        ("switch", switch_fraction),
        ("link", link_fraction),
    ):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"{name}_fraction must be in [0, 1], got {fraction}")

    servers = np.sort(np.asarray(graph.server_indices, dtype=np.int64))
    is_server = np.zeros(graph.num_nodes, dtype=bool)
    is_server[servers] = True
    switches = np.flatnonzero(~is_server)
    num_edges = len(graph.edge_u)
    notes: List[str] = []

    def _draw(population, fraction: float, kind: str, label: str):
        count = _dead_count(fraction, len(population), kind, notes)
        if not count:
            return np.empty(0, dtype=np.int64)
        rng = np.random.Generator(np.random.PCG64(child_seed(seed, "faults", label)))
        return np.sort(population[rng.choice(len(population), count, replace=False)])

    dead_servers = _draw(servers, server_fraction, "server", "servers")
    dead_switches = _draw(switches, switch_fraction, "switch", "switches")
    dead_edges = _draw(
        np.arange(num_edges, dtype=np.int64), link_fraction, "link", "links"
    )
    return IndexFaultPlan(
        model="random-index",
        dead_nodes=tuple(int(i) for i in dead_servers)
        + tuple(int(i) for i in dead_switches),
        dead_edges=tuple(int(e) for e in dead_edges),
        seed=seed,
        requested={
            "server_fraction": server_fraction,
            "switch_fraction": switch_fraction,
            "link_fraction": link_fraction,
        },
        effective={
            "dead_servers": int(len(dead_servers)),
            "dead_switches": int(len(dead_switches)),
            "dead_links": int(len(dead_edges)),
        },
        notes=tuple(notes),
    )


# ----------------------------------------------------------------------
# level-parameterised models (what a degradation sweep iterates over)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultModel:
    """A family of failure draws parameterised by a severity *level*.

    ``kind`` selects what a level means:

    * ``"server"`` / ``"switch"`` / ``"link"`` — level is the failed
      fraction of that component class;
    * ``"server+switch"`` — level is applied to servers and switches
      simultaneously (the F8b/E6 setting);
    * ``"rack"`` — level is the integer number of dead racks
      (``rack_capacity`` sizes them).
    """

    kind: str
    rack_capacity: int = 40

    _KINDS = ("server", "switch", "link", "server+switch", "rack")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")

    def draw(self, net: Network, level: float, seed: int) -> FaultPlan:
        """One plan at ``level`` severity from the model's distribution."""
        if self.kind == "rack":
            return rack_failures(
                net, int(level), rack_capacity=self.rack_capacity, seed=seed
            )
        fractions = {
            "server_fraction": level if self.kind in ("server", "server+switch") else 0.0,
            "switch_fraction": level if self.kind in ("switch", "server+switch") else 0.0,
            "link_fraction": level if self.kind == "link" else 0.0,
        }
        return random_failures(net, seed=seed, **fractions)


# ----------------------------------------------------------------------
# churn: the continuous up/down process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnEvent:
    """One component state transition in a churn realisation."""

    time: float
    component: str
    up: bool  # True = repaired, False = failed


def churn_events(
    lifetimes: Mapping[str, Tuple[float, float]],
    duration: float,
    seed: int = 0,
) -> List[ChurnEvent]:
    """A deterministic realisation of the exponential up/down process.

    ``lifetimes`` maps each component name to ``(mtbf, mttr)``.  Every
    component alternates UP → (fail) → DOWN → (repair) → UP with
    exponential holding times drawn from its *own* child stream
    (:func:`seed_stream` keyed on the component name), so a realisation
    is independent of dict ordering and reproducible across processes.
    Events are returned sorted by ``(time, component)``; all times are
    strictly below ``duration``.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    events: List[ChurnEvent] = []
    for component in sorted(lifetimes):
        mtbf, mttr = lifetimes[component]
        if mtbf <= 0 or mttr <= 0:
            raise ValueError(
                f"mtbf/mttr must be positive for {component!r}, got ({mtbf}, {mttr})"
            )
        rng = seed_stream(seed, "churn", component)
        now = rng.expovariate(1.0 / mtbf)
        up = False  # the first transition is a failure
        while now < duration:
            events.append(ChurnEvent(now, component, up))
            now += rng.expovariate(1.0 / (mtbf if up else mttr))
            up = not up
    events.sort(key=lambda event: (event.time, event.component))
    return events
