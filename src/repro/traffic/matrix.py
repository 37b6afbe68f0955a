"""Seeded traffic-matrix generators over integer server ordinals.

A :class:`TrafficMatrix` is the batch-native counterpart of the
:class:`repro.sim.traffic.Flow` lists: one numpy record of ``src`` /
``dst`` server *ordinals* (positions ``0 .. num_servers-1`` into a
graph's ``server_indices``) plus per-flow ``size``.  Ordinals — not
names — are the contract that lets the same workload run on an
object-built :class:`~repro.topology.compiled.CompiledGraph`, a
lazy-name :class:`~repro.topology.fastbuild.FastCompiledGraph` and a
:class:`~repro.faults.mask.MaskedGraph` without ever materialising a
name string.

Workload families (the Lebiednik et al. survey's evaluation staples):

* ``permutation`` — every server sends one flow, receives one flow
  (a derangement);
* ``all_to_all`` — every ordered pair, optionally subsampled;
* ``uniform`` — independent uniform pairs;
* ``incast`` — many senders converge on few receivers (fan-in);
* ``hot_rack`` — a skewed fraction of all flows targets the servers of
  a few "hot" racks (contiguous ordinal blocks — crossbar blocks on
  the cube families);
* ``job`` — job-placement-driven: a batch of MapReduce-style jobs
  (shuffle / aggregate / disseminate) placed by the
  :mod:`repro.sim.jobs` generators over the ordinal space.

Every generator is a pure function of ``(num_servers, seed, params)``:
two topologies with equal server counts receive bit-identical matrices,
and the numpy ``PCG64`` streams (seeded through
:func:`repro.faults.plan.child_seed`) are stable across processes and
platforms — the discipline the paper's cross-family comparisons need.

Degenerate inputs are handled explicitly rather than crashing mid-sweep:
an incast fan-in larger than the available senders is clamped (recorded
in :attr:`TrafficMatrix.notes`), a hot-rack pattern on a single-rack
topology draws its senders from inside the rack, and every generator
raises :class:`TrafficError` below two servers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from repro.faults.plan import child_seed


class TrafficError(ValueError):
    """Raised on unusable traffic-matrix parameters."""


def _rng(seed: int, *labels: object):
    """A process-stable PCG64 generator for one (seed, label) path."""
    return _np.random.Generator(_np.random.PCG64(child_seed(seed, *labels)))


@dataclass(frozen=True)
class TrafficMatrix:
    """One workload: parallel ``src``/``dst``/``size`` flow arrays.

    Attributes:
        pattern: generator name (``"permutation"``, ``"incast"``, …).
        num_servers: ordinal space size the matrix was drawn for.
        src, dst: int64 server ordinals, one entry per flow.
        size: float64 data volume per flow (1.0 unless the generator
            says otherwise).
        seed: the seed the generator consumed.
        params: the caller's parameters, for provenance.
        notes: adjustments applied (clamps, fallbacks).
    """

    pattern: str
    num_servers: int
    src: Any
    dst: Any
    size: Any
    seed: int
    params: Mapping[str, Any] = field(default_factory=dict)
    notes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.src) != len(self.dst) or len(self.src) != len(self.size):
            raise TrafficError("src/dst/size arrays must have equal length")
        if len(self.src) and bool((_np.asarray(self.src) == _np.asarray(self.dst)).any()):
            raise TrafficError(f"{self.pattern}: matrix contains src == dst flows")

    @property
    def num_flows(self) -> int:
        return len(self.src)

    @property
    def total_volume(self) -> float:
        return float(_np.asarray(self.size).sum())

    def flows(self, servers: Optional[Sequence[Any]] = None):
        """The :class:`~repro.sim.traffic.Flow` view of the matrix.

        ``servers`` maps ordinals to identities (names, or the server
        list of a built network); omitted, flows carry the raw ordinals
        — which the :mod:`repro.sim` layer accepts since generators went
        id-agnostic.  This is the bridge to name-based routers.
        """
        from repro.sim.traffic import Flow

        def ident(ordinal: int):
            return servers[ordinal] if servers is not None else int(ordinal)

        prefix = self.pattern[:4]
        return [
            Flow(f"{prefix}-{i}", ident(int(s)), ident(int(d)), size=float(z))
            for i, (s, d, z) in enumerate(zip(self.src, self.dst, self.size))
        ]

    def describe(self) -> str:
        parts = [f"{self.pattern}: {self.num_flows} flows over {self.num_servers} servers"]
        parts.extend(self.notes)
        return "; ".join(parts)


def _unit_matrix(
    pattern: str,
    num_servers: int,
    src,
    dst,
    seed: int,
    params: Mapping[str, Any],
    notes: Sequence[str] = (),
    size=None,
) -> TrafficMatrix:
    src = _np.ascontiguousarray(src, dtype=_np.int64)
    dst = _np.ascontiguousarray(dst, dtype=_np.int64)
    if size is None:
        size = _np.ones(len(src), dtype=_np.float64)
    return TrafficMatrix(
        pattern=pattern,
        num_servers=int(num_servers),
        src=src,
        dst=dst,
        size=size,
        seed=seed,
        params=dict(params),
        notes=tuple(notes),
    )


def _check_servers(num_servers: int, pattern: str) -> None:
    if num_servers < 2:
        raise TrafficError(f"{pattern}: need at least two servers, got {num_servers}")


# ----------------------------------------------------------------------
# generator family
# ----------------------------------------------------------------------
def permutation_matrix(num_servers: int, seed: int = 0) -> TrafficMatrix:
    """A uniform random derangement: one flow out and one in per server.

    Drawn as a random permutation with fixed points repaired by cycling
    them among themselves (one fixed point swaps with a random other
    position) — O(S) numpy work, no per-element Python loop.
    """
    _check_servers(num_servers, "permutation")
    rng = _rng(seed, "traffic", "permutation", num_servers)
    dst = rng.permutation(num_servers)
    src = _np.arange(num_servers, dtype=_np.int64)
    fixed = _np.flatnonzero(dst == src)
    if fixed.size == 1:
        other = int(rng.integers(num_servers - 1))
        if other >= fixed[0]:
            other += 1
        dst[fixed[0]], dst[other] = dst[other], dst[fixed[0]]
    elif fixed.size > 1:
        dst[fixed] = dst[_np.roll(fixed, 1)]
    return _unit_matrix("permutation", num_servers, src, dst, seed, {})


def all_to_all_matrix(
    num_servers: int, max_flows: Optional[int] = None, seed: int = 0
) -> TrafficMatrix:
    """Every ordered pair — subsampled without replacement past ``max_flows``.

    Subsampling rejection-samples unique pair codes from the
    ``S * (S - 1)`` space, so million-server instances never materialise
    the full pair list.
    """
    _check_servers(num_servers, "all_to_all")
    total = num_servers * (num_servers - 1)
    params = {"max_flows": max_flows}
    if max_flows is None or max_flows >= total:
        src = _np.repeat(_np.arange(num_servers, dtype=_np.int64), num_servers - 1)
        offset = _np.tile(_np.arange(1, num_servers, dtype=_np.int64), num_servers)
        dst = (src + offset) % num_servers
        return _unit_matrix("all_to_all", num_servers, src, dst, seed, params)
    if max_flows < 1:
        raise TrafficError(f"all_to_all: max_flows must be >= 1, got {max_flows}")
    rng = _rng(seed, "traffic", "all_to_all", num_servers, max_flows)
    chosen = _np.empty(0, dtype=_np.int64)
    while chosen.size < max_flows:
        draw = rng.integers(0, total, size=2 * (max_flows - chosen.size) + 16)
        chosen = _np.unique(_np.concatenate([chosen, draw]))
    chosen = chosen[rng.permutation(chosen.size)[:max_flows]]
    src = chosen // (num_servers - 1)
    rest = chosen % (num_servers - 1)
    dst = (src + 1 + rest) % num_servers
    return _unit_matrix("all_to_all", num_servers, src, dst, seed, params)


def uniform_matrix(num_servers: int, num_flows: int, seed: int = 0) -> TrafficMatrix:
    """``num_flows`` independent uniform source/destination pairs."""
    _check_servers(num_servers, "uniform")
    if num_flows < 0:
        raise TrafficError(f"uniform: num_flows must be >= 0, got {num_flows}")
    rng = _rng(seed, "traffic", "uniform", num_servers, num_flows)
    src = rng.integers(0, num_servers, size=num_flows)
    gap = rng.integers(1, num_servers, size=num_flows)
    dst = (src + gap) % num_servers
    return _unit_matrix(
        "uniform", num_servers, src, dst, seed, {"num_flows": num_flows}
    )


def incast_matrix(
    num_servers: int,
    fan_in: int,
    num_targets: int = 1,
    seed: int = 0,
) -> TrafficMatrix:
    """Fan-in: ``fan_in`` distinct senders converge on each of
    ``num_targets`` distinct receivers.

    A ``fan_in`` larger than the available senders (``num_servers - 1``)
    is clamped and recorded in the matrix notes — the degenerate "ask
    for more senders than the cluster has" sweep point measures the
    full-cluster incast rather than crashing.
    """
    _check_servers(num_servers, "incast")
    if fan_in < 1:
        raise TrafficError(f"incast: fan_in must be >= 1, got {fan_in}")
    if not 1 <= num_targets <= num_servers:
        raise TrafficError(
            f"incast: num_targets must be in [1, {num_servers}], got {num_targets}"
        )
    params = {"fan_in": fan_in, "num_targets": num_targets}
    notes: List[str] = []
    effective = fan_in
    if fan_in > num_servers - 1:
        effective = num_servers - 1
        notes.append(
            f"fan_in={fan_in} exceeds {num_servers - 1} available senders; "
            f"clamped to {effective}"
        )
    rng = _rng(seed, "traffic", "incast", num_servers, fan_in, num_targets)
    targets = rng.choice(num_servers, size=num_targets, replace=False)
    srcs = []
    dsts = []
    for target in targets:
        senders = rng.choice(num_servers - 1, size=effective, replace=False)
        senders = senders + (senders >= target)  # skip the receiver itself
        srcs.append(senders)
        dsts.append(_np.full(effective, target, dtype=_np.int64))
    return _unit_matrix(
        "incast",
        num_servers,
        _np.concatenate(srcs),
        _np.concatenate(dsts),
        seed,
        params,
        notes,
    )


def hot_rack_matrix(
    num_servers: int,
    num_flows: int,
    rack_size: int = 40,
    num_hot_racks: int = 1,
    hot_fraction: float = 0.7,
    seed: int = 0,
) -> TrafficMatrix:
    """Skewed traffic toward a few hot racks.

    Racks are contiguous ordinal blocks of ``rack_size`` servers (the
    crossbar blocks, when ``rack_size`` is the crossbar size).
    ``hot_fraction`` of the flows pick a uniform destination inside a
    hot rack and a uniform source outside all hot racks; the remainder
    are uniform pairs.  On a single-rack topology there is no outside —
    sources fall back to in-rack servers (recorded in the notes), so
    the pattern degrades to an intra-rack hotspot instead of failing.
    """
    _check_servers(num_servers, "hot_rack")
    if rack_size < 1:
        raise TrafficError(f"hot_rack: rack_size must be >= 1, got {rack_size}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise TrafficError(
            f"hot_rack: hot_fraction must be in [0, 1], got {hot_fraction}"
        )
    if num_flows < 0:
        raise TrafficError(f"hot_rack: num_flows must be >= 0, got {num_flows}")
    num_racks = (num_servers + rack_size - 1) // rack_size
    if not 1 <= num_hot_racks <= num_racks:
        raise TrafficError(
            f"hot_rack: num_hot_racks must be in [1, {num_racks}], got {num_hot_racks}"
        )
    params = {
        "num_flows": num_flows,
        "rack_size": rack_size,
        "num_hot_racks": num_hot_racks,
        "hot_fraction": hot_fraction,
    }
    notes: List[str] = []
    rng = _rng(
        seed, "traffic", "hot_rack", num_servers, rack_size, num_hot_racks, num_flows
    )
    hot_racks = rng.choice(num_racks, size=num_hot_racks, replace=False)
    hot_mask = _np.zeros(num_servers, dtype=bool)
    for rack in hot_racks:
        hot_mask[rack * rack_size : min((rack + 1) * rack_size, num_servers)] = True
    hot_servers = _np.flatnonzero(hot_mask)
    cold_servers = _np.flatnonzero(~hot_mask)

    is_hot_flow = rng.random(num_flows) < hot_fraction
    num_hot = int(is_hot_flow.sum())
    dst = _np.empty(num_flows, dtype=_np.int64)
    src = _np.empty(num_flows, dtype=_np.int64)
    dst[is_hot_flow] = hot_servers[rng.integers(0, hot_servers.size, size=num_hot)]
    if cold_servers.size:
        src[is_hot_flow] = cold_servers[
            rng.integers(0, cold_servers.size, size=num_hot)
        ]
    else:
        notes.append(
            "every server is in a hot rack (single-rack topology); "
            "senders drawn from inside the rack"
        )
        in_rack = rng.integers(0, num_servers - 1, size=num_hot)
        src[is_hot_flow] = in_rack + (in_rack >= dst[is_hot_flow])
    num_cold = num_flows - num_hot
    cold_src = rng.integers(0, num_servers, size=num_cold)
    cold_gap = rng.integers(1, num_servers, size=num_cold)
    src[~is_hot_flow] = cold_src
    dst[~is_hot_flow] = (cold_src + cold_gap) % num_servers
    return _unit_matrix("hot_rack", num_servers, src, dst, seed, params, notes)


def job_matrix(
    num_servers: int,
    num_jobs: int = 8,
    job_mix: Sequence[str] = ("shuffle", "incast", "disseminate"),
    scale: int = 8,
    seed: int = 0,
) -> TrafficMatrix:
    """Job-placement-driven traffic reusing the :mod:`repro.sim.jobs` shapes.

    Each job draws its placement with the :func:`repro.sim.jobs`
    generators over the *ordinal* space (they are id-agnostic), so the
    flow set is exactly what a job scheduler placing ``num_jobs``
    MapReduce-style jobs would offer the fabric: shuffles are ``m x r``
    bicliques, aggregates fan in, disseminates fan out.  ``scale``
    bounds the participants per job (clamped to the cluster size).
    """
    _check_servers(num_servers, "job")
    if num_jobs < 1:
        raise TrafficError(f"job: num_jobs must be >= 1, got {num_jobs}")
    if scale < 2:
        raise TrafficError(f"job: scale must be >= 2, got {scale}")
    for kind in job_mix:
        if kind not in ("shuffle", "incast", "disseminate"):
            raise TrafficError(f"job: unknown job kind {kind!r} in job_mix")
    if not job_mix:
        raise TrafficError("job: job_mix must not be empty")
    from repro.sim.jobs import disseminate_job, incast_job, shuffle_job

    params = {"num_jobs": num_jobs, "job_mix": tuple(job_mix), "scale": scale}
    notes: List[str] = []
    effective_scale = min(scale, num_servers - 1)
    if effective_scale < scale:
        notes.append(f"scale={scale} clamped to {effective_scale} participants")
    ordinals = range(num_servers)
    srcs: List[int] = []
    dsts: List[int] = []
    sizes: List[float] = []
    for j in range(num_jobs):
        kind = job_mix[j % len(job_mix)]
        job_seed = child_seed(seed, "traffic", "job", num_servers, j, kind)
        if kind == "shuffle":
            mappers = max(effective_scale // 2, 1)
            reducers = max(effective_scale - mappers, 1)
            job = shuffle_job(f"j{j}", 0.0, ordinals, mappers, reducers, seed=job_seed)
        elif kind == "incast":
            job = incast_job(f"j{j}", 0.0, ordinals, effective_scale, seed=job_seed)
        else:
            job = disseminate_job(
                f"j{j}", 0.0, ordinals, effective_scale, seed=job_seed
            )
        for flow in job.flows:
            srcs.append(int(flow.src))
            dsts.append(int(flow.dst))
            sizes.append(float(flow.size))
    return _unit_matrix(
        "job",
        num_servers,
        _np.asarray(srcs, dtype=_np.int64),
        _np.asarray(dsts, dtype=_np.int64),
        seed,
        params,
        notes,
        size=_np.asarray(sizes, dtype=_np.float64),
    )


#: pattern name -> generator.  All take ``(num_servers, seed=, **params)``.
MATRICES: Dict[str, Callable[..., TrafficMatrix]] = {
    "permutation": permutation_matrix,
    "all_to_all": all_to_all_matrix,
    "uniform": uniform_matrix,
    "incast": incast_matrix,
    "hot_rack": hot_rack_matrix,
    "job": job_matrix,
}

#: sensible scale-aware defaults per pattern when the caller gives none.
def default_params(pattern: str, num_servers: int) -> Dict[str, Any]:
    """Parameters that make ``pattern`` meaningful at ``num_servers``."""
    if pattern == "all_to_all":
        return {"max_flows": min(num_servers * (num_servers - 1), 4 * num_servers)}
    if pattern == "uniform":
        return {"num_flows": 2 * num_servers}
    if pattern == "incast":
        return {"fan_in": min(64, num_servers - 1), "num_targets": max(num_servers // 512, 1)}
    if pattern == "hot_rack":
        return {"num_flows": 2 * num_servers, "rack_size": min(40, num_servers)}
    if pattern == "job":
        return {"num_jobs": max(num_servers // 128, 8)}
    return {}


def generate_matrix(
    pattern: str, num_servers: int, seed: int = 0, **params: Any
) -> TrafficMatrix:
    """Dispatch to a generator by name, filling scale-aware defaults."""
    try:
        generator = MATRICES[pattern]
    except KeyError:
        raise TrafficError(
            f"unknown traffic pattern {pattern!r}; "
            f"available: {', '.join(sorted(MATRICES))}"
        ) from None
    merged = default_params(pattern, num_servers)
    merged.update(params)
    return generator(num_servers, seed=seed, **merged)
