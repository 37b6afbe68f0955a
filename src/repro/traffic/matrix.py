"""Seeded traffic-matrix generators over integer server ordinals.

This module is the one source of flow endpoints.  A
:class:`TrafficMatrix` is one numpy record of ``src`` / ``dst`` server
*ordinals* (positions ``0 .. num_servers-1`` into a graph's
``server_indices``) plus per-flow ``size``.  Ordinals — not names — are
the contract that lets the same workload run on an object-built
:class:`~repro.topology.compiled.CompiledGraph`, a lazy-name
:class:`~repro.topology.fastbuild.FastCompiledGraph` and a
:class:`~repro.faults.mask.MaskedGraph` without ever materialising a
name string; :meth:`TrafficMatrix.flows` maps them onto the
:class:`~repro.sim.traffic.Flow` lists the name-keyed routers and the
packet simulator take.

Workload families (the Lebiednik et al. survey's evaluation staples),
each drawn under the law its generator's docstring states:

* ``permutation`` — every server sends one flow and receives one flow,
  along a uniform random single cycle;
* ``all_to_all`` — every ordered pair, optionally subsampled;
* ``uniform`` — independent uniform pairs;
* ``incast`` — many senders converge on few receivers (fan-in);
* ``hot_rack`` — a skewed fraction of all flows targets the servers of
  a few "hot" racks (contiguous ordinal blocks — crossbar blocks on
  the cube families);
* ``job`` — job-placement-driven: a batch of MapReduce-style jobs
  (shuffle / aggregate / disseminate) placed by the
  :mod:`repro.sim.jobs` shapes over the ordinal space.

Every generator is a pure function of ``(num_servers, seed, params)``:
two topologies with equal server counts receive bit-identical matrices.
Every draw reads the raw 64-bit words (``random_raw``) of a ``PCG64``
bit generator seeded through :func:`repro.faults.plan.child_seed`,
through the few primitives of :class:`RawDraws`.  numpy keeps those
raw streams fixed across releases and platforms; it makes no such
promise for the ``Generator`` methods, which this module never calls.

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


_TWO_64 = 1 << 64


class RawDraws:
    """The primitives every draw of this module and of :mod:`repro.sim.jobs`
    goes through, each reading the raw uint64 words of one
    ``PCG64(child_seed(seed, *labels))``."""

    def __init__(self, seed: int, *labels: object) -> None:
        self._raw = _np.random.PCG64(child_seed(seed, *labels)).random_raw

    def order(self, n: int):
        """A uniform random order of ``range(n)``: a stable sort of raw keys
        (exact unless two keys collide, probability below ``n^2 / 2^65``)."""
        return _np.argsort(self._raw(n), kind="stable")

    def below(self, bound: int, size: int):
        """``size`` integers exactly uniform on ``[0, bound)``: a word at or
        above ``2^64 - (2^64 mod bound)`` is rejected and redrawn."""
        words = self._raw(size)
        limit = _TWO_64 - _TWO_64 % int(bound)
        if limit < _TWO_64:
            rejected = _np.flatnonzero(words >= _np.uint64(limit))
            while rejected.size:
                words[rejected] = self._raw(rejected.size)
                rejected = rejected[words[rejected] >= _np.uint64(limit)]
        return (words % _np.uint64(bound)).astype(_np.int64)

    def distinct(self, n: int, k: int):
        """``k`` distinct values of ``range(n)``, uniform over ordered k-subsets.

        For ``k <= n / 2`` each value is a uniform draw that skips the
        values already taken, in draw order, so the work grows with
        ``k``, not ``n``; past that, the first ``k`` of :meth:`order`.
        """
        if k > n:
            raise TrafficError(f"{k} distinct draws exceed the {n} values")
        if 2 * k > n:
            return self.order(n)[:k]
        chosen = _np.empty(0, dtype=_np.int64)
        while chosen.size < k:
            batch = self.below(n, 2 * (k - chosen.size))
            _, first = _np.unique(batch, return_index=True)
            fresh = batch[_np.sort(first)]
            fresh = fresh[~_np.isin(fresh, chosen)]
            chosen = _np.concatenate([chosen, fresh[: k - chosen.size]])
        return chosen

    def unit(self, size: int):
        """``size`` floats uniform on ``[0, 1)``: a word's top 53 bits."""
        return (self._raw(size) >> _np.uint64(11)) * (1.0 / (1 << 53))


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
        """The :class:`~repro.sim.traffic.Flow` list of the matrix.

        ``servers`` maps ordinals to identities (``net.servers`` of a
        built network, any name list); omitted, flows carry the raw
        ordinals, which the :mod:`repro.sim` layer accepts.  Flow ids
        are ``<first four letters of the pattern>-<position>``.  This is
        how name-keyed routers, the packet simulator and the
        experiments get their workloads.
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


def _uniform_pairs(draws: RawDraws, num_servers: int, count: int):
    """``count`` independent uniform pairs of distinct servers."""
    src = draws.below(num_servers, count)
    dst = (src + 1 + draws.below(num_servers - 1, count)) % num_servers
    return src, dst


# ----------------------------------------------------------------------
# generator family
# ----------------------------------------------------------------------
def permutation_matrix(num_servers: int, seed: int = 0) -> TrafficMatrix:
    """A uniform random single cycle: one flow out and one in per server.

    Law: uniform over the ``(S-1)!`` cyclic permutations of the ``S``
    servers (Sattolo's law), so never a fixed point.  Drawn by putting
    the servers in a :meth:`RawDraws.order` and sending each to the
    next in that order, the last to the first.
    """
    _check_servers(num_servers, "permutation")
    order = RawDraws(seed, "traffic", "permutation", num_servers).order(num_servers)
    dst = _np.empty(num_servers, dtype=_np.int64)
    dst[order] = _np.roll(order, -1)
    src = _np.arange(num_servers, dtype=_np.int64)
    return _unit_matrix("permutation", num_servers, src, dst, seed, {})


def all_to_all_matrix(
    num_servers: int, max_flows: Optional[int] = None, seed: int = 0
) -> TrafficMatrix:
    """Every ordered pair — subsampled without replacement past ``max_flows``.

    Law: with no cap (or a cap of at least ``S * (S - 1)``) every
    ordered pair once, in source-major order, with no randomness.
    Under a cap, a uniform random ``max_flows``-subset of the ordered
    pairs in uniform random order: :meth:`RawDraws.distinct` over the
    ``S * (S - 1)`` pair codes, so million-server instances never
    materialise the full pair list.
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
    draws = RawDraws(seed, "traffic", "all_to_all", num_servers, max_flows)
    chosen = draws.distinct(total, max_flows)
    src = chosen // (num_servers - 1)
    rest = chosen % (num_servers - 1)
    dst = (src + 1 + rest) % num_servers
    return _unit_matrix("all_to_all", num_servers, src, dst, seed, params)


def uniform_matrix(num_servers: int, num_flows: int, seed: int = 0) -> TrafficMatrix:
    """``num_flows`` independent uniform source/destination pairs.

    Law: each flow is uniform over the ``S * (S - 1)`` ordered pairs of
    distinct servers, independently: a uniform source, then a uniform
    nonzero gap to the destination.
    """
    _check_servers(num_servers, "uniform")
    if num_flows < 0:
        raise TrafficError(f"uniform: num_flows must be >= 0, got {num_flows}")
    draws = RawDraws(seed, "traffic", "uniform", num_servers, num_flows)
    src, dst = _uniform_pairs(draws, num_servers, num_flows)
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

    Law: the receivers are a uniform ordered ``num_targets``-subset of
    the servers; each receiver's senders, independently, a uniform
    ordered ``fan_in``-subset of the other servers
    (:meth:`RawDraws.distinct`).

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
    draws = RawDraws(seed, "traffic", "incast", num_servers, fan_in, num_targets)
    targets = draws.distinct(num_servers, num_targets)
    srcs = []
    dsts = []
    for target in targets:
        senders = draws.distinct(num_servers - 1, effective)
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

    Law: the hot racks are a uniform ``num_hot_racks``-subset of the
    racks.  Each flow, independently, is hot with probability
    ``hot_fraction`` (a 53-bit unit float below it); a hot flow has a
    uniform destination among the hot servers and a uniform source
    among the others, and every other flow is a uniform pair of
    distinct servers.  On a single-rack topology there is no outside —
    a hot flow's source is uniform over the rack's other servers
    (recorded in the notes), so the pattern degrades to an intra-rack
    hotspot instead of failing.
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
    draws = RawDraws(
        seed, "traffic", "hot_rack", num_servers, rack_size, num_hot_racks, num_flows
    )
    hot_racks = draws.distinct(num_racks, num_hot_racks)
    hot_mask = _np.zeros(num_servers, dtype=bool)
    for rack in hot_racks:
        hot_mask[rack * rack_size : min((rack + 1) * rack_size, num_servers)] = True
    hot_servers = _np.flatnonzero(hot_mask)
    cold_servers = _np.flatnonzero(~hot_mask)

    is_hot_flow = draws.unit(num_flows) < hot_fraction
    num_hot = int(is_hot_flow.sum())
    dst = _np.empty(num_flows, dtype=_np.int64)
    src = _np.empty(num_flows, dtype=_np.int64)
    dst[is_hot_flow] = hot_servers[draws.below(hot_servers.size, num_hot)]
    if cold_servers.size:
        src[is_hot_flow] = cold_servers[draws.below(cold_servers.size, num_hot)]
    else:
        notes.append(
            "every server is in a hot rack (single-rack topology); "
            "senders drawn from inside the rack"
        )
        in_rack = draws.below(num_servers - 1, num_hot)
        src[is_hot_flow] = in_rack + (in_rack >= dst[is_hot_flow])
    src[~is_hot_flow], dst[~is_hot_flow] = _uniform_pairs(
        draws, num_servers, num_flows - num_hot
    )
    return _unit_matrix("hot_rack", num_servers, src, dst, seed, params, notes)


def job_matrix(
    num_servers: int,
    num_jobs: int = 8,
    job_mix: Sequence[str] = ("shuffle", "incast", "disseminate"),
    scale: int = 8,
    seed: int = 0,
) -> TrafficMatrix:
    """Job-placement-driven traffic reusing the :mod:`repro.sim.jobs` shapes.

    Each job draws its placement with the :mod:`repro.sim.jobs` shapes
    over the *ordinal* space (``range(num_servers)``, never copied), so
    the flow set is exactly what a job scheduler placing ``num_jobs``
    MapReduce-style jobs would offer the fabric: shuffles are ``m x r``
    bicliques, aggregates fan in, disseminates fan out.  ``scale``
    bounds the participants per job (clamped to the cluster size).

    Law: job ``j`` has kind ``job_mix[j % len(job_mix)]``, and its
    participants are a uniform ordered subset of the servers, drawn
    independently per job from its own stream; a shuffle's first half
    are mappers, an aggregate's or disseminate's first is its
    coordinator or source.
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
