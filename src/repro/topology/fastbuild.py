"""Direct-to-CSR vectorized topology constructors for cube-based families.

ABCCC, BCCC and BCube are *algebraically* defined: every node and every
cable is a closed-form function of an address-space position (Li & Yang,
ICDCS 2015).  The object-graph builders in :mod:`repro.core.topology`
and :mod:`repro.baselines` realise that algebra one ``Node`` at a time —
perfect as a readable oracle, but at datacenter scale the per-node
Python objects, name strings and dict adjacency dominate the build by
orders of magnitude and cap practical instance sizes far below the
10^5–10^6 servers the paper argues about.

This module generates the compiled CSR arrays **directly** from
vectorized numpy digit arithmetic over the address space:

* node ids are arithmetic — a :class:`FastLayout` maps ``(crossbar,
  slot)`` / ``(level, rest)`` positions to dense indices in exactly the
  order the object builder would have inserted them, so the resulting
  CSR is *identical* (same ``indptr``/``indices`` bytes after the
  canonical per-row sort both paths apply) to compiling the built
  ``Network``;
* the adjacency is produced as bulk edge arrays (compact ``uint32``)
  and packed into CSR with one ``lexsort`` — no ``Node`` objects, no
  dict graph, no name strings;
* node-kind / role / address / name tables are *lazy*: names are
  re-derived arithmetically per lookup instead of being materialised,
  so a million-server graph costs tens of megabytes, not gigabytes;
* ``memmap_dir=`` optionally backs the large arrays with
  memory-mapped files for instances that should not live in RAM.

The object path stays the **parity oracle**: ``compile_graph(spec.build())``
compiles the built ``Network``, and the test suite checks the two agree
exactly on small instances of every family (``tests/csr_oracle.py``).

The result is a :class:`FastCompiledGraph`, a drop-in
:class:`~repro.topology.compiled.CompiledGraph`: the sweep engine,
``MaskedGraph`` fault trials and the CLI consume it unchanged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.address import (
    AddressError,
    CrossbarSwitchAddress,
    LevelSwitchAddress,
    ServerAddress,
)
from repro.obs import trace as _obs
from repro.topology.compiled import CompiledGraph

#: node-kind codes in the fast tables (uint8).
KIND_SERVER = 0
KIND_CROSSBAR_SWITCH = 1
KIND_LEVEL_SWITCH = 2

#: families with a vectorized constructor.
FAST_FAMILIES = ("abccc", "bccc", "bcube")


class FastBuildError(ValueError):
    """Raised when a spec cannot be fast-built (unsupported or too big)."""


# ----------------------------------------------------------------------
# the address-space layout: node ids as arithmetic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FastLayout:
    """Dense node-id layout of one cube-family instance.

    The id space replays the object builder's insertion order exactly:

    * first the crossbar blocks — per crossbar, the crossbar switch (if
      any) followed by its ``crossbar_size`` servers;
    * then the level switches, level-major, rest-digits in
      ``itertools.product`` order.

    ``msb_crossbar_order`` captures the one divergence between the
    builders: :func:`repro.core.topology.build_abccc` enumerates
    crossbars in *rank* order (digit 0 fastest), while the independent
    BCCC / BCube builders iterate ``itertools.product`` (digit 0
    slowest).  Both orders are pure positional arithmetic.

    Attributes:
        family: ``"abccc"`` / ``"bccc"`` / ``"bcube"``.
        n: switch radix (digit base).
        k: order; digit vectors have ``k + 1`` positions.
        s: NIC ports per server (2 for BCCC, ``k + 1`` for BCube).
        crossbar_size: servers per crossbar block (1 when degenerate).
        has_crossbar_switch: whether blocks start with a crossbar switch.
        msb_crossbar_order: crossbar enumeration order (see above).
    """

    family: str
    n: int
    k: int
    s: int
    crossbar_size: int
    has_crossbar_switch: bool
    msb_crossbar_order: bool

    # -- derived sizes -------------------------------------------------
    @property
    def levels(self) -> int:
        return self.k + 1

    @property
    def num_crossbars(self) -> int:
        return self.n**self.levels

    @property
    def block_stride(self) -> int:
        return self.crossbar_size + (1 if self.has_crossbar_switch else 0)

    @property
    def level_switch_base(self) -> int:
        """First node id of the level-switch block."""
        return self.num_crossbars * self.block_stride

    @property
    def num_rest(self) -> int:
        """Level switches per level, ``n^k``."""
        return self.n**self.k

    @property
    def num_level_switches(self) -> int:
        return self.levels * self.num_rest

    @property
    def num_nodes(self) -> int:
        return self.level_switch_base + self.num_level_switches

    @property
    def num_servers(self) -> int:
        return self.num_crossbars * self.crossbar_size

    @property
    def num_switches(self) -> int:
        crossbars = self.num_crossbars if self.has_crossbar_switch else 0
        return crossbars + self.num_level_switches

    @property
    def num_edges(self) -> int:
        crossbar_links = self.num_servers if self.has_crossbar_switch else 0
        return crossbar_links + self.levels * self.num_crossbars

    def owner_of(self, level: int) -> int:
        """In-crossbar slot of the server wired to ``level``'s switch."""
        if self.family == "bcube":
            return 0
        return level // (self.s - 1)

    # -- digit <-> enumeration-index arithmetic ------------------------
    def crossbar_digits(self, enum: int) -> Tuple[int, ...]:
        """Level-indexed digit vector of crossbar enumeration index."""
        n, levels = self.n, self.levels
        if self.msb_crossbar_order:
            return tuple((enum // n ** (levels - 1 - p)) % n for p in range(levels))
        return tuple((enum // n**p) % n for p in range(levels))

    def crossbar_enum(self, digits: Sequence[int]) -> int:
        """Inverse of :meth:`crossbar_digits` (digits not validated)."""
        n, levels = self.n, self.levels
        if self.msb_crossbar_order:
            return sum(d * n ** (levels - 1 - p) for p, d in enumerate(digits))
        return sum(d * n**p for p, d in enumerate(digits))

    def _check_digits(self, digits: Sequence[int]) -> Tuple[int, ...]:
        digits = tuple(digits)
        if len(digits) != self.levels:
            raise AddressError(
                f"expected {self.levels} digits, got {len(digits)}"
            )
        for d in digits:
            if not 0 <= d < self.n:
                raise AddressError(f"digit {d} out of range [0, {self.n})")
        return digits

    # -- node id -> identity -------------------------------------------
    def describe(self, node: int) -> Tuple[int, Tuple[int, ...], int]:
        """``(kind_code, digits-or-rest, slot-or-level)`` of a node id."""
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node id {node} out of range [0, {self.num_nodes})")
        base = self.level_switch_base
        if node < base:
            stride = self.block_stride
            enum, slot = divmod(node, stride)
            digits = self.crossbar_digits(enum)
            if self.has_crossbar_switch:
                if slot == 0:
                    return KIND_CROSSBAR_SWITCH, digits, 0
                return KIND_SERVER, digits, slot - 1
            return KIND_SERVER, digits, slot
        level, rest_rank = divmod(node - base, self.num_rest)
        n, k = self.n, self.k
        rest = tuple((rest_rank // n ** (k - 1 - p)) % n for p in range(k))
        return KIND_LEVEL_SWITCH, rest, level

    def name_of(self, node: int) -> str:
        """Canonical node name — identical to the object builder's."""
        kind, digits, extra = self.describe(node)
        if kind == KIND_SERVER:
            if self.family == "bcube":
                return "s" + ".".join(str(d) for d in reversed(digits))
            return ServerAddress(digits, extra).name
        if kind == KIND_CROSSBAR_SWITCH:
            return CrossbarSwitchAddress(digits).name
        return LevelSwitchAddress(extra, digits).name

    def address_of(self, node: int) -> Any:
        """The structured address the object builder would attach."""
        kind, digits, extra = self.describe(node)
        if kind == KIND_SERVER:
            return digits if self.family == "bcube" else ServerAddress(digits, extra)
        if kind == KIND_CROSSBAR_SWITCH:
            return CrossbarSwitchAddress(digits)
        return LevelSwitchAddress(extra, digits)

    def role_of(self, node: int) -> str:
        kind = self.describe(node)[0]
        if kind == KIND_CROSSBAR_SWITCH:
            return "crossbar"
        if kind == KIND_LEVEL_SWITCH:
            return "level"
        return ""

    # -- name -> node id -----------------------------------------------
    def node_id(self, name: str) -> int:
        """Dense id of a canonical node name; raises ``KeyError``."""
        try:
            return self._node_id(name)
        except (AddressError, ValueError, IndexError):
            raise KeyError(name) from None

    def _node_id(self, name: str) -> int:
        if name.startswith("l"):
            addr = LevelSwitchAddress.parse(name)
            if not 0 <= addr.level < self.levels or len(addr.rest) != self.k:
                raise KeyError(name)
            n, k = self.n, self.k
            rest_rank = 0
            for p, d in enumerate(addr.rest):
                if not 0 <= d < n:
                    raise KeyError(name)
                rest_rank += d * n ** (k - 1 - p)
            return self.level_switch_base + addr.level * self.num_rest + rest_rank
        if name.startswith("c"):
            if not self.has_crossbar_switch:
                raise KeyError(name)
            digits = self._check_digits(CrossbarSwitchAddress.parse(name).digits)
            return self.crossbar_enum(digits) * self.block_stride
        if name.startswith("s"):
            if self.family == "bcube":
                if "/" in name:
                    raise KeyError(name)
                digits = self._check_digits(
                    tuple(reversed([int(p) for p in name[1:].split(".")]))
                )
                return self.crossbar_enum(digits)
            addr = ServerAddress.parse(name)
            digits = self._check_digits(addr.digits)
            if not 0 <= addr.index < self.crossbar_size:
                raise KeyError(name)
            offset = 1 if self.has_crossbar_switch else 0
            return self.crossbar_enum(digits) * self.block_stride + offset + addr.index
        raise KeyError(name)

    def label(self) -> str:
        """Filesystem-safe instance label, e.g. ``abccc-n8-k4-s2``."""
        if self.family == "bcube":
            return f"bcube-n{self.n}-k{self.k}"
        return f"{self.family}-n{self.n}-k{self.k}-s{self.s}"


# ----------------------------------------------------------------------
# lazy name / index tables
# ----------------------------------------------------------------------
class LazyNames(Sequence):
    """Tuple-like view of all node names, derived arithmetically.

    Nothing is materialised: ``names[i]`` re-derives one name from the
    layout, iteration yields them in id order, and ``len`` is a closed
    form — a million-node graph carries no name storage at all.
    """

    __slots__ = ("_layout",)

    def __init__(self, layout: FastLayout) -> None:
        self._layout = layout

    def __len__(self) -> int:
        return self._layout.num_nodes

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self._layout.name_of(i) for i in range(*item.indices(len(self)))]
        i = int(item)
        if i < 0:
            i += len(self)
        return self._layout.name_of(i)

    def __iter__(self) -> Iterator[str]:
        name_of = self._layout.name_of
        for i in range(self._layout.num_nodes):
            yield name_of(i)

    def __contains__(self, name: object) -> bool:
        try:
            self._layout.node_id(name)  # type: ignore[arg-type]
            return True
        except (KeyError, AttributeError, TypeError):
            return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<LazyNames of {self._layout.label()}: {len(self)} nodes>"


class LazyIndex:
    """Dict-like name -> id lookup backed by address parsing.

    Supports the mapping surface the metric/fault layers use
    (``[]``, ``.get``, ``in``, ``len``, iteration) without ever holding
    a dict of a million strings: each lookup parses the name and
    computes the id arithmetically.
    """

    __slots__ = ("_layout",)

    def __init__(self, layout: FastLayout) -> None:
        self._layout = layout

    def __getitem__(self, name: str) -> int:
        return self._layout.node_id(name)

    def get(self, name: str, default: Optional[int] = None) -> Optional[int]:
        try:
            return self._layout.node_id(name)
        except KeyError:
            return default

    def __contains__(self, name: object) -> bool:
        try:
            self._layout.node_id(name)  # type: ignore[arg-type]
            return True
        except (KeyError, AttributeError, TypeError):
            return False

    def __len__(self) -> int:
        return self._layout.num_nodes

    def __iter__(self) -> Iterator[str]:
        return iter(LazyNames(self._layout))

    def items(self) -> Iterator[Tuple[str, int]]:
        for i, name in enumerate(LazyNames(self._layout)):
            yield name, i

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<LazyIndex of {self._layout.label()}: {len(self)} nodes>"


# ----------------------------------------------------------------------
# the fast compiled graph
# ----------------------------------------------------------------------
class FastCompiledGraph(CompiledGraph):
    """A :class:`CompiledGraph` generated without an object graph.

    Same CSR arrays, same kernels, same pickle-to-workers behavior —
    but ``names`` / ``index`` are lazy arithmetic views (tuple-like and
    dict-like respectively), ``edge_capacity`` is a lazy unit array,
    and the instance carries its :class:`FastLayout` so node kinds,
    roles and structured addresses stay queryable per id.
    """

    __slots__ = ("layout", "_names_view", "_index_view", "_capacity")

    def __init__(
        self, layout: FastLayout, offsets, neighbors, server_indices, edge_u, edge_v
    ) -> None:
        self.layout = layout
        self.offsets = offsets
        self.neighbors = neighbors
        self.server_indices = server_indices
        self.edge_u = edge_u
        self.edge_v = edge_v
        self._names_view: Optional[LazyNames] = None
        self._index_view: Optional[LazyIndex] = None
        self._capacity = None
        self._edge_lookup = None
        self._rows = None

    # -- lazy views shadowing the parent's slots -----------------------
    @property
    def names(self) -> LazyNames:  # type: ignore[override]
        if self._names_view is None:
            self._names_view = LazyNames(self.layout)
        return self._names_view

    @property
    def index(self) -> LazyIndex:  # type: ignore[override]
        if self._index_view is None:
            self._index_view = LazyIndex(self.layout)
        return self._index_view

    @property
    def edge_capacity(self):  # type: ignore[override]
        """Unit capacities (all fast families use unit links), lazy."""
        if self._capacity is None:
            self._capacity = _np.ones(len(self.edge_u), dtype=_np.float64)
        return self._capacity

    @property
    def num_nodes(self) -> int:
        return self.layout.num_nodes

    @property
    def num_servers(self) -> int:
        return self.layout.num_servers

    # -- identity queries the object path answers via Node -------------
    def kind_code(self, node: int) -> int:
        """``KIND_SERVER`` / ``KIND_CROSSBAR_SWITCH`` / ``KIND_LEVEL_SWITCH``."""
        return self.layout.describe(node)[0]

    def is_server(self, node: int) -> bool:
        return self.kind_code(node) == KIND_SERVER

    def role_of(self, node: int) -> str:
        return self.layout.role_of(node)

    def address_of(self, node: int) -> Any:
        return self.layout.address_of(node)

    def node_kind_table(self):
        """uint8 kind code per node id (vectorised)."""
        kinds = _np.zeros(self.num_nodes, dtype=_np.uint8)
        kinds[self.layout.level_switch_base :] = KIND_LEVEL_SWITCH
        if self.layout.has_crossbar_switch:
            stops = self.layout.level_switch_base
            kinds[0 : stops : self.layout.block_stride] = KIND_CROSSBAR_SWITCH
        return kinds

    # -- pickling (workers receive the arrays, rebuild the views) ------
    def __getstate__(self):
        def unmap(arr):
            # Ship plain arrays: a memmap must not leak into workers
            # that may not see the backing file.
            return _np.array(arr) if isinstance(arr, _np.memmap) else arr

        return (
            self.layout,
            unmap(self.offsets),
            unmap(self.neighbors),
            unmap(self.server_indices),
            unmap(self.edge_u),
            unmap(self.edge_v),
        )

    def __setstate__(self, state):
        self.__init__(*state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FastCompiledGraph {self.layout.label()}: "
            f"{self.num_servers} servers, {self.num_nodes} nodes, "
            f"{self.num_edges} edges>"
        )


# ----------------------------------------------------------------------
# layout resolution & support predicate
# ----------------------------------------------------------------------
def layout_for(spec) -> FastLayout:
    """The :class:`FastLayout` of a supported spec; raises otherwise."""
    kind = getattr(spec, "kind", None)
    if kind == "abccc":
        params = spec.abccc
        return FastLayout(
            "abccc",
            params.n,
            params.k,
            params.s,
            params.crossbar_size,
            params.has_crossbar_switch,
            msb_crossbar_order=False,
        )
    if kind == "bccc":
        if spec.k == 0:
            # build_bccc's degenerate single-level case: bare n-port star.
            return FastLayout("bccc", spec.n, 0, 2, 1, False, msb_crossbar_order=True)
        return FastLayout(
            "bccc", spec.n, spec.k, 2, spec.k + 1, True, msb_crossbar_order=True
        )
    if kind == "bcube":
        return FastLayout(
            "bcube", spec.n, spec.k, spec.k + 1, 1, False, msb_crossbar_order=True
        )
    raise FastBuildError(f"no vectorized constructor for topology kind {kind!r}")


def supports(spec) -> bool:
    """Can ``spec`` be fast-built?  (Its family has a vectorized constructor.)"""
    return getattr(spec, "kind", None) in FAST_FAMILIES


# ----------------------------------------------------------------------
# the vectorized constructor
# ----------------------------------------------------------------------
def _generate_edges(layout: FastLayout):
    """Bulk ``(edge_u, edge_v)`` uint32 arrays, in builder insertion order.

    Pair orientation matches the object path: links are stored with the
    lexicographically smaller *name* first, and switch names (``c…``,
    ``l…``) always sort before server names (``s…``), so every pair is
    ``(switch_id, server_id)``.
    """
    np = _np
    n, k = layout.n, layout.k
    levels, C = layout.levels, layout.num_crossbars
    c, stride = layout.crossbar_size, layout.block_stride
    has_csw = layout.has_crossbar_switch
    base, nk = layout.level_switch_base, layout.num_rest

    edge_u = np.empty(layout.num_edges, dtype=np.uint32)
    edge_v = np.empty(layout.num_edges, dtype=np.uint32)
    pos = 0

    if has_csw:
        # crossbar-local links, crossbar-major then slot-minor
        blocks = np.repeat(np.arange(C, dtype=np.int64), c)
        slots = np.tile(np.arange(c, dtype=np.int64), C)
        edge_u[: C * c] = blocks * stride
        edge_v[: C * c] = blocks * stride + 1 + slots
        pos = C * c

    # level-switch links: level-major, rest-rank-major, member-value-minor
    t = np.repeat(np.arange(nk, dtype=np.int64), n)  # rest rank per entry
    w = np.tile(np.arange(n, dtype=np.int64), nk)  # member digit value
    rest_digit = [(t // n ** (k - 1 - p)) % n for p in range(k)]
    server_offset = 1 if has_csw else 0
    for level in range(levels):
        # enumeration index of the member crossbar whose digit vector is
        # ``rest`` with ``w`` inserted at position ``level``
        if layout.msb_crossbar_order:
            enum = w * n ** (k - level)
            for p in range(k):
                q = p if p < level else p + 1
                enum = enum + rest_digit[p] * n ** (levels - 1 - q)
        else:
            enum = w * n**level
            for p in range(k):
                q = p if p < level else p + 1
                enum = enum + rest_digit[p] * n**q
        owner = layout.owner_of(level)
        edge_u[pos : pos + C] = base + level * nk + t
        edge_v[pos : pos + C] = enum * stride + server_offset + owner
        pos += C
    return edge_u, edge_v


def _csr_from_edges(num_nodes: int, edge_u, edge_v):
    """Pack undirected edge arrays into canonical sorted-row CSR."""
    np = _np
    rows = np.concatenate([edge_u, edge_v])
    cols = np.concatenate([edge_v, edge_u])
    order = np.lexsort((cols, rows))
    neighbors = cols[order]
    counts = np.bincount(rows, minlength=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets.astype(np.uint32), neighbors


def _server_indices(layout: FastLayout):
    np = _np
    C, c = layout.num_crossbars, layout.crossbar_size
    stride = layout.block_stride
    offset = 1 if layout.has_crossbar_switch else 0
    ids = (
        np.repeat(np.arange(C, dtype=np.int64), c) * stride
        + offset
        + np.tile(np.arange(c, dtype=np.int64), C)
    )
    return ids.astype(np.uint32)


def _memmap_array(arr, directory: str, filename: str):
    path = os.path.join(directory, filename)
    mapped = _np.memmap(path, dtype=arr.dtype, mode="w+", shape=arr.shape)
    mapped[:] = arr
    mapped.flush()
    return mapped


def fast_compiled(spec, memmap_dir: Optional[str] = None) -> FastCompiledGraph:
    """Vectorized build + compile of ``spec``'s link graph, no object graph.

    Equivalent to ``compile_graph(spec.build())`` — same node ids, same
    CSR bytes, same edge list — at a fraction of the time and memory.
    With ``memmap_dir`` the four large arrays (``indptr``, ``indices``,
    ``edge_u``, ``edge_v``) are written to ``<label>.<part>.u32`` files
    there and the graph holds memory-mapped views.
    """
    layout = layout_for(spec)
    if layout.num_nodes >= 2**32 - 1 or 2 * layout.num_edges >= 2**32 - 1:
        raise FastBuildError(
            f"{layout.label()} exceeds the uint32 CSR id space "
            f"({layout.num_nodes} nodes, {layout.num_edges} edges)"
        )
    with _obs.span(
        "topology.fastbuild",
        kind=layout.family,
        servers=layout.num_servers,
        nodes=layout.num_nodes,
        memmap=bool(memmap_dir),
    ):
        _obs.counter("fastbuild.graphs")
        edge_u, edge_v = _generate_edges(layout)
        offsets, neighbors = _csr_from_edges(layout.num_nodes, edge_u, edge_v)
        servers = _server_indices(layout)
        if memmap_dir is not None:
            os.makedirs(memmap_dir, exist_ok=True)
            label = layout.label()
            offsets = _memmap_array(offsets, memmap_dir, f"{label}.indptr.u32")
            neighbors = _memmap_array(neighbors, memmap_dir, f"{label}.indices.u32")
            edge_u = _memmap_array(edge_u, memmap_dir, f"{label}.edge_u.u32")
            edge_v = _memmap_array(edge_v, memmap_dir, f"{label}.edge_v.u32")
        return FastCompiledGraph(layout, offsets, neighbors, servers, edge_u, edge_v)


def csr_nbytes(graph: CompiledGraph) -> int:
    """Total bytes of the CSR + edge + server-index arrays."""
    total = 0
    for arr in (
        graph.offsets,
        graph.neighbors,
        graph.server_indices,
        graph.edge_u,
        graph.edge_v,
    ):
        total += getattr(arr, "nbytes", 0)
    return total
