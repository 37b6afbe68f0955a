"""Zero-copy hand-off of compiled CSR graphs to worker processes.

The parallel sweep engine used to ship its graph to every worker through
the pool initializer's pickle: 8 workers on a 46 MB CSR meant 8
serialized copies marshalled through pipes — O(workers x graph) spin-up.
This module replaces the payload with a :class:`GraphHandle`, a small
descriptor whose large arrays live once in POSIX shared memory (or in
the memmap files a fast-built graph already has on disk):

* :func:`export_graph` packs a graph's numpy arrays into **one**
  ``multiprocessing.shared_memory`` segment (memmap-backed arrays are
  referenced by filename instead — they are already sharable) and
  returns the handle;
* pickling the handle costs a few hundred bytes — segment name, dtypes,
  shapes, offsets — regardless of graph size;
* ``handle.materialize()`` in the worker attaches the segment and
  rebuilds the graph with zero-copy, read-only array views;
* ``handle.release()`` in the parent closes and unlinks the segment
  (idempotent; always call it from a ``finally``).

Three graph shapes round-trip: :class:`CSRGraphView` (the sweep
engine's kernel payload), :class:`FastCompiledGraph` (layout + arrays;
names stay lazy) and plain :class:`CompiledGraph` (name tuple rides
along pickled — it has no array form).  Without POSIX shared memory
every array is inlined into the handle, which degrades to the legacy
pickle behavior instead of failing.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro.obs import trace as _obs
from repro.topology.compiled import CompiledGraph, CSRGraphView
from repro.topology.fastbuild import FastCompiledGraph

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without _posixshmem
    _shared_memory = None

#: shm segments owned (created) by this process: name -> SharedMemory.
_OWNED: Dict[str, object] = {}

#: segments this process has attached to (worker side), kept alive for
#: the process lifetime — the numpy views borrow their buffers.
_ATTACHED: Dict[str, object] = {}

_ALIGN = 16

#: set once the atexit / SIGTERM cleanup hooks are installed.
_CLEANUP_INSTALLED = False


def release_owned() -> int:
    """Close and unlink every segment this process owns; returns the count.

    Idempotent and safe to call at any time — the owned registry is
    drained as segments are released, so a normal ``handle.release()``
    afterwards finds nothing to do.
    """
    released = 0
    while _OWNED:
        _, segment = _OWNED.popitem()
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        released += 1
    return released


def _install_cleanup() -> None:
    """Register abnormal-exit cleanup for owned segments, once per process.

    A POSIX shm segment outlives its creator: a crash between
    :func:`export_graph` and ``release()`` used to leak the segment
    until reboot.  Two hooks close that window:

    * ``atexit`` covers ``sys.exit``, unhandled exceptions, and normal
      interpreter shutdown;
    * a ``SIGTERM`` handler covers the kill path (atexit does not run
      when the default handler terminates the process).  It is only
      installed from the main thread and only when the current
      disposition is the default one — an application that handles
      SIGTERM itself (e.g. the serve daemon's graceful drain) keeps its
      handler and is expected to release segments in its own shutdown
      path, with atexit as the backstop.  After cleaning up, the
      handler re-raises the signal with the default disposition so the
      exit status still reports death-by-SIGTERM.

    SIGKILL remains uncoverable by design; ``repro.serve`` supervisors
    own their handles in the parent precisely so a killed *worker*
    never owns a segment.
    """
    global _CLEANUP_INSTALLED
    if _CLEANUP_INSTALLED:
        return
    _CLEANUP_INSTALLED = True
    atexit.register(release_owned)
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        current = signal.getsignal(signal.SIGTERM)
    except (ValueError, AttributeError):  # pragma: no cover - exotic platform
        return
    if current is not signal.SIG_DFL:
        return

    def _on_sigterm(signum, frame):
        release_owned()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    signal.signal(signal.SIGTERM, _on_sigterm)


def _pack_arrays(arrays) -> Tuple[Optional[str], int, List[tuple]]:
    """Pack arrays into refs + (at most) one owned shared-memory segment.

    Returns ``(segment_name, segment_bytes, refs)`` where each ref is one
    of ``("shm", offset, dtype, shape)``, ``("memmap", path, dtype,
    shape, offset)`` or ``("inline", object)``.
    """
    refs: List[tuple] = []
    packed = []  # (offset, array) destined for the segment
    cursor = 0
    for arr in arrays:
        if isinstance(arr, _np.memmap) and getattr(arr, "filename", None):
            refs.append(
                ("memmap", str(arr.filename), arr.dtype.str, arr.shape, int(arr.offset))
            )
        elif isinstance(arr, _np.ndarray) and _shared_memory is not None:
            offset = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
            refs.append(("shm", offset, arr.dtype.str, arr.shape))
            packed.append((offset, arr))
            cursor = offset + arr.nbytes
        else:
            refs.append(("inline", arr))
    if not packed:
        return None, 0, refs
    segment = _shared_memory.SharedMemory(create=True, size=max(cursor, 1))
    _OWNED[segment.name] = segment
    _install_cleanup()
    for offset, arr in packed:
        dst = _np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf, offset=offset)
        dst[:] = arr
    return segment.name, cursor, refs


def _attach(name: str):
    """The SharedMemory segment ``name``, attached once per process."""
    segment = _OWNED.get(name) or _ATTACHED.get(name)
    if segment is None:
        try:
            # track=False (3.13+) keeps the resource tracker from
            # registering a segment this process merely *attaches* —
            # attachers must never unlink.
            segment = _shared_memory.SharedMemory(name=name, create=False, track=False)
        except TypeError:
            segment = _shared_memory.SharedMemory(name=name, create=False)
        _ATTACHED[name] = segment
    return segment


def _load_ref(ref: tuple, segment_name: Optional[str]):
    kind = ref[0]
    if kind == "inline":
        return ref[1]
    if kind == "memmap":
        _, path, dtype, shape, offset = ref
        return _np.memmap(path, dtype=_np.dtype(dtype), mode="r", shape=shape, offset=offset)
    _, offset, dtype, shape = ref
    arr = _np.ndarray(
        shape, dtype=_np.dtype(dtype), buffer=_attach(segment_name).buf, offset=offset
    )
    arr.setflags(write=False)
    return arr


class GraphHandle:
    """Picklable descriptor of an exported graph (see module docstring).

    The owning process holds no direct reference to the SharedMemory
    object — it lives in a module registry keyed by segment name — so
    the handle pickles with default semantics and stays a few hundred
    bytes.
    """

    __slots__ = ("kind", "meta", "refs", "segment", "nbytes")

    def __init__(
        self,
        kind: str,
        meta: tuple,
        refs: List[tuple],
        segment: Optional[str],
        nbytes: int,
    ) -> None:
        self.kind = kind
        self.meta = meta
        self.refs = refs
        self.segment = segment
        self.nbytes = nbytes

    def __getstate__(self):
        return (self.kind, self.meta, self.refs, self.segment, self.nbytes)

    def __setstate__(self, state):
        self.kind, self.meta, self.refs, self.segment, self.nbytes = state

    def materialize(self) -> CompiledGraph:
        """Rebuild the graph from the descriptor (zero-copy where possible)."""
        arrays = [_load_ref(ref, self.segment) for ref in self.refs]
        if self.kind == "view":
            return CSRGraphView(self.meta[0], *arrays)
        if self.kind == "fast":
            return FastCompiledGraph(self.meta[0], *arrays)
        names, edge_capacity = self.meta
        offsets, neighbors, server_indices, edge_u, edge_v = arrays
        return CompiledGraph(
            names,
            offsets,
            neighbors,
            server_indices=server_indices,
            edge_u=edge_u,
            edge_v=edge_v,
            edge_capacity=edge_capacity,
        )

    def release(self) -> None:
        """Close and unlink the owned segment (parent side; idempotent)."""
        if self.segment is None:
            return
        segment = _OWNED.pop(self.segment, None)
        if segment is None:
            return
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    @property
    def released(self) -> bool:
        return self.segment is None or self.segment not in _OWNED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self.segment or "inline/memmap"
        return f"<GraphHandle {self.kind}: {self.nbytes} bytes via {where}>"


def export_graph(graph: CompiledGraph) -> GraphHandle:
    """A :class:`GraphHandle` for ``graph``, ready to initargs to a pool.

    The caller owns the handle's segment and must ``release()`` it once
    the pool is done (workers keep their attached mapping alive for
    their own lifetime — unlinking only removes the name).
    """
    if isinstance(graph, CSRGraphView):
        kind = "view"
        meta: tuple = (graph.num_nodes,)
        arrays = (graph.offsets, graph.neighbors, graph.server_indices)
    elif isinstance(graph, FastCompiledGraph):
        kind = "fast"
        meta = (graph.layout,)
        arrays = (
            graph.offsets,
            graph.neighbors,
            graph.server_indices,
            graph.edge_u,
            graph.edge_v,
        )
    elif isinstance(graph, CompiledGraph):
        kind = "compiled"
        meta = (graph.names, graph.edge_capacity)
        arrays = (
            graph.offsets,
            graph.neighbors,
            graph.server_indices,
            graph.edge_u,
            graph.edge_v,
        )
    else:
        raise TypeError(f"cannot export {type(graph).__name__} to shared memory")
    segment, nbytes, refs = _pack_arrays(arrays)
    _obs.counter("shm.exports")
    if nbytes:
        _obs.counter("shm.bytes", nbytes)
    return GraphHandle(kind, meta, refs, segment, nbytes)


def owned_segments() -> Tuple[str, ...]:
    """Names of shm segments this process currently owns (for tests)."""
    return tuple(_OWNED)
