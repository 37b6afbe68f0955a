"""Shared-memory graph hand-off: round-trips, pickling, release.

A :class:`~repro.topology.shm.GraphHandle` must (a) reconstruct an
equivalent graph after a pickle round-trip — that is the worker path —
(b) reference memmap-backed arrays by filename instead of copying them
into the segment, and (c) release its segment exactly once, after which
materialization fails instead of silently reading freed memory.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.core import AbcccSpec
from repro.metrics.engine import sweep_graph_distance_stats
from repro.topology import shm
from repro.topology.compiled import CSRGraphView, compile_graph
from repro.topology.fastbuild import FastCompiledGraph


def _graph():
    return compile_graph(AbcccSpec(3, 1, 2).build())


def _assert_same_csr(got, want):
    assert got.num_nodes == want.num_nodes
    assert list(got.offsets) == list(want.offsets)
    assert list(got.neighbors) == list(want.neighbors)
    assert list(got.server_indices) == list(want.server_indices)


class TestRoundTrips:
    def test_view_roundtrip(self):
        graph = _graph()
        view = CSRGraphView.of(graph)
        handle = shm.export_graph(view)
        try:
            got = handle.materialize()
            assert isinstance(got, CSRGraphView)
            _assert_same_csr(got, view)
        finally:
            handle.release()

    def test_compiled_roundtrip_keeps_names(self):
        graph = _graph()
        handle = shm.export_graph(graph)
        try:
            got = handle.materialize()
            assert type(got) is type(graph)
            _assert_same_csr(got, graph)
            assert tuple(got.names) == tuple(graph.names)
            assert got.index == graph.index
        finally:
            handle.release()

    def test_fast_roundtrip(self):
        graph = AbcccSpec(4, 2, 2).compiled()
        assert isinstance(graph, FastCompiledGraph)
        handle = shm.export_graph(graph)
        try:
            got = handle.materialize()
            assert isinstance(got, FastCompiledGraph)
            _assert_same_csr(got, graph)
        finally:
            handle.release()

    def test_pickled_handle_materializes(self):
        # The worker path: the handle crosses a process boundary as a
        # tiny pickle; the arrays do not ride along.
        graph = _graph()
        view = CSRGraphView.of(graph)
        handle = shm.export_graph(view)
        try:
            blob = pickle.dumps(handle)
            if handle.segment is not None:
                assert len(blob) < 2_000
                assert len(blob) < view.neighbors.nbytes
            clone = pickle.loads(blob)
            got = clone.materialize()
            _assert_same_csr(got, view)
            stats = sweep_graph_distance_stats(got)
            assert stats.pairs > 0
        finally:
            handle.release()

    def test_memmap_arrays_referenced_by_file(self, tmp_path):
        import numpy as np

        graph = AbcccSpec(4, 2, 2).compiled(memmap_dir=str(tmp_path))
        assert any(isinstance(a, np.memmap) for a in (graph.offsets, graph.neighbors))
        handle = shm.export_graph(graph)
        try:
            assert any(ref[0] == "memmap" for ref in handle.refs)
            got = pickle.loads(pickle.dumps(handle)).materialize()
            _assert_same_csr(got, graph)
        finally:
            handle.release()


class TestRelease:
    def test_release_is_idempotent_and_tracked(self):
        handle = shm.export_graph(CSRGraphView.of(_graph()))
        if handle.segment is not None:
            assert handle.segment in [name for name in shm.owned_segments()]
        handle.release()
        assert shm.owned_segments() == ()
        assert handle.released
        handle.release()  # second call is a no-op

    def test_materialize_after_release_fails(self):
        handle = shm.export_graph(CSRGraphView.of(_graph()))
        if handle.segment is None:
            pytest.skip("no shared memory on this platform")
        handle.release()
        clone = pickle.loads(pickle.dumps(handle))
        with pytest.raises((FileNotFoundError, ValueError, OSError)):
            clone.materialize()

    def test_release_owned_drains_registry(self):
        handle = shm.export_graph(CSRGraphView.of(_graph()))
        if handle.segment is None:
            pytest.skip("no shared memory on this platform")
        released = shm.release_owned()
        assert released == 1
        assert shm.owned_segments() == ()
        assert shm.release_owned() == 0  # idempotent
        handle.release()  # finding nothing left is fine

    def test_materialized_arrays_are_read_only(self):
        import numpy as np

        handle = shm.export_graph(CSRGraphView.of(_graph()))
        if handle.segment is None:
            pytest.skip("no shared memory on this platform")
        try:
            got = pickle.loads(pickle.dumps(handle)).materialize()
            arr = np.asarray(got.neighbors)
            with pytest.raises((ValueError, RuntimeError)):
                arr[0] = 0
        finally:
            handle.release()


_EXPORT_SCRIPT = """\
import os, sys, time
from repro.core import AbcccSpec
from repro.topology import shm
from repro.topology.compiled import CSRGraphView, compile_graph

handle = shm.export_graph(CSRGraphView.of(compile_graph(AbcccSpec(3, 1, 2).build())))
if handle.segment is None:
    print("NOSEG", flush=True)
    sys.exit(0)
print(handle.segment, flush=True)
MODE = sys.argv[1]
if MODE == "exit":
    sys.exit(3)  # abnormal exit without release(): atexit must clean up
elif MODE == "wait":  # parent delivers SIGTERM; the handler must clean up
    time.sleep(120)
"""


class TestAbnormalExitCleanup:
    """A crashed or killed owner must not leak its shm segment."""

    def _segment_exists(self, name: str) -> bool:
        return os.path.exists(f"/dev/shm/{name.lstrip('/')}")

    def test_sys_exit_without_release_leaves_no_segment(self, tmp_path):
        script = tmp_path / "owner.py"
        script.write_text(_EXPORT_SCRIPT)
        proc = subprocess.run(
            [sys.executable, str(script), "exit"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.path.abspath("src")},
        )
        name = proc.stdout.strip()
        if name == "NOSEG":
            pytest.skip("no shared memory on this platform")
        assert proc.returncode == 3, proc.stderr
        assert name.startswith("psm_")
        assert not self._segment_exists(name), f"leaked {name}"

    def test_sigterm_without_release_leaves_no_segment(self, tmp_path):
        script = tmp_path / "owner.py"
        script.write_text(_EXPORT_SCRIPT)
        proc = subprocess.Popen(
            [sys.executable, str(script), "wait"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.path.abspath("src")},
        )
        try:
            name = proc.stdout.readline().strip()
            if name == "NOSEG":
                proc.kill()
                pytest.skip("no shared memory on this platform")
            assert self._segment_exists(name), "owner never created the segment"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=30)
        # exit status still reports death-by-SIGTERM (handler re-raises)
        assert proc.returncode == -signal.SIGTERM
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and self._segment_exists(name):
            time.sleep(0.05)
        assert not self._segment_exists(name), f"leaked {name}"
