"""Chaos tests for the worker-pool serving path.

The acceptance behaviors the supervisor exists for:

* a worker SIGKILLed mid-request is detected, the request fails with a
  retryable ``unavailable``, the supervisor respawns the worker with
  backoff, and the client's retry gets the correct answer;
* an overload burst against a tiny bounded queue is shed with 429 +
  ``Retry-After`` — never a hang, never a 500 traceback;
* SIGTERM mid-burst drains: accepted requests finish, new ones are
  refused, the process exits 0 and leaves no orphaned shared-memory
  segment behind.

Workers are real ``spawn`` processes, so this module is the slowest
test file in the suite; everything else exercises the same request
contract inline (``test_serve_service.py``).
"""

import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core import AbcccSpec
from repro.serve import (
    HTTPFrontEnd,
    ServeClient,
    ServeConfig,
    ServeError,
    TopologyService,
)
from repro.topology import shm

SPAWN_TIMEOUT_S = 120.0


@pytest.fixture(scope="module")
def graph():
    return AbcccSpec(3, 1, 2).compiled()


def start_service(graph, **overrides):
    defaults = dict(
        workers=1,
        queue_bound=8,
        spawn_timeout_s=SPAWN_TIMEOUT_S,
        backoff_base_s=0.05,
        backoff_max_s=0.5,
        default_deadline_s=30.0,
    )
    defaults.update(overrides)
    service = TopologyService(graph, ServeConfig(**defaults), label="chaos")
    service.start()
    assert service.wait_ready(SPAWN_TIMEOUT_S), "workers never became ready"
    return service


def worker_pids(service):
    return [
        agent.process.pid
        for agent in service.supervisor.agents
        if agent.process is not None
    ]


class TestWorkerCrash:
    def test_sigkill_mid_request_retry_recovers(self, graph):
        service = start_service(graph, workers=1)
        front = HTTPFrontEnd(service, port=0)
        thread = threading.Thread(target=front.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(
            port=front.port, retries=6, backoff_base_s=0.05, timeout_s=60, seed=11
        )
        try:
            expected = client.route("0", "17")
            assert expected["status"] == "ok"

            # Freeze the only worker so the next request is pinned
            # mid-flight, then SIGKILL it while it holds the request.
            pid = worker_pids(service)[0]
            os.kill(pid, signal.SIGSTOP)
            outcome = {}

            def query():
                outcome["result"] = client.route("0", "17")
                outcome["attempts"] = client.last_attempts

            worker_thread = threading.Thread(target=query)
            worker_thread.start()
            time.sleep(0.4)  # request is now in the worker's pipe
            os.kill(pid, signal.SIGKILL)
            worker_thread.join(timeout=SPAWN_TIMEOUT_S)
            assert not worker_thread.is_alive(), "retry never completed"

            assert outcome["result"]["link_hops"] == expected["link_hops"]
            assert outcome["attempts"] >= 2, "recovery must come from a retry"
            deadline = time.monotonic() + SPAWN_TIMEOUT_S
            while time.monotonic() < deadline and service.supervisor.alive_workers < 1:
                time.sleep(0.05)
            assert service.supervisor.alive_workers == 1
            assert service.supervisor.restart_count >= 1
            assert service.stats()["counters"].get("worker_lost", 0) >= 1
        finally:
            client.close()
            service.drain_and_stop()
            front.shutdown()
            front.close()
            thread.join(timeout=10)
        assert shm.owned_segments() == ()


class TestWorkerTelemetry:
    """Worker-side metrics merge into the parent and survive restarts;
    one request's trace stitches across a crash + retry."""

    def test_metrics_and_trace_survive_worker_crash(self, graph, tmp_path):
        from repro import obs
        from repro.obs.report import load_trace, report_trace_id, trace_spans

        trace_path = str(tmp_path / "chaos.trace.jsonl")
        service = None
        front = None
        thread = None
        client = None
        # The scope's tracer must exist before the workers spawn: it
        # exports the shard env var the spawned workers adopt.  Closing
        # it merges the worker shards into the main file.
        with obs.run(trace_path) as scope:
            try:
                service = TopologyService(
                    graph,
                    ServeConfig(
                        workers=1,
                        queue_bound=8,
                        spawn_timeout_s=SPAWN_TIMEOUT_S,
                        backoff_base_s=0.05,
                        backoff_max_s=0.5,
                        default_deadline_s=30.0,
                    ),
                    label="chaos-telemetry",
                )
                service.start()
                assert service.wait_ready(SPAWN_TIMEOUT_S)
                front = HTTPFrontEnd(service, port=0)
                thread = threading.Thread(target=front.serve_forever, daemon=True)
                thread.start()
                client = ServeClient(
                    port=front.port, retries=6, backoff_base_s=0.05,
                    timeout_s=60, seed=23,
                )

                # -- healthy requests: worker-side metrics merge over the pipe
                for _ in range(3):
                    assert client.route("0", "17")["status"] == "ok"
                snap = service.metrics_snapshot()

                def count_of(name, **labels):
                    return sum(
                        h["count"]
                        for h in snap["histograms"]
                        if h["name"] == name
                        and all(h["labels"].get(k) == v for k, v in labels.items())
                    )

                # observed IN the worker process, merged into the parent
                assert count_of(
                    "serve.execute.latency_seconds", endpoint="route", outcome="ok"
                ) == 3
                # healthy ABCCC routes are digit-corrected, counted in the worker
                assert sum(
                    c["value"]
                    for c in snap["counters"]
                    if c["name"] == "serve.paths"
                    and c["labels"] == {"op": "route", "method": "digit"}
                ) == 3
                assert count_of("serve.bfs_seconds", op="route") == 0
                # observed in the parent around the queue hand-off
                assert count_of("serve.queue.wait_seconds", endpoint="route") == 3
                gauges = {
                    (g["name"], tuple(sorted(g["labels"].items()))): g["value"]
                    for g in snap["gauges"]
                }
                assert gauges[("serve.worker.alive", (("slot", "0"),))] == 1
                stats = service.stats()
                rss = stats["workers"]["peak_rss_mb"]
                assert rss and rss["pool_total"] > 0
                assert stats["memory"]["pool_total_mb"] > 0

                # a scenario route still runs the BFS, timed in the worker
                dead = graph.names[graph.server_indices[1]]
                scenario = {"dead_servers": [dead]}
                assert client.route("0", "17", scenario=scenario)["status"] == "ok"
                snap = service.metrics_snapshot()
                assert count_of("serve.bfs_seconds", op="route") == 1

                # -- SIGKILL the worker mid-request; the retry must recover
                pid = worker_pids(service)[0]
                os.kill(pid, signal.SIGSTOP)
                outcome = {}

                def query():
                    outcome["result"] = client.route("0", "17")
                    outcome["attempts"] = client.last_attempts
                    outcome["trace_id"] = client.last_trace_id

                worker_thread = threading.Thread(target=query)
                worker_thread.start()
                time.sleep(0.4)
                os.kill(pid, signal.SIGKILL)
                worker_thread.join(timeout=SPAWN_TIMEOUT_S)
                assert not worker_thread.is_alive(), "retry never completed"
                assert outcome["result"]["status"] == "ok"
                assert outcome["attempts"] >= 2

                # -- counts survived the restart: the dead worker's snapshot
                # was folded into the retired pile, the new worker adds one
                snap = service.metrics_snapshot()
                assert count_of(
                    "serve.execute.latency_seconds", endpoint="route", outcome="ok"
                ) >= 5
                restarts = sum(
                    c["value"]
                    for c in snap["counters"]
                    if c["name"] == "serve.worker.restarts"
                )
                assert restarts >= 1
                trace_id = outcome["trace_id"]
                new_pid = worker_pids(service)[0]
                assert new_pid != pid
            finally:
                if client is not None:
                    client.close()
                if service is not None:
                    service.drain_and_stop()
                if front is not None:
                    front.shutdown()
                    front.close()
                if thread is not None:
                    thread.join(timeout=10)

        assert shm.owned_segments() == ()
        # stopping the pool folded the workers' snapshots into the
        # run's registry: worker-side counts outlive the workers
        executed_count = sum(
            h["count"]
            for h in scope.registry.snapshot()["histograms"]
            if h["name"] == "serve.execute.latency_seconds"
        )
        assert executed_count >= 5

        # -- the whole story of the retried request under one trace id
        spans = trace_spans(load_trace(trace_path), trace_id)
        names = [s["name"] for s in spans]
        assert "serve.client.request" in names
        assert names.count("serve.queue.wait") >= 2, names  # one per attempt
        executed = [s for s in spans if s["name"] == "serve.execute.latency"]
        assert executed, names
        # the execution that answered ran in the *respawned* worker
        assert any(s["pid"] == new_pid for s in executed)
        (client_span,) = [s for s in spans if s["name"] == "serve.client.request"]
        assert client_span["tags"]["attempts"] >= 2
        text, count = report_trace_id([trace_path], trace_id)
        assert count == len(spans)
        assert f"{len(spans)} span(s)" in text


class TestOverloadShed:
    def test_burst_sheds_with_retry_after_never_hangs(self, graph):
        service = start_service(graph, workers=1, queue_bound=1)
        front = HTTPFrontEnd(service, port=0)
        thread = threading.Thread(target=front.serve_forever, daemon=True)
        thread.start()
        pid = worker_pids(service)[0]
        results = []
        threads = []
        try:
            # Freeze the worker: the first request occupies it, the
            # second fills the one queue slot, the rest must shed.
            os.kill(pid, signal.SIGSTOP)

            def query(slot):
                c = ServeClient(
                    port=front.port, retries=0, timeout_s=60, seed=slot
                )
                try:
                    results.append(("ok", c.route("0", "17")["status"]))
                except ServeError as error:
                    results.append((error.code, error.retry_after_s))
                finally:
                    c.close()

            for slot in range(5):
                t = threading.Thread(target=query, args=(slot,))
                t.start()
                threads.append(t)
                time.sleep(0.2)  # deterministic arrival order

            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and sum(
                1 for code, _ in results if code == "overload"
            ) < 3:
                time.sleep(0.05)
            os.kill(pid, signal.SIGCONT)
            for t in threads:
                t.join(timeout=SPAWN_TIMEOUT_S)
                assert not t.is_alive(), "a shed request hung"

            shed = [extra for code, extra in results if code == "overload"]
            served = [extra for code, extra in results if code == "ok"]
            assert len(served) == 2, results
            assert len(shed) == 3, results
            for retry_after in shed:
                assert retry_after is not None and retry_after > 0
            assert not any(code == "internal" for code, _ in results)
            assert service.stats()["counters"]["shed_overload"] == 3
        finally:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            service.drain_and_stop()
            front.shutdown()
            front.close()
            thread.join(timeout=10)
        assert shm.owned_segments() == ()

    def test_shed_responses_carry_retry_after_header(self, graph):
        service = start_service(graph, workers=1, queue_bound=1)
        front = HTTPFrontEnd(service, port=0)
        thread = threading.Thread(target=front.serve_forever, daemon=True)
        thread.start()
        pid = worker_pids(service)[0]
        try:
            os.kill(pid, signal.SIGSTOP)
            blockers = []
            for slot in range(2):
                t = threading.Thread(
                    target=lambda: ServeClient(
                        port=front.port, retries=0, timeout_s=60
                    ).route("0", "17"),
                    daemon=True,
                )
                t.start()
                blockers.append(t)
                time.sleep(0.2)
            import http.client

            conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=10)
            conn.request(
                "POST",
                "/route",
                body=json.dumps({"src": "0", "dst": "17"}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = response.read()
            assert response.status == 429
            assert response.getheader("Retry-After") is not None
            assert b"Traceback" not in body
            conn.close()
        finally:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            for t in blockers:
                t.join(timeout=SPAWN_TIMEOUT_S)
            service.drain_and_stop()
            front.shutdown()
            front.close()
            thread.join(timeout=10)
        assert shm.owned_segments() == ()


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/*repro*"))


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs /dev/shm to observe leaks"
)
class TestDaemonSigterm:
    def test_sigterm_mid_burst_drains_cleanly(self, graph, tmp_path):
        # The __main__ guard is mandatory: workers use the `spawn`
        # start method, which re-imports the main module in the child.
        launcher = tmp_path / "serve_daemon.py"
        launcher.write_text(
            "import sys\n"
            "from repro.cli import main\n"
            'if __name__ == "__main__":\n'
            "    sys.exit(main(sys.argv[1:]))\n"
        )
        ready_file = tmp_path / "ready.json"
        before = _shm_segments()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                str(launcher),
                "serve",
                "abccc",
                "-p", "n=3", "-p", "k=1", "-p", "s=2",
                "--workers", "1",
                "--port", "0",
                "--ready-file", str(ready_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + SPAWN_TIMEOUT_S
            while time.monotonic() < deadline and not ready_file.exists():
                assert proc.poll() is None, proc.communicate()[1]
                time.sleep(0.1)
            assert ready_file.exists(), "daemon never wrote the ready file"
            port = json.loads(ready_file.read_text())["port"]

            outcomes = []

            def query(slot):
                c = ServeClient(port=port, retries=0, timeout_s=60, seed=slot)
                try:
                    outcomes.append(("ok", c.route("0", "17")["link_hops"]))
                except ServeError as error:
                    outcomes.append((error.code, None))
                except OSError:
                    outcomes.append(("transport", None))
                finally:
                    c.close()

            # One synchronous request before the signal: on a loaded
            # machine the threaded burst can land entirely after the
            # drain starts, so this is what guarantees at least one
            # "ok" outcome deterministically.
            query(0)
            assert outcomes and outcomes[0][0] == "ok", outcomes

            threads = [
                threading.Thread(target=query, args=(slot,)) for slot in range(6)
            ]
            for t in threads[:3]:
                t.start()
            proc.send_signal(signal.SIGTERM)  # mid-burst
            for t in threads[3:]:
                t.start()
            for t in threads:
                t.join(timeout=SPAWN_TIMEOUT_S)
                assert not t.is_alive(), "a request hung across the drain"

            stdout, stderr = proc.communicate(timeout=SPAWN_TIMEOUT_S)
            assert proc.returncode == 0, stderr
            assert "drained and stopped" in stdout
            assert "Traceback" not in stderr
            # Every request either completed correctly or was refused
            # with the drain/shutdown taxonomy — nothing hung, nothing
            # got an internal error.
            assert outcomes, "no request outcomes recorded"
            assert all(
                code in ("ok", "unavailable", "overload", "transport")
                for code, _ in outcomes
            ), outcomes
            assert any(code == "ok" for code, _ in outcomes), outcomes
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        leaked = _shm_segments() - before
        assert not leaked, f"daemon leaked shm segments: {leaked}"
