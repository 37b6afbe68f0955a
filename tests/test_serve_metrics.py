"""Live telemetry through the inline serve stack.

Every request must land in the latency histograms labeled by endpoint
and outcome, ``/metrics`` must expose the same numbers ``/stats``
reports, and the client's trace id must stitch the request's spans
into one tree.  Worker-pool merging (snapshots over the reply pipes,
restart survival) is covered in ``test_serve_chaos.py`` — spawning
real workers is slow; the registry plumbing is identical.
"""

import http.client
import threading

import pytest

from repro import obs
from repro.core import AbcccSpec
from repro.obs.metrics import (
    MetricsRegistry,
    exposition_problems,
    set_registry,
)
from repro.obs.report import load_trace, report_trace_id, trace_spans
from repro.serve import (
    HTTPFrontEnd,
    ServeClient,
    ServeConfig,
    ServeError,
    TopologyService,
    normalize_trace_id,
)


@pytest.fixture(scope="module")
def graph():
    return AbcccSpec(3, 1, 2).compiled()


@pytest.fixture()
def registry():
    """Fresh process-global registry; engine/cache land in it too."""
    mine = MetricsRegistry()
    previous = set_registry(mine)
    yield mine
    set_registry(previous)


@pytest.fixture()
def service(graph, registry):
    svc = TopologyService(graph, ServeConfig(workers=0), label="metrics-test")
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture()
def client(service):
    front = HTTPFrontEnd(service, port=0)
    thread = threading.Thread(target=front.serve_forever, daemon=True)
    thread.start()
    with ServeClient(port=front.port, retries=1, backoff_base_s=0.01, seed=3) as c:
        c.port_number = front.port
        yield c
    front.shutdown()
    front.close()
    thread.join(timeout=5)


def _histogram(snapshot, name, **labels):
    for entry in snapshot["histograms"]:
        if entry["name"] == name and entry["labels"] == labels:
            return entry
    return None


def _counter(snapshot, name, **labels):
    for entry in snapshot["counters"]:
        if entry["name"] == name and entry["labels"] == labels:
            return entry["value"]
    return 0


class TestRequestHistograms:
    def test_ok_requests_land_labeled_by_endpoint(self, service, graph):
        for _ in range(3):
            service.submit("route", {"src": "0", "dst": "17"})
        service.submit("distance", {"src": "0", "dst": "5"})
        snap = service.metrics_snapshot()
        route = _histogram(
            snap, "serve.request.latency_seconds", endpoint="route", outcome="ok"
        )
        assert route["count"] == 3
        assert route["q"]["p50"] is not None
        distance = _histogram(
            snap, "serve.request.latency_seconds", endpoint="distance", outcome="ok"
        )
        assert distance["count"] == 1
        assert _counter(snap, "serve.requests", endpoint="route", outcome="ok") == 3
        # the execute stage histogram records too
        assert _histogram(
            snap, "serve.execute.latency_seconds", endpoint="route", outcome="ok"
        )["count"] == 3
        # healthy ABCCC routes are digit-corrected: no BFS runs for them
        assert _counter(snap, "serve.paths", op="route", method="digit") == 3
        assert _counter(snap, "serve.paths", op="distance", method="digit") == 1
        assert _histogram(snap, "serve.bfs_seconds", op="route") is None
        # a scenario route still searches, and the BFS stage records it
        dead = graph.names[graph.server_indices[1]]
        service.submit(
            "route", {"src": "0", "dst": "17", "scenario": {"dead_servers": [dead]}}
        )
        snap = service.metrics_snapshot()
        assert _counter(snap, "serve.paths", op="route", method="bfs") == 1
        assert _histogram(snap, "serve.bfs_seconds", op="route")["count"] == 1

    def test_error_outcome_is_recorded(self, service):
        with pytest.raises(ServeError):
            service.submit("route", {"src": "0", "dst": "no-such-server"})
        snap = service.metrics_snapshot()
        entry = _histogram(
            snap, "serve.request.latency_seconds", endpoint="route", outcome="error"
        )
        assert entry["count"] == 1
        # the failed inline execution is timed too, as pooled ones are
        entry = _histogram(
            snap, "serve.execute.latency_seconds", endpoint="route", outcome="error"
        )
        assert entry["count"] == 1

    def test_timeout_outcome_is_recorded(self, service):
        with pytest.raises(ServeError):
            service.submit("whatif", {"sample_pairs": 10}, deadline_s=0.0)
        snap = service.metrics_snapshot()
        entry = _histogram(
            snap, "serve.request.latency_seconds", endpoint="whatif", outcome="timeout"
        )
        assert entry["count"] == 1

    def test_degraded_outcome_is_recorded(self, service, graph):
        everyone = [graph.names[i] for i in graph.server_indices]
        service.submit("whatif", {"dead_servers": everyone, "sample_pairs": 5})
        snap = service.metrics_snapshot()
        entry = _histogram(
            snap,
            "serve.request.latency_seconds",
            endpoint="whatif",
            outcome="degraded",
        )
        assert entry["count"] == 1
        # a what-if with no surviving server is timed like any other
        assert _histogram(snap, "serve.whatif_seconds")["count"] == 1

    def test_scenario_cache_counters(self, service):
        scenario = {"dead_servers": ["s0.0/0"]}
        service.submit("route", {"src": "1", "dst": "17", "scenario": scenario})
        service.submit("route", {"src": "2", "dst": "17", "scenario": scenario})
        snap = service.metrics_snapshot()
        assert _counter(snap, "serve.scenario.cache_miss") == 1
        assert _counter(snap, "serve.scenario.cache_hit") == 1


class TestSpansAreTheTimers:
    def test_every_serve_span_is_one_observation(self, service, graph, tmp_path):
        """Each serve span in the trace is one ``<span>_seconds`` count."""
        path = str(tmp_path / "serve.trace.jsonl")
        everyone = [graph.names[i] for i in graph.server_indices]
        dead = everyone[1]
        with obs.run(path):
            service.submit("route", {"src": "0", "dst": "17"})
            service.submit(
                "route", {"src": "0", "dst": "17", "scenario": {"dead_servers": [dead]}}
            )
            service.submit("whatif", {"dead_servers": [dead], "sample_pairs": 5})
            service.submit("whatif", {"dead_servers": everyone, "sample_pairs": 5})
            snap = service.metrics_snapshot()
        traced = {}
        for event in load_trace(path):
            if event["ev"] == "span" and event["name"].startswith("serve."):
                traced[event["name"]] = traced.get(event["name"], 0) + 1
        timed = {}
        for entry in snap["histograms"]:
            if entry["name"].startswith("serve.") and entry["name"].endswith("_seconds"):
                name = entry["name"][: -len("_seconds")]
                timed[name] = timed.get(name, 0) + entry["count"]
        assert traced == timed
        assert traced == {
            "serve.request.latency": 4,
            "serve.execute.latency": 4,
            "serve.bfs": 1,
            "serve.whatif": 2,
        }


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_matches_stats(self, client):
        client.route("0", "17")
        client.whatif(dead_servers=["s0.0/0"], sample_pairs=10)
        conn = http.client.HTTPConnection("127.0.0.1", client.port_number, timeout=10)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert "version=0.0.4" in response.getheader("Content-Type")
        assert exposition_problems(body) == []
        assert 'repro_serve_request_latency_seconds_bucket{endpoint="route"' in body

        stats = client.stats()
        recorded = sum(
            h["count"]
            for h in stats["metrics"]["histograms"]
            if h["name"] == "serve.request.latency_seconds"
        )
        exposed = sum(
            float(line.rsplit(" ", 1)[1])
            for line in body.splitlines()
            if line.startswith("repro_serve_request_latency_seconds_count")
        )
        assert exposed == recorded > 0

    def test_stats_carries_memory_section(self, client):
        memory = client.stats()["memory"]
        assert memory["main_peak_rss_mb"] is None or memory["main_peak_rss_mb"] > 0
        assert "pool_total_mb" in memory


class TestTracePropagation:
    def test_client_mints_and_sends_trace_id(self, client, service):
        client.route("0", "17")
        assert client.last_trace_id
        assert normalize_trace_id(client.last_trace_id) == client.last_trace_id

    def test_header_is_validated_not_trusted(self):
        assert normalize_trace_id(None) is None
        assert normalize_trace_id("") is None
        assert normalize_trace_id("  ") is None
        assert normalize_trace_id("ab12.троян") is None
        assert normalize_trace_id("x" * 65) is None
        assert normalize_trace_id("deadbeef.retry-2") == "deadbeef.retry-2"

    def test_inline_request_stitches_into_one_trace(self, client, tmp_path):
        path = str(tmp_path / "serve.trace.jsonl")
        with obs.run(path):
            client.route("0", "17")
            trace_id = client.last_trace_id
        spans = trace_spans(load_trace(path), trace_id)
        names = {s["name"] for s in spans}
        # client attempt and server-side execution in one stitched tree
        assert "serve.client.request" in names
        assert {"serve.request.latency", "serve.execute.latency"} <= names
        text, count = report_trace_id([path], trace_id)
        assert count == len(spans) >= 2
        assert trace_id in text
        assert "serve.client.request" in text

    def test_foreign_trace_header_lands_in_server_spans(self, client, tmp_path):
        """A caller-supplied X-Trace-Id tags the server-side spans."""
        path = str(tmp_path / "serve.trace.jsonl")
        with obs.run(path):
            conn = http.client.HTTPConnection(
                "127.0.0.1", client.port_number, timeout=10
            )
            conn.request(
                "GET",
                "/route?src=0&dst=17",
                headers={"X-Trace-Id": "ext-42"},
            )
            response = conn.getresponse()
            response.read()
            conn.close()
            assert response.status == 200
        spans = trace_spans(load_trace(path), "ext-42")
        assert {s["name"] for s in spans} >= {"serve.request.latency"}
