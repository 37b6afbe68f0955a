"""TopologyService + HTTP front end tests (inline execution, no workers).

Worker-pool behavior (crash recovery, shedding under load, SIGTERM
drain) lives in ``test_serve_chaos.py``; these tests pin down the
request/response contract itself, which both execution modes share.
"""

import socket
import statistics
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


@pytest.fixture(scope="module")
def graph():
    return AbcccSpec(3, 1, 2).compiled()


@pytest.fixture()
def service(graph):
    svc = TopologyService(graph, ServeConfig(workers=0), label="abccc-test")
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture()
def client(service):
    front = HTTPFrontEnd(service, port=0)
    thread = threading.Thread(target=front.serve_forever, daemon=True)
    thread.start()
    with ServeClient(port=front.port, retries=1, backoff_base_s=0.01, seed=7) as c:
        yield c
    front.shutdown()
    front.close()
    thread.join(timeout=5)


class TestLifecycle:
    def test_submit_before_start_is_unavailable(self, graph):
        svc = TopologyService(graph, ServeConfig(workers=0))
        with pytest.raises(ServeError) as exc:
            svc.submit("ping", {})
        assert exc.value.code == "unavailable"
        assert exc.value.retryable

    def test_draining_sheds_new_requests(self, service):
        service.begin_drain()
        with pytest.raises(ServeError) as exc:
            service.submit("ping", {})
        assert exc.value.code == "unavailable"
        assert exc.value.retry_after_s is not None
        assert service.state()["status"] == "draining"

    def test_drain_and_stop_is_idempotent(self, service):
        assert service.drain_and_stop() is True
        service.stop()
        assert service.state()["status"] == "stopped"

    def test_inline_mode_is_immediately_ready(self, service):
        assert service.ready
        assert service.wait_ready(0)
        assert service.state()["workers"]["mode"] == "inline"


class TestSubmit:
    def test_route(self, service):
        result = service.submit("route", {"src": "0", "dst": "5"})
        assert result["status"] == "ok"
        assert result["link_hops"] >= 1

    def test_bad_request_not_counted_as_success(self, service):
        with pytest.raises(ServeError) as exc:
            service.submit("route", {"src": "0"})
        assert exc.value.code == "bad-request"
        assert not exc.value.retryable

    def test_idempotency_replay(self, service):
        first = service.submit("route", {"src": "0", "dst": "5"}, idempotency_key="k1")
        again = service.submit("route", {"src": "0", "dst": "5"}, idempotency_key="k1")
        assert again == first
        assert service.stats()["counters"]["idempotent_replays"] == 1

    def test_idempotency_cache_bounded(self, graph):
        svc = TopologyService(graph, ServeConfig(workers=0, idempotency_cache=2))
        svc.start()
        try:
            for i in range(4):
                svc.submit("ping", {}, idempotency_key=f"k{i}")
            assert len(svc._idem) == 2
        finally:
            svc.stop()

    def test_blown_inline_deadline_reports_timeout(self, service):
        with pytest.raises(ServeError) as exc:
            service.submit("whatif", {"sample_pairs": 10}, deadline_s=0.0)
        assert exc.value.code == "timeout"
        assert exc.value.retryable


class TestHTTP:
    def test_healthz_always_answers(self, client):
        state = client.health()
        assert state["status"] == "serving"
        assert state["graph"]["servers"] == 18

    def test_readyz(self, client):
        assert client.ready() is True

    def test_route_post(self, client):
        result = client.route("0", "17")
        assert result["status"] == "ok"
        assert result["path"]

    def test_route_get_with_query_params(self, client, service):
        path = client.route("0", "17")["path"]
        raw = client.request(
            "GET", f"/route?src=0&dst=17&avoid={path[1]}"
        )
        assert path[1] not in raw["path"]

    def test_whatif_degraded_mass_failure(self, client, graph):
        everyone = [graph.names[i] for i in graph.server_indices]
        result = client.whatif(dead_servers=everyone, sample_pairs=10)
        assert result["status"] == "degraded"
        assert result["alive_servers"] == 0

    def test_bad_request_is_400_not_traceback(self, client):
        with pytest.raises(ServeError) as exc:
            client.route("0", "no-such-server")
        assert exc.value.code == "bad-request"
        assert client.last_attempts == 1  # non-retryable: no retry burned

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.request("GET", "/nope")
        assert exc.value.code == "bad-request"

    def test_malformed_body_is_400(self, client):
        conn = client._connection()
        conn.request(
            "POST",
            "/route",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = response.read()
        assert response.status == 400
        assert b"Traceback" not in body

    def test_stats_exposes_counters(self, client):
        client.route("0", "5")
        stats = client.stats()
        assert stats["counters"]["requests"] >= 1
        assert "requests.route" in stats["counters"]


def _median_seconds(call, repeats: int) -> float:
    call()  # warm the connection
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class TestWireLatency:
    """Each reply leaves in one send, with Nagle off.

    A reply split over two TCP sends waits about 40 ms for the client's
    delayed ACK before its second part leaves; both bounds sit well
    under that stall and well over a healthy answer.
    """

    def test_sequential_requests_do_not_stall(self, client):
        assert _median_seconds(lambda: client.distance("0", "9"), 20) < 0.020

    def test_reply_past_the_write_buffer_does_not_stall(
        self, client, service, monkeypatch
    ):
        # a body larger than the handler's 8 KiB write buffer leaves in
        # two sends even when buffered; only TCP_NODELAY keeps it fast
        real_stats = service.stats
        monkeypatch.setattr(
            service, "stats", lambda: {**real_stats(), "pad": "x" * 20_000}
        )
        assert len(client.stats()["pad"]) == 20_000
        assert _median_seconds(client.stats, 5) < 0.020


class TestUnixSocket:
    def test_round_trip_over_unix_socket(self, service, tmp_path):
        sock = str(tmp_path / "serve.sock")
        front = HTTPFrontEnd(service, unix=sock)
        thread = threading.Thread(target=front.serve_forever, daemon=True)
        thread.start()
        try:
            assert front.endpoint == f"unix:{sock}"
            with ServeClient(unix=sock, retries=1, seed=3) as c:
                assert c.health()["status"] == "serving"
                assert c.distance("0", "9")["reachable"] is True
        finally:
            front.shutdown()
            front.close()
            thread.join(timeout=5)
        assert not (tmp_path / "serve.sock").exists()

    def test_client_hanging_up_leaves_no_traceback(
        self, service, tmp_path, monkeypatch, capsys
    ):
        # AF_UNIX refuses the first write to a closed peer, so the reply
        # stays in the handler's write buffer and every later flush of
        # it raises too.
        real_stats = service.stats

        def slow_stats():
            time.sleep(0.2)  # the client hangs up meanwhile
            return real_stats()

        monkeypatch.setattr(service, "stats", slow_stats)
        sock = str(tmp_path / "serve.sock")
        front = HTTPFrontEnd(service, unix=sock)
        finished = threading.Event()
        real_shutdown_request = front.httpd.shutdown_request

        def shutdown_request(request):
            real_shutdown_request(request)
            finished.set()  # after the handler and any handle_error

        monkeypatch.setattr(front.httpd, "shutdown_request", shutdown_request)
        thread = threading.Thread(target=front.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.connect(sock)
                raw.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            assert finished.wait(10)
        finally:
            front.shutdown()
            front.close()
            thread.join(timeout=5)
        assert "Traceback" not in capsys.readouterr().err


class TestClientRetry:
    def test_retry_after_hint_wins_over_backoff(self):
        c = ServeClient(port=1, retries=0, backoff_base_s=0.01, jitter=0.0, seed=0)
        assert c._sleep_for(0, hint=0.5) == 0.5
        assert c._sleep_for(0, hint=None) == 0.01

    def test_backoff_is_exponential_and_capped(self):
        c = ServeClient(
            port=1, retries=0, backoff_base_s=0.1, backoff_max_s=0.3, jitter=0.0
        )
        delays = [c._sleep_for(attempt, None) for attempt in range(4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_connection_refused_retries_then_unavailable(self):
        # Nothing listens on this port: transport failures are retried
        # and surface as `unavailable` when exhausted.
        c = ServeClient(
            port=1, retries=2, backoff_base_s=0.001, backoff_max_s=0.002, seed=5
        )
        with pytest.raises(ServeError) as exc:
            c.request("GET", "/healthz")
        assert exc.value.code == "unavailable"
        assert c.last_attempts == 3
        assert len(c.last_sleeps) == 2
