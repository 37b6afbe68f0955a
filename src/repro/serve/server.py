"""The always-on topology query service: core, HTTP front end, daemon.

Three layers, separable for testing:

* :class:`TopologyService` — transport-agnostic core.  Owns the
  compiled graph, the bounded job queue + worker supervisor (or the
  inline executor when ``workers=0``), the idempotency replay cache,
  and the lifecycle bits (ready / draining / stopped).  ``submit()`` is
  the one entry point: it enforces the queue bound (shedding with
  ``overload`` + a ``Retry-After`` hint), per-request deadlines, and
  drain semantics, and emits the ``repro.obs`` spans every request
  carries.  Every count lands once, in the process metrics registry;
  ``/stats`` reads its ``counters`` off the same merged snapshot it
  returns as ``metrics``.
* :class:`HTTPFrontEnd` — a threaded stdlib HTTP server (TCP or unix
  socket) translating paths/JSON to ``submit()`` calls and
  :class:`~repro.serve.protocol.ServeError` to status codes.  Health
  endpoints never enter the queue, so probes stay responsive under
  overload.
* :class:`Daemon` — signal wiring for ``repro serve``: SIGTERM/SIGINT
  trigger graceful drain (stop accepting -> finish in-flight -> stop
  workers -> release shared memory), never an abrupt exit.

Load-shedding contract (the chaos suite pins this): a full queue is
*always* answered — 429 with ``Retry-After`` — and a draining or
not-yet-ready service answers 503 with ``Retry-After``; neither path
can hang a client or leak a 500 traceback.
"""

from __future__ import annotations

import os
import queue
import socket
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import metrics as _metrics
from repro.obs import trace as _obs
from repro.obs.memory import peak_rss_mb
from repro.serve import engine, protocol
from repro.serve.protocol import (
    IDEMPOTENCY_HEADER,
    TRACE_HEADER,
    ServeError,
    bad_request,
    normalize_trace_id,
)
from repro.serve.scenario import ScenarioCache
from repro.serve.supervisor import Job, Supervisor
from repro.topology import shm

#: ServeError code -> request-outcome label on metrics series.
_OUTCOME_BY_CODE = {
    "timeout": "timeout",
    "overload": "shed",
    "unavailable": "shed",
    "bad-request": "error",
    "internal": "error",
}

#: unlabeled registry counter -> its key in ``/stats`` "counters".
_STATS_COUNTERS = {
    "serve.idempotent_replays": "idempotent_replays",
    "serve.shed.draining": "shed_draining",
    "serve.shed.not_ready": "shed_not_ready",
    "serve.shed.overload": "shed_overload",
    "serve.timeouts": "timeouts",
    "serve.worker.lost": "worker_lost",
}


@dataclass
class ServeConfig:
    """Tunables of one service instance (CLI flags map 1:1)."""

    workers: int = 2  #: worker processes; 0 = execute inline in handler threads
    queue_bound: int = 64  #: pending-request ceiling before shedding
    default_deadline_s: float = 10.0
    max_deadline_s: float = 60.0
    hang_timeout_s: float = 30.0  #: no reply for this long -> kill + respawn
    drain_timeout_s: float = 15.0
    spawn_timeout_s: float = 120.0  #: worker must answer its readiness ping
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    scenario_cache: int = 64  #: MaskedGraph LRU entries (per worker)
    idempotency_cache: int = 256  #: completed responses replayable by key
    retry_after_s: float = 0.2  #: base Retry-After hint for shed responses
    mp_context: str = "spawn"  #: fork is faster but unsafe to respawn from threads


def _stats_counters(metrics: Mapping[str, Any]) -> Dict[str, int]:
    """``/stats`` "counters", read off a merged metrics snapshot.

    ``requests`` and ``requests.<op>`` sum the ``serve.requests``
    series, so they count every submission, shed and failed ones too.
    """
    counters: Dict[str, int] = {}
    for entry in metrics["counters"]:
        name, labels, value = entry["name"], entry["labels"], int(entry["value"])
        if name == "serve.requests":
            for key in ("requests", f"requests.{labels.get('endpoint')}"):
                counters[key] = counters.get(key, 0) + value
        elif not labels and name in _STATS_COUNTERS:
            counters[_STATS_COUNTERS[name]] = value
    return counters


class TopologyService:
    """Loaded-once graph + query execution with robustness guarantees."""

    def __init__(
        self, graph, config: Optional[ServeConfig] = None, label: str = "graph"
    ) -> None:
        self.graph = graph
        self.config = config or ServeConfig()
        self.label = label
        self.supervisor: Optional[Supervisor] = None
        self.handle = None
        self._scenarios: Optional[ScenarioCache] = None
        self._idem: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._idem_lock = threading.Lock()
        self._inline_inflight = 0
        self._inline_lock = threading.Lock()
        self._inline_idle = threading.Condition(self._inline_lock)
        self._started = False
        self._draining = False
        self._stopped = False
        self._started_at: Optional[float] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        if self.config.workers > 0:
            self.handle = shm.export_graph(self.graph)
            self.supervisor = Supervisor(self.handle, self.config)
            self.supervisor.start()
        else:
            self._scenarios = ScenarioCache(
                self.graph, capacity=self.config.scenario_cache
            )
        self._started = True
        self._started_at = time.monotonic()
        _obs.event(
            "serve-start",
            f"serving {self.label}",
            workers=self.config.workers,
            servers=self.graph.num_servers,
        )

    def wait_ready(self, timeout: float) -> bool:
        if not self._started or self._stopped:
            return False
        if self.supervisor is None:
            return True
        return self.supervisor.wait_ready(timeout)

    @property
    def ready(self) -> bool:
        return self._started and not self._draining and not self._stopped and (
            self.supervisor is None or self.supervisor.wait_ready(0)
        )

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop accepting work; in-flight requests keep running."""
        if not self._draining:
            self._draining = True
            _obs.event("serve-drain", "drain started")

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted request settled (or timeout)."""
        budget = self.config.drain_timeout_s if timeout is None else timeout
        if self.supervisor is not None:
            return self.supervisor.wait_idle(budget)
        deadline = time.monotonic() + budget
        with self._inline_lock:
            while self._inline_inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inline_idle.wait(remaining)
        return True

    def stop(self) -> None:
        """Stop workers and release shared memory; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self.supervisor is not None:
            self.supervisor.stop()
        if self.handle is not None:
            self.handle.release()
        _obs.event("serve-stop", "service stopped")

    def drain_and_stop(self, timeout: Optional[float] = None) -> bool:
        self.begin_drain()
        drained = self.wait_drained(timeout)
        self.stop()
        return drained

    # -- idempotency replay --------------------------------------------
    def _replay(self, key: Optional[str]) -> Optional[Dict[str, Any]]:
        if not key:
            return None
        with self._idem_lock:
            cached = self._idem.get(key)
            if cached is not None:
                self._idem.move_to_end(key)
                _obs.counter("serve.idempotent_replays")
                return dict(cached)
        return None

    def _remember(self, key: Optional[str], payload: Dict[str, Any]) -> None:
        if not key:
            return
        with self._idem_lock:
            self._idem[key] = dict(payload)
            self._idem.move_to_end(key)
            while len(self._idem) > self.config.idempotency_cache:
                self._idem.popitem(last=False)

    # -- the entry point ------------------------------------------------
    def submit(
        self,
        op: str,
        params: Mapping[str, Any],
        deadline_s: Optional[float] = None,
        idempotency_key: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Run one query; returns the response payload or raises ServeError.

        Every submission — including shed and failed ones — lands in
        the live metrics: a ``serve.requests`` counter bump and a
        ``serve.request.latency`` span (timed into
        ``serve.request.latency_seconds``), both labeled
        ``endpoint=<op>, outcome=<ok|degraded|timeout|shed|error>``.
        ``trace_id`` (client-minted, via the ``X-Trace-Id`` header)
        binds the trace context for the request's spans and rides the
        request dict into the worker.
        """
        with _obs.trace_context(trace_id), _obs.span(
            "serve.request.latency", endpoint=op, outcome="error"
        ) as span:
            try:
                payload = self._submit(op, params, deadline_s, idempotency_key, trace_id)
                degraded = payload.get("status") == "degraded"
                span.tag(outcome="degraded" if degraded else "ok")
                return payload
            except ServeError as error:
                span.tag(outcome=_OUTCOME_BY_CODE.get(error.code, "error"))
                raise
            finally:
                _metrics.get_registry().counter(
                    "serve.requests", endpoint=op, outcome=span.tags["outcome"]
                ).inc()

    def _submit(
        self,
        op: str,
        params: Mapping[str, Any],
        deadline_s: Optional[float],
        idempotency_key: Optional[str],
        trace_id: Optional[str],
    ) -> Dict[str, Any]:
        config = self.config
        if self._stopped:
            raise ServeError(
                "unavailable", "service stopped", retry_after_s=config.retry_after_s
            )
        if self._draining:
            _obs.counter("serve.shed.draining")
            raise ServeError(
                "unavailable",
                "draining: not accepting new requests",
                retry_after_s=config.retry_after_s,
            )
        if not self._started:
            raise ServeError(
                "unavailable", "service not started", retry_after_s=config.retry_after_s
            )
        replay = self._replay(idempotency_key)
        if replay is not None:
            return replay
        request = protocol.parse_query(op, params)
        if trace_id is not None:
            # the trace id travels inside the canonical request so the
            # worker process can rebind the context around execution.
            request["trace"] = trace_id
        if deadline_s is None:
            deadline_s = config.default_deadline_s
        deadline_s = min(deadline_s, config.max_deadline_s)
        if self.supervisor is None:
            payload = self._submit_inline(request, deadline_s)
        else:
            payload = self._submit_pooled(request, deadline_s)
        self._remember(idempotency_key, payload)
        return payload

    def _submit_inline(self, request: Dict[str, Any], deadline_s: float) -> Dict[str, Any]:
        with self._inline_lock:
            self._inline_inflight += 1
        try:
            started = time.monotonic()
            with _obs.span(
                "serve.execute.latency", endpoint=request.get("op", "?"), outcome="error"
            ) as span:
                payload = engine.execute(self.graph, request, self._scenarios)
                degraded = payload.get("status") == "degraded"
                span.tag(outcome="degraded" if degraded else "ok")
            if time.monotonic() - started > deadline_s:
                # Inline execution cannot be preempted; a blown budget
                # still reports as a timeout so clients behave the same
                # against both execution modes.
                _obs.counter("serve.timeouts")
                raise ServeError(
                    "timeout", f"computation exceeded the {deadline_s:.3f}s deadline"
                )
            return payload
        finally:
            with self._inline_lock:
                self._inline_inflight -= 1
                if self._inline_inflight <= 0:
                    self._inline_idle.notify_all()

    def _shed_retry_after(self) -> float:
        depth = self.supervisor.jobs.qsize() if self.supervisor else 0
        workers = max(self.config.workers, 1)
        return round(self.config.retry_after_s * (1 + depth / (4.0 * workers)), 3)

    def _submit_pooled(self, request: Dict[str, Any], deadline_s: float) -> Dict[str, Any]:
        supervisor = self.supervisor
        if not supervisor.wait_ready(0):
            _obs.counter("serve.shed.not_ready")
            raise ServeError(
                "unavailable",
                "no ready worker yet",
                retry_after_s=self.config.retry_after_s,
            )
        job = Job(request, time.monotonic() + deadline_s)
        supervisor.note_submitted()
        try:
            supervisor.jobs.put_nowait(job)
        except queue.Full:
            supervisor.note_done()
            _obs.counter("serve.shed.overload")
            _obs.event(
                "gauge",
                "queue full: shedding",
                queue_depth=supervisor.jobs.qsize(),
            )
            raise ServeError(
                "overload",
                f"request queue full ({self.config.queue_bound} pending)",
                retry_after_s=self._shed_retry_after(),
            )
        _obs.counter("serve.queued")
        if not job.wait(deadline_s + 0.1):
            job.fail(ServeError("timeout", f"no answer within {deadline_s:.3f}s"))
        if job.error is not None:
            if job.error.code == "timeout":
                _obs.counter("serve.timeouts")
            elif job.error.code == "unavailable":
                _obs.counter("serve.worker.lost")
            raise job.error
        return job.result

    # -- introspection --------------------------------------------------
    def state(self) -> Dict[str, Any]:
        if self._stopped:
            status = "stopped"
        elif self._draining:
            status = "draining"
        elif not self._started or not self.ready:
            status = "starting"
        else:
            status = "serving"
        info: Dict[str, Any] = {
            "status": status,
            "label": self.label,
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "graph": {
                "servers": self.graph.num_servers,
                "nodes": self.graph.num_nodes,
                "edges": self.graph.num_edges,
            },
        }
        if self._started_at is not None:
            info["uptime_s"] = round(time.monotonic() - self._started_at, 3)
        if self.supervisor is not None:
            info["workers"] = self.supervisor.stats()
        else:
            info["workers"] = {"mode": "inline", "inflight": self._inline_inflight}
            if self._scenarios is not None:
                info["scenario_cache"] = self._scenarios.stats()
        return info

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The service-wide metrics snapshot: parent ⊕ every worker.

        Refreshes scrape-time gauges first (queue depth, worker age /
        liveness / RSS), then merges the parent registry with the
        per-slot worker snapshots that piggybacked on reply pipes —
        including snapshots retired by worker restarts, so counts are
        lifetime totals, not since-last-respawn.
        """
        registry = _metrics.get_registry()
        worker_snaps = []
        if self.supervisor is not None:
            self.supervisor.refresh_gauges()
            worker_snaps = self.supervisor.worker_metric_snapshots()
        else:
            registry.gauge("serve.inflight").set(self._inline_inflight)
        return _metrics.merge_snapshots(registry.snapshot(), *worker_snaps)

    def memory_stats(self) -> Dict[str, Any]:
        """Peak RSS of the parent and each worker, plus the pool total."""
        main_mb = peak_rss_mb()
        memory: Dict[str, Any] = {"main_peak_rss_mb": main_mb}
        total = main_mb or 0.0
        if self.supervisor is not None:
            per_worker = {
                str(agent.slot): agent.last_rss_mb
                for agent in self.supervisor.agents
                if agent.last_rss_mb is not None
            }
            memory["workers_peak_rss_mb"] = per_worker
            total += sum(per_worker.values())
        memory["pool_total_mb"] = round(total, 2)
        return memory

    def stats(self) -> Dict[str, Any]:
        payload = self.state()
        metrics = self.metrics_snapshot()
        payload["counters"] = _stats_counters(metrics)
        payload["metrics"] = metrics
        payload["memory"] = self.memory_stats()
        return payload


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class _TCPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: TopologyService  # attached by HTTPFrontEnd

    def get_request(self):
        # Nagle off: a reply that overflows the handler's write buffer
        # leaves in more than one send, and Nagle would hold the last
        # one behind the client's delayed ACK (~40 ms per reply).
        request, address = super().get_request()
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return request, address

    def handle_error(self, request, client_address) -> None:
        # A client that hung up leaves its reply unsendable in the
        # handler's write buffer, and the handler's final flush and
        # close raise on it; that is a closed connection, not a bug
        # worth a traceback in the daemon log.
        if isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)


class _UnixServer(_TCPServer):
    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        path = self.server_address
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            os.unlink(path)
        # skip HTTPServer.server_bind: it unpacks (host, port) which a
        # unix path does not have.
        self.socket.bind(self.server_address)
        self.server_name = "unix"
        self.server_port = 0

    def get_request(self):
        # no TCP_NODELAY: AF_UNIX has no Nagle and rejects IPPROTO_TCP
        request, _ = self.socket.accept()
        return request, ("unix-client", 0)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: buffered writes: status line, headers and body leave in one flush
    wbufsize = -1

    #: GET paths that bypass the queue entirely.
    _CONTROL = ("/healthz", "/readyz", "/stats", "/metrics")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        return  # request logs go through repro.obs, not stderr

    # -- plumbing -------------------------------------------------------
    @property
    def service(self) -> TopologyService:
        return self.server.service

    def _send(
        self,
        status: int,
        payload: Mapping[str, Any],
        retry_after_s: Optional[float] = None,
    ) -> None:
        body = protocol.encode(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", f"{max(retry_after_s, 0.001):.3f}")
        self.end_headers()
        try:
            self.wfile.write(body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def _params_from_query(self) -> Dict[str, Any]:
        query = parse_qs(urlsplit(self.path).query)
        params: Dict[str, Any] = {k: v[0] for k, v in query.items() if v}
        if "avoid" in params:
            params["avoid"] = [n for n in params["avoid"].split(",") if n]
        return params

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        return protocol.decode(self.rfile.read(length))

    def _run(self, op: str, params: Dict[str, Any]) -> None:
        service = self.service
        try:
            deadline_s = protocol.parse_deadline_ms(
                params.pop("deadline_ms", None),
                service.config.default_deadline_s,
                service.config.max_deadline_s,
            )
            payload = service.submit(
                op,
                params,
                deadline_s=deadline_s,
                idempotency_key=self.headers.get(IDEMPOTENCY_HEADER),
                trace_id=normalize_trace_id(self.headers.get(TRACE_HEADER)),
            )
            self._send(200, payload)
        except ServeError as error:
            self._send(error.http_status, error.to_payload(), error.retry_after_s)
        except Exception as error:  # noqa: BLE001 - no tracebacks on the wire
            _obs.event(
                "serve-internal-error", f"{type(error).__name__}: {error}", op=op
            )
            self._send(
                500,
                ServeError("internal", f"{type(error).__name__}: {error}").to_payload(),
            )

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path
        service = self.service
        if path == "/healthz":
            self._send(200, service.state())
            return
        if path == "/readyz":
            if service.ready:
                self._send(200, {"ready": True})
            else:
                state = service.state()
                self._send(
                    503,
                    {"ready": False, "status": state["status"]},
                    retry_after_s=service.config.retry_after_s,
                )
            return
        if path == "/stats":
            self._send(200, service.stats())
            return
        if path == "/metrics":
            self._send_text(
                200,
                _metrics.render_prometheus(service.metrics_snapshot()),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if path in ("/route", "/distance"):
            self._run(path.lstrip("/"), self._params_from_query())
            return
        self._send(404, bad_request(f"no such endpoint {path!r}").to_payload())

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path
        if path not in ("/route", "/distance", "/whatif"):
            self._send(404, bad_request(f"no such endpoint {path!r}").to_payload())
            return
        try:
            params = self._read_body()
        except ServeError as error:
            self._send(error.http_status, error.to_payload())
            return
        self._run(path.lstrip("/"), params)


class HTTPFrontEnd:
    """The bound HTTP server (TCP or unix socket) around a service."""

    def __init__(
        self,
        service: TopologyService,
        host: str = "127.0.0.1",
        port: int = 0,
        unix: Optional[str] = None,
    ) -> None:
        self.service = service
        self.unix_path = unix
        if unix is not None:
            self.httpd: _TCPServer = _UnixServer(unix, _Handler, bind_and_activate=True)
        else:
            self.httpd = _TCPServer((host, port), _Handler, bind_and_activate=True)
        self.httpd.service = service

    @property
    def endpoint(self) -> str:
        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def port(self) -> Optional[int]:
        if self.unix_path is not None:
            return None
        return int(self.httpd.server_address[1])

    def serve_forever(self) -> None:
        self.httpd.serve_forever(poll_interval=0.2)

    def shutdown(self) -> None:
        self.httpd.shutdown()

    def close(self) -> None:
        self.httpd.server_close()
        if self.unix_path is not None and os.path.exists(self.unix_path):
            try:
                os.unlink(self.unix_path)
            except OSError:  # pragma: no cover - already gone
                pass


class Daemon:
    """``repro serve``: front end + service + signal-driven drain."""

    def __init__(
        self,
        service: TopologyService,
        host: str = "127.0.0.1",
        port: int = 0,
        unix: Optional[str] = None,
        ready_file: Optional[str] = None,
    ) -> None:
        self.service = service
        self.front = HTTPFrontEnd(service, host=host, port=port, unix=unix)
        self.ready_file = ready_file
        self._signal_seen: Optional[int] = None

    def _write_ready_file(self) -> None:
        if not self.ready_file:
            return
        payload = {
            "endpoint": self.front.endpoint,
            "pid": os.getpid(),
            "port": self.front.port,
            "unix": self.front.unix_path,
        }
        tmp = f"{self.ready_file}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(protocol.encode(payload).decode("utf-8"))
        os.replace(tmp, self.ready_file)

    def _graceful(self) -> None:
        service = self.service
        service.begin_drain()
        service.wait_drained()
        self.front.shutdown()

    def _install_signals(self) -> None:
        import signal

        def _on_signal(signum, frame) -> None:
            if self._signal_seen is not None:  # second signal: exit hard
                raise SystemExit(1)
            self._signal_seen = signum
            threading.Thread(
                target=self._graceful, name="serve-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    def run(self, install_signals: bool = True) -> int:
        """Start, announce, serve until drained; returns the exit code."""
        service = self.service
        service.start()
        if not service.wait_ready(service.config.spawn_timeout_s):
            service.stop()
            self.front.close()
            raise ServeError("unavailable", "workers failed to become ready")
        if install_signals:
            self._install_signals()
        self._write_ready_file()
        try:
            self.front.serve_forever()
        finally:
            service.drain_and_stop()
            self.front.close()
        return 0
