"""Worker supervision: spawn, watch, restart — with exponential backoff.

One :class:`WorkerAgent` thread per worker slot owns one worker process
end to end: it spawns it (attaching the shared-memory graph), pings it
ready, feeds it jobs from the shared bounded queue, and is the only
thing that ever reads its pipe — so every failure mode has exactly one
observer and a deterministic consequence:

* **crash** (process died / pipe EOF, e.g. SIGKILL mid-request): the
  in-flight job fails ``unavailable`` (retryable, with a
  ``Retry-After`` hint equal to the respawn backoff) and the slot
  respawns;
* **hang** (no reply within ``hang_timeout_s`` of the send): the
  process is killed, the job fails, the slot respawns and the restart
  is counted separately (``serve.worker.hung``);
* **deadline** (client budget elapsed first): the job fails
  ``timeout`` immediately, but the worker is *not* killed — the agent
  keeps waiting (up to the hang budget) and discards the stale reply
  by sequence number, so one slow query costs one worker-busy window,
  not a restart storm.

Respawn delay is exponential per consecutive failure
(``backoff_base_s * 2^(failures-1)``, capped at ``backoff_max_s``) and
resets on the first successful reply, so a crash loop cannot spin the
CPU while a one-off kill recovers in tens of milliseconds.

Agents never share pipes or locks with each other; the only shared
structures are the thread-safe job queue and the process metrics
registry.  When the pool stops, the workers' metrics snapshots fold
into that registry, so their counts outlive the pool (a trace's
``counters`` event reads them there).
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _obs
from repro.serve.protocol import ServeError
from repro.serve.worker import worker_main


class Job:
    """One queued request plus the rendezvous its waiter blocks on."""

    __slots__ = (
        "request",
        "deadline_at",
        "enqueued_at",
        "enqueued_pc",
        "picked_pc",
        "_event",
        "result",
        "error",
    )

    def __init__(self, request: Dict[str, Any], deadline_at: float) -> None:
        self.request = request
        self.deadline_at = deadline_at
        self.enqueued_at = time.monotonic()
        # perf_counter twin of enqueued_at: queue-wait spans must share
        # the clock every other trace event uses (t is perf_counter).
        self.enqueued_pc = time.perf_counter()
        self.picked_pc: Optional[float] = None
        self._event = threading.Event()
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[ServeError] = None

    @property
    def settled(self) -> bool:
        return self._event.is_set()

    def resolve(self, result: Dict[str, Any]) -> None:
        if not self._event.is_set():
            self.result = result
            self._event.set()

    def fail(self, error: ServeError) -> None:
        if not self._event.is_set():
            self.error = error
            self._event.set()

    def wait(self, timeout: Optional[float]) -> bool:
        return self._event.wait(timeout)


class WorkerAgent(threading.Thread):
    """Owns one worker slot: process, pipe, backoff and restart state."""

    def __init__(self, slot: int, supervisor: "Supervisor") -> None:
        super().__init__(name=f"serve-worker-agent-{slot}", daemon=True)
        self.slot = slot
        self.sup = supervisor
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        self.ready = False
        self.consecutive_failures = 0
        self._spawned_once = False
        self.restarts = 0
        self.hung_kills = 0
        self.last_cache_stats: Optional[Dict[str, Any]] = None
        #: latest metrics snapshot / peak RSS the live worker piggybacked
        #: on a reply, and the merged snapshots of its dead predecessors
        #: (so counts survive restarts).
        self.last_metrics: Optional[Dict[str, Any]] = None
        self.last_rss_mb: Optional[float] = None
        self.retired_metrics: Optional[Dict[str, Any]] = None
        self.spawned_at: Optional[float] = None
        self._seq = 0
        self._stopping = threading.Event()

    # -- lifecycle ------------------------------------------------------
    def backoff_delay(self) -> float:
        if self.consecutive_failures == 0:
            return 0.0
        config = self.sup.config
        return min(
            config.backoff_base_s * (2 ** (self.consecutive_failures - 1)),
            config.backoff_max_s,
        )

    def _teardown_process(self, kill: bool = True) -> None:
        if self.last_metrics is not None:
            # fold the dying worker's counts into the retired pile so a
            # restart doesn't erase its observations from /metrics.
            self.retired_metrics = _metrics.merge_snapshots(
                self.retired_metrics, self.last_metrics
            )
            self.last_metrics = None
        self.spawned_at = None
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.conn = None
        if self.process is not None:
            if kill and self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
            self.process = None
        self.ready = False

    def _spawn(self) -> bool:
        """Start a worker and ping it ready; ``False`` on failure."""
        delay = self.backoff_delay()
        if delay and self._stopping.wait(delay):
            return False
        ctx = multiprocessing.get_context(self.sup.config.mp_context)
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                self.sup.handle,
                self.sup.config.scenario_cache,
                _obs.get_tracer().enabled,
            ),
            name=f"serve-worker-{self.slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process, self.conn = process, parent_conn
        registry = _metrics.get_registry()
        if self._spawned_once:
            self.restarts += 1
            registry.counter("serve.worker.restarts", slot=self.slot).inc()
        self._spawned_once = True
        registry.counter("serve.worker.spawns", slot=self.slot).inc()
        self.spawned_at = time.monotonic()
        self._seq += 1
        try:
            parent_conn.send({"seq": self._seq, "request": {"op": "ping"}})
            budget = time.monotonic() + self.sup.config.spawn_timeout_s
            while time.monotonic() < budget and not self._stopping.is_set():
                if parent_conn.poll(0.05):
                    reply = parent_conn.recv()
                    _obs.get_tracer().write_lines(reply.get("trace", ""))
                    if reply.get("seq") == self._seq and "result" in reply:
                        self.ready = True
                        self.sup.note_ready()
                        return True
        except (EOFError, OSError):
            pass
        self._teardown_process()
        self.consecutive_failures += 1
        _obs.counter("serve.worker.spawn_failures")
        return False

    # -- one job --------------------------------------------------------
    def _fail_lost(self, job: Job, why: str) -> None:
        job.fail(
            ServeError(
                "unavailable",
                f"worker lost mid-request ({why}); safe to retry",
                retry_after_s=max(self.backoff_delay(), 0.05),
            )
        )

    def _serve_one(self, job: Job) -> None:
        now = time.monotonic()
        if job.deadline_at <= now:
            job.fail(ServeError("timeout", "deadline elapsed while queued"))
            _obs.counter("serve.timeouts.queued")
            return
        # Queue wait = enqueue (service thread) -> here (about to hit
        # the pipe), recorded as a retroactive span so the wait shows up
        # on the request's trace.
        job.picked_pc = time.perf_counter()
        tags = {"endpoint": job.request.get("op", "?"), "slot": self.slot}
        trace_id = job.request.get("trace")
        if trace_id is not None:
            tags["trace"] = trace_id
        _obs.record_span(
            "serve.queue.wait", job.enqueued_pc, job.picked_pc - job.enqueued_pc, **tags
        )
        self._seq += 1
        seq = self._seq
        try:
            self.conn.send({"seq": seq, "request": job.request})
        except (BrokenPipeError, OSError):
            self.consecutive_failures += 1
            self._fail_lost(job, "send failed")
            self._teardown_process()
            return
        sent_at = time.monotonic()
        hang_at = sent_at + self.sup.config.hang_timeout_s
        while not self._stopping.is_set():
            now = time.monotonic()
            if now >= hang_at:
                self.hung_kills += 1
                self.consecutive_failures += 1
                _metrics.get_registry().counter(
                    "serve.worker.hung", slot=self.slot
                ).inc()
                if not job.settled:
                    self._fail_lost(job, "hung worker killed")
                self._teardown_process()
                return
            wait_until = hang_at if job.settled else min(job.deadline_at, hang_at)
            try:
                has_reply = self.conn.poll(max(wait_until - now, 0.0))
            except OSError:
                has_reply = False
            if has_reply:
                try:
                    reply = self.conn.recv()
                except (EOFError, OSError):
                    self.consecutive_failures += 1
                    self._fail_lost(job, "pipe closed")
                    self._teardown_process()
                    return
                _obs.get_tracer().write_lines(reply.get("trace", ""))
                if reply.get("seq") != seq:
                    _obs.counter("serve.worker.stale_replies")
                    continue
                self.consecutive_failures = 0
                if "result" in reply:
                    meta = reply["result"].pop("worker", None)
                    if meta:
                        if "cache" in meta:
                            self.last_cache_stats = meta["cache"]
                        if "metrics" in meta:
                            self.last_metrics = meta["metrics"]
                        if meta.get("rss_mb") is not None:
                            self.last_rss_mb = meta["rss_mb"]
                if not job.settled:
                    if "result" in reply:
                        job.resolve(reply["result"])
                    else:
                        job.fail(ServeError.from_payload(reply.get("error") or {}))
                else:
                    _obs.counter("serve.worker.stale_replies")
                return
            if self.process is not None and not self.process.is_alive():
                self.consecutive_failures += 1
                self._fail_lost(job, "process died")
                self._teardown_process()
                return
            if not job.settled and time.monotonic() >= job.deadline_at:
                job.fail(
                    ServeError("timeout", "deadline elapsed mid-computation")
                )
                _obs.counter("serve.timeouts.inflight")
                # keep waiting for the (now stale) reply up to hang_at —
                # the worker stays usable once it answers.

    # -- thread body ----------------------------------------------------
    def run(self) -> None:
        while not self._stopping.is_set():
            if self.conn is None:
                if not self._spawn():
                    continue
            try:
                job = self.sup.jobs.get(timeout=0.1)
            except queue.Empty:
                continue
            if job is None:  # drain sentinel: put back for siblings, exit
                try:
                    self.sup.jobs.put_nowait(None)
                except queue.Full:  # pragma: no cover - siblings poll anyway
                    pass
                break
            try:
                if self.process is None or not self.process.is_alive():
                    # the worker died while idle (e.g. SIGKILL between
                    # requests) — replace it before this job ever touches
                    # the dead pipe.
                    self._teardown_process()
                    self.consecutive_failures += 1
                    self._spawn()
                if self.conn is not None and not job.settled:
                    self._serve_one(job)
                elif not job.settled:
                    self._fail_lost(job, "no live worker")
            finally:
                self.sup.note_done()
        self._shutdown_worker()

    def _shutdown_worker(self) -> None:
        if self.conn is not None:
            try:
                self.conn.send(None)  # polite stop; worker exits its loop
            except (BrokenPipeError, OSError):
                pass
        self._teardown_process(kill=True)

    def stop(self) -> None:
        self._stopping.set()


class Supervisor:
    """The pool of worker agents plus the shared bounded job queue."""

    def __init__(self, handle, config) -> None:
        self.handle = handle
        self.config = config
        self.jobs: "queue.Queue[Optional[Job]]" = queue.Queue(
            maxsize=config.queue_bound
        )
        self.agents: List[WorkerAgent] = [
            WorkerAgent(slot, self) for slot in range(config.workers)
        ]
        self._ready = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)

    # -- job accounting (the service's drain barrier) -------------------
    def note_submitted(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def note_done(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def wait_idle(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._inflight_lock:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    # -- lifecycle ------------------------------------------------------
    def note_ready(self) -> None:
        self._ready.set()

    def start(self) -> None:
        for agent in self.agents:
            agent.start()

    def wait_ready(self, timeout: float) -> bool:
        """True once at least one worker answered its readiness ping."""
        return self._ready.wait(timeout)

    def stop(self, join_timeout: float = 10.0) -> None:
        for agent in self.agents:
            agent.stop()
        try:
            self.jobs.put_nowait(None)
        except queue.Full:  # agents notice the stop flag on their own
            pass
        for agent in self.agents:
            agent.join(timeout=join_timeout)
        registry = _metrics.get_registry()
        for snapshot in self.worker_metric_snapshots():
            registry.merge(snapshot)
        for agent in self.agents:
            agent.retired_metrics = agent.last_metrics = None

    # -- introspection --------------------------------------------------
    @property
    def alive_workers(self) -> int:
        return sum(
            1
            for agent in self.agents
            if agent.process is not None and agent.process.is_alive()
        )

    @property
    def restart_count(self) -> int:
        return sum(agent.restarts for agent in self.agents)

    def worker_metric_snapshots(self) -> List[Dict[str, Any]]:
        """Per-slot merged metrics: retired predecessors ⊕ live worker.

        The live worker's snapshot arrives piggybacked on every reply;
        the retired pile accumulates snapshots of workers this slot
        already lost (crash/hang/drain), so the merged view counts all
        work the slot ever did.
        """
        merged = []
        for agent in self.agents:
            if agent.retired_metrics is not None or agent.last_metrics is not None:
                merged.append(
                    _metrics.merge_snapshots(
                        agent.retired_metrics, agent.last_metrics
                    )
                )
        return merged

    def refresh_gauges(self) -> None:
        """Push liveness/age/RSS gauges into the registry (scrape-time)."""
        registry = _metrics.get_registry()
        now = time.monotonic()
        total_rss = 0.0
        for agent in self.agents:
            alive = agent.process is not None and agent.process.is_alive()
            registry.gauge("serve.worker.alive", slot=agent.slot).set(
                1.0 if alive else 0.0
            )
            age = (
                now - agent.spawned_at
                if alive and agent.spawned_at is not None
                else 0.0
            )
            registry.gauge("serve.worker.age_seconds", slot=agent.slot).set(
                round(age, 3)
            )
            if agent.last_rss_mb is not None:
                registry.gauge("serve.worker.peak_rss_mb", slot=agent.slot).set(
                    agent.last_rss_mb
                )
                total_rss += agent.last_rss_mb
        registry.gauge("serve.worker.pool_rss_mb").set(round(total_rss, 2))
        registry.gauge("serve.queue.depth").set(self.jobs.qsize())
        registry.gauge("serve.inflight").set(self.inflight)

    def stats(self) -> Dict[str, Any]:
        spawns = sum(1 for a in self.agents if a.process is not None)
        caches = [a.last_cache_stats for a in self.agents if a.last_cache_stats]
        cache_totals = {
            "hits": sum(c["hits"] for c in caches),
            "misses": sum(c["misses"] for c in caches),
            "size": sum(c["size"] for c in caches),
        }
        rss_by_slot = {
            str(a.slot): a.last_rss_mb
            for a in self.agents
            if a.last_rss_mb is not None
        }
        return {
            "workers": self.config.workers,
            "alive_workers": self.alive_workers,
            "spawned": spawns,
            "restarts": sum(a.restarts for a in self.agents),
            "hung_kills": sum(a.hung_kills for a in self.agents),
            "consecutive_failures": [a.consecutive_failures for a in self.agents],
            "queue_depth": self.jobs.qsize(),
            "inflight": self.inflight,
            "scenario_cache": cache_totals if caches else None,
            "peak_rss_mb": {
                "per_worker": rss_by_slot,
                "pool_total": round(sum(rss_by_slot.values()), 2),
            }
            if rss_by_slot
            else None,
        }
