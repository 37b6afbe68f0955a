"""``serve-mix``: a real ``repro serve`` daemon under a closed loop.

The daemon is what users start:
``repro serve abccc -p n=6 -p k=3 -p s=2 --workers 2`` on TCP loopback.
Two client connections (``ServeClient``, one thread each) send a seeded
sequence of 45% route, 45% distance and 10% what-if requests, each
waiting for its reply before sending the next.  What-if scenarios come
from a pool of 96 two-switch failures, drawn with Zipf weights: the pool
is larger than one worker's 64-entry scenario cache, so the hot
scenarios hit and the tail misses.

Checks, after the timed region: every fourth route/distance reply must
carry the hop count of the benchmark's own BFS, every sampled route must
be a walk from src to dst over graph edges, every what-if reply must
echo the scenario, the daemon's cache lookups must equal the what-if
count, and a replay of the first checked requests must answer
identically.  A request that raises, or that needed a retry because it
was refused, shed or timed out, counts as failed.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List

import numpy as np

from repro.core import AbcccSpec
from repro.obs.metrics import BUCKET_BOUNDS, OVERFLOW_BUCKET
from repro.serve import ServeClient, ServeError
from repro.topology.fastbuild import fast_compiled

from common import NULL_RECORDER, derive_seed, digest, median, nearest_rank

SPEC = (6, 3, 2)
DAEMON_ARGS = (
    "serve", "abccc", "-p", "n=6", "-p", "k=3", "-p", "s=2",
    "--workers", "2", "--port", "0",
)
#: daemon spawns per run; setup_s is their median.
SPAWNS = 5
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
CONNECTIONS = 2
#: closed-loop requests per connection per second of --seconds
#: (about 45 ms per request on a 2-vCPU container).
REQUESTS_PER_S = 22
WARMUP_REQUESTS = 8
MIX = (("route", 0.45), ("distance", 0.45), ("whatif", 0.10))
SCENARIO_POOL = 96
DEAD_SWITCHES = 2
WHATIF_PAIRS = 50
CHECK_EVERY = 4
REPLAY = 8


# ----------------------------------------------------------------------
# daemon lifecycle
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` child process; :meth:`stop` drains it."""

    def __init__(self, root: str, out_dir: str, slot: int) -> None:
        self.ready_file = os.path.join(out_dir, f"serve-ready-{slot}.json")
        if os.path.exists(self.ready_file):
            os.unlink(self.ready_file)
        self.log_path = os.path.join(out_dir, f"serve-daemon-{slot}.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.log = open(self.log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *DAEMON_ARGS, "--ready-file", self.ready_file],
            cwd=root,
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = started + READY_TIMEOUT_S
            while not os.path.exists(self.ready_file):
                if self.proc.poll() is not None:
                    raise RuntimeError(f"daemon exited during startup; see {self.log_path}")
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon never wrote its ready file")
                time.sleep(0.002)
            self.spawn_s = time.perf_counter() - started
            with open(self.ready_file, encoding="utf-8") as handle:
                self.port = int(json.load(handle)["port"])
        except BaseException:
            self.stop()
            raise

    def stop(self) -> bool:
        """SIGTERM drain; True when the daemon exited 0 without a traceback."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.log.close()
        with open(self.log_path, encoding="utf-8") as handle:
            clean = "Traceback" not in handle.read()
        if os.path.exists(self.ready_file):
            os.unlink(self.ready_file)
        return code == 0 and clean


# ----------------------------------------------------------------------
# the request plan and the benchmark's own oracle
# ----------------------------------------------------------------------
def make_plan(graph, seed: int, per_connection: int):
    """Seeded request lists, one per connection, plus the scenario pool."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "serve-mix")))
    servers = np.asarray(graph.server_indices, dtype=np.int64)
    is_server = np.zeros(graph.num_nodes, dtype=bool)
    is_server[servers] = True
    switches = np.flatnonzero(~is_server)
    names = graph.names
    pool = [
        sorted(names[int(s)] for s in rng.choice(switches, DEAD_SWITCHES, replace=False))
        for _ in range(SCENARIO_POOL)
    ]
    zipf = 1.0 / np.arange(1, SCENARIO_POOL + 1)
    zipf /= zipf.sum()
    kinds = [kind for kind, _ in MIX]
    weights = np.array([w for _, w in MIX])
    plans = []
    for _ in range(CONNECTIONS):
        requests = []
        for kind_ix in rng.choice(len(kinds), WARMUP_REQUESTS + per_connection, p=weights):
            kind = kinds[int(kind_ix)]
            if kind == "whatif":
                requests.append((kind, int(rng.choice(SCENARIO_POOL, p=zipf)), 0))
            else:
                src, dst = rng.choice(len(servers), 2, replace=False)
                requests.append((kind, int(src), int(dst)))
        plans.append(requests)
    return plans, pool


def bfs(offsets, neighbors, src: int):
    """Hop distances from ``src`` (-1 = unreachable), frontier by frontier."""
    dist = np.full(len(offsets) - 1, -1, dtype=np.int64)
    dist[src] = 0
    frontier = np.array([src], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts, lens = offsets[frontier], offsets[frontier + 1] - offsets[frontier]
        first = np.cumsum(lens) - lens
        idx = np.repeat(starts - first, lens) + np.arange(int(lens.sum()))
        reached = np.unique(neighbors[idx])
        frontier = reached[dist[reached] < 0]
        dist[frontier] = level
    return dist


def send(client, pool, request):
    kind, a, b = request
    if kind == "route":
        return client.route(str(a), str(b))
    if kind == "distance":
        return client.distance(str(a), str(b))
    return client.whatif(dead_switches=pool[a], sample_pairs=WHATIF_PAIRS, seed=a)


def drive(port: int, plans, pool, rec, scrape) -> Dict[str, Any]:
    """Warm every connection up, ``scrape()`` the daemon, then run every
    connection's plan concurrently, timed."""
    warm = threading.Barrier(len(plans) + 1, timeout=READY_TIMEOUT_S)
    go = threading.Barrier(len(plans) + 1, timeout=READY_TIMEOUT_S)
    results: List[List[tuple]] = [[] for _ in plans]

    def connection(slot: int) -> None:
        with ServeClient(port=port, retries=2, backoff_base_s=0.05, seed=slot) as client:
            plan = plans[slot]
            for request in plan[:WARMUP_REQUESTS]:
                send(client, pool, request)
            warm.wait()
            go.wait()
            for request in plan[WARMUP_REQUESTS:]:
                reply, error = None, None
                with rec.span("op", kind=request[0], conn=slot):
                    started = time.perf_counter()
                    try:
                        reply = send(client, pool, request)
                    except (ServeError, OSError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                    elapsed = time.perf_counter() - started
                results[slot].append(
                    (request, 1000.0 * elapsed, reply, error, client.last_attempts)
                )

    threads = [threading.Thread(target=connection, args=(i,)) for i in range(len(plans))]
    for thread in threads:
        thread.start()
    warm.wait()
    before = scrape()
    go.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "before": before,
        "after": scrape(),
        "results": [r for conn in results for r in conn],
    }


# ----------------------------------------------------------------------
# /stats deltas
# ----------------------------------------------------------------------
def _hist_buckets(stats, name: str) -> Dict[int, int]:
    buckets: Dict[int, int] = {}
    for entry in stats["metrics"]["histograms"]:
        if entry["name"] == name:
            for index, count in entry["buckets"].items():
                buckets[int(index)] = buckets.get(int(index), 0) + int(count)
    return buckets


def delta_p50_ms(before, after, name: str) -> float:
    """p50 (bucket upper bound) of the observations between two scrapes."""
    old = _hist_buckets(before, name)
    new = _hist_buckets(after, name)
    delta = sorted((i, c - old.get(i, 0)) for i, c in new.items() if c > old.get(i, 0))
    total = sum(c for _, c in delta)
    seen = 0
    for index, count in delta:
        seen += count
        if seen >= 0.5 * total:
            return 1000.0 * BUCKET_BOUNDS[min(index, OVERFLOW_BUCKET - 1)]
    return 0.0


def _cache(stats) -> Dict[str, int]:
    return stats["workers"].get("scenario_cache") or {"hits": 0, "misses": 0}


def _shed(stats) -> int:
    return sum(v for k, v in stats["counters"].items() if k.startswith("shed"))


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def score(graph, pool, run, out) -> Dict[str, Any]:
    """Failures and output checks of one timed pass; returns exact counts."""
    offsets = np.asarray(graph.offsets, dtype=np.int64)
    neighbors = np.asarray(graph.neighbors, dtype=np.int64)
    servers = np.asarray(graph.server_indices, dtype=np.int64)
    index = graph.index
    kinds = {kind: 0 for kind, _ in MIX}
    checked: Dict[str, int] = {}
    retries = 0
    seen = {"route": 0, "distance": 0}
    dist_cache: Dict[int, Any] = {}
    for request, _, reply, error, attempts in run["results"]:
        kind, a, b = request
        kinds[kind] += 1
        out.attempted += 1
        retries += max(attempts - 1, 0)
        before = len(out.problems)
        if error is not None or attempts > 1:
            out.problems.append(f"{kind} request failed: {error or 'needed a retry'}")
        elif kind == "whatif":
            out.check(
                reply.get("status") in ("ok", "degraded")
                and reply.get("num_servers") == graph.num_servers
                and reply.get("alive_servers") == graph.num_servers
                and reply.get("dead_switches") == DEAD_SWITCHES
                and reply.get("dead_servers") == 0,
                f"what-if reply does not match scenario {pool[a]}",
            )
        else:
            seen[kind] += 1
            if seen[kind] % CHECK_EVERY == 0:
                src, dst = int(servers[a]), int(servers[b])
                if src not in dist_cache:
                    dist_cache[src] = bfs(offsets, neighbors, src)
                hops = int(dist_cache[src][dst])
                ok = reply.get("status") == "ok" and reply.get("link_hops") == hops
                if ok and kind == "route":
                    path = [index.get(name) for name in reply.get("path", [])]
                    ok = (
                        None not in path
                        and len(path) == hops + 1
                        and path[0] == src
                        and path[-1] == dst
                        and all(
                            v in neighbors[offsets[u]:offsets[u + 1]]
                            for u, v in zip(path, path[1:])
                        )
                    )
                out.check(ok, f"{kind} {a}->{b}: reply disagrees with BFS ({hops} hops)")
                checked[f"{kind}:{a}:{b}"] = hops
        if len(out.problems) > before:
            out.failed += 1
    return {
        "requests": sum(kinds.values()),
        **{f"requests.{kind}": n for kind, n in kinds.items()},
        "checked_replies": len(checked),
        "checked_digest": digest(sorted(checked.items())),
        "retries": retries,
    }


def run(root: str, out_dir: str, seed: int, seconds: float, traced: bool, rec, out):
    started = time.perf_counter()
    graph = fast_compiled(AbcccSpec(*SPEC))
    build_ms = 1000.0 * (time.perf_counter() - started)
    per_connection = max(50, round(seconds * REQUESTS_PER_S))
    plans, pool = make_plan(graph, seed, per_connection)

    daemon = None
    for slot in range(SPAWNS):
        if daemon is not None:
            out.check(daemon.stop(), "daemon did not drain cleanly")
        daemon = Daemon(root, out_dir, slot)
        out.setup_s.append(daemon.spawn_s)
    try:
        with ServeClient(port=daemon.port, retries=2, seed=seed) as client:
            timed = drive(daemon.port, plans, pool, NULL_RECORDER, client.stats)
            before, after = timed["before"], timed["after"]
            counts = score(graph, pool, timed, out)
            lookups = sum(_cache(after)[k] - _cache(before)[k] for k in ("hits", "misses"))
            out.check(
                lookups == counts["requests.whatif"],
                f"daemon made {lookups} scenario lookups for "
                f"{counts['requests.whatif']} what-if requests",
            )
            replay = [r for r in timed["results"] if r[0][0] != "whatif"][:REPLAY]
            for request, _, reply, _, _ in replay:
                try:
                    again = send(client, pool, request)
                except (ServeError, OSError) as exc:
                    again = {"error": repr(exc)}
                out.check(
                    reply is None or again.get("link_hops") == reply.get("link_hops")
                    and again.get("path") == reply.get("path"),
                    f"replayed {request} answered differently",
                )
            traced_run = drive(daemon.port, plans, pool, rec, client.stats) if traced else None
            final = client.stats()
    finally:
        out.check(daemon.stop(), "daemon did not drain cleanly")

    latencies = [r[1] for r in timed["results"]]
    out.op_ms = latencies
    out.units = len(latencies)
    out.busy_s = timed["wall_s"]
    out.peak_rss_mb = float(final["memory"]["pool_total_mb"])
    out.counters = counts
    if not traced:
        return
    traced_ms = [r[1] for r in traced_run["results"]]
    client_p50 = median(latencies)
    total = delta_p50_ms(before, after, "serve.request.latency_seconds")
    queue = delta_p50_ms(before, after, "serve.queue.wait_seconds")
    execute = delta_p50_ms(before, after, "serve.execute.latency_seconds")
    hits = _cache(after)["hits"] - _cache(before)["hits"]
    misses = _cache(after)["misses"] - _cache(before)["misses"]
    by_kind = {
        kind: median(r[1] for r in timed["results"] if r[0][0] == kind) for kind, _ in MIX
    }
    rec.note(
        "serve-split",
        f"client p50 {client_p50:.2f} ms = transport {client_p50 - total:.2f} ms + "
        f"server total {total:.2f} ms (queue wait {queue:.2f} ms, execute "
        f"{execute:.2f} ms; /stats buckets, ~19% resolution)",
        client_p50_ms=client_p50,
        transport_ms=client_p50 - total,
        server_total_ms=total,
        queue_wait_ms=queue,
        execute_ms=execute,
    )
    out.layers.update(
        {
            "build.fastbuild_ms": (build_ms, "ms"),
            "op_p90_ms": (nearest_rank(latencies, 0.9), "ms"),
            "trace.overhead_pct": (100.0 * (median(traced_ms) / client_p50 - 1.0), "%"),
            "trace.uncovered_pct": (100.0 * (total - queue - execute) / client_p50, "%"),
            "serve.route.p50_ms": (by_kind["route"], "ms"),
            "serve.distance.p50_ms": (by_kind["distance"], "ms"),
            "serve.whatif.p50_ms": (by_kind["whatif"], "ms"),
            "serve.retries": (counts["retries"], "count"),
            "serve.server_total.p50_ms": (total, "ms"),
            "serve.queue_wait.p50_ms": (queue, "ms"),
            "serve.execute.p50_ms": (execute, "ms"),
            "serve.transport.p50_ms": (client_p50 - total, "ms"),
            "serve.scenario_cache.hits": (hits, "count"),
            "serve.scenario_cache.misses": (misses, "count"),
            "serve.scenario_cache.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0,
                "ratio",
            ),
            "serve.shed": (_shed(final) - _shed(before), "count"),
            "serve.worker_restarts": (
                final["workers"]["restarts"] - before["workers"]["restarts"],
                "count",
            ),
        }
    )
