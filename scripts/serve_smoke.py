"""CI smoke for the serve daemon: full lifecycle against a real process.

Starts ``repro serve`` as a subprocess, polls ``/healthz`` until ready,
fires a burst of route + what-if queries (including one that must be
shed under a deliberately tiny queue bound), scrapes ``/metrics``
mid-burst (the exposition must stay well-formed while workers churn)
and again after the burst (latency-histogram counts must agree with
``/stats``), then SIGTERMs the daemon and asserts a clean drain: exit
code 0, the drain message on stdout, no traceback on stderr, and zero
leaked shared-memory segments.  The shed count is checked from three
sides — the clients' 429s, ``/stats`` and the trace's ``counters``
event — since all of them read the one metrics registry.

Run from the repo root:  python scripts/serve_smoke.py
"""

import glob
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from repro.obs.metrics import exposition_problems  # noqa: E402
from repro.obs.report import load_trace  # noqa: E402
from repro.serve import ServeClient, ServeError  # noqa: E402

SPAWN_TIMEOUT_S = 120


def shm_segments():
    if not os.path.isdir("/dev/shm"):
        return set()
    return set(glob.glob("/dev/shm/psm_*"))


def scrape_metrics(port: int):
    """GET /metrics raw (the exposition is text, not the JSON envelope)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        return response.status, response.getheader("Content-Type") or "", body
    finally:
        conn.close()


def assert_exposition_ok(body: str, when: str) -> None:
    problems = exposition_problems(body)
    assert not problems, f"/metrics malformed {when}: {problems}"


def exposition_series_count(body: str, series: str) -> float:
    """Sum of every ``series{...} value`` sample in the exposition."""
    total = 0.0
    pattern = re.compile(r"^" + re.escape(series) + r"(?:\{[^}]*\})? (\S+)$")
    for line in body.splitlines():
        match = pattern.match(line)
        if match:
            total += float(match.group(1))
    return total


def main() -> int:
    before = shm_segments()
    ready_file = os.path.join(ROOT, "serve-smoke-ready.json")
    trace_file = os.path.join(ROOT, "serve-smoke.trace.jsonl")
    for stale in (ready_file, trace_file):
        if os.path.exists(stale):
            os.unlink(stale)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "abccc",
            "-p", "n=4", "-p", "k=2", "-p", "s=2",
            "--workers", "2",
            "--queue", "2",  # tiny on purpose: the burst must shed
            "--port", "0",
            "--ready-file", ready_file,
            "--trace", trace_file,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )

    deadline = time.monotonic() + SPAWN_TIMEOUT_S
    while time.monotonic() < deadline and not os.path.exists(ready_file):
        if proc.poll() is not None:
            out, err = proc.communicate()
            raise SystemExit(f"daemon died during startup:\n{out}\n{err}")
        time.sleep(0.1)
    assert os.path.exists(ready_file), "daemon never wrote the ready file"
    with open(ready_file, encoding="utf-8") as handle:
        port = json.load(handle)["port"]
    print(f"daemon ready on port {port}")

    client = ServeClient(port=port, retries=4, backoff_base_s=0.05, seed=0)
    state = client.health()
    assert state["status"] == "serving", state
    assert client.ready()

    # -- correctness burst ---------------------------------------------
    route = client.route("0", "100")
    assert route["status"] == "ok" and route["reachable"], route
    assert len(route["path"]) == route["link_hops"] + 1
    detour = client.route("0", "100", avoid=[route["path"][1]])
    assert route["path"][1] not in detour["path"], detour
    whatif = client.whatif(dead_switches=[route["path"][1]], sample_pairs=100)
    assert whatif["status"] in ("ok", "degraded"), whatif
    print(
        f"route {route['link_hops']} hops; what-if: "
        f"{whatif['alive_servers']}/{whatif['num_servers']} alive, "
        f"lcf {whatif['largest_component_fraction']}"
    )

    # -- /metrics after the correctness burst --------------------------
    status, ctype, body = scrape_metrics(port)
    assert status == 200, (status, body[:200])
    assert ctype.startswith("text/plain"), ctype
    assert_exposition_ok(body, "after correctness burst")
    for series in (
        "repro_serve_request_latency_seconds_bucket",
        "repro_serve_queue_wait_seconds_count",
        "repro_serve_requests_total",
        "repro_serve_worker_alive",
    ):
        assert series in body, f"core series {series} missing from /metrics"
    assert 'endpoint="route"' in body and 'outcome="ok"' in body, body[:400]
    print("/metrics: well-formed, core series present")

    # -- overload burst: the tiny queue must shed, never hang ----------
    outcomes = []

    def hammer(slot: int) -> None:
        c = ServeClient(port=port, retries=0, timeout_s=60, seed=slot)
        try:
            c.whatif(
                dead_servers=[f"s0.0.{slot}/0"],
                sample_pairs=100_000,  # max-cost request: keeps workers busy
            )
            outcomes.append("ok")
        except ServeError as error:
            outcomes.append(error.code)
        finally:
            c.close()

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(12)]
    for t in threads:
        t.start()
    # mid-burst scrape: the exposition must stay well-formed while the
    # queue sheds and workers churn (the point of live telemetry).
    status, _, body = scrape_metrics(port)
    assert status == 200, status
    assert_exposition_ok(body, "mid-burst")
    print("/metrics: well-formed mid-burst")
    for t in threads:
        t.join(timeout=SPAWN_TIMEOUT_S)
        assert not t.is_alive(), "a burst request hung"
    shed = outcomes.count("overload")
    print(f"burst outcomes: {sorted(outcomes)} ({shed} shed)")
    assert shed >= 1, f"tiny queue never shed: {outcomes}"
    assert "internal" not in outcomes, outcomes

    stats = client.stats()
    # burst clients run with retries=0, so each 429 is one overload error
    assert stats["counters"]["shed_overload"] == shed, (shed, stats["counters"])

    # -- /metrics agrees with /stats after the burst settles -----------
    status, _, body = scrape_metrics(port)
    assert status == 200, status
    assert_exposition_ok(body, "after burst")
    exposed = exposition_series_count(body, "repro_serve_request_latency_seconds_count")
    snapshot = stats["metrics"]
    recorded = sum(
        h["count"]
        for h in snapshot["histograms"]
        if h["name"] == "serve.request.latency_seconds"
    )
    assert exposed == recorded, (exposed, recorded)
    assert 'outcome="shed"' in body, "shed outcome series missing"
    memory = stats.get("memory") or {}
    pool_mb = memory.get("pool_total_mb")
    assert pool_mb, memory
    # The daemon and its two workers read ~150 MB here after the burst,
    # what-ifs included.  A worker that imports scipy adds ~27 MB, so
    # the budget fails if the query path pulls scipy back in.
    assert pool_mb < 190, f"pool RSS {pool_mb} MB is over the 190 MB budget"
    print(
        f"/metrics vs /stats: {int(exposed)} requests in both; "
        f"pool RSS {pool_mb} MB"
    )
    client.close()

    # -- SIGTERM drain --------------------------------------------------
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=SPAWN_TIMEOUT_S)
    assert proc.returncode == 0, f"exit {proc.returncode}:\n{err}"
    assert "drained and stopped" in out, out
    assert "Traceback" not in err, err
    leaked = shm_segments() - before
    assert not leaked, f"leaked shm segments: {leaked}"
    os.unlink(ready_file)
    assert os.path.exists(trace_file), "trace file missing"
    (counters,) = [e for e in load_trace(trace_file) if e["ev"] == "counters"]
    traced = counters["values"].get("serve.shed.overload")
    assert traced == shed, f"trace counted {traced} overload sheds, clients saw {shed}"
    print(f"shed {shed} times: clients, /stats and the trace agree")
    print("serve smoke: OK (clean drain, no leaked segments)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
