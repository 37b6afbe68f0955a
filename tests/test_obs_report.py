"""`repro obs report`: summarisation, rendering, CLI, end-to-end trace."""

import json
import os

import pytest

from repro.cli import main
from repro.obs.report import (
    cache_hit_lines,
    follow_trace,
    load_trace,
    render_report,
    render_tail_event,
    render_trace,
    report_files,
    report_trace_id,
    summarize,
    trace_spans,
    validate_trace,
)

MAIN_PID = 100
WORKER_A = 201
WORKER_B = 202


def _fixture_events():
    """A small hand-built trace with known numbers.

    Timeline (seconds): meta at t=0; the experiment span covers
    [0, 10]; a pool span covers [2, 8] with 2 workers and 4 tasks;
    each worker contributes 2.4s of top-level busy time inside the
    window (utilization = 4.8 / (2 x 6) = 40%).
    """
    events = [
        {
            "ev": "meta", "t": 0.0, "schema": 1,
            "tags": {"experiment": "F8", "quick": 0, "workers": 2},
            "pid": MAIN_PID, "seq": 0,
        },
        {
            "ev": "span", "t": 0.0, "dur": 10.0, "name": "experiment",
            "sid": 1, "parent": None, "tags": {"exp": "F8"},
            "pid": MAIN_PID, "seq": 1,
        },
        {
            "ev": "span", "t": 0.5, "dur": 1.0, "name": "faults.plan",
            "sid": 2, "parent": 1, "tags": {"model": "server"},
            "pid": MAIN_PID, "seq": 2,
        },
        {
            "ev": "span", "t": 2.0, "dur": 6.0, "name": "pool",
            "sid": 3, "parent": 1,
            "tags": {"context": "degradation sweep X/server", "workers": 2,
                     "tasks": 4},
            "pid": MAIN_PID, "seq": 3,
        },
        {
            "ev": "span", "t": 8.5, "dur": 0.5, "name": "faults.journal",
            "sid": 4, "parent": 1, "tags": {},
            "pid": MAIN_PID, "seq": 4,
        },
        {
            "ev": "counters", "t": 9.9,
            "values": {"compiled.link.cache_hit": 9,
                       "compiled.link.cache_miss": 1,
                       "faults.trials": 4},
            "pid": MAIN_PID, "seq": 5,
        },
        {"ev": "rss", "t": 5.0, "rss_mb": 120.0, "peak_mb": 150.0,
         "pid": MAIN_PID, "seq": 6},
        {"ev": "rss", "t": 9.0, "rss_mb": 110.0, "peak_mb": 155.5,
         "pid": MAIN_PID, "seq": 7},
    ]
    seq = 0
    for pid, t0 in ((WORKER_A, 2.5), (WORKER_B, 3.0)):
        for i in range(2):
            events.append(
                {
                    "ev": "span", "t": t0 + 1.5 * i, "dur": 1.2,
                    "name": "faults.trial", "sid": pid * 1_000_000 + i + 1,
                    "parent": None, "tags": {"level": 0.1},
                    "pid": pid, "seq": seq + i,
                }
            )
        seq += 2
    return events


@pytest.fixture
def fixture_trace(tmp_path):
    path = tmp_path / "f8.trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for event in _fixture_events():
            handle.write(json.dumps(event) + "\n")
    return str(path)


class TestSummarize:
    def test_fixture_is_schema_valid(self, fixture_trace):
        assert validate_trace(load_trace(fixture_trace)) == []

    def test_wall_phases_and_peak(self, fixture_trace):
        summary = summarize(load_trace(fixture_trace))
        assert summary.main_pid == MAIN_PID
        assert summary.worker_pids == [WORKER_A, WORKER_B]
        assert summary.wall_s == pytest.approx(10.0)
        assert summary.peak_rss_mb == pytest.approx(155.5)
        assert summary.phases["experiment"].total_s == pytest.approx(10.0)
        assert summary.phases["faults.trial"].count == 4
        assert summary.phases["faults.trial"].total_s == pytest.approx(4.8)
        assert summary.phases["faults.plan"].mean_ms == pytest.approx(1000.0)

    def test_worker_utilization(self, fixture_trace):
        summary = summarize(load_trace(fixture_trace))
        (pool,) = summary.pools
        assert pool.context == "degradation sweep X/server"
        assert pool.workers == 2
        assert pool.tasks == 4
        assert pool.wall_s == pytest.approx(6.0)
        assert pool.busy_s == pytest.approx(4.8)
        assert pool.utilization == pytest.approx(0.4)

    def test_slowest_ordering(self, fixture_trace):
        summary = summarize(load_trace(fixture_trace))
        top = summary.slowest(3)
        assert [s["name"] for s in top] == ["experiment", "pool", "faults.trial"]

    def test_counters_merged(self, fixture_trace):
        summary = summarize(load_trace(fixture_trace))
        assert summary.counters["faults.trials"] == 4
        assert summary.counters["compiled.link.cache_hit"] == 9

    def test_counters_cumulative_per_pid(self):
        # Values are cumulative per emitting process: the latest event
        # per pid supersedes earlier snapshots, distinct pids sum.
        events = [
            {"ev": "counters", "t": 1.0, "values": {"n": 2}, "pid": 200,
             "seq": 0},
            {"ev": "counters", "t": 2.0, "values": {"n": 5}, "pid": 200,
             "seq": 1},
            {"ev": "counters", "t": 3.0, "values": {"n": 3}, "pid": 100,
             "seq": 0},
        ]
        assert summarize(events).counters["n"] == 8


class TestRender:
    def test_report_sections_golden(self, fixture_trace):
        text = render_report(fixture_trace, summarize(load_trace(fixture_trace)))
        assert "run: experiment=F8 quick=0 workers=2" in text
        assert "wall 10.000s" in text
        assert "peak RSS 155.5 MB" in text
        assert "processes: main pid 100 + 2 workers" in text
        assert "phase breakdown" in text
        # experiment row: count 1, total 10.000, 100% of wall.
        assert "experiment" in text and "100.0%" in text
        assert "faults.trial" in text
        assert "slowest spans" in text
        assert "worker pools:" in text
        assert "40.0%" in text  # utilization of the fixture pool
        assert "compiled.link" in text and "(90% hit)" in text
        assert "warnings: none" in text

    def test_warnings_listed(self, tmp_path):
        events = _fixture_events()
        events.append(
            {
                "ev": "warning", "t": 7.0, "kind": "degraded-mode",
                "message": "pool died", "data": {"workers": 2},
                "pid": MAIN_PID, "seq": 99,
            }
        )
        path = tmp_path / "warn.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        text = render_report(str(path), summarize(load_trace(str(path))))
        assert "warnings (1):" in text
        assert "[degraded-mode] pool died" in text

    def test_cache_hit_lines_math(self):
        lines = cache_hit_lines(
            {"x.cache_hit": 3, "x.cache_miss": 1, "unrelated": 5}
        )
        assert len(lines) == 1
        assert "3 hit / 1 miss (75% hit)" in lines[0]
        assert cache_hit_lines({"unrelated": 5}) == []


class TestCli:
    def test_obs_report_cli(self, fixture_trace, capsys):
        assert main(["obs", "report", fixture_trace]) == 0
        out = capsys.readouterr().out
        assert f"=== trace: {fixture_trace} ===" in out
        assert "phase breakdown" in out

    def test_obs_report_multiple_files(self, fixture_trace, tmp_path, capsys):
        import shutil

        second = str(tmp_path / "second.jsonl")
        shutil.copy(fixture_trace, second)
        assert main(["obs", "report", fixture_trace, second]) == 0
        out = capsys.readouterr().out
        assert out.count("=== trace:") == 2

    def test_obs_report_missing_file(self, capsys):
        # A not-yet-written trace is a normal operational state, not an
        # error: dashboards must see "no events" and a zero exit.
        assert main(["obs", "report", "/nonexistent/trace.jsonl"]) == 0
        assert "no events" in capsys.readouterr().out

    def test_obs_report_reports_schema_problems(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev": "mystery", "t": 0.0, "pid": 1, "seq": 0}\n')
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "schema problems" in out

    def test_run_trace_flag_produces_valid_trace(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        trace_path = os.path.join(out_dir, "f8.trace.jsonl")
        assert (
            main(["run", "F8", "--quick", "--out", out_dir, "--trace"]) == 0
        )
        capsys.readouterr()
        assert os.path.exists(trace_path)
        events = load_trace(trace_path)
        assert validate_trace(events) == []
        names = {e.get("name") for e in events if e.get("ev") == "span"}
        # The acceptance phases are all present in an F8 trace.
        assert {"experiment", "faults.plan", "faults.mask", "faults.trial",
                "faults.journal", "topology.compile"} <= names
        assert main(["obs", "report", trace_path]) == 0
        report = capsys.readouterr().out
        for needle in ("faults.plan", "faults.mask", "faults.trial",
                       "faults.journal", "peak RSS"):
            assert needle in report


class TestHarnessIntegration:
    def test_run_experiment_trace_argument(self, tmp_path):
        from repro.experiments import run_experiment

        path = str(tmp_path / "custom-name.jsonl")
        run_experiment(
            "F11", quick=True, out_dir=str(tmp_path), verbose=False, trace=path
        )
        events = load_trace(path)
        assert validate_trace(events) == []
        meta = events[0]
        assert meta["tags"]["experiment"] == "F11"

    def test_trace_env_variable(self, tmp_path, monkeypatch):
        from repro.experiments import run_experiment

        monkeypatch.setenv("REPRO_TRACE", "1")
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        default_path = tmp_path / "f11.trace.jsonl"
        assert default_path.exists()
        assert validate_trace(load_trace(str(default_path))) == []

    def test_no_trace_file_without_optin(self, tmp_path, monkeypatch):
        from repro.experiments import run_experiment

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        assert not list(tmp_path.glob("*.trace.jsonl"))

    def test_runtimes_csv_rows_are_the_phases_that_ran(self, tmp_path):
        import csv

        from repro.experiments import run_experiment

        run_experiment("F8", quick=True, out_dir=str(tmp_path), verbose=False, trace=True)
        run_experiment("T1", quick=True, out_dir=str(tmp_path), verbose=False)
        with open(tmp_path / "runtimes.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        traced = {}
        for event in load_trace(str(tmp_path / "f8.trace.jsonl")):
            if event["ev"] == "span":
                traced[event["name"]] = traced.get(event["name"], 0) + 1
        # one F8 row per span name in the trace, carrying its span count
        f8 = {row["phase"]: row for row in rows if row["experiment"] == "F8"}
        assert {phase: int(row["count"]) for phase, row in f8.items()} == traced
        assert traced["faults.trial"] == 24
        wall = float(f8["experiment"]["seconds"])
        assert wall >= float(f8["faults.trials"]["seconds"]) > 0.0
        peaks = {row["process_peak_rss_mb"] for row in f8.values()}
        assert len(peaks) == 1  # one process high-water mark per run
        if peaks != {""}:
            assert float(peaks.pop()) > 0.0
        # T1 runs no fault sweep: it has no fault phase rows at all
        t1 = {row["phase"] for row in rows if row["experiment"] == "T1"}
        assert "experiment" in t1
        assert not [phase for phase in t1 if phase.startswith("faults.")]

    def test_profile_flag_writes_prof(self, tmp_path):
        from repro.experiments import run_experiment

        run_experiment(
            "F11", quick=True, out_dir=str(tmp_path), verbose=False, profile=True
        )
        assert (tmp_path / "f11.prof").exists()


def _traced_span(pid, sid, t, dur, name, trace=None, parent=None, seq=0, **tags):
    if trace is not None:
        tags["trace"] = trace
    return {
        "ev": "span", "t": t, "dur": dur, "name": name, "sid": sid,
        "parent": parent, "tags": tags, "pid": pid, "seq": seq,
    }


class TestTraceStitching:
    """``--trace-id``: one request's spans across processes, as a tree."""

    def _request_events(self):
        # client pid 300, server pid 100, worker pid 201 — one request.
        return [
            _traced_span(300, 1, 10.0, 0.050, "serve.client.request",
                         trace="abc123", seq=0, method="POST", path="/route"),
            _traced_span(100, 7, 10.010, 0.004, "serve.queue",
                         trace="abc123", seq=0, op="route", slot=0),
            _traced_span(201, 5, 10.015, 0.030, "serve.execute",
                         trace="abc123", seq=0, op="route"),
            _traced_span(201, 6, 10.016, 0.025, "serve.bfs",
                         trace="abc123", parent=5, seq=1, op="route"),
            # unrelated request that must not leak into the stitch
            _traced_span(201, 9, 10.5, 0.010, "serve.execute",
                         trace="zzz999", seq=2, op="distance"),
            # untraced background span
            _traced_span(100, 8, 10.6, 0.001, "housekeeping", seq=1),
        ]

    def test_trace_spans_filters_and_sorts(self):
        spans = trace_spans(self._request_events(), "abc123")
        assert [s["name"] for s in spans] == [
            "serve.client.request", "serve.queue", "serve.execute", "serve.bfs",
        ]

    def test_render_trace_tree(self):
        spans = trace_spans(self._request_events(), "abc123")
        text = render_trace("abc123", spans)
        lines = text.splitlines()
        assert lines[0].startswith("trace abc123: 4 span(s) across 3 process(es)")
        # serve.bfs nests under serve.execute (same pid, parent sid)
        bfs_line = next(line for line in lines if "serve.bfs" in line)
        execute_line = next(line for line in lines if "serve.execute" in line)
        assert bfs_line.index("serve.bfs") > execute_line.index("serve.execute")
        # offsets are relative to the trace start (client span at 0)
        client_line = next(
            line for line in lines if "serve.client.request" in line
        )
        assert client_line.split()[0] == "0.00"
        # the stitch tag itself is not displayed as a span tag
        assert "trace=" not in text

    def test_report_trace_id_across_files(self, tmp_path):
        events = self._request_events()
        path_a = tmp_path / "client.trace.jsonl"
        path_b = tmp_path / "server.trace.jsonl"
        with open(path_a, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(events[0]) + "\n")
        with open(path_b, "w", encoding="utf-8") as handle:
            for event in events[1:]:
                handle.write(json.dumps(event) + "\n")
        text, count = report_trace_id([str(path_a), str(path_b)], "abc123")
        assert count == 4
        assert "serve.client.request" in text and "serve.bfs" in text

    def test_unknown_trace_id_renders_no_spans(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._request_events():
                handle.write(json.dumps(event) + "\n")
        text, count = report_trace_id([str(path)], "not-a-trace")
        assert count == 0
        assert "no spans" in text


class TestMemorySection:
    def test_rss_by_pid_tracks_workers(self, tmp_path):
        events = _fixture_events()
        events.append({"ev": "rss", "t": 5.0, "rss_mb": 70.0, "peak_mb": 80.0,
                       "pid": WORKER_A, "seq": 90})
        events.append({"ev": "rss", "t": 6.0, "rss_mb": 75.0, "peak_mb": 85.0,
                       "pid": WORKER_A, "seq": 91})
        summary = summarize(events)
        assert summary.rss_by_pid[MAIN_PID] == 155.5
        assert summary.rss_by_pid[WORKER_A] == 85.0
        text = render_report("x.jsonl", summary)
        assert "memory (peak RSS per process):" in text
        assert "main" in text and "worker" in text
        assert "pool total" in text

    def test_single_process_trace_has_no_memory_section(self):
        summary = summarize(_fixture_events())
        assert len(summary.rss_by_pid) == 1
        text = render_report("x.jsonl", summary)
        assert "memory (peak RSS per process):" not in text


class TestTail:
    def test_follow_yields_appended_events_and_stops_at_max(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        events = _fixture_events()[:4]
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        seen = list(
            follow_trace(path, poll_s=0.01, timeout_s=2.0, max_events=4)
        )
        assert [e["ev"] for e in seen] == [e["ev"] for e in events]

    def test_follow_holds_back_partial_lines(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        whole = json.dumps(_fixture_events()[0])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(whole + "\n")
            handle.write('{"ev": "span", "t": 1.0, "na')  # writer mid-line
        follower = follow_trace(path, poll_s=0.01, timeout_s=0.2)
        first = next(follower)
        assert first["ev"] == "meta"
        # the partial tail is held back, then the follower times out
        assert list(follower) == []

    def test_follow_times_out_on_missing_file(self, tmp_path):
        path = str(tmp_path / "never-written.jsonl")
        assert list(follow_trace(path, poll_s=0.01, timeout_s=0.1)) == []

    def test_follow_picks_up_shards(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(_fixture_events()[0]) + "\n")
        shard = f"{path}.shard-201"
        with open(shard, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(_traced_span(201, 1, 2.0, 0.1, "worker-span")) + "\n"
            )
        seen = list(follow_trace(path, poll_s=0.01, timeout_s=0.5, max_events=2))
        assert {e["ev"] for e in seen} == {"meta", "span"}

    def test_render_tail_event_forms(self):
        span_line = render_tail_event(
            _traced_span(7, 1, 0.0, 0.0123, "serve.execute", op="route")
        )
        assert "serve.execute" in span_line and "12.30 ms" in span_line
        warn_line = render_tail_event(
            {"ev": "warning", "pid": 7, "kind": "truncated-shard",
             "message": "skipped 1", "data": {}}
        )
        assert "truncated-shard" in warn_line
        rss_line = render_tail_event(
            {"ev": "rss", "pid": 7, "rss_mb": 10.0, "peak_mb": 12.0}
        )
        assert "12.0 MB" in rss_line
        assert render_tail_event({"ev": "counters", "pid": 7, "values": {}}) is None


class TestCliTelemetry:
    def test_obs_report_empty_trace_prints_no_events_exit_zero(
        self, tmp_path, capsys
    ):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "report", str(empty)]) == 0
        assert "no events" in capsys.readouterr().out

    def test_obs_report_missing_trace_prints_no_events_exit_zero(
        self, tmp_path, capsys
    ):
        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 0
        assert "no events" in capsys.readouterr().out

    def test_obs_report_trace_id_flag(self, tmp_path, capsys):
        path = tmp_path / "t.trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    _traced_span(1, 1, 0.0, 0.1, "serve.client.request",
                                 trace="feed42")
                )
                + "\n"
            )
        assert main(["obs", "report", str(path), "--trace-id", "feed42"]) == 0
        out = capsys.readouterr().out
        assert "trace feed42" in out and "serve.client.request" in out

    def test_obs_report_unknown_trace_id_is_no_events(self, tmp_path, capsys):
        path = tmp_path / "t.trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(_traced_span(1, 1, 0.0, 0.1, "x", trace="real"))
                + "\n"
            )
        assert main(["obs", "report", str(path), "--trace-id", "ghost"]) == 0
        assert "no events" in capsys.readouterr().out

    def test_obs_tail_cli(self, tmp_path, capsys):
        path = tmp_path / "t.trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for event in _fixture_events()[:3]:
                handle.write(json.dumps(event) + "\n")
        assert main(
            ["obs", "tail", str(path), "--poll", "0.01", "--timeout", "0.1",
             "--max-events", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "meta" in out and "span" in out
