"""Tracer core: no-op mode, nesting, schema, shards, warning events,
and the run scope that opens a run's registry and trace."""

import json
import os
import time

import pytest

from repro import obs
from repro.obs import trace as obs_trace
from repro.obs.log import Heartbeat
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.report import load_trace, validate_trace
from repro.obs.trace import (
    NULL_TRACER,
    SHARD_ENV,
    get_tracer,
    merge_shards,
    set_tracer,
    trace_path_from_env,
)


@pytest.fixture(autouse=True)
def _restore_tracer(monkeypatch):
    """Every test leaves the module-global tracer as it found it, and
    counts into a registry of its own."""
    monkeypatch.delenv(SHARD_ENV, raising=False)
    monkeypatch.setenv("REPRO_TRACE_MEM_INTERVAL", "0")  # no sampler thread
    previous = get_tracer()
    previous_registry = set_registry(MetricsRegistry())
    yield
    set_tracer(previous)
    set_registry(previous_registry)


class TestNullTracer:
    def test_default_tracer_is_disabled(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_spans_time_into_the_registry_without_a_tracer(self):
        assert get_tracer() is NULL_TRACER
        registry = get_registry()
        with obs_trace.span("phase.x", pattern="uniform", trial=3, seed=7) as span:
            span.tag(outcome="ok")  # tags at close count
        with obs_trace.span("phase.x", pattern="uniform"):
            pass
        obs_trace.record_span("phase.y", 0.0, 0.25, endpoint="route", slot=1)
        histograms = {
            (h["name"], tuple(sorted(h["labels"].items()))): h
            for h in registry.snapshot()["histograms"]
        }
        # seeds, trials and slots never become labels
        assert set(histograms) == {
            ("phase.x_seconds", (("outcome", "ok"), ("pattern", "uniform"))),
            ("phase.x_seconds", (("pattern", "uniform"),)),
            ("phase.y_seconds", (("endpoint", "route"),)),
        }
        assert all(h["count"] == 1 for h in histograms.values())
        (recorded,) = [h for h in histograms.values() if h["name"] == "phase.y_seconds"]
        assert recorded["sum"] == pytest.approx(0.25)

    def test_counters_and_events_are_noops(self):
        obs_trace.counter("c", 3)
        NULL_TRACER.event("degraded-mode", "nope")
        NULL_TRACER.close()  # idempotent no-op

    def test_disabled_overhead_is_negligible(self):
        span = obs_trace.span  # the module-level proxy used by hot paths
        started = time.perf_counter()
        for _ in range(20_000):
            with span("hot"):
                pass
        elapsed = time.perf_counter() - started
        # Generous bound: 20k disabled spans in well under a second.
        assert elapsed < 1.0


class TestSpans:
    def test_nesting_and_parent_ids(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.run(path):
            with obs_trace.span("outer", kind="a"):
                with obs_trace.span("inner"):
                    pass
                with obs_trace.span("inner"):
                    pass
        events = load_trace(path)
        spans = {(-e["t"], e["name"]): e for e in events if e["ev"] == "span"}
        by_name = {}
        for event in events:
            if event["ev"] == "span":
                by_name.setdefault(event["name"], []).append(event)
        (outer,) = by_name["outer"]
        inner = by_name["inner"]
        assert outer["parent"] is None
        assert len(inner) == 2
        assert all(s["parent"] == outer["sid"] for s in inner)
        assert len({s["sid"] for s in inner} | {outer["sid"]}) == 3
        assert all(s["dur"] >= 0 for s in [outer] + inner)
        assert spans  # silence linters

    def test_sibling_spans_share_parent_not_each_other(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.run(path):
            with obs_trace.span("a"):
                pass
            with obs_trace.span("b"):
                pass
        spans = [e for e in load_trace(path) if e["ev"] == "span"]
        assert all(s["parent"] is None for s in spans)

    def test_tag_after_entry(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.run(path):
            with obs_trace.span("work", fixed=1) as span:
                span.tag(result=42)
        (span_event,) = [e for e in load_trace(path) if e["ev"] == "span"]
        assert span_event["tags"] == {"fixed": 1, "result": 42}

    def test_counters_accumulate(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.run(path):
            obs_trace.counter("hits")
            obs_trace.counter("hits", 2)
            obs_trace.counter("seconds", 0.5)
        (counters,) = [e for e in load_trace(path) if e["ev"] == "counters"]
        assert counters["values"] == {"hits": 3, "seconds": 0.5}

    def test_span_keeps_its_duration(self):
        with obs_trace.span("timed") as span:
            time.sleep(0.01)
        assert span.dur >= 0.01
        (entry,) = [
            h for h in get_registry().snapshot()["histograms"]
            if h["name"] == "timed_seconds"
        ]
        assert entry["sum"] == pytest.approx(span.dur)


class TestRunScope:
    def test_run_folds_its_registry_into_the_callers(self):
        outer = get_registry()
        obs_trace.counter("hits", 10)
        with obs.run() as scope:
            assert get_registry() is scope.registry is not outer
            obs_trace.counter("hits", 3)
            with obs_trace.span("phase"):
                pass
        assert get_registry() is outer
        assert scope.registry.counter_values() == {"hits": 3}
        assert outer.counter_values() == {"hits": 13}
        assert [h["count"] for h in outer.snapshot()["histograms"]] == [1]

    def test_raising_block_folds_and_leaves_a_valid_trace(self, tmp_path):
        outer = get_registry()
        path = str(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError):
            with obs.run(path, experiment="X"):
                obs_trace.counter("trials", 2)
                with obs_trace.span("trial"):
                    raise RuntimeError("the run fails")
        assert get_registry() is outer
        assert get_tracer() is NULL_TRACER
        assert outer.counter_values() == {"trials": 2}
        events = load_trace(path)
        assert validate_trace(events) == []
        assert events[0]["tags"] == {"experiment": "X"}
        assert [e["name"] for e in events if e["ev"] == "span"] == ["trial"]
        (counters,) = [e for e in events if e["ev"] == "counters"]
        assert counters["values"] == {"trials": 2}

    def test_phase_counts_equal_span_counts(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.run(path) as scope:
            # one phase under two label sets sums into one entry
            for pattern in ("uniform", "incast", "uniform"):
                with obs_trace.span("allocate", pattern=pattern, trial=1):
                    pass
            obs_trace.record_span("queue", 0.0, 0.25, endpoint="route")
        traced = {}
        for event in load_trace(path):
            if event["ev"] == "span":
                count, seconds = traced.get(event["name"], (0, 0.0))
                traced[event["name"]] = (count + 1, seconds + event["dur"])
        phases = scope.phases()
        assert set(phases) == set(traced) == {"allocate", "queue"}
        for name, (count, seconds) in traced.items():
            assert phases[name][0] == count
            assert phases[name][1] == pytest.approx(seconds, abs=1e-6)
        assert phases["queue"] == (1, 0.25)

    def test_untraced_run_installs_no_tracer(self):
        with obs.run() as scope:
            assert get_tracer() is NULL_TRACER
        assert scope.trace is None


class TestSchema:
    def test_jsonl_roundtrip_validates(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.run(path, experiment="T1", quick=1):
            with obs_trace.span("outer"):
                with obs_trace.span("inner", depth=1):
                    obs_trace.counter("things", 2)
            obs_trace.event("degraded-mode", "pool died", context="unit", workers=2)
            get_tracer().sample_memory()
        events = load_trace(path)
        assert validate_trace(events) == []
        kinds = {e["ev"] for e in events}
        assert {"meta", "span", "counters", "warning"} <= kinds
        meta = events[0]
        assert meta["ev"] == "meta"
        assert meta["schema"] == obs_trace.SCHEMA_VERSION
        assert meta["tags"]["experiment"] == "T1"
        # Counters survive the write-read cycle exactly.
        (counters,) = [e for e in events if e["ev"] == "counters"]
        assert counters["values"] == {"things": 2}

    def test_validator_rejects_malformed_events(self):
        bad = [
            {"ev": "span", "t": 0.0, "pid": 1, "seq": 0},  # no name/dur/sid
            {"ev": "mystery", "t": 0.0, "pid": 1, "seq": 1},
            {"ev": "span", "t": 1.0, "pid": 1, "seq": 2, "name": "x",
             "sid": 7, "parent": 99, "dur": 0.1, "tags": {}},  # dangling parent
        ]
        problems = validate_trace(bad)
        assert any("name" in p for p in problems)
        assert any("unknown event type" in p for p in problems)
        assert any("parent 99" in p for p in problems)

    def test_loader_skips_junk_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"ev": "meta", "t": 0.0, "pid": 1, "seq": 0, "schema": 1, "tags": {}}\n'
            "not json at all\n"
            '{"ev": "rss", "t": 1.0, "pid": 1, "seq": 1, "rss_mb": 5.0, "peak_mb": 6.0}\n'
            '{"truncated": '
        )
        events = load_trace(str(path))
        assert [e["ev"] for e in events] == ["meta", "rss"]
        assert validate_trace(events) == []


class TestShards:
    @staticmethod
    def _write_shard(path, pid, t0):
        with open(path, "w", encoding="utf-8") as handle:
            for seq, t in enumerate((t0, t0 + 0.5)):
                handle.write(
                    json.dumps(
                        {
                            "ev": "span",
                            "t": t,
                            "dur": 0.1,
                            "name": f"worker-{pid}",
                            "sid": pid * 1_000_000 + seq + 1,
                            "parent": None,
                            "tags": {},
                            "pid": pid,
                            "seq": seq,
                        }
                    )
                    + "\n"
                )

    def test_merge_is_deterministic_and_sorted(self, tmp_path):
        main_line = json.dumps(
            {
                "ev": "meta",
                "t": 0.0,
                "schema": 1,
                "tags": {"run": "merge-test"},
                "pid": 7,
                "seq": 0,
            }
        )
        outputs = []
        for attempt in range(2):
            path = str(tmp_path / f"trace-{attempt}.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(main_line + "\n")
            # Shards as two fork-workers would leave them, written in
            # "wrong" (descending-pid) order to prove sorting.
            self._write_shard(f"{path}.shard-999", 999, t0=2.0)
            self._write_shard(f"{path}.shard-42", 42, t0=1.0)
            assert merge_shards(path) == 2
            assert not [
                name for name in os.listdir(tmp_path) if ".shard-" in name
            ], "shards must be consumed by the merge"
            events = load_trace(path)
            assert validate_trace(events) == []
            keys = [(e["t"], e["pid"], e["seq"]) for e in events]
            assert keys == sorted(keys)
            outputs.append(open(path, "rb").read())
        # Identical shard content => byte-identical merged trace.
        assert outputs[0] == outputs[1]

    def test_merge_without_shards_leaves_file_alone(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.run(path):
            with obs_trace.span("solo"):
                pass
        before = open(path).read()
        assert merge_shards(path) == 0
        assert open(path).read() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_fork_worker_redirects_to_shard(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "t.jsonl")
        with obs.run(path):
            ctx = multiprocessing.get_context("fork")
            proc = ctx.Process(target=_emit_child_span)
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == 0
            with obs_trace.span("parent-span"):
                pass
        events = load_trace(path)
        assert validate_trace(events) == []
        pids = {e["pid"] for e in events if e["ev"] == "span"}
        assert len(pids) == 2, "child span must arrive via its shard"
        child_spans = [
            e for e in events if e["ev"] == "span" and e["name"] == "child-work"
        ]
        assert len(child_spans) == 1
        assert child_spans[0]["parent"] is None  # no cross-process parents

    def test_maybe_init_worker_adopts_shard_from_env(self, tmp_path, monkeypatch):
        base = str(tmp_path / "main.jsonl")
        monkeypatch.setenv(SHARD_ENV, base)
        set_tracer(NULL_TRACER)
        obs_trace.maybe_init_worker()
        adopted = get_tracer()
        try:
            assert adopted.enabled
            assert adopted.path == f"{base}.shard-{os.getpid()}"
            with adopted.span("adopted-work"):
                pass
        finally:
            adopted.close()
        assert os.path.exists(f"{base}.shard-{os.getpid()}")

    def test_maybe_init_worker_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(SHARD_ENV, raising=False)
        set_tracer(NULL_TRACER)
        obs_trace.maybe_init_worker()
        assert get_tracer() is NULL_TRACER


def _emit_child_span():
    with obs_trace.span("child-work"):
        pass
    get_tracer().close()


class TestTraceContext:
    def test_mint_is_unique_and_header_safe(self):
        from repro.serve.protocol import normalize_trace_id

        ids = {obs_trace.mint_trace_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(normalize_trace_id(i) == i for i in ids)

    def test_context_nests_and_restores(self):
        assert obs_trace.current_trace_id() is None
        with obs_trace.trace_context("outer-id"):
            assert obs_trace.current_trace_id() == "outer-id"
            with obs_trace.trace_context("inner-id"):
                assert obs_trace.current_trace_id() == "inner-id"
            assert obs_trace.current_trace_id() == "outer-id"
        assert obs_trace.current_trace_id() is None

    def test_none_context_unbinds(self):
        # Workers enter trace_context(request.get("trace")) unguarded;
        # a request without an id must not inherit a stale one.
        with obs_trace.trace_context("kept"):
            with obs_trace.trace_context(None):
                assert obs_trace.current_trace_id() is None
            assert obs_trace.current_trace_id() == "kept"

    def test_spans_are_tagged_with_the_active_trace(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.run(path):
            with obs_trace.trace_context("req-1"):
                with obs_trace.span("traced"):
                    pass
            with obs_trace.span("untraced"):
                pass
        spans = {e["name"]: e for e in load_trace(path) if e["ev"] == "span"}
        assert spans["traced"]["tags"]["trace"] == "req-1"
        assert "trace" not in spans["untraced"]["tags"]

    def test_record_span_emits_retroactive_span(self, tmp_path):
        import time as _time

        path = str(tmp_path / "t.jsonl")
        with obs.run(path):
            t0 = _time.perf_counter() - 0.05
            with obs_trace.trace_context("req-2"):
                obs_trace.record_span("serve.queue", t0, 0.05, op="route", slot=0)
        events = load_trace(path)
        assert validate_trace(events) == []
        (span,) = [e for e in events if e["ev"] == "span"]
        assert span["name"] == "serve.queue"
        assert span["dur"] == pytest.approx(0.05)
        assert span["tags"]["trace"] == "req-2"
        assert span["tags"]["slot"] == 0

    def test_record_span_is_noop_when_disabled(self):
        set_tracer(NULL_TRACER)
        obs_trace.record_span("nothing", 0.0, 1.0)  # must not raise


class TestTruncatedShards:
    """Satellite: a worker SIGKILLed mid-write must not corrupt the merge."""

    def test_truncated_final_line_yields_warning_event(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                '{"ev": "meta", "t": 0.0, "pid": 1, "seq": 0, '
                '"schema": 1, "tags": {}}\n'
            )
        shard = f"{path}.shard-4242"
        with open(shard, "w", encoding="utf-8") as handle:
            handle.write(
                '{"ev": "span", "t": 1.0, "dur": 0.1, "name": "work", '
                '"sid": 1, "parent": null, "tags": {}, "pid": 4242, "seq": 0}\n'
            )
            handle.write('{"ev": "span", "t": 2.0, "dur": 0.2, "na')  # killed here
        assert merge_shards(path) == 1
        events = load_trace(path)
        assert validate_trace(events) == []
        (warning,) = [e for e in events if e["ev"] == "warning"]
        assert warning["kind"] == "truncated-shard"
        assert warning["pid"] == 4242
        assert warning["data"]["skipped"] == 1
        # surviving events still merge in order
        assert [e["ev"] for e in events] == ["meta", "span", "warning"]

    def test_intact_shards_produce_no_warning(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                '{"ev": "meta", "t": 0.0, "pid": 1, "seq": 0, '
                '"schema": 1, "tags": {}}\n'
            )
        TestShards._write_shard(f"{path}.shard-7", 7, t0=1.0)
        assert merge_shards(path) == 1
        assert [e for e in load_trace(path) if e["ev"] == "warning"] == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork + SIGKILL")
    def test_sigkill_mid_write_is_survivable(self, tmp_path):
        """A real writer killed mid-line: merge skips the tail, warns."""
        import signal

        path = str(tmp_path / "t.jsonl")
        # the scope's close merges the child's shard, tail and all
        with obs.run(path):
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            proc = ctx.Process(target=_write_then_die_mid_line)
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == -signal.SIGKILL
        assert not [
            name for name in os.listdir(tmp_path) if ".shard-" in name
        ], "shard must be consumed by the close-time merge"
        events = load_trace(path)
        assert validate_trace(events) == []
        survivors = [
            e for e in events if e["ev"] == "span" and e["name"] == "whole-span"
        ]
        assert len(survivors) == 1
        (warning,) = [e for e in events if e["ev"] == "warning"]
        assert warning["kind"] == "truncated-shard"


def _write_then_die_mid_line():
    """Child body: one whole event, then SIGKILL self mid-record."""
    import signal

    with obs_trace.span("whole-span"):
        pass
    tracer = get_tracer()
    tracer._handle.flush()
    # Start a record but never finish the line, then die like an
    # OOM-killed worker would: no atexit, no flush, no close.
    tracer._handle.write('{"ev": "span", "t": 9.9, "dur": 0.1, "name"')
    tracer._handle.flush()
    os.kill(os.getpid(), signal.SIGKILL)


class TestEnvResolution:
    def test_trace_env_off(self, monkeypatch):
        monkeypatch.delenv(obs_trace.TRACE_ENV, raising=False)
        assert trace_path_from_env("default.jsonl") is None
        monkeypatch.setenv(obs_trace.TRACE_ENV, "0")
        assert trace_path_from_env("default.jsonl") is None

    def test_trace_env_truthy_uses_default(self, monkeypatch):
        monkeypatch.setenv(obs_trace.TRACE_ENV, "1")
        assert trace_path_from_env("default.jsonl") == "default.jsonl"
        monkeypatch.setenv(obs_trace.TRACE_ENV, "true")
        assert trace_path_from_env("default.jsonl") == "default.jsonl"

    def test_trace_env_path_wins(self, monkeypatch):
        monkeypatch.setenv(obs_trace.TRACE_ENV, "/tmp/custom.jsonl")
        assert trace_path_from_env("default.jsonl") == "/tmp/custom.jsonl"


class TestDegradedModeEvents:
    """Satellite: pool degradation must be visible in the trace."""

    def test_degraded_pool_emits_warning_events(self, tmp_path, monkeypatch):
        from repro.metrics import engine

        class AlwaysBroken:
            def __init__(self, *args, **kwargs):
                raise OSError("no fork for you")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", AlwaysBroken)
        monkeypatch.setattr(engine, "POOL_RETRY_BACKOFF_S", 0.0)
        path = str(tmp_path / "t.jsonl")
        with obs.run(path):
            with pytest.warns(engine.DegradedModeWarning):
                result = engine.map_with_pool_recovery(
                    _times_three,
                    [1, 2],
                    workers=2,
                    sequential=lambda tasks: [t * 3 for t in tasks],
                    context="obs unit test",
                )
        assert result == [3, 6]
        events = load_trace(path)
        assert validate_trace(events) == []
        warnings = [e for e in events if e["ev"] == "warning"]
        kinds = [w["kind"] for w in warnings]
        assert kinds == ["pool-retry", "degraded-mode"]
        degraded = warnings[-1]
        assert degraded["data"]["context"] == "obs unit test"
        assert degraded["data"]["workers"] == 2
        assert "OSError" in degraded["data"]["error"]
        # The pool span records the degradation and the counters count it.
        (pool_span,) = [
            e for e in events if e["ev"] == "span" and e["name"] == "pool"
        ]
        assert pool_span["tags"]["degraded"] is True
        (counters,) = [e for e in events if e["ev"] == "counters"]
        assert counters["values"]["pool.retries"] == 1
        assert counters["values"]["pool.degraded"] == 1

    def test_healthy_pool_emits_no_warnings(self, tmp_path):
        from repro.metrics import engine

        path = str(tmp_path / "t.jsonl")
        with obs.run(path):
            result = engine.map_with_pool_recovery(
                _times_three,
                [1, 2, 3],
                workers=2,
                sequential=lambda tasks: [t * 3 for t in tasks],
                context="healthy",
            )
        assert result == [3, 6, 9]
        events = load_trace(path)
        assert [e for e in events if e["ev"] == "warning"] == []


def _times_three(x):
    return x * 3


class TestHeartbeat:
    def test_heartbeat_fires_until_stopped(self):
        beats = []
        hb = Heartbeat(0.02, beats.append)
        time.sleep(0.15)
        hb.stop()
        count = len(beats)
        assert count >= 2
        # each beat carries the seconds elapsed since the heartbeat began
        assert 0.0 < beats[0] < beats[-1]
        assert beats == sorted(beats)
        time.sleep(0.06)
        assert len(beats) == count  # stopped means stopped

    def test_zero_interval_is_dormant(self):
        beats = []
        hb = Heartbeat(0.0, beats.append)
        time.sleep(0.05)
        hb.stop()
        assert beats == []

    def test_raising_callback_kills_heartbeat_not_test(self):
        def boom(elapsed):
            raise RuntimeError("observability must never break the run")

        hb = Heartbeat(0.01, boom)
        time.sleep(0.05)
        hb.stop()
