"""Crash-safety of the experiment harness: timeouts, SIGKILL, resume.

Two layers are covered:

* in-process — a wall-clock timeout interrupts a throttled F8 run, the
  trial journal survives with the completed trials, and ``resume=True``
  finishes the run without recomputing them;
* subprocess smoke — ``repro run F8 --quick`` is SIGKILLed mid-sweep,
  then ``repro run F8 --quick --resume --trace`` completes from the
  journal (asserted from the trial counters in the resumed run's trace).

Both use the ``REPRO_FAULTS_TRIAL_SLEEP`` throttle so quick-mode runs
are slow enough to interrupt deterministically.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.harness import (
    ExperimentTimeout,
    journal_path,
    run_experiment,
)
from repro.obs.report import load_trace, summarize

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _journal_keys(path):
    keys = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                try:
                    keys.append(json.loads(line)["key"])
                except (ValueError, KeyError):
                    continue
    return keys


class TestTimeoutAndResume:
    def test_timeout_leaves_resumable_journal(self, tmp_path, monkeypatch):
        out = str(tmp_path)
        monkeypatch.setenv("REPRO_FAULTS_TRIAL_SLEEP", "0.05")
        with pytest.raises(ExperimentTimeout):
            run_experiment(
                "F8", quick=True, out_dir=out, verbose=False, timeout=0.4
            )
        path = journal_path(out, "F8")
        assert os.path.exists(path), "journal must survive a timeout"
        completed = _journal_keys(path)
        assert completed, "the throttled run must have journaled some trials"

        # Resume without the throttle: completes, recomputes nothing done.
        monkeypatch.delenv("REPRO_FAULTS_TRIAL_SLEEP")
        tables = run_experiment(
            "F8", quick=True, out_dir=out, verbose=False, resume=True
        )
        assert tables
        assert not os.path.exists(path), "journal is deleted on success"

    def test_resumed_run_matches_uninterrupted(self, tmp_path, monkeypatch):
        out_a = str(tmp_path / "interrupted")
        out_b = str(tmp_path / "straight")
        monkeypatch.setenv("REPRO_FAULTS_TRIAL_SLEEP", "0.2")
        with pytest.raises(ExperimentTimeout):
            run_experiment(
                "E7", quick=True, out_dir=out_a, verbose=False, timeout=0.3
            )
        monkeypatch.delenv("REPRO_FAULTS_TRIAL_SLEEP")
        resumed = run_experiment(
            "E7", quick=True, out_dir=out_a, verbose=False, resume=True
        )
        straight = run_experiment("E7", quick=True, out_dir=out_b, verbose=False)
        assert [t.rows for t in resumed] == [t.rows for t in straight]

    def test_without_resume_stale_journal_discarded(self, tmp_path):
        out = str(tmp_path)
        path = journal_path(out, "F8")
        os.makedirs(out, exist_ok=True)
        with open(path, "w") as handle:
            handle.write('{"key": "stale", "value": {}}\n')
        run_experiment("F8", quick=True, out_dir=out, verbose=False)
        assert not os.path.exists(path)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="POSIX only")
class TestSigkillSmoke:
    def test_sigkill_then_resume_completes_from_journal(self, tmp_path):
        out = str(tmp_path)
        env = dict(
            os.environ,
            PYTHONPATH=REPO_SRC,
            REPRO_FAULTS_TRIAL_SLEEP="0.05",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", "F8", "--quick", "--out", out],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        path = journal_path(out, "F8")
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(path) and len(_journal_keys(path)) >= 3:
                break
            if proc.poll() is not None:
                pytest.fail("throttled run finished before it could be killed")
            time.sleep(0.02)
        else:
            proc.kill()
            pytest.fail("journal never appeared — throttle hook broken?")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        completed = _journal_keys(path)
        assert completed, "completed trials must survive SIGKILL"

        env.pop("REPRO_FAULTS_TRIAL_SLEEP")
        trace = str(tmp_path / "resumed.trace.jsonl")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "run",
                "F8",
                "--quick",
                "--resume",
                "--out",
                out,
                "--trace",
                trace,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "resuming" in result.stderr  # progress goes to the obs logger
        assert not os.path.exists(path), "journal is deleted after success"
        # No lost work: the resumed process replayed every journaled trial
        # and evaluated (or deduplicated) only the rest of a fresh run's.
        fresh_trace = str(tmp_path / "fresh.trace.jsonl")
        run_experiment(
            "F8",
            quick=True,
            out_dir=str(tmp_path / "fresh"),
            verbose=False,
            trace=fresh_trace,
        )
        resumed = summarize(load_trace(trace)).counters
        fresh = summarize(load_trace(fresh_trace)).counters
        trial_counters = (
            "faults.trials",
            "faults.scenario_dedup",
            "faults.trials_replayed",
        )
        assert resumed["faults.trials_replayed"] == len(set(completed))
        assert sum(resumed.get(name, 0) for name in trial_counters) == sum(
            fresh.get(name, 0) for name in trial_counters
        )
