"""CLI surface tests (argument parsing, outputs, exit codes)."""

import csv
import json
import os
import re
import subprocess
import sys
import time

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


class TestList:
    def test_lists_topologies(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for kind in ("abccc", "bcube", "fattree"):
            assert kind in out


class TestBuild:
    def test_build_summary(self, capsys):
        assert main(["build", "abccc", "-p", "n=3", "-p", "k=1", "-p", "s=2"]) == 0
        out = capsys.readouterr().out
        assert "18 servers" in out
        assert "structural invariants: OK" in out

    def test_bad_param_value(self, capsys):
        assert main(["build", "abccc", "-p", "n=three"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "integer" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_bad_param_format(self, capsys):
        assert main(["build", "abccc", "-p", "n:3"]) == 2
        err = capsys.readouterr().err
        assert "name=value" in err
        assert "Traceback" not in err

    def test_unknown_kind_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["build", "zork"])


class TestBuildFast:
    ABCCC_ARGS = ["-p", "n=3", "-p", "k=1", "-p", "s=2"]

    def test_fast_summary(self, capsys):
        assert main(["build", "abccc", *self.ABCCC_ARGS, "--fast"]) == 0
        out = capsys.readouterr().out
        assert "18 servers" in out
        assert "(fastbuild)" in out
        assert "CSR" in out

    def test_fast_falls_back_for_unsupported_family(self, capsys):
        assert main(["build", "fattree", "-p", "p=4", "--fast"]) == 0
        assert "(object graph)" in capsys.readouterr().out

    def test_fast_object_path_compile_time_includes_the_build(self, capsys, monkeypatch):
        from repro.baselines import FatTreeSpec

        build = FatTreeSpec.build

        def slow_build(spec):
            time.sleep(0.2)
            return build(spec)

        monkeypatch.setattr(FatTreeSpec, "build", slow_build)
        assert main(["build", "fattree", "-p", "p=4", "--fast"]) == 0
        out = capsys.readouterr().out
        assert float(re.search(r"compiled in ([0-9.]+)s", out).group(1)) >= 0.2

    def test_fast_memmap_writes_arrays(self, tmp_path, capsys):
        mm = str(tmp_path / "arrays")
        assert main(["build", "abccc", *self.ABCCC_ARGS, "--fast", "--memmap", mm]) == 0
        assert "memory-mapped" in capsys.readouterr().out
        files = [p.name for p in (tmp_path / "arrays").iterdir()]
        assert any(name.endswith(".indptr.u32") for name in files)

    def test_fast_trace_records_build_span(self, tmp_path, capsys):
        from repro.obs.report import load_trace

        trace = str(tmp_path / "build.trace.jsonl")
        assert main(["build", "abccc", *self.ABCCC_ARGS, "--fast", "--trace", trace]) == 0
        assert "trace written" in capsys.readouterr().out
        names = {e["name"] for e in load_trace(trace) if e["ev"] == "span"}
        assert "topology.fastbuild" in names


class TestSweep:
    ABCCC_ARGS = ["-p", "n=3", "-p", "k=1", "-p", "s=2"]

    def test_exact_sweep_summary(self, capsys):
        assert main(["sweep", "abccc", *self.ABCCC_ARGS]) == 0
        out = capsys.readouterr().out
        assert "18 servers" in out
        assert "diameter 8 link hops" in out
        assert "exact" in out

    def test_sampled_sweep_reports_lower_bound(self, capsys):
        assert main(
            ["sweep", "abccc", *self.ABCCC_ARGS, "--sample", "4", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "diameter >=" in out
        assert "sampled" in out

    def test_sweep_trace_records_span(self, tmp_path, capsys):
        from repro.obs.report import load_trace

        trace = str(tmp_path / "sweep.trace.jsonl")
        assert main(["sweep", "abccc", *self.ABCCC_ARGS, "--trace", trace]) == 0
        assert "trace written" in capsys.readouterr().out
        names = {e["name"] for e in load_trace(trace) if e["ev"] == "span"}
        assert "engine.sweep" in names


class TestRoute:
    def test_route_by_index(self, capsys):
        code = main(
            ["route", "abccc", "-p", "n=3", "-p", "k=1", "-p", "s=2", "0", "17"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "link hops" in out
        assert "->" in out

    def test_route_by_name(self, capsys):
        code = main(
            ["route", "abccc", "-p", "n=3", "-p", "k=1", "-p", "s=2",
             "s0.0/0", "s2.2/1"]
        )
        assert code == 0

    def test_bad_server_token(self, capsys):
        assert main(
            ["route", "abccc", "-p", "n=3", "-p", "k=1", "-p", "s=2", "0", "zap"]
        ) == 2
        err = capsys.readouterr().err
        assert "neither" in err
        assert "Traceback" not in err


class TestErrorPaths:
    """Operator mistakes exit 2 with one friendly stderr line, never a
    traceback (the contract ``REPRO_DEBUG=1`` opts back out of)."""

    def test_sweep_bad_param(self, capsys):
        assert main(["sweep", "abccc", "-p", "n=many"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "Traceback" not in err

    def test_sweep_malformed_spec(self, capsys):
        # n below the minimum radix: the spec constructor raises
        # AddressError (a ValueError), surfaced as a friendly line.
        assert main(["sweep", "abccc", "-p", "n=0", "-p", "k=1", "-p", "s=2"]) == 2
        err = capsys.readouterr().err
        assert "radix" in err
        assert "Traceback" not in err

    def test_serve_unknown_kind_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["serve", "zork"])

    def test_serve_bad_workers(self, capsys):
        assert main(
            ["serve", "abccc", "-p", "n=3", "-p", "k=1", "-p", "s=2",
             "--workers", "-1"]
        ) == 2
        err = capsys.readouterr().err
        assert "--workers" in err
        assert "Traceback" not in err

    def test_serve_bad_queue(self, capsys):
        assert main(
            ["serve", "abccc", "-p", "n=3", "-p", "k=1", "-p", "s=2",
             "--queue", "0"]
        ) == 2
        assert "--queue" in capsys.readouterr().err

    def test_serve_bad_memmap(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("plain file")
        assert main(
            ["serve", "abccc", "-p", "n=3", "-p", "k=1", "-p", "s=2",
             "--memmap", str(bogus)]
        ) == 2
        err = capsys.readouterr().err
        assert "--memmap" in err
        assert "Traceback" not in err

    def test_debug_env_reraises(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "1")
        from repro.cli import CliError

        with pytest.raises(CliError):
            main(["build", "abccc", "-p", "n=three"])

    @pytest.mark.parametrize(
        "command,unbuffered",
        [
            (["experiments"], False),
            (["experiments"], True),
            (["list"], False),
            (["--help"], False),
            (["run", "--help"], False),
        ],
        ids=[
            "long-buffered",
            "long-unbuffered",
            "short-buffered",
            "help-buffered",
            "subcommand-help-buffered",
        ],
    )
    def test_closed_stdout_stops_quietly(self, command, unbuffered):
        # ``repro … | head``: the reader is gone before the output is.
        # Block-buffered stdout (the default on a pipe) holds all of a
        # short output until exit; unbuffered stdout fails at the first
        # write.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(SRC), env.get("PYTHONPATH")])
        )
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", *command],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 141
        assert result.stderr == b""


class TestExportVerifyManifest:
    ABCCC_ARGS = ["-p", "n=3", "-p", "k=1", "-p", "s=2"]

    def test_export_json_then_verify(self, capsys, tmp_path):
        path = str(tmp_path / "net.json")
        assert main(["export", "abccc", *self.ABCCC_ARGS, path]) == 0
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "verified as ABCCC(n=3, k=1, s=2)" in out

    def test_verify_with_explicit_params(self, capsys, tmp_path):
        path = str(tmp_path / "net.json")
        main(["export", "abccc", *self.ABCCC_ARGS, path])
        assert main(["verify", path, "-p", "n=3", "-p", "k=1", "-p", "s=2"]) == 0

    def test_verify_wrong_params_fails(self, capsys, tmp_path):
        path = str(tmp_path / "net.json")
        main(["export", "abccc", *self.ABCCC_ARGS, path])
        assert main(["verify", path, "-p", "n=3", "-p", "k=2", "-p", "s=2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_foreign_network_fails(self, capsys, tmp_path):
        path = str(tmp_path / "ft.json")
        main(["export", "fattree", "-p", "p=4", path])
        assert main(["verify", path]) == 1

    def test_export_dot(self, capsys, tmp_path):
        path = str(tmp_path / "net.dot")
        assert main(["export", "bcube", "-p", "n=2", "-p", "k=1", "-f", "dot", path]) == 0
        with open(path) as handle:
            assert "graph" in handle.read()

    def test_export_graphml(self, tmp_path):
        path = str(tmp_path / "net.graphml")
        assert main(
            ["export", "hypercube", "-p", "m=3", "-f", "graphml", path]
        ) == 0

    def test_manifest(self, capsys):
        assert main(
            ["manifest", "abccc", *self.ABCCC_ARGS, "--rack-capacity", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "deployment manifest" in out
        assert "racks" in out

    def test_manifest_json(self, capsys):
        import json

        assert main(
            ["manifest", "abccc", *self.ABCCC_ARGS, "--rack-capacity", "6", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_racks"] == len(data["racks"])
        assert all({"u", "v", "length_m"} <= set(c) for c in data["cables"])
        # rack -> doomed nodes is exactly the serve /whatif input shape
        assert isinstance(data["racks"][0]["servers"], list)


class TestPlan:
    def test_plan_lists_candidates(self, capsys):
        code = main(
            ["plan", "--min-servers", "200", "--max-servers", "3000",
             "--max-nic-ports", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ABCCC(" in out
        assert "pareto" in out

    def test_plan_infeasible(self, capsys):
        code = main(
            ["plan", "--min-servers", "1000000000", "--max-servers",
             "1000000001", "--switch-radix", "4"]
        )
        assert code == 1
        assert "no feasible" in capsys.readouterr().out

    def test_plan_headroom_filters(self, capsys):
        main(["plan", "--min-servers", "100", "--max-servers", "100000",
              "--max-nic-ports", "2", "--headroom", "2"])
        out = capsys.readouterr().out
        # Every listed config can grow twice purely: k + 3 <= n at s=2.
        for line in out.splitlines():
            if line.startswith("ABCCC("):
                inner = line.split(")")[0]
                n = int(inner.split("n=")[1].split(",")[0])
                k = int(inner.split("k=")[1].split(",")[0])
                assert k + 3 <= n


class TestExperiments:
    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "F12" in out

    def test_run_single_quick(self, capsys, tmp_path):
        code = main(["run", "F11", "--quick", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "F11" in out
        assert (tmp_path / "f11.csv").exists()


class TestTraffic:
    ARGS = ["traffic", "abccc", "-p", "n=3", "-p", "k=1", "-p", "s=2"]

    def test_patterns_in_lockstep_with_engine(self):
        # cli.TRAFFIC_PATTERNS is a numpy-free mirror of the registry
        from repro import cli
        from repro.traffic import MATRICES

        assert cli.TRAFFIC_PATTERNS == tuple(sorted(MATRICES))

    def test_healthy_run_prints_table(self, capsys):
        assert main(self.ARGS + ["--pattern", "permutation", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Traffic: permutation" in out
        assert "agg_per_server" in out
        assert "compile" in out and "trials" in out

    def test_degraded_run_with_fct_and_outputs(self, capsys, tmp_path):
        from repro.faults.plan import FaultRoundingWarning

        metrics_path = tmp_path / "metrics.json"
        # 1% of 36 links rounds to zero: each trial floors it to one
        # dead link and says so.
        with pytest.warns(FaultRoundingWarning, match="floored to 1 dead link"):
            code = main(
                self.ARGS
                + [
                    "--pattern", "incast",
                    "--trials", "2",
                    "--faults", "switch=0.05,link=0.01",
                    "--fct",
                    "--out", str(tmp_path),
                    "--metrics", str(metrics_path),
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        csvs = list(tmp_path.glob("traffic_*_incast.csv"))
        assert len(csvs) == 1
        assert metrics_path.exists()
        import json

        snapshot = json.loads(metrics_path.read_text())
        assert snapshot  # histograms were recorded

    @staticmethod
    def _table(out_dir):
        """The per-trial CSV of a ``--out`` run, without its timings."""
        (path,) = out_dir.glob("traffic_*.csv")
        with open(path, newline="") as handle:
            return [
                {k: v for k, v in row.items() if k != "elapsed_s"}
                for row in csv.DictReader(handle)
            ]

    def _interrupted(self, args, out_dir, monkeypatch):
        """Run ``args`` into ``out_dir``, interrupted after trial 0.

        Returns the journal the interrupted run left behind.
        """
        from repro.faults.journal import TrialJournal
        from repro.traffic import run as traffic_run

        trial_row = traffic_run._trial_row

        def interrupt_trial_1(graph, spec):
            if spec.trial == 1:
                raise KeyboardInterrupt
            return trial_row(graph, spec)

        with monkeypatch.context() as patch:
            patch.setattr(traffic_run, "_trial_row", interrupt_trial_1)
            assert main(args + ["--out", str(out_dir)]) == 130
        (path,) = out_dir.glob("traffic-*.journal.jsonl")
        assert len(TrialJournal(str(path))) == 1  # trial 0 finished
        return path

    def test_resume_replays_journal(self, capsys, tmp_path, monkeypatch):
        args = self.ARGS + ["--pattern", "uniform", "--trials", "2"]
        assert main(args + ["--out", str(tmp_path / "whole")]) == 0
        self._interrupted(args, tmp_path / "part", monkeypatch)
        assert main(args + ["--out", str(tmp_path / "part"), "--resume"]) == 0
        capsys.readouterr()
        # the replayed trial and the recomputed one equal an uninterrupted run's
        assert self._table(tmp_path / "part") == self._table(tmp_path / "whole")
        assert not list((tmp_path / "part").glob("*.journal.jsonl"))

    def test_journal_discarded_without_resume(self, capsys, tmp_path, monkeypatch):
        args = self.ARGS + ["--pattern", "uniform", "--trials", "2"]
        assert main(args + ["--out", str(tmp_path / "whole")]) == 0
        path = self._interrupted(args, tmp_path / "part", monkeypatch)
        (entry,) = [json.loads(line) for line in path.read_text().splitlines()]
        entry["value"]["agg_throughput"] = -1.0  # replaying it would show
        path.write_text(json.dumps(entry) + "\n")
        assert main(args + ["--out", str(tmp_path / "part")]) == 0
        capsys.readouterr()
        assert self._table(tmp_path / "part") == self._table(tmp_path / "whole")
        assert not path.exists()

    def test_resume_without_out_exits_2(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "--out" in err

    def test_out_writes_phase_rows_and_no_journal(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        args = ["--trials", "4", "--workers", "2", "--out", str(tmp_path)]
        assert main(self.ARGS + args + ["--metrics", str(metrics_path)]) == 0
        capsys.readouterr()
        assert not list(tmp_path.glob("*.journal.jsonl"))
        with open(tmp_path / "runtimes.csv", newline="") as handle:
            rows = {row["phase"]: row for row in csv.DictReader(handle)}
        allocate = rows["traffic.allocate"]
        assert allocate["experiment"] == "traffic:ABCCC(n=3, k=1, s=2):permutation"
        snapshot = json.loads(metrics_path.read_text())
        timed = sum(
            h["count"]
            for h in snapshot["histograms"]
            if h["name"] == "traffic.allocate_seconds"
        )
        assert int(allocate["count"]) == timed == 4
        assert int(rows["traffic.trial"]["count"]) == 4

    def test_bad_faults_exit_2(self, capsys):
        assert main(self.ARGS + ["--faults", "rack=0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "rack" in err
        assert "Traceback" not in err

    def test_bad_matrix_param_exit_2(self, capsys):
        assert main(self.ARGS + ["-m", "fan_in"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")

    def test_bad_trials_exit_2(self, capsys):
        assert main(self.ARGS + ["--trials", "0"]) == 2
        err = capsys.readouterr().err
        assert "--trials" in err

    def test_unknown_pattern_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--pattern", "nope"])
