"""Harness plumbing: registration rules, runner output, CSV writing."""

import os

import pytest

from repro.experiments import all_experiments, run_all, run_experiment
from repro.experiments.harness import Experiment, register


class TestRegistration:
    def test_duplicate_id_rejected(self):
        all_experiments()  # ensure the built-ins are registered first
        with pytest.raises(ValueError, match="already registered"):
            register("T1", "imposter", "nothing")(lambda quick: [])

    def test_experiment_objects_are_frozen(self):
        experiment = all_experiments()[0]
        with pytest.raises(AttributeError):
            experiment.title = "renamed"

    def test_ordering_groups_then_numbers(self):
        ids = [e.exp_id for e in all_experiments()]
        groups = [i[0] for i in ids]
        # T block, then F block, then E block — no interleaving.
        assert groups == sorted(groups, key=lambda g: {"T": 0, "F": 1, "E": 2}[g])
        for kind in "TFE":
            numbers = [int(i[1:]) for i in ids if i[0] == kind]
            assert numbers == sorted(numbers)


class TestRunner:
    def test_run_experiment_prints_and_writes(self, capsys, tmp_path):
        tables = run_experiment("F2", quick=True, out_dir=str(tmp_path))
        captured = capsys.readouterr()
        assert "### F2" in captured.out
        assert "expectation:" in captured.out
        # Progress lines ride the stderr logger; stdout stays table-clean.
        assert "finished in" not in captured.out
        written = sorted(os.listdir(tmp_path))
        # One CSV per table plus the cumulative runtime log.
        assert len(written) == len(tables) + 1
        assert "runtimes.csv" in written
        tables_csvs = [name for name in written if name != "runtimes.csv"]
        assert all(
            name.startswith("f2") and name.endswith(".csv") for name in tables_csvs
        )

    def test_run_registry_folds_into_the_callers(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry, set_registry

        outer = MetricsRegistry()
        previous = set_registry(outer)
        try:
            run_experiment("F8", quick=True, out_dir=str(tmp_path), verbose=False)
        finally:
            set_registry(previous)
        histograms = outer.snapshot()["histograms"]
        timed = sum(h["count"] for h in histograms if h["name"] == "faults.trial_seconds")
        # every counted trial was also timed, and both reached the caller
        assert outer.counter_values()["faults.trials"] == timed > 0
        assert [h["count"] for h in histograms if h["name"] == "experiment_seconds"] == [1]

    def test_quiet_mode(self, capsys, tmp_path):
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        assert capsys.readouterr().out == ""

    def test_no_csv_when_out_dir_none(self, capsys):
        tables = run_experiment("F11", quick=True, out_dir=None, verbose=False)
        assert tables  # ran fine, nothing persisted

    def test_single_table_filename_has_no_suffix(self, tmp_path):
        run_experiment("F5", quick=True, out_dir=str(tmp_path), verbose=False)
        assert (tmp_path / "f5.csv").exists()

    def test_runtimes_csv_one_row_per_key(self, tmp_path):
        import csv

        from repro.experiments.harness import RUNTIMES_COLUMNS

        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False, workers=2)
        with open(tmp_path / "runtimes.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(RUNTIMES_COLUMNS)
        assert len(rows) == 3  # header + one row per distinct key
        first, second = rows[1], rows[2]
        assert first[:3] == ["F11", "1", "1"]
        assert second[:3] == ["F11", "1", "2"]
        assert all(float(row[3]) >= 0.0 for row in rows[1:])

    def test_runtimes_csv_rerun_replaces_row(self, tmp_path):
        import csv

        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        with open(tmp_path / "runtimes.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 2  # header + the single deduped row

    def test_runtimes_csv_upgrades_legacy_header(self, tmp_path):
        import csv

        legacy = tmp_path / "runtimes.csv"
        legacy.write_text(
            "experiment,quick,workers,wall_time_s\nF8,0,1,0.604\nF11,1,1,0.002\n"
        )
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        with open(legacy, newline="") as handle:
            rows = list(csv.reader(handle))
        from repro.experiments.harness import RUNTIMES_COLUMNS

        assert rows[0] == list(RUNTIMES_COLUMNS)
        by_key = {(r[0], r[1], r[2]): r for r in rows[1:]}
        # The legacy F8 row survives (padded), the F11 row was replaced.
        assert by_key[("F8", "0", "1")][3] == "0.604"
        assert float(by_key[("F11", "1", "1")][3]) >= 0.0
        assert len(rows) == 3

    def test_workers_default_restored_after_run(self, tmp_path):
        from repro.metrics.engine import get_default_workers

        before = get_default_workers()
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False, workers=3)
        assert get_default_workers() == before

    def test_multi_table_filenames_numbered(self, tmp_path):
        run_experiment("T1", quick=True, out_dir=str(tmp_path), verbose=False)
        assert (tmp_path / "t1_0.csv").exists()
        assert (tmp_path / "t1_1.csv").exists()

    def test_execute_does_not_write(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        from repro.experiments import get_experiment

        get_experiment("F11").execute(quick=True)
        assert os.listdir(tmp_path) == []
