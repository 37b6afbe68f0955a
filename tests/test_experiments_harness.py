"""Harness plumbing: registration rules, runner output, CSV writing."""

import csv
import os

import pytest

from repro import obs
from repro.experiments import all_experiments, run_all, run_experiment
from repro.experiments.harness import RUNTIMES_COLUMNS, register


def _runtimes(out_dir):
    """Header and rows of ``out_dir/runtimes.csv``."""
    with open(os.path.join(out_dir, "runtimes.csv"), newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


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
        with obs.run() as outer:
            run_experiment("F8", quick=True, out_dir=str(tmp_path), verbose=False)
        histograms = outer.registry.snapshot()["histograms"]
        timed = sum(h["count"] for h in histograms if h["name"] == "faults.trial_seconds")
        # every counted trial was also timed, and both reached the caller
        assert outer.registry.counter_values()["faults.trials"] == timed > 0
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

    def test_runtimes_csv_one_row_per_phase(self, tmp_path):
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False, workers=2)
        header, rows = _runtimes(tmp_path)
        assert header == list(RUNTIMES_COLUMNS)
        keys = {tuple(row[:3]) for row in rows}
        assert keys == {("F11", "1", "1"), ("F11", "1", "2")}
        for key in keys:
            phases = [row[3] for row in rows if tuple(row[:3]) == key]
            assert len(phases) == len(set(phases))  # one row per phase
            assert "experiment" in phases  # the wall time
        assert all(int(row[4]) >= 1 and float(row[5]) >= 0.0 for row in rows)

    def test_runtimes_csv_rerun_replaces_row(self, tmp_path):
        run_experiment("F8", quick=True, out_dir=str(tmp_path), verbose=False)
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        _, before = _runtimes(tmp_path)
        run_experiment("F8", quick=True, out_dir=str(tmp_path), verbose=False)
        _, after = _runtimes(tmp_path)
        # F11's rows are untouched; F8's are replaced in place, not appended
        assert [row for row in after if row[0] == "F11"] == [
            row for row in before if row[0] == "F11"
        ]
        assert [row[:5] for row in after] == [row[:5] for row in before]

    def test_runtimes_csv_rewrites_a_wide_layout_file(self, tmp_path):
        (tmp_path / "runtimes.csv").write_text(
            "experiment,quick,workers,wall_time_s,compile_s,sweep_s,handoff_s,"
            "plan_s,mask_s,trials_s,journal_s,peak_rss_mb\n"
            "F8,0,1,0.604,0.001,,,0.002,0.003,0.400,0.010,89.2\n"
        )
        run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        header, rows = _runtimes(tmp_path)
        assert header == list(RUNTIMES_COLUMNS)
        assert {row[0] for row in rows} == {"F11"}

    def test_workers_default_restored_after_run(self, tmp_path):
        from repro.pool import get_default_workers

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
