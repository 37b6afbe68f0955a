"""Degradation sweeps: curves, journaling/resume, pool degradation."""

import math
import multiprocessing

import pytest

from repro.faults.journal import TrialJournal, set_active_journal
from repro.faults.plan import FaultModel, child_seed
from repro.faults.sweep import _evaluate_masked, degradation_sweep
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture(autouse=True)
def _no_ambient_journal():
    """Keep harness-installed journals from leaking into these tests."""
    previous = set_active_journal(None)
    yield
    set_active_journal(previous)


def _sweep(net, journal=None, **overrides):
    kwargs = dict(
        levels=[0.0, 0.1, 0.3],
        trials=3,
        sample_pairs=40,
        seed=5,
        workers=1,
        journal=journal,
    )
    kwargs.update(overrides)
    return degradation_sweep(net, FaultModel("server+switch"), **kwargs)


class TestCurveShape:
    def test_levels_and_outcomes(self, abccc_medium):
        _, net = abccc_medium
        curve = _sweep(net)
        assert [p.level for p in curve.points] == [0.0, 0.1, 0.3]
        assert all(p.trials == 3 for p in curve.points)
        assert len(curve.outcomes) == 9
        # Severity monotonicity holds for means on this instance.
        assert curve.point(0.0).mean_ratio >= curve.point(0.3).mean_ratio

    def test_ratios_are_probabilities(self, abccc_medium):
        _, net = abccc_medium
        for outcome in _sweep(net).outcomes:
            assert 0.0 <= outcome.connection_ratio <= 1.0
            assert 0.0 <= outcome.largest_component <= 1.0

    def test_ci_zero_at_unfailed_level(self, abccc_medium):
        _, net = abccc_medium
        point = _sweep(net).point(0.0)
        assert point.ci95_ratio == 0.0
        assert point.mean_ratio == 1.0

    def test_ci_matches_formula(self, abccc_medium):
        _, net = abccc_medium
        point = _sweep(net).point(0.3)
        ratios = [
            o.connection_ratio for o in _sweep(net).outcomes if o.level == 0.3
        ]
        n = len(ratios)
        mean = sum(ratios) / n
        var = sum((r - mean) ** 2 for r in ratios) / (n - 1)
        assert point.ci95_ratio == pytest.approx(1.96 * math.sqrt(var / n))

    def test_deterministic_across_calls(self, abccc_medium):
        _, net = abccc_medium
        assert _sweep(net) == _sweep(net)

    def test_unknown_level_raises(self, abccc_medium):
        _, net = abccc_medium
        with pytest.raises(KeyError):
            _sweep(net).point(0.77)

    def test_trials_validated(self, abccc_medium):
        _, net = abccc_medium
        with pytest.raises(ValueError, match="trials"):
            _sweep(net, trials=0)


class TestJournalResume:
    def test_completed_trials_not_recomputed(self, abccc_medium, tmp_path):
        _, net = abccc_medium
        path = str(tmp_path / "sweep.journal.jsonl")
        with TrialJournal(path) as journal:
            full = _sweep(net, journal=journal)
        assert len(journal) == 9

        # Replay through a fresh journal built from the same file: the
        # sweep must not evaluate anything (masking disabled would raise
        # on evaluation of a scenario if it ran — instead we assert by
        # counting journal growth).
        with TrialJournal(path) as replay:
            before = len(replay)
            resumed = _sweep(net, journal=replay)
            assert len(replay) == before  # nothing new recorded
        assert resumed == full

    def test_partial_journal_computes_only_missing(self, abccc_medium, tmp_path):
        _, net = abccc_medium
        path = str(tmp_path / "partial.journal.jsonl")
        with TrialJournal(path) as journal:
            full = _sweep(net, journal=journal)
        # Drop the last two lines — as if the run was killed mid-sweep.
        with open(path) as handle:
            lines = handle.read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:-2]) + "\n")
        with TrialJournal(path) as partial:
            assert len(partial) == 7
            resumed = _sweep(net, journal=partial)
            assert len(partial) == 9
        assert resumed == full

    def test_truncated_trailing_line_tolerated(self, abccc_medium, tmp_path):
        _, net = abccc_medium
        path = str(tmp_path / "torn.journal.jsonl")
        with TrialJournal(path) as journal:
            full = _sweep(net, journal=journal)
        with open(path, "a") as handle:
            handle.write('{"key": "torn-write')  # no newline, invalid JSON
        with TrialJournal(path) as torn:
            assert len(torn) == 9
            assert _sweep(net, journal=torn) == full

    def test_active_journal_picked_up(self, abccc_medium, tmp_path):
        _, net = abccc_medium
        journal = TrialJournal(str(tmp_path / "active.journal.jsonl"))
        set_active_journal(journal)
        try:
            _sweep(net)
        finally:
            set_active_journal(None)
            journal.close()
        assert len(journal) == 9


class TestParallelPath:
    def test_pool_results_match_sequential(self, abccc_medium):
        _, net = abccc_medium
        sequential = _sweep(net, workers=1)

        def counted_sweep(workers):
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                curve = _sweep(net, workers=workers, trials=4, levels=[0.0, 0.1, 0.3])
            finally:
                set_registry(previous)
            return curve, registry.counter_values().get("faults.trials", 0)

        pooled, pooled_trials = counted_sweep(2)
        resequential, sequential_trials = counted_sweep(1)
        assert pooled == resequential
        assert sequential.points != ()  # smoke: both paths produced curves
        # the pool workers' trial counts reach the parent's registry
        assert pooled_trials == sequential_trials > 0

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a monkeypatched trial reaches pool workers only when they fork",
    )
    def test_pooled_sweep_keeps_finished_trials(
        self, abccc_medium, tmp_path, monkeypatch
    ):
        from repro.faults import sweep as sweep_module

        _, net = abccc_medium
        model = FaultModel("server+switch")
        doomed = model.draw(
            net, 0.3, child_seed(5, sweep_module._model_tag(model), 0.3, 3)
        ).scenario

        def counted(**kwargs):
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                curve = _sweep(net, workers=2, trials=4, **kwargs)
            finally:
                set_registry(previous)
            return curve, registry.counter_values().get("faults.trials", 0)

        fresh, fresh_trials = counted()
        # module-level, so it pickles and really runs in the pool
        monkeypatch.setattr(sweep_module, "_evaluate_masked", _doomed_fails)
        monkeypatch.setitem(_DOOMED, "scenario", doomed)
        path = str(tmp_path / "sweep.journal.jsonl")
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with TrialJournal(path) as journal:
                with pytest.raises(RuntimeError, match="doomed"):
                    _sweep(net, journal=journal, workers=2, trials=4)
        finally:
            set_registry(previous)
        failed_trials = registry.counter_values()["faults.trials"]
        assert len(TrialJournal(path)) == 11  # every trial but the doomed one

        monkeypatch.undo()
        with TrialJournal(path) as journal:
            resumed, resumed_trials = counted(journal=journal)
        assert resumed_trials == 1
        assert failed_trials + resumed_trials == fresh_trials
        assert resumed == fresh

    def test_broken_pool_degrades_loudly_with_same_results(
        self, abccc_medium, monkeypatch
    ):
        from repro import pool

        _, net = abccc_medium

        class AlwaysBroken:
            def __init__(self, *args, **kwargs):
                raise OSError("fork refused (simulated)")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", AlwaysBroken)
        monkeypatch.setattr(pool, "POOL_RETRY_BACKOFF_S", 0.0)
        with pytest.warns(pool.DegradedModeWarning):
            degraded = _sweep(net, workers=2, trials=4, levels=[0.0, 0.1, 0.3])
        assert degraded == _sweep(net, workers=1, trials=4, levels=[0.0, 0.1, 0.3])


#: the scenario :func:`_doomed_fails` raises on, set by the test that
#: patches it in before the pool forks.
_DOOMED: dict = {}


def _doomed_fails(graph, scenario, panel):
    if scenario == _DOOMED.get("scenario"):
        raise RuntimeError("doomed scenario")
    return _evaluate_masked(graph, scenario, panel)
