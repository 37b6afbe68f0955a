"""run_traffic orchestration: journaling, determinism, pool parity."""

import numpy as np
import pytest

from repro import obs
from repro.core import AbcccSpec
from repro.faults.journal import TrialJournal
from repro.obs.metrics import exposition_problems, render_prometheus
from repro.obs.report import load_trace, summarize
from repro.topology.fastbuild import fast_compiled
from repro.traffic import COLUMNS, TrafficTrialSpec, run_traffic, run_trial
from repro.traffic.run import trial_key


@pytest.fixture(scope="module")
def graph():
    return fast_compiled(AbcccSpec(3, 2, 2))


def _rows(table):
    return table.rows


class TestRunTrial:
    def test_row_has_full_schema(self, graph):
        spec = TrafficTrialSpec(
            pattern="permutation", num_servers=graph.num_servers, seed=3, trial=0
        )
        row = run_trial(graph, spec)
        assert set(row) == set(COLUMNS)
        assert row["flows"] == graph.num_servers
        assert row["unreachable"] == 0
        assert row["agg_throughput"] > 0
        assert row["dead_nodes"] == 0 and row["dead_links"] == 0
        # fct disabled: summary columns pinned at zero
        assert row["mean_fct"] == 0.0

    def test_fct_columns_populated_when_asked(self, graph):
        spec = TrafficTrialSpec(
            pattern="incast", num_servers=graph.num_servers, seed=3, trial=0, fct=True
        )
        row = run_trial(graph, spec)
        assert 0.0 < row["p50_fct"] <= row["p99_fct"] <= row["max_fct"]

    def test_degraded_trial_reports_dead_counts(self, graph):
        spec = TrafficTrialSpec(
            pattern="permutation",
            num_servers=graph.num_servers,
            seed=3,
            trial=0,
            fault_fractions=(("switch_fraction", 0.05),),
            fault_seed=7,
        )
        row = run_trial(graph, spec)
        assert row["dead_nodes"] > 0
        healthy = run_trial(
            graph,
            TrafficTrialSpec(
                pattern="permutation", num_servers=graph.num_servers, seed=3, trial=0
            ),
        )
        # dead switches cannot raise aggregate throughput
        assert row["agg_throughput"] <= healthy["agg_throughput"] + 1e-9

    def test_trial_key_is_deterministic_and_distinct(self, graph):
        base = TrafficTrialSpec(
            pattern="uniform", num_servers=graph.num_servers, seed=1, trial=0
        )
        assert trial_key("lab", base) == trial_key("lab", base)
        other = TrafficTrialSpec(
            pattern="uniform", num_servers=graph.num_servers, seed=1, trial=1
        )
        assert trial_key("lab", base) != trial_key("lab", other)
        assert trial_key("lab", base) != trial_key("lab2", base)


class TestRunTraffic:
    def test_table_shape_and_determinism(self, graph):
        a = run_traffic(graph, "t", "permutation", trials=2, seed=5, workers=1)
        b = run_traffic(graph, "t", "permutation", trials=2, seed=5, workers=1)
        assert a.columns == COLUMNS
        assert len(_rows(a)) == 2
        for ra, rb in zip(_rows(a), _rows(b)):
            for col in COLUMNS:
                if col == "elapsed_s":
                    continue
                assert ra[col] == rb[col], col

    def test_trials_must_be_positive(self, graph):
        with pytest.raises(ValueError, match="trials"):
            run_traffic(graph, "t", "permutation", trials=0)

    def test_journal_replay_skips_recompute(self, graph, tmp_path):
        path = str(tmp_path / "traffic.journal.jsonl")
        journal = TrialJournal(path)
        first = run_traffic(
            graph, "t", "incast", trials=3, seed=2, workers=1, journal=journal
        )
        journal.close()
        replay_journal = TrialJournal(path)
        assert len(replay_journal) == 3
        second = run_traffic(
            graph, "t", "incast", trials=3, seed=2, workers=1, journal=replay_journal
        )
        replay_journal.close()
        assert first.render() == second.render()

    def test_journal_key_includes_faults(self, graph, tmp_path):
        path = str(tmp_path / "traffic.journal.jsonl")
        journal = TrialJournal(path)
        run_traffic(graph, "t", "permutation", trials=1, seed=2, journal=journal, workers=1)
        run_traffic(
            graph,
            "t",
            "permutation",
            trials=1,
            seed=2,
            journal=journal,
            workers=1,
            fault_fractions={"link_fraction": 0.02},
        )
        journal.close()
        assert len(TrialJournal(path)) == 2  # healthy and degraded are distinct

    def test_pool_matches_sequential(self, graph, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_MEM_INTERVAL", "0")

        def counted_run(workers):
            # a traced run scope around each side: pool workers' counts
            # must come home to both its registry and its trace
            path = str(tmp_path / f"workers{workers}.trace.jsonl")
            with obs.run(path) as scope:
                table = run_traffic(
                    graph, "t", "uniform", trials=4, seed=9, workers=workers, fct=True
                )
            counters = summarize(load_trace(path)).counters
            snapshot = scope.registry.snapshot()
            # the flow model's histograms and the span timings share the
            # exposition without colliding
            assert exposition_problems(render_prometheus(snapshot)) == []
            counts = {}
            for h in snapshot["histograms"]:
                counts[h["name"]] = counts.get(h["name"], 0) + h["count"]
            assert counts["traffic.allocate_seconds"] == 4  # one per trial
            assert counts["traffic.trial_seconds"] == 4
            # each row's elapsed_s is its traffic.trial span's duration
            trials = [
                e["dur"]
                for e in load_trace(path)
                if e["ev"] == "span" and e["name"] == "traffic.trial"
            ]
            assert sorted(trials) == sorted(row["elapsed_s"] for row in table.rows)
            return table, counters, counts["traffic.rate.units"]

        seq, seq_counters, seq_rates = counted_run(1)
        par, par_counters, par_rates = counted_run(2)
        for ra, rb in zip(_rows(seq), _rows(par)):
            for col in COLUMNS:
                if col == "elapsed_s":
                    continue
                assert ra[col] == rb[col], col
        flows = sum(row["flows"] for row in _rows(seq))
        assert seq_counters["traffic.trials"] == par_counters["traffic.trials"] == 4
        assert seq_counters["traffic.flows"] == par_counters["traffic.flows"] == flows
        assert seq_rates == par_rates == flows

    def test_degraded_note_rendered(self, graph):
        table = run_traffic(
            graph,
            "t",
            "permutation",
            trials=1,
            seed=0,
            workers=1,
            fault_fractions={"server_fraction": 0.01},
        )
        assert any("degraded" in note for note in table.notes)
        assert _rows(table)[0]["unreachable"] > 0
