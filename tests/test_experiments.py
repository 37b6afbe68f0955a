"""Experiment-suite tests: every artefact runs (quick mode) and the
qualitative expectations recorded in EXPERIMENTS.md hold programmatically."""

import pytest

from repro.experiments import all_experiments, get_experiment, run_experiment
from repro.sim.results import ResultTable


class TestRegistry:
    def test_all_artefacts_present_and_ordered(self):
        experiments = all_experiments()
        assert [e.exp_id for e in experiments] == [
            "T1", "T2",
            "F1", "F2", "F3", "F4", "F5", "F6",
            "F7", "F8", "F9", "F10", "F11", "F12",
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
        ]

    def test_lookup_case_insensitive(self):
        assert get_experiment("f5").exp_id == "F5"

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("F99")

    def test_every_experiment_has_expectation(self):
        for experiment in all_experiments():
            assert experiment.expectation
            assert experiment.title


@pytest.fixture(scope="module")
def quick_results():
    """Run the full suite once, in quick mode, without CSV/printing."""
    return {
        exp.exp_id: exp.execute(quick=True) for exp in all_experiments()
    }


class TestAllRunQuick:
    def test_all_return_tables(self, quick_results):
        for exp_id, tables in quick_results.items():
            assert tables, exp_id
            for table in tables:
                assert isinstance(table, ResultTable)
                assert table.rows, f"{exp_id}: empty table {table.title}"


class TestExpectations:
    def test_t1_validation_rows_all_valid(self, quick_results):
        validation = quick_results["T1"][1]
        assert all(validation.column("valid"))

    def test_t2_itemised_totals_positive(self, quick_results):
        itemised = quick_results["T2"][0]
        assert all(row["total"] > 0 for row in itemised.rows)

    def test_f1_diameter_ordering_and_linearity(self, quick_results):
        table = quick_results["F1"][0]
        s2 = table.column("abccc_s2")
        s5 = table.column("abccc_s5")
        bcube = table.column("bcube")
        for a, b, c in zip(bcube, s5, s2):
            assert a <= b <= c
        # Linear growth: constant second difference for k >= 1 at s=2.
        diffs = [b - a for a, b in zip(s2[1:], s2[2:])]
        assert all(d == diffs[0] for d in diffs)

    def test_f2_abccc_packs_more_than_bcube(self, quick_results):
        table = quick_results["F2"][0]
        for s2, bcube, k in zip(
            table.column("abccc_s2"), table.column("bcube"), table.column("k")
        ):
            if k >= 1:
                assert s2 > bcube

    def test_f3_bisection_monotone_in_s(self, quick_results):
        table = quick_results["F3"][0]
        for row in table.rows:
            values = [row[f"s{s}"] for s in (2, 3, 4, 5, 6)]
            assert values == sorted(values)
        measured = quick_results["F3"][1]
        assert all(measured.column("match"))

    def test_f4_ficonn_cheapest_bcube_priciest_in_cube_family(self, quick_results):
        table = quick_results["F4"][0]
        by_family = {}
        for row in table.rows:
            by_family.setdefault(row["family"], []).append(row["per_server"])
        assert min(by_family["ficonn"]) < min(by_family["abccc_s2"])
        assert max(by_family["abccc_s2"]) < max(by_family["bcube"])
        assert "fattree" in by_family

    def test_f5_abccc_pure_addition_bcube_not(self, quick_results):
        table = quick_results["F5"][0]
        for row in table.rows:
            if row["family"].startswith("abccc") and "boundary" not in row["family"]:
                assert row["pure_addition"], row
                assert row["upgraded_servers"] == 0
            if row["family"] == "bcube":
                assert not row["pure_addition"]
                assert row["upgraded_servers"] > 0
            if row["family"] == "fattree":
                assert row["replaced_switches"] > 0

    def test_f6_locality_is_shortest(self, quick_results):
        table = quick_results["F6"][0]
        for row in table.rows:
            if row["strategy"] == "locality":
                assert row["mean_stretch"] == pytest.approx(1.0)
                assert row["shortest_frac"] == pytest.approx(1.0)
            else:
                assert row["mean_stretch"] >= 1.0

    def test_f7_throughput_tracks_bisection(self, quick_results):
        table = quick_results["F7"][0]
        for row in table.rows:
            assert row["agg_per_server"] > 0
            assert 0 < row["jain"] <= 1.0
        perm = {
            row["topology"]: row["agg_per_server"]
            for row in table.rows
            if row["pattern"] == "permutation"
        }
        abccc = next(v for k, v in perm.items() if k.startswith("ABCCC"))
        bcube = next(v for k, v in perm.items() if k.startswith("BCUBE"))
        assert bcube >= abccc  # BCube's richer wiring wins per server

    def test_f8_connection_ratio_degrades_gracefully(self, quick_results):
        table = quick_results["F8"][0]
        for column in ("abccc_s2", "bcube"):
            values = {}
            for row in table.rows:
                if row["failure_kind"] == "server":
                    values[row["fraction"]] = row[column]
            assert values[0.0] == pytest.approx(1.0)
            assert all(v > 0.5 for v in values.values())  # graceful
        ft_routing = quick_results["F8"][1]
        for row in ft_routing.rows:
            assert row["greedy_ok"] + row["fallback"] <= row["reachable"]

    def test_f9_tree_beats_naive_unicast(self, quick_results):
        table = quick_results["F9"][0]
        for row in table.rows:
            assert row["tree_depth"] <= row["diameter_bound"]
            assert row["tree_stress"] <= row["unicast_max_link_load"]

    def test_f10_delivery_and_latency_sane(self, quick_results):
        table = quick_results["F10"][0]
        for row in table.rows:
            assert 0 < row["delivery_ratio"] <= 1.0
            assert row["mean_latency"] <= row["p99_latency"]

    def test_f11_frontier_monotone(self, quick_results):
        table = quick_results["F11"][0]
        diameters = table.column("diam_server_hops")
        bisections = table.column("bisection_per_srv")
        assert diameters == sorted(diameters, reverse=True)
        assert bisections == sorted(bisections)
        assert table.rows[0]["equals"] == "BCCC"
        assert table.rows[-1]["equals"] == "BCube"

    def test_f12_locality_shortest_identity_not_best_balanced(self, quick_results):
        table = quick_results["F12"][0]
        assert {row["strategy"] for row in table.rows} == {
            "identity", "random", "locality", "balanced"
        }
        rows = {row["strategy"]: row for row in table.rows if row["instance"]}
        assert rows["locality"]["mean_links"] <= rows["identity"]["mean_links"]
        assert rows["locality"]["mean_links"] <= rows["random"]["mean_links"]

    def test_e1_tables_dwarf_algorithmic_state(self, quick_results):
        table = quick_results["E1"][0]
        for row in table.rows:
            assert row["table_mean_entries"] > row["algo_entries"]
            assert row["ratio"] > 1.0
            # tables scale with N: max entries at least the server count
            assert row["table_max_entries"] >= row["servers"] - 1

    def test_e2_headroom_grows_with_radix(self, quick_results):
        table = quick_results["E2"][0]
        k_values = table.column("k_max")
        sizes = table.column("servers_at_kmax")
        assert k_values == sorted(k_values)
        assert sizes == sorted(sizes)

    def test_e3_adaptive_no_worse_than_fixed(self, quick_results):
        table = quick_results["E3"][0]
        assert {row["policy"] for row in table.rows} == {
            "adaptive", "fixed", "hashed", "vlb"
        }
        by_key = {}
        for row in table.rows:
            by_key[(row["instance"], row["workload"], row["policy"])] = row
        for (instance, workload, policy), row in by_key.items():
            if policy != "adaptive":
                continue
            fixed = by_key[(instance, workload, "fixed")]
            assert row["max_link_load"] <= fixed["max_link_load"]

    def test_e4_server_centric_keeps_cables_local(self, quick_results):
        table = quick_results["E4"][0]
        assert all(row["total_length_m"] > 0 for row in table.rows)
        rows = {row["topology"]: row for row in table.rows}
        abccc = next(v for k, v in rows.items() if k.startswith("ABCCC"))
        fattree = next(v for k, v in rows.items() if k.startswith("FATTREE"))
        assert abccc["intra_rack_frac"] >= fattree["intra_rack_frac"]

    def test_e6_repairs_never_exceed_reachable(self, quick_results):
        table = quick_results["E6"][0]
        for row in table.rows:
            assert row["greedy_ok"] + row["fallback"] <= row["reachable"]

    def test_e7_rack_failures_accounted(self, quick_results):
        table = quick_results["E7"][0]
        for row in table.rows:
            assert row["alive_servers"] < row["servers"]
            assert 0.0 <= row["connection_ratio"] <= 1.0
            # sum(p_i^2) <= max(p_i) exactly; allow sampling noise.
            assert row["connection_ratio"] <= row["largest_component"] + 0.1

    def test_e8_availability_sane(self, quick_results):
        table = quick_results["E8"][0]
        for row in table.rows:
            assert 0.0 < row["pair_availability"] <= 1.0
            assert row["path_availability"] >= row["pair_availability"]
            assert row["mean_alive_frac"] <= 1.0

    def test_e5_tree_bisection_collapses(self, quick_results):
        structural = quick_results["E5"][0]
        rows = {row["topology"]: row for row in structural.rows}
        tree = next(v for k, v in rows.items() if k.startswith("TREE"))
        abccc = next(v for k, v in rows.items() if k.startswith("ABCCC"))
        assert tree["bisection_links"] < tree["servers"] / 2
        assert tree["capex_per_server"] < abccc["capex_per_server"]


class TestRunnerPlumbing:
    def test_run_experiment_writes_csv(self, tmp_path):
        tables = run_experiment("F11", quick=True, out_dir=str(tmp_path), verbose=False)
        assert tables
        files = list(tmp_path.glob("f11*.csv"))
        assert files

    def test_rerun_leaves_only_its_own_tables(self, tmp_path):
        # E2 writes one table quick and three full.
        for quick, expected in (
            (True, ["e2.csv"]),
            (False, ["e2_0.csv", "e2_1.csv", "e2_2.csv"]),
            (True, ["e2.csv"]),
        ):
            run_experiment("E2", quick=quick, out_dir=str(tmp_path), verbose=False)
            assert sorted(p.name for p in tmp_path.glob("e2*.csv")) == expected
