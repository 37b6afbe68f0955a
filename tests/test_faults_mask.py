"""Masked-CSR trial parity: identical results to the legacy copy path.

The acceptance bar for the masking fast path is *identity*, not
closeness: the same scenario must produce the same connection ratio and
largest-component fraction whether it is applied as a mask over the
compiled graph or via ``subgraph_without`` + a cold recompile.  The
scenarios here are randomised across ABCCC and two baseline families
and include dead links, which exercise the entry-mask path.
"""

import pytest

from repro.faults.mask import (
    MaskedGraph,
    masked_connection_ratio,
    masked_largest_component_fraction,
)
from repro.faults.plan import FaultModel, random_failures
from repro.faults.sweep import degradation_sweep
from repro.metrics.connectivity import (
    connection_ratio,
    largest_component_fraction,
)
from repro.topology.compiled import compile_graph
from tests.fault_oracle import legacy_trial, sweep_panel

FAMILIES = ["abccc_medium", "abccc_s3", "bcube_small", "fattree_small"]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(4))
class TestMetricParity:
    def _scenario(self, net, seed):
        return random_failures(
            net,
            server_fraction=0.15,
            switch_fraction=0.10,
            link_fraction=0.05,
            seed=seed,
        ).scenario

    def test_connection_ratio_identical(self, family, seed, request):
        _, net = request.getfixturevalue(family)
        scenario = self._scenario(net, seed)
        assert masked_connection_ratio(
            net, scenario, sample_pairs=120, seed=seed
        ) == connection_ratio(net, scenario, sample_pairs=120, seed=seed)

    def test_largest_component_identical(self, family, seed, request):
        _, net = request.getfixturevalue(family)
        scenario = self._scenario(net, seed)
        assert masked_largest_component_fraction(
            net, scenario
        ) == largest_component_fraction(net, scenario)


class TestMaskedGraph:
    def test_alive_servers_match_subgraph_order(self, abccc_medium):
        _, net = abccc_medium
        scenario = random_failures(net, server_fraction=0.3, seed=2).scenario
        masked = MaskedGraph(compile_graph(net), scenario)
        sub = net.subgraph_without(dead_nodes=scenario.dead_servers)
        assert masked.alive_servers() == sub.servers
        assert masked.num_alive_servers() == sub.num_servers

    def test_connected_respects_dead_links(self, tiny_net):
        from repro.faults.plan import explicit_failures

        plan = explicit_failures(dead_links=(("a", "sw"),))
        masked = MaskedGraph(compile_graph(tiny_net), plan)
        assert not masked.connected("a", "b")
        assert masked.connected("b", "sw")

    def test_dead_endpoint_disconnects(self, tiny_net):
        from repro.faults.plan import explicit_failures

        plan = explicit_failures(dead_servers=("a",))
        masked = MaskedGraph(compile_graph(tiny_net), plan)
        assert not masked.connected("a", "b")
        assert masked.component_labels()[compile_graph(tiny_net).index["a"]] == -1

    def test_unknown_failures_ignored_like_legacy(self, tiny_net):
        from repro.faults.plan import explicit_failures

        plan = explicit_failures(
            dead_servers=("ghost",), dead_links=(("ghost", "sw"),)
        )
        masked = MaskedGraph(compile_graph(tiny_net), plan)
        assert masked.connection_ratio(sample_pairs=10, seed=0) == 1.0


class TestDegenerateScenarios:
    """Mass-failure edge cases the serve what-if path leans on.

    ``sweep_view`` and the ratio helpers must answer — not crash, not
    divide by zero — when a whole rack dies, when no server survives,
    and when literally every node is masked off.
    """

    def _masked(self, net, **kwargs):
        from repro.faults.plan import explicit_failures

        return MaskedGraph(compile_graph(net), explicit_failures(**kwargs))

    def test_entire_rack_dead(self, abccc_medium):
        _, net = abccc_medium
        graph = compile_graph(net)
        rack = sorted(
            {name.rsplit("/", 1)[0] for name in net.servers}
        )[0]
        doomed = tuple(n for n in net.servers if n.startswith(rack + "/"))
        assert doomed, "fixture has no rack-shaped server group"
        masked = self._masked(net, dead_servers=doomed)
        assert masked.num_alive_servers() == len(net.servers) - len(doomed)
        # ABCCC survives a rack loss connected: survivors all reach
        # each other, nobody is cut off.
        assert masked.largest_component_fraction() == 1.0
        assert masked.cut_off_servers() == (0, [])
        view = masked.sweep_view()
        assert len(view.server_indices) == masked.num_alive_servers()
        from repro.metrics.engine import sweep_graph_distance_stats

        stats = sweep_graph_distance_stats(view)
        assert stats.pairs > 0

    def test_zero_surviving_servers(self, abccc_medium):
        _, net = abccc_medium
        masked = self._masked(net, dead_servers=tuple(net.servers))
        assert masked.num_alive_servers() == 0
        assert list(masked.alive_server_indices()) == []
        assert masked.largest_component_fraction() == 0.0
        assert masked.connection_ratio(sample_pairs=10, seed=0) == 0.0
        assert masked.connection_ratio_indexed(sample_pairs=10, seed=0) == 0.0
        assert masked.cut_off_servers() == (0, [])
        view = masked.sweep_view()
        assert len(view.server_indices) == 0
        from repro.metrics.engine import sweep_graph_distance_stats

        stats = sweep_graph_distance_stats(view)
        assert stats.pairs == 0

    def test_mask_all_nodes(self, tiny_net):
        masked = self._masked(
            tiny_net,
            dead_servers=tuple(tiny_net.servers),
            dead_switches=tuple(tiny_net.switches),
        )
        assert masked.num_alive_servers() == 0
        assert all(int(label) == -1 for label in masked.component_labels())
        view = masked.sweep_view()
        assert len(view.server_indices) == 0
        # Every adjacency entry is gone: the CSR is all-empty rows.
        assert int(view.offsets[len(view.offsets) - 1]) == 0
        assert masked.largest_component_fraction() == 0.0
        assert masked.cut_off_servers() == (0, [])

    def test_single_survivor(self, tiny_net):
        survivor = tiny_net.servers[0]
        doomed = tuple(n for n in tiny_net.servers if n != survivor)
        masked = self._masked(tiny_net, dead_servers=doomed)
        assert masked.num_alive_servers() == 1
        # One alive server: no pairs to sample, ratio degenerates to 0.
        assert masked.connection_ratio_indexed(sample_pairs=10) == 0.0
        assert masked.largest_component_fraction() == 1.0
        assert masked.cut_off_servers() == (0, [])

    def test_cut_off_servers_reports_minority(self, tiny_net):
        # Kill the switch: in the tiny star net every server loses the
        # others; the majority component is a single server, the rest
        # count as cut off.
        masked = self._masked(tiny_net, dead_switches=tuple(tiny_net.switches))
        count, examples = masked.cut_off_servers()
        alive = masked.num_alive_servers()
        assert count == alive - 1
        assert len(examples) == min(count, 10)

    def test_indexed_ratio_partition_consistency(self, abccc_medium):
        _, net = abccc_medium
        scenario = random_failures(
            net, server_fraction=0.4, switch_fraction=0.4, seed=5
        ).scenario
        masked = MaskedGraph(compile_graph(net), scenario)
        ratio = masked.connection_ratio_indexed(sample_pairs=300, seed=1)
        lcf = masked.largest_component_fraction()
        assert 0.0 <= ratio <= 1.0
        if lcf == 1.0:
            assert ratio == 1.0


class TestSweepPathParity:
    @pytest.mark.parametrize("family", ["abccc_medium", "bcube_small"])
    def test_masked_and_legacy_sweeps_identical(self, family, request):
        _, net = request.getfixturevalue(family)
        model = FaultModel("server+switch")
        curve = degradation_sweep(
            net,
            model,
            levels=[0.0, 0.1, 0.25],
            trials=3,
            sample_pairs=50,
            seed=11,
            workers=1,
        )
        panel = sweep_panel(net, model, sample_pairs=50, seed=11)
        assert len(curve.outcomes) == 9
        for outcome in curve.outcomes:
            # redraw the trial's plan from its seed, evaluate it the slow way
            plan = model.draw(net, outcome.level, outcome.seed)
            assert (
                outcome.connection_ratio,
                outcome.largest_component,
                outcome.alive_servers,
            ) == legacy_trial(net, panel, plan.scenario)

    def test_unfailed_level_is_perfect(self, abccc_medium):
        _, net = abccc_medium
        curve = degradation_sweep(
            net,
            FaultModel("server"),
            levels=[0.0],
            trials=2,
            sample_pairs=40,
            seed=0,
            workers=1,
        )
        assert curve.point(0.0).mean_ratio == 1.0
        assert curve.point(0.0).mean_largest == 1.0
