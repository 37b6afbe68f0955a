"""Failure injection and resilience metrics."""

import pytest

from repro.faults.mask import MaskedGraph
from repro.faults.plan import FailureScenario, rack_failures, random_failures
from repro.metrics.connectivity import sample_server_pairs, server_pair_connectivity
from repro.topology.compiled import compile_graph


def _masked(net, scenario):
    return MaskedGraph(compile_graph(net), scenario)


class TestDrawFailures:
    def test_fraction_counts(self, abccc_small):
        _, net = abccc_small
        scenario = random_failures(net, server_fraction=0.5, seed=1).scenario
        assert len(scenario.dead_servers) == round(0.5 * net.num_servers)
        assert scenario.dead_switches == ()
        assert scenario.dead_links == ()

    def test_seed_determinism(self, abccc_small):
        _, net = abccc_small
        a = random_failures(net, server_fraction=0.3, switch_fraction=0.2, seed=7)
        b = random_failures(net, server_fraction=0.3, switch_fraction=0.2, seed=7)
        assert a.scenario == b.scenario

    def test_different_seeds_differ(self, abccc_small):
        _, net = abccc_small
        a = random_failures(net, server_fraction=0.3, seed=7).scenario
        b = random_failures(net, server_fraction=0.3, seed=8).scenario
        assert a != b

    def test_fraction_validation(self, abccc_small):
        _, net = abccc_small
        with pytest.raises(ValueError, match="fraction"):
            random_failures(net, server_fraction=1.5)

    def test_empty_scenario(self, abccc_small):
        _, net = abccc_small
        scenario = random_failures(net).scenario
        assert scenario.is_empty


class TestRackFailures:
    def test_whole_racks_die_together(self, abccc_medium):
        from repro.metrics.layout import LayoutConfig, assign_racks

        _, net = abccc_medium
        scenario = rack_failures(net, 2, rack_capacity=9, seed=1).scenario
        racks = assign_racks(net, LayoutConfig(rack_capacity=9))
        dead_racks = {racks[name] for name in scenario.dead_servers}
        assert len(dead_racks) == 2
        # Every server of a dead rack is dead — no partial racks.
        for name, rack in racks.items():
            if rack in dead_racks and net.node(name).is_server:
                assert name in scenario.dead_servers

    def test_switches_in_dead_racks_die(self, abccc_medium):
        _, net = abccc_medium
        scenario = rack_failures(net, 1, rack_capacity=9, seed=2).scenario
        assert scenario.dead_switches  # crossbar switches live in racks

    def test_zero_racks_is_empty(self, abccc_small):
        _, net = abccc_small
        assert rack_failures(net, 0, rack_capacity=6).scenario.is_empty

    def test_bounds_validated(self, abccc_small):
        _, net = abccc_small
        with pytest.raises(ValueError, match="num_racks"):
            rack_failures(net, 99, rack_capacity=6)

    def test_seed_determinism(self, abccc_small):
        _, net = abccc_small
        a = rack_failures(net, 1, rack_capacity=6, seed=5).scenario
        b = rack_failures(net, 1, rack_capacity=6, seed=5).scenario
        assert a == b


class TestApplyFailures:
    def test_removes_components(self, abccc_small):
        _, net = abccc_small
        scenario = random_failures(
            net, server_fraction=0.25, link_fraction=0.1, seed=3
        ).scenario
        graph = compile_graph(net)
        masked = MaskedGraph(graph, scenario)
        dead = len(scenario.dead_servers)
        assert masked.num_alive_servers() == net.num_servers - dead
        for name in scenario.dead_servers:
            assert not masked.node_alive[graph.index[name]]
        for u, v in scenario.dead_links:
            u, v = graph.index[u], graph.index[v]
            assert graph.entry_index(u, v) in masked.dead_entries
            assert graph.entry_index(v, u) in masked.dead_entries
        # the network itself is untouched
        assert all(name in net for name in scenario.dead_servers)
        assert graph.num_servers == net.num_servers


class TestConnectionRatio:
    def test_no_failures_is_fully_connected(self, abccc_small):
        _, net = abccc_small
        scenario = FailureScenario((), (), ())
        assert _masked(net, scenario).connection_ratio(sample_pairs=50) == 1.0

    def test_degrades_with_failures(self, abccc_medium):
        _, net = abccc_medium
        light = random_failures(net, switch_fraction=0.05, seed=2).scenario
        heavy = random_failures(net, switch_fraction=0.5, seed=2).scenario
        ratio_light = _masked(net, light).connection_ratio(sample_pairs=150, seed=0)
        ratio_heavy = _masked(net, heavy).connection_ratio(sample_pairs=150, seed=0)
        assert ratio_heavy <= ratio_light <= 1.0

    def test_total_blackout(self, abccc_small):
        _, net = abccc_small
        scenario = random_failures(net, switch_fraction=1.0, seed=1).scenario
        assert _masked(net, scenario).connection_ratio(sample_pairs=30) == 0.0


class TestLargestComponent:
    def test_intact_network(self, abccc_small):
        _, net = abccc_small
        scenario = FailureScenario((), (), ())
        assert _masked(net, scenario).largest_component_fraction() == 1.0

    def test_all_servers_dead(self, abccc_small):
        _, net = abccc_small
        scenario = FailureScenario(tuple(net.servers), (), ())
        assert _masked(net, scenario).largest_component_fraction() == 0.0


class TestPairUtilities:
    def test_sample_pairs_distinct(self, abccc_small):
        _, net = abccc_small
        pairs = sample_server_pairs(net, 25, seed=1)
        assert len(pairs) == 25
        assert len(set(pairs)) == 25
        for src, dst in pairs:
            assert src != dst

    def test_pair_connectivity_values(self, abccc_small):
        spec, net = abccc_small
        pairs = sample_server_pairs(net, 5, seed=2)
        for node_conn, edge_conn in server_pair_connectivity(net, pairs):
            assert 1 <= node_conn <= spec.s
            assert node_conn <= edge_conn <= spec.s
