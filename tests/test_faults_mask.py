"""Masked-CSR trial parity: identical results to the copy-and-recompile oracle.

The acceptance bar for the masking path is *identity*, not closeness:
the same scenario must produce the same components, connection ratio
and largest-component fraction whether it is applied as a mask over the
compiled graph or via ``subgraph_without`` + a cold recompile
(``tests/fault_oracle.py``).  The scenarios here are randomised across
ABCCC and two baseline families, from 15 to 1,536 nodes, and include
dead links only, every node dead and the last-indexed node dead.
"""

import pytest

from repro.faults.mask import MaskedGraph
from repro.faults.plan import FaultModel, explicit_failures, random_failures
from repro.faults.sweep import degradation_sweep
from repro.topology.compiled import compile_graph
from repro.topology.graph import Network
from tests.fault_oracle import (
    alive_partition,
    connection_ratio,
    largest_component_fraction,
    legacy_trial,
    sweep_panel,
)

FAMILIES = ["abccc_medium", "abccc_s3", "bcube_small", "fattree_small", "abccc_large"]


#: a mixed random draw per seed, then three corner masks
CASES = [0, 1, 2, 3, "links-only", "every-node", "last-node"]


def _scenario(net, case):
    if case == "links-only":
        return random_failures(net, link_fraction=0.2, seed=0).scenario
    if case == "every-node":
        return explicit_failures(
            dead_servers=tuple(net.servers), dead_switches=tuple(net.switches)
        ).scenario
    if case == "last-node":
        last = compile_graph(net).names[-1]
        kind = "dead_servers" if net.node(last).is_server else "dead_switches"
        return explicit_failures(**{kind: (last,)}).scenario
    return random_failures(
        net, server_fraction=0.15, switch_fraction=0.10, link_fraction=0.05, seed=case
    ).scenario


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("case", CASES)
class TestMetricParity:
    def _masked(self, family, case, request):
        _, net = request.getfixturevalue(family)
        scenario = _scenario(net, case)
        return net, scenario, MaskedGraph(compile_graph(net), scenario)

    def test_connection_ratio_identical(self, family, case, request):
        net, scenario, masked = self._masked(family, case, request)
        seed = case if isinstance(case, int) else 0
        assert masked.connection_ratio(
            sample_pairs=120, seed=seed
        ) == connection_ratio(net, scenario, sample_pairs=120, seed=seed)

    def test_largest_component_identical(self, family, case, request):
        net, scenario, masked = self._masked(family, case, request)
        assert masked.largest_component_fraction() == largest_component_fraction(
            net, scenario
        )

    def test_components_identical(self, family, case, request):
        net, scenario, masked = self._masked(family, case, request)
        members = {}
        for node, label in enumerate(masked.component_labels()):
            if label >= 0:
                members.setdefault(int(label), []).append(node)
        # each component is labeled by its smallest node index
        assert all(label == nodes[0] for label, nodes in members.items())
        names = masked.graph.names
        assert {
            frozenset(names[i] for i in nodes) for nodes in members.values()
        } == alive_partition(net, scenario)


class TestMaskedGraph:
    def test_alive_servers_match_subgraph_order(self, abccc_medium):
        _, net = abccc_medium
        scenario = random_failures(net, server_fraction=0.3, seed=2).scenario
        graph = compile_graph(net)
        masked = MaskedGraph(graph, scenario)
        sub = net.subgraph_without(dead_nodes=scenario.dead_servers)
        alive = [graph.names[i] for i in masked.alive_server_indices()]
        assert alive == sub.servers
        assert masked.num_alive_servers() == sub.num_servers

    def test_connected_respects_dead_links(self, tiny_net):
        graph = compile_graph(tiny_net)
        masked = MaskedGraph(graph, explicit_failures(dead_links=(("a", "sw"),)))
        labels, index = masked.component_labels(), graph.index
        assert labels[index["a"]] != labels[index["b"]]
        assert labels[index["b"]] == labels[index["sw"]]

    def test_dead_endpoint_disconnects(self, tiny_net):
        graph = compile_graph(tiny_net)
        masked = MaskedGraph(graph, explicit_failures(dead_servers=("a",)))
        labels, index = masked.component_labels(), graph.index
        assert labels[index["a"]] == -1
        assert labels[index["b"]] == labels[index["sw"]]

    def test_unknown_failures_raise_key_error(self, tiny_net):
        graph = compile_graph(tiny_net)
        for failures, shown in (
            ({"dead_servers": ("ghost",)}, "ghost"),
            ({"dead_links": (("ghost", "sw"),)}, "ghost--sw"),
            # both endpoints exist, but no link joins the two servers
            ({"dead_links": (("a", "b"),)}, "a--b"),
        ):
            with pytest.raises(KeyError, match=shown):
                MaskedGraph(graph, explicit_failures(**failures))
        ghosts = tuple(f"ghost{i}" for i in range(7))
        with pytest.raises(KeyError) as exc:
            MaskedGraph(graph, explicit_failures(dead_servers=ghosts))
        # the message lists at most five of them
        assert "ghost4" in exc.value.args[0]
        assert "ghost5" not in exc.value.args[0]


class TestDegenerateScenarios:
    """Mass-failure edge cases the serve what-if path leans on.

    ``sweep_view`` and the ratio helpers must answer — not crash, not
    divide by zero — when a whole rack dies, when no server survives,
    and when literally every node is masked off.
    """

    def _masked(self, net, **kwargs):
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
        assert masked.connection_ratio(sample_pairs=10, seed=0) == 1.0
        # No pairs to sample: the ratio degenerates to 0, never divides by 0.
        assert masked.connection_ratio(sample_pairs=0) == 0.0
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
        assert masked.connection_ratio(sample_pairs=10) == 0.0
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

    def test_cut_off_tie_keeps_the_lowest_indexed_component(self):
        # Killing "mid" leaves two components of two servers each.  The
        # one holding node 0 ("left") is the majority, although the
        # first servers in insertion order ("a", "b") sit in the other.
        net = Network("tie")
        for name in ("left", "mid", "right"):
            net.add_switch(name, ports=3)
        for name in ("a", "b", "p", "q"):
            net.add_server(name, ports=1)
        for u, v in (
            ("a", "right"),
            ("b", "right"),
            ("p", "left"),
            ("q", "left"),
            ("left", "mid"),
            ("mid", "right"),
        ):
            net.add_link(u, v)
        masked = self._masked(net, dead_switches=("mid",))
        assert masked.largest_component_fraction() == 0.5
        assert masked.cut_off_servers() == (2, ["a", "b"])

    def test_indexed_ratio_partition_consistency(self, abccc_medium):
        _, net = abccc_medium
        scenario = random_failures(
            net, server_fraction=0.4, switch_fraction=0.4, seed=5
        ).scenario
        masked = MaskedGraph(compile_graph(net), scenario)
        ratio = masked.connection_ratio(sample_pairs=300, seed=1)
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
