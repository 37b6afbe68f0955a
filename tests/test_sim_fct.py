"""Fluid FCT over name routes: hand-computable schedules and invariants."""

import numpy as np
import pytest

from repro.routing.base import Route, route_all
from repro.sim.traffic import Flow
from repro.topology.compiled import compile_graph
from repro.topology.graph import Network
from repro.traffic import RouteSet, RouteSetError, fluid_fct, generate_matrix, max_min_rates


def _single_link(capacity=1.0) -> Network:
    net = Network()
    net.add_server("a", ports=4)
    net.add_server("b", ports=4)
    net.add_link("a", "b", capacity=capacity)
    return net


def _ab_routes(flows):
    return {f.flow_id: Route.of(["a", "b"]) for f in flows}


def _simulate(net, flows, routes, arrivals=None):
    """``fluid_fct`` plus ``flow_id -> completion`` for readable asserts."""
    route_set = RouteSet.from_name_routes(compile_graph(net), flows, routes)
    starts = [(arrivals or {}).get(f.flow_id, 0.0) for f in flows]
    stats = fluid_fct(route_set, [f.size for f in flows], starts)
    done = {f.flow_id: float(t) for f, t in zip(flows, stats.completion_times)}
    return stats, done


class TestHandSchedules:
    def test_single_flow(self):
        net = _single_link()
        flows = [Flow("f", "a", "b", size=3.0)]
        stats, done = _simulate(net, flows, _ab_routes(flows))
        assert done["f"] == pytest.approx(3.0)
        assert stats.max_fct == pytest.approx(3.0)

    def test_two_equal_flows_share_then_nothing_frees(self):
        """Two size-1 flows on one unit link: both at rate 0.5, both done
        at t=2."""
        net = _single_link()
        flows = [Flow("f1", "a", "b"), Flow("f2", "a", "b")]
        _, done = _simulate(net, flows, _ab_routes(flows))
        assert done["f1"] == pytest.approx(2.0)
        assert done["f2"] == pytest.approx(2.0)

    def test_unequal_sizes_redistribute(self):
        """Sizes 1 and 3 sharing a unit link: both at 0.5 until t=2 (small
        one done), then the big one runs at 1.0 with 2 volume left -> t=4."""
        net = _single_link()
        flows = [Flow("small", "a", "b", size=1.0), Flow("big", "a", "b", size=3.0)]
        stats, done = _simulate(net, flows, _ab_routes(flows))
        assert done["small"] == pytest.approx(2.0)
        assert done["big"] == pytest.approx(4.0)
        assert stats.durations[1] == pytest.approx(4.0)

    def test_late_arrival(self):
        """Second flow arrives at t=1: the first runs alone over [0, 1)
        at rate 1 (size 2, so 1 left), then both share at 0.5 and finish
        together at t=3."""
        net = _single_link()
        flows = [Flow("early", "a", "b", size=2.0), Flow("late", "a", "b", size=1.0)]
        stats, done = _simulate(net, flows, _ab_routes(flows), arrivals={"late": 1.0})
        assert done["early"] == pytest.approx(3.0)
        assert done["late"] == pytest.approx(3.0)
        assert stats.durations[1] == pytest.approx(2.0)

    def test_idle_gap_between_arrivals(self):
        net = _single_link()
        flows = [Flow("f1", "a", "b"), Flow("f2", "a", "b")]
        _, done = _simulate(
            net, flows, _ab_routes(flows), arrivals={"f1": 0.0, "f2": 10.0}
        )
        assert done["f1"] == pytest.approx(1.0)
        assert done["f2"] == pytest.approx(11.0)

    def test_arrival_admitted_after_rounded_step(self):
        """A step bound by an arrival can land an ulp short of it: here
        ``x + (s - x)`` rounds 3.6e-12 below ``s``, beyond the 1e-12
        admission slack.  The arrival must still be admitted, not stall
        the loop."""
        x = float.fromhex("0x1.c54af5482eba8p+10")  # ~1813.17
        s = float.fromhex("0x1.fc3d573581a81p+14")  # ~32527.34
        assert x + (s - x) + 1e-12 < s
        net = _single_link()
        flows = [
            Flow("short", "a", "b", size=x / 2),  # shares at 0.5, done at x
            Flow("long", "a", "b", size=1e6),
            Flow("late", "a", "b", size=1.0),
        ]
        stats, done = _simulate(net, flows, _ab_routes(flows), arrivals={"late": s})
        assert done["short"] == x
        assert done["late"] == pytest.approx(s + 2.0)
        assert stats.solves == 4


class TestInvariants:
    def test_all_flows_complete(self, abccc_small):
        spec, net = abccc_small
        flows = generate_matrix("permutation", net.num_servers, seed=3).flows(net.servers)
        routes = route_all(net, flows, spec.route)
        stats, done = _simulate(net, flows, routes)
        assert set(done) == {f.flow_id for f in flows}
        assert stats.num_completed == len(flows)
        assert stats.max_fct == max(done.values())
        assert (stats.durations > 0).all()

    def test_makespan_lower_bound(self, abccc_small):
        """Makespan >= the size/min-max-min-rate bound of the first round."""
        spec, net = abccc_small
        flows = generate_matrix("permutation", net.num_servers, seed=4).flows(net.servers)
        routes = route_all(net, flows, spec.route)
        route_set = RouteSet.from_name_routes(compile_graph(net), flows, routes)
        allocation = max_min_rates(route_set)
        stats = fluid_fct(route_set, np.ones(len(flows)))
        assert stats.max_fct >= 1.0 / allocation.max_rate - 1e-9

    def test_helper_matches_simulation(self, abccc_small):
        """With simultaneous starts, max_fct (E3's shuffle time) is the
        last completion instant."""
        spec, net = abccc_small
        flows = generate_matrix("permutation", net.num_servers, seed=5).flows(net.servers)
        routes = route_all(net, flows, spec.route)
        stats, done = _simulate(net, flows, routes)
        assert stats.max_fct == max(done.values())
        assert stats.summary()["max_fct"] == stats.max_fct


class TestValidation:
    def test_duplicate_flow_ids(self):
        net = _single_link()
        flows = [Flow("f", "a", "b"), Flow("f", "a", "b")]
        with pytest.raises(RouteSetError, match="duplicate"):
            _simulate(net, flows, _ab_routes(flows))

    def test_unknown_arrival(self):
        """A start time for a flow that does not exist is rejected."""
        net = _single_link()
        flows = [Flow("f", "a", "b")]
        route_set = RouteSet.from_name_routes(compile_graph(net), flows, _ab_routes(flows))
        with pytest.raises(ValueError, match="one entry per flow"):
            fluid_fct(route_set, [1.0], starts=[0.0, 1.0])

    def test_empty_flow_set(self):
        net = _single_link()
        stats, done = _simulate(net, [], {})
        assert done == {}
        assert stats.max_fct == 0.0
        assert stats.mean_fct == 0.0
        assert stats.solves == 0
