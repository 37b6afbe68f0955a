"""Packet simulator: hand-computed latencies, queueing, drops, conservation."""

import pytest

from repro.routing.base import Route
from repro.sim.packet import PacketSimConfig, PacketSimulator
from repro.sim.traffic import Flow
from repro.topology.graph import Network


def _pair(capacity=1.0) -> Network:
    net = Network("pair")
    net.add_server("a", ports=1)
    net.add_server("b", ports=1)
    net.add_link("a", "b", capacity=capacity)
    return net


def _route_ab() -> Route:
    return Route.of(["a", "b"])


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            PacketSimConfig(packet_size=0)
        with pytest.raises(ValueError):
            PacketSimConfig(propagation_delay=-1)
        with pytest.raises(ValueError):
            PacketSimConfig(queue_capacity=0)

    def test_serialisation_time(self):
        config = PacketSimConfig(packet_size=2.0, link_capacity=4.0)
        assert config.serialisation_time == pytest.approx(0.5)


class TestSinglePacket:
    def test_latency_formula(self):
        """One hop: latency = serialisation + propagation (+ switching)."""
        config = PacketSimConfig(propagation_delay=0.25, switching_delay=0.1)
        sim = PacketSimulator(_pair(), config)
        result = sim.run(
            [Flow("f", "a", "b")],
            {"f": _route_ab()},
            packets_per_flow=1,
            mean_interarrival=1.0,
            seed=0,
        )
        assert result.delivered == 1
        assert result.latencies[0] == pytest.approx(0.1 + 1.0 + 0.25)

    def test_multi_hop_latency(self, tiny_net):
        config = PacketSimConfig(propagation_delay=0.0)
        sim = PacketSimulator(tiny_net, config)
        result = sim.run(
            [Flow("f", "a", "b")],
            {"f": Route.of(["a", "sw", "b"])},
            packets_per_flow=1,
            seed=0,
        )
        assert result.latencies[0] == pytest.approx(2.0)  # two serialisations


class TestQueueing:
    def test_back_to_back_packets_queue(self):
        """Two packets injected (nearly) together: the second waits one
        serialisation time behind the first."""
        config = PacketSimConfig(propagation_delay=0.0)
        net = _pair()
        sim = PacketSimulator(net, config)
        # Tiny interarrival -> both arrive before the first finishes.
        result = sim.run(
            [Flow("f", "a", "b")],
            {"f": _route_ab()},
            packets_per_flow=2,
            mean_interarrival=1e-9,
            seed=1,
        )
        assert result.delivered == 2
        first, second = sorted(result.latencies)
        assert second - first == pytest.approx(1.0, abs=1e-6)

    def test_drops_when_queue_full(self):
        config = PacketSimConfig(propagation_delay=0.0, queue_capacity=1)
        sim = PacketSimulator(_pair(), config)
        result = sim.run(
            [Flow("f", "a", "b")],
            {"f": _route_ab()},
            packets_per_flow=50,
            mean_interarrival=1e-6,  # burst far beyond the queue
            seed=2,
        )
        assert result.dropped > 0
        assert result.delivered + result.dropped == result.offered

    def test_no_drops_at_low_load(self):
        sim = PacketSimulator(_pair())
        result = sim.run(
            [Flow("f", "a", "b")],
            {"f": _route_ab()},
            packets_per_flow=20,
            mean_interarrival=10.0,
            seed=3,
        )
        assert result.dropped == 0
        assert result.delivery_ratio == 1.0


class TestDeterminismAndAccounting:
    def test_seeded_runs_identical(self, abccc_small):
        spec, net = abccc_small
        from repro.traffic import generate_matrix
        from repro.routing.base import route_all

        flows = generate_matrix("permutation", net.num_servers, seed=4).flows(net.servers)
        routes = route_all(net, flows, spec.route)

        def run_once():
            sim = PacketSimulator(net)
            return sim.run(flows, routes, packets_per_flow=5, seed=7)

        a, b = run_once(), run_once()
        assert a.latencies == b.latencies
        assert a.dropped == b.dropped

    def test_conservation(self, abccc_small):
        spec, net = abccc_small
        from repro.traffic import generate_matrix
        from repro.routing.base import route_all

        flows = generate_matrix("permutation", net.num_servers, seed=5).flows(net.servers)
        routes = route_all(net, flows, spec.route)
        sim = PacketSimulator(net, PacketSimConfig(queue_capacity=2))
        result = sim.run(flows, routes, packets_per_flow=10, mean_interarrival=0.5, seed=8)
        assert result.delivered + result.dropped == result.offered
        assert result.offered == len(flows) * 10

    def test_route_over_dead_link_rejected(self):
        net = _pair()
        sim = PacketSimulator(net)
        bad = Route.of(["b", "a"])
        net.remove_link("a", "b")
        with pytest.raises(ValueError, match="non-existent link"):
            sim.run([Flow("f", "b", "a")], {"f": bad}, packets_per_flow=1)
        # error surfaces at injection time inside the event loop

    def test_zero_hop_route_rejected(self):
        sim = PacketSimulator(_pair())
        with pytest.raises(ValueError, match="zero-hop"):
            sim.run([Flow("f", "a", "b")], {"f": Route.of(["a"])}, packets_per_flow=1)


class TestMultipathSpraying:
    def _two_path_net(self):
        from repro.topology.graph import Network

        net = Network()
        net.add_server("a", ports=2)
        net.add_server("b", ports=2)
        net.add_switch("w1", ports=2)
        net.add_switch("w2", ports=2)
        net.add_link("a", "w1")
        net.add_link("w1", "b")
        net.add_link("a", "w2")
        net.add_link("w2", "b")
        return net

    def test_round_robin_uses_both_paths(self):
        net = self._two_path_net()
        paths = [Route.of(["a", "w1", "b"]), Route.of(["a", "w2", "b"])]
        sim = PacketSimulator(net, PacketSimConfig(propagation_delay=0.0))
        result = sim.run(
            [Flow("f", "a", "b")],
            {"f": paths},
            packets_per_flow=40,
            mean_interarrival=0.25,  # enough pressure to queue on one path
            seed=1,
        )
        # With both paths the flow sustains ~2x one link's capacity; a
        # single path at this load must queue and drop/slow.
        single = PacketSimulator(net, PacketSimConfig(propagation_delay=0.0))
        baseline = single.run(
            [Flow("f", "a", "b")],
            {"f": paths[0]},
            packets_per_flow=40,
            mean_interarrival=0.25,
            seed=1,
        )
        assert result.mean_latency < baseline.mean_latency

    def test_spraying_causes_reordering_under_asymmetry(self):
        """Make one path much longer: spraying must deliver out of order."""
        from repro.topology.graph import Network

        net = Network()
        net.add_server("a", ports=2)
        net.add_server("b", ports=2)
        net.add_switch("w1", ports=2)
        for i in range(3):
            net.add_switch(f"x{i}", ports=2)
        net.add_server("mid", ports=2)
        net.add_link("a", "w1")
        net.add_link("w1", "b")
        # long path: a - x0 - mid - x1 - b
        net.add_link("a", "x0")
        net.add_link("x0", "mid")
        net.add_link("mid", "x1")
        net.add_link("x1", "b")
        short = Route.of(["a", "w1", "b"])
        long = Route.of(["a", "x0", "mid", "x1", "b"])
        sim = PacketSimulator(net, PacketSimConfig(propagation_delay=0.0))
        result = sim.run(
            [Flow("f", "a", "b")],
            {"f": [long, short]},
            packets_per_flow=20,
            mean_interarrival=0.2,
            seed=2,
        )
        assert result.reordered > 0
        assert 0 < result.reorder_ratio <= 1

    def test_single_path_never_reorders(self, abccc_small):
        spec, net = abccc_small
        from repro.traffic import generate_matrix
        from repro.routing.base import route_all

        flows = generate_matrix("permutation", net.num_servers, seed=6).flows(net.servers)
        routes = route_all(net, flows, spec.route)
        sim = PacketSimulator(net)
        result = sim.run(flows, routes, packets_per_flow=10, seed=3)
        assert result.reordered == 0

    def test_rotation_spray_on_abccc(self, abccc_small):
        """Spraying a flow over its rotation family: valid, delivers."""
        from repro.core import rotation_routes
        from repro.core.address import ServerAddress

        spec, net = abccc_small
        src, dst = "s0.0/0", "s2.2/1"
        paths = rotation_routes(
            spec.abccc, ServerAddress.parse(src), ServerAddress.parse(dst)
        )
        assert len(paths) >= 2
        sim = PacketSimulator(net)
        result = sim.run(
            [Flow("f", src, dst)],
            {"f": paths},
            packets_per_flow=30,
            mean_interarrival=0.5,
            seed=4,
            spray="random",
        )
        assert result.delivered == 30

    def test_bad_spray_policy(self, tiny_net):
        sim = PacketSimulator(tiny_net)
        with pytest.raises(ValueError, match="spray"):
            sim.run([Flow("f", "a", "b")], {"f": Route.of(["a", "sw", "b"])},
                    packets_per_flow=1, spray="zigzag")

    def test_empty_path_list_rejected(self, tiny_net):
        sim = PacketSimulator(tiny_net)
        with pytest.raises(ValueError, match="no routes"):
            sim.run([Flow("f", "a", "b")], {"f": []}, packets_per_flow=1)


class TestResultStats:
    def test_percentile_and_throughput(self):
        sim = PacketSimulator(_pair())
        result = sim.run(
            [Flow("f", "a", "b")],
            {"f": _route_ab()},
            packets_per_flow=100,
            mean_interarrival=2.0,
            seed=9,
        )
        assert result.p99_latency >= result.mean_latency * 0.5
        assert result.throughput > 0
