"""Cross-cutting property-based invariants (hypothesis).

Each test here spans several subsystems — the invariants a user relies
on implicitly when composing the library, driven over randomly drawn
parameters and inputs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AbcccSpec
from repro.core.address import AbcccParams, ServerAddress
from repro.core.broadcast import broadcast_tree
from repro.core.conformance import conformance_problems
from repro.core.routing import abccc_route, logical_distance
from repro.core.topology import build_abccc
from repro.topology.graph import Network
from repro.topology.serialize import from_json_dict, to_json_dict

small_params = st.builds(
    AbcccParams,
    n=st.integers(min_value=2, max_value=3),
    k=st.integers(min_value=0, max_value=2),
    s=st.integers(min_value=2, max_value=4),
)


@st.composite
def random_network(draw) -> Network:
    """A connected random server/switch network with spare ports."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    servers = draw(st.integers(min_value=2, max_value=8))
    switches = draw(st.integers(min_value=1, max_value=4))
    net = Network("prop")
    names = []
    for i in range(servers):
        net.add_server(f"srv{i}", ports=8, address=(i,))
        names.append(f"srv{i}")
    for i in range(switches):
        net.add_switch(f"sw{i}", ports=16, role="r")
        names.append(f"sw{i}")
    for i in range(1, len(names)):
        net.add_link(names[i], names[rng.randrange(i)], capacity=rng.choice([1.0, 2.5]))
    extra = draw(st.integers(min_value=0, max_value=6))
    for _ in range(extra):
        u, v = rng.sample(names, 2)
        if not net.has_link(u, v):
            net.add_link(u, v)
    return net


class TestSerializationProperties:
    @settings(max_examples=40, deadline=None)
    @given(random_network())
    def test_json_roundtrip_random_networks(self, net):
        loaded = from_json_dict(to_json_dict(net))
        assert set(loaded.node_names()) == set(net.node_names())
        assert {l.key for l in loaded.links()} == {l.key for l in net.links()}
        for link in net.links():
            assert loaded.link(link.u, link.v).capacity == link.capacity

    @settings(max_examples=15, deadline=None)
    @given(small_params)
    def test_abccc_roundtrip_preserves_conformance(self, params):
        loaded = from_json_dict(to_json_dict(build_abccc(params)))
        assert conformance_problems(loaded, params) == []


class TestBuilderProperties:
    @settings(max_examples=15, deadline=None)
    @given(small_params)
    def test_builder_always_conformant(self, params):
        assert conformance_problems(build_abccc(params), params) == []

    @settings(max_examples=15, deadline=None)
    @given(small_params, st.integers(min_value=0, max_value=10**6))
    def test_broadcast_spans_from_any_source(self, params, pick):
        net = build_abccc(params)
        total = params.num_crossbars * params.crossbar_size
        source = ServerAddress.from_rank(params, pick % total)
        tree = broadcast_tree(params, source)
        assert set(tree.servers) == set(net.servers)
        tree.validate(net)


class TestRoutingConsistency:
    @settings(max_examples=30, deadline=None)
    @given(small_params, st.data())
    def test_route_symmetry_of_length(self, params, data):
        """Locality routes have symmetric lengths: |route(a,b)| == |route(b,a)|
        (the transfer structure mirrors when endpoints swap)."""
        total = params.num_crossbars * params.crossbar_size
        a = ServerAddress.from_rank(params, data.draw(st.integers(0, total - 1)))
        b = ServerAddress.from_rank(params, data.draw(st.integers(0, total - 1)))
        assert logical_distance(params, a, b) == logical_distance(params, b, a)

    @settings(max_examples=30, deadline=None)
    @given(small_params, st.data())
    def test_triangle_inequality_on_route_lengths(self, params, data):
        """Shortest-path distances must satisfy the triangle inequality —
        and locality routes ARE shortest (proven elsewhere), so their
        lengths must too."""
        total = params.num_crossbars * params.crossbar_size
        draw_addr = lambda: ServerAddress.from_rank(
            params, data.draw(st.integers(0, total - 1))
        )
        a, b, c = draw_addr(), draw_addr(), draw_addr()
        assert logical_distance(params, a, c) <= (
            logical_distance(params, a, b) + logical_distance(params, b, c)
        )


class TestFlowFctConsistency:
    @staticmethod
    def _route_set(spec, net, flows):
        from repro.routing.base import route_all
        from repro.topology.compiled import compile_graph
        from repro.traffic import RouteSet

        routes = route_all(net, flows, spec.route)
        return RouteSet.from_name_routes(compile_graph(net), flows, routes)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_fct_bounds_from_maxmin(self, seed):
        """For simultaneous unit flows: min-rate bound >= makespan >=
        max-rate bound (slowest/ fastest first-round rates bracket it)."""
        from repro.traffic import fluid_fct, generate_matrix, max_min_rates

        spec = AbcccSpec(3, 1, 2)
        net = spec.build()
        flows = generate_matrix("permutation", net.num_servers, seed=seed).flows(net.servers)
        route_set = self._route_set(spec, net, flows)
        allocation = max_min_rates(route_set)
        makespan = fluid_fct(route_set, [f.size for f in flows]).max_fct
        assert makespan <= 1.0 / allocation.min_rate + 1e-9
        assert makespan >= 1.0 / allocation.max_rate - 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_fct_monotone_in_volume(self, seed):
        """Doubling every flow's size exactly doubles the makespan
        (fluid model is scale-invariant)."""
        from repro.traffic import fluid_fct, generate_matrix

        spec = AbcccSpec(2, 1, 2)
        net = spec.build()
        base = generate_matrix("permutation", net.num_servers, seed=seed).flows(net.servers)
        route_set = self._route_set(spec, net, base)
        t1 = fluid_fct(route_set, [1.0] * len(base)).max_fct
        t2 = fluid_fct(route_set, [2.0] * len(base)).max_fct
        assert t2 == pytest.approx(2 * t1)
