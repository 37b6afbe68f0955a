"""Flow lists: the Flow record and the workloads as name-keyed callers see them.

Every flow set comes from :mod:`repro.traffic.matrix` (through
:meth:`TrafficMatrix.flows`) or a :mod:`repro.sim.jobs` shape; these
tests check shapes, determinism and validation on that Flow view, over
server names, integer ordinals and numpy ids alike.
"""

import pytest

from repro.sim.jobs import disseminate_job, shuffle_job
from repro.sim.traffic import Flow
from repro.traffic import (
    TrafficError,
    all_to_all_matrix,
    hot_rack_matrix,
    permutation_matrix,
    uniform_matrix,
)

SERVERS = [f"s{i}" for i in range(12)]


class TestFlow:
    def test_self_flow_rejected(self):
        with pytest.raises(ValueError, match="src == dst"):
            Flow("f", "a", "a")

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            Flow("f", "a", "b", size=0)


class TestPermutation:
    def test_seed_determinism(self):
        assert permutation_matrix(12, 3).flows(SERVERS) == permutation_matrix(
            12, 3
        ).flows(SERVERS)

    def test_too_few_servers(self):
        with pytest.raises(ValueError):
            permutation_matrix(1)


class TestAllToAll:
    def test_complete(self):
        flows = all_to_all_matrix(4).flows(SERVERS[:4])
        assert len(flows) == 12
        pairs = {(f.src, f.dst) for f in flows}
        assert len(pairs) == 12

    def test_subsampled(self):
        flows = all_to_all_matrix(12, max_flows=20, seed=1).flows(SERVERS)
        assert len(flows) == 20
        assert len({(f.src, f.dst) for f in flows}) == 20

    def test_cap_larger_than_population(self):
        flows = all_to_all_matrix(3, max_flows=100).flows(SERVERS[:3])
        assert len(flows) == 6


class TestUniform:
    def test_count_and_validity(self):
        flows = uniform_matrix(12, 30, seed=2).flows(SERVERS)
        assert len(flows) == 30
        assert all(f.src != f.dst for f in flows)

    def test_distinct_ids(self):
        flows = uniform_matrix(12, 30, seed=2).flows(SERVERS)
        assert len({f.flow_id for f in flows}) == 30


class TestHotspot:
    """A hot rack of one server is a hotspot."""

    def test_hot_traffic_targets_hotspots(self):
        matrix = hot_rack_matrix(
            12, 200, rack_size=1, num_hot_racks=2, hot_fraction=1.0, seed=3
        )
        destinations = {f.dst for f in matrix.flows(SERVERS)}
        assert len(destinations) == 2

    def test_mixed_fraction(self):
        matrix = hot_rack_matrix(
            12, 300, rack_size=1, num_hot_racks=1, hot_fraction=0.5, seed=4
        )
        counts = {}
        for flow in matrix.flows(SERVERS):
            counts[flow.dst] = counts.get(flow.dst, 0) + 1
        # The hotspot should receive far more than a uniform share.
        assert max(counts.values()) > 300 / len(SERVERS) * 3

    def test_validation(self):
        with pytest.raises(TrafficError, match="hot_fraction"):
            hot_rack_matrix(12, 10, rack_size=1, hot_fraction=1.5)
        with pytest.raises(TrafficError, match="num_hot_racks"):
            hot_rack_matrix(12, 10, rack_size=1, num_hot_racks=0)


class TestShuffle:
    def test_every_mapper_to_every_reducer(self):
        flows = shuffle_job("j", 0.0, SERVERS, 3, 4, seed=5).flows
        assert len(flows) == 12
        mappers = {f.src for f in flows}
        reducers = {f.dst for f in flows}
        assert len(mappers) == 3
        assert len(reducers) == 4
        assert not mappers & reducers  # disjoint roles

    def test_too_many_roles(self):
        with pytest.raises(ValueError, match="exceed"):
            shuffle_job("j", 0.0, SERVERS[:4], 3, 2)


class TestOneToAll:
    def test_covers_everyone_once(self):
        """A dissemination to every other server is the one-to-all set."""
        flows = disseminate_job("j", 0.0, SERVERS, len(SERVERS) - 1, seed=3).flows
        assert len(flows) == len(SERVERS) - 1
        (source,) = {f.src for f in flows}
        assert {f.dst for f in flows} == set(SERVERS) - {source}


class TestIntegerServerIds:
    """The Flow view carries any opaque hashable ids — ordinals included.

    Name strings must never be assumed: the same matrix drives the
    name-keyed routers (``net.servers``) and the ordinal-keyed engine.
    """

    def test_permutation_over_range(self):
        flows = permutation_matrix(10, seed=3).flows(range(10))
        assert len(flows) == 10
        assert all(isinstance(f.src, int) for f in flows)
        assert all(f.src != f.dst for f in flows)

    def test_all_to_all_over_ints(self):
        flows = all_to_all_matrix(5, seed=0).flows(list(range(5)))
        assert len(flows) == 5 * 4
        assert {(f.src, f.dst) for f in flows} == {
            (a, b) for a in range(5) for b in range(5) if a != b
        }

    def test_uniform_and_hotspot_over_ints(self):
        uniform = uniform_matrix(8, num_flows=20, seed=1).flows(range(8))
        hot = hot_rack_matrix(8, num_flows=20, rack_size=1, seed=1).flows(range(8))
        for flows in (uniform, hot):
            assert len(flows) == 20
            assert all(0 <= f.src < 8 and 0 <= f.dst < 8 for f in flows)
            assert all(f.src != f.dst for f in flows)

    def test_shuffle_and_one_to_all_over_ints(self):
        shuffle = shuffle_job("j", 0.0, range(9), 3, 2, seed=2).flows
        assert len(shuffle) == 6
        broadcast = disseminate_job("j", 0.0, range(6), 5, seed=4).flows
        assert len(broadcast) == 5
        assert {f.dst for f in broadcast} | {broadcast[0].src} == set(range(6))

    def test_numpy_integer_ids(self):
        import numpy as np

        ids = np.arange(7)
        flows = permutation_matrix(7, seed=5).flows(ids)
        assert len(flows) == 7
        # numpy scalars stay hashable and comparable
        assert all(f.src != f.dst for f in flows)

    def test_same_seed_same_flows_regardless_of_id_type(self):
        matrix = permutation_matrix(12, seed=9)
        by_ordinal = matrix.flows(range(12))
        by_name = matrix.flows(SERVERS)
        # the drawn permutation is positionally identical
        assert [SERVERS[f.src] for f in by_ordinal] == [f.src for f in by_name]
        assert [SERVERS[f.dst] for f in by_ordinal] == [f.dst for f in by_name]
