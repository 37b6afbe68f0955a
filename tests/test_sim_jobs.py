"""Job-level workload model tests."""

from collections.abc import Sequence

import pytest

from repro.core import AbcccSpec
from repro.sim.jobs import (
    Job,
    JobSimResult,
    disseminate_job,
    incast_job,
    shuffle_job,
    simulate_jobs,
)
from repro.sim.traffic import Flow


@pytest.fixture(scope="module")
def fabric():
    spec = AbcccSpec(3, 1, 2)
    return spec, spec.build()


class TestJobConstruction:
    def test_shuffle_shape(self, fabric):
        _, net = fabric
        job = shuffle_job("j", 0.0, net.servers, 3, 4, seed=1)
        assert len(job.flows) == 12
        assert len({f.src for f in job.flows}) == 3
        assert len({f.dst for f in job.flows}) == 4
        assert job.total_volume == pytest.approx(12.0)

    def test_incast_shape(self, fabric):
        _, net = fabric
        job = incast_job("j", 0.0, net.servers, 5, seed=2)
        assert len(job.flows) == 5
        assert len({f.dst for f in job.flows}) == 1

    def test_disseminate_shape(self, fabric):
        _, net = fabric
        job = disseminate_job("j", 0.0, net.servers, 5, seed=3)
        assert len(job.flows) == 5
        assert len({f.src for f in job.flows}) == 1

    def test_shapes_index_servers_without_copying(self):
        """A shape costs its participants: it indexes ``servers`` and never
        iterates it, so a billion-server list is as cheap as ten."""

        class Huge(Sequence):
            def __len__(self):
                return 10**9

            def __getitem__(self, i):
                return f"s{i}"

            def __iter__(self):
                raise AssertionError("servers copied")

        servers = Huge()
        assert len(shuffle_job("a", 0.0, servers, 3, 4, seed=1).flows) == 12
        assert len(incast_job("b", 0.0, servers, 5, seed=1).flows) == 5
        assert len(disseminate_job("c", 0.0, servers, 5, seed=1).flows) == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="no flows"):
            Job("j", 0.0, ())
        with pytest.raises(ValueError, match="negative"):
            Job("j", -1.0, (Flow("f", "a", "b"),))
        with pytest.raises(ValueError, match="duplicate"):
            Job("j", 0.0, (Flow("f", "a", "b"), Flow("f", "b", "a")))


class TestSimulation:
    def test_single_job_completion(self, fabric):
        spec, net = fabric
        job = shuffle_job("solo", 0.0, net.servers, 3, 3, seed=4)
        result = simulate_jobs(net, [job], spec.route)
        assert len(result.jobs) == 1
        record = result.job("solo")
        assert record.completion > 0
        assert record.duration == record.completion
        assert result.makespan == record.completion

    def test_job_completion_is_last_flow(self, fabric):
        spec, net = fabric
        job = incast_job("in", 0.0, net.servers, 4, seed=5)
        result = simulate_jobs(net, [job], spec.route)
        times = result.flow_result.completion_times
        assert len(times) == len(job.flows)
        assert result.job("in").completion == times.max()

    def test_staggered_arrivals_ordered(self, fabric):
        spec, net = fabric
        early = shuffle_job("early", 0.0, net.servers, 2, 2, seed=6)
        late = shuffle_job("late", 50.0, net.servers, 2, 2, seed=6)
        result = simulate_jobs(net, [early, late], spec.route)
        assert result.job("early").completion < result.job("late").completion
        assert result.job("late").arrival == 50.0
        # By t=50 the early job has long finished, so the late job, placed
        # on the same servers, sees an idle fabric and takes exactly as long.
        assert result.job("late").duration == pytest.approx(
            result.job("early").duration, rel=1e-12
        )

    def test_flow_result_in_job_then_flow_order(self, fabric):
        spec, net = fabric
        jobs = [
            incast_job("a", 0.0, net.servers, 3, seed=1),
            shuffle_job("b", 2.5, net.servers, 2, 2, seed=2),
        ]
        result = simulate_jobs(net, jobs, spec.route)
        stats = result.flow_result
        assert list(stats.start_times) == [0.0] * 3 + [2.5] * 4
        assert (stats.durations > 0).all()
        assert result.job("b").completion == stats.completion_times[3:].max()

    def test_contention_slows_jobs(self, fabric):
        """Two simultaneous incasts to the same coordinator take longer
        than one alone."""
        spec, net = fabric
        solo = incast_job("a", 0.0, net.servers, 4, seed=8)
        result_solo = simulate_jobs(net, [solo], spec.route)
        a = incast_job("a", 0.0, net.servers, 4, seed=8)
        b = incast_job("b", 0.0, net.servers, 4, seed=8)
        # same seed -> same coordinator & workers; rename flows via job id
        result_both = simulate_jobs(net, [a, b], spec.route)
        assert result_both.job("a").duration > result_solo.job("a").duration

    def test_duplicate_flow_ids_across_jobs(self, fabric):
        spec, net = fabric
        job_a = Job("a", 0.0, (Flow("same", net.servers[0], net.servers[1]),))
        job_b = Job("b", 0.0, (Flow("same", net.servers[2], net.servers[3]),))
        with pytest.raises(ValueError, match="duplicate flow id"):
            simulate_jobs(net, [job_a, job_b], spec.route)

    def test_stats(self, fabric):
        spec, net = fabric
        jobs = [
            shuffle_job(f"j{i}", float(i), net.servers, 2, 2, seed=10 + i)
            for i in range(3)
        ]
        result = simulate_jobs(net, jobs, spec.route)
        durations = [j.duration for j in result.jobs]
        assert result.mean_duration == pytest.approx(sum(durations) / 3)
        assert result.p99_duration == max(durations)
        with pytest.raises(KeyError):
            result.job("ghost")
