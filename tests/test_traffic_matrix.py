"""Traffic-matrix generators: determinism, degenerate inputs, bridges."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.jobs import disseminate_job, incast_job, shuffle_job

from repro.traffic import (
    MATRICES,
    TrafficError,
    TrafficMatrix,
    all_to_all_matrix,
    default_params,
    generate_matrix,
    hot_rack_matrix,
    incast_matrix,
    job_matrix,
    permutation_matrix,
    uniform_matrix,
)


def _cycle_length(dst) -> int:
    """Length of the cycle through server 0 of the map ``i -> dst[i]``."""
    length, node = 1, int(dst[0])
    while node != 0:
        length, node = length + 1, int(dst[node])
    return length


def _job_digest(job) -> str:
    import hashlib

    return hashlib.sha256(
        repr([(f.flow_id, f.src, f.dst, f.size) for f in job.flows]).encode()
    ).hexdigest()


def _job_draws():
    """One draw of each job shape, over ordinals."""
    return {
        "shuffle_job": shuffle_job("s", 0.0, range(80), 3, 4, seed=42),
        "incast_job": incast_job("i", 0.0, range(80), 5, seed=42),
        "disseminate_job": disseminate_job("d", 0.0, range(80), 5, seed=42),
    }


def _digest(matrix: TrafficMatrix) -> str:
    import hashlib

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(matrix.src).tobytes())
    h.update(np.ascontiguousarray(matrix.dst).tobytes())
    h.update(np.ascontiguousarray(matrix.size).tobytes())
    return h.hexdigest()


class TestInvariants:
    @pytest.mark.parametrize("pattern", sorted(MATRICES))
    def test_no_self_flows_and_in_range(self, pattern):
        m = generate_matrix(pattern, 96, seed=3)
        assert m.num_flows > 0
        assert not np.any(m.src == m.dst)
        for arr in (m.src, m.dst):
            assert arr.min() >= 0 and arr.max() < 96
        assert np.all(m.size > 0)

    @pytest.mark.parametrize("pattern", sorted(MATRICES))
    def test_same_seed_same_matrix(self, pattern):
        a = generate_matrix(pattern, 64, seed=9)
        b = generate_matrix(pattern, 64, seed=9)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    @pytest.mark.parametrize("pattern", sorted(MATRICES))
    def test_different_seed_different_matrix(self, pattern):
        a = generate_matrix(pattern, 64, seed=1)
        b = generate_matrix(pattern, 64, seed=2)
        assert not (
            np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
        )

    def test_below_two_servers_rejected(self):
        for pattern in sorted(MATRICES):
            with pytest.raises(TrafficError):
                generate_matrix(pattern, 1, seed=0)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(TrafficError, match="unknown traffic pattern"):
            generate_matrix("nope", 16)

    def test_matrix_validates_self_flows(self):
        with pytest.raises(TrafficError, match="src == dst"):
            TrafficMatrix(
                pattern="x",
                num_servers=4,
                src=np.array([1]),
                dst=np.array([1]),
                size=np.array([1.0]),
                seed=0,
            )


#: sha256 of ``generate_matrix(p, 80, seed=42)`` per pattern, and of
#: :func:`_job_draws` per shape.  A numpy release or a code change that
#: moves a stream changes these.
PINNED_DIGESTS = {
    "all_to_all":
        "7b9943027b46ecda9585f526f686abcccd2778bcec7f4e252e50b239b13880bb",
    "hot_rack":
        "e33ed6c2efb75769cac6b708e2d792102703972ff4f42ce98b8f60a08039c7ed",
    "incast":
        "0372fccf513b2213ae17f07b4ab18c910351f106c7129000c07e1185c2322792",
    "job":
        "63ac73148ebb655f69d02ec5837acbfef8cf156699b54771b82f1ef021976a80",
    "permutation":
        "163895b1f99f90ab91f169b0c0d1e96692e5f71d9fafc9f101e4e12197bb71a3",
    "uniform":
        "13ae87e31f2e775d25066035a4f11544dab0be02b5aab19cab31a8440cd7d31e",
    "shuffle_job":
        "852657fa8d86cfef01160d33171a9f9677b4a0add681a72ea9cb1a6efebdf388",
    "incast_job":
        "d4bde5ec21f5d1319e8f7ddb6adf08d6b0b3eda1cc846576fc275c840f9c418b",
    "disseminate_job":
        "4f7f9613465f1d1633d99435c98c750b01b8c18b74762f5e4f0c6ad9d4773154",
}


class TestCrossProcessDeterminism:
    """The PCG64 raw streams must match across interpreters and installs."""

    def test_subprocess_reproduces_digests(self):
        patterns = sorted(MATRICES)
        local = {p: _digest(generate_matrix(p, 80, seed=42)) for p in patterns}
        local.update({k: _job_digest(job) for k, job in _job_draws().items()})
        script = (
            "import json\n"
            "from repro.traffic import generate_matrix\n"
            "import tests.test_traffic_matrix as t\n"
            "out = {p: t._digest(generate_matrix(p, 80, seed=42)) for p in %r}\n"
            "out.update({k: t._job_digest(j) for k, j in t._job_draws().items()})\n"
            "print(json.dumps(out))\n" % (patterns,)
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        import json

        assert json.loads(result.stdout) == local
        assert local == PINNED_DIGESTS

    def test_no_generator_method_is_called(self, monkeypatch):
        """Every pattern and job shape draws from raw words alone."""

        class NoGenerator:
            def __init__(self, *args, **kwargs):
                raise AssertionError("numpy.random.Generator used")

        monkeypatch.setattr(np.random, "Generator", NoGenerator)
        monkeypatch.setattr(np.random, "default_rng", NoGenerator)
        for pattern in sorted(MATRICES):
            assert generate_matrix(pattern, 80, seed=42).num_flows > 0
        assert all(job.flows for job in _job_draws().values())


class TestPermutation:
    def test_is_derangement_every_server(self):
        m = permutation_matrix(50, seed=7)
        assert np.array_equal(np.sort(m.src), np.arange(50))
        assert np.array_equal(np.sort(m.dst), np.arange(50))
        assert not np.any(m.src == m.dst)

    def test_two_servers(self):
        m = permutation_matrix(2, seed=0)
        assert sorted(zip(m.src.tolist(), m.dst.tolist())) == [(0, 1), (1, 0)]

    def test_many_seeds_always_derangements(self):
        for seed in range(40):
            m = permutation_matrix(13, seed=seed)
            assert not np.any(m.src == m.dst)
            assert np.array_equal(np.sort(m.dst), np.arange(13))
            assert _cycle_length(m.dst) == 13

    @settings(max_examples=25, deadline=None)
    @given(
        count=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_is_single_cycle(self, count, seed):
        """Ported from the stdlib permutation generator's derangement test."""
        servers = [f"n{i}" for i in range(count)]
        flows = permutation_matrix(count, seed=seed).flows(servers)
        assert len(flows) == count
        assert sorted(f.src for f in flows) == sorted(servers)
        assert sorted(f.dst for f in flows) == sorted(servers)
        assert all(f.src != f.dst for f in flows)
        assert _cycle_length(permutation_matrix(count, seed=seed).dst) == count

    def test_every_cycle_equally_likely(self):
        """n = 4 has 3! = 6 single cycles; 6,000 seeds hit each ~1,000 times."""
        counts = {}
        for seed in range(6000):
            key = tuple(permutation_matrix(4, seed=seed).dst.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        # each count is Binomial(6000, 1/6): sd ~29, so +-150 is > 5 sd
        assert all(abs(c - 1000) < 150 for c in counts.values())


class TestAllToAll:
    def test_full_square(self):
        m = all_to_all_matrix(7, seed=0)
        assert m.num_flows == 7 * 6
        pairs = set(zip(m.src.tolist(), m.dst.tolist()))
        assert len(pairs) == 42

    def test_subsample_unique_pairs(self):
        m = all_to_all_matrix(30, max_flows=100, seed=5)
        assert m.num_flows == 100
        pairs = set(zip(m.src.tolist(), m.dst.tolist()))
        assert len(pairs) == 100  # sampled without replacement

    def test_two_servers(self):
        m = all_to_all_matrix(2, seed=0)
        assert m.num_flows == 2


class TestIncast:
    def test_fan_in_larger_than_cluster_clamped(self):
        m = incast_matrix(10, fan_in=500, num_targets=1, seed=3)
        assert m.num_flows == 9  # clamped to num_servers - 1
        assert m.notes  # the clamp is recorded
        assert "clamp" in " ".join(m.notes)

    def test_senders_exclude_target(self):
        m = incast_matrix(64, fan_in=16, num_targets=4, seed=1)
        assert not np.any(m.src == m.dst)
        assert len(np.unique(m.dst)) == 4

    def test_two_servers(self):
        m = incast_matrix(2, fan_in=5, num_targets=1, seed=0)
        assert m.num_flows == 1


class TestHotRack:
    def test_single_rack_topology_falls_back(self):
        # rack_size >= num_servers: every server is "hot"
        m = hot_rack_matrix(8, num_flows=40, rack_size=8, num_hot_racks=1, seed=2)
        assert m.num_flows == 40
        assert not np.any(m.src == m.dst)
        assert any("single-rack" in note for note in m.notes)

    def test_hot_fraction_skews_destinations(self):
        m = hot_rack_matrix(
            200, num_flows=2000, rack_size=20, num_hot_racks=1, hot_fraction=0.9, seed=4
        )
        per_rack = np.bincount(m.dst // 20, minlength=10)
        assert per_rack.max() > 1500  # ~90% of 2000 into the one hot rack

    def test_two_servers(self):
        m = hot_rack_matrix(2, num_flows=6, rack_size=1, seed=0)
        assert m.num_flows == 6
        assert not np.any(m.src == m.dst)


class TestJob:
    def test_reuses_job_generators_deterministically(self):
        a = job_matrix(64, num_jobs=6, seed=11)
        b = job_matrix(64, num_jobs=6, seed=11)
        assert np.array_equal(a.src, b.src)
        assert a.num_flows > 0

    def test_scale_clamped_to_cluster(self):
        m = job_matrix(4, num_jobs=3, scale=64, seed=0)
        assert m.num_flows > 0
        assert any("clamp" in note for note in m.notes)


class TestBridges:
    def test_flows_bridge_carries_names(self):
        m = uniform_matrix(6, num_flows=10, seed=0)
        names = [f"srv{i}" for i in range(6)]
        flows = m.flows(names)
        assert len(flows) == 10
        assert all(f.src.startswith("srv") for f in flows)

    def test_flows_bridge_raw_ordinals(self):
        m = uniform_matrix(6, num_flows=10, seed=0)
        flows = m.flows()
        assert all(isinstance(f.src, int) for f in flows)

    def test_default_params_cover_all_patterns(self):
        for pattern in MATRICES:
            params = default_params(pattern, 1000)
            generate_matrix(pattern, 1000, seed=0, **params)
