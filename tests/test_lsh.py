import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import mmlsh
from mmlsh import bench
from mmlsh.buffering import MMLSH, NS1, BufferState, SchedulerConfig, build_frequency_profile
from mmlsh.errors import IndexFileError, ParameterError


def quadrature_collision_probability(s, w):
    """Independent oracle: integrate the collision event density directly.

    The projected gap a.(x-y) is N(0, s^2); two points share a bucket of
    width w with probability int_0^w f_|gap|(t) (1 - t/w) dt.
    """
    def integrand(t):
        return (2.0 / (s * math.sqrt(2 * math.pi))) * math.exp(-t * t / (2 * s * s)) * (1 - t / w)
    value, _err = quad(integrand, 0.0, w)
    return value


def reference_derive(delta, beta, c, w):
    """Pre-build calculator: same formulas, quadrature-based probabilities."""
    p1 = quadrature_collision_probability(1.0, w)
    p2 = quadrature_collision_probability(float(c), w)
    z = math.sqrt(math.log(2 / beta) / math.log(1 / delta))
    m = math.ceil(math.log(1 / delta) / (2 * (p1 - p2) ** 2) * (1 + z) ** 2)
    alpha = (z * p1 + p2) / (1 + z)
    return p1, p2, m, math.ceil(alpha * m)


class TestCollisionProbability:
    def test_limit_at_zero(self):
        assert mmlsh.collision_probability(0.0, 2.184) == 1.0
        assert mmlsh.collision_probability(1e-9, 2.184) == pytest.approx(1.0, abs=1e-6)

    def test_p1_greater_than_p2(self):
        assert mmlsh.collision_probability(1.0, 2.184) > mmlsh.collision_probability(2.0, 2.184)

    def test_strictly_decreasing(self):
        values = [mmlsh.collision_probability(s, 2.184) for s in np.linspace(0.1, 8.0, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_quadrature_oracle(self):
        for s in (0.5, 1.0, 2.0, 4.0):
            assert mmlsh.collision_probability(s, 2.184) == pytest.approx(
                quadrature_collision_probability(s, 2.184), abs=1e-6)


class TestDeriveParams:
    def test_ln_delta_component(self):
        assert math.log(1 / 0.1) == pytest.approx(2.302585, abs=1e-6)

    def test_m_increases_as_delta_decreases(self):
        ms = [mmlsh.derive_params(d, 0.0125, 2, 2.184).m for d in (0.3, 0.2, 0.1, 0.05)]
        assert all(b > a for a, b in zip(ms, ms[1:]))

    def test_matches_reference_calculator(self):
        p = mmlsh.derive_params(0.1, 0.0125, 2, 2.184)
        p1, p2, m, l = reference_derive(0.1, 0.0125, 2, 2.184)
        assert p.p1 == pytest.approx(p1, abs=1e-6)
        assert p.p2 == pytest.approx(p2, abs=1e-6)
        assert (p.m, p.l) == (m, l)

    def test_threshold_separates_populations(self):
        for delta, beta in ((0.1, 0.0125), (0.2, 0.1), (0.05, 0.01)):
            p = mmlsh.derive_params(delta, beta, 2, 2.184)
            assert p.l <= p.m
            assert p.p2 * p.m < p.l < p.p1 * p.m

    def test_degenerate_family_rejected(self):
        with pytest.raises(ParameterError):
            mmlsh.LshParams(c=2, w=1.0, delta=0.1, beta=0.1, p1=0.3, p2=0.5, z=1.0, m=10, l=5)


def scalar_hash(a, b, w, x) -> int:
    """Oracle: the base bucket floor((a.x + b) / w) of one point in one projection."""
    return math.floor((sum(float(ai) * float(xi) for ai, xi in zip(a, x)) + b) / w)


class TestHashPoint:
    """`hash_points` on one projection line (a 1-row `a`), point by point."""

    def test_arithmetic(self):
        got = mmlsh.hash_points([3.0, 9.9], np.array([[1.0, 0.0]]), np.array([0.5]), 2.184)
        assert got.tolist() == [math.floor(3.5 / 2.184)] == [1]

    def test_floor_toward_negative_infinity(self):
        assert mmlsh.hash_points([-0.1], np.array([[1.0]]), np.array([0.0]), 1.0).tolist() == [-1]

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 5)), rng.uniform(0, 2.184, size=3)
        points = rng.normal(size=(1000, 5))
        got = mmlsh.hash_points(points, a, b, 2.184)
        assert got.shape == (1000, 3)
        for x, row in zip(points, got.tolist()):
            assert row == [scalar_hash(a[g], b[g], 2.184, x) for g in range(3)]

    def test_translation_consistency(self):
        rng = np.random.default_rng(8)
        a, b, w = rng.normal(size=(1, 4)), np.array([0.7]), 2.184
        norm2 = float(np.dot(a[0], a[0]))
        for _ in range(50):
            x = rng.normal(size=4)
            frac = ((np.dot(a[0], x) + b[0]) / w) % 1.0
            if not 0.05 < frac < 0.95:
                continue  # keep clear of bucket boundaries
            shifted = x + w * a[0] / norm2
            assert mmlsh.hash_points(shifted, a, b, w) == mmlsh.hash_points(x, a, b, w) + 1


class TestBuildIndex:
    def test_single_point(self):
        ds = mmlsh.synth_dataset(S=1, points_per_object=1, d=4, cluster_spread=0.1, seed=0)
        params = mmlsh.derive_params(0.3, 0.5, 2, 2.184)
        params = mmlsh.LshParams(**{**params.__dict__, "m": 3, "l": 2})
        idx = mmlsh.build_index(ds, params, seed=0)
        assert idx.buckets.shape == (3, 1)

    def test_deterministic(self, small_dataset):
        params = mmlsh.derive_params(0.25, 0.5, 2, 2.184)
        a = mmlsh.build_index(small_dataset, params, seed=5)
        b = mmlsh.build_index(small_dataset, params, seed=5)
        assert np.array_equal(a.buckets, b.buckets)
        assert np.array_equal(a.point_rows, b.point_rows)
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)

    def test_rescan_oracle(self, small_dataset, small_index):
        idx = small_index
        coords = small_dataset.coords.astype(np.float64)
        for g in range(idx.m):
            for pos in range(idx.n):
                row = idx.point_rows[g, pos]
                assert idx.buckets[g, pos] == scalar_hash(idx.a[g], idx.b[g], idx.params.w,
                                                          coords[row])
            assert np.all(np.diff(idx.buckets[g]) >= 0)

    def test_each_point_once_per_projection(self, small_index):
        for g in range(small_index.m):
            assert sorted(small_index.point_rows[g]) == list(range(small_index.n))

    def test_empirical_collision_rate_near_p1(self):
        w = 2.184
        p1 = mmlsh.collision_probability(1.0, w)
        rng = np.random.default_rng(6)
        trials = 20_000
        d = 8
        x = rng.normal(size=(trials, d))
        direction = rng.normal(size=(trials, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        y = x + direction  # distance exactly 1
        # fresh projection per trial so trials are independent Bernoulli(p1)
        a = rng.normal(size=(trials, d))
        b = rng.uniform(0, w, size=trials)
        hx = np.floor((np.sum(x * a, axis=1) + b) / w)
        hy = np.floor((np.sum(y * a, axis=1) + b) / w)
        rate = float(np.mean(hx == hy))
        stderr = math.sqrt(p1 * (1 - p1) / trials)
        assert abs(rate - p1) <= 3 * stderr


class TestHashPoints:
    @pytest.fixture(scope="class")
    def far_point_setup(self):
        """Five one-point objects; the last has a coordinate at 3e19."""
        coords = [[0.0, 0.0], [0.5, 0.1], [-0.3, 0.8], [1.0, -1.0], [3e19, 0.0]]
        ds = mmlsh.Dataset(np.array(coords, dtype=np.float32), np.arange(5))
        params = mmlsh.derive_params(0.3, 0.5, 2, 2.184)
        return ds, mmlsh.build_index(ds, params, seed=1)

    def test_no_bucket_wraps_to_int64_min(self, far_point_setup):
        _ds, idx = far_point_setup
        assert not np.any(idx.buckets == np.iinfo(np.int64).min)
        assert np.all(np.abs(idx.buckets) <= 2 ** 62)

    def test_index_buckets_equal_hash_query(self, far_point_setup):
        ds, idx = far_point_setup
        for row in range(ds.n):
            want = [idx.buckets[g][idx.point_rows[g] == row][0] for g in range(idx.m)]
            assert idx.hash_query(ds.coords[row]).tolist() == want
        assert np.array_equal(idx.hash_query(ds.coords)[4], idx.hash_query(ds.coords[4]))

    def test_far_object_finds_itself(self, far_point_setup):
        ds, idx = far_point_setup
        gp = mmlsh.GammaParams(gamma=0.5, delta=0.3, beta=0.5, epsilon=0.6)
        res = mmlsh.knn_objects(mmlsh.QueryObject.from_object(ds, 4), 1, idx, ds, gp)
        assert res.object_ids == [4]


class TestOccupiedBuckets:
    def test_matches_nonzero_bucket_sizes(self, small_index):
        for g in range(small_index.m):
            lo, hi = int(small_index.bucket_lo[g]), int(small_index.bucket_hi[g])
            sizes = small_index.bucket_sizes(g, lo, hi + 1)
            ids, counts = small_index.occupied_buckets(g)
            assert ids.tolist() == [lo + i for i in np.flatnonzero(sizes)]
            assert counts.tolist() == sizes[sizes > 0].tolist()
            assert small_index.occupied_buckets(g)[0] is ids  # built once


class TestLevelCap:
    def test_c2_keeps_62_levels(self):
        assert mmlsh.level_cap(2) == 62

    @pytest.mark.parametrize("c", [2, 3, 4, 5, 7, 10, 1000])
    def test_widest_level_fits(self, c):
        levels = mmlsh.level_cap(c)
        assert c ** levels <= 2 ** 62 < c ** (levels + 1)


class TestPersistence:
    def test_roundtrip_identity(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        loaded = mmlsh.load_index(path)
        assert loaded.params == small_index.params
        assert loaded.seed == small_index.seed
        assert np.array_equal(loaded.a, small_index.a)
        assert np.array_equal(loaded.b, small_index.b)
        assert np.array_equal(loaded.buckets, small_index.buckets)
        assert np.array_equal(loaded.point_rows, small_index.point_rows)

    def test_truncated_file_fails_checksum(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(IndexFileError, match="checksum|short"):
            mmlsh.load_index(path)

    def test_bad_magic(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFileError):
            mmlsh.load_index(path)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), objects=st.integers(2, 8), points=st.integers(1, 6),
           d=st.integers(2, 6), spread=st.floats(0.05, 1.0))
    def test_reloaded_index_answers_and_charges_the_same(self, seed, objects, points, d,
                                                         spread):
        cfg = bench.RunConfig(synth_objects=objects, synth_points_per_object=points,
                              synth_dimension=d, synth_spread=spread, gamma=0.5, delta=0.25,
                              beta=0.5, epsilon=0.5, k=2, num_queries=3, seed=seed)
        ds = bench.load_dataset(cfg)
        params = mmlsh.derive_params(cfg.delta, cfg.resolved_beta(ds.num_objects), cfg.c, cfg.w)
        built = mmlsh.build_index(ds, params, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "idx.bin")
            mmlsh.save_index(built, path)
            loaded = mmlsh.load_index(path)
        queries = bench.choose_queries(ds, cfg)

        def run(index):
            results, plans, _walls = bench.record_query_plans(cfg, ds, index, queries)
            profile = build_frequency_profile(index, ds, num_queries=50, seed=seed)
            io = {}
            for strategy in (NS1, MMLSH):
                stats = [replace(r.stats) for r in results]
                bench.replay_plans(strategy, plans, index, BufferState(200), stats,
                                   SchedulerConfig(strategy=strategy, profile=profile))
                io[strategy] = [(s.buffer_hits, s.buffer_misses, s.evictions) for s in stats]
            answers = [(r.top_k, r.stop_condition, r.levels_used, r.stats.collision_increments)
                       for r in results]
            return answers, plans, io

        (answers, plans, io), (want_answers, want_plans, want_io) = run(loaded), run(built)
        assert answers == want_answers and io == want_io
        assert [[(g, R) for g, R, _ranges in plan] for plan in plans] == \
            [[(g, R) for g, R, _ranges in plan] for plan in want_plans]
        assert all(np.array_equal(a, b) for plan, want in zip(plans, want_plans)
                   for (_g, _R, a), (_wg, _wR, b) in zip(plan, want))

    def test_roundtrip_preserves_query_answers(self, tmp_path):
        ds = mmlsh.synth_dataset(S=100, points_per_object=100, d=8, cluster_spread=0.1, seed=9)
        assert ds.n == 10_000
        params = mmlsh.derive_params(0.3, 0.5, 2, 2.184)
        idx = mmlsh.build_index(ds, params, seed=1)
        path = tmp_path / "big.bin"
        mmlsh.save_index(idx, path)
        loaded = mmlsh.load_index(path)
        gp = mmlsh.GammaParams(gamma=0.5, delta=0.3, beta=0.5, epsilon=0.6)
        for oid in (0, 17, 42, 73, 99):
            q = mmlsh.QueryObject.from_object(ds, oid)
            before = mmlsh.knn_objects(q, 3, idx, ds, gp)
            after = mmlsh.knn_objects(q, 3, loaded, ds, gp)
            assert before.top_k == after.top_k
            assert before.stop_condition == after.stop_condition
