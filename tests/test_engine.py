import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmlsh
from mmlsh import bench
from mmlsh.buffering import (MMLSH, NS1, NS2, BufferState, CostModel, SchedulerConfig,
                             build_frequency_profile)
from mmlsh.engine import (CollisionState, EXHAUSTED, T1, T2, check_t1, check_t2,
                          count_collisions)
from mmlsh.errors import ParameterError

from test_buffering import uniform_profile


def run_all_collisions(query, index, dataset, levels):
    """Drive count_collisions over every projection pass for levels 1, c, c^2, ..."""
    state = CollisionState(len(query.coords), index, dataset)
    q_base = np.floor(
        (query.coords.astype(np.float64) @ index.a.T + index.b) / index.params.w
    ).astype(np.int64)
    c = index.params.c
    for i in range(levels):
        R = c ** i
        for g in range(index.m):
            count_collisions(q_base[:, g], g, R, index, dataset, state)
    return state, q_base


def brute_counts(q_base, index, R):
    """Oracle: counts[qi, row] = #projections with matching level-R buckets."""
    n, m = index.n, index.m
    counts = np.zeros((q_base.shape[0], n), dtype=np.int64)
    for g in range(m):
        point_buckets = np.empty(n, dtype=np.int64)
        point_buckets[index.point_rows[g]] = index.buckets[g]
        for qi in range(q_base.shape[0]):
            counts[qi] += (np.floor_divide(point_buckets, R)
                           == np.floor_divide(q_base[qi, g], R))
    return counts


class TestCountCollisions:
    def test_level_one_matches_exact_bucket_membership(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 0)
        state, q_base = run_all_collisions(q, small_index, small_dataset, levels=1)
        assert np.array_equal(state.counts, brute_counts(q_base, small_index, 1))

    def test_no_double_counting_across_levels(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 3)
        for levels in (2, 3, 4):
            state, q_base = run_all_collisions(q, small_index, small_dataset, levels)
            R = small_index.params.c ** (levels - 1)
            assert np.array_equal(state.counts, brute_counts(q_base, small_index, R))

    def test_count_never_exceeds_m(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 7)
        state, q_base = run_all_collisions(q, small_index, small_dataset, levels=16)
        assert state.counts.max() <= small_index.m
        # at huge R the count equals the number of projections whose level
        # bucket still matches, which is what the brute oracle computes
        assert np.array_equal(state.counts, brute_counts(q_base, small_index, 2 ** 15))

    def test_qualifying_pairs_match_counts(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 5)
        state, _ = run_all_collisions(q, small_index, small_dataset, levels=3)
        l = small_index.params.l
        expected = np.zeros(small_dataset.num_objects, dtype=np.int64)
        for j in range(small_dataset.num_objects):
            rows = np.nonzero(small_dataset.point_object_index == j)[0]
            expected[j] = int(np.count_nonzero(state.counts[:, rows] >= l))
        assert np.array_equal(state.qualifying_pairs, expected)


class TestPassKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), objects=st.integers(1, 6),
           points=st.integers(1, 5), d=st.integers(1, 4), q_size=st.integers(1, 4),
           c=st.sampled_from([2, 3]), levels=st.integers(1, 10),
           spread=st.floats(0.05, 3.0))
    def test_counts_match_brute_force(self, seed, objects, points, d, q_size, c,
                                      levels, spread):
        ds = mmlsh.synth_dataset(objects, points, d, spread, seed)
        index = mmlsh.build_index(ds, mmlsh.derive_params(0.3, 0.5, c=c), seed)
        rng = np.random.default_rng(seed)
        coords = rng.normal(0.0, 1.5, size=(q_size, d)).astype(np.float32)
        q = mmlsh.QueryObject(object_id=-1, coords=coords)
        state, q_base = run_all_collisions(q, index, ds, levels)

        assert state.counts.dtype == np.min_scalar_type(index.m)
        assert state.counts.max() <= index.m
        R = c ** (levels - 1)
        assert np.array_equal(state.counts, brute_counts(q_base, index, R))
        l = index.params.l
        expected = [int(np.count_nonzero(state.counts[:, ds.point_object_index == j] >= l))
                    for j in range(ds.num_objects)]
        assert state.qualifying_pairs.tolist() == expected


class TestLevelCap:
    @pytest.mark.parametrize("c", [2, 3])
    def test_far_query_stops_at_the_cap(self, c):
        # a query whose buckets lie near the int64 limit never reaches the
        # data, so the search runs every level the cap allows
        ds = mmlsh.synth_dataset(S=10, points_per_object=4, d=1, cluster_spread=0.1, seed=5)
        index = mmlsh.build_index(ds, mmlsh.derive_params(0.3, 0.5, c=c), seed=5)
        x = 6e18 * index.params.w / float(np.abs(index.a).max())
        q = mmlsh.QueryObject(object_id=0, coords=np.array([[x]], np.float32))
        gp = mmlsh.GammaParams(gamma=0.5, delta=0.25, beta=0.5, epsilon=0.5)
        res = mmlsh.knn_objects(q, 1, index, ds, gp)
        assert (res.stop_condition, res.levels_used) == (EXHAUSTED, mmlsh.level_cap(c))
        ranking, _complete = mmlsh.point_knn_c2lsh(q.coords[0], index, ds, 3)
        assert len(ranking) <= 3


class TestStoppingConditions:
    def test_t1_boundary(self):
        # k=1, beta*S = 0.025*1000 = 25: 26 candidates stop, 25 do not
        assert check_t1(26, k=1, beta=0.025, S=1000)
        assert not check_t1(25, k=1, beta=0.025, S=1000)

    def test_t2_counts_verified_candidates(self):
        assert check_t2([1.0, 2.0, 5.0], k=2, c_radius=2.0)
        assert not check_t2([1.0, 2.0, 5.0], k=3, c_radius=2.0)
        assert check_t2([2.0], k=1, c_radius=2.0)  # boundary inclusive


class TestGammaMinBound:
    def test_worked_example(self):
        got = mmlsh.gamma_min_bound(100, 100, delta=0.1, epsilon=0.2, beta=0.1)
        assert got == pytest.approx(0.2448, abs=5e-4)

    def test_shrinks_with_more_pairs(self):
        values = [mmlsh.gamma_min_bound(q, 100, 0.1, 0.2, 0.1) for q in (10, 50, 100, 500)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("delta, epsilon, beta", [(1e-300, 2e-300, 0.5),
                                                      (0.1, 0.2, 1e-300)])
    def test_a_tiny_gap_or_beta_gives_an_infinite_bound(self, delta, epsilon, beta):
        # (epsilon - delta)**2 and beta**2 round to 0 here
        assert mmlsh.gamma_min_bound(20, 20, delta, epsilon, beta) == math.inf

    def test_an_infinite_bound_sets_the_warning(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 0)
        gp = mmlsh.GammaParams(gamma=1.0, delta=1e-300, beta=0.5)
        with pytest.warns(UserWarning, match="guarantee bound inf"):
            res = mmlsh.knn_objects(q, 1, small_index, small_dataset, gp)
        assert res.bound_warning and res.gamma_min_bound == math.inf

    def test_epsilon_must_exceed_delta(self):
        with pytest.raises(ParameterError, match="epsilon"):
            mmlsh.gamma_min_bound(100, 100, delta=0.2, epsilon=0.2, beta=0.1)

    def test_bound_warning_flag(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 0)
        gp = mmlsh.GammaParams(gamma=0.05, delta=0.25, beta=0.5, epsilon=0.5)
        with pytest.warns(UserWarning, match="guarantee bound"):
            res = mmlsh.knn_objects(q, 1, small_index, small_dataset, gp)
        assert res.bound_warning


class TestKnnObjects:
    GP = mmlsh.GammaParams(gamma=0.5, delta=0.25, beta=0.5, epsilon=0.5)

    def test_self_query_is_own_nearest(self, small_dataset, small_index):
        for oid in (0, 6, 13):
            q = mmlsh.QueryObject.from_object(small_dataset, oid)
            res = mmlsh.knn_objects(q, 1, small_index, small_dataset, self.GP)
            assert res.object_ids == [oid]
            assert res.complete

    def test_matches_exact_ranking(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 2)
        res = mmlsh.knn_objects(q, 3, small_index, small_dataset, self.GP)
        truth = mmlsh.exact_knn_objects(q, small_dataset, 3, self.GP.gamma)
        ratio, flagged = mmlsh.object_ratio(
            [d for _, d in res.top_k], [d for _, d in truth])
        assert not flagged
        assert ratio <= small_index.params.c

    def test_stop_condition_is_reported(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 2)
        res = mmlsh.knn_objects(q, 3, small_index, small_dataset, self.GP)
        assert res.stop_condition in (T1, T2)
        assert res.levels_used >= 0

    def test_partial_result_flagged_when_k_exceeds_objects(self):
        ds = mmlsh.synth_dataset(S=3, points_per_object=4, d=4, cluster_spread=0.1, seed=2)
        params = mmlsh.derive_params(0.3, 0.5, 2, 2.184)
        idx = mmlsh.build_index(ds, params, seed=2)
        q = mmlsh.QueryObject.from_object(ds, 0)
        res = mmlsh.knn_objects(q, 5, idx, ds, self.GP)
        assert res.stop_condition == EXHAUSTED
        assert not res.complete
        assert len(res.top_k) < 5

    def test_deterministic(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 9)
        a = mmlsh.knn_objects(q, 3, small_index, small_dataset, self.GP)
        b = mmlsh.knn_objects(q, 3, small_index, small_dataset, self.GP)
        assert a.top_k == b.top_k
        assert a.stats.collision_increments == b.stats.collision_increments

    def test_invalid_k(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 0)
        with pytest.raises(ParameterError):
            mmlsh.knn_objects(q, 0, small_index, small_dataset, self.GP)

    def test_dimension_mismatch(self, small_dataset, small_index):
        q = mmlsh.QueryObject(object_id=0, coords=np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="dimension"):
            mmlsh.knn_objects(q, 1, small_index, small_dataset, self.GP)


class TestVerificationProperties:
    """The top-k is ordered by (distance, object id), each distance an exact `gamma_distance`."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), objects=st.integers(1, 5), copies=st.integers(1, 3),
           points=st.integers(1, 4), d=st.integers(1, 4), k=st.integers(1, 10),
           gamma=st.sampled_from([0.2, 0.5, 1.0]), spread=st.floats(0.05, 1.0))
    def test_ties_break_by_id_and_distances_are_exact(self, seed, objects, copies, points, d,
                                                      k, gamma, spread):
        # every object `copies` times under distinct, shuffled ids: copies tie exactly
        base = mmlsh.synth_dataset(objects, points, d, spread, seed)
        rng = np.random.default_rng(seed)
        ids = 3 * rng.permutation(objects * copies) + 7
        copy_of = np.repeat(np.arange(copies), base.n)
        owners = ids[copy_of * objects + np.tile(base.point_object_index, copies)]
        # ids[j::objects] are the copies of base object j
        ds = mmlsh.Dataset(np.tile(base.coords, (copies, 1)), owners)
        index = mmlsh.build_index(ds, mmlsh.derive_params(0.3, 0.5, c=2), seed)
        q = mmlsh.QueryObject.from_object(ds, int(rng.choice(ds.object_ids)))
        gp = mmlsh.GammaParams(gamma=gamma, delta=0.25, beta=0.5, epsilon=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # gamma below the guarantee bound
            res = mmlsh.knn_objects(q, k, index, ds, gp)

        assert res.top_k == sorted(res.top_k, key=lambda t: (t[1], t[0]))
        for oid, dist in res.top_k:
            assert dist == mmlsh.gamma_distance(q.coords, ds.object_coords(oid), gamma)
        # a copy collides and measures as its original does, so it is a
        # candidate too: every copy with a lower id must precede it
        returned = set(res.object_ids)
        for oid in returned:
            j = int(np.flatnonzero(ids == oid)[0]) % objects
            assert {t for t in ids[j::objects].tolist() if t < oid} <= returned


class TestStrategyNeutrality:
    def test_answer_independent_of_scheduling(self, small_dataset, small_index):
        gp = mmlsh.GammaParams(gamma=0.5, delta=0.25, beta=0.5, epsilon=0.5)
        q = mmlsh.QueryObject.from_object(small_dataset, 4)
        baseline = mmlsh.knn_objects(q, 3, small_index, small_dataset, gp)
        for strategy in (NS1, NS2, MMLSH):
            buf = BufferState(capacity_bytes=10_000, cost=CostModel())
            sched = SchedulerConfig(strategy=strategy, profile=uniform_profile(small_index.m))
            plan = []
            res = mmlsh.knn_objects(q, 3, small_index, small_dataset, gp, plan=plan)
            bench.replay_plans(strategy, [plan], small_index, buf, [res.stats], sched)
            assert res.top_k == baseline.top_k
            assert res.stop_condition == baseline.stop_condition
            assert res.levels_used == baseline.levels_used
            assert res.stats.collision_increments == baseline.stats.collision_increments

    def test_io_stats_only_with_scheduler(self, small_dataset, small_index):
        gp = mmlsh.GammaParams(gamma=0.5, delta=0.25, beta=0.5, epsilon=0.5)
        q = mmlsh.QueryObject.from_object(small_dataset, 4)
        plan = []
        costed = mmlsh.knn_objects(q, 3, small_index, small_dataset, gp, plan=plan)
        assert costed.stats.io_ms == 0.0
        buf = BufferState(capacity_bytes=10_000, cost=CostModel())
        bench.replay_plans(NS1, [plan], small_index, buf, [costed.stats],
                           SchedulerConfig(strategy=NS1))
        assert costed.stats.io_ms > 0.0
        assert costed.stats.buffer_misses > 0


class TestReplayProperties:
    """Replay bills every access once and leaves answers and counts alone."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), objects=st.integers(2, 8), points=st.integers(1, 6),
           d=st.integers(2, 6), spread=st.floats(0.05, 1.0))
    def test_records_sum_to_the_buffer_and_answers_do_not_move(self, seed, objects, points,
                                                               d, spread):
        cfg = bench.RunConfig(synth_objects=objects, synth_points_per_object=points,
                              synth_dimension=d, synth_spread=spread, gamma=0.5, delta=0.25,
                              beta=0.5, epsilon=0.5, k=2, num_queries=3, seed=seed)
        ds = bench.load_dataset(cfg)
        params = mmlsh.derive_params(cfg.delta, cfg.resolved_beta(ds.num_objects), cfg.c, cfg.w)
        index = mmlsh.build_index(ds, params, seed=seed)
        profile = build_frequency_profile(index, ds, num_queries=50, seed=seed)
        queries = bench.choose_queries(ds, cfg)
        reference = None
        for strategy in (NS1, NS2, MMLSH):
            for capacity in (200, 20_000):
                for splits in (1, 3, 10):
                    results, plans, _walls = bench.record_query_plans(cfg, ds, index, queries)
                    stats = [r.stats for r in results]
                    buf = BufferState(capacity)
                    bench.replay_plans(strategy, plans, index, buf, stats,
                                       SchedulerConfig(strategy=strategy, query_splits=splits,
                                                       profile=profile))
                    answers = [(r.top_k, r.stop_condition, r.levels_used,
                                r.stats.collision_increments) for r in results]
                    reference = reference or answers
                    assert answers == reference
                    io = buf.io_stats
                    for name in ("buffer_hits", "buffer_misses", "bytes_read", "evictions"):
                        assert sum(getattr(s, name) for s in stats) == getattr(io, name)
                    assert sum(s.io_ms for s in stats) == pytest.approx(io.io_ms, rel=1e-12)
