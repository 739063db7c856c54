import ast
import dataclasses
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmlsh
from mmlsh import bench, engine
from mmlsh.buffering import (MMLSH, NS1, NS2, BufferState, CostModel, QueryStats,
                             SchedulerConfig, build_frequency_profile)
from mmlsh.engine import (CollisionState, EXHAUSTED, T1, T2, GroupedLevel, check_t1, check_t2,
                          count_collisions)
from mmlsh.errors import ParameterError
from mmlsh.lsh import BUCKET_LIMIT, reach_range
from mmlsh.similarity import gamma_distances

from test_buffering import uniform_profile
from test_similarity import cdist_gamma_distance, lane_counts


def run_all_collisions(query, index, dataset, levels):
    """Drive count_collisions over every projection pass for levels 1, c, c^2, ..."""
    q_base = np.floor(
        (query.coords.astype(np.float64) @ index.a.T + index.b) / index.params.w
    ).astype(np.int64)
    state = CollisionState(q_base, index, dataset)
    c = index.params.c
    for i in range(levels):
        R = c ** i
        for g in range(index.m):
            count_collisions(state, range(g, g + 1), R)
    return state, q_base


def brute_matches(q_base, index, R):
    """Oracle: matches[g, qi, row] = whether qi and row share a level-R bucket in projection g."""
    matches = np.zeros((index.m, q_base.shape[0], index.n), dtype=bool)
    buckets = index.buckets  # expanded once per call
    for g in range(index.m):
        point_buckets = np.empty(index.n, dtype=np.int64)
        point_buckets[index.point_rows[g]] = buckets[g]
        matches[g] = (np.floor_divide(point_buckets, R)[None, :]
                      == np.floor_divide(q_base[:, g], R)[:, None])
    return matches


def brute_counts(q_base, index, R):
    """Oracle: counts[qi, row] = #projections with matching level-R buckets."""
    return brute_matches(q_base, index, R).sum(axis=0, dtype=np.int64)


def brute_pairs(counts, dataset, l):
    """Oracle: per object, the number of (query point, point) pairs with count >= l."""
    return [int(np.count_nonzero(counts[:, dataset.point_object_index == j] >= l))
            for j in range(dataset.num_objects)]


class TestCountCollisions:
    def test_level_one_matches_exact_bucket_membership(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 0)
        state, q_base = run_all_collisions(q, small_index, small_dataset, levels=1)
        assert np.array_equal(lane_counts(state), brute_counts(q_base, small_index, 1))

    def test_no_double_counting_across_levels(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 3)
        for levels in (2, 3, 4):
            state, q_base = run_all_collisions(q, small_index, small_dataset, levels)
            R = small_index.params.c ** (levels - 1)
            assert np.array_equal(lane_counts(state), brute_counts(q_base, small_index, R))

    def test_count_never_exceeds_m(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 7)
        state, q_base = run_all_collisions(q, small_index, small_dataset, levels=16)
        assert lane_counts(state).max() <= small_index.m
        # at huge R the count equals the number of projections whose level
        # bucket still matches, which is what the brute oracle computes
        assert np.array_equal(lane_counts(state), brute_counts(q_base, small_index, 2 ** 15))

    @pytest.mark.parametrize("query_object", [0, 5, 9])
    def test_a_counted_bucket_is_never_counted_again(self, small_dataset, small_index,
                                                     query_object):
        # per projection: level c, level c again, level 1 below it, level c once more
        q = mmlsh.QueryObject.from_object(small_dataset, query_object)
        q_base = small_index.hash_query(q.coords)
        state = CollisionState(q_base, small_index, small_dataset)
        c, l = small_index.params.c, small_index.params.l
        matches = brute_matches(q_base, small_index, c)
        for g in range(small_index.m):
            assert count_collisions(state, range(g, g + 1), c) == int(matches[g].sum())
            assert [count_collisions(state, range(g, g + 1), R) for R in (c, 1, c)] == [0, 0, 0]
        counts = brute_counts(q_base, small_index, c)
        assert np.array_equal(lane_counts(state), counts)
        assert state.qualifying_pairs.tolist() == brute_pairs(counts, small_dataset, l)

    def test_qualifying_pairs_match_counts(self, small_dataset, small_index):
        q = mmlsh.QueryObject.from_object(small_dataset, 5)
        state, _ = run_all_collisions(q, small_index, small_dataset, levels=3)
        l = small_index.params.l
        expected = np.zeros(small_dataset.num_objects, dtype=np.int64)
        for j in range(small_dataset.num_objects):
            rows = np.nonzero(small_dataset.point_object_index == j)[0]
            expected[j] = int(np.count_nonzero(lane_counts(state)[:, rows] >= l))
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

        assert lane_counts(state).max() <= index.m
        R = c ** (levels - 1)
        assert np.array_equal(lane_counts(state), brute_counts(q_base, index, R))
        l = index.params.l
        expected = [int(np.count_nonzero(lane_counts(state)[:, ds.point_object_index == j] >= l))
                    for j in range(ds.num_objects)]
        assert state.qualifying_pairs.tolist() == expected


def narrowest_lane(m, l):
    """The smallest lane width b whose lanes start a count at 2**(b-1) - l >= 0 and hold m counts."""
    return next(b for b in range(1, 65) if l <= 2 ** (b - 1) and m - l <= 2 ** (b - 1) - 1)


class TestPackedKernelProperties:
    """Counts, qualifying pairs and qualified rows after every pass, for any lane layout."""

    # (m, l) over the derived params; None keeps the derived value. b-bit lanes
    # hold l <= 2**(b-1) and m - l <= 2**(b-1) - 1: each width's edge is
    # followed by a shape one past it, which needs one more bit
    SHAPES = [(None, None), (None, 1), (1, 1), (2, 1), (3, 2),
              (48, 17), (63, 32), (64, 32), (33, 33),
              (128, 128), (255, 128), (129, 129), (256, 128), (200, 1), (160, 130)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), objects=st.integers(1, 5), points=st.integers(1, 4),
           d=st.integers(1, 3), q_size=st.integers(1, 20), distinct=st.integers(1, 20),
           shape=st.sampled_from(SHAPES), c=st.sampled_from([2, 3]), levels=st.integers(1, 4),
           drop=st.sets(st.integers(0, 19)), drop_level=st.integers(0, 4),
           spread=st.floats(0.05, 2.0))
    @example(seed=1, objects=3, points=3, d=2, q_size=9, distinct=4, shape=(None, None), c=2,
             levels=3, drop={3, 4}, drop_level=1, spread=0.5)
    @example(seed=2, objects=2, points=4, d=1, q_size=8, distinct=2, shape=(None, 1), c=2,
             levels=2, drop=set(), drop_level=0, spread=0.3)
    @example(seed=3, objects=4, points=2, d=2, q_size=7, distinct=3, shape=(200, 1), c=3,
             levels=2, drop={1, 5}, drop_level=1, spread=0.3)
    def test_every_pass_matches_brute_force(self, seed, objects, points, d, q_size, distinct,
                                            shape, c, levels, drop, drop_level, spread):
        ds = mmlsh.synth_dataset(objects, points, d, spread, seed)
        params = mmlsh.derive_params(0.3, 0.5, c=c)
        m, l = shape
        params = dataclasses.replace(params, m=m or params.m, l=l or params.l)
        index = mmlsh.build_index(ds, params, seed)
        m, l = params.m, params.l
        rng = np.random.default_rng(seed)
        # query points repeat a pool of dataset points and random ones
        pool = np.concatenate((ds.coords[rng.integers(0, ds.n, distinct)],
                               rng.normal(0.0, 1.5, size=(distinct, d)).astype(np.float32)))
        q_base = index.hash_query(pool[rng.integers(0, len(pool), q_size)])

        state = CollisionState(q_base, index, ds)
        assert state.lane_bits == narrowest_lane(m, l)
        assert state.lanes == 64 // state.lane_bits
        searching = np.ones(q_size, dtype=bool)
        counts = np.zeros((q_size, ds.n), dtype=np.int64)
        last = np.zeros((m, q_size, ds.n), dtype=bool)  # matches at the previous level
        for level in range(levels):
            if level == drop_level:  # the dropped points stop; their counts stay frozen
                searching[np.isin(np.arange(q_size), list(drop))] = False
                state.stop(~searching)
            R = c ** level
            now = brute_matches(q_base, index, R)
            for g in range(m):
                inc = count_collisions(state, range(g, g + 1), R)
                expected = np.where(searching[:, None],
                                    now[:g + 1].sum(axis=0) + last[g + 1:].sum(axis=0), counts)
                assert inc == int((expected - counts).sum())
                counts = expected
                assert np.array_equal(lane_counts(state), counts)
                pairs = brute_pairs(counts, ds, l)
                assert state.qualifying_pairs.tolist() == pairs
                for qi in range(q_size):
                    assert np.array_equal(state.qualified_rows(qi), np.flatnonzero(counts[qi] >= l))
            last = now


class TestBatchKernelProperties:
    """A range of projections counted in one call leaves the state its passes leave."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), objects=st.integers(1, 5), points=st.integers(1, 4),
           d=st.integers(1, 3), q_size=st.integers(1, 20), distinct=st.integers(1, 10),
           c=st.sampled_from([2, 3, 4]), levels=st.integers(1, 4),
           drop=st.sets(st.integers(0, 19)), drop_level=st.integers(0, 4),
           spread=st.floats(0.05, 2.0), data=st.data())
    def test_a_batch_equals_its_passes(self, seed, objects, points, d, q_size, distinct, c,
                                       levels, drop, drop_level, spread, data):
        ds = mmlsh.synth_dataset(objects, points, d, spread, seed)
        index = mmlsh.build_index(ds, mmlsh.derive_params(0.3, 0.5, c=c), seed)
        m, l = index.params.m, index.params.l
        rng = np.random.default_rng(seed)
        # query points repeat a pool of dataset points and random ones, so they share segments
        pool = np.concatenate((ds.coords[rng.integers(0, ds.n, distinct)],
                               rng.normal(0.0, 1.5, size=(distinct, d)).astype(np.float32)))
        q_base = index.hash_query(pool[rng.integers(0, len(pool), q_size)])
        batched, single = (CollisionState(q_base, index, ds) for _ in range(2))
        searching = np.ones(q_size, dtype=bool)
        counts = np.zeros((q_size, ds.n), dtype=np.int64)
        for level in range(levels):
            if level == drop_level:  # the dropped points stop; their counts stay frozen
                searching[np.isin(np.arange(q_size), list(drop))] = False
                batched.stop(~searching)
                single.stop(~searching)
            R = c ** level
            edges = [0, *sorted(data.draw(st.sets(st.integers(1, m - 1)), label="cuts")), m]
            got = sum(count_collisions(batched, range(a, b), R) for a, b in zip(edges, edges[1:]))
            want = sum(count_collisions(single, range(g, g + 1), R) for g in range(m))
            assert got == want
            for name in ("packed_counts", "qualifying_pairs", "cov_row_lo", "cov_row_hi"):
                assert np.array_equal(getattr(batched, name), getattr(single, name)), name
            # at the level's end the counts are the oracle's, frozen for stopped points
            counts = np.where(searching[:, None], brute_counts(q_base, index, R), counts)
            assert np.array_equal(lane_counts(batched), counts)
            pairs = brute_pairs(counts, ds, l)
            assert batched.qualifying_pairs.tolist() == pairs


def assert_same_state(state, want):
    """Equal counts, qualifying pairs and coverage."""
    for name in ("packed_counts", "qualifying_pairs", "cov_row_lo", "cov_row_hi"):
        assert np.array_equal(getattr(state, name), getattr(want, name)), name


class TestLevelMoves:
    """A grouped level moved to a prefix of its passes leaves what counting that prefix leaves."""

    def test_moving_within_a_level_equals_counting_its_prefix(self):
        went_back = []

        @settings(max_examples=100, deadline=None)
        @given(seed=st.integers(0, 2 ** 32 - 1), objects=st.integers(1, 5),
               points=st.integers(1, 4), d=st.integers(1, 3), q_size=st.integers(1, 20),
               distinct=st.integers(1, 10), c=st.sampled_from([2, 3, 4]),
               level=st.integers(0, 3), drop=st.sets(st.integers(0, 19)),
               spread=st.floats(0.05, 2.0), data=st.data())
        def check(seed, objects, points, d, q_size, distinct, c, level, drop, spread, data):
            ds = mmlsh.synth_dataset(objects, points, d, spread, seed)
            index = mmlsh.build_index(ds, mmlsh.derive_params(0.3, 0.5, c=c), seed)
            m, R = index.params.m, c ** level
            rng = np.random.default_rng(seed)
            pool = np.concatenate((ds.coords[rng.integers(0, ds.n, distinct)],
                                   rng.normal(0.0, 1.5, size=(distinct, d)).astype(np.float32)))
            q_base = index.hash_query(pool[rng.integers(0, len(pool), q_size)])

            def prepared():
                """The lower levels counted whole, then the dropped points stopped."""
                state = CollisionState(q_base, index, ds)
                for t in range(level):
                    count_collisions(state, range(m), c ** t)
                state.stop([qi for qi in sorted(drop) if qi < q_size])
                return state

            state = prepared()
            grouped = GroupedLevel(state, range(m), R)
            back = False
            prefixes = data.draw(st.lists(st.integers(0, m), min_size=2, max_size=5, unique=True),
                                 label="prefixes")
            for passes in prefixes + prefixes[::-1]:  # two distinct prefixes: one move goes back
                back |= passes < grouped.counted
                grouped.count_to(passes)
                want = prepared()
                increments = sum(count_collisions(want, range(g, g + 1), R) for g in range(passes))
                assert (grouped.counted, grouped.increments) == (passes, increments)
                assert_same_state(state, want)
                grouped.count_to(passes)  # to the current prefix: nothing changes
                assert (grouped.counted, grouped.increments) == (passes, increments)
                assert_same_state(state, want)
            went_back.append(back)

        check()
        assert sum(went_back) > 50, sum(went_back)


@pytest.mark.parametrize("bits", range(1, 12))
def test_full_lanes_leave_their_neighbours_untouched(bits):
    """Even lanes count to m with m - l at the width's limit; their odd neighbours stay at 0."""
    # the limit is l = 2**(b-1), m - l = 2**(b-1) - 1, so a full lane holds all
    # ones; MAX_PROJECTIONS caps m, so 11-bit lanes reach it with l = 1
    m, l = (2 ** bits - 1, 2 ** (bits - 1)) if bits < 11 else (1024, 1)
    ds = mmlsh.Dataset(np.array([[0.0]] * 3 + [[1e9]] * 2), [0, 0, 0, 1, 1])
    params = dataclasses.replace(mmlsh.derive_params(0.3, 0.5), m=m, l=l)
    index = mmlsh.build_index(ds, params, seed=bits)
    q_count = 2 * (64 // bits) + 1  # two full planes and one lane of a third
    q_base = index.hash_query(np.where(np.arange(q_count) % 2, -1e9, 0.0)[:, None])
    state = CollisionState(q_base, index, ds)
    assert (state.lane_bits, state.lanes) == (bits, 64 // bits)
    fresh = state.packed_counts.copy()
    for g in range(m):
        count_collisions(state, range(g, g + 1), 1)
    counts = brute_counts(q_base, index, 1)
    assert (counts[::2, :3] == m).all() and not counts[1::2].any()
    assert np.array_equal(lane_counts(state), counts)
    # no bit outside the query points' lanes changed: no carry, no write past the last lane
    owned = [(1 << min(state.lanes, q_count - p * state.lanes) * bits) - 1
             for p in range(len(fresh))]
    outside = np.array([~mask % 2 ** 64 for mask in owned], dtype=np.uint64)[:, None]
    assert not ((state.packed_counts ^ fresh) & outside).any()
    for j in range(q_count):
        assert np.array_equal(state.qualified_rows(j), np.flatnonzero(counts[j] >= l))
    # every point at the data, the odd ones stopped: the stopped lanes stay
    # untouched while their neighbours count to m, word for word as above
    stopped = CollisionState(index.hash_query(np.zeros((q_count, 1))), index, ds)
    stopped.stop(np.arange(1, q_count, 2))
    for g in range(m):
        count_collisions(stopped, range(g, g + 1), 1)
    assert np.array_equal(stopped.packed_counts, state.packed_counts)


def test_only_the_engine_reads_the_packed_counts():
    """The packed count layout stays behind CollisionState: no other module names its array."""
    package = Path(mmlsh.__file__).parent
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py")) if path.name != "engine.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "packed_counts"]
    assert reads == []


def test_only_the_engine_writes_the_coverage():
    """Coverage grows only inside the engine: no other module assigns to cov_row_lo/hi."""
    package = Path(mmlsh.__file__).parent
    writes = []
    for path in sorted(package.glob("*.py")):
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            for target in targets:
                while isinstance(target, ast.Subscript):
                    target = target.value
                if (isinstance(target, ast.Attribute)
                        and target.attr in ("cov_row_lo", "cov_row_hi")):
                    writes.append(f"{path.name}:{node.lineno}")
    assert writes == []


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
        [ranking] = mmlsh.point_knn_c2lsh(q.coords, index, ds, 3)
        assert len(ranking) <= 3


class TestLevelRows:
    """The level bounds a CollisionState looks up once equal a `range_rows` call per level."""

    @staticmethod
    def assert_table_is_range_rows(state, index):
        c = index.params.c
        for t in range(mmlsh.level_cap(c)):
            R = c ** t
            starts, stops = state.level_rows(R)
            lo = np.floor_divide(state.q_base, R) * R
            for g in range(index.m):
                _, want_starts, want_stops = index.range_rows(g, lo[:, g], lo[:, g] + R)
                assert np.array_equal(starts[:, g], want_starts), (t, g)
                assert np.array_equal(stops[:, g], want_stops), (t, g)

    @staticmethod
    def assert_row_coverage_is_range_rows(state, index, stopped, R):
        """A stopped point covers rows [0, n); another the rows of its level-R bucket.

        R = 0 stands for the empty start [qb, qb).
        """
        start = np.floor_divide(state.q_base, R) * R if R else state.q_base
        for g in range(index.m):
            _, lo, hi = index.range_rows(g, start[:, g], start[:, g] + R)
            want_lo = np.where(stopped, 0, lo)
            want_hi = np.where(stopped, index.n, hi)
            assert np.array_equal(state.cov_row_lo[:, g], want_lo), g
            assert np.array_equal(state.cov_row_hi[:, g], want_hi), g

    def check(self, index, ds, q_base, stopped):
        state = CollisionState(q_base, index, ds)
        state.stop(stopped)
        self.assert_table_is_range_rows(state, index)
        self.assert_row_coverage_is_range_rows(state, index, stopped, 0)
        for t in range(3):
            count_collisions(state, range(index.m), index.params.c ** t)
            self.assert_row_coverage_is_range_rows(state, index, stopped, index.params.c ** t)
        return state

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_levels_past_the_table_read_its_last_row(self, c):
        ds = mmlsh.synth_dataset(S=12, points_per_object=5, d=3, cluster_spread=0.3, seed=c)
        index = mmlsh.build_index(ds, mmlsh.derive_params(0.3, 0.5, c=c), seed=c)
        q_base = index.hash_query(np.concatenate((ds.coords[::7], -ds.coords[:3] * 4)))
        stopped = np.arange(len(q_base)) % 3 == 1
        state = self.check(index, ds, q_base, stopped)
        # the table stops where c**t exceeds every query and occupied bucket
        span = max(np.abs(q_base).max(), np.abs(index.bucket_lo).max(),
                   np.abs(index.bucket_hi).max())
        levels = state._level_rows.shape[1]
        assert c ** (levels - 2) <= span < c ** (levels - 1) and levels < mmlsh.level_cap(c)

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_query_buckets_at_the_bucket_limit(self, c):
        ds = mmlsh.synth_dataset(S=8, points_per_object=4, d=2, cluster_spread=0.3, seed=11)
        index = mmlsh.build_index(ds, mmlsh.derive_params(0.3, 0.5, c=c), seed=11)
        rng = np.random.default_rng(c)
        near = index.hash_query(ds.coords[:4])
        edges = np.array([BUCKET_LIMIT, -BUCKET_LIMIT, BUCKET_LIMIT - 1, -BUCKET_LIMIT + 1, 0, -1])
        q_base = np.concatenate((near, rng.choice(edges, size=(6, index.m))))
        stopped = np.isin(np.arange(len(q_base)), [1, 5])
        state = self.check(index, ds, q_base, stopped)
        assert state._level_rows.shape[1] == mmlsh.level_cap(c)  # no level's bounds repeat

    def test_far_data(self):
        """A dataset coordinate at 1e9, as in the CLI's far-coordinate test."""
        synth = mmlsh.synth_dataset(S=20, points_per_object=8, d=6, cluster_spread=0.15, seed=1)
        coords = synth.coords.copy()
        coords[0, 0] = 1e9
        ds = mmlsh.Dataset(coords, synth.object_ids[synth.point_object_index])
        index = mmlsh.build_index(ds, mmlsh.derive_params(0.25, 0.5), seed=1)
        assert int(index.bucket_hi.max() - index.bucket_lo.min()) > 10 ** 7
        q_base = index.hash_query(ds.object_coords(int(synth.object_ids[0])))
        self.check(index, ds, q_base, np.arange(len(q_base)) == 2)

    @pytest.mark.parametrize("c, R", [(2, 0), (2, -2), (2, 3), (2, 6), (3, 2), (3, 10),
                                      (4, 2), (2, 2 ** 62), (3, 3 ** 39)])
    def test_a_width_that_is_no_level_is_refused(self, c, R):
        ds = mmlsh.synth_dataset(S=4, points_per_object=3, d=2, cluster_spread=0.3, seed=2)
        index = mmlsh.build_index(ds, mmlsh.derive_params(0.3, 0.5, c=c), seed=2)
        state = CollisionState(index.hash_query(ds.coords[:3]), index, ds)
        fresh = state.packed_counts.copy()
        with pytest.raises(ParameterError, match="level width"):
            count_collisions(state, range(index.m), R)
        assert np.array_equal(state.packed_counts, fresh)
        count_collisions(state, range(index.m), c ** (mmlsh.level_cap(c) - 1))  # the last level


class TestExhaustionByCoverage:
    """A search stops EXHAUSTED when its counted levels hold all that its points can reach."""

    GP = mmlsh.GammaParams(gamma=0.5, delta=0.25, beta=0.5, epsilon=0.5)

    def test_a_query_that_reaches_nothing_counts_nothing(self):
        # the data lie left of bucket 0 in every projection and the query right of it
        ds = mmlsh.Dataset(np.array([[-1000.0], [-1000.5], [-1001.0], [-999.5]]), [0, 0, 1, 1])
        index = mmlsh.build_index(ds, mmlsh.derive_params(0.3, 0.5), seed=1)
        q = mmlsh.QueryObject(object_id=0, coords=np.array([[1000.0]], np.float32))
        lo, hi = reach_range(index, index.hash_query(q.coords))
        assert (lo >= hi).all()
        plan = []
        res = mmlsh.knn_objects(q, 1, index, ds, self.GP, plan=plan)
        assert (res.stop_condition, res.levels_used, res.top_k, plan) == (EXHAUSTED, 0, [], [])
        plan = []
        assert mmlsh.point_knn_c2lsh(q.coords, index, ds, 3, plan=plan) == [[]] and plan == []

    def test_the_first_level_counts_the_own_bucket(self):
        # every point is the query, so level R = 1 covers all it reaches; k > S
        # lets neither T1 nor T2 hold, so the search stops after that level
        ds = mmlsh.Dataset(np.full((4, 3), 0.7), [0, 0, 1, 1])
        index = mmlsh.build_index(ds, mmlsh.derive_params(0.3, 0.5), seed=1)
        m = index.m
        q = mmlsh.QueryObject(object_id=0, coords=np.full((1, 3), 0.7, np.float32))
        plan = []
        res = mmlsh.knn_objects(q, 5, index, ds, self.GP, plan=plan)
        assert (res.stop_condition, res.levels_used) == (EXHAUSTED, 1)
        assert [(g, R) for g, R, _ in plan] == [(g, 1) for g in range(m)]
        assert res.stats.collision_increments == 4 * m == 180
        assert res.object_ids == [0, 1]
        plan = []
        [ranking] = mmlsh.point_knn_c2lsh(q.coords, index, ds, 10, plan=plan)
        assert [row for row, _ in ranking] == [0, 1, 2, 3]
        assert [(g, R) for g, R, _ in plan] == [(g, 1) for g in range(m)]


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
            assert res.stop_condition in (T1, T2)

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


def reference_knn_objects(query, k, index, dataset, gparams, plan):
    """`knn_objects` counting one projection pass per call and checking T1 after every pass.

    It keeps its own coverage in bucket ids, the union [cov_lo, cov_hi) of
    the level intervals counted per (query point, projection), and reads its
    exhaustion check and its plan from it. Returns the result and the pass
    of its level after which T1 held, or None.
    """
    c, m, S = index.params.c, index.params.m, dataset.num_objects
    q_base = index.hash_query(query.coords)
    state = CollisionState(q_base, index, dataset)
    stats, points = QueryStats(), np.arange(len(query.coords))
    cov_lo, cov_hi = q_base.copy(), q_base.copy()  # empty, at each point's own bucket
    reach_lo, reach_hi = reach_range(index, q_base)

    def result(stop, levels, t1_pass=None):
        ranks = np.flatnonzero(state.candidate_mask(gparams))
        dists = gamma_distances(query.coords, dataset, ranks, gparams.gamma)
        top = np.argsort(dists, kind="stable")[:k]
        top_k = list(zip(dataset.object_ids[ranks[top]].tolist(), dists[top].tolist()))
        return (top_k, stop, levels, stats), t1_pass

    R, levels = 1, 0
    while True:
        ranks = np.flatnonzero(state.candidate_mask(gparams))
        if ranks.size >= k and check_t2(gamma_distances(query.coords, dataset, ranks,
                                                        gparams.gamma), k, c * R):
            return result(T2, levels)
        covered = (reach_lo >= reach_hi) | ((cov_lo <= reach_lo) & (cov_hi >= reach_hi))
        if np.all(covered) or levels >= mmlsh.level_cap(c):
            return result(T2 if ranks.size >= k else EXHAUSTED, levels)
        for g in range(m):
            inc = count_collisions(state, range(g, g + 1), R)
            stats.collision_increments += inc
            stats.alg_ops += inc
            lo = np.floor_divide(q_base[:, g], R) * R
            cov_lo[:, g] = np.minimum(cov_lo[:, g], lo)
            cov_hi[:, g] = np.maximum(cov_hi[:, g], lo + R)
            plan.append((g, R, np.stack((points, cov_lo[:, g], cov_hi[:, g]), 1)))
            candidates = int(np.count_nonzero(state.candidate_mask(gparams)))
            if check_t1(candidates, k, gparams.beta, S):
                return result(T1, levels + 1, g)
        levels += 1
        R *= c


class TestT1Bisection:
    """The whole-level count and its bisection stop where a check after every pass stops."""

    def test_t1_stops_at_the_same_pass(self):
        where = Counter()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            c = (2, 3, 4)[seed % 3]
            ds = mmlsh.synth_dataset(int(rng.integers(5, 30)), int(rng.integers(2, 8)),
                                     int(rng.integers(2, 6)), float(rng.uniform(0.05, 1.0)), seed)
            params = mmlsh.derive_params(0.3, 0.5, c=c)
            # a low l lets T1 hold on a level's first pass
            params = dataclasses.replace(params, l=int(rng.integers(1, params.l + 1)))
            index = mmlsh.build_index(ds, params, seed)
            gp = mmlsh.GammaParams(gamma=float(rng.choice([0.2, 0.5, 0.9])), delta=0.1,
                                   beta=float(rng.choice([0.05, 0.2, 0.5])), epsilon=0.5)
            q = mmlsh.QueryObject.from_object(ds, int(rng.choice(ds.object_ids)))
            k = int(rng.integers(1, 5))
            plan, want_plan = [], []
            res = mmlsh.knn_objects(q, k, index, ds, gp, plan=plan)
            want, t1_pass = reference_knn_objects(q, k, index, ds, gp, want_plan)
            assert (res.top_k, res.stop_condition, res.levels_used, res.stats) == want
            assert [(g, R) for g, R, _ in plan] == [(g, R) for g, R, _ in want_plan]
            for (_, _, got), (_, _, ranges) in zip(plan, want_plan):
                assert got.dtype == np.int64 and np.array_equal(got, ranges)
            if t1_pass is not None:
                where["first" if t1_pass == 0 else "last" if t1_pass == index.m - 1
                      else "middle"] += 1
        assert all(where[kind] >= 3 for kind in ("first", "middle", "last")), where


def test_a_t1_level_takes_at_most_log2_m_plus_2_moves(monkeypatch):
    """Every T1 level of `TestT1Bisection`'s searches: the whole level and its bisection."""
    moves = []
    count_to, first_pass = GroupedLevel.count_to, engine.first_pass_that_holds

    def counting_count_to(level, passes):
        level.moves = getattr(level, "moves", 0) + (passes != level.counted)
        count_to(level, passes)

    def recording_first_pass(level, *args):
        m = level.counted
        first_pass(level, *args)
        moves.append((m, level.moves))

    monkeypatch.setattr(GroupedLevel, "count_to", counting_count_to)
    monkeypatch.setattr(engine, "first_pass_that_holds", recording_first_pass)
    TestT1Bisection().test_t1_stops_at_the_same_pass()
    assert len(moves) >= 9 and max(n for _, n in moves) >= 5, moves
    assert all(n <= math.ceil(math.log2(m)) + 2 for m, n in moves), moves


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
            assert dist == cdist_gamma_distance(q.coords, ds.object_coords(oid), gamma)
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
