import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import mmlsh
from mmlsh import bench
from mmlsh.baselines import (BordaConfig, borda_aggregate, exact_knn_objects,
                             full_ranking, load_ground_truth, point_knn_c2lsh,
                             point_knn_linear, save_ground_truth)
from mmlsh.buffering import NS1, BufferState, SchedulerConfig
from mmlsh.engine import QueryStats
from mmlsh.errors import ParameterError


class TestExactKnnObjects:
    def test_agrees_with_second_route(self, small_dataset):
        """Oracle cross-check: rank via per-pair sorted distance lists instead."""
        gamma = 0.4
        q = mmlsh.QueryObject.from_object(small_dataset, 6)
        got = exact_knn_objects(q, small_dataset, 5, gamma)
        scored = []
        for oid in small_dataset.object_ids.tolist():
            pair = sorted(
                math.dist(qp, xp)
                for qp in q.coords.astype(np.float64)
                for xp in small_dataset.object_coords(oid).astype(np.float64))
            kth = math.ceil(gamma * len(pair))
            scored.append((pair[kth - 1], oid))
        scored.sort()
        expected = [(oid, d) for d, oid in scored[:5]]
        assert [oid for oid, _ in got] == [oid for oid, _ in expected]
        for (_, d1), (_, d2) in zip(got, expected):
            assert d1 == pytest.approx(d2, abs=1e-5)

    def test_self_query_distance_zero_at_small_gamma(self, small_dataset):
        q = mmlsh.QueryObject.from_object(small_dataset, 0)
        top = exact_knn_objects(q, small_dataset, 1, gamma=1 / (8 * 8))
        assert top[0] == (0, 0.0)

    def test_full_ranking_covers_every_object(self, small_dataset):
        q = mmlsh.QueryObject.from_object(small_dataset, 1)
        gt = full_ranking(q, small_dataset, 0.5)
        assert sorted(gt.object_ids) == small_dataset.object_ids.tolist()
        assert gt.distances == sorted(gt.distances)


class TestPointKnnLinear:
    def test_matches_heap_oracle(self, small_dataset):
        rng = np.random.default_rng(12)
        q = rng.normal(size=small_dataset.dimension)
        got = point_knn_linear(q, small_dataset, 10)
        scored = [(math.dist(q, p), row)
                  for row, p in enumerate(small_dataset.coords.astype(np.float64))]
        expected = heapq.nsmallest(10, scored)
        assert [pid for pid, _ in got] == [pid for _, pid in expected]
        for (_, d1), (d2, _) in zip(got, expected):
            assert d1 == pytest.approx(d2, abs=1e-6)

    def test_distances_ascending_and_ties_by_point_id(self, small_dataset):
        q = small_dataset.coords[0]
        got = point_knn_linear(q, small_dataset, small_dataset.n)
        dists = [d for _, d in got]
        assert dists == sorted(dists)
        for (p1, d1), (p2, d2) in zip(got, got[1:]):
            if d1 == d2:
                assert p1 < p2


    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_full_stable_sort_on_tied_distances(self, data):
        """Integer coordinates tie often; boundary ties resolve by row as before."""
        n = data.draw(st.integers(1, 60))
        d = data.draw(st.integers(1, 3))
        ints = st.integers(-3, 3)
        coords = np.array(data.draw(st.lists(st.lists(ints, min_size=d, max_size=d),
                                             min_size=n, max_size=n)), dtype=np.float32)
        dataset = mmlsh.Dataset(coords, np.arange(n) % 4)
        q = np.array(data.draw(st.lists(ints, min_size=d, max_size=d)), dtype=np.float64)
        k_prime = data.draw(st.integers(1, n + 2))
        dists = cdist(q.reshape(1, -1), coords.astype(np.float64))[0]
        order = np.argsort(dists, kind="stable")[:k_prime]
        assert point_knn_linear(q, dataset, k_prime) == list(zip(order.tolist(),
                                                                 dists[order].tolist()))


class TestPointKnnC2lsh:
    def test_finds_planted_near_duplicate(self, synth200):
        """Across seeds the planted nearest point must rank in the top k'."""
        params = mmlsh.derive_params(0.1, 0.05, 2, 2.184)
        found = 0
        trials = 5
        for seed in range(trials):
            idx = mmlsh.build_index(synth200, params, seed=seed)
            rng = np.random.default_rng(100 + seed)
            target = int(rng.integers(0, synth200.n))
            q = synth200.coords[target].astype(np.float64) + rng.normal(
                scale=1e-3, size=synth200.dimension)
            ranking, complete = point_knn_c2lsh(q, idx, synth200, k_prime=10)
            assert complete
            if target in [pid for pid, _ in ranking]:
                found += 1
        assert found == trials

    def test_ratio_bounded_by_c_on_most_queries(self, synth200):
        params = mmlsh.derive_params(0.1, 0.05, 2, 2.184)
        idx = mmlsh.build_index(synth200, params, seed=7)
        rng = np.random.default_rng(77)
        ok = 0
        queries = 20
        for _ in range(queries):
            row = int(rng.integers(0, synth200.n))
            q = synth200.coords[row].astype(np.float64)
            approx = point_knn_c2lsh(q, idx, synth200, k_prime=5)[0]
            exact = point_knn_linear(q, synth200, 5)
            ratios = [(ad if ed > 0 else 1.0) if ed == 0 else ad / ed
                      for (_, ad), (_, ed) in zip(approx, exact)]
            if all(r <= params.c + 1e-9 for r in ratios):
                ok += 1
        assert ok >= 0.9 * queries

    def test_buffer_accounting_is_consistent(self, small_dataset, small_index):
        q = small_dataset.coords[3].astype(np.float64)
        buf = BufferState(capacity_bytes=5000)
        stats = QueryStats()
        plan = []
        ranking, complete = point_knn_c2lsh(q, small_index, small_dataset, k_prime=3,
                                            stats=stats, plan=plan)
        bench.replay_plans(NS1, [plan], small_index, buf, [stats], SchedulerConfig(strategy=NS1))
        assert complete and len(ranking) == 3
        assert stats.buckets_read == stats.buffer_hits + stats.buffer_misses
        assert stats.buckets_read > 0
        assert stats.index_io_ms > 0.0


class TestBorda:
    def test_arithmetic_example(self, small_dataset):
        # object of point p is p // 8 in the synthetic layout
        rankings = [[(0, 0.0), (8, 1.0), (16, 2.0)],
                    [(8, 0.5), (0, 1.5), (9, 2.5)]]
        # k'=3: obj0 <- 3 + 2 = 5; obj1 <- 2 + 3 + 1 = 6; obj2 <- 1
        got = borda_aggregate(rankings, small_dataset, k=3, k_prime=3)
        assert got == [(1, 6), (0, 5), (2, 1)]

    def test_ties_break_by_ascending_object_id(self, small_dataset):
        rankings = [[(0, 0.0)], [(8, 0.0)]]
        got = borda_aggregate(rankings, small_dataset, k=2, k_prime=1)
        assert got == [(0, 1), (1, 1)]

    def test_invariant_under_ranking_permutation(self, small_dataset):
        rng = np.random.default_rng(5)
        rankings = []
        for _ in range(6):
            pids = rng.choice(small_dataset.n, size=10, replace=False)
            rankings.append([(int(p), 0.0) for p in pids])
        base = borda_aggregate(rankings, small_dataset, k=5, k_prime=10)
        shuffled = [rankings[i] for i in rng.permutation(len(rankings))]
        assert borda_aggregate(shuffled, small_dataset, k=5, k_prime=10) == base

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            BordaConfig(k_prime=5, k=10)

    def test_overlong_ranking_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="k_prime"):
            borda_aggregate([[(0, 0.0), (1, 0.1)]], small_dataset, k=1, k_prime=1)


class TestGroundTruthCache:
    def test_roundtrip_exact(self, small_dataset, tmp_path):
        truths = []
        for oid in (0, 5):
            q = mmlsh.QueryObject.from_object(small_dataset, oid)
            truths.append(full_ranking(q, small_dataset, 0.4))
        path = tmp_path / "gt.csv"
        save_ground_truth(truths, path)
        loaded = load_ground_truth(path)
        assert set(loaded) == {0, 5}
        for gt in truths:
            back = loaded[gt.query_object_id]
            assert back.object_ids == gt.object_ids
            assert back.distances == gt.distances  # repr() round-trips floats
