import csv
import dataclasses
import heapq
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import mmlsh
from mmlsh import baselines, bench
from mmlsh.baselines import (GroundTruth, borda_aggregate, exact_knn_objects, full_ranking,
                             point_knn_c2lsh, point_knn_linear, save_ground_truth)
from mmlsh.buffering import NS1, BufferState, QueryStats, SchedulerConfig
from mmlsh.lsh import level_cap, reach_range
from test_similarity import cdist_gamma_distance, products


def same_plan(got, want) -> bool:
    """Pass by pass the same projection, level and int64 range rows."""
    return len(got) == len(want) and all(
        (g1, R1) == (g2, R2) and r1.dtype == r2.dtype == np.int64 and np.array_equal(r1, r2)
        for (g1, R1, r1), (g2, R2, r2) in zip(got, want))


def reference_point_knn_c2lsh(q_coords, index, dataset, k_prime, max_levels=None,
                              stats=None, plan=None):
    """`point_knn_c2lsh` as it was with a full `cdist` to every point: the oracle."""
    q = np.asarray(q_coords, dtype=np.float64)
    params = index.params
    n = index.n
    allowed_fp = params.beta * n
    counts = np.zeros(n, dtype=np.int32)
    q_base = index.hash_query(q)
    lo_cov = np.full(index.m, np.iinfo(np.int64).max, dtype=np.int64)
    hi_cov = np.full(index.m, np.iinfo(np.int64).min, dtype=np.int64)
    reach_lo, reach_hi = reach_range(index, q_base)
    buckets = index.buckets  # expanded once per call

    dists = cdist(q.reshape(1, -1), dataset.coords.astype(np.float64))[0]

    def ranked_candidates():
        rows = np.nonzero(counts >= params.l)[0]
        rows = rows[np.argsort(dists[rows], kind="stable")]
        return list(zip(rows.tolist(), dists[rows].tolist()))

    R = 1
    num_iter = 1
    if max_levels is None:
        max_levels = level_cap(params.c)
    for _ in range(max_levels):
        cand_rows = np.nonzero(counts >= params.l)[0]
        if cand_rows.size and np.count_nonzero(dists[cand_rows] <= params.c * R) >= k_prime:
            return ranked_candidates()[:k_prime]
        if cand_rows.size >= k_prime + allowed_fp:
            return ranked_candidates()[:k_prime]
        covered = bool(np.all(
            (reach_lo >= reach_hi) | ((lo_cov <= reach_lo) & (hi_cov >= reach_hi))))
        if covered:
            break
        for g in range(index.m):
            qb = int(np.floor_divide(q_base[g], R))
            lo, hi = qb * R, qb * R + R
            if plan is not None:
                plan.append((g, R, np.array([(0, lo, hi)], dtype=np.int64)))
            if lo_cov[g] > hi_cov[g]:
                segments = [(lo, hi)]
            else:
                segments = [(lo, int(lo_cov[g])), (int(hi_cov[g]), hi)]
            for s0, s1 in segments:
                s0 = max(s0, int(index.bucket_lo[g]))
                s1 = min(s1, int(index.bucket_hi[g]) + 1)
                if s0 < s1:
                    rows = index.point_rows[g][np.searchsorted(buckets[g], s0):
                                               np.searchsorted(buckets[g], s1)]
                    counts[rows] += 1
                    if stats is not None:
                        stats.collision_increments += rows.size
                        stats.alg_ops += rows.size
            lo_cov[g], hi_cov[g] = lo, hi
        R = params.c ** num_iter
        num_iter += 1
    return ranked_candidates()[:k_prime]


def reference_full_ranking(query, dataset, gamma):
    """`full_ranking` as it was, one `gamma_distance` per object: the oracle."""
    scored = []
    for oid in dataset.object_ids.tolist():
        scored.append((cdist_gamma_distance(query.coords, dataset.object_coords(oid), gamma), oid))
    scored.sort(key=lambda t: (t[0], t[1]))
    return GroundTruth(query_object_id=query.object_id,
                       object_ids=[oid for _, oid in scored],
                       distances=[d for d, _ in scored])


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
        [got] = point_knn_linear(q[None], small_dataset, 10)
        scored = [(math.dist(q, p), row)
                  for row, p in enumerate(small_dataset.coords.astype(np.float64))]
        expected = heapq.nsmallest(10, scored)
        assert [pid for pid, _ in got] == [pid for _, pid in expected]
        for (_, d1), (d2, _) in zip(got, expected):
            assert d1 == pytest.approx(d2, abs=1e-6)

    def test_distances_ascending_and_ties_by_point_id(self, small_dataset):
        q = small_dataset.coords[0]
        [got] = point_knn_linear(q[None], small_dataset, small_dataset.n)
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
        want = list(zip(order.tolist(), dists[order].tolist()))
        assert point_knn_linear(q[None], dataset, k_prime) == [want]

    @pytest.mark.parametrize("k_prime", [1, 3, 7, 11, 29])
    def test_ties_at_the_k_prime_th_distance_resolve_by_row(self, k_prime):
        """Every row twice, shuffled: the k'-th and (k'+1)-th distances tie for odd k'."""
        rng = np.random.default_rng(21)
        base = rng.normal(size=(20, 5)).astype(np.float32)
        coords = base[rng.permutation(np.repeat(np.arange(20), 2))]
        dataset = mmlsh.Dataset(coords, np.arange(40) % 3)
        q = rng.normal(size=(2, 5)).astype(np.float32)
        with products() as ran:
            got = point_knn_linear(q, dataset, k_prime)
        assert ran  # a product narrowed the scan
        dists = cdist(q.astype(np.float64), coords.astype(np.float64))
        for row, want_dists in zip(got, dists):
            tied = np.sort(want_dists)
            assert tied[k_prime - 1] == tied[k_prime]
            order = np.argsort(want_dists, kind="stable")[:k_prime]
            assert row == list(zip(order.tolist(), want_dists[order].tolist()))

    def test_one_batched_scan_equals_one_scan_per_point(self, small_dataset):
        """The (|Q|, d) call ranks each point exactly as a one-point call does."""
        q = mmlsh.QueryObject.from_object(small_dataset, 3).coords
        per_point = [point_knn_linear(p[None], small_dataset, 7)[0] for p in q]
        assert len(q) > 1
        assert point_knn_linear(q, small_dataset, 7) == per_point

    @pytest.mark.parametrize("offset, scale, precisions", [
        (1e4, 1.0, [np.float64]),            # a float64 query
        (1e4, None, [np.float32, np.float64]),  # far from the origin, float32 values
        (0.0, 1e152, []),                    # beyond the float64 product's norm limit
    ])
    def test_every_path_equals_the_cdist_ranking(self, offset, scale, precisions):
        rng = np.random.default_rng(22)
        coords = (offset + rng.normal(size=(200, 6)) * 0.1).astype(np.float32)
        dataset = mmlsh.Dataset(coords, np.arange(200) % 7)
        q = coords[:3].astype(np.float64)
        if scale is not None:
            q = q + rng.normal(size=q.shape) * scale
        with products() as ran:
            got = point_knn_linear(q, dataset, 9)
        assert ran == precisions
        dists = cdist(q, coords.astype(np.float64))
        for row, want_dists in zip(got, dists):
            order = np.argsort(want_dists, kind="stable")[:9]
            assert row == list(zip(order.tolist(), want_dists[order].tolist()))


THREAD_PROBE = """
import hashlib
import mmlsh
from mmlsh.baselines import full_ranking, point_knn_linear
dataset = mmlsh.synth_dataset(300, 40, 32, 0.15, seed=3)
digest = hashlib.sha256()
for oid in (0, 7, 150):
    q = mmlsh.QueryObject.from_object(dataset, oid)
    truth = full_ranking(q, dataset, 0.9)
    digest.update(repr((truth.object_ids, truth.distances)).encode())
    digest.update(repr(point_knn_linear(q.coords, dataset, 50)).encode())
print(digest.hexdigest())
"""


def test_answers_do_not_depend_on_the_blas_thread_count():
    """The product's rounding may vary with BLAS threads; the exact answers must not."""
    src = str(Path(mmlsh.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].strip()) == 64


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
            [ranking] = point_knn_c2lsh(q[None], idx, synth200, k_prime=10)
            assert len(ranking) == 10
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
            [approx] = point_knn_c2lsh(q[None], idx, synth200, k_prime=5)
            [exact] = point_knn_linear(q[None], synth200, 5)
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
        [ranking] = point_knn_c2lsh(q[None], small_index, small_dataset, k_prime=3,
                                    stats=stats, plan=plan)
        bench.replay_plans(NS1, [plan], small_index, buf, [stats], SchedulerConfig(strategy=NS1))
        assert len(ranking) == 3
        assert stats.buffer_misses > 0
        assert stats.io_ms > 0.0
        io = buf.io_stats  # one query alone on its buffer: the same IO figures
        assert (stats.buffer_hits, stats.buffer_misses, stats.bytes_read, stats.io_ms) == (
            io.buffer_hits, io.buffer_misses, io.bytes_read, io.io_ms)

    @pytest.mark.parametrize("k_prime, beta_n, max_levels",
                             [(3, None, None), (10, 0.0, None), (50, None, 4), (400, 0.0, None),
                              (400, 0.0, 1)])
    def test_matches_full_cdist_oracle(self, synth200, monkeypatch, k_prime, beta_n, max_levels):
        """Distances only for candidates give the full-`cdist` search's result bit for bit.

        A `beta_n` sets the allowed false positives beta*n through the index's beta; a
        `max_levels` caps the rehashing levels, so the scan can end before k' candidates.
        """
        params = mmlsh.derive_params(0.1, 0.05, 2, 2.184)
        idx = mmlsh.build_index(synth200, params, seed=3)
        if beta_n is not None:
            idx.params = dataclasses.replace(params, beta=beta_n / idx.n)
        if max_levels is not None:
            monkeypatch.setattr(baselines, "level_cap", lambda c: max_levels)
        rng = np.random.default_rng(k_prime)
        for row in rng.integers(0, synth200.n, size=4).tolist():
            q = synth200.coords[row].astype(np.float64) + rng.normal(
                scale=0.5, size=synth200.dimension)
            got_stats, want_stats, got_plan, want_plan = QueryStats(), QueryStats(), [], []
            [got] = point_knn_c2lsh(q[None], idx, synth200, k_prime, stats=got_stats, plan=got_plan)
            want = reference_point_knn_c2lsh(q, idx, synth200, k_prime, max_levels,
                                             stats=want_stats, plan=want_plan)
            assert got == want
            assert got_stats == want_stats and same_plan(got_plan, want_plan)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), objects=st.integers(1, 6), points=st.integers(1, 6),
           beta=st.sampled_from([0.0, 0.1, 0.5]),
           kinds=st.lists(st.sampled_from(["row", "noisy", "copy", "far"]), min_size=1,
                          max_size=8),
           data=st.data())
    def test_batched_search_equals_the_per_point_oracle(self, seed, objects, points, beta,
                                                        kinds, data):
        """One call per query object gives each point's one-point answer, stats and plan.

        The points stop at different levels: a data row at once, a noisy one
        later, a copy where its original does, and a far point only at the
        level cap. The stats are the sum of the one-point searches', and the
        plan their plans in point order.
        """
        ds = mmlsh.synth_dataset(S=objects, points_per_object=points, d=4, cluster_spread=0.3,
                                 seed=seed)
        idx = mmlsh.build_index(ds, mmlsh.derive_params(0.25, 0.5), seed=seed)
        idx.params = dataclasses.replace(idx.params, beta=beta)
        k_prime = data.draw(st.integers(1, ds.n + 3))
        rng = np.random.default_rng(seed)
        q = []
        for kind in kinds:
            if kind == "copy" and q:
                q.append(q[-1])
            elif kind == "far":  # clamped to the edge buckets, which never reach the data
                q.append(np.full(ds.dimension, 1e30))
            else:
                row = ds.coords[rng.integers(ds.n)].astype(np.float64)
                q.append(row + rng.normal(scale=0.5, size=row.shape) if kind == "noisy" else row)
        q = np.array(q)
        got_stats, want_stats, got_plan, want_plan = QueryStats(), QueryStats(), [], []
        got = point_knn_c2lsh(q, idx, ds, k_prime, stats=got_stats, plan=got_plan)
        want = [reference_point_knn_c2lsh(p, idx, ds, k_prime, stats=want_stats, plan=want_plan)
                for p in q]
        assert got == want
        assert got_stats == want_stats and same_plan(got_plan, want_plan)


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

    def test_overlong_ranking_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="k_prime"):
            borda_aggregate([[(0, 0.0), (1, 0.1)]], small_dataset, k=1, k_prime=1)


class TestGroundTruthCache:
    def test_roundtrip_exact(self, small_dataset, tmp_path):
        """csv and float read the written file back to full_ranking's ids and distance bits."""
        truths = [full_ranking(mmlsh.QueryObject.from_object(small_dataset, oid), small_dataset,
                               0.4) for oid in (0, 5)]
        path = tmp_path / "gt.csv"
        save_ground_truth(truths, path)
        assert path.read_text().split("\n", 1)[0] == "query_object_id,rank,object_id,gamma_distance"
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["query_object_id", "rank", "object_id", "gamma_distance"]
        assert [(int(q), int(r), int(o)) for q, r, o, _ in rows] == [
            (gt.query_object_id, rank, oid) for gt in truths
            for rank, oid in enumerate(gt.object_ids, start=1)]
        got = np.array([float(d) for *_, d in rows])
        want = np.array([d for gt in truths for d in gt.distances])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @staticmethod
    def file_bytes(tmp_path, name, truths):
        path = tmp_path / name
        save_ground_truth(truths, path)
        return path.read_bytes()

    def test_file_equals_the_per_object_oracles(self, small_dataset, tmp_path):
        queries = [mmlsh.QueryObject.from_object(small_dataset, oid)
                   for oid in small_dataset.object_ids.tolist()]
        got = [full_ranking(q, small_dataset, 0.4) for q in queries]
        want = [reference_full_ranking(q, small_dataset, 0.4) for q in queries]
        assert self.file_bytes(tmp_path, "new.csv", got) == \
            self.file_bytes(tmp_path, "oracle.csv", want)

    def test_tied_duplicates_break_by_ascending_object_id(self, small_dataset, tmp_path):
        # every object twice, the copy under a higher or lower id, rows shuffled
        rng = np.random.default_rng(6)
        ids = small_dataset.object_ids[small_dataset.point_object_index]
        owners = np.concatenate([ids * 3, 100 - ids])
        coords = np.concatenate([small_dataset.coords, small_dataset.coords])
        shuffle = rng.permutation(len(owners))
        dataset = mmlsh.Dataset(coords[shuffle], owners[shuffle])
        queries = [mmlsh.QueryObject.from_object(dataset, oid) for oid in (0, 27, 100, 91)]
        got = [full_ranking(q, dataset, 0.4) for q in queries]
        want = [reference_full_ranking(q, dataset, 0.4) for q in queries]
        for gt in got:
            ranked = list(zip(gt.object_ids, gt.distances))
            ties = [(a, b) for (a, da), (b, db) in zip(ranked, ranked[1:]) if da == db]
            assert len(ties) == small_dataset.num_objects and all(a < b for a, b in ties)
        assert self.file_bytes(tmp_path, "new.csv", got) == \
            self.file_bytes(tmp_path, "oracle.csv", want)
