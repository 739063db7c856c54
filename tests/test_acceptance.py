"""End-to-end acceptance suite.

Each test prints exactly one `ACCEPTANCE <n>: PASS|FAIL` line (run pytest with
-s to see them live); the assertions enforce the same conditions.
"""

import dataclasses
import math
from bisect import bisect_left

import numpy as np
import pytest

import mmlsh
from mmlsh import bench
from mmlsh.baselines import borda_aggregate, exact_knn_objects, point_knn_c2lsh
from mmlsh.bench import RunConfig
from mmlsh.buffering import (MMLSH, NS1, NS2, POINT_ID_BYTES, BufferState, CostModel,
                             SchedulerConfig, build_frequency_profile, profile_footprint)

from test_buffering import one_pass_order, schedule_ns1, uniform_profile
from test_lsh import reference_derive
from test_similarity import cdist_gamma_distance


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_1_gamma_distance_oracle():
    """gamma_distance equals the full-sort order statistic on 1000 random pairs."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        nq, nx = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        d = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.01, 1.0))
        q = rng.normal(size=(nq, d))
        x = rng.normal(size=(nx, d))
        got = mmlsh.gamma_distance(q, x, gamma)
        dists = sorted(math.dist(qi, xi) for qi in q for xi in x)
        want = dists[math.ceil(gamma * nq * nx) - 1]
        worst = max(worst, abs(got - want))
    report(1, f"gamma-distance order-statistic identity (worst |err|={worst:.2e})",
           worst <= 1e-12)


def test_acceptance_2_collision_guarantee():
    """Pairs within R=1 reach collision count l with probability >= 1 - delta."""
    params = mmlsh.derive_params(0.1, 0.0125, 2, 2.184)
    rng = np.random.default_rng(5)
    trials, d = 1000, 8
    x = rng.normal(size=(trials, d))
    direction = rng.normal(size=(trials, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    y = x + direction  # planted pairs at distance exactly 1 (= R)
    a = rng.normal(size=(trials, params.m, d))
    b = rng.uniform(0, params.w, size=(trials, params.m))
    hx = np.floor((np.einsum("td,tmd->tm", x, a) + b) / params.w)
    hy = np.floor((np.einsum("td,tmd->tm", y, a) + b) / params.w)
    cc = np.sum(hx == hy, axis=1)
    rate = float(np.mean(cc >= params.l))
    floor_rate = 0.9 - 3 * math.sqrt(0.9 * 0.1 / trials)
    report(2, f"Pr[cc >= l] = {rate:.3f} >= {floor_rate:.3f} over {trials} planted pairs",
           rate >= floor_rate)


def test_acceptance_3_approximation_guarantee():
    """Perturbed object queries return a c^2-approximate neighbor in >=90% of runs."""
    gp = mmlsh.GammaParams(gamma=0.2, delta=0.3, beta=0.9, epsilon=0.6)
    assert gp.gamma >= mmlsh.gamma_min_bound(20, 20, gp.delta, gp.epsilon, gp.beta)
    params = mmlsh.derive_params(gp.delta, gp.beta, 2, 2.184)
    c_sq = params.c ** 2
    ok = 0
    runs = 50
    for seed in range(runs):
        ds = mmlsh.synth_dataset(S=200, points_per_object=20, d=32,
                                 cluster_spread=0.1, seed=seed)
        idx = mmlsh.build_index(ds, params, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        oid = int(rng.integers(0, 200))
        base = mmlsh.QueryObject.from_object(ds, oid)
        coords = [p + rng.normal(scale=0.05, size=32).astype(np.float32) for p in base.coords]
        q = mmlsh.QueryObject(object_id=oid, coords=np.stack(coords))
        res = mmlsh.knn_objects(q, 1, idx, ds, gp)
        truth = exact_knn_objects(q, ds, 1, gp.gamma)
        if res.top_k and truth[0][1] > 0 and res.top_k[0][1] <= c_sq * truth[0][1]:
            ok += 1
    report(3, f"c^2-approximate nearest object in {ok}/{runs} seeded runs",
           ok >= 0.9 * runs)


def test_acceptance_4_object_ratio_vs_borda():
    """Mean object ratio of the engine beats the C2LSH-Borda baseline at k'=50."""
    gp = mmlsh.GammaParams(gamma=0.5, delta=0.1, beta=0.9, epsilon=0.6)
    params = mmlsh.derive_params(gp.delta, gp.beta, 2, 2.184)
    k, k_prime = 25, 50
    ours, borda = [], []
    for seed in (0, 1, 2):
        ds = mmlsh.synth_dataset(S=200, points_per_object=20, d=32,
                                 cluster_spread=1.0, seed=seed)
        idx = mmlsh.build_index(ds, params, seed=seed)
        rng = np.random.default_rng(seed)
        for oid in sorted(int(o) for o in rng.choice(200, size=10, replace=False)):
            q = mmlsh.QueryObject.from_object(ds, oid)
            truth = exact_knn_objects(q, ds, k, gp.gamma)
            res = mmlsh.knn_objects(q, k, idx, ds, gp)
            ratio, _ = mmlsh.object_ratio([d for _, d in res.top_k],
                                          [d for _, d in truth[:len(res.top_k)]])
            ours.append(ratio)
            rankings = point_knn_c2lsh(q.coords, idx, ds, k_prime)
            top = borda_aggregate(rankings, ds, k, k_prime)
            dists = [cdist_gamma_distance(q.coords, ds.object_coords(o), gp.gamma)
                     for o, _ in top]
            ratio, _ = mmlsh.object_ratio(dists, [d for _, d in truth[:len(top)]])
            borda.append(ratio)
    mean_ours, mean_borda = float(np.mean(ours)), float(np.mean(borda))
    report(4, f"mean OR engine={mean_ours:.4f} <= C2LSH-Borda={mean_borda:.4f}",
           mean_ours <= mean_borda)


@pytest.fixture(scope="module")
def buffer_workload():
    """Large clustered workload whose bucket working set exceeds 3x a 30 MB buffer."""
    cfg = RunConfig(synth_objects=4000, synth_points_per_object=100,
                    synth_dimension=32, synth_spread=0.15,
                    gamma=0.9, delta=0.3, beta=0.9, epsilon=0.6,
                    k=25, num_queries=10, query_size=10, seed=2)
    ds = bench.load_dataset(cfg)
    params = mmlsh.derive_params(cfg.delta, cfg.resolved_beta(ds.num_objects),
                                 cfg.c, cfg.w)
    index = mmlsh.build_index(ds, params, seed=cfg.seed)
    profile = build_frequency_profile(index, ds, seed=cfg.seed)
    queries = bench.choose_queries(ds, cfg)
    results, plans, _walls = bench.record_query_plans(cfg, ds, index, queries)

    distinct = {}
    for plan in plans:
        for g, R, ranges in plan:
            ids, counts = index.occupied_buckets(g)
            for _qi, lo, hi in ranges:
                i0, i1 = np.searchsorted(ids, (lo, hi))
                for b, count in zip(ids[i0:i1].tolist(), counts[i0:i1].tolist()):
                    distinct[(g, R, b)] = count * POINT_ID_BYTES
    working_set = sum(distinct.values())

    def run(strategy, capacity_mb):
        stats = [dataclasses.replace(r.stats) for r in results]
        buf = BufferState(int(capacity_mb * bench.MB), CostModel())
        sched = SchedulerConfig(strategy=strategy, query_splits=cfg.query_splits,
                                profile=profile)
        bench.replay_plans(strategy, plans, index, buf, stats, sched)
        return {
            "io_ms": sum(s.io_ms for s in stats),
            "alg_ms": sum(s.alg_ops for s in stats) * cfg.alg_op_cost_ms,
            "hits": sum(s.buffer_hits for s in stats),
            "misses": sum(s.buffer_misses for s in stats),
        }

    return {"working_set": working_set, "run": run}


def test_acceptance_5_buffer_strategy_structure(buffer_workload):
    """NS2 trades extra matching work for minimal IO; MMLSH beats NS1 end to end."""
    ws_mb = buffer_workload["working_set"] / bench.MB
    run = buffer_workload["run"]
    ns1 = run(NS1, 30)
    ns2 = run(NS2, 30)
    mm = run(MMLSH, 30)
    ok = (ws_mb >= 3 * 30
          and ns2["io_ms"] < ns1["io_ms"]
          and mm["io_ms"] + mm["alg_ms"] < ns1["io_ms"] + ns1["alg_ms"]
          and ns2["alg_ms"] > ns1["alg_ms"])
    report(5, (f"working set {ws_mb:.0f} MB; io NS2 {ns2['io_ms']:.0f} < NS1 "
               f"{ns1['io_ms']:.0f} ms; total MMLSH {mm['io_ms'] + mm['alg_ms']:.0f}"
               f" < NS1 {ns1['io_ms'] + ns1['alg_ms']:.0f} ms; alg NS2 "
               f"{ns2['alg_ms']:.3f} > NS1 {ns1['alg_ms']:.3f} ms"), ok)


def test_acceptance_6_strategy_neutrality():
    """Identical top-k answers under NS1, NS2 and MMLSH scheduling."""
    ds = mmlsh.synth_dataset(S=200, points_per_object=20, d=32,
                             cluster_spread=0.1, seed=42)
    params = mmlsh.derive_params(0.3, 0.9, 2, 2.184)
    idx = mmlsh.build_index(ds, params, seed=42)
    gp = mmlsh.GammaParams(gamma=0.5, delta=0.3, beta=0.9, epsilon=0.6)
    rng = np.random.default_rng(9)
    all_equal = True
    for oid in sorted(int(o) for o in rng.choice(200, size=10, replace=False)):
        q = mmlsh.QueryObject.from_object(ds, oid)
        answers = []
        for strategy in (NS1, NS2, MMLSH):
            buf = BufferState(int(1 * bench.MB), CostModel())
            plan = []
            res = mmlsh.knn_objects(q, 5, idx, ds, gp, plan=plan)
            bench.replay_plans(strategy, [plan], idx, buf, [res.stats],
                               SchedulerConfig(strategy=strategy, profile=uniform_profile(idx.m)))
            answers.append(res.top_k)
        all_equal = all_equal and answers[0] == answers[1] == answers[2]
    report(6, "top-k sets and orders identical across NS1/NS2/MMLSH for 10 queries",
           all_equal)


def test_acceptance_7_parameter_derivation():
    """derive_params matches the independent quadrature calculator."""
    got = mmlsh.derive_params(0.1, 0.0125, 2, 2.184)
    p1, p2, m, l = reference_derive(0.1, 0.0125, 2, 2.184)
    ok = (abs(got.p1 - p1) <= 1e-6 and abs(got.p2 - p2) <= 1e-6
          and got.m == m and got.l == l)
    report(7, (f"(m, l) = ({got.m}, {got.l}) and (p1, p2) = "
               f"({got.p1:.6f}, {got.p2:.6f}) match the reference"), ok)


def test_acceptance_8_buffer_size_monotonicity(buffer_workload):
    """LRU hit counts never decrease with capacity; MMLSH io <= NS1 io throughout."""
    run = buffer_workload["run"]
    capacities = (20, 30, 40, 50)
    ns1 = {mb: run(NS1, mb) for mb in capacities}
    mm = {mb: run(MMLSH, mb) for mb in capacities}
    hits = [ns1[mb]["hits"] for mb in capacities]
    monotone = all(b >= a for a, b in zip(hits, hits[1:]))
    dominated = all(mm[mb]["io_ms"] <= ns1[mb]["io_ms"] for mb in capacities)
    report(8, (f"LRU hits over 20-50 MB {hits} non-decreasing; MMLSH io <= NS1 io "
               f"at every capacity"), monotone and dominated)


def test_acceptance_9_profile_and_split_exactness(small_dataset, small_index):
    """Profile means equal direct recomputation; splits=1 is exactly the NS1 plan."""
    regions = 10
    profile = build_frequency_profile(small_index, small_dataset, num_queries=400,
                                      regions_per_projection=regions, seed=6)
    footprint = profile_footprint(small_index, small_dataset, 400, seed=6)
    exact = True
    for g in range(small_index.m):
        lo, hi = int(small_index.bucket_lo[g]), int(small_index.bucket_hi[g])
        for r in range(regions):
            slots = [b for b in range(lo, hi + 1)
                     if profile.region_of(g, b) == r]
            if not slots:
                continue
            landings = sum(int(np.count_nonzero(footprint[:, g] == b)) for b in slots)
            if profile.means[g, r] != landings / len(slots):
                exact = False
    rng = np.random.default_rng(2)
    plans_equal = True
    for _ in range(20):
        ranges = [(qi, int(lo), int(lo + rng.integers(1, 12)))
                  for qi, lo in enumerate(rng.integers(-20, 20, size=5))]
        ids = np.unique(rng.integers(-25, 35, size=15)).tolist()
        ns1 = [p for _qi, lo, hi in schedule_ns1(ranges)
               for p in range(bisect_left(ids, lo), bisect_left(ids, hi))]
        order, segments = one_pass_order(ranges, 1, ids)
        plans_equal = plans_equal and order == ns1 and segments == len(ranges)
    report(9, "regional means exact and splits=1 reduces to the NS1 plan",
           exact and plans_equal)
