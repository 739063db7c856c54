"""Benchmark protocol: build, ground truth, query runs, comparisons, sweeps.

Timing is modeled (HDD cost model plus a fixed per-operation algorithm cost),
not measured; wall-clock time is reported separately as informational only,
so repeated runs with the same config and seed produce identical reports.
Each query's costs live in one `QueryStats`: the search fills its collision
and operation counts, and `replay_plans` bills its IO through
`access_bucket`, which adds the same figures to the buffer's `io_stats`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import typing
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields

import numpy as np

from .baselines import (borda_aggregate, full_ranking, ground_truth_key, load_ground_truth,
                        point_knn_c2lsh, point_knn_linear, save_ground_truth)
from .buffering import (MMLSH, NS1, NS2, POINT_ID_BYTES, BufferState, CostModel,
                        FrequencyProfile, QueryStats, SchedulerConfig, _MmlshEvictor,
                        access_bucket, build_frequency_profile, evict_lru,
                        schedule_ns1, schedule_ns2, split_queries)
from .engine import DEFAULT_ALG_OP_COST_MS, knn_objects
from .errors import ParameterError, ProfileFileError
from .lsh import DEFAULT_C, DEFAULT_W, build_index, derive_params, load_index, save_index
from .model import Dataset, QueryObject, load_feature_file, load_object_map, synth_dataset
from .similarity import GammaParams, gamma_distance, object_ratio

MB = 1_000_000


@dataclass
class RunConfig:
    """Fully resolved benchmark configuration; embedded in report headers."""

    # dataset: either file paths or a synthetic spec
    vectors_path: str | None = None
    object_map_path: str | None = None
    synth_objects: int = 200
    synth_points_per_object: int = 20
    synth_dimension: int = 32
    synth_spread: float = 0.1

    # search quality knobs
    gamma: float = 0.3
    delta: float = 0.1
    beta: float | None = None       # None -> 25 / S
    epsilon: float | None = None    # None -> 2 * delta
    c: int = DEFAULT_C
    w: float = DEFAULT_W

    # protocol
    k: int = 25
    k_primes: tuple = (25, 50, 100)
    num_queries: int = 10
    query_size: int | None = None   # points per query object; None = all
    buffer_mb: float = 30.0
    buffer_sizes_mb: tuple = (20.0, 30.0, 40.0, 50.0)
    strategy: str = MMLSH
    query_splits: int = 10
    seed: int = 0
    alg_op_cost_ms: float = DEFAULT_ALG_OP_COST_MS

    # artifact locations
    index_path: str = "mmlsh.index"
    profile_path: str = "mmlsh.profile.npz"
    groundtruth_path: str = "groundtruth.csv"
    out_prefix: str = "report"

    def __post_init__(self):
        for name, value in [("buffer_mb", self.buffer_mb)] + [
                ("buffer_sizes_mb", size) for size in self.buffer_sizes_mb]:
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.alg_op_cost_ms) and self.alg_op_cost_ms >= 0):
            raise ParameterError(f"alg_op_cost_ms must be finite and >= 0, "
                                 f"got {self.alg_op_cost_ms!r}")
        if self.num_queries < 1:
            raise ParameterError(f"num_queries must be >= 1, got {self.num_queries!r}")

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        """Fields from a JSON object, with `overrides` taking precedence.

        A value that is not an object, an unknown field name or a value of
        the wrong JSON type raises ParameterError.
        """
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ParameterError(f"{path}: a config must be a JSON object")
        data.update(overrides or {})
        hints = typing.get_type_hints(cls)
        defaults = {f.name: f.default for f in fields(cls)}
        for name, value in data.items():
            if name not in hints:
                raise ParameterError(f"{path}: unknown config field {name!r}")
            if not _fits(value, hints[name], defaults[name]):
                raise ParameterError(f"{path}: config field {name!r} cannot be {value!r}")
        return cls(**data)

    def resolved_beta(self, S: int) -> float:
        return self.beta if self.beta is not None else min(25.0 / S, 0.999)

    def gamma_params(self, S: int) -> GammaParams:
        return GammaParams(gamma=self.gamma, delta=self.delta,
                           beta=self.resolved_beta(S), epsilon=self.epsilon)


_JSON_TYPES = {int: int, float: (int, float), str: str, tuple: (list, tuple),
               type(None): type(None)}


def _fits(value, hint, default=None) -> bool:
    """Whether a JSON value suits a field annotated `hint` (a tuple's items: its default's)."""
    if isinstance(value, bool):
        return False  # JSON true/false is neither a number, a string nor a list
    for typ in typing.get_args(hint) or (hint,):
        if isinstance(value, _JSON_TYPES[typ]):
            return typ is not tuple or all(_fits(v, type(default[0])) for v in value)
    return False


def load_dataset(cfg: RunConfig) -> Dataset:
    if cfg.vectors_path:
        if not cfg.object_map_path:
            raise ParameterError("vectors_path requires object_map_path")
        return load_object_map(cfg.object_map_path, load_feature_file(cfg.vectors_path))
    return synth_dataset(cfg.synth_objects, cfg.synth_points_per_object,
                         cfg.synth_dimension, cfg.synth_spread, seed=cfg.seed)


def choose_queries(dataset: Dataset, cfg: RunConfig) -> list[QueryObject]:
    """Sample query objects (and optionally subsample their points) by seed."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    count = min(cfg.num_queries, dataset.num_objects)
    chosen = rng.choice(dataset.object_ids, size=count, replace=False)
    queries = []
    for oid in sorted(int(o) for o in chosen):
        q = QueryObject.from_object(dataset, oid)
        if cfg.query_size is not None and cfg.query_size < len(q.coords):
            keep = rng.choice(len(q.coords), size=cfg.query_size, replace=False)
            q = QueryObject(object_id=oid, coords=q.coords[np.sort(keep)])
        queries.append(q)
    return queries


def build_artifacts(cfg: RunConfig, dataset: Dataset):
    """Derive parameters, build and persist the index and frequency profile."""
    params = derive_params(cfg.delta, cfg.resolved_beta(dataset.num_objects), cfg.c, cfg.w)
    index = build_index(dataset, params, seed=cfg.seed)
    save_index(index, cfg.index_path)
    profile = build_frequency_profile(index, dataset, seed=cfg.seed)
    profile.save(cfg.profile_path)
    return index, profile


def ensure_ground_truth(cfg: RunConfig, dataset: Dataset, queries) -> dict:
    """Load the exact-ranking cache, computing and saving it when absent or stale.

    The cache is keyed on gamma and the dataset's fingerprint: a cache
    written for another gamma or dataset is recomputed and overwritten.
    """
    key = f"gamma={cfg.gamma!r} dataset={dataset.fingerprint()}"
    if (os.path.exists(cfg.groundtruth_path)
            and ground_truth_key(cfg.groundtruth_path) == key):
        cached = load_ground_truth(cfg.groundtruth_path)
        if all(q.object_id in cached for q in queries):
            return cached
    truths = [full_ranking(q, dataset, cfg.gamma) for q in queries]
    save_ground_truth(truths, cfg.groundtruth_path, key=key)
    return {gt.query_object_id: gt for gt in truths}


def _row(query, method, strategy, buffer_mb, k_prime, ratio, flagged, stats: QueryStats,
         stop="", levels=0, wall_ms=0.0, bound_warning="", gamma_min_bound=""):
    return {
        "query_object_id": query.object_id,
        "method": method,
        "strategy": strategy,
        "buffer_mb": buffer_mb,
        "k_prime": k_prime,
        "or_gamma": ratio,
        "or_flagged": int(flagged),
        "bound_warning": bound_warning,
        "gamma_min_bound": gamma_min_bound,
        "total_ms": stats.total_ms,
        "alg_ms": stats.alg_ms,
        "index_io_ms": stats.io_ms,
        "hits": stats.buffer_hits,
        "misses": stats.buffer_misses,
        "stop": stop,
        "levels": levels,
        "wall_ms": wall_ms,
    }


def _occupied(index, g: int, lists: dict):
    """Projection g's occupied ids in ascending order and their sizes in bytes.

    Both are lists, kept in `lists` for the rest of the replay.
    """
    if g not in lists:
        ids, counts = index.occupied_buckets(g)
        lists[g] = (ids.tolist(), (counts * POINT_ID_BYTES).tolist())
    return lists[g]


def _slices(ids, ranges):
    """Per range (query, i0, i1) such that ids[i0:i1] are the occupied ids in its [lo, hi)."""
    return [(qi, bisect_left(ids, lo), bisect_left(ids, hi)) for qi, lo, hi in ranges]


def replay_plans(strategy: str, plans, index, buffer: BufferState,
                 stats_list, scheduler: SchedulerConfig) -> None:
    """Charge modeled IO for recorded query plans under one strategy.

    This is the one place that pulls index buckets through a buffer.
    plans[i] is the pass list `knn_objects` (or `point_knn_c2lsh`) recorded
    for query i; stats_list[i] is mutated in place: `access_bucket` bills
    each access to it and to `buffer.io_stats`, and the strategy's extra work
    goes to its `alg_ops`. `alg_ms` is left to the caller, which derives it
    from `alg_ops`. NS1 and MMLSH execute queries one after another; NS2
    batches the whole set, reading each distinct useful bucket once per
    (level, projection) pass and checking every batched query against it.
    Only occupied buckets are visited: NS1 walks each range's slice of them,
    MMLSH the order `split_queries` gives. A scheduler configured for
    another strategy raises ValueError.
    """
    if scheduler.strategy != strategy:
        raise ValueError(f"replay_plans was asked for {strategy} with a scheduler "
                         f"configured for {scheduler.strategy}")
    lists: dict = {}
    if strategy == NS2:
        _replay_ns2_batch(plans, index, buffer, stats_list, lists)
        return
    mmlsh = strategy == MMLSH
    evict = _MmlshEvictor(scheduler.profile) if mmlsh else evict_lru
    for stats, plan in zip(stats_list, plans):
        for g, R, ranges in plan:
            ids, sizes = _occupied(index, g, lists)
            if mmlsh:
                order, segments = split_queries(ranges, scheduler.query_splits, ids)
                stats.alg_ops += segments  # segment dispatch overhead
                for p in order:
                    access_bucket((g, R, ids[p]), sizes[p], buffer, evict, stats)
            else:
                for _qi, i0, i1 in _slices(ids, schedule_ns1(ranges)):
                    for bucket, size in zip(ids[i0:i1], sizes[i0:i1]):
                        access_bucket((g, R, bucket), size, buffer, evict, stats)


def _replay_ns2_batch(plans, index, buffer: BufferState, stats_list, lists: dict) -> None:
    """Batched per-bucket execution across all queries (NS2 semantics).

    Each bucket's read is billed to its first consumer; every query range in
    the pass pays one membership-check operation per bucket read. Buckets
    are scheduled by their position among the occupied ids, which orders
    them as their ids do.
    """
    passes: dict[tuple, list] = {}
    for query_idx, plan in enumerate(plans):
        for g, R, ranges in plan:
            passes.setdefault((R, g), []).extend(
                (query_idx, lo, hi) for _qi, lo, hi in ranges)
    for (R, g) in sorted(passes):
        ranges = passes[(R, g)]
        ids, sizes = _occupied(index, g, lists)
        schedule = schedule_ns2(_slices(ids, ranges))
        for i, consumers in schedule:
            access_bucket((g, R, ids[i]), sizes[i], buffer, evict_lru, stats_list[consumers[0]])
        for query_idx, _lo, _hi in ranges:
            stats_list[query_idx].alg_ops += len(schedule)


def record_query_plans(cfg: RunConfig, dataset, index, queries) -> tuple[list, list, list]:
    """Run every query once without IO accounting, keeping its pass plan.

    Returns (results, plans, wall_ms) aligned with `queries`. The plans can
    then be replayed under any strategy and buffer size without recomputing
    the collision counting.
    """
    gparams = cfg.gamma_params(dataset.num_objects)
    results, plans, walls = [], [], []
    for q in queries:
        plan: list = []
        t0 = time.perf_counter()
        res = knn_objects(q, cfg.k, index, dataset, gparams,
                          alg_op_cost_ms=cfg.alg_op_cost_ms, plan=plan)
        walls.append((time.perf_counter() - t0) * 1e3)
        results.append(res)
        plans.append(plan)
    return results, plans, walls


def rows_from_results(cfg: RunConfig, queries, results, walls, truth,
                      strategy: str, buffer_mb: float) -> list[dict]:
    rows = []
    for q, res, wall_ms in zip(queries, results, walls):
        res.stats.alg_ms = res.stats.alg_ops * cfg.alg_op_cost_ms
        k_eff = min(cfg.k, len(res.top_k))
        ratio, flagged = object_ratio([d for _, d in res.top_k[:k_eff]],
                                      truth[q.object_id].distances[:k_eff])
        rows.append(_row(q, "mmLSH", strategy, buffer_mb, "", ratio, flagged,
                         res.stats, res.stop_condition, res.levels_used, wall_ms,
                         int(res.bound_warning), res.gamma_min_bound))
    return rows


def run_mmlsh_queries(cfg: RunConfig, dataset, index, queries, truth,
                      strategy: str | None = None, buffer_mb: float | None = None,
                      profile: FrequencyProfile | None = None,
                      shared_buffer: BufferState | None = None) -> list[dict]:
    """Run the object engine for each query under one scheduling strategy."""
    strategy = strategy or cfg.strategy
    buffer_mb = buffer_mb if buffer_mb is not None else cfg.buffer_mb
    scheduler = SchedulerConfig(strategy=strategy, query_splits=cfg.query_splits,
                                profile=profile)
    buffer = shared_buffer or BufferState(int(buffer_mb * MB), CostModel())
    results, plans, walls = record_query_plans(cfg, dataset, index, queries)
    replay_plans(strategy, plans, index, buffer, [r.stats for r in results], scheduler)
    return rows_from_results(cfg, queries, results, walls, truth, strategy, buffer_mb)


def run_borda_baselines(cfg: RunConfig, dataset, index, queries, truth) -> list[dict]:
    """LinearSearch-Borda and C2LSH-Borda rows for every configured k'.

    The protocol retrieves k' >= k points per query point, so a k' below
    k raises ParameterError rather than being skipped.
    """
    below = [k_prime for k_prime in cfg.k_primes if k_prime < cfg.k]
    if below:
        raise ParameterError(f"k_primes {below} are below k={cfg.k}; each k' must be >= k")
    rows = []
    for k_prime in cfg.k_primes:
        for q in queries:
            # exact point retrieval: no index, no buffer, modeled scan cost only
            t0 = time.perf_counter()
            rankings = [point_knn_linear(p, dataset, k_prime) for p in q.coords]
            top = borda_aggregate(rankings, dataset, cfg.k, k_prime)
            wall_ms = (time.perf_counter() - t0) * 1e3
            stats = QueryStats(alg_ops=len(q.coords) * dataset.n)
            stats.alg_ms = stats.alg_ops * cfg.alg_op_cost_ms
            dists = [gamma_distance(q.coords, dataset.object_coords(oid), cfg.gamma)
                     for oid, _ in top]
            ratio, flagged = object_ratio(dists, truth[q.object_id].distances[:len(top)])
            rows.append(_row(q, "Linear-Borda", "", "", k_prime, ratio, flagged,
                             stats, wall_ms=wall_ms))

            t0 = time.perf_counter()
            stats = QueryStats()
            plan: list = []
            rankings = [point_knn_c2lsh(p, index, dataset, k_prime,
                                        stats=stats, plan=plan)[0] for p in q.coords]
            # the query object's point searches share one buffer, read in order
            replay_plans(NS1, [plan], index, BufferState(int(cfg.buffer_mb * MB), CostModel()),
                         [stats], SchedulerConfig(strategy=NS1))
            top = borda_aggregate(rankings, dataset, cfg.k, k_prime)
            wall_ms = (time.perf_counter() - t0) * 1e3
            stats.alg_ms = stats.alg_ops * cfg.alg_op_cost_ms
            dists = [gamma_distance(q.coords, dataset.object_coords(oid), cfg.gamma)
                     for oid, _ in top]
            ratio, flagged = object_ratio(dists, truth[q.object_id].distances[:len(top)])
            rows.append(_row(q, "C2LSH-Borda", NS1, cfg.buffer_mb, k_prime, ratio,
                             flagged, stats, wall_ms=wall_ms))
    return rows


def run_buffer_sweep(cfg: RunConfig, dataset, index, queries, truth,
                     profile: FrequencyProfile) -> list[dict]:
    """NS1 and MMLSH at every configured buffer size, shared buffer per run."""
    rows = []
    for size_mb in cfg.buffer_sizes_mb:
        for strategy in (NS1, MMLSH):
            shared = BufferState(int(size_mb * MB), CostModel())
            rows.extend(run_mmlsh_queries(cfg, dataset, index, queries, truth,
                                          strategy=strategy, buffer_mb=size_mb,
                                          profile=profile, shared_buffer=shared))
    return rows


def aggregate(rows: list[dict]) -> list[dict]:
    """Mean and standard deviation per (method, strategy, buffer, k')."""
    groups = {}
    for row in rows:
        key = (row["method"], row["strategy"], row["buffer_mb"], row["k_prime"])
        groups.setdefault(key, []).append(row)
    out = []
    for key, members in sorted(groups.items(), key=lambda t: str(t[0])):
        ratios = [r["or_gamma"] for r in members if np.isfinite(r["or_gamma"])]
        bounds = [r["gamma_min_bound"] for r in members if r["gamma_min_bound"] != ""]
        agg = {
            "query_object_id": "MEAN",
            "method": key[0], "strategy": key[1], "buffer_mb": key[2], "k_prime": key[3],
            "or_gamma": float(np.mean(ratios)) if ratios else float("inf"),
            "or_flagged": sum(r["or_flagged"] for r in members),
            "bound_warning": sum(r["bound_warning"] for r in members) if bounds else "",
            "gamma_min_bound": float(np.mean(bounds)) if bounds else "",
            "total_ms": float(np.mean([r["total_ms"] for r in members])),
            "alg_ms": float(np.mean([r["alg_ms"] for r in members])),
            "index_io_ms": float(np.mean([r["index_io_ms"] for r in members])),
            "hits": float(np.mean([r["hits"] for r in members])),
            "misses": float(np.mean([r["misses"] for r in members])),
            "stop": "", "levels": float(np.mean([r["levels"] for r in members])),
            "wall_ms": float(np.mean([r["wall_ms"] for r in members])),
        }
        out.append(agg)
        std = dict(agg)
        std["query_object_id"] = "STD"
        for col in ("or_gamma", "total_ms", "alg_ms", "index_io_ms", "hits", "misses", "levels", "wall_ms"):
            vals = [r[col] for r in members if np.isfinite(r[col])] or [float("nan")]
            std[col] = float(np.std(vals))
        if bounds:
            std["gamma_min_bound"] = float(np.std(bounds))
        out.append(std)
    return out


REPORT_COLUMNS = ["query_object_id", "method", "strategy", "buffer_mb", "k_prime",
                  "or_gamma", "or_flagged", "bound_warning", "gamma_min_bound", "total_ms",
                  "alg_ms", "index_io_ms", "hits", "misses", "stop", "levels", "wall_ms"]


def write_report(rows: list[dict], cfg: RunConfig, out_prefix: str | None = None,
                 emit_json: bool = False) -> str:
    """Write CSV (+ optional JSON) and return an aligned human-readable table.

    The resolved config is embedded as comment lines at the top of the CSV so
    every report is self-describing.
    """
    prefix = out_prefix or cfg.out_prefix
    all_rows = rows + aggregate(rows)
    csv_path = prefix + ".csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(asdict(cfg), default=str) + "\n")
        fh.write(f"# alg_op_cost_ms: {cfg.alg_op_cost_ms}\n")
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in all_rows:
            writer.writerow(row)
    if emit_json:
        with open(prefix + ".json", "w") as fh:
            json.dump({"config": asdict(cfg), "rows": all_rows}, fh, indent=2, default=str)

    widths = {col: max(len(col), *(len(_fmt(r[col])) for r in all_rows)) for col in REPORT_COLUMNS}
    lines = ["  ".join(col.ljust(widths[col]) for col in REPORT_COLUMNS)]
    for row in all_rows:
        lines.append("  ".join(_fmt(row[col]).ljust(widths[col]) for col in REPORT_COLUMNS))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def load_artifacts(cfg: RunConfig):
    index = load_index(cfg.index_path)
    profile = FrequencyProfile.load(cfg.profile_path) if os.path.exists(cfg.profile_path) else None
    if profile is not None and profile.means.shape[0] != index.m:
        raise ProfileFileError(f"{cfg.profile_path}: profile has {profile.means.shape[0]} "
                               f"projections, the index has m={index.m}")
    return index, profile
