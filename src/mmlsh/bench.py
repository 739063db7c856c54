"""Benchmark protocol: build, ground truth, query runs, comparisons, sweeps.

Timing is modeled (HDD cost model plus a fixed per-operation algorithm cost),
not measured; wall-clock time is reported separately as informational only,
so repeated runs with the same config and seed produce identical reports.
Each query's costs live in one `QueryStats`: the search fills its collision
and operation counts, and `replay_plans` bills its IO through
`access_bucket` and `bill_hits`, which add the same figures to the buffer's
`io_stats`.

The report verbs share one pipeline. After one set-up (dataset, artifacts,
queries, exact rankings), `record_query_plans` runs each query's search
once and keeps its pass plan. Each (strategy, buffer size) run then replays
every plan onto a copy of its query's stats, on a fresh buffer, so runs
differ in modeled IO only. `_row` builds every report row, mmLSH's and the
Borda baselines', and is the one place that derives `alg_ms` from `alg_ops`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .baselines import (borda_aggregate, full_ranking, ground_truth_key, load_ground_truth,
                        point_knn_c2lsh, point_knn_linear, save_ground_truth)
from .buffering import (MMLSH, NS1, NS2, POINT_ID_BYTES, BufferState, CostModel,
                        FrequencyProfile, QueryStats, SchedulerConfig, _MmlshEvictor,
                        access_bucket, bill_hits, build_frequency_profile, evict_lru,
                        schedule_ns2, split_queries)
from .engine import knn_objects
from .errors import ParameterError, ProfileFileError
from .lsh import DEFAULT_C, DEFAULT_W, build_index, derive_params, load_index, save_index
from .model import Dataset, QueryObject, load_feature_file, load_object_map, synth_dataset
from .similarity import GammaParams, gamma_distances, object_ratio

MB = 1_000_000
# modeled cost of one algorithm operation (collision increment or per-bucket
# query check); absolute hardware numbers are not portable, only structure is
DEFAULT_ALG_OP_COST_MS = 1e-6


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
        for name in ("k_primes", "buffer_sizes_mb"):
            if not getattr(self, name):
                raise ParameterError(f"{name} must not be empty")
        for name, value in [("buffer_mb", self.buffer_mb)] + [
                ("buffer_sizes_mb", size) for size in self.buffer_sizes_mb]:
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.alg_op_cost_ms) and self.alg_op_cost_ms >= 0):
            raise ParameterError(f"alg_op_cost_ms must be finite and >= 0, "
                                 f"got {self.alg_op_cost_ms!r}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k!r}")
        if self.num_queries < 1:
            raise ParameterError(f"num_queries must be >= 1, got {self.num_queries!r}")
        if self.query_splits < 1:
            raise ParameterError(f"query_splits must be >= 1, got {self.query_splits!r}")
        if self.query_size is not None and self.query_size < 1:
            raise ParameterError(f"query_size must be >= 1, got {self.query_size!r}")
        # refuse here what a query would refuse; an unset beta resolves per
        # dataset to a value in (0, 1), so any valid one stands in for it
        GammaParams(gamma=self.gamma, delta=self.delta,
                    beta=0.5 if self.beta is None else self.beta, epsilon=self.epsilon)

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
    written for another gamma or dataset is recomputed and overwritten, as
    is one that is not text, has a row that does not parse or has a query
    ranking that does not hold every object.
    """
    key = f"gamma={cfg.gamma!r} dataset={dataset.fingerprint()}"
    path = cfg.groundtruth_path
    try:
        cached = (load_ground_truth(path)
                  if os.path.exists(path) and ground_truth_key(path) == key else None)
    except ValueError:  # UnicodeDecodeError included
        cached = None
    if cached is not None and all(
            q.object_id in cached and len(cached[q.object_id].object_ids) == dataset.num_objects
            for q in queries):
        return cached
    truths = [full_ranking(q, dataset, cfg.gamma) for q in queries]
    save_ground_truth(truths, path, key=key)
    return {gt.query_object_id: gt for gt in truths}


REPORT_COLUMNS = ["query_object_id", "method", "strategy", "buffer_mb", "k_prime",
                  "or_gamma", "answered", "or_flagged", "bound_warning", "gamma_min_bound",
                  "total_ms", "alg_ms", "index_io_ms", "hits", "misses", "stop", "levels",
                  "wall_ms"]
# the columns that name a run; `aggregate` summarises each run's rows
GROUP_COLUMNS = ("method", "strategy", "buffer_mb", "k_prime")


def _row(cfg: RunConfig, truth, query, group: tuple, dists, stats: QueryStats, wall_ms,
         result=None) -> dict:
    """One report row; the only place that derives `alg_ms` from `alg_ops`.

    `group` holds the GROUP_COLUMNS values. An empty answer (`dists`,
    ascending) gets `answered` 0 and `or_gamma` inf. Only mmLSH rows pass
    the QueryResult that fills the stop, level and bound columns.
    """
    stats.alg_ms = stats.alg_ops * cfg.alg_op_cost_ms
    ratio, flagged = (object_ratio(dists, truth[query.object_id].distances[:len(dists)])
                      if dists else (math.inf, False))
    return {
        "query_object_id": query.object_id,
        **dict(zip(GROUP_COLUMNS, group)),
        "or_gamma": ratio,
        "answered": int(bool(dists)),
        "or_flagged": int(flagged),
        "bound_warning": int(result.bound_warning) if result else "",
        "gamma_min_bound": result.gamma_min_bound if result else "",
        "total_ms": stats.total_ms,
        "alg_ms": stats.alg_ms,
        "index_io_ms": stats.io_ms,
        "hits": stats.buffer_hits,
        "misses": stats.buffer_misses,
        "stop": result.stop_condition if result else "",
        "levels": result.levels_used if result else 0,
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


def replay_plans(strategy: str, plans, index, buffer: BufferState,
                 stats_list, scheduler: SchedulerConfig) -> None:
    """Charge modeled IO for recorded query plans under one strategy.

    This is the one place that pulls index buckets through a buffer.
    plans[i] is the pass list `knn_objects` (or `point_knn_c2lsh`) recorded
    for query i: one (g, R, ranges) per pass, where `ranges` is an int64
    array with one row (qi, lo, hi) per query point, the point's level-R
    bucket [lo, hi) in projection g. stats_list[i] is mutated in place:
    each access is billed to it and to `buffer.io_stats`, and the strategy's
    extra work goes to its `alg_ops`; `alg_ms` is left to the report's row
    builder.
    NS1 and MMLSH execute queries one after another; NS2 batches the whole
    set, reading each distinct useful bucket once per (level, projection)
    pass and checking every batched query against it.
    Only occupied buckets are visited, in the order `split_queries` gives:
    NS1 is its one-split case, whole ranges left to right, and MMLSH cuts
    each range into `query_splits` segments. A pass revisits its keys many
    times, so `_replay_pass` sends only its misses through `access_bucket`
    and bills each run of hits in between in one `bill_hits` step, with the
    result a call per access would give (see `buffering`). Each NS2 pass
    reads distinct buckets, so every NS2 access is a miss and goes through
    `access_bucket`. A scheduler configured for another strategy raises
    ValueError.
    """
    if scheduler.strategy != strategy:
        raise ValueError(f"replay_plans was asked for {strategy} with a scheduler "
                         f"configured for {scheduler.strategy}")
    if strategy == NS2:
        _replay_ns2_batch(plans, index, buffer, stats_list)
        return
    lists: dict = {}
    mmlsh = strategy == MMLSH
    evict = _MmlshEvictor(scheduler.profile) if mmlsh else evict_lru
    splits = scheduler.query_splits if mmlsh else 1
    for stats, plan in zip(stats_list, plans):
        for g, R, ranges in plan:
            ids, sizes = _occupied(index, g, lists)
            # the Python ordering runs faster on lists than on the array
            order, segments = split_queries(ranges.tolist(), splits, ids)
            if mmlsh:
                stats.alg_ops += segments  # segment dispatch overhead
            _replay_pass(g, R, order, ids, sizes, buffer, evict, stats)


def _replay_pass(g, R, order, ids, sizes, buffer: BufferState, evict, stats) -> None:
    """Pull one pass's buckets through the buffer, `order` being positions into `ids`.

    A hit admits and evicts nothing, so a key found resident stays resident
    until the next miss. The hits since the last miss are therefore queued
    and billed in one `bill_hits` step before the next miss and at the end
    of the pass, and each miss goes through `access_bucket` at its own tick.
    """
    resident = buffer.resident
    keys = {}  # position -> its bucket's key, built once per position
    hits = []  # positions of the hits since the last miss
    for p in order:
        key = keys.get(p)
        if key is None:
            key = keys[p] = (g, R, ids[p])
        if key in resident:
            hits.append(p)
            continue
        if hits:
            bill_hits(hits, keys, buffer, evict, stats)
            hits = []
        access_bucket(key, sizes[p], buffer, evict, stats)
    if hits:
        bill_hits(hits, keys, buffer, evict, stats)


def _replay_ns2_batch(plans, index, buffer: BufferState, stats_list) -> None:
    """Batched per-bucket execution across all queries (NS2 semantics).

    Each (R, g) pass, in ascending order, gathers the range arrays of every
    plan's (g, R) passes, a plan's repeats included, in plan order: rows
    (qi, lo, hi) whose qi becomes the plan's index. One `np.searchsorted`
    maps the bucket bounds to positions among the projection's occupied
    ids, which order them as the ids do, and `schedule_ns2` takes the
    distinct positions with their first consumers. Each bucket's read is
    billed to its first consumer; every range in the pass, empty or not,
    pays one membership-check operation per bucket read.
    """
    passes: dict[tuple, tuple] = {}  # (R, g) -> (plan index per array, range arrays)
    for query_idx, plan in enumerate(plans):
        for g, R, ranges in plan:
            owners, arrays = passes.setdefault((R, g), ([], []))
            owners.append(query_idx)
            arrays.append(ranges)
    occupied: dict = {}
    alg_ops = np.zeros(len(plans), dtype=np.int64)
    for (R, g) in sorted(passes):
        owners, arrays = passes[(R, g)]
        ranges = np.concatenate(arrays)
        ranges[:, 0] = np.repeat(owners, [len(a) for a in arrays])
        if g not in occupied:
            ids, counts = index.occupied_buckets(g)
            occupied[g] = ids, counts * POINT_ID_BYTES
        ids, sizes = occupied[g]
        ranges[:, 1:] = np.searchsorted(ids, ranges[:, 1:])
        positions, first = schedule_ns2(ranges)
        for bucket, size, query_idx in zip(ids[positions].tolist(), sizes[positions].tolist(),
                                           first.tolist()):
            access_bucket((g, R, bucket), size, buffer, evict_lru, stats_list[query_idx])
        alg_ops += np.bincount(ranges[:, 0], minlength=len(plans)) * len(positions)
    for stats, ops in zip(stats_list, alg_ops.tolist()):
        stats.alg_ops += ops


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
        res = knn_objects(q, cfg.k, index, dataset, gparams, plan=plan)
        walls.append((time.perf_counter() - t0) * 1e3)
        results.append(res)
        plans.append(plan)
    return results, plans, walls


def run_mmlsh_queries(cfg: RunConfig, dataset, index, queries, truth,
                      profile: FrequencyProfile | None = None, runs=None) -> list[dict]:
    """mmLSH rows of every (strategy, buffer_mb) run, by default the config's one.

    Each query's search runs once; each run replays the recorded plans onto
    copies of the queries' stats on a fresh buffer. An MMLSH run without a
    profile raises ValueError before any query runs.
    """
    runs = [(SchedulerConfig(strategy, cfg.query_splits, profile), buffer_mb)
            for strategy, buffer_mb in runs or [(cfg.strategy, cfg.buffer_mb)]]
    results, plans, walls = record_query_plans(cfg, dataset, index, queries)
    rows = []
    for scheduler, buffer_mb in runs:
        strategy = scheduler.strategy
        stats_list = [replace(res.stats) for res in results]
        replay_plans(strategy, plans, index, BufferState(int(buffer_mb * MB), CostModel()),
                     stats_list, scheduler)
        rows += [_row(cfg, truth, q, ("mmLSH", strategy, buffer_mb, ""),
                      [d for _, d in res.top_k], stats, wall_ms, res)
                 for q, res, stats, wall_ms in zip(queries, results, stats_list, walls)]
    return rows


SWEEP_STRATEGIES = (NS1, MMLSH)


def run_buffer_sweep(cfg: RunConfig, dataset, index, queries, truth,
                     profile: FrequencyProfile) -> list[dict]:
    """NS1 and MMLSH at every configured buffer size, from one recording of the queries."""
    runs = [(strategy, size) for size in cfg.buffer_sizes_mb for strategy in SWEEP_STRATEGIES]
    return run_mmlsh_queries(cfg, dataset, index, queries, truth, profile, runs)


def run_borda_baselines(cfg: RunConfig, dataset, index, queries, truth) -> list[dict]:
    """LinearSearch-Borda and C2LSH-Borda rows for every configured k'.

    The protocol retrieves k' >= k points per query point, so a k' below
    k raises ParameterError rather than being skipped.
    """
    below = [k_prime for k_prime in cfg.k_primes if k_prime < cfg.k]
    if below:
        raise ParameterError(f"k_primes {below} are below k={cfg.k}; each k' must be >= k")

    def linear(q, k_prime):
        # exact point retrieval: no index, no buffer, modeled scan cost only
        rankings = point_knn_linear(q.coords, dataset, k_prime)
        return rankings, QueryStats(alg_ops=len(q.coords) * dataset.n), "", ""

    def c2lsh(q, k_prime):
        stats = QueryStats()
        plan: list = []
        rankings = [point_knn_c2lsh(p, index, dataset, k_prime, stats=stats, plan=plan)[0]
                    for p in q.coords]
        # the query object's point searches share one buffer, read in order
        replay_plans(NS1, [plan], index, BufferState(int(cfg.buffer_mb * MB), CostModel()),
                     [stats], SchedulerConfig(strategy=NS1))
        return rankings, stats, NS1, cfg.buffer_mb

    rows = []
    for k_prime in cfg.k_primes:
        for q in queries:
            for method, search in (("Linear-Borda", linear), ("C2LSH-Borda", c2lsh)):
                t0 = time.perf_counter()
                rankings, stats, strategy, buffer_mb = search(q, k_prime)
                top = borda_aggregate(rankings, dataset, cfg.k, k_prime)
                wall_ms = (time.perf_counter() - t0) * 1e3
                ranks = np.searchsorted(dataset.object_ids, [oid for oid, _ in top])
                dists = gamma_distances(q.coords, dataset, ranks, cfg.gamma).tolist()
                rows.append(_row(cfg, truth, q, (method, strategy, buffer_mb, k_prime), dists,
                                 stats, wall_ms))
    return rows


def aggregate(rows: list[dict]) -> list[dict]:
    """Mean and standard deviation per (method, strategy, buffer, k'), of finite values.

    Counts stand in both rows: of answered queries, of flagged ratios and,
    for mmLSH, of bound warnings. `or_gamma` averages the finite ratios, so
    `answered` says how many queries the mean can speak for.
    """
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[col] for col in GROUP_COLUMNS), []).append(row)
    out = []
    for key, members in sorted(groups.items(), key=lambda t: str(t[0])):
        mean = dict.fromkeys(REPORT_COLUMNS, "")
        mean.update(zip(GROUP_COLUMNS, key), query_object_id="MEAN",
                    answered=sum(r["answered"] for r in members),
                    or_flagged=sum(r["or_flagged"] for r in members))
        std = dict(mean, query_object_id="STD")
        bounds = [r["gamma_min_bound"] for r in members if r["gamma_min_bound"] != ""]
        if bounds:
            mean["bound_warning"] = std["bound_warning"] = sum(r["bound_warning"] for r in members)
            mean["gamma_min_bound"], std["gamma_min_bound"] = _finite_mean_std(bounds)
        for col in ("or_gamma", "total_ms", "alg_ms", "index_io_ms", "hits", "misses", "levels",
                    "wall_ms"):
            mean[col], std[col] = _finite_mean_std([r[col] for r in members])
        out += [mean, std]
    return out


def _finite_mean_std(values) -> tuple[float, float]:
    """Mean and standard deviation of the finite values; (inf, nan) if there are none."""
    finite = [v for v in values if np.isfinite(v)]
    return (float(np.mean(finite)), float(np.std(finite))) if finite else (math.inf, math.nan)


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
    if profile is not None:
        if profile.means.shape[0] != index.m:
            raise ProfileFileError(f"{cfg.profile_path}: profile has {profile.means.shape[0]} "
                                   f"projections, the index has m={index.m}")
        # a profile's regions span exactly its own index's occupied buckets
        if not (np.array_equal(profile.edges[:, 0], index.bucket_lo)
                and np.array_equal(profile.edges[:, -1], index.bucket_hi + 1)):
            raise ProfileFileError(f"{cfg.profile_path}: profile regions do not span the "
                                   f"index's buckets; it was built for another index")
    return index, profile
