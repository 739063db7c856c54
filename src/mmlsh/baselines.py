"""Ground-truth oracles and comparison baselines.

The exact object k-NN oracle brute-forces the object distance to every
object and is the single correctness reference for accuracy metrics. The two
baselines mirror the classical aggregation pipeline: retrieve top-k' points
per query point (exactly, or approximately with point-level collision
counting over the same index), then fuse the per-point rankings into an
object ranking with a positional Borda count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .lsh import LshIndex, level_cap, reach_range
from .model import Dataset, QueryObject
# perfbench/harness.py wraps `baselines.gamma_distance` by name, so it stays importable
from .similarity import gamma_distance, gamma_distances, rows_within_kth  # noqa: F401


_KEY_PREFIX = "# key: "  # first line of a keyed ground-truth cache


@dataclass
class GroundTruth:
    """Full exact object ranking for one query: ids and distances, ascending."""

    query_object_id: int
    object_ids: list
    distances: list

    def prefix(self, k: int):
        return list(zip(self.object_ids[:k], self.distances[:k]))


def exact_knn_objects(query: QueryObject, dataset: Dataset, k: int, gamma: float) -> list:
    """Exact top-k objects by brute-force object distance; ties by object id."""
    return full_ranking(query, dataset, gamma).prefix(k)


def full_ranking(query: QueryObject, dataset: Dataset, gamma: float) -> GroundTruth:
    """Every object by ascending object distance, ties by ascending object id."""
    dists = gamma_distances(query.coords, dataset, np.arange(dataset.num_objects), gamma)
    order = np.lexsort((dataset.object_ids, dists))
    return GroundTruth(query_object_id=query.object_id,
                       object_ids=dataset.object_ids[order].tolist(),
                       distances=dists[order].tolist())


def point_knn_linear(q_coords, dataset: Dataset, k_prime: int) -> list:
    """Exact Euclidean top-k' points of each query point by linear scan.

    `q_coords` is the (|Q|, d) query points. One float32 product against
    every point narrows each query point's rows to those that may be among
    its k' nearest, ties included (`similarity.rows_within_kth`), and `cdist`
    measures those exactly. When the product cannot narrow them, the dataset
    is widened to float64 and measured against every point in one `cdist`
    call. Returns one list of (row, dist) per query point, ties by row.
    """
    q = np.asarray(q_coords, dtype=np.float64)
    kept = rows_within_kth(q, dataset.coords, k_prime) if 0 < k_prime < dataset.n else None
    if kept is None:
        return [_nearest_rows(dists, k_prime)
                for dists in cdist(q, dataset.coords.astype(np.float64))]
    return [_nearest_rows(cdist(p[None], dataset.coords[rows].astype(np.float64))[0], k_prime, rows)
            for p, rows in zip(q, kept)]


def _nearest_rows(dists: np.ndarray, k_prime: int, rows=None) -> list:
    """(row, dist) of the k' smallest distances, ties by row.

    dists[i] is the distance of row rows[i] (default i); rows ascend.
    """
    if 0 < k_prime < dists.size:
        # every row within the k'-th distance, ties included, in row order:
        # sorting these by distance, stably, is the full sort's prefix
        kth = dists[np.argpartition(dists, k_prime - 1)[k_prime - 1]]
        keep = np.flatnonzero(dists <= kth)
    else:
        keep = np.arange(dists.size)
    order = keep[np.argsort(dists[keep], kind="stable")][:k_prime]
    ids = order if rows is None else rows[order]
    return list(zip(ids.tolist(), dists[order].tolist()))


def point_knn_c2lsh(q_coords, index: LshIndex, dataset: Dataset, k_prime: int,
                    beta_n: float | None = None, max_levels: int | None = None,
                    stats=None, plan: list | None = None):
    """Approximate top-k' points by collision counting with virtual rehashing.

    Point-level analog of the object search: a point becomes a candidate once
    its collision count reaches l; the scan stops when k' candidates are
    verified within c*R at a level start, or when k' + beta*n candidates
    exist, or after `max_levels` levels (default: `level_cap(c)`). Returns
    ((row, dist) list, complete flag), ties by row.

    A QueryStats collects collision increments and algorithm operations. A
    `plan` list collects every executed pass as (projection g, level R,
    ranges) in the shape `knn_objects` records, so `bench.replay_plans` can
    charge the baseline's modeled IO like the object engine's: `ranges` is a
    (1, 3) int64 array holding the one row (0, lo, hi), the query point's
    level-R bucket [lo, hi). It is a row view of one (m, 3) array per level.

    Only candidates need a distance: a row's is computed once, at the first
    check after its count reaches l.
    """
    q = np.asarray(q_coords, dtype=np.float64)
    params = index.params
    n = index.n
    allowed_fp = beta_n if beta_n is not None else params.beta * n
    if max_levels is None:
        max_levels = level_cap(params.c)
    counts = np.zeros(n, dtype=np.int32)
    q_base = index.hash_query(q)
    lo_cov = np.full(index.m, np.iinfo(np.int64).max, dtype=np.int64)
    hi_cov = np.full(index.m, np.iinfo(np.int64).min, dtype=np.int64)
    reach_lo, reach_hi = reach_range(index, q_base)

    dists = np.full(n, np.nan)  # a row's distance, once it is a candidate

    def candidates():
        rows = np.nonzero(counts >= params.l)[0]
        new = rows[np.isnan(dists[rows])]
        if new.size:
            dists[new] = cdist(q.reshape(1, -1), dataset.coords[new].astype(np.float64))[0]
        return rows

    def ranked(rows):
        rows = rows[np.argsort(dists[rows], kind="stable")][:k_prime]
        return list(zip(rows.tolist(), dists[rows].tolist()))

    R = 1
    num_iter = 1
    for _ in range(max_levels):
        cand_rows = candidates()
        if cand_rows.size and np.count_nonzero(dists[cand_rows] <= params.c * R) >= k_prime:
            return ranked(cand_rows), True
        if cand_rows.size >= k_prime + allowed_fp:
            return ranked(cand_rows), True
        covered = bool(np.all(
            (reach_lo >= reach_hi) | ((lo_cov <= reach_lo) & (hi_cov >= reach_hi))))
        if covered:
            break
        # the level's bucket [qb*R, qb*R + R) in every projection, as plan rows (0, lo, hi)
        level = np.zeros((index.m, 3), dtype=np.int64)
        level[:, 1] = np.floor_divide(q_base, R) * R
        level[:, 2] = level[:, 1] + R
        for g, (lo, hi) in enumerate(level[:, 1:].tolist()):
            if plan is not None:
                plan.append((g, R, level[g:g + 1]))
            if lo_cov[g] > hi_cov[g]:
                segments = [(lo, hi)]
            else:
                segments = [(lo, int(lo_cov[g])), (int(hi_cov[g]), hi)]
            for s0, s1 in segments:
                s0 = max(s0, int(index.bucket_lo[g]))
                s1 = min(s1, int(index.bucket_hi[g]) + 1)
                if s0 < s1:
                    rows = index.range_rows(g, s0, s1)
                    counts[rows] += 1
                    if stats is not None:
                        stats.collision_increments += rows.size
                        stats.alg_ops += rows.size
            lo_cov[g], hi_cov[g] = lo, hi
        R = params.c ** num_iter
        num_iter += 1
    result = ranked(candidates())
    return result, len(result) >= k_prime


def borda_aggregate(per_point_rankings, dataset: Dataset, k: int, k_prime: int | None = None) -> list:
    """Fuse per-point rankings into an object ranking by positional scoring.

    A point at 1-based rank r contributes k' - r + 1 to its owning object;
    unranked objects score zero. Objects are returned best first, ties broken
    by ascending object id; the result is the top-k (object_id, score) list.
    """
    if k_prime is None:
        k_prime = max((len(r) for r in per_point_rankings), default=0)
    scores = {}
    for ranking in per_point_rankings:
        if len(ranking) > k_prime:
            raise ValueError("ranking longer than k_prime")
        rows = [item[0] if isinstance(item, tuple) else item for item in ranking]
        owners = dataset.object_ids[dataset.point_object_index[rows]].tolist()
        for r, oid in enumerate(owners, start=1):
            scores[oid] = scores.get(oid, 0) + (k_prime - r + 1)
    ranked = sorted(scores.items(), key=lambda t: (-t[1], t[0]))
    return ranked[:k]


def save_ground_truth(truths: list, path, key: str | None = None) -> None:
    """Persist exact rankings as `query_object_id,rank,object_id,gamma_distance`.

    A `key` naming what the rankings were computed for is written as a
    leading `# key: ...` comment line; `ground_truth_key` reads it back.
    """
    with open(path, "w", newline="") as fh:
        if key is not None:
            fh.write(f"{_KEY_PREFIX}{key}\n")
        writer = csv.writer(fh)
        writer.writerow(["query_object_id", "rank", "object_id", "gamma_distance"])
        for gt in truths:
            for rank, (oid, dist) in enumerate(zip(gt.object_ids, gt.distances), start=1):
                writer.writerow([gt.query_object_id, rank, oid, repr(dist)])


def load_ground_truth(path) -> dict:
    """Load a ground-truth cache back into {query_object_id: GroundTruth}."""
    by_query = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in reader:
            qid = int(row["query_object_id"])
            entry = by_query.setdefault(qid, GroundTruth(qid, [], []))
            entry.object_ids.append(int(row["object_id"]))
            entry.distances.append(float(row["gamma_distance"]))
    return by_query


def ground_truth_key(path) -> str | None:
    """The key a ground-truth cache was saved with, or None if it has none."""
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\n")
    return first[len(_KEY_PREFIX):] if first.startswith(_KEY_PREFIX) else None
