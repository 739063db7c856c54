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

from .engine import CollisionState, check_t1, check_t2, count_collisions
from .lsh import LshIndex, level_cap, replacing
from .model import Dataset, QueryObject
# perfbench/harness.py wraps `baselines.gamma_distance` by name, so it stays importable
from .similarity import euclidean, gamma_distance, gamma_distances, rows_within_kth  # noqa: F401


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

    `q_coords` is the (|Q|, d) query points. One matrix product against
    every point narrows each query point's rows to those that may be among
    its k' nearest, ties included (`similarity.rows_within_kth`), and
    `euclidean` measures each point against its kept rows, exactly as
    `cdist` does. Returns one list of (row, dist) per query point, ties by row.
    """
    q = np.asarray(q_coords, dtype=np.float64)
    kept = rows_within_kth(q, dataset, k_prime)
    return [_nearest_rows(euclidean(p, dataset.coords[rows]), k_prime, rows)
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
                    stats=None, plan: list | None = None) -> list:
    """Approximate top-k' points of each query point by collision counting with virtual rehashing.

    `q_coords` is the (|Q|, d) points of one query object. Each point runs
    the point-level analog of the object search: a row is its candidate once
    their collision count reaches l, and at a level start the point stops
    when k' candidates are verified within c*R, when k' + beta*n candidates
    exist, when it is covered as far as it can reach, or after
    `level_cap(c)` levels. Every point is a row of one `CollisionState`
    until the search ends: a point that stops is `stop`ped there, so it
    covers every bucket and counts nothing more. Each level is one
    `count_collisions` call over the state and all m projections: nothing is
    checked within a level. Returns one ranking per point: the (row, dist)
    list of its k' nearest candidates, ties by row.

    A QueryStats collects the increments and algorithm operations. A `plan`
    list collects every pass as (projection g, level R, ranges) in the shape
    `knn_objects` records, so `bench.replay_plans` can charge it: `ranges`
    is a (1, 3) int64 array holding the one row (0, lo, hi), the point's
    level-R bucket [lo, hi). Each point's passes follow the previous
    point's. A row's distance is computed once, when it first is a candidate.
    """
    q = np.asarray(q_coords, dtype=np.float64)
    params, n, q_count = index.params, index.n, len(q)
    # each point is hashed alone, as a search for that point alone hashes it
    q_base = np.array([index.hash_query(p) for p in q]).reshape(q_count, index.m)
    state = CollisionState(q_base, index, dataset)
    searching = np.ones(q_count, dtype=bool)
    dists = np.full((q_count, n), np.nan)  # a row's distance, once it is a candidate
    results = [None] * q_count
    passes = [[] for _ in range(q_count)]

    R, last = 1, level_cap(params.c)
    for level in range(last + 1):
        covered = state.covered(R // params.c)
        for i in np.flatnonzero(searching).tolist():
            rows = state.qualified_rows(i)
            d = dists[i]
            new = rows[np.isnan(d[rows])]
            if new.size:
                d[new] = euclidean(q[i], dataset.coords[new])
            if (level == last or covered[i] or check_t1(rows.size, k_prime, params.beta, n)
                    or rows.size and check_t2(d[rows], k_prime, params.c * R)):
                results[i] = _nearest_rows(d[rows], k_prime, rows)
                searching[i] = False
        if not searching.any():
            break
        state.stop(~searching)
        inc = count_collisions(state, range(index.m), R)
        if stats is not None:
            stats.collision_increments += inc
            stats.alg_ops += inc
        if plan is not None:  # counted in level order, a pass covers each point's level-R bucket
            lo = np.floor_divide(state.q_base, R) * R
            level_rows = np.stack((np.zeros_like(lo), lo, lo + R), 2)
            for i in np.flatnonzero(searching).tolist():
                passes[i] += [(g, R, level_rows[i, g:g + 1]) for g in range(index.m)]
        R *= params.c
    if plan is not None:
        plan += [p for point_passes in passes for p in point_passes]
    return results


def borda_aggregate(per_point_rankings, dataset: Dataset, k: int, k_prime: int) -> list:
    """Fuse per-point rankings into an object ranking by positional scoring.

    A point at 1-based rank r contributes k' - r + 1 to its owning object;
    unranked objects score zero. Objects are returned best first, ties broken
    by ascending object id; the result is the top-k (object_id, score) list.
    Each ranking is a list of (row, dist) pairs, as the point searches return.
    """
    scores = {}
    for ranking in per_point_rankings:
        if len(ranking) > k_prime:
            raise ValueError("ranking longer than k_prime")
        rows = [row for row, _dist in ranking]
        owners = dataset.object_ids[dataset.point_object_index[rows]].tolist()
        for r, oid in enumerate(owners, start=1):
            scores[oid] = scores.get(oid, 0) + (k_prime - r + 1)
    ranked = sorted(scores.items(), key=lambda t: (-t[1], t[0]))
    return ranked[:k]


def save_ground_truth(truths: list, path) -> None:
    """Write exact rankings as `query_object_id,rank,object_id,gamma_distance` rows.

    A header line comes first. Each distance is written as its `repr`, so
    `float` parses it back to the same bits. The file is written through
    `lsh.replacing`, so an interrupted write leaves any previous file whole.
    """
    with replacing(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_object_id", "rank", "object_id", "gamma_distance"])
        for gt in truths:
            for rank, (oid, dist) in enumerate(zip(gt.object_ids, gt.distances), start=1):
                writer.writerow([gt.query_object_id, rank, oid, repr(dist)])
