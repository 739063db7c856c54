"""Euclidean LSH hash family, parameter derivation, index build and persistence.

Each of the m projections is a random line: h(x) = floor((a.x + b) / w) with
a drawn from the standard normal distribution and b uniform in [0, w).
Widening the search coalesces c^t consecutive base buckets per level instead
of rebuilding anything (virtual rehashing), which is why the per-projection
tables are kept sorted by base bucket id: a level-R bucket is a contiguous
slice of the table.

Index file format, version 2 (all integers and floats little-endian):

    header   magic b"MMLSHIX2", version int32 = 2,
             params (c int32, w, delta, beta, p1, p2, z float64, m, l int32),
             seed int64, m, n, d int32,
             a (m, d) float64, b (m,) float64
    body     per projection g: the occupied-bucket count k int32, the k
             ascending occupied base bucket ids int64, their point counts
             int32, and the n dataset rows grouped by bucket int32
    trailer  sha256 of everything before it

So a point id costs 4 bytes on disk, as the buffer cost model charges.
`load_index` rejects a file of another version and a body whose bucket
table is malformed. In memory an `LshIndex` keeps the same three arrays per
projection, with the rows widened to int64.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import IndexFileError, ParameterError
from .model import Dataset

DEFAULT_W = 2.184
DEFAULT_C = 2

# Base buckets are clamped to +-BUCKET_LIMIT (see hash_points) and level
# widths R stay below it (see level_cap), so level intervals
# [qb*R, qb*R + R) fit in int64.
BUCKET_LIMIT = 2 ** 62

# m grows as ln(1/delta); beyond this many projections the parameters are refused
MAX_PROJECTIONS = 1024

_MAGIC_PREFIX = b"MMLSHIX"
_VERSION = 2
_MAGIC = _MAGIC_PREFIX + str(_VERSION).encode()
_PARAMS = struct.Struct("<i6d2i")
_SHAPE = struct.Struct("<q3i")
_COUNT = struct.Struct("<i")
_DIGEST_BYTES = 32
MAX_ROWS = 2 ** 31 - 1  # point rows are stored as int32


@dataclass(frozen=True)
class LshParams:
    c: int
    w: float
    delta: float
    beta: float
    p1: float
    p2: float
    z: float
    m: int
    l: int

    def __post_init__(self):
        if self.p1 <= self.p2:
            raise ParameterError(f"need p1 > p2, got p1={self.p1}, p2={self.p2}")
        if not 1 <= self.l <= self.m:
            raise ParameterError(f"need 1 <= l <= m, got l={self.l}, m={self.m}")
        if self.m > MAX_PROJECTIONS:  # m <= 1024 keeps a collision-count lane within 11 bits
            raise ParameterError(f"m={self.m} is more than MAX_PROJECTIONS={MAX_PROJECTIONS}")
        if not 2 <= self.c < 2 ** 31:  # the index file stores c as int32
            raise ParameterError(f"approximation ratio c must be an integer in [2, 2**31), got {self.c}")


def collision_probability(s: float, w: float) -> float:
    """Single-projection collision probability for two points at distance s.

    Closed form for the p-stable Euclidean family:
    p(s) = 1 - 2*Phi(-w/s) - (2s / (sqrt(2 pi) w)) * (1 - exp(-w^2 / (2 s^2)))
    with p(0) = 1 by continuity. Strictly decreasing in s for fixed w.
    """
    if w <= 0:
        raise ParameterError("w must be positive")
    if s < 0:
        raise ParameterError("distance scale s must be >= 0")
    if s == 0:
        return 1.0
    t = w / s
    # 2 Phi(-t) = erfc(t / sqrt(2))
    return 1.0 - math.erfc(t * math.sqrt(0.5)) - (2.0 / (math.sqrt(2.0 * math.pi) * t)) * (1.0 - math.exp(-(t * t) / 2.0))


def derive_params(delta: float, beta: float, c: int = DEFAULT_C, w: float = DEFAULT_W) -> LshParams:
    """Derive (p1, p2, z, m, l) from the accuracy knobs.

    m = ceil(ln(1/delta) / (2 (p1-p2)^2) * (1+z)^2) with z = sqrt(ln(2/beta)/ln(1/delta)),
    and the collision threshold l = ceil(alpha * m), alpha = (z p1 + p2) / (1 + z).
    """
    if not 0 < delta < 1 or not 0 < beta < 1:
        raise ParameterError("delta and beta must be in (0, 1)")
    if not (math.isfinite(w) and w > 0):
        raise ParameterError(f"w must be finite and > 0, got {w!r}")
    p1 = collision_probability(1.0, w)
    p2 = collision_probability(float(c), w)
    if p1 <= p2:
        raise ParameterError(f"degenerate family: p1={p1} <= p2={p2} for c={c}, w={w}")
    z = math.sqrt(math.log(2.0 / beta) / math.log(1.0 / delta))
    m = math.ceil(math.log(1.0 / delta) / (2.0 * (p1 - p2) ** 2) * (1.0 + z) ** 2)
    if m > MAX_PROJECTIONS:
        raise ParameterError(f"delta={delta} and beta={beta} derive m={m} projections, more "
                             f"than MAX_PROJECTIONS={MAX_PROJECTIONS}; raise delta or beta")
    alpha = (z * p1 + p2) / (1.0 + z)
    l = math.ceil(alpha * m)
    return LshParams(c=int(c), w=float(w), delta=float(delta), beta=float(beta),
                     p1=p1, p2=p2, z=z, m=int(m), l=int(l))


def level_cap(c: int) -> int:
    """Number of levels a search may run: the largest L with c**L <= 2**62.

    Levels use R = 1, c, ..., c**(L-1) <= 2**61; for c = 2 this is 62 levels.
    """
    levels = 0
    while c ** (levels + 1) <= BUCKET_LIMIT:
        levels += 1
    return levels


def hash_points(coords, a: np.ndarray, b: np.ndarray, w: float) -> np.ndarray:
    """Base buckets floor((X @ a.T + b) / w) of one point (d,) or of many (n, d).

    Clamped to +-BUCKET_LIMIT before the int64 cast, so an extreme coordinate
    lands in an edge bucket instead of wrapping around.
    """
    raw = np.floor((np.asarray(coords, dtype=np.float64) @ a.T + b) / w)
    return np.clip(raw, -BUCKET_LIMIT, BUCKET_LIMIT, out=raw).astype(np.int64)


def reach_range(index: LshIndex, q_base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per projection, the base-bucket range [lo, hi) a query base bucket can reach.

    Dyadic level-R intervals [qb*R, qb*R + R) always stay on one side of
    bucket 0, so a query bucket never reaches data buckets across zero.
    q_base is (m,) for one query point or (|Q|, m) for many.
    """
    nonneg = q_base >= 0
    lo = np.where(nonneg, np.maximum(index.bucket_lo, 0), index.bucket_lo)
    hi = np.where(nonneg, index.bucket_hi + 1, np.minimum(index.bucket_hi + 1, 0))
    return lo, hi


class LshIndex:
    """m per-projection bucket tables over one dataset's points, as the index file stores them.

    Projection g's table is `bucket_ids[g]`, its occupied base bucket ids
    ascending, `bucket_counts[g]`, their point counts, and `point_rows[g]`,
    the dataset rows grouped by bucket in that order. A bucket range is
    then a binary search over the occupied ids.
    """

    def __init__(self, params: LshParams, a: np.ndarray, b: np.ndarray, bucket_ids,
                 bucket_counts, point_rows: np.ndarray, seed: int):
        self.params = params
        self.a = a                              # (m, d) projection vectors
        self.b = b                              # (m,) offsets
        self.bucket_ids = list(bucket_ids)      # per projection, ascending int64 occupied ids
        self.bucket_counts = list(bucket_counts)  # per projection, their int64 point counts
        self.point_rows = point_rows            # (m, n) int64 dataset rows grouped by bucket
        self.seed = int(seed)
        self.m, self.n = point_rows.shape
        self.bucket_lo = np.array([ids[0] for ids in self.bucket_ids], dtype=np.int64)
        self.bucket_hi = np.array([ids[-1] for ids in self.bucket_ids], dtype=np.int64)
        # per projection, where each bucket's rows start in point_rows[g], then n
        self._offsets = [np.concatenate(([0], np.cumsum(counts))) for counts in self.bucket_counts]

    @property
    def dimension(self) -> int:
        return self.a.shape[1]

    @property
    def buckets(self) -> np.ndarray:
        """(m, n) int64 base bucket id of each entry of point_rows, expanded on every read."""
        table = np.empty((self.m, self.n), dtype=np.int64)
        for g, (ids, counts) in enumerate(zip(self.bucket_ids, self.bucket_counts)):
            table[g] = np.repeat(ids, counts)
        return table

    def hash_query(self, coords) -> np.ndarray:
        """Base bucket ids under all m projections: (m,) for one point, (n, m) for many."""
        return hash_points(coords, self.a, self.b, self.params.w)

    def holds(self, dataset: Dataset) -> bool:
        """Whether n and d match `dataset`'s and each stored row sits in the bucket it hashes to."""
        if (self.n, self.dimension) != (dataset.n, dataset.dimension):
            return False
        hashed = self.hash_query(dataset.coords)
        return all(np.array_equal(hashed[rows, g], np.repeat(ids, counts))
                   for g, (rows, ids, counts)
                   in enumerate(zip(self.point_rows, self.bucket_ids, self.bucket_counts)))

    def range_rows(self, g: int, lo: np.ndarray, hi: np.ndarray):
        """(rows, starts, stops), where rows[starts[j]:stops[j]] are the rows in bucket range j.

        Range j is [lo[j], hi[j]) of projection g, empty if hi[j] <= lo[j]; `rows` is the table.
        """
        bounds = self._offsets[g][np.searchsorted(self.bucket_ids[g], np.concatenate((lo, hi)))]
        return self.point_rows[g], bounds[:len(lo)], bounds[len(lo):]

    def bucket_sizes(self, g: int, lo: int, hi: int) -> np.ndarray:
        """Point count of every base bucket id in [lo, hi) of projection g."""
        ids = self.bucket_ids[g]
        i0, i1 = np.searchsorted(ids, (lo, hi))
        sizes = np.zeros(max(hi - lo, 0), dtype=np.int64)
        sizes[ids[i0:i1] - lo] = self.bucket_counts[g][i0:i1]
        return sizes

    def occupied_buckets(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Occupied base bucket ids of projection g, ascending, and their point counts."""
        return self.bucket_ids[g], self.bucket_counts[g]


def build_index(data: Dataset, params: LshParams, seed: int) -> LshIndex:
    """Hash every dataset point under m seeded projections and sort the tables.

    Each projection draws from its own spawned substream, so construction is
    reproducible and could be parallelized per projection without changing
    the result.

    Each projection is sorted once, on a narrow key: a point's offset from
    the projection's lowest base bucket. Subtracting one constant keeps the
    order of the buckets and of their ties, so one stable argsort of the
    offsets groups the rows exactly as a stable argsort of the buckets
    does, and the occupied ids and their counts are read off the sorted
    run. The offsets are cast to the smallest unsigned type that holds the
    largest one: numpy sorts keys of 16 bits or fewer with a radix sort,
    and a projection of the benchmark spans a few dozen buckets. Clamped
    buckets can span 2**62 - (-2**62) = 2**63, one more than int64 holds,
    so the offsets are taken in uint64, where that span fits.
    """
    if data.n == 0:
        raise ValueError("cannot index an empty dataset")
    d = data.dimension
    children = np.random.SeedSequence(seed).spawn(params.m)
    a = np.empty((params.m, d), dtype=np.float64)
    b = np.empty(params.m, dtype=np.float64)
    for g, child in enumerate(children):
        rng = np.random.default_rng(child)
        a[g] = rng.normal(0.0, 1.0, size=d)
        b[g] = rng.uniform(0.0, params.w)
    raw = hash_points(data.coords, a, b, params.w)  # (n, m)
    lows, highs = raw.min(axis=0), raw.max(axis=0)
    point_rows = np.empty((params.m, data.n), dtype=np.int64)
    bucket_ids, bucket_counts = [], []
    for g in range(params.m):
        column = raw[:, g]
        offsets = column.view(np.uint64) - lows.view(np.uint64)[g]  # mod 2**64: 0 .. 2**63
        key = offsets.astype(np.min_scalar_type(int(highs[g]) - int(lows[g])), copy=False)
        order = np.argsort(key, kind="stable")
        point_rows[g] = order
        run = key[order]
        firsts = np.flatnonzero(np.concatenate(([True], run[1:] != run[:-1])))
        bucket_ids.append(column[order[firsts]])
        bucket_counts.append(np.diff(firsts, append=data.n))
    return LshIndex(params=params, a=a, b=b, bucket_ids=bucket_ids, bucket_counts=bucket_counts,
                    point_rows=point_rows, seed=seed)


def save_index(index: LshIndex, path) -> None:
    """Write `index` to `path` in format version 2 (see the module docstring).

    The file is streamed one projection at a time through an incremental
    sha256, whose digest is the trailer, so no copy of the whole file is
    ever built. It is written through `replacing`, so an interrupted save
    leaves any previous index whole.
    An index of 2**31 points or more does not fit the int32 point rows and
    is refused before anything is written.
    """
    if index.n > MAX_ROWS:
        raise IndexFileError(f"n={index.n} points do not fit the index file's int32 point rows")
    digest = hashlib.sha256()
    with replacing(path) as fh:
        def put(chunk):
            digest.update(chunk)
            fh.write(chunk)

        p = index.params
        put(_MAGIC + _COUNT.pack(_VERSION))
        put(_PARAMS.pack(p.c, p.w, p.delta, p.beta, p.p1, p.p2, p.z, p.m, p.l))
        put(_SHAPE.pack(index.seed, index.m, index.n, index.dimension))
        put(np.ascontiguousarray(index.a, dtype="<f8"))
        put(np.ascontiguousarray(index.b, dtype="<f8"))
        for g in range(index.m):
            ids, counts = index.occupied_buckets(g)
            put(_COUNT.pack(ids.size))
            put(ids.astype("<i8"))
            put(counts.astype("<i4"))
            put(index.point_rows[g].astype("<i4"))
        fh.write(digest.digest())


@contextlib.contextmanager
def replacing(path, mode: str = "wb", **open_args):
    """Open a temporary file next to `path`; once the block succeeds, rename it over `path`.

    A failed or interrupted write leaves any previous file whole and no temporary file.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_index(path) -> LshIndex:
    """Read an index file of format version 2 (see the module docstring).

    The checksum is checked first. Then each projection's bucket table is
    checked: the occupied ids ascending strictly within +-BUCKET_LIMIT,
    positive counts summing to n, and rows forming a permutation of 0..n-1.
    Any other version or a malformed table raises IndexFileError, so a bad
    file fails here and not in a later search. The index keeps copies of the
    three arrays, the rows widened into one preallocated (m, n) int64 table,
    and no view into the file's bytes.
    """
    blob = np.fromfile(path, dtype=np.uint8)
    if blob.size < len(_MAGIC) + _COUNT.size + _DIGEST_BYTES:
        raise IndexFileError("file too short to be an index")
    payload = blob[:-_DIGEST_BYTES]
    if hashlib.sha256(payload).digest() != blob[-_DIGEST_BYTES:].tobytes():
        raise IndexFileError("checksum mismatch (truncated or corrupted index file)")
    if payload[:len(_MAGIC_PREFIX)].tobytes() != _MAGIC_PREFIX:
        raise IndexFileError("bad magic bytes")
    (version,) = _COUNT.unpack_from(payload, len(_MAGIC))
    if version != _VERSION or payload[:len(_MAGIC)].tobytes() != _MAGIC:
        raise IndexFileError(f"unsupported index version {version}")
    off = len(_MAGIC) + _COUNT.size

    def span(nbytes):
        nonlocal off
        if off + nbytes > payload.size:
            raise IndexFileError("index file ends early")
        off += nbytes
        return off - nbytes

    def unpack(layout):
        return layout.unpack_from(payload, span(layout.size))

    def take(count, dtype):
        dtype = np.dtype(dtype)
        return np.frombuffer(payload, dtype=dtype, count=count, offset=span(count * dtype.itemsize))

    c, w, delta, beta, p1, p2, z, m, l = unpack(_PARAMS)
    params = LshParams(c=c, w=w, delta=delta, beta=beta, p1=p1, p2=p2, z=z, m=m, l=l)
    seed, m, n, d = unpack(_SHAPE)
    if m != params.m or n < 1 or d < 1:
        raise IndexFileError(f"shape m={m} n={n} d={d} does not fit the params (m={params.m})")
    a = take(m * d, "<f8").reshape(m, d).astype(np.float64)
    b = take(m, "<f8").astype(np.float64)
    # each projection holds at least one bucket and n rows: check before allocating (m, n)
    if off + m * (_COUNT.size + 12 + 4 * n) > payload.size:
        raise IndexFileError("index file ends early")
    point_rows = np.empty((m, n), dtype=np.int64)
    bucket_ids, bucket_counts = [], []
    seen = np.empty(n, dtype=bool)
    for g in range(m):
        (k,) = unpack(_COUNT)
        if not 1 <= k <= n:
            raise IndexFileError(f"projection {g}: {k} occupied buckets for n={n} points")
        ids, counts = take(k, "<i8"), take(k, "<i4").astype(np.int64)
        if (np.any(ids[1:] <= ids[:-1]) or ids[0] < -BUCKET_LIMIT or ids[-1] > BUCKET_LIMIT):
            raise IndexFileError(f"projection {g}: occupied bucket ids are not strictly "
                                 f"ascending within +-2**62")
        if counts.min() <= 0 or counts.sum() != n:
            raise IndexFileError(f"projection {g}: bucket sizes are not positive counts "
                                 f"summing to n={n}")
        rows = point_rows[g]
        rows[:] = take(n, "<i4")
        if rows.min() < 0 or rows.max() >= n:
            raise IndexFileError(f"projection {g}: a point row lies outside [0, {n})")
        seen[:] = False
        seen[rows] = True
        if not seen.all():
            raise IndexFileError(f"projection {g}: a point row appears twice")
        bucket_ids.append(ids.astype(np.int64))  # a copy, as are the counts
        bucket_counts.append(counts)
    if off != payload.size:
        raise IndexFileError("trailing bytes in index file")
    return LshIndex(params=params, a=a, b=b, bucket_ids=bucket_ids, bucket_counts=bucket_counts,
                    point_rows=point_rows, seed=seed)
