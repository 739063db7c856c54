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
table is malformed, and widens the tables back to (m, n) int64 in memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

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
        if self.c < 2:
            raise ParameterError("approximation ratio c must be an integer >= 2")


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
    return float(1.0 - 2.0 * norm.cdf(-t) - (2.0 / (math.sqrt(2.0 * math.pi) * t)) * (1.0 - math.exp(-(t * t) / 2.0)))


def derive_params(delta: float, beta: float, c: int = DEFAULT_C, w: float = DEFAULT_W) -> LshParams:
    """Derive (p1, p2, z, m, l) from the accuracy knobs.

    m = ceil(ln(1/delta) / (2 (p1-p2)^2) * (1+z)^2) with z = sqrt(ln(2/beta)/ln(1/delta)),
    and the collision threshold l = ceil(alpha * m), alpha = (z p1 + p2) / (1 + z).
    """
    if not 0 < delta < 1 or not 0 < beta < 1:
        raise ParameterError("delta and beta must be in (0, 1)")
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
    """m sorted per-projection bucket tables over one dataset's points.

    Per projection g the table is the pair of aligned arrays
    (buckets[g], point_rows[g]) sorted by base bucket id, so any bucket range
    is a contiguous slice found by binary search.
    """

    def __init__(self, params: LshParams, a: np.ndarray, b: np.ndarray,
                 buckets: np.ndarray, point_rows: np.ndarray, seed: int, occupied=None):
        self.params = params
        self.a = a                      # (m, d) projection vectors
        self.b = b                      # (m,) offsets
        self.buckets = buckets          # (m, n) sorted base bucket ids
        self.point_rows = point_rows    # (m, n) dataset rows aligned with buckets
        self.seed = int(seed)
        self.m, self.n = buckets.shape
        self.bucket_lo = buckets[:, 0].copy() if self.n else np.zeros(self.m, np.int64)
        self.bucket_hi = buckets[:, -1].copy() if self.n else np.zeros(self.m, np.int64)
        # per projection, (ids, counts) as occupied_buckets returns them, or None until asked
        self._occupied = list(occupied) if occupied is not None else [None] * self.m

    @property
    def dimension(self) -> int:
        return self.a.shape[1]

    def hash_query(self, coords) -> np.ndarray:
        """Base bucket ids under all m projections: (m,) for one point, (n, m) for many."""
        return hash_points(coords, self.a, self.b, self.params.w)

    def holds(self, dataset: Dataset) -> bool:
        """Whether n and d match `dataset`'s and each stored row sits in the bucket it hashes to."""
        if (self.n, self.dimension) != (dataset.n, dataset.dimension):
            return False
        hashed = self.hash_query(dataset.coords)
        return all(np.array_equal(hashed[rows, g], col)
                   for g, (rows, col) in enumerate(zip(self.point_rows, self.buckets)))

    def range_rows(self, g: int, lo: int, hi: int):
        """Dataset rows whose base bucket in projection g lies in [lo, hi)."""
        col = self.buckets[g]
        i0 = int(np.searchsorted(col, lo, side="left"))
        i1 = int(np.searchsorted(col, hi, side="left"))
        return self.point_rows[g, i0:i1]

    def bucket_sizes(self, g: int, lo: int, hi: int) -> np.ndarray:
        """Point count of every base bucket id in [lo, hi) of projection g."""
        col = self.buckets[g]
        edges = np.searchsorted(col, np.arange(lo, hi + 1), side="left")
        return np.diff(edges)

    def occupied_buckets(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Occupied base bucket ids of projection g, ascending, and their point counts.

        Derived from the sorted table on first use and kept, so its size
        follows the number of occupied buckets, never their id span.
        """
        if self._occupied[g] is None:
            col = self.buckets[g]
            starts = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
            self._occupied[g] = (col[starts], np.diff(np.append(starts, col.size)))
        return self._occupied[g]


def build_index(data: Dataset, params: LshParams, seed: int) -> LshIndex:
    """Hash every dataset point under m seeded projections and sort the tables.

    Each projection draws from its own spawned substream, so construction is
    reproducible and could be parallelized per projection without changing
    the result.
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
    buckets = np.empty((params.m, data.n), dtype=np.int64)
    point_rows = np.empty((params.m, data.n), dtype=np.int64)
    for g in range(params.m):
        order = np.argsort(raw[:, g], kind="stable")
        buckets[g] = raw[order, g]
        point_rows[g] = order
    return LshIndex(params=params, a=a, b=b, buckets=buckets, point_rows=point_rows, seed=seed)


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
    checked and widened into preallocated (m, n) int64 tables: the occupied
    ids ascending strictly within +-BUCKET_LIMIT, positive counts summing
    to n, and rows forming a permutation of 0..n-1. Any other version or a
    malformed table raises IndexFileError, so a bad file fails here and not
    in a later search. The occupied buckets fill the index's cache.
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
    buckets = np.empty((m, n), dtype=np.int64)
    point_rows = np.empty((m, n), dtype=np.int64)
    occupied = []
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
        buckets[g] = np.repeat(ids, counts)
        occupied.append((ids.astype(np.int64), counts))
    if off != payload.size:
        raise IndexFileError("trailing bytes in index file")
    return LshIndex(params=params, a=a, b=b, buckets=buckets, point_rows=point_rows, seed=seed,
                    occupied=occupied)
