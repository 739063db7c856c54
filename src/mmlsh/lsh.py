"""Euclidean LSH hash family, parameter derivation, index build and persistence.

Each of the m projections is a random line: h(x) = floor((a.x + b) / w) with
a drawn from the standard normal distribution and b uniform in [0, w).
Widening the search coalesces c^t consecutive base buckets per level instead
of rebuilding anything (virtual rehashing), which is why the per-projection
tables are kept sorted by base bucket id: a level-R bucket is a contiguous
slice of the table.
"""

from __future__ import annotations

import hashlib
import math
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

_MAGIC = b"MMLSHIX1"
_VERSION = 1


@dataclass(frozen=True)
class HashFunction:
    """One random projection line (a, b) with bucket width w."""

    a: np.ndarray
    b: float
    w: float

    def __post_init__(self):
        if self.w <= 0:
            raise ParameterError("bucket width w must be positive")


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


def hash_point(fn: HashFunction, coords) -> int:
    """Base bucket id floor((a.x + b) / w); floors toward -inf for negatives."""
    x = np.asarray(coords, dtype=np.float64)
    if x.shape != fn.a.shape:
        raise ValueError(f"dimension mismatch: point {x.shape} vs projection {fn.a.shape}")
    return int(math.floor((float(np.dot(fn.a, x)) + fn.b) / fn.w))


class LshIndex:
    """m sorted per-projection bucket tables over one dataset's points.

    Per projection g the table is the pair of aligned arrays
    (buckets[g], point_rows[g]) sorted by base bucket id, so any bucket range
    is a contiguous slice found by binary search.
    """

    def __init__(self, params: LshParams, a: np.ndarray, b: np.ndarray,
                 buckets: np.ndarray, point_rows: np.ndarray, seed: int):
        self.params = params
        self.a = a                      # (m, d) projection vectors
        self.b = b                      # (m,) offsets
        self.buckets = buckets          # (m, n) sorted base bucket ids
        self.point_rows = point_rows    # (m, n) dataset rows aligned with buckets
        self.seed = int(seed)
        self.m, self.n = buckets.shape
        self.bucket_lo = buckets[:, 0].copy() if self.n else np.zeros(self.m, np.int64)
        self.bucket_hi = buckets[:, -1].copy() if self.n else np.zeros(self.m, np.int64)
        self._occupied = [None] * self.m

    @property
    def dimension(self) -> int:
        return self.a.shape[1]

    def hash_query(self, coords) -> np.ndarray:
        """Base bucket ids under all m projections: (m,) for one point, (n, m) for many."""
        return hash_points(coords, self.a, self.b, self.params.w)

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

    def function(self, g: int) -> HashFunction:
        return HashFunction(a=self.a[g], b=float(self.b[g]), w=self.params.w)


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


def _params_bytes(p: LshParams) -> bytes:
    return struct.pack("<i6d2i", p.c, p.w, p.delta, p.beta, p.p1, p.p2, p.z, p.m, p.l)


def _params_from_bytes(raw: bytes) -> LshParams:
    c, w, delta, beta, p1, p2, z, m, l = struct.unpack("<i6d2i", raw)
    return LshParams(c=c, w=w, delta=delta, beta=beta, p1=p1, p2=p2, z=z, m=m, l=l)


def save_index(index: LshIndex, path) -> None:
    """Binary container: magic, version, params, seed, tables, sha256 trailer."""
    header = _MAGIC + struct.pack("<i", _VERSION)
    body = [
        header,
        _params_bytes(index.params),
        struct.pack("<q3i", index.seed, index.m, index.n, index.dimension),
        np.ascontiguousarray(index.a).tobytes(),
        np.ascontiguousarray(index.b).tobytes(),
        np.ascontiguousarray(index.buckets).tobytes(),
        np.ascontiguousarray(index.point_rows).tobytes(),
    ]
    blob = b"".join(body)
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(hashlib.sha256(blob).digest())


def load_index(path) -> LshIndex:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 4 + 32:
        raise IndexFileError("file too short to be an index")
    payload, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise IndexFileError("checksum mismatch (truncated or corrupted index file)")
    if payload[:8] != _MAGIC:
        raise IndexFileError("bad magic bytes")
    off = 8
    (version,) = struct.unpack_from("<i", payload, off)
    off += 4
    if version != _VERSION:
        raise IndexFileError(f"unsupported index version {version}")
    psize = struct.calcsize("<i6d2i")
    params = _params_from_bytes(payload[off:off + psize])
    off += psize
    seed, m, n, d = struct.unpack_from("<q3i", payload, off)
    off += struct.calcsize("<q3i")

    def take(count, dtype):
        nonlocal off
        nbytes = count * np.dtype(dtype).itemsize
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=off).copy()
        off += nbytes
        return arr

    a = take(m * d, np.float64).reshape(m, d)
    b = take(m, np.float64)
    buckets = take(m * n, np.int64).reshape(m, n)
    point_rows = take(m * n, np.int64).reshape(m, n)
    if off != len(payload):
        raise IndexFileError("trailing bytes in index file")
    return LshIndex(params=params, a=a, b=b, buckets=buckets, point_rows=point_rows, seed=seed)
