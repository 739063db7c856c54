"""Data model for datasets of multimedia objects and queries, plus file ingestion.

A multimedia object (an image, an audio clip, ...) is a set of d-dimensional
feature vectors. A dataset holds all points as one (n, d) float32 matrix and
an (n,) array naming each row's owning object; a point's id is its row, and
rows keep their input order. Vector files use the common binary interchange
layout (int32 dimension followed by that many float32 values, little-endian,
one record per vector); the point-to-object grouping lives in a separate text
sidecar because vector files carry no object information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeatureFileError, NonFiniteCoordinateError, ObjectMapError, UnknownObjectError
from .similarity import augmented

class Dataset:
    """Immutable feature points grouped into objects.

    `augmented` is the read-only (n, d + 2) float32 table [x | ||x||^2 | 1],
    one row per point x: its coordinates, its squared norm
    (`similarity.augmented`, inf where it overflows) and a 1. It is the
    data side of the float32 products of the exact object distances, which
    thus take a row's norm inside one matrix product. It is filled from the
    caller's array, so writes to that array later leave the dataset as it
    was. `coords`, the (n, d) points, and `sq_norms`, the (n,) squared norms,
    are read-only views of it: the table adds 4n B and no second copy of the
    points. Derived from the owner array: the sorted distinct
    `object_ids`, each row's dense object index `point_object_index` into
    them, `object_sizes`, and the CSR pair `object_rows`/`object_offsets`:
    the rows of the object at index j are
    object_rows[object_offsets[j]:object_offsets[j + 1]], ascending.
    `object_rows` is one stable argsort of the object indices, cast to the
    smallest unsigned type that holds S - 1, so that S <= 65,536 objects
    sort by numpy's radix sort.
    """

    def __init__(self, coords, point_objects):
        coords = np.asarray(coords, dtype=np.float32)
        point_objects = np.asarray(point_objects, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise ValueError(f"coords must be an (n, d) matrix with d >= 1, got shape {coords.shape}")
        if not len(coords):
            raise ValueError("cannot build a dataset from zero points")
        if point_objects.shape != (len(coords),):
            raise ValueError(f"need one object id per point: {len(coords)} points, "
                             f"owner array of shape {point_objects.shape}")
        bad = _first_non_finite(coords)
        if bad is not None:
            raise NonFiniteCoordinateError(f"point {bad} has a non-finite coordinate")
        d = coords.shape[1]
        table = augmented(coords)  # a new array that no caller can write
        table.flags.writeable = False  # before the views are taken, so that they inherit it
        self.augmented, self.coords, self.sq_norms = table, table[:, :d], table[:, d]
        self.dimension = d
        self.object_ids, self.point_object_index = np.unique(point_objects, return_inverse=True)
        self.object_sizes = np.bincount(self.point_object_index, minlength=len(self.object_ids))
        narrow = self.point_object_index.astype(np.min_scalar_type(len(self.object_ids) - 1))
        self.object_rows = np.argsort(narrow, kind="stable")
        self.object_offsets = np.concatenate(([0], np.cumsum(self.object_sizes)))

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def num_objects(self) -> int:
        return len(self.object_ids)

    def object_coords(self, object_id: int) -> np.ndarray:
        """Coordinate matrix (|set(X)|, d) of one object's points, in row order."""
        j = int(np.searchsorted(self.object_ids, object_id))
        if j == len(self.object_ids) or self.object_ids[j] != object_id:
            raise UnknownObjectError(f"object {object_id} is not in the dataset")
        return self.coords[self.object_rows[self.object_offsets[j]:self.object_offsets[j + 1]]]


@dataclass
class QueryObject:
    """A query: an object id and the (|Q|, d) coordinates of its feature points."""

    object_id: int
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float32)
        if self.coords.ndim != 2:
            raise ValueError(f"query coords must be a (|Q|, d) matrix, got shape {self.coords.shape}")
        if not len(self.coords):
            raise ValueError("query object has no points")
        bad = _first_non_finite(self.coords)
        if bad is not None:
            raise NonFiniteCoordinateError(f"query point {bad} has a non-finite coordinate")

    @classmethod
    def from_object(cls, dataset: Dataset, object_id: int) -> "QueryObject":
        return cls(object_id=object_id, coords=dataset.object_coords(object_id))


def _first_non_finite(coords: np.ndarray) -> int | None:
    """Row index of the first row holding a NaN or infinity, or None."""
    finite = np.isfinite(coords)
    if finite.all():  # a flat reduction is several times faster than a per-row one
        return None
    return int(np.flatnonzero(~finite.all(axis=1))[0])


def load_feature_file(path) -> np.ndarray:
    """Load a binary vector file as an (n, d) float32 array; point i is record i.

    Every record must declare the same dimension as the first one; the first
    record that disagrees (or is truncated, or holds a NaN or infinity) is
    reported by index. An empty file yields a (0, 0) array.
    """
    raw = np.fromfile(path, dtype="<i4")
    if raw.size == 0:
        return np.empty((0, 0), dtype=np.float32)
    d = int(raw[0])
    if d < 1:
        raise FeatureFileError(f"record 0 declares non-positive dimension {d}")
    stride = d + 1
    whole = raw.size // stride
    table = raw[:whole * stride].reshape(-1, stride)
    bad = np.flatnonzero(table[:, 0] != d)
    if bad.size or raw.size % stride:  # the first record of another dimension, or a cut tail
        idx = int(bad[0]) if bad.size else whole
        raise FeatureFileError(f"record {idx} malformed (declared dim {int(raw[idx * stride])}, "
                               f"expected {d})")
    coords = table[:, 1:].copy().view("<f4")
    bad = _first_non_finite(coords)
    if bad is not None:
        raise NonFiniteCoordinateError(f"record {bad} has a non-finite coordinate")
    return coords


def write_feature_file(path, coords) -> None:
    """Write an (n, d) float32 array in the binary vector file layout."""
    coords = np.asarray(coords, dtype="<f4")
    n, d = coords.shape
    out = np.empty((n, d + 1), dtype="<i4")
    out[:, 0] = d
    out[:, 1:] = coords.view("<i4")
    out.tofile(path)


def load_object_map(path, coords: np.ndarray) -> Dataset:
    """Join loaded coordinates with a `point_id,object_id` sidecar into a Dataset.

    Point ids are row indices of `coords`; every point needs exactly one row.
    """
    n = len(coords)
    mapped = bytearray(n)
    point_ids, object_ids = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 0 and not parts[0].strip().lstrip("-").isdigit():
                continue  # header line
            if len(parts) != 2:
                raise ObjectMapError(f"line {lineno + 1}: expected 'point_id,object_id', got {line!r}")
            try:
                pid, oid = int(parts[0]), int(parts[1])
            except ValueError:
                raise ObjectMapError(f"line {lineno + 1}: non-integer field in {line!r}") from None
            if not 0 <= pid < n:
                raise ObjectMapError(f"line {lineno + 1}: point {pid} does not exist")
            if not -2 ** 63 <= oid < 2 ** 63:
                raise ObjectMapError(f"line {lineno + 1}: object id {oid} is outside int64")
            if mapped[pid]:
                raise ObjectMapError(f"line {lineno + 1}: duplicate row for point {pid}")
            mapped[pid] = 1
            point_ids.append(pid)
            object_ids.append(oid)
    if len(point_ids) < n:
        missing = np.flatnonzero(np.frombuffer(mapped, dtype=np.uint8) == 0)
        raise ObjectMapError(f"points without an object mapping: {missing[:5].tolist()}")
    owners = np.empty(n, dtype=np.int64)
    owners[point_ids] = object_ids
    return Dataset(coords, owners)


def synth_dataset(S: int, points_per_object: int, d: int, cluster_spread: float, seed: int) -> Dataset:
    """Generate a clustered synthetic dataset with a meaningful object ranking.

    Each object is a Gaussian cloud around its own random center, so
    intra-object distances are statistically smaller than inter-object ones
    whenever cluster_spread is small relative to the unit center scale.
    Object j owns rows j*points_per_object to (j+1)*points_per_object - 1.
    """
    if S < 1 or points_per_object < 1 or d < 1:
        raise ValueError("S, points_per_object and d must all be >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(S, d))
    noise = rng.normal(0.0, cluster_spread, size=(S * points_per_object, d))
    # each object's center added in place: the same float64 sums as
    # repeat(centers) + noise, without two more (n, d) float64 arrays
    blocks = noise.reshape(S, points_per_object, d)  # a view of the noise
    blocks += centers[:, None, :]
    with np.errstate(over="ignore"):  # a coordinate past float32 becomes inf, which Dataset refuses
        coords = noise.astype(np.float32)
    return Dataset(coords, np.repeat(np.arange(S), points_per_object))
