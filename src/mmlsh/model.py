"""Data model for points, multimedia objects, and queries, plus file ingestion.

A dataset is a flat collection of d-dimensional feature vectors where every
vector belongs to exactly one multimedia object (an image, an audio clip, ...).
Vector files use the common binary interchange layout (int32 dimension followed
by that many float32 values, little-endian, one record per vector); the
point-to-object grouping lives in a separate text sidecar because vector files
carry no object information.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FeatureFileError, NonFiniteCoordinateError, ObjectMapError

UNMAPPED = -1


@dataclass(frozen=True)
class FeatureVector:
    """One d-dimensional feature point and the object that owns it."""

    point_id: int
    object_id: int
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=np.float32))


@dataclass(frozen=True)
class MultimediaObject:
    """An object id plus the ids of the feature points associated with it."""

    object_id: int
    point_ids: frozenset

    def __post_init__(self):
        if not self.point_ids:
            raise ValueError(f"object {self.object_id} has no points")


class Dataset:
    """Immutable collection of feature points grouped into objects.

    Besides the raw points/objects, precomputes the array views the index and
    the query engine work with: an (n, d) coordinate matrix, a dense object
    index per point, and per-object point lists.
    """

    def __init__(self, dimension: int, points: list[FeatureVector], objects: list[MultimediaObject]):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.points = points
        self.objects = sorted(objects, key=lambda o: o.object_id)

        n = len(points)
        seen = set()
        for p in points:
            if len(p.coords) != dimension:
                raise ValueError(f"point {p.point_id} has dimension {len(p.coords)}, expected {dimension}")
            if p.point_id in seen:
                raise ValueError(f"duplicate point_id {p.point_id}")
            seen.add(p.point_id)

        owner = {}
        for obj in self.objects:
            for pid in obj.point_ids:
                if pid in owner:
                    raise ValueError(f"point {pid} claimed by objects {owner[pid]} and {obj.object_id}")
                owner[pid] = obj.object_id
        if set(owner) != seen:
            raise ValueError("object point sets do not partition the point set")

        self._row_of = {p.point_id: i for i, p in enumerate(points)}
        self.coords = np.stack([p.coords for p in points]) if n else np.empty((0, dimension), np.float32)
        bad = _first_non_finite(self.coords)
        if bad is not None:
            raise NonFiniteCoordinateError(f"point {points[bad].point_id} has a non-finite coordinate")
        self.object_ids = np.array([o.object_id for o in self.objects], dtype=np.int64)
        self._obj_rank = {oid: j for j, oid in enumerate(self.object_ids)}
        # dense object index per point row, for fast per-object aggregation
        self.point_object_index = np.empty(n, dtype=np.int64)
        for p in points:
            self.point_object_index[self._row_of[p.point_id]] = self._obj_rank[p.object_id]
        self.object_sizes = np.bincount(self.point_object_index, minlength=len(self.objects))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def num_objects(self) -> int:
        return len(self.objects)

    def object_coords(self, object_id: int) -> np.ndarray:
        """Coordinate matrix (|set(X)|, d) of one object's points."""
        rank = self._obj_rank[object_id]
        rows = np.nonzero(self.point_object_index == rank)[0]
        return self.coords[rows]

    def point_row(self, point_id: int) -> int:
        return self._row_of[point_id]

    def fingerprint(self) -> str:
        """sha256 over the coordinates and each point's object id, in row order."""
        h = hashlib.sha256(repr(self.coords.shape).encode())
        h.update(np.ascontiguousarray(self.coords, dtype="<f4").tobytes())
        h.update(np.ascontiguousarray(self.object_ids[self.point_object_index], dtype="<i8").tobytes())
        return h.hexdigest()


@dataclass
class QueryObject:
    """A query: an object id and the ordered feature points representing it."""

    object_id: int
    points: list[FeatureVector]
    coords: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.points:
            raise ValueError("query object has no points")
        dims = {len(p.coords) for p in self.points}
        if len(dims) != 1:
            raise ValueError(f"query points disagree on dimension: {sorted(dims)}")
        self.coords = np.stack([p.coords for p in self.points])
        bad = _first_non_finite(self.coords)
        if bad is not None:
            raise NonFiniteCoordinateError(
                f"query point {self.points[bad].point_id} has a non-finite coordinate")

    @classmethod
    def from_object(cls, dataset: Dataset, object_id: int) -> "QueryObject":
        obj = next(o for o in dataset.objects if o.object_id == object_id)
        pts = [dataset.points[dataset.point_row(pid)] for pid in sorted(obj.point_ids)]
        return cls(object_id=object_id, points=pts)


def _first_non_finite(coords: np.ndarray) -> int | None:
    """Row index of the first row holding a NaN or infinity, or None."""
    finite = np.isfinite(coords)
    if finite.all():  # a flat reduction is several times faster than a per-row one
        return None
    return int(np.flatnonzero(~finite.all(axis=1))[0])


def load_feature_file(path) -> list[FeatureVector]:
    """Load a binary vector file into FeatureVectors with sequential point ids.

    Every record must declare the same dimension as the first one; the first
    record that disagrees (or is truncated, or holds a NaN or infinity) is
    reported by index.
    """
    raw = np.fromfile(path, dtype="<i4")
    if raw.size == 0:
        return []
    d = int(raw[0])
    if d < 1:
        raise FeatureFileError(f"record 0 declares non-positive dimension {d}")
    stride = d + 1
    if raw.size % stride:
        # truncated tail or a record with a different dimension; locate it
        off, idx = 0, 0
        while off + stride <= raw.size and raw[off] == d:
            off += stride
            idx += 1
        got = int(raw[off]) if off < raw.size else None
        raise FeatureFileError(f"record {idx} malformed (declared dim {got}, expected {d})")
    table = raw.reshape(-1, stride)
    bad = np.nonzero(table[:, 0] != d)[0]
    if bad.size:
        raise FeatureFileError(
            f"record {int(bad[0])} malformed (declared dim {int(table[bad[0], 0])}, expected {d})"
        )
    coords = table[:, 1:].copy().view("<f4")
    bad = _first_non_finite(coords)
    if bad is not None:
        raise NonFiniteCoordinateError(f"record {bad} has a non-finite coordinate")
    return [FeatureVector(point_id=i, object_id=UNMAPPED, coords=coords[i]) for i in range(len(table))]


def write_feature_file(path, coords) -> None:
    """Write an (n, d) float32 array in the binary vector file layout."""
    coords = np.asarray(coords, dtype="<f4")
    n, d = coords.shape
    out = np.empty((n, d + 1), dtype="<i4")
    out[:, 0] = d
    out[:, 1:] = coords.view("<i4")
    out.tofile(path)


def load_object_map(path, points: list[FeatureVector]) -> Dataset:
    """Join loaded points with a `point_id,object_id` sidecar into a Dataset."""
    known = {p.point_id for p in points}
    mapping = {}
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
            if pid in mapping:
                raise ObjectMapError(f"line {lineno + 1}: duplicate row for point {pid}")
            if pid not in known:
                raise ObjectMapError(f"line {lineno + 1}: point {pid} does not exist")
            mapping[pid] = oid
    missing = known - mapping.keys()
    if missing:
        raise ObjectMapError(f"points without an object mapping: {sorted(missing)[:5]}")
    return build_dataset(points, mapping)


def build_dataset(points: list[FeatureVector], mapping: dict) -> Dataset:
    """Assemble a Dataset from points and a point_id -> object_id mapping."""
    if not points:
        raise ValueError("cannot build a dataset from zero points")
    mapped = [replace(p, object_id=mapping[p.point_id]) for p in points]
    groups = {}
    for p in mapped:
        groups.setdefault(p.object_id, set()).add(p.point_id)
    objects = [MultimediaObject(oid, frozenset(pids)) for oid, pids in groups.items()]
    return Dataset(dimension=len(points[0].coords), points=mapped, objects=objects)


def synth_dataset(S: int, points_per_object: int, d: int, cluster_spread: float, seed: int) -> Dataset:
    """Generate a clustered synthetic dataset with a meaningful object ranking.

    Each object is a Gaussian cloud around its own random center, so
    intra-object distances are statistically smaller than inter-object ones
    whenever cluster_spread is small relative to the unit center scale.
    """
    if S < 1 or points_per_object < 1 or d < 1:
        raise ValueError("S, points_per_object and d must all be >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(S, d))
    pts = []
    pid = 0
    mapping = {}
    for oid in range(S):
        cloud = centers[oid] + rng.normal(0.0, cluster_spread, size=(points_per_object, d))
        for row in cloud.astype(np.float32):
            pts.append(FeatureVector(point_id=pid, object_id=UNMAPPED, coords=row))
            mapping[pid] = oid
            pid += 1
    return build_dataset(pts, mapping)
