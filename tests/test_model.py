import numpy as np
import pytest
from scipy.spatial.distance import pdist, cdist

import mmlsh
from mmlsh.errors import FeatureFileError, NonFiniteCoordinateError, ObjectMapError


def _write_raw(path, records):
    """Write records as (dim, floats...) without any validation."""
    import struct
    with open(path, "wb") as fh:
        for dim, *vals in records:
            fh.write(struct.pack("<i", dim))
            fh.write(struct.pack(f"<{len(vals)}f", *vals))


def test_load_two_records(tmp_path):
    path = tmp_path / "v.fvecs"
    _write_raw(path, [(2, 0.0, 1.0), (2, 3.0, 4.0)])
    vecs = mmlsh.load_feature_file(path)
    assert [v.point_id for v in vecs] == [0, 1]
    assert np.allclose(vecs[0].coords, [0.0, 1.0])
    assert np.allclose(vecs[1].coords, [3.0, 4.0])


def test_load_dim_mismatch_names_record(tmp_path):
    path = tmp_path / "bad.fvecs"
    _write_raw(path, [(2, 0.0, 1.0), (3, 1.0, 2.0, 3.0)])
    with pytest.raises(FeatureFileError, match="record 1"):
        mmlsh.load_feature_file(path)


def test_load_non_finite_names_record(tmp_path):
    path = tmp_path / "nan.fvecs"
    _write_raw(path, [(2, 0.0, 1.0), (2, float("nan"), 4.0), (2, float("inf"), 0.0)])
    with pytest.raises(NonFiniteCoordinateError, match="record 1"):
        mmlsh.load_feature_file(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_dataset_rejects_non_finite(bad):
    points = [mmlsh.FeatureVector(point_id=i, object_id=0, coords=[0.0, float(i)])
              for i in range(3)]
    points[2] = mmlsh.FeatureVector(point_id=2, object_id=0, coords=[bad, 1.0])
    with pytest.raises(NonFiniteCoordinateError, match="point 2"):
        mmlsh.build_dataset(points, {i: 0 for i in range(3)})


def test_query_rejects_non_finite():
    points = [mmlsh.FeatureVector(point_id=i, object_id=0, coords=[0.0, 1.0])
              for i in range(2)]
    points.append(mmlsh.FeatureVector(point_id=7, object_id=0, coords=[0.0, float("nan")]))
    with pytest.raises(NonFiniteCoordinateError, match="query point 7"):
        mmlsh.QueryObject(object_id=0, points=points)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.fvecs"
    path.write_bytes(b"")
    assert mmlsh.load_feature_file(path) == []


def test_roundtrip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(100, 17)).astype(np.float32)
    path = tmp_path / "rt.fvecs"
    mmlsh.write_feature_file(path, coords)
    vecs = mmlsh.load_feature_file(path)
    assert len(vecs) == 100
    loaded = np.stack([v.coords for v in vecs])
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded.view(np.uint32), coords.view(np.uint32))


def test_object_map_basic(tmp_path):
    coords = np.arange(8, dtype=np.float32).reshape(4, 2)
    vpath = tmp_path / "v.fvecs"
    mmlsh.write_feature_file(vpath, coords)
    points = mmlsh.load_feature_file(vpath)
    mpath = tmp_path / "map.csv"
    mpath.write_text("point_id,object_id\n0,0\n1,0\n2,1\n3,1\n")
    ds = mmlsh.load_object_map(mpath, points)
    assert ds.num_objects == 2
    assert ds.n == 4
    assert sum(len(o.point_ids) for o in ds.objects) == ds.n


def test_object_map_missing_point(tmp_path):
    coords = np.zeros((4, 2), dtype=np.float32)
    vpath = tmp_path / "v.fvecs"
    mmlsh.write_feature_file(vpath, coords)
    points = mmlsh.load_feature_file(vpath)
    mpath = tmp_path / "map.csv"
    mpath.write_text("0,0\n1,0\n2,1\n")  # point 3 unmapped
    with pytest.raises(ObjectMapError, match="without an object"):
        mmlsh.load_object_map(mpath, points)


def test_object_map_duplicate_and_dangling(tmp_path):
    coords = np.zeros((2, 2), dtype=np.float32)
    vpath = tmp_path / "v.fvecs"
    mmlsh.write_feature_file(vpath, coords)
    points = mmlsh.load_feature_file(vpath)

    dup = tmp_path / "dup.csv"
    dup.write_text("0,0\n0,1\n1,0\n")
    with pytest.raises(ObjectMapError, match="duplicate"):
        mmlsh.load_object_map(dup, points)

    dangling = tmp_path / "dangling.csv"
    dangling.write_text("0,0\n1,0\n7,1\n")
    with pytest.raises(ObjectMapError, match="point 7"):
        mmlsh.load_object_map(dangling, points)


def test_wang_like_shape(tmp_path):
    # shape-only stand-in: 695,672 points over 1000 objects
    n, S = 695_672, 1000
    coords = np.zeros((n, 1), dtype=np.float32)
    vpath = tmp_path / "wang.fvecs"
    mmlsh.write_feature_file(vpath, coords)
    points = mmlsh.load_feature_file(vpath)
    object_ids = np.arange(n) % S
    lines = ["point_id,object_id"] + [f"{i},{object_ids[i]}" for i in range(n)]
    mpath = tmp_path / "wang.csv"
    mpath.write_text("\n".join(lines) + "\n")
    ds = mmlsh.load_object_map(mpath, points)
    assert ds.num_objects == S
    assert ds.n == n
    assert int(ds.object_sizes.sum()) == n


def test_synth_deterministic():
    a = mmlsh.synth_dataset(S=2, points_per_object=3, d=2, cluster_spread=0.1, seed=7)
    b = mmlsh.synth_dataset(S=2, points_per_object=3, d=2, cluster_spread=0.1, seed=7)
    assert a.n == 6 and a.num_objects == 2
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.point_object_index, b.point_object_index)


def test_synth_cluster_separation():
    ds = mmlsh.synth_dataset(S=200, points_per_object=20, d=32, cluster_spread=0.1, seed=5)
    intra, inter = [], []
    coords = ds.coords.astype(np.float64)
    for j, obj in enumerate(ds.objects):
        rows = np.nonzero(ds.point_object_index == j)[0]
        intra.append(np.mean(pdist(coords[rows])))
        other = np.nonzero(ds.point_object_index != j)[0][:500]
        inter.append(np.mean(cdist(coords[rows], coords[other])))
    assert np.mean(intra) < np.mean(inter)


def test_dataset_point_sum_invariant(small_dataset):
    assert sum(len(o.point_ids) for o in small_dataset.objects) == small_dataset.n


def test_query_object_from_dataset(small_dataset):
    q = mmlsh.QueryObject.from_object(small_dataset, small_dataset.objects[0].object_id)
    assert q.coords.shape == (8, 6)
