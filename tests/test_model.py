import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, cdist

import mmlsh
from mmlsh.errors import (FeatureFileError, NonFiniteCoordinateError, ObjectMapError,
                          UnknownObjectError)


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
    assert vecs.shape == (2, 2) and vecs.dtype == np.float32
    assert np.allclose(vecs[0], [0.0, 1.0])
    assert np.allclose(vecs[1], [3.0, 4.0])


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
    coords = [[0.0, 0.0], [0.0, 1.0], [bad, 1.0]]
    with pytest.raises(NonFiniteCoordinateError, match="point 2"):
        mmlsh.Dataset(coords, [0, 0, 0])


def test_query_rejects_non_finite():
    coords = [[0.0, 1.0], [0.0, 1.0], [0.0, float("nan")]]
    with pytest.raises(NonFiniteCoordinateError, match="query point 2"):
        mmlsh.QueryObject(object_id=0, coords=coords)


@pytest.mark.parametrize("coords, owners", [
    (np.zeros((3, 2)), [0, 0]),          # one owner short
    (np.zeros((3, 2)), [[0], [0], [0]]),  # owners not a vector
    (np.zeros(3), [0, 0, 0]),            # coords not a matrix
    (np.zeros((0, 2)), []),              # no points
])
def test_dataset_rejects_bad_shapes(coords, owners):
    with pytest.raises(ValueError):
        mmlsh.Dataset(coords, owners)


def test_unknown_object_id_is_a_typed_error(small_dataset):
    assert issubclass(UnknownObjectError, ValueError)  # so the CLI exits 3
    with pytest.raises(UnknownObjectError, match="object 999"):
        small_dataset.object_coords(999)
    with pytest.raises(UnknownObjectError, match="object -1"):
        mmlsh.QueryObject.from_object(small_dataset, -1)


def test_coords_and_norm_table_are_read_only():
    """Nothing writes the points under the dataset's norm table; the caller's array is copied."""
    coords = np.array([[3.0, 4.0], [1e20, -1e20], [0.0, 2.0], [1e-30, 0.5]], dtype=np.float32)
    dataset = mmlsh.Dataset(coords, [0, 0, 1, 1])
    with pytest.raises(ValueError, match="read-only"):
        dataset.coords[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        dataset.sq_norms[0] = 1.0
    assert coords.flags.writeable and not np.shares_memory(dataset.coords, coords)
    with np.errstate(over="ignore"):  # the second row squares past float32
        want = np.einsum("ij,ij->i", coords, coords)
    assert np.isinf(want[1]) and dataset.sq_norms.dtype == np.float32
    assert dataset.sq_norms.tobytes() == want.tobytes()
    wide = mmlsh.synth_dataset(30, 7, 9, 0.2, seed=5)
    assert wide.sq_norms.tobytes() == np.einsum("ij,ij->i", wide.coords, wide.coords).tobytes()


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.fvecs"
    path.write_bytes(b"")
    assert mmlsh.load_feature_file(path).shape == (0, 0)


def test_roundtrip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(100, 17)).astype(np.float32)
    path = tmp_path / "rt.fvecs"
    mmlsh.write_feature_file(path, coords)
    loaded = mmlsh.load_feature_file(path)
    assert loaded.shape == (100, 17)
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded.view(np.uint32), coords.view(np.uint32))


def test_object_map_basic(tmp_path):
    coords = np.arange(8, dtype=np.float32).reshape(4, 2)
    vpath = tmp_path / "v.fvecs"
    mmlsh.write_feature_file(vpath, coords)
    coords = mmlsh.load_feature_file(vpath)
    mpath = tmp_path / "map.csv"
    mpath.write_text("point_id,object_id\n0,0\n1,0\n2,1\n3,1\n")
    ds = mmlsh.load_object_map(mpath, coords)
    assert ds.num_objects == 2
    assert ds.n == 4
    assert int(ds.object_sizes.sum()) == ds.n


def test_object_map_missing_point(tmp_path):
    coords = np.zeros((4, 2), dtype=np.float32)
    vpath = tmp_path / "v.fvecs"
    mmlsh.write_feature_file(vpath, coords)
    coords = mmlsh.load_feature_file(vpath)
    mpath = tmp_path / "map.csv"
    mpath.write_text("0,0\n1,0\n2,1\n")  # point 3 unmapped
    with pytest.raises(ObjectMapError, match="without an object"):
        mmlsh.load_object_map(mpath, coords)


def test_object_map_duplicate_and_dangling(tmp_path):
    coords = np.zeros((2, 2), dtype=np.float32)
    vpath = tmp_path / "v.fvecs"
    mmlsh.write_feature_file(vpath, coords)
    coords = mmlsh.load_feature_file(vpath)

    dup = tmp_path / "dup.csv"
    dup.write_text("0,0\n0,1\n1,0\n")
    with pytest.raises(ObjectMapError, match="duplicate"):
        mmlsh.load_object_map(dup, coords)

    dangling = tmp_path / "dangling.csv"
    dangling.write_text("0,0\n1,0\n7,1\n")
    with pytest.raises(ObjectMapError, match="point 7"):
        mmlsh.load_object_map(dangling, coords)

    huge = tmp_path / "huge.csv"
    huge.write_text(f"0,0\n1,{2 ** 63}\n")
    with pytest.raises(ObjectMapError, match="line 2: object id"):
        mmlsh.load_object_map(huge, coords)


def test_wang_like_shape(tmp_path):
    # shape-only stand-in: 695,672 points over 1000 objects
    n, S = 695_672, 1000
    coords = np.zeros((n, 1), dtype=np.float32)
    vpath = tmp_path / "wang.fvecs"
    mmlsh.write_feature_file(vpath, coords)
    coords = mmlsh.load_feature_file(vpath)
    object_ids = np.arange(n) % S
    lines = ["point_id,object_id"] + [f"{i},{object_ids[i]}" for i in range(n)]
    mpath = tmp_path / "wang.csv"
    mpath.write_text("\n".join(lines) + "\n")
    ds = mmlsh.load_object_map(mpath, coords)
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
    for j in range(ds.num_objects):
        rows = np.nonzero(ds.point_object_index == j)[0]
        intra.append(np.mean(pdist(coords[rows])))
        other = np.nonzero(ds.point_object_index != j)[0][:500]
        inter.append(np.mean(cdist(coords[rows], coords[other])))
    assert np.mean(intra) < np.mean(inter)


def test_dataset_point_sum_invariant(small_dataset):
    assert int(small_dataset.object_sizes.sum()) == small_dataset.n


def test_query_object_from_dataset(small_dataset):
    q = mmlsh.QueryObject.from_object(small_dataset, int(small_dataset.object_ids[0]))
    assert q.coords.shape == (8, 6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), d=st.integers(1, 4),
       ids=st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=6, unique=True),
       header=st.booleans(), data=st.data())
def test_interleaved_objects_match_the_mask_reference(tmp_path_factory, seed, n, d, ids,
                                                      header, data):
    owners = np.array(data.draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n)))
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(n, d)).astype(np.float32)
    ds = mmlsh.Dataset(coords, owners)

    assert ds.object_ids.tolist() == sorted(set(owners.tolist()))
    assert np.array_equal(ds.object_ids[ds.point_object_index], owners)
    for rank, oid in enumerate(ds.object_ids.tolist()):
        mask = ds.point_object_index == rank
        assert np.array_equal(ds.object_coords(oid), coords[mask])
        assert ds.object_sizes[rank] == np.count_nonzero(mask)
    assert np.array_equal(ds.coords.view(np.uint32), coords.view(np.uint32))

    # the same assignment written as a shuffled sidecar loads back unchanged
    work = tmp_path_factory.mktemp("roundtrip")
    mmlsh.write_feature_file(work / "v.fvecs", coords)
    lines = [f"{row},{owners[row]}" for row in rng.permutation(n)]
    (work / "map.csv").write_text("\n".join(["point_id,object_id"] * header + lines) + "\n")
    back = mmlsh.load_object_map(work / "map.csv", mmlsh.load_feature_file(work / "v.fvecs"))
    assert np.array_equal(back.coords.view(np.uint32), coords.view(np.uint32))
    assert np.array_equal(back.object_ids[back.point_object_index], owners)


@pytest.mark.parametrize("S", [200, 300, 70_000])
def test_object_rows_equal_a_stable_argsort_of_the_owners(S):
    """Two points per object, interleaved: object indices need a uint8, uint16 or uint32 key."""
    rng = np.random.default_rng(S)
    ids = rng.choice(2 ** 40, size=S, replace=False) - 2 ** 39
    owners = rng.permutation(np.repeat(ids, 2))
    ds = mmlsh.Dataset(np.zeros((len(owners), 1), dtype=np.float32), owners)
    assert np.array_equal(ds.object_rows, np.argsort(owners, kind="stable"))
    assert ds.object_rows.dtype == np.intp
    assert np.array_equal(ds.object_offsets, np.arange(0, 2 * S + 1, 2))


def reference_synth_coords(S, points_per_object, d, cluster_spread, seed):
    """Synthetic coordinates drawn one object at a time, as the generator once did."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(S, d))
    clouds = [centers[oid] + rng.normal(0.0, cluster_spread, size=(points_per_object, d))
              for oid in range(S)]
    return np.concatenate(clouds).astype(np.float32)


@pytest.mark.parametrize("S, points_per_object, d, seed", [(1, 1, 1, 0), (3, 5, 2, 7),
                                                           (20, 8, 6, 11)])
def test_synth_noise_in_one_draw_is_bit_identical(S, points_per_object, d, seed):
    ds = mmlsh.synth_dataset(S, points_per_object, d, 0.15, seed)
    want = reference_synth_coords(S, points_per_object, d, 0.15, seed)
    assert np.array_equal(ds.coords.view(np.uint32), want.view(np.uint32))
    assert ds.point_object_index.tolist() == [j for j in range(S) for _ in range(points_per_object)]


def repeated_centers_coords(S, points_per_object, d, cluster_spread, seed):
    """The coordinates `repeat(centers) + noise` gives, the generator's earlier expression."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(S, d))
    noise = rng.normal(0.0, cluster_spread, size=(S * points_per_object, d))
    return (np.repeat(centers, points_per_object, axis=0) + noise).astype(np.float32)


@pytest.mark.parametrize("S, points_per_object, d, spread, seed", [(200, 20, 32, 0.1, 0),
                                                                   (1000, 100, 32, 0.15, 9)])
def test_synth_centers_added_in_place_keep_the_fingerprint(S, points_per_object, d, spread,
                                                           seed):
    ds = mmlsh.synth_dataset(S, points_per_object, d, spread, seed)
    want = repeated_centers_coords(S, points_per_object, d, spread, seed)
    assert np.array_equal(ds.coords.view(np.uint32), want.view(np.uint32))
    assert np.array_equal(ds.object_ids[ds.point_object_index],
                          np.repeat(np.arange(S), points_per_object))
