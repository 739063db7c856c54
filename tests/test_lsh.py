import ast
import builtins
import errno
import hashlib
import math
import os
import struct
import tempfile
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import mmlsh
from mmlsh import bench, lsh
from mmlsh.buffering import MMLSH, NS1, BufferState, SchedulerConfig, build_frequency_profile
from mmlsh.errors import IndexFileError, ParameterError


def quadrature_collision_probability(s, w):
    """Independent oracle: integrate the collision event density directly.

    The projected gap a.(x-y) is N(0, s^2); two points share a bucket of
    width w with probability int_0^w f_|gap|(t) (1 - t/w) dt.
    """
    def integrand(t):
        return (2.0 / (s * math.sqrt(2 * math.pi))) * math.exp(-t * t / (2 * s * s)) * (1 - t / w)
    value, _err = quad(integrand, 0.0, w)
    return value


def reference_derive(delta, beta, c, w):
    """Pre-build calculator: same formulas, quadrature-based probabilities."""
    p1 = quadrature_collision_probability(1.0, w)
    p2 = quadrature_collision_probability(float(c), w)
    z = math.sqrt(math.log(2 / beta) / math.log(1 / delta))
    m = math.ceil(math.log(1 / delta) / (2 * (p1 - p2) ** 2) * (1 + z) ** 2)
    alpha = (z * p1 + p2) / (1 + z)
    return p1, p2, m, math.ceil(alpha * m)


class TestCollisionProbability:
    def test_limit_at_zero(self):
        assert mmlsh.collision_probability(0.0, 2.184) == 1.0
        assert mmlsh.collision_probability(1e-9, 2.184) == pytest.approx(1.0, abs=1e-6)

    def test_p1_greater_than_p2(self):
        assert mmlsh.collision_probability(1.0, 2.184) > mmlsh.collision_probability(2.0, 2.184)

    def test_strictly_decreasing(self):
        values = [mmlsh.collision_probability(s, 2.184) for s in np.linspace(0.1, 8.0, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_quadrature_oracle(self):
        for s in (0.5, 1.0, 2.0, 4.0):
            assert mmlsh.collision_probability(s, 2.184) == pytest.approx(
                quadrature_collision_probability(s, 2.184), abs=1e-6)


class TestDeriveParams:
    def test_ln_delta_component(self):
        assert math.log(1 / 0.1) == pytest.approx(2.302585, abs=1e-6)

    def test_m_increases_as_delta_decreases(self):
        ms = [mmlsh.derive_params(d, 0.0125, 2, 2.184).m for d in (0.3, 0.2, 0.1, 0.05)]
        assert all(b > a for a, b in zip(ms, ms[1:]))

    def test_matches_reference_calculator(self):
        p = mmlsh.derive_params(0.1, 0.0125, 2, 2.184)
        p1, p2, m, l = reference_derive(0.1, 0.0125, 2, 2.184)
        assert p.p1 == pytest.approx(p1, abs=1e-6)
        assert p.p2 == pytest.approx(p2, abs=1e-6)
        assert (p.m, p.l) == (m, l)

    def test_equals_the_scipy_derivation(self, monkeypatch):
        """Over (delta, beta, c, w): m and l as with scipy's normal CDF, p1 and p2 within 4 ulps."""
        def scipy_probability(s, w):
            t = w / s
            return float(1.0 - 2.0 * norm.cdf(-t) - (2.0 / (math.sqrt(2.0 * math.pi) * t))
                         * (1.0 - math.exp(-(t * t) / 2.0)))

        grid = [(delta, beta, c, w) for delta in (0.02, 0.1, 0.3, 0.6) for beta in (0.01, 0.1, 0.9)
                for c in (2, 3, 5) for w in (0.5, 1.0, 2.184, 4.0, 8.0)]
        ours = [mmlsh.derive_params(*args) for args in grid]
        monkeypatch.setattr(lsh, "collision_probability", scipy_probability)
        for args, got in zip(grid, ours):
            want = mmlsh.derive_params(*args)
            assert (got.m, got.l) == (want.m, want.l), args
            assert abs(got.p1 - want.p1) <= 4 * math.ulp(want.p1), args
            assert abs(got.p2 - want.p2) <= 4 * math.ulp(want.p2), args

    def test_threshold_separates_populations(self):
        for delta, beta in ((0.1, 0.0125), (0.2, 0.1), (0.05, 0.01)):
            p = mmlsh.derive_params(delta, beta, 2, 2.184)
            assert p.l <= p.m
            assert p.p2 * p.m < p.l < p.p1 * p.m

    def test_m_beyond_max_projections_is_refused(self, monkeypatch):
        assert lsh.MAX_PROJECTIONS == 1024
        assert mmlsh.derive_params(1e-20, 1e-3).m == 776
        with pytest.raises(ParameterError, match="m=7180 projections, more than "
                                                 "MAX_PROJECTIONS=1024"):
            mmlsh.derive_params(1e-300, 1e-3)
        monkeypatch.setattr(lsh, "MAX_PROJECTIONS", 776)
        assert mmlsh.derive_params(1e-20, 1e-3).m == 776  # the bound itself is allowed
        monkeypatch.setattr(lsh, "MAX_PROJECTIONS", 775)
        with pytest.raises(ParameterError, match="m=776"):
            mmlsh.derive_params(1e-20, 1e-3)

    def test_hand_built_m_beyond_max_projections_is_refused(self):
        params = mmlsh.derive_params(0.1, 0.1)
        assert mmlsh.LshParams(**{**params.__dict__, "m": 1024}).m == 1024
        with pytest.raises(ParameterError, match="m=1025 is more than MAX_PROJECTIONS=1024"):
            mmlsh.LshParams(**{**params.__dict__, "m": 1025})

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_w_must_be_finite_and_positive(self, w):
        with pytest.raises(ParameterError, match="w must be finite and > 0"):
            mmlsh.derive_params(0.1, 0.1, 2, w)

    def test_degenerate_family_rejected(self):
        with pytest.raises(ParameterError):
            mmlsh.LshParams(c=2, w=1.0, delta=0.1, beta=0.1, p1=0.3, p2=0.5, z=1.0, m=10, l=5)


def scalar_hash(a, b, w, x) -> int:
    """Oracle: the base bucket floor((a.x + b) / w) of one point in one projection."""
    return math.floor((sum(float(ai) * float(xi) for ai, xi in zip(a, x)) + b) / w)


class TestHashPoint:
    """`hash_points` on one projection line (a 1-row `a`), point by point."""

    def test_arithmetic(self):
        got = mmlsh.hash_points([3.0, 9.9], np.array([[1.0, 0.0]]), np.array([0.5]), 2.184)
        assert got.tolist() == [math.floor(3.5 / 2.184)] == [1]

    def test_floor_toward_negative_infinity(self):
        assert mmlsh.hash_points([-0.1], np.array([[1.0]]), np.array([0.0]), 1.0).tolist() == [-1]

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 5)), rng.uniform(0, 2.184, size=3)
        points = rng.normal(size=(1000, 5))
        got = mmlsh.hash_points(points, a, b, 2.184)
        assert got.shape == (1000, 3)
        for x, row in zip(points, got.tolist()):
            assert row == [scalar_hash(a[g], b[g], 2.184, x) for g in range(3)]

    def test_translation_consistency(self):
        rng = np.random.default_rng(8)
        a, b, w = rng.normal(size=(1, 4)), np.array([0.7]), 2.184
        norm2 = float(np.dot(a[0], a[0]))
        for _ in range(50):
            x = rng.normal(size=4)
            frac = ((np.dot(a[0], x) + b[0]) / w) % 1.0
            if not 0.05 < frac < 0.95:
                continue  # keep clear of bucket boundaries
            shifted = x + w * a[0] / norm2
            assert mmlsh.hash_points(shifted, a, b, w) == mmlsh.hash_points(x, a, b, w) + 1


class TestBuildIndex:
    def test_single_point(self):
        ds = mmlsh.synth_dataset(S=1, points_per_object=1, d=4, cluster_spread=0.1, seed=0)
        params = mmlsh.derive_params(0.3, 0.5, 2, 2.184)
        params = mmlsh.LshParams(**{**params.__dict__, "m": 3, "l": 2})
        idx = mmlsh.build_index(ds, params, seed=0)
        assert idx.buckets.shape == (3, 1)

    def test_deterministic(self, small_dataset):
        params = mmlsh.derive_params(0.25, 0.5, 2, 2.184)
        a = mmlsh.build_index(small_dataset, params, seed=5)
        b = mmlsh.build_index(small_dataset, params, seed=5)
        assert np.array_equal(a.buckets, b.buckets)
        assert np.array_equal(a.point_rows, b.point_rows)
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)

    def test_rescan_oracle(self, small_dataset, small_index):
        idx = small_index
        coords = small_dataset.coords.astype(np.float64)
        buckets = idx.buckets  # expanded once
        for g in range(idx.m):
            for pos in range(idx.n):
                row = idx.point_rows[g, pos]
                assert buckets[g, pos] == scalar_hash(idx.a[g], idx.b[g], idx.params.w,
                                                      coords[row])
            assert np.all(np.diff(buckets[g]) >= 0)

    def test_each_point_once_per_projection(self, small_index):
        for g in range(small_index.m):
            assert sorted(small_index.point_rows[g]) == list(range(small_index.n))

    def test_empirical_collision_rate_near_p1(self):
        w = 2.184
        p1 = mmlsh.collision_probability(1.0, w)
        rng = np.random.default_rng(6)
        trials = 20_000
        d = 8
        x = rng.normal(size=(trials, d))
        direction = rng.normal(size=(trials, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        y = x + direction  # distance exactly 1
        # fresh projection per trial so trials are independent Bernoulli(p1)
        a = rng.normal(size=(trials, d))
        b = rng.uniform(0, w, size=trials)
        hx = np.floor((np.sum(x * a, axis=1) + b) / w)
        hy = np.floor((np.sum(y * a, axis=1) + b) / w)
        rate = float(np.mean(hx == hy))
        stderr = math.sqrt(p1 * (1 - p1) / trials)
        assert abs(rate - p1) <= 3 * stderr


class TestHashPoints:
    @pytest.fixture(scope="class")
    def far_point_setup(self):
        """Five one-point objects; the last has a coordinate at 3e19."""
        coords = [[0.0, 0.0], [0.5, 0.1], [-0.3, 0.8], [1.0, -1.0], [3e19, 0.0]]
        ds = mmlsh.Dataset(np.array(coords, dtype=np.float32), np.arange(5))
        params = mmlsh.derive_params(0.3, 0.5, 2, 2.184)
        return ds, mmlsh.build_index(ds, params, seed=1)

    def test_no_bucket_wraps_to_int64_min(self, far_point_setup):
        _ds, idx = far_point_setup
        assert not np.any(idx.buckets == np.iinfo(np.int64).min)
        assert np.all(np.abs(idx.buckets) <= 2 ** 62)

    def test_index_buckets_equal_hash_query(self, far_point_setup):
        ds, idx = far_point_setup
        for row in range(ds.n):
            want = [idx.buckets[g][idx.point_rows[g] == row][0] for g in range(idx.m)]
            assert idx.hash_query(ds.coords[row]).tolist() == want
        assert np.array_equal(idx.hash_query(ds.coords)[4], idx.hash_query(ds.coords[4]))

    def test_far_object_finds_itself(self, far_point_setup):
        ds, idx = far_point_setup
        gp = mmlsh.GammaParams(gamma=0.5, delta=0.3, beta=0.5, epsilon=0.6)
        res = mmlsh.knn_objects(mmlsh.QueryObject.from_object(ds, 4), 1, idx, ds, gp)
        assert res.object_ids == [4]


V2_HEADER = 8 + 4 + 60 + 20  # magic, version, params, seed/m/n/d


def split_v2(blob: bytes, m: int, n: int, d: int):
    """The header and per-projection [ids, sizes, rows] of a v2 file, read by the layout spec."""
    off = V2_HEADER + 8 * m * d + 8 * m
    tables = []
    for _ in range(m):
        (k,) = struct.unpack_from("<i", blob, off)
        ids = np.frombuffer(blob, "<i8", k, off + 4)
        sizes = np.frombuffer(blob, "<i4", k, off + 4 + 8 * k)
        rows = np.frombuffer(blob, "<i4", n, off + 4 + 12 * k)
        tables.append([ids.copy(), sizes.copy(), rows.copy()])
        off += 4 + 12 * k + 4 * n
    assert off == len(blob) - 32
    return blob[:V2_HEADER + 8 * m * d + 8 * m], tables


def join_v2(header: bytes, tables, tail: bytes = b"") -> bytes:
    """A v2 file from its sections, with a freshly computed valid sha256 trailer."""
    body = header + b"".join(
        struct.pack("<i", len(ids)) + np.asarray(ids, "<i8").tobytes()
        + np.asarray(sizes, "<i4").tobytes() + np.asarray(rows, "<i4").tobytes()
        for ids, sizes, rows in tables) + tail
    return body + hashlib.sha256(body).digest()


def v1_file(index) -> bytes:
    """An index file in the retired version 1 layout: int64 buckets and rows, 16 B per entry."""
    p = index.params
    body = b"".join([b"MMLSHIX1", struct.pack("<i", 1),
                     struct.pack("<i6d2i", p.c, p.w, p.delta, p.beta, p.p1, p.p2, p.z, p.m, p.l),
                     struct.pack("<q3i", index.seed, index.m, index.n, index.dimension),
                     index.a.tobytes(), index.b.tobytes(), index.buckets.tobytes(),
                     index.point_rows.tobytes()])
    return body + hashlib.sha256(body).digest()


def _first_wide(tables):
    """Index of the first projection with at least two occupied buckets."""
    return next(g for g, (ids, _sizes, _rows) in enumerate(tables) if len(ids) >= 2)


def _empty_bucket(tables):
    g = _first_wide(tables)
    tables[g][1][1] += tables[g][1][0]
    tables[g][1][0] = 0


def _unsorted_ids(tables):
    g = _first_wide(tables)
    tables[g][0][[0, 1]] = tables[g][0][[1, 0]]


class TestFormatV2:
    def test_file_size_follows_the_layout(self, small_index, tmp_path):
        m, n, d = small_index.m, small_index.n, small_index.dimension
        ks = [small_index.occupied_buckets(g)[0].size for g in range(m)]
        want = 8 + 4 + 60 + 20 + 8 * m * d + 8 * m + sum(4 + 12 * k for k in ks) + 4 * m * n + 32
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        mmlsh.save_index(small_index, first)
        mmlsh.save_index(small_index, second)
        assert first.stat().st_size == want
        assert first.read_bytes() == second.read_bytes()

    def test_sections_hold_the_bucket_tables(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        blob = path.read_bytes()
        assert blob[:12] == b"MMLSHIX2" + struct.pack("<i", 2)
        _header, tables = split_v2(blob, small_index.m, small_index.n, small_index.dimension)
        loaded = mmlsh.load_index(path)
        for g, (ids, sizes, rows) in enumerate(tables):
            want_ids, want_sizes = np.unique(small_index.buckets[g], return_counts=True)
            assert ids.tolist() == want_ids.tolist() and sizes.tolist() == want_sizes.tolist()
            assert rows.tolist() == small_index.point_rows[g].tolist()
            got_ids, got_sizes = loaded.occupied_buckets(g)
            assert got_ids.dtype == got_sizes.dtype == np.int64
            assert got_ids.tolist() == want_ids.tolist()
            assert got_sizes.tolist() == want_sizes.tolist()
        assert loaded.buckets.dtype == loaded.point_rows.dtype == np.int64

    def test_the_test_parser_rewrites_a_saved_file_byte_for_byte(self, small_index, tmp_path):
        """So the malformed files below differ from a saved one only in what they spoil."""
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        blob = path.read_bytes()
        header, tables = split_v2(blob, small_index.m, small_index.n, small_index.dimension)
        assert join_v2(header, tables) == blob

    @pytest.mark.parametrize("spoil, message", [
        (_empty_bucket, "bucket sizes are not positive counts summing to n"),
        (lambda t: t[0][1].__setitem__(0, t[0][1][0] + 1),
         "bucket sizes are not positive counts summing to n"),
        (_unsorted_ids, "not strictly ascending"),
        (lambda t: t[0][0].__setitem__(-1, 2 ** 62 + 1), "not strictly ascending"),
        (lambda t: t[-1][2].__setitem__(0, len(t[-1][2])), "a point row lies outside"),
        (lambda t: t[0][2].__setitem__(0, -1), "a point row lies outside"),
        (lambda t: t[0][2].__setitem__(1, t[0][2][0]), "a point row appears twice"),
    ], ids=["empty-bucket", "sizes-over-n", "unsorted-ids", "id-beyond-2**62", "row-n",
            "row-negative", "row-twice"])
    def test_a_malformed_bucket_table_fails_at_load(self, small_index, tmp_path, spoil,
                                                    message):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        header, tables = split_v2(path.read_bytes(), small_index.m, small_index.n,
                                  small_index.dimension)
        spoil(tables)
        path.write_bytes(join_v2(header, tables))
        with pytest.raises(IndexFileError, match=message):
            mmlsh.load_index(path)

    def test_trailing_bytes_fail_at_load(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        header, tables = split_v2(path.read_bytes(), small_index.m, small_index.n,
                                  small_index.dimension)
        path.write_bytes(join_v2(header, tables, tail=b"\0" * 4))
        with pytest.raises(IndexFileError, match="trailing bytes"):
            mmlsh.load_index(path)

    def test_a_cut_body_fails_at_load(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        header, tables = split_v2(path.read_bytes(), small_index.m, small_index.n,
                                  small_index.dimension)
        path.write_bytes(join_v2(header, tables[:-1]))
        with pytest.raises(IndexFileError, match="ends early"):
            mmlsh.load_index(path)

    def test_a_point_count_beyond_the_body_fails_before_allocating(self, small_index,
                                                                    tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        header, tables = split_v2(path.read_bytes(), small_index.m, small_index.n,
                                  small_index.dimension)
        n_at = 8 + 4 + 60 + 8 + 4  # after magic, version, params, seed and m
        header = header[:n_at] + struct.pack("<i", 2 ** 31 - 1) + header[n_at + 4:]
        path.write_bytes(join_v2(header, tables))
        with pytest.raises(IndexFileError, match="ends early"):
            mmlsh.load_index(path)

    def test_a_version_1_file_is_refused(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        path.write_bytes(v1_file(small_index))
        with pytest.raises(IndexFileError, match="unsupported index version 1"):
            mmlsh.load_index(path)

    def test_an_index_too_large_for_int32_rows_is_refused_before_writing(self, tmp_path):
        huge = types.SimpleNamespace(n=2 ** 31, m=1, dimension=1)
        path = tmp_path / "idx.bin"
        with pytest.raises(IndexFileError, match="int32"):
            mmlsh.save_index(huge, path)
        assert os.listdir(tmp_path) == []

    def test_a_failed_save_leaves_the_previous_index_whole(self, small_index, tmp_path,
                                                           monkeypatch):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        before = path.read_bytes()

        class FullDisk:
            """A file that takes 100 bytes, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh, self.room = fh, 100

            def write(self, chunk):
                size = memoryview(chunk).nbytes
                if size > self.room:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= size
                return self.fh.write(chunk)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(lsh, "open", lambda p, mode: FullDisk(builtins.open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            mmlsh.save_index(small_index, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["idx.bin"]


class TestOccupiedBuckets:
    def test_matches_nonzero_bucket_sizes(self, small_index):
        for g in range(small_index.m):
            lo, hi = int(small_index.bucket_lo[g]), int(small_index.bucket_hi[g])
            sizes = small_index.bucket_sizes(g, lo, hi + 1)
            ids, counts = small_index.occupied_buckets(g)
            assert ids.tolist() == [lo + i for i in np.flatnonzero(sizes)]
            assert counts.tolist() == sizes[sizes > 0].tolist()
            assert small_index.occupied_buckets(g)[0] is ids  # the stored array, not a copy


class TestRangeRows:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_range_holds_the_rows_hashed_into_it(self, small_dataset, small_index, data):
        """Empty, reversed, out-of-span and wide ranges, against buckets hashed afresh."""
        hashed = small_index.hash_query(small_dataset.coords)  # (n, m), not read from the table
        g = data.draw(st.integers(0, small_index.m - 1))
        first, last = int(hashed[:, g].min()), int(hashed[:, g].max())
        bound = st.integers(first - 3, last + 3)
        ranges = data.draw(st.lists(st.tuples(bound, bound), max_size=8)) + [
            (first, first), (last, first), (first - 5, first), (last + 1, last + 5),
            (first, last + 1), (-2 ** 62, 2 ** 62)]
        lo, hi = (np.array(bounds, dtype=np.int64) for bounds in zip(*ranges))
        rows, starts, stops = small_index.range_rows(g, lo, hi)
        assert starts.shape == stops.shape == (len(ranges),)
        for (a, b), i0, i1 in zip(ranges, starts, stops):
            want = np.flatnonzero((hashed[:, g] >= a) & (hashed[:, g] < b))
            assert sorted(rows[i0:i1].tolist()) == want.tolist()


def _kept_arrays(index):
    """(name, array) for every array the index keeps, inside lists and tuples too."""
    def walk(name, value):
        if isinstance(value, np.ndarray):
            yield name, value
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                yield from walk(f"{name}[{i}]", item)
    for name, value in vars(index).items():
        yield from walk(name, value)


class TestInMemoryLayout:
    """The index keeps what its file stores: per projection the occupied ids, counts and rows."""

    def test_no_array_but_the_rows_holds_an_entry_per_point(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        for index in (small_index, mmlsh.load_index(path)):
            wide = [name for name, arr in _kept_arrays(index) if arr.shape == (index.m, index.n)]
            assert wide == ["point_rows"]
            assert index.point_rows.dtype == np.int64
            assert all(ids.dtype == counts.dtype == np.int64
                       for ids, counts in zip(index.bucket_ids, index.bucket_counts))
            with pytest.raises(AttributeError):
                index.buckets = index.buckets  # a read-only expansion, never stored

    def test_a_loaded_index_keeps_no_view_into_the_file_bytes(self, small_index, tmp_path,
                                                              monkeypatch):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        blobs = []
        fromfile = np.fromfile

        def kept_fromfile(*args, **kwargs):
            blobs.append(fromfile(*args, **kwargs))
            return blobs[-1]

        monkeypatch.setattr(np, "fromfile", kept_fromfile)
        loaded = mmlsh.load_index(path)
        (blob,) = blobs
        assert [name for name, arr in _kept_arrays(loaded) if np.shares_memory(arr, blob)] == []

    def test_buckets_expands_the_occupied_ids(self, small_index):
        for g, col in enumerate(small_index.buckets):
            ids, counts = small_index.occupied_buckets(g)
            assert np.array_equal(col, np.repeat(ids, counts))
            lo, hi = int(ids[0]), int(ids[-1])
            inside = small_index.bucket_sizes(g, lo, hi + 1).tolist()
            assert small_index.bucket_sizes(g, lo - 2, hi + 3).tolist() == [0, 0] + inside + [0, 0]
            assert small_index.bucket_sizes(g, hi, lo).size == 0


def test_only_lsh_reads_the_bucket_tables():
    """The table layout stays behind LshIndex: no other module names its arrays.

    No module reads the `buckets` property either: it expands the whole (m, n)
    table on every read, for tools outside the package.
    """
    package = Path(mmlsh.__file__).parent
    tables = ("point_rows", "bucket_ids", "bucket_counts", "_offsets")
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute)
             and (node.attr == "buckets" or node.attr in tables and path.name != "lsh.py")]
    assert reads == []


class TestLevelCap:
    def test_c2_keeps_62_levels(self):
        assert mmlsh.level_cap(2) == 62

    @pytest.mark.parametrize("c", [2, 3, 4, 5, 7, 10, 1000])
    def test_widest_level_fits(self, c):
        levels = mmlsh.level_cap(c)
        assert c ** levels <= 2 ** 62 < c ** (levels + 1)


class TestPersistence:
    def test_roundtrip_identity(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        loaded = mmlsh.load_index(path)
        assert loaded.params == small_index.params
        assert loaded.seed == small_index.seed
        assert np.array_equal(loaded.a, small_index.a)
        assert np.array_equal(loaded.b, small_index.b)
        assert np.array_equal(loaded.buckets, small_index.buckets)
        assert np.array_equal(loaded.point_rows, small_index.point_rows)

    def test_truncated_file_fails_checksum(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(IndexFileError, match="checksum|short"):
            mmlsh.load_index(path)

    def test_bad_magic(self, small_index, tmp_path):
        path = tmp_path / "idx.bin"
        mmlsh.save_index(small_index, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFileError):
            mmlsh.load_index(path)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), objects=st.integers(2, 8), points=st.integers(1, 6),
           d=st.integers(2, 6), spread=st.floats(0.05, 1.0))
    def test_reloaded_index_answers_and_charges_the_same(self, seed, objects, points, d,
                                                         spread):
        cfg = bench.RunConfig(synth_objects=objects, synth_points_per_object=points,
                              synth_dimension=d, synth_spread=spread, gamma=0.5, delta=0.25,
                              beta=0.5, epsilon=0.5, k=2, num_queries=3, seed=seed)
        ds = bench.load_dataset(cfg)
        params = mmlsh.derive_params(cfg.delta, cfg.resolved_beta(ds.num_objects), cfg.c, cfg.w)
        built = mmlsh.build_index(ds, params, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "idx.bin")
            mmlsh.save_index(built, path)
            loaded = mmlsh.load_index(path)
        queries = bench.choose_queries(ds, cfg)

        def run(index):
            results, plans, _walls = bench.record_query_plans(cfg, ds, index, queries)
            profile = build_frequency_profile(index, ds, num_queries=50, seed=seed)
            io = {}
            for strategy in (NS1, MMLSH):
                stats = [replace(r.stats) for r in results]
                bench.replay_plans(strategy, plans, index, BufferState(200), stats,
                                   SchedulerConfig(strategy=strategy, profile=profile))
                io[strategy] = [(s.buffer_hits, s.buffer_misses, s.evictions) for s in stats]
            answers = [(r.top_k, r.stop_condition, r.levels_used, r.stats.collision_increments)
                       for r in results]
            return answers, plans, io

        (answers, plans, io), (want_answers, want_plans, want_io) = run(loaded), run(built)
        assert answers == want_answers and io == want_io
        assert [[(g, R) for g, R, _ranges in plan] for plan in plans] == \
            [[(g, R) for g, R, _ranges in plan] for plan in want_plans]
        assert all(np.array_equal(a, b) for plan, want in zip(plans, want_plans)
                   for (_g, _R, a), (_wg, _wR, b) in zip(plan, want))

    def test_roundtrip_preserves_query_answers(self, tmp_path):
        ds = mmlsh.synth_dataset(S=100, points_per_object=100, d=8, cluster_spread=0.1, seed=9)
        assert ds.n == 10_000
        params = mmlsh.derive_params(0.3, 0.5, 2, 2.184)
        idx = mmlsh.build_index(ds, params, seed=1)
        path = tmp_path / "big.bin"
        mmlsh.save_index(idx, path)
        loaded = mmlsh.load_index(path)
        gp = mmlsh.GammaParams(gamma=0.5, delta=0.3, beta=0.5, epsilon=0.6)
        for oid in (0, 17, 42, 73, 99):
            q = mmlsh.QueryObject.from_object(ds, oid)
            before = mmlsh.knn_objects(q, 3, idx, ds, gp)
            after = mmlsh.knn_objects(q, 3, loaded, ds, gp)
            assert before.top_k == after.top_k
            assert before.stop_condition == after.stop_condition
