import contextlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import mmlsh
from mmlsh import similarity
from mmlsh.similarity import euclidean
from mmlsh.engine import CollisionState, count_collisions
from mmlsh.errors import ParameterError


def collision_index(pair_counts, threshold: int) -> float:
    """Oracle: fraction of cross pairs whose collision count reached the threshold.

    pair_counts is the (|set(Q)|, |set(X)|) matrix of collision counts;
    absent collisions are simply zeros.
    """
    counts = np.asarray(pair_counts)
    assert counts.size > 0
    return float(np.count_nonzero(counts >= threshold)) / counts.size


def is_gamma_candidate(ci_value: float, params: mmlsh.GammaParams) -> bool:
    """Oracle: candidacy is a collision index of at least (1 - epsilon) * gamma."""
    return ci_value >= (1.0 - params.epsilon) * params.gamma


def brute_similarity(q, x, radius):
    hits = 0
    for qi in q:
        for xi in x:
            if math.dist(qi, xi) <= radius:
                hits += 1
    return hits / (len(q) * len(x))


def brute_gamma_distance(q, x, gamma):
    dists = sorted(math.dist(qi, xi) for qi in q for xi in x)
    k = math.ceil(gamma * len(dists))
    return dists[k - 1]


class TestRObjectSimilarity:
    def test_identical_singletons(self):
        assert mmlsh.r_object_similarity([[0.0]], [[0.0]], 0.0) == 1.0

    def test_half_qualifies(self):
        assert mmlsh.r_object_similarity([[0.0], [1.0]], [[0.0]], 0.5) == 0.5

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(5, 3)).tolist()
        x = rng.normal(size=(4, 3)).tolist()
        for radius in (0.5, 1.0, 2.0, 5.0):
            assert mmlsh.r_object_similarity(q, x, radius) == brute_similarity(q, x, radius)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            mmlsh.r_object_similarity([[0.0, 1.0]], [[0.0]], 1.0)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(9)
        q, x = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
        values = [mmlsh.r_object_similarity(q, x, r) for r in np.linspace(0, 6, 25)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert mmlsh.r_object_similarity(q, x, 1e9) == 1.0


class TestGammaDistance:
    def test_first_order_statistic(self):
        assert mmlsh.gamma_distance([[0.0], [1.0]], [[0.0]], 0.5) == 0.0

    def test_second_order_statistic(self):
        assert mmlsh.gamma_distance([[0.0], [1.0]], [[0.0]], 0.75) == 1.0

    def test_matches_order_statistic_oracle(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(6, 3)).tolist()
        x = rng.normal(size=(7, 3)).tolist()
        got = mmlsh.gamma_distance(q, x, 0.3)
        assert got == pytest.approx(brute_gamma_distance(q, x, 0.3), abs=1e-12)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(5)
        q, x = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        values = [mmlsh.gamma_distance(q, x, g) for g in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @given(st.integers(1, 6), st.integers(1, 6),
           st.floats(0.01, 1.0, allow_nan=False), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_similarity_at_gamma_distance(self, nq, nx, gamma, seed):
        rng = np.random.default_rng(seed)
        q, x = rng.normal(size=(nq, 3)), rng.normal(size=(nx, 3))
        gdist = mmlsh.gamma_distance(q, x, gamma)
        assert mmlsh.r_object_similarity(q, x, gdist) >= gamma
        if gdist > 0:
            assert mmlsh.r_object_similarity(q, x, gdist * (1 - 1e-9) - 1e-12) < gamma


@st.composite
def point_sets(draw):
    """A (P, d) query and an (X, d) point set, each maybe non-contiguous or F-ordered.

    The values are float32 clouds at a scale from 1e-3 to 1e3, float64 values
    that float32 cannot hold, float32 clouds at offset 1e4 with spread 1e-3,
    coordinates of 1e20 to 1e36, or small integers, where distances tie
    exactly; some query points are then points of the set. The query is
    float64; the set is float32 when float32 holds it, or float64.
    """
    p, n, d = draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 128))
    kind = draw(st.sampled_from(("float32", "float64", "far", "huge", "ties")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "ties":
        pts = rng.integers(-2, 3, size=(p + n, d)).astype(np.float64)
        pts[:p // 2] = pts[rng.integers(p, p + n, p // 2)]
    else:
        scale = {"far": 1e-3, "huge": 10.0 ** draw(st.integers(20, 36))}.get(
            kind, 10.0 ** draw(st.integers(-3, 3)))
        pts = (1e4 if kind == "far" else 0.0) + rng.normal(size=(p + n, d)) * scale
        if kind != "float64":
            pts = pts.astype(np.float32).astype(np.float64)
    x = pts[p:].astype(np.float32) if kind != "float64" and draw(st.booleans()) else pts[p:]

    def laid_out(a):
        layout = draw(st.sampled_from(("C", "F", "strided")))
        if layout == "F":
            return np.asfortranarray(a)
        if layout == "strided":  # every other row and column of a larger array
            wide = np.zeros((2 * a.shape[0], 2 * d), dtype=a.dtype)
            wide[::2, ::2] = a
            return wide[::2, ::2]
        return a

    return laid_out(pts[:p]), laid_out(x)


class TestEuclidean:
    """`euclidean` equals scipy's `cdist`, bit for bit."""

    @given(point_sets())
    @settings(max_examples=300, deadline=None)
    def test_equals_cdist(self, case):
        q, x = case
        want = cdist(q, x.astype(np.float64))
        assert euclidean(q[:, None], x).tobytes() == want.tobytes()  # all pairs
        assert euclidean(q[0], x).tobytes() == want[0].tobytes()     # one point against many
        assert euclidean(x, q[0]).tobytes() == want[0].tobytes()
        assert euclidean(q[-1], x[-1]).tobytes() == want[-1, -1].tobytes()  # one pair
        rows = np.arange(len(x)) % len(q)  # matched pairs
        assert euclidean(q[rows], x).tobytes() == want[rows, np.arange(len(x))].tobytes()


def worst_case_rounding(a, b, dtype) -> float:
    """Higham's bound on the product's rounding, from the true norms of a and b.

    One entry is a dot product of d + 2 terms, [x | ||x||^2 | 1] . [-2 q | 1 |
    ||q||^2], whose terms sum to at most (1 + gamma_d) (||x|| + ||q||)^2 once
    the norms carry their own rounding, gamma_d (||x||^2 + ||q||^2).
    """
    d = a.shape[1]
    u = float(np.finfo(dtype).eps) / 2
    gamma = lambda n: n * u / (1 - n * u)
    reach = (np.linalg.norm(np.asarray(a, dtype=np.float64), axis=1).max()
             + np.linalg.norm(np.asarray(b, dtype=np.float64), axis=1).max()) ** 2
    return float((gamma(d + 2) * (1 + gamma(d)) + gamma(d)) * reach)


class TestApproxSqDists:
    """Every safe product's S lies within its eta of the squared `cdist` value, pair by pair."""

    @given(point_sets())
    @settings(max_examples=300, deadline=None)
    def test_every_pair_is_within_eta(self, case):
        q, x = case
        for dtype in (np.float32, np.float64):
            with np.errstate(over="ignore"):
                q_p, x_p = q.astype(dtype), x.astype(dtype)
            if not (np.array_equal(q_p, q) and np.array_equal(x_p, x)):
                continue  # float32 does not hold the points: no float32 product is taken
            table = similarity.augmented(x_p)
            for a, b, tables in ((q_p, x_p, ()), (x_p, q_p, ()),
                                 (x_p, q_p, (table, None)), (q_p, x_p, (None, table))):
                approx = similarity._approx_sq_dists(a, b, *tables)
                if approx is None:
                    continue
                sq, eta = approx
                assert sq.dtype == dtype and sq.shape == (len(a), len(b))
                assert eta >= worst_case_rounding(a, b, dtype) * (1 - 2.0 ** -40)
                exact = cdist(a.astype(np.float64), b.astype(np.float64))
                bound = Fraction(eta)
                assert all(abs(Fraction(s) - Fraction(c) ** 2) <= bound
                           for s, c in zip(sq.ravel().tolist(), exact.ravel().tolist()))


class TestCollisionIndex:
    def test_all_qualify(self):
        assert collision_index(np.full((3, 3), 10), threshold=5) == 1.0

    def test_none_qualify(self):
        assert collision_index(np.zeros((3, 3)), threshold=5) == 0.0

    def test_four_of_nine(self):
        counts = np.array([[5, 5, 0], [5, 5, 0], [0, 0, 0]])
        assert collision_index(counts, threshold=5) == pytest.approx(4 / 9)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 10, size=(4, 5))
        values = [collision_index(counts, t) for t in range(1, 11)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestCandidacy:
    def test_candidate_above_threshold(self):
        p = mmlsh.GammaParams(gamma=0.5, delta=0.1, beta=0.1, epsilon=0.2)
        assert is_gamma_candidate(0.5, p)
        assert not is_gamma_candidate(0.39, p)

    def test_boundary_is_inclusive(self):
        p = mmlsh.GammaParams(gamma=0.5, delta=0.1, beta=0.1, epsilon=0.2)
        assert is_gamma_candidate((1 - 0.2) * 0.5, p)

    def test_epsilon_defaults_to_twice_delta(self):
        p = mmlsh.GammaParams(gamma=0.5, delta=0.15, beta=0.1)
        assert p.epsilon == pytest.approx(0.3)
        with pytest.raises(ParameterError, match="epsilon"):
            mmlsh.GammaParams(gamma=0.5, delta=0.2, beta=0.1, epsilon=0.2)


def cdist_gamma_distance(q, x, gamma):
    """Oracle: the ceil(gamma * pairs)-th smallest of scipy's `cdist` values of the cross pairs."""
    dists = np.sort(cdist(np.asarray(q, dtype=np.float64), np.asarray(x, dtype=np.float64)),
                    axis=None)
    return float(dists[math.ceil(gamma * dists.size) - 1])


def per_object_gamma_distances(q, dataset, ranks, gamma):
    """Oracle: one `cdist` gamma-distance per asked object."""
    return np.array([cdist_gamma_distance(q, dataset.object_coords(int(dataset.object_ids[r])),
                                          gamma) for r in ranks], dtype=np.float64)


KINDS = ("plain", "duplicates", "far", "huge")  # the last two take the float64 product


@st.composite
def ragged_case(draw):
    """A dataset of ragged objects with shuffled, non-contiguous owners, a query, and its kind.

    - plain: normal clouds at a scale from 1e-3 to 1e3;
    - duplicates: the same, with repeated rows and query points that are data
      points, so exact ties fall on the order statistic;
    - far: clouds at offset 1e4 with spread 1e-3;
    - huge: coordinates of 1e20 to 1e36, whose squares overflow float32.
    """
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=12))
    ids = draw(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=len(sizes),
                        max_size=len(sizes), unique=True))
    d = draw(st.integers(1, 5) | st.just(32))  # 32: the benchmark's dimension
    q_size = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(KINDS))
    scale = draw(st.floats(1e-3, 1e3) if kind in ("plain", "duplicates") else
                 st.just(1e-3) if kind == "far" else st.floats(1e20, 1e36))
    offset = 1e4 if kind == "far" else 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    owners = rng.permutation(np.repeat(ids, sizes))
    coords = offset + rng.normal(size=(len(owners), d)) * scale
    q = offset + rng.normal(size=(q_size, d)) * scale
    if kind == "duplicates":
        n = len(coords)
        coords[rng.integers(0, n, n)] = coords[rng.integers(0, n, n)]
        q[:(q_size + 1) // 2] = coords[rng.integers(0, n, (q_size + 1) // 2)]
    dataset = mmlsh.Dataset(coords, owners)
    gamma = draw(st.sampled_from([1e-9, 0.5, 1.0]) | st.floats(1e-9, 1.0))
    ranks = draw(st.lists(st.integers(0, len(sizes) - 1), max_size=30))
    return q.astype(np.float32), dataset, ranks, gamma, kind


def spy(name):
    """Patch similarity.<name> with a mock that counts calls and still runs it."""
    return mock.patch.object(similarity, name, wraps=getattr(similarity, name))


@contextlib.contextmanager
def products():
    """Record the precision, np.float32 or np.float64, of every safe product `similarity` takes."""
    ran = []
    approx_sq_dists = similarity._approx_sq_dists

    def recording(a, b, *rest):
        approx = approx_sq_dists(a, b, *rest)
        if approx is not None:
            ran.append(approx[0].dtype.type)
        return approx

    with mock.patch.object(similarity, "_approx_sq_dists", recording):
        yield ran


@contextlib.contextmanager
def returned(name):
    """Record (args, return value) of every call to similarity.<name>, which still runs."""
    calls = []
    wrapped = getattr(similarity, name)

    def recording(*args, **kwargs):
        result = wrapped(*args, **kwargs)
        calls.append((args, result))
        return result

    with mock.patch.object(similarity, name, recording):
        yield calls


@contextlib.contextmanager
def handed_tables():
    """Record (a, b, a_table, b_table) of every product `similarity` tries, safe or not."""
    calls = []
    approx_sq_dists = similarity._approx_sq_dists

    def recording(a, b, a_table=None, b_table=None):
        calls.append((a, b, a_table, b_table))
        return approx_sq_dists(a, b, a_table, b_table)

    with mock.patch.object(similarity, "_approx_sq_dists", recording):
        yield calls


class TestGammaDistances:
    """The batched kernel equals one `gamma_distance` per object, bit for bit."""

    @given(ragged_case())
    @settings(max_examples=400, deadline=None)
    def test_equals_per_object_gamma_distance(self, case):
        q, dataset, ranks, gamma, kind = case
        with products() as ran:
            got = mmlsh.gamma_distances(q, dataset, ranks, gamma)
        want = per_object_gamma_distances(q, dataset, ranks, gamma)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        if kind in ("far", "huge") and ranks:  # far clouds drop the float32 product
            assert set(ran) == ({np.float32, np.float64} if kind == "far" else {np.float64})

    def test_clustered_objects_take_the_product_path(self):
        dataset = mmlsh.synth_dataset(60, 15, 8, 0.1, seed=4)
        q = mmlsh.QueryObject.from_object(dataset, 11).coords
        ranks = np.arange(dataset.num_objects)
        with products() as ran:
            got = mmlsh.gamma_distances(q, dataset, ranks, 0.7)
        assert ran and set(ran) == {np.float32}
        assert got.tobytes() == per_object_gamma_distances(q, dataset, ranks, 0.7).tobytes()

    def test_scaling_the_callers_array_afterwards_changes_no_distance(self):
        # the dataset keeps its own copy of the coordinates, so the caller's later write
        # leaves them, and the norms summed from them, as they were
        source = mmlsh.synth_dataset(40, 10, 8, 0.1, seed=4)
        coords = np.array(source.coords)
        dataset = mmlsh.Dataset(coords, source.object_ids[source.point_object_index])
        coords *= 30
        assert dataset.coords.tobytes() == source.coords.tobytes()
        q = mmlsh.QueryObject.from_object(dataset, 11).coords
        ranks = np.arange(dataset.num_objects)
        got = mmlsh.gamma_distances(q, dataset, ranks, 0.7)
        assert got.tobytes() == per_object_gamma_distances(q, dataset, ranks, 0.7).tobytes()

    def test_a_query_float32_does_not_hold_takes_the_float64_product(self):
        dataset = mmlsh.synth_dataset(20, 10, 4, 0.1, seed=6)
        q = np.random.default_rng(6).normal(size=(5, 4))  # float64 values
        with products() as ran:
            got = mmlsh.gamma_distances(q, dataset, np.arange(20), 0.5)
        assert ran and set(ran) == {np.float64}
        assert got.tobytes() == per_object_gamma_distances(q, dataset, np.arange(20),
                                                           0.5).tobytes()

    def test_one_size_group_over_several_blocks(self, monkeypatch):
        rng = np.random.default_rng(8)
        owners = rng.permutation(np.repeat(np.arange(40, 0, -2), 10))  # 20 objects of 10 points
        dataset = mmlsh.Dataset(rng.normal(size=(200, 4)), owners)
        q = rng.normal(size=(4, 4)).astype(np.float32)
        ranks = rng.integers(0, 20, size=25)
        blocks = []
        block_gamma_distances = similarity._block_gamma_distances

        def recording_block(q, x_rows, *rest):
            blocks.append(np.array(x_rows))
            return block_gamma_distances(q, x_rows, *rest)

        monkeypatch.setattr(similarity, "BLOCK_PAIRS", 81)  # two objects of 40 pairs
        monkeypatch.setattr(similarity, "_block_gamma_distances", recording_block)
        with spy("_select_in_window") as window, products() as ran:
            got = mmlsh.gamma_distances(q, dataset, ranks, 0.4)
        assert window.call_count == len(blocks) and ran == [np.float32] * len(blocks)
        # the blocks tile the group: in order, two objects each, every asked object once
        assert [len(x) for x in blocks] == [20] * 12 + [10]
        want_rows = np.concatenate([dataset.object_coords(int(dataset.object_ids[r]))
                                    for r in ranks])
        assert np.array_equal(np.concatenate(blocks)[:, :4], want_rows)
        want = per_object_gamma_distances(q, dataset, ranks, 0.4)
        assert got.tobytes() == want.tobytes()

    def test_far_clouds_drop_the_float32_product_once_per_call(self, monkeypatch):
        """Once a block drops float32, the call's later blocks, of any size, take float64 alone."""
        rng = np.random.default_rng(10)
        owners = rng.permutation(np.repeat(np.arange(18), np.repeat([3, 5, 8], 6)))
        dataset = mmlsh.Dataset(1e4 + rng.normal(size=(owners.size, 4)) * 1e-3, owners)
        q = (1e4 + rng.normal(size=(5, 4)) * 1e-3).astype(np.float32)
        ranks = rng.permutation(18)
        monkeypatch.setattr(similarity, "BLOCK_PAIRS", 80)  # 2, 2 and 3 blocks per size
        with products() as ran, spy("_block_gamma_distances") as blocks:
            got = mmlsh.gamma_distances(q, dataset, ranks, 0.5)
        assert blocks.call_count == 7
        assert ran == [np.float32] + [np.float64] * 7
        assert got.tobytes() == per_object_gamma_distances(q, dataset, ranks, 0.5).tobytes()

    def test_no_safe_product_measures_every_pair(self):
        """A query beyond float64's norm limit for the product: every pair is in the window."""
        rng = np.random.default_rng(14)
        dataset = mmlsh.Dataset(rng.normal(size=(40, 3)), np.repeat(np.arange(8), 5))
        q = rng.normal(size=(3, 3)) * 1e152
        with products() as ran, spy("_select_in_window") as window:
            got = mmlsh.gamma_distances(q, dataset, np.arange(8), 0.5)
        assert ran == [] and window.call_args.args[2].size == 40 * 3
        assert got.tobytes() == per_object_gamma_distances(q, dataset, np.arange(8), 0.5).tobytes()

    def test_an_object_above_the_block_bound_is_its_own_block(self, monkeypatch):
        rng = np.random.default_rng(2)
        dataset = mmlsh.Dataset(rng.normal(size=(12, 3)), np.repeat([5, 9], 6))
        q = rng.normal(size=(4, 3))
        monkeypatch.setattr(similarity, "BLOCK_PAIRS", 5)
        got = mmlsh.gamma_distances(q, dataset, [1, 0, 1], 0.7)
        assert got.tobytes() == per_object_gamma_distances(q, dataset, [1, 0, 1], 0.7).tobytes()

    def test_float32_products_read_the_dataset_norm_table(self):
        """No float32 product sums data norms: each is handed its rows of `augmented`."""
        dataset = mmlsh.synth_dataset(60, 15, 8, 0.1, seed=4)
        q = mmlsh.QueryObject.from_object(dataset, 11).coords
        row_of = {row.tobytes(): i for i, row in enumerate(dataset.coords)}
        assert len(row_of) == dataset.n
        with handed_tables() as calls, spy("squared_norms") as summed:
            got = mmlsh.gamma_distances(q, dataset, np.arange(60), 0.7)
            similarity.rows_within_kth(q, dataset, 9)
        assert len(calls) > 1 and {a.dtype.type for a, *_ in calls} == {np.float32}
        for a, b, a_table, b_table in calls:  # the blocks' data is a, Linear-Borda's b
            assert (a_table is None) != (b_table is None)
            data, table = (a, a_table) if b_table is None else (b, b_table)
            rows = [row_of[row.tobytes()] for row in data]
            # the data's rows, their norms from the dataset's column, and the 1s
            assert table.tobytes() == dataset.augmented[rows].tobytes()
            assert table[:, -2].tobytes() == dataset.sq_norms[rows].tobytes()
        # one sum per product, of the query's points
        assert summed.call_count == len(calls)
        assert all(np.array_equal(c.args[0], q) for c in summed.call_args_list)
        assert got.tobytes() == per_object_gamma_distances(q, dataset, np.arange(60),
                                                           0.7).tobytes()

    @pytest.mark.parametrize("offset, scale", [(1e4, 1e-3), (0.0, 1e30)])
    def test_float64_products_sum_their_own_norms(self, offset, scale):
        """Far data drops float32 and huge data squares to inf there: float64 sums both sides."""
        rng = np.random.default_rng(12)
        dataset = mmlsh.Dataset(offset + rng.normal(size=(60, 4)) * scale,
                                np.repeat(np.arange(12), 5))
        q = (offset + rng.normal(size=(3, 4)) * scale).astype(np.float32)
        with handed_tables() as calls, spy("squared_norms") as summed:
            got = mmlsh.gamma_distances(q, dataset, np.arange(12), 0.5)
        wide = [call for call in calls if call[0].dtype == np.float64]
        assert wide and all(a_table is None and b_table is None for _, _, a_table, b_table in wide)
        assert [a.dtype.type for a, *_ in calls] == [np.float32] + [np.float64] * len(wide)
        assert sorted(c.args[0].dtype.name for c in summed.call_args_list) == (
            ["float32"] + ["float64"] * 2 * len(wide))
        assert got.tobytes() == per_object_gamma_distances(q, dataset, np.arange(12),
                                                           0.5).tobytes()

    def test_a_negative_kth_product_is_clamped_before_the_selection(self):
        """An object of the query's own points at k = 1: its smallest S rounds below 0.

        The selection reads max(S, 0) as integers; a negative float's bits would
        sort as a negative integer, and in reverse order of value.
        """
        rng = np.random.default_rng(21)
        q = rng.normal(size=(64, 32)).astype(np.float32)
        dataset = mmlsh.Dataset(np.vstack([q, rng.normal(size=(64, 32)) + 3]),
                                np.repeat([1, 2], 64))
        gamma = 1e-9  # k = 1 of 64 x 64 pairs
        with returned("_approx_sq_dists") as products, returned("_bounds") as bounds:
            got = mmlsh.gamma_distances(q, dataset, [0, 1], gamma)
        assert len(products) == len(bounds) == 1  # one float32 product for both objects
        sq = products[0][1][0].reshape(2, -1)
        assert sq.dtype == np.float32 and sq[0].min() < 0  # the k-th S, before the clamp
        t = bounds[0][0][0]
        assert np.array_equal(t, np.sort(np.maximum(sq, 0), axis=1)[:, 0]) and t[0] == 0
        assert got[0] == 0.0
        assert got.tobytes() == per_object_gamma_distances(q, dataset, [0, 1], gamma).tobytes()

    @pytest.mark.parametrize("gamma", [0.01, 0.999])
    def test_an_object_of_more_than_65535_pairs_counts_in_a_wider_type(self, gamma):
        """75,000 pairs an object: the count of pairs at or above lo does not fit 16 bits."""
        rng = np.random.default_rng(22)
        dataset = mmlsh.Dataset(rng.normal(size=(600, 2)), np.repeat([4, 7], 300))
        q = rng.normal(size=(250, 2)).astype(np.float32)
        with returned("_narrowed") as narrowed:
            got = mmlsh.gamma_distances(q, dataset, [0, 1], gamma)
        (_, (dtype, below, _)), = narrowed
        assert dtype is np.float32 and below.dtype == np.uint32
        assert got.tobytes() == per_object_gamma_distances(q, dataset, [0, 1], gamma).tobytes()

    def test_empty_ranks_give_an_empty_array(self, small_dataset):
        q = small_dataset.object_coords(0)
        got = mmlsh.gamma_distances(q, small_dataset, [], 0.5)
        assert got.shape == (0,) and got.dtype == np.float64

    def test_dimension_mismatch_raises_as_gamma_distance_does(self, small_dataset):
        q = np.zeros((2, small_dataset.dimension + 1))
        with pytest.raises(ValueError) as single:
            mmlsh.gamma_distance(q, small_dataset.object_coords(0), 0.5)
        with pytest.raises(ValueError) as batched:
            mmlsh.gamma_distances(q, small_dataset, [0], 0.5)
        assert type(batched.value) is type(single.value)
        assert str(batched.value) == str(single.value)

    def test_gamma_out_of_range_raises(self, small_dataset):
        with pytest.raises(ParameterError):
            mmlsh.gamma_distances(small_dataset.object_coords(0), small_dataset, [0], 0.0)


class TestObjectRatio:
    def test_perfect(self):
        value, flagged = mmlsh.object_ratio([1.0, 2.0], [1.0, 2.0])
        assert value == 1.0 and not flagged

    def test_mean_of_ratios(self):
        value, _ = mmlsh.object_ratio([1.0, 3.0], [1.0, 2.0])
        assert value == pytest.approx(1.25)

    def test_zero_truth_handling(self):
        value, flagged = mmlsh.object_ratio([0.0], [0.0])
        assert value == 1.0 and flagged
        value, flagged = mmlsh.object_ratio([1.0], [0.0])
        assert math.isinf(value) and flagged

    def test_matches_recomputation(self, small_dataset):
        gamma = 0.4
        q = mmlsh.QueryObject.from_object(small_dataset, 0)
        truth = mmlsh.exact_knn_objects(q, small_dataset, 5, gamma)
        returned = truth[:4] + [truth[5 - 1]]
        value, _ = mmlsh.object_ratio([d for _, d in returned], [d for _, d in truth])
        expected = np.mean([
            cdist_gamma_distance(q.coords, small_dataset.object_coords(oid), gamma) / td
            for (oid, _), (_, td) in zip(returned, truth)
        ])
        assert value == pytest.approx(float(expected), rel=1e-12)


def lane_counts(state):
    """The (|Q|, n) collision counts a CollisionState holds, decoded by shift and mask."""
    points = np.arange(len(state.q_base))
    words = state.packed_counts[points // state.lanes]
    shifts = (points % state.lanes * state.lane_bits).astype(np.uint64)[:, None]
    lanes = words >> shifts & np.uint64(2 ** state.lane_bits - 1)
    return lanes.astype(np.int64) - state._start


class TestCollisionStateMatchesOracles:
    """The engine's per-object collision index and candidacy are the definitions above."""

    @pytest.mark.parametrize("query_object, levels", [(0, 1), (5, 2), (9, 4)])
    def test_ci_and_candidate_mask(self, small_dataset, small_index, query_object, levels):
        q = mmlsh.QueryObject.from_object(small_dataset, query_object)
        state = CollisionState(small_index.hash_query(q.coords), small_index, small_dataset)
        for i in range(levels):
            for g in range(small_index.m):
                count_collisions(state, range(g, g + 1), small_index.params.c ** i)
        l = small_index.params.l
        counts = lane_counts(state)
        want_ci = [collision_index(counts[:, small_dataset.point_object_index == j], l)
                   for j in range(small_dataset.num_objects)]
        assert state.ci.tolist() == want_ci
        assert 0.0 < max(want_ci)
        for gamma, epsilon in ((0.2, 0.5), (0.5, 0.2), (0.9, 0.6)):
            p = mmlsh.GammaParams(gamma=gamma, delta=0.1, beta=0.1, epsilon=epsilon)
            assert state.candidate_mask(p).tolist() == [is_gamma_candidate(ci, p)
                                                         for ci in want_ci]
