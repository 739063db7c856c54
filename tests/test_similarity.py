import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import mmlsh
from mmlsh import similarity
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


def per_object_gamma_distances(q, dataset, ranks, gamma):
    """Oracle: one `gamma_distance` per asked object."""
    return np.array([mmlsh.gamma_distance(q, dataset.object_coords(int(dataset.object_ids[r])),
                                          gamma) for r in ranks], dtype=np.float64)


@st.composite
def ragged_case(draw):
    """A dataset of ragged objects with shuffled, non-contiguous owners, and a query."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=12))
    ids = draw(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=len(sizes),
                        max_size=len(sizes), unique=True))
    d = draw(st.integers(1, 5))
    q_size = draw(st.integers(1, 7))
    scale = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    owners = rng.permutation(np.repeat(ids, sizes))
    dataset = mmlsh.Dataset(rng.normal(size=(len(owners), d)) * scale, owners)
    q = (rng.normal(size=(q_size, d)) * scale).astype(np.float32)
    gamma = draw(st.sampled_from([1e-9, 0.5, 1.0]) | st.floats(1e-9, 1.0))
    ranks = draw(st.lists(st.integers(0, len(sizes) - 1), max_size=30))
    return q, dataset, ranks, gamma


class TestGammaDistances:
    """The batched kernel equals one `gamma_distance` per object, bit for bit."""

    @given(ragged_case())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_object_gamma_distance(self, case):
        q, dataset, ranks, gamma = case
        got = mmlsh.gamma_distances(q, dataset, ranks, gamma)
        want = per_object_gamma_distances(q, dataset, ranks, gamma)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_one_size_group_over_several_blocks(self, monkeypatch):
        rng = np.random.default_rng(8)
        owners = rng.permutation(np.repeat(np.arange(40, 0, -2), 3))  # 20 objects of 3 points
        dataset = mmlsh.Dataset(rng.normal(size=(60, 4)), owners)
        q = rng.normal(size=(2, 4))
        ranks = rng.integers(0, 20, size=25)
        calls = []

        def counting_cdist(a, b):
            calls.append(len(b))
            return cdist(a, b)

        monkeypatch.setattr(similarity, "BLOCK_PAIRS", 13)  # two objects of 6 pairs
        monkeypatch.setattr(similarity, "cdist", counting_cdist)
        got = mmlsh.gamma_distances(q, dataset, ranks, 0.4)
        assert calls == [6] * 12 + [3]  # 25 objects of one size, two per block
        want = per_object_gamma_distances(q, dataset, ranks, 0.4)
        assert got.tobytes() == want.tobytes()

    def test_an_object_above_the_block_bound_is_its_own_block(self, monkeypatch):
        rng = np.random.default_rng(2)
        dataset = mmlsh.Dataset(rng.normal(size=(12, 3)), np.repeat([5, 9], 6))
        q = rng.normal(size=(4, 3))
        monkeypatch.setattr(similarity, "BLOCK_PAIRS", 5)
        got = mmlsh.gamma_distances(q, dataset, [1, 0, 1], 0.7)
        assert got.tobytes() == per_object_gamma_distances(q, dataset, [1, 0, 1], 0.7).tobytes()

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
            mmlsh.gamma_distance(q.coords, small_dataset.object_coords(oid), gamma) / td
            for (oid, _), (_, td) in zip(returned, truth)
        ])
        assert value == pytest.approx(float(expected), rel=1e-12)


class TestCollisionStateMatchesOracles:
    """The engine's per-object collision index and candidacy are the definitions above."""

    @pytest.mark.parametrize("query_object, levels", [(0, 1), (5, 2), (9, 4)])
    def test_ci_and_candidate_mask(self, small_dataset, small_index, query_object, levels):
        q = mmlsh.QueryObject.from_object(small_dataset, query_object)
        state = CollisionState(len(q.coords), small_index, small_dataset)
        q_base = small_index.hash_query(q.coords)
        for i in range(levels):
            for g in range(small_index.m):
                count_collisions(q_base[:, g], g, small_index.params.c ** i, small_index,
                                 small_dataset, state)
        l = small_index.params.l
        want_ci = [collision_index(state.counts[:, small_dataset.point_object_index == j], l)
                   for j in range(small_dataset.num_objects)]
        assert state.ci.tolist() == want_ci
        assert 0.0 < max(want_ci)
        for gamma, epsilon in ((0.2, 0.5), (0.5, 0.2), (0.9, 0.6)):
            p = mmlsh.GammaParams(gamma=gamma, delta=0.1, beta=0.1, epsilon=epsilon)
            assert state.candidate_mask(p).tolist() == [is_gamma_candidate(ci, p)
                                                         for ci in want_ci]
