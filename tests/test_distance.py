"""Profile distances: adjusted cosine, baselines, matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from sybilscatter import (
    DistanceMatrix,
    ParameterError,
    ShapeError,
    SignalProfile,
    adjusted_distances,
    baseline_distances,
    cosine_distance,
    distance_matrix,
)
from sybilscatter.distance import (
    DEGENERATE_NORM_TOL,
    F_SIDE_DEGENERATE_DISTANCE,
    G_SIDE_DEGENERATE_DISTANCE,
)

# Hand evaluation of 1 - cos for f=(1,0), g=(1,1)/sqrt(2), pinned up front.
COSINE_FIXTURE = 0.2928932188134524


def unit_rows(rng, n, k):
    rows = rng.random((n, k)) + 0.05
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def adjusted(f, g, mean_f):
    """The adjusted cosine distance of one row pair: a one-row block."""
    return adjusted_distances(f[None], g[None], mean_f)[0]


class TestCosineDistance:
    def test_identical_vectors(self):
        f = np.array([0.6, 0.8])
        assert cosine_distance(f, f) == 0.0

    def test_orthogonal_vectors(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_pinned_fixture(self):
        g = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert cosine_distance(np.array([1.0, 0.0]), g) == COSINE_FIXTURE

    def test_zero_vector_rejected(self):
        with pytest.raises(ParameterError):
            cosine_distance(np.zeros(2), np.array([1.0, 0.0]))

    def test_nonnegative_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = cosine_distance(rng.random(4) + 0.01, rng.random(4) + 0.01)
            assert 0.0 <= d <= 1.0

    def test_vectors_must_be_equal_length_1d(self):
        with pytest.raises(ShapeError):
            cosine_distance(np.ones(2), np.ones(3))
        with pytest.raises(ShapeError):
            cosine_distance(np.ones((2, 2)), np.ones((2, 2)))


class TestAdjustedCosineDistance:
    def test_zero_mean_reduces_to_cosine(self):
        f = np.array([0.3, 0.9, 0.1])
        g = np.array([0.5, 0.2, 0.7])
        assert adjusted(f, g, np.zeros(3)) == cosine_distance(f, g)

    def test_identical_vectors_give_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = rng.random(4)
            mean = rng.random(4) * 0.3
            assert adjusted(f, f, mean) == 0.0

    def test_antiparallel_centered_vectors(self):
        d = adjusted(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert abs(d - 2.0) <= 1e-15

    def test_asymmetric_by_construction(self):
        f = np.array([0.9, 0.1, 0.3])
        g = np.array([0.2, 0.8, 0.4])
        mean_f = np.array([0.5, 0.2, 0.2])
        mean_g = np.array([0.3, 0.6, 0.3])
        assert adjusted(f, g, mean_f) != adjusted(g, f, mean_g)

    def test_range_clipped(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f, g = rng.random(4), rng.random(4)
            mean = rng.random(4)
            assert 0.0 <= adjusted(f, g, mean) <= 2.0


class TestAdjustedDistanceRows:
    """adjusted_distances on one (L, K) block pair."""

    def test_matches_scalar_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rows_f = rng.random((6, 4))
            rows_g = rng.random((6, 4))
            mean = rng.random(4) * 0.5
            bulk = adjusted_distances(rows_f, rows_g, mean)
            want = oracle.adjusted_distance_rows(rows_f, rows_g, mean)
            assert bulk.tobytes() == want.tobytes()
            for l in range(6):
                assert adjusted(rows_f[l], rows_g[l], mean) == bulk[l]

    def test_substitutes_degenerate_sides(self):
        mean = np.array([0.5, 0.5])
        rows_f = np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]])
        rows_g = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        values = adjusted_distances(rows_f, rows_g, mean)
        assert values[0] == F_SIDE_DEGENERATE_DISTANCE
        assert values[1] == G_SIDE_DEGENERATE_DISTANCE
        # both degenerate: the first side wins
        assert values[2] == F_SIDE_DEGENERATE_DISTANCE

    def test_identical_rows_give_exact_zeros(self):
        rng = np.random.default_rng(4)
        rows = unit_rows(rng, 5, 4)
        values = adjusted_distances(rows, rows, rows.mean(axis=0))
        np.testing.assert_array_equal(values, np.zeros(5))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            adjusted_distances(np.ones((2, 3)), np.ones((2, 4)), np.ones(3))


def baseline(f, g, metric):
    """The baseline distance of one row pair: a one-row block."""
    return baseline_distances(np.asarray(f, dtype=np.float64)[None],
                              np.asarray(g, dtype=np.float64)[None], metric)[0]


class TestBaselineDistances:
    def test_manhattan(self):
        assert baseline([0.0, 0.0], [1.0, 1.0], "manhattan") == 2.0

    def test_euclidean(self):
        assert baseline([0.0, 0.0], [3.0, 4.0], "euclidean") == 5.0

    def test_chebyshev(self):
        assert baseline([1.0, 5.0], [4.0, 1.0], "chebyshev") == 4.0

    def test_cosine_baseline_matches_function(self):
        f = np.array([0.3, 0.7])
        g = np.array([0.6, 0.2])
        assert baseline(f, g, "cosine") == cosine_distance(f, g)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ParameterError):
            baseline(np.ones(2), np.ones(2), "minkowski")

    def test_bulk_matches_scalar(self):
        rng = np.random.default_rng(5)
        rows_f = rng.random((8, 4))
        rows_g = rng.random((8, 4))
        for metric in ("manhattan", "euclidean", "chebyshev", "cosine"):
            bulk = baseline_distances(rows_f, rows_g, metric)
            for l in range(8):
                assert abs(bulk[l] - baseline(rows_f[l], rows_g[l], metric)) <= 1e-12


class TestProfileDistances:
    def _profiles(self, seed=6, n=3, rows=4, k=4):
        rng = np.random.default_rng(seed)
        return [SignalProfile(identity=f"id{i}", signatures=unit_rows(rng, rows, k))
                for i in range(n)]

    def test_vector_centers_on_first_profile(self):
        pf, pg, _ = self._profiles()
        matrix = distance_matrix([pf, pg])
        for (i, j), (a, b) in {(0, 1): (pf, pg), (1, 0): (pg, pf)}.items():
            expected = adjusted_distances(a.signatures, b.signatures, a.mean_vector)
            np.testing.assert_array_equal(matrix.values[i, j], expected)
        assert matrix.identities == ("id0", "id1")

    def test_self_distance_vector_is_zero(self):
        pf = self._profiles()[0]
        other = SignalProfile(identity="twin", signatures=pf.signatures)
        np.testing.assert_array_equal(
            adjusted_distances(pf.signatures, other.signatures, pf.mean_vector),
            np.zeros(pf.profile_len))

    def test_baseline_vector(self):
        pf, pg, _ = self._profiles()
        values = baseline_distances(pf.signatures, pg.signatures, "euclidean")
        for l in range(pf.profile_len):
            assert values[l] == baseline(pf.signatures[l], pg.signatures[l], "euclidean")

    def test_profile_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        pf = SignalProfile(identity="a", signatures=unit_rows(rng, 3, 4))
        pg = SignalProfile(identity="b", signatures=unit_rows(rng, 4, 4))
        with pytest.raises(ShapeError):
            adjusted_distances(pf.signatures, pg.signatures, pf.mean_vector)
        with pytest.raises(ShapeError):
            distance_matrix([pf, pg])


class TestDistanceMatrix:
    def _profiles(self, n):
        rng = np.random.default_rng(8)
        return [SignalProfile(identity=f"id{i}", signatures=unit_rows(rng, 3, 4))
                for i in range(n)]

    def test_two_profiles_two_vectors(self):
        matrix = distance_matrix(self._profiles(2))
        assert matrix.values.shape == (2, 2, 3)
        assert matrix.values[0, 1].any()
        assert matrix.values[1, 0].any()

    def test_five_profiles_twenty_entries(self):
        matrix = distance_matrix(self._profiles(5))
        off_diagonal = [(i, j) for i in range(5) for j in range(5) if i != j]
        assert len(off_diagonal) == 20
        assert all(matrix.values[i, j].any() for i, j in off_diagonal)

    def test_diagonal_zero(self):
        matrix = distance_matrix(self._profiles(3))
        for i in range(3):
            np.testing.assert_array_equal(matrix.values[i, i], np.zeros(3))

    def test_duplicate_profile_mutual_zeros(self):
        profiles = self._profiles(3)
        twin = SignalProfile(identity="twin", signatures=profiles[0].signatures)
        matrix = distance_matrix(profiles + [twin])
        i, j = matrix.identities.index("id0"), matrix.identities.index("twin")
        np.testing.assert_array_equal(matrix.values[i, j], 0.0)
        np.testing.assert_array_equal(matrix.values[j, i], 0.0)

    def test_needs_two_profiles(self):
        with pytest.raises(ParameterError):
            distance_matrix(self._profiles(1))

    def test_matrix_validation(self):
        values = np.ones((2, 2, 3))  # nonzero diagonal
        with pytest.raises(ParameterError):
            DistanceMatrix(identities=("a", "b"), values=values)


@st.composite
def profile_sets(draw):
    """2-7 profiles whose rows come from a small pool of unit vectors.

    Profile 0 is constant, so each of its rows equals its mean, and profile
    1 starts with that row, so d(0, 1) degenerates on both sides at l = 0;
    with three or more profiles the last repeats an earlier one.
    """
    n = draw(st.integers(2, 7), label="profiles")
    k = draw(st.integers(2, 5), label="K")
    length = draw(st.integers(1, 4), label="L")
    pool = draw(arrays(np.float64, (draw(st.integers(2, 4)), k),
                       elements=st.floats(0.05, 1.0)), label="pool")
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    picks = [[0] * length] + [
        draw(st.lists(st.integers(0, len(pool) - 1), min_size=length, max_size=length))
        for _ in range(n - 1)]
    picks[1][0] = 0
    repeated = draw(st.integers(0, n - 2)) if n > 2 else None
    if repeated is not None:
        picks[-1] = picks[repeated]
    profiles = [SignalProfile(identity=f"id{i}", signatures=pool[rows])
                for i, rows in enumerate(picks)]
    return profiles, repeated


def _centered_norms(rows, mean):
    """The norms _adjusted compares with DEGENERATE_NORM_TOL."""
    centered = rows - mean
    return np.sqrt(np.add.reduce(centered * centered, axis=-1))


class TestDistanceMatrixProperties:
    @settings(max_examples=150, deadline=None)
    @given(drawn=profile_sets())
    def test_matrix_is_the_per_pair_distances(self, drawn):
        profiles, repeated = drawn
        values = distance_matrix(profiles).values
        for i, f in enumerate(profiles):
            for j, g in enumerate(profiles):
                pair = adjusted_distances(f.signatures, g.signatures, f.mean_vector)
                assert values[i, j].tobytes() == pair.tobytes()
            assert values[i, i].tobytes() == np.zeros(f.profile_len).tobytes()
        if repeated is not None:
            assert not values[repeated, -1].any() and not values[-1, repeated].any()

    @settings(max_examples=150, deadline=None)
    @given(drawn=profile_sets())
    def test_degenerate_substitutions(self, drawn):
        profiles, _ = drawn
        values = distance_matrix(profiles).values
        for i, f in enumerate(profiles):
            nf = _centered_norms(f.signatures, f.mean_vector)
            for j, g in enumerate(profiles):
                ng = _centered_norms(g.signatures, f.mean_vector)
                f_side = nf < DEGENERATE_NORM_TOL
                g_side = ~f_side & (ng < DEGENERATE_NORM_TOL)
                assert np.all(values[i, j][f_side] == F_SIDE_DEGENERATE_DISTANCE)
                assert np.all(values[i, j][g_side] == G_SIDE_DEGENERATE_DISTANCE)
        # both sides collapse at d(0, 1)'s first row, and the F side wins
        mean = profiles[0].mean_vector
        assert _centered_norms(profiles[0].signatures[0], mean) < DEGENERATE_NORM_TOL
        assert _centered_norms(profiles[1].signatures[0], mean) < DEGENERATE_NORM_TOL
        assert values[0, 1, 0] == F_SIDE_DEGENERATE_DISTANCE

    def test_directions_differ_in_general(self):
        # d(F, G) centers on F's mean and d(G, F) on G's
        rng = np.random.default_rng(11)
        for _ in range(50):
            profiles = [SignalProfile(identity=f"id{i}", signatures=unit_rows(rng, 4, 4))
                        for i in range(2)]
            values = distance_matrix(profiles).values
            assert np.all(values[0, 1] != values[1, 0])

