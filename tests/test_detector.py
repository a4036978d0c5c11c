"""Similarity model: sigmoid, weighted training, verdicts."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracle
import sybilscatter
from conftest import labeled_dataset
from sybilscatter import (
    DistanceMatrix,
    LRModel,
    ParameterError,
    ShapeError,
    SimilarityMatrix,
    TrainingConfig,
    TrainingDataError,
    TrainingDivergenceError,
    TrainingSet,
    Verdict,
    compute_class_weights,
    detect_sybil,
    predict_scores,
    sigmoid,
    similarity_matrix,
    train_mwle,
    weighted_gradient,
    weighted_log_likelihood,
)
from sybilscatter.detector import similarity_scores


# Trains two 10-column sets for a few steps; prints one hash of each model.
THREADED_FITS = """
import hashlib
import numpy as np
from sybilscatter import TrainingConfig, TrainingSet, train_mwle
rng = np.random.default_rng(29)
for n in (50960, 45865):
    y = (rng.random(n) < 0.25).astype(float)
    X = rng.random((n, 10)) + 0.4 * (1 - y[:, None])
    model = train_mwle(TrainingSet(X=X, y=y, v=np.ones(n)), TrainingConfig(max_iters=5))
    print(hashlib.sha256(model.weights.tobytes() + np.float64(model.bias).tobytes()).hexdigest())
"""


def toy_set(rng, n=40, dim=3, weight=1.0):
    # label 1 = same source = small distances, by construction
    y = np.arange(n) % 2
    X = np.empty((n, dim))
    for i in range(n):
        X[i] = rng.random(dim) * 0.2 if y[i] == 1 else 0.8 + rng.random(dim) * 0.5
    return TrainingSet(X=X, y=y, v=np.full(n, weight))


def scores(model, X):
    """Same-source probabilities of the rows of X, as predict_scores takes them."""
    return similarity_scores(model, np.asarray(X, dtype=np.float64))


def pair_matrix(values):
    """DistanceMatrix over identities 0..N-1 with the given off-diagonal
    (N, N, L) values."""
    values = np.array(values, dtype=np.float64)
    n = values.shape[0]
    values[np.arange(n), np.arange(n)] = 0.0
    return DistanceMatrix(identities=tuple(str(i) for i in range(n)), values=values)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturates_high(self):
        assert sigmoid(50.0) == 1.0

    def test_saturates_low_without_overflow(self):
        with np.errstate(over="raise"):
            assert sigmoid(-1000.0) == 0.0

    def test_symmetry_is_bit_exact(self):
        rng = np.random.default_rng(10)
        z = rng.normal(scale=30.0, size=2000)
        np.testing.assert_array_equal(sigmoid(-z), 1.0 - sigmoid(z))

    def test_monotone(self):
        z = np.linspace(-20, 20, 500)
        assert np.all(np.diff(sigmoid(z)) >= 0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(sigmoid(1.3), float)
        assert sigmoid(np.ones(4)).shape == (4,)

    def test_matches_the_allocating_formula_bit_for_bit(self):
        rng = np.random.default_rng(22)
        special = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.0, -36.0,
                   745.0, -745.0, 1e308, -1e308, np.inf, -np.inf]
        for z in special + list(rng.normal(scale=20.0, size=50)):
            got, want = sigmoid(z), oracle.sigmoid(z)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), z
        for shape in [(0,), (7,), (3, 4), (2, 3, 5)]:
            z = rng.normal(scale=20.0, size=shape)
            z.flat[:len(special)] = special[:z.size]
            assert sigmoid(z).tobytes() == oracle.sigmoid(z).tobytes()
        for scale in [1e-8, 1.0, 40.0]:
            z = rng.normal(scale=scale, size=20000)
            assert sigmoid(z).tobytes() == oracle.sigmoid(z).tobytes()
        assert np.isnan(sigmoid(np.nan))  # NaN maps to NaN, sign bit aside
        z = rng.normal(size=4)
        before = z.copy()
        sigmoid(z)
        assert z.tobytes() == before.tobytes()  # the input is not a buffer


class TestLRModel:
    @pytest.mark.parametrize("weights, bias", [
        ([0.1, np.nan], 0.0), ([np.inf, 0.1], 0.0), ([0.1, 0.2], np.nan),
        ([0.1, 0.2], -np.inf)])
    def test_non_finite_parameters_rejected(self, weights, bias):
        with pytest.raises(ParameterError, match="finite"):
            LRModel(weights=np.array(weights), bias=bias)


class TestPredictSimilarity:
    """Directed same-source probabilities from similarity_matrix and
    predict_scores."""

    def test_null_model_gives_half(self):
        model = LRModel(weights=np.zeros(3), bias=0.0)
        values = np.zeros((2, 2, 3))
        values[0, 1] = [0.4, 0.1, 0.9]
        values[1, 0] = [0.2, 0.8, 0.3]
        probs = similarity_matrix(model, pair_matrix(values)).probs
        assert probs[0, 1] == 0.5 and probs[1, 0] == 0.5

    def test_matches_dot_product(self):
        rng = np.random.default_rng(11)
        model = LRModel(weights=rng.normal(size=4), bias=0.7)
        values = rng.random((8, 8, 4))
        probs = similarity_matrix(model, pair_matrix(values)).probs
        for i in range(8):
            for j in range(8):
                if i != j:
                    d = values[i, j]
                    assert probs[i, j] == sigmoid(float(np.dot(model.weights, d))
                                                  + model.bias)

    def test_length_mismatch_rejected(self):
        model = LRModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ShapeError):
            similarity_matrix(model, pair_matrix(np.ones((2, 2, 4))))
        dataset = labeled_dataset([((0, 1), 0, "a", "b", 1, np.zeros(4))],
                                  {(0, 1): {"a": "r0", "b": "r0"}})
        with pytest.raises(ShapeError):
            predict_scores(model, dataset)


class TestClassWeights:
    def test_imbalanced_fixture(self):
        labels = [1] * 10 + [0] * 40
        assert compute_class_weights(labels) == {0: 0.625, 1: 2.5}

    def test_balanced_gives_unit_weights(self):
        assert compute_class_weights([0, 1, 0, 1]) == {0: 1.0, 1: 1.0}

    def test_counting_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            labels = (rng.random(60) < 0.3).astype(int)
            if labels.min() == labels.max():
                continue
            v = compute_class_weights(labels)
            n_pos = labels.sum()
            assert v[1] == 60 / (2.0 * n_pos)
            assert v[0] == 60 / (2.0 * (60 - n_pos))

    def test_single_class_rejected(self):
        with pytest.raises(TrainingDataError):
            compute_class_weights([1, 1, 1])

    def test_bad_label_rejected(self):
        with pytest.raises(ParameterError):
            compute_class_weights([0, 1, 2])


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        data = toy_set(rng, n=30, dim=3)
        X, y = data.X, data.y
        v = rng.random(30) + 0.5
        w = rng.normal(size=3)
        b = 0.4
        grad_w, grad_b = weighted_gradient(w, b, X, y, v)

        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (weighted_log_likelihood(w + e, b, X, y, v)
                  - weighted_log_likelihood(w - e, b, X, y, v)) / (2 * h)
            assert abs(grad_w[k] - fd) <= 1e-5 * max(1.0, abs(fd))
        fd_b = (weighted_log_likelihood(w, b + h, X, y, v)
                - weighted_log_likelihood(w, b - h, X, y, v)) / (2 * h)
        assert abs(grad_b - fd_b) <= 1e-5 * max(1.0, abs(fd_b))

    def test_matches_the_allocating_formula_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for n in [3000, 20000]:  # one column block, and three
            X = rng.random((n, 10))
            y = (rng.random(n) < 0.3).astype(np.float64)
            v = rng.random(n) + 0.5
            w, b = rng.normal(size=10), 0.3
            grad_w, grad_b = weighted_gradient(w, b, X, y, v)
            want_w, want_b = oracle.weighted_gradient(w, b, X, y, v)
            assert grad_w.tobytes() == want_w.tobytes()
            assert grad_b == want_b

    def test_no_samples_give_a_zero_gradient(self):
        grad_w, grad_b = weighted_gradient(np.ones(3), 0.5, np.zeros((0, 3)),
                                           np.zeros(0), np.zeros(0))
        assert grad_w.tolist() == [0.0, 0.0, 0.0] and grad_b == 0.0

    def test_residual_keeps_its_value_at_large_margins(self):
        # z = 40 on a label-1 sample and -40 on a label-0 one: both are
        # classified correctly, g(z) rounds to y, and y - g(z) would read 0
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        w = np.array([20.0])
        for y, b, x, v in [(1.0, 0.0, 2.0, 1.5), (0.0, -100.0, 3.0, 0.7)]:
            assert abs(w[0] * x + b) == 40.0
            grad_w, grad_b = weighted_gradient(w, b, np.array([[x]]), np.array([y]),
                                               np.array([v]))
            # v (y - g(z)) = s v g(-40) for s = 2y - 1
            residual = (2 * y - 1) * mpmath.mpf(v) / (1 + mpmath.exp(40))
            for got, want in [(grad_w[0], float(residual * x)), (grad_b, float(residual))]:
                assert got != 0.0
                assert abs(got - want) <= 4 * np.spacing(abs(want)), (y, got, want)

    def test_overflowing_exp_is_silent_and_saturates(self):
        # at |z| >= 710 exp(u) is inf: a correct sample's residual is 0 and
        # a wrong one's is its full weight, without a RuntimeWarning
        X = np.array([[800.0], [800.0], [-800.0], [-800.0]])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        v = np.array([1.0, 2.0, 4.0, 8.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad_w, grad_b = weighted_gradient(np.ones(1), 0.0, X, y, v)
        # residuals 0, -2, +4, 0
        assert grad_w.tolist() == [-2.0 * 800.0 + 4.0 * -800.0]
        assert grad_b == 2.0

        data = toy_set(np.random.default_rng(32))
        wide = TrainingSet(X=1e4 * data.X, y=data.y, v=data.v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_mwle(wide, TrainingConfig(max_iters=5))
        assert np.abs(wide.X @ model.weights + model.bias).max() > 710.0

    def test_likelihood_finite_at_extreme_scores(self):
        X = np.array([[100.0], [-100.0]])
        y = np.array([0.0, 1.0])
        v = np.ones(2)
        assert np.isfinite(weighted_log_likelihood(np.array([5.0]), 0.0, X, y, v))


class TestTrainMWLE:
    def test_deterministic(self):
        data = toy_set(np.random.default_rng(14))
        a = train_mwle(data)
        b = train_mwle(data)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_explicit_unit_weight_is_noop(self):
        # balanced classes weigh 1, so their class weights are unit weights
        rng = np.random.default_rng(15)
        plain = toy_set(rng)
        class_weights = compute_class_weights(plain.y)
        weighted = TrainingSet(X=plain.X, y=plain.y,
                               v=[class_weights[c] for c in plain.y])
        a = train_mwle(plain)
        b = train_mwle(weighted)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_constant_weight_cancels(self):
        # the per-step gradient is normalized by total weight, so a shared
        # constant c drops out up to rounding
        rng = np.random.default_rng(16)
        plain = toy_set(rng)
        scaled = TrainingSet(X=plain.X, y=plain.y, v=np.full(len(plain), 3.7))
        a = train_mwle(plain)
        b = train_mwle(scaled)
        np.testing.assert_allclose(b.weights, a.weights, rtol=0, atol=1e-12)
        assert abs(b.bias - a.bias) <= 1e-12

    def test_duplicates_with_halved_weights_cancel(self):
        rng = np.random.default_rng(17)
        plain = toy_set(rng, n=20)
        doubled = TrainingSet(X=np.repeat(plain.X, 2, axis=0), y=np.repeat(plain.y, 2),
                              v=np.full(40, 0.5))
        a = train_mwle(plain)
        b = train_mwle(doubled)
        np.testing.assert_allclose(b.weights, a.weights, rtol=0, atol=1e-12)
        assert abs(b.bias - a.bias) <= 1e-12

    def test_separable_toy_classified_perfectly(self):
        rng = np.random.default_rng(18)
        data = toy_set(rng, n=60)
        model = train_mwle(data)
        np.testing.assert_array_equal(scores(model, data.X) >= 0.5, data.y == 1)

    def test_small_distance_means_similar(self):
        rng = np.random.default_rng(19)
        model = train_mwle(toy_set(rng))
        near, far = scores(model, [np.full(3, 0.05), np.full(3, 1.2)])
        assert near > 0.5 > far

    def test_matches_objective_checked_ascent(self):
        data = toy_set(np.random.default_rng(20), n=50, dim=4)
        config = TrainingConfig(max_iters=300)
        model = train_mwle(data, config)
        w, b = oracle.train_mwle(data.X, data.y, np.ones(len(data)), config)
        np.testing.assert_array_equal(model.weights, w)
        assert model.bias == b

    def _assert_matches_oracle(self, data, config):
        model = train_mwle(data, config)
        w, b = oracle.train_mwle(data.X, data.y, data.v, config)
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias == b
        return model

    def test_early_grad_tol_break_matches_oracle(self):
        data = toy_set(np.random.default_rng(24), n=50, dim=4)
        loose = TrainingConfig(grad_tol=1e-2)
        model = self._assert_matches_oracle(data, loose)
        # the tolerance did stop the ascent before max_iters
        full = train_mwle(data, TrainingConfig(grad_tol=1e-2, max_iters=20000))
        capped = train_mwle(data, TrainingConfig(max_iters=5000))
        assert model.weights.tobytes() == full.weights.tobytes()
        assert model.weights.tobytes() != capped.weights.tobytes()

    def test_single_iteration_matches_oracle(self):
        data = toy_set(np.random.default_rng(25), n=50, dim=4)
        model = self._assert_matches_oracle(data, TrainingConfig(max_iters=1))
        assert np.all(model.weights != 0.0)

    def test_unequal_class_weights_match_oracle(self):
        rng = np.random.default_rng(26)
        labels = (rng.random(90) < 0.2).astype(int)
        weights = compute_class_weights(labels)
        X = np.where(labels[:, None] == 1, 0.3, 0.7) * rng.random((90, 5))
        data = TrainingSet(X=X, y=labels, v=[weights[c] for c in labels])
        assert weights[0] != weights[1]
        self._assert_matches_oracle(data, TrainingConfig(max_iters=400))

    def test_wide_design_above_2048_samples_matches_oracle(self):
        # past numpy's pairwise-sum block and BLAS's small-size paths
        rng = np.random.default_rng(27)
        labels = (rng.random(2600) < 0.25).astype(int)
        weights = compute_class_weights(labels)
        X = rng.random((2600, 10)) + 0.4 * (1 - labels[:, None])
        data = TrainingSet(X=X, y=labels, v=[weights[c] for c in labels])
        self._assert_matches_oracle(data, TrainingConfig(max_iters=150))

    def test_several_column_blocks_match_oracle(self):
        # 20,000 rows of 11 design rows are three blocks: pins their order
        rng = np.random.default_rng(30)
        labels = (rng.random(20000) < 0.25).astype(int)
        weights = compute_class_weights(labels)
        X = rng.random((20000, 10)) + 0.4 * (1 - labels[:, None])
        data = TrainingSet(X=X, y=labels, v=[weights[c] for c in labels])
        self._assert_matches_oracle(data, TrainingConfig(max_iters=20))

    def test_one_step_is_the_public_gradient(self):
        # from zero, one step is lr times the scaled gradient that
        # weighted_gradient returns: the trainer has no other kernel
        rng = np.random.default_rng(31)
        labels = (rng.random(20000) < 0.3).astype(int)
        weights = compute_class_weights(labels)
        X = rng.random((20000, 10)) + 0.3 * labels[:, None]
        data = TrainingSet(X=X, y=labels, v=[weights[c] for c in labels])
        config = TrainingConfig(max_iters=1)
        model = train_mwle(data, config)
        grad_w, grad_b = weighted_gradient(np.zeros(10), 0.0, data.X, data.y, data.v)
        total = float(data.v.sum())
        lr = config.learning_rate
        assert model.weights.tobytes() == (lr * (grad_w / total)).tobytes()
        assert model.bias == lr * (grad_b / total)

    def test_model_bytes_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS threads a dgemv of 460,800 elements or more.  50,960 rows
        # is `sybilscatter train` on the default dataset; at 45,865 rows a
        # single dgemv of the scores also splits unevenly across threads
        def fit(threads):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=str(Path(sybilscatter.__file__).resolve().parents[1]))
            done = subprocess.run([sys.executable, "-c", THREADED_FITS], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            return done.stdout.split()

        one, two = fit(1), fit(2)
        assert len(one) == 2
        assert one == two

    def test_array_set_and_sample_list_give_identical_models(self):
        # a set built from per-sample Python lists holds the same arrays
        data = toy_set(np.random.default_rng(28), n=60, dim=5, weight=1.5)
        samples = TrainingSet(X=[list(row) for row in data.X],
                              y=[int(label) for label in data.y], v=[1.5] * 60)
        a = train_mwle(samples, TrainingConfig(max_iters=700))
        b = train_mwle(data, TrainingConfig(max_iters=700))
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias == b.bias

    def test_nan_in_a_later_gradient_component_diverges(self):
        # the weights sum to a finite 16; column 1's products with the
        # residuals (+2, +2, -2, -2) each overflow, to +inf and -inf, so
        # the gradient is [0, inf - inf] = [0, NaN] and the bias gradient
        # 0: a max that skips NaN would read 0 and stop as if converged
        X = np.array([[1.0, 1e308], [0.0, 1e308], [1.0, 1e308], [0.0, 1e308]])
        data = TrainingSet(X=X, y=[1, 1, 0, 0], v=[4.0] * 4)
        with np.errstate(over="ignore", invalid="ignore"):
            grad_w, grad_b = weighted_gradient(np.zeros(2), 0.0, X, data.y, data.v)
            assert grad_w[0] == 0.0 and np.isnan(grad_w[1]) and grad_b == 0.0
            with pytest.raises(TrainingDivergenceError, match="gradient"):
                train_mwle(data)

    def test_overflowing_weight_total_rejected(self):
        # four finite weights of 1e308 sum to inf: the data is at fault,
        # not the optimizer
        X = np.array([[1.0, 0.5], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        data = TrainingSet(X=X, y=[1, 0, 1, 0], v=[1e308] * 4)
        with pytest.raises(TrainingDataError, match="total"):
            train_mwle(data)

    def test_huge_learning_rate_diverges(self):
        # the first step (gradient about -250 per weight) overflows the weights
        data = toy_set(np.random.default_rng(21))
        samples = TrainingSet(X=1e3 * data.X, y=data.y, v=data.v)
        with pytest.raises(TrainingDivergenceError):
            train_mwle(samples, TrainingConfig(learning_rate=1e306, max_iters=100))

    def test_single_class_rejected(self):
        with pytest.raises(TrainingDataError, match="single class"):
            train_mwle(TrainingSet(X=[[0.1], [0.2]], y=[1, 1], v=[1.0, 1.0]))

    def test_too_few_samples_rejected(self):
        with pytest.raises(TrainingDataError, match="at least 2"):
            train_mwle(TrainingSet(X=[[0.1]], y=[1], v=[1.0]))

    def test_training_sample_validation(self):
        with pytest.raises(ParameterError):
            TrainingSet(X=[[0.1]], y=[2], v=[1.0])
        with pytest.raises(ParameterError):
            TrainingSet(X=[[0.1]], y=[1], v=[0.0])
        with pytest.raises(ParameterError):
            TrainingConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_training_sample_rejects_non_finite_distance(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            TrainingSet(X=[[0.1, bad]], y=[1], v=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_training_sample_rejects_bad_weight(self, bad):
        with pytest.raises(ParameterError, match="weight"):
            TrainingSet(X=[[0.1]], y=[1], v=[bad])


class TestTrainingConfig:
    @pytest.mark.parametrize("field, bad", [
        ("learning_rate", 0.0), ("learning_rate", np.inf), ("learning_rate", np.nan),
        ("grad_tol", -1e-8), ("grad_tol", np.inf), ("grad_tol", np.nan),
        ("max_iters", 0), ("max_iters", 2.5), ("max_iters", True), ("max_iters", "10")])
    def test_rejects_bad_values(self, field, bad):
        # an infinite grad_tol would stop every fit at the all-zero model,
        # and a fractional max_iters would escape range() as a TypeError
        with pytest.raises(ParameterError, match=field):
            TrainingConfig(**{field: bad})

    def test_numpy_integer_iterations_accepted(self):
        assert TrainingConfig(max_iters=np.int64(3)).max_iters == 3


class TestTrainingSet:
    def _args(self):
        return {"X": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], "y": [1, 0, 1],
                "v": [2.0, 1.0, 2.0]}

    def test_holds_read_only_float_copies(self):
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        data = TrainingSet(X=X, y=np.array([1, 0]), v=[1.0, 1.0])
        assert len(data) == 2
        assert data.X.flags.c_contiguous and not data.X.flags.writeable
        assert data.y.dtype == np.float64 and not data.y.flags.writeable
        assert not data.v.flags.writeable
        X[0, 0] = 9.0
        assert data.X[0, 0] == 0.1
        assert X.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_distance(self, bad):
        args = self._args()
        args["X"][2][1] = bad
        with pytest.raises(ParameterError, match="finite"):
            TrainingSet(**args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_weight(self, bad):
        args = self._args()
        args["v"][1] = bad
        with pytest.raises(ParameterError, match="weights"):
            TrainingSet(**args)

    def test_rejects_bad_label(self):
        args = self._args()
        args["y"][0] = 2
        with pytest.raises(ParameterError, match="labels"):
            TrainingSet(**args)

    @pytest.mark.parametrize("field, value", [
        ("X", [0.1, 0.2, 0.3]), ("X", np.zeros((3, 0))), ("y", [1, 0]),
        ("v", [[1.0, 1.0, 1.0]])])
    def test_rejects_bad_shapes(self, field, value):
        args = self._args()
        args[field] = value
        with pytest.raises(ShapeError):
            TrainingSet(**args)

    def test_trainer_checks_size_and_classes(self):
        with pytest.raises(TrainingDataError):
            train_mwle(TrainingSet(X=[[0.1]], y=[1], v=[1.0]))
        with pytest.raises(TrainingDataError):
            train_mwle(TrainingSet(X=[[0.1], [0.2]], y=[1, 1], v=[1.0, 1.0]))


class TestSimilarityMatrix:
    def _distances(self):
        values = np.zeros((2, 2, 3))
        values[0, 1] = [0.1, 0.2, 0.3]
        values[1, 0] = [0.3, 0.1, 0.2]
        return DistanceMatrix(identities=("a", "b"), values=values)

    def test_applies_model_per_pair(self):
        model = LRModel(weights=np.array([-2.0, -1.0, -3.0]), bias=1.5)
        distances = self._distances()
        sims = similarity_matrix(model, distances)
        want = oracle.similarity_probs(model, distances.values)
        assert sims.probs.tobytes() == want.tobytes()
        assert sims.prob("a", "b") == want[0, 1] and sims.prob("b", "a") == want[1, 0]
        assert sims.probs[0, 0] == 0.0 and sims.probs[1, 1] == 0.0

    def test_profile_len_mismatch_rejected(self):
        model = LRModel(weights=np.zeros(4), bias=0.0)
        with pytest.raises(ShapeError):
            similarity_matrix(model, self._distances())

    def test_validation(self):
        with pytest.raises(ParameterError):
            SimilarityMatrix(identities=("a", "a"), probs=np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            SimilarityMatrix(identities=("a", "b"),
                             probs=np.array([[0.0, 1.4], [0.2, 0.0]]))
        with pytest.raises(ParameterError):
            SimilarityMatrix(identities=("a", "b"),
                             probs=np.array([[0.3, 0.1], [0.2, 0.0]]))
        with pytest.raises(ShapeError):
            SimilarityMatrix(identities=("a", "b"), probs=np.zeros((3, 3)))

    def test_nan_similarity_rejected(self):
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            SimilarityMatrix(identities=("a", "b"),
                             probs=np.array([[0.0, np.nan], [0.2, 0.0]]))


def sims_from(ids, entries):
    n = len(ids)
    probs = np.zeros((n, n))
    for (i, j), p in entries.items():
        probs[i, j] = p
    return SimilarityMatrix(identities=ids, probs=probs)


class TestDetectSybil:
    def test_mutual_high_similarity_flags_pair(self):
        sims = sims_from(("x", "y", "z"),
                         {(0, 1): 0.9, (1, 0): 0.8,
                          (0, 2): 0.1, (2, 0): 0.2, (1, 2): 0.1, (2, 1): 0.1})
        verdict = detect_sybil(sims)
        assert verdict.sybil_pairs == frozenset({("x", "y")})
        assert verdict.fake_identities == frozenset({"x", "y"})
        assert verdict.legit_identities == frozenset({"z"})

    def test_one_directional_similarity_is_not_enough(self):
        sims = sims_from(("x", "y"), {(0, 1): 0.9, (1, 0): 0.3})
        verdict = detect_sybil(sims)
        assert not verdict.sybil_pairs
        assert verdict.legit_identities == frozenset({"x", "y"})

    def test_all_below_threshold(self):
        sims = sims_from(("x", "y"), {(0, 1): 0.4, (1, 0): 0.4})
        assert not detect_sybil(sims).sybil_pairs

    def test_threshold_is_inclusive(self):
        sims = sims_from(("x", "y"), {(0, 1): 0.5, (1, 0): 0.5})
        assert detect_sybil(sims, sigma=0.5).sybil_pairs == frozenset({("x", "y")})

    def test_raising_sigma_never_adds_pairs(self):
        rng = np.random.default_rng(20)
        n = 5
        probs = rng.random((n, n))
        probs[np.arange(n), np.arange(n)] = 0.0
        sims = SimilarityMatrix(identities=tuple("abcde"), probs=probs)
        previous = None
        for sigma in (0.2, 0.4, 0.6, 0.8):
            flagged = detect_sybil(sims, sigma=sigma).sybil_pairs
            if previous is not None:
                assert flagged <= previous
            previous = flagged

    def test_sigma_domain(self):
        sims = sims_from(("x", "y"), {(0, 1): 0.4, (1, 0): 0.4})
        for sigma in (0.0, 1.0, -0.5):
            with pytest.raises(ParameterError):
                detect_sybil(sims, sigma=sigma)

    def test_verdict_validation(self):
        # a flagged pair is two of the identities judged
        with pytest.raises(ParameterError, match="distinct members"):
            Verdict(threshold=0.5, identities=frozenset({"a", "c"}),
                    sybil_pairs=frozenset({("a", "b")}))

    def test_self_pair_rejected(self):
        with pytest.raises(ParameterError, match="distinct members"):
            Verdict(threshold=0.5, identities=frozenset({"a", "b"}),
                    sybil_pairs=frozenset({("a", "a")}))

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 7.0, np.nan])
    def test_threshold_outside_the_unit_interval_rejected(self, threshold):
        with pytest.raises(ParameterError, match=r"\(0, 1\)"):
            Verdict(threshold=threshold, identities=frozenset({"a", "b"}),
                    sybil_pairs=frozenset())

    def test_verdict_identities_union(self):
        verdict = Verdict(threshold=0.5, identities=frozenset({"a", "b", "c"}),
                          sybil_pairs=frozenset({("b", "a")}))
        assert verdict.sybil_pairs == frozenset({("a", "b")})
        assert verdict.fake_identities == frozenset({"a", "b"})
        assert verdict.legit_identities == frozenset({"c"})
        assert verdict.identities == verdict.fake_identities | verdict.legit_identities
        # the split is derived, never passed
        with pytest.raises(TypeError):
            Verdict(threshold=0.5, identities=frozenset({"a"}), sybil_pairs=frozenset(),
                    fake_identities=frozenset(), legit_identities=frozenset({"a"}))
