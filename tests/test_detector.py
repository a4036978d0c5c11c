"""Similarity model: sigmoid, weighted training, verdicts."""

import numpy as np
import pytest

import oracle
from sybilscatter import (
    DistanceMatrix,
    LRModel,
    ParameterError,
    ShapeError,
    SimilarityMatrix,
    TrainingConfig,
    TrainingDataError,
    TrainingDivergenceError,
    TrainingSample,
    Verdict,
    compute_class_weights,
    detect_sybil,
    predict_similarity,
    sigmoid,
    similarity_matrix,
    train_mwle,
    weighted_gradient,
    weighted_log_likelihood,
)


def toy_samples(rng, n=40, dim=3, weight=None):
    # label 1 = same source = small distances, by construction
    samples = []
    for i in range(n):
        label = i % 2
        if label == 1:
            d = rng.random(dim) * 0.2
        else:
            d = 0.8 + rng.random(dim) * 0.5
        kwargs = {} if weight is None else {"weight": weight}
        samples.append(TrainingSample(distance=d, label=label, **kwargs))
    return samples


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


class TestPredictSimilarity:
    def test_null_model_gives_half(self):
        model = LRModel(weights=np.zeros(3), bias=0.0)
        assert predict_similarity(model, np.array([0.4, 0.1, 0.9])) == 0.5

    def test_matches_dot_product(self):
        rng = np.random.default_rng(11)
        model = LRModel(weights=rng.normal(size=4), bias=0.7)
        for _ in range(50):
            d = rng.random(4)
            expected = sigmoid(float(np.dot(model.weights, d)) + model.bias)
            assert predict_similarity(model, d) == expected

    def test_length_mismatch_rejected(self):
        model = LRModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ShapeError):
            predict_similarity(model, np.zeros(4))


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
        samples = toy_samples(rng, n=30, dim=3)
        X = np.vstack([s.distance for s in samples])
        y = np.array([s.label for s in samples], dtype=np.float64)
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

    def test_likelihood_finite_at_extreme_scores(self):
        X = np.array([[100.0], [-100.0]])
        y = np.array([0.0, 1.0])
        v = np.ones(2)
        assert np.isfinite(weighted_log_likelihood(np.array([5.0]), 0.0, X, y, v))


class TestTrainMWLE:
    def test_deterministic(self):
        samples = toy_samples(np.random.default_rng(14))
        a = train_mwle(samples)
        b = train_mwle(samples)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_explicit_unit_weight_is_noop(self):
        rng = np.random.default_rng(15)
        plain = toy_samples(rng)
        weighted = [TrainingSample(s.distance, s.label, 1.0) for s in plain]
        a = train_mwle(plain)
        b = train_mwle(weighted)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_constant_weight_cancels(self):
        # the per-step gradient is normalized by total weight, so a shared
        # constant c drops out up to rounding
        rng = np.random.default_rng(16)
        plain = toy_samples(rng)
        scaled = [TrainingSample(s.distance, s.label, 3.7) for s in plain]
        a = train_mwle(plain)
        b = train_mwle(scaled)
        np.testing.assert_allclose(b.weights, a.weights, rtol=0, atol=1e-12)
        assert abs(b.bias - a.bias) <= 1e-12

    def test_duplicates_with_halved_weights_cancel(self):
        rng = np.random.default_rng(17)
        plain = toy_samples(rng, n=20)
        doubled = [TrainingSample(s.distance, s.label, 0.5) for s in plain
                   for _ in range(2)]
        a = train_mwle(plain)
        b = train_mwle(doubled)
        np.testing.assert_allclose(b.weights, a.weights, rtol=0, atol=1e-12)
        assert abs(b.bias - a.bias) <= 1e-12

    def test_separable_toy_classified_perfectly(self):
        rng = np.random.default_rng(18)
        samples = toy_samples(rng, n=60)
        model = train_mwle(samples)
        for s in samples:
            p = predict_similarity(model, s.distance)
            assert (p >= 0.5) == (s.label == 1)

    def test_small_distance_means_similar(self):
        rng = np.random.default_rng(19)
        model = train_mwle(toy_samples(rng))
        near = predict_similarity(model, np.full(3, 0.05))
        far = predict_similarity(model, np.full(3, 1.2))
        assert near > 0.5 > far

    def test_matches_objective_checked_ascent(self):
        samples = toy_samples(np.random.default_rng(20), n=50, dim=4)
        config = TrainingConfig(max_iters=300)
        model = train_mwle(samples, config)
        X = np.vstack([s.distance for s in samples])
        y = np.array([s.label for s in samples], dtype=np.float64)
        w, b = oracle.train_mwle(X, y, np.ones(len(samples)), config)
        np.testing.assert_array_equal(model.weights, w)
        assert model.bias == b

    def test_huge_learning_rate_diverges(self):
        # the first step (gradient about -250 per weight) overflows the weights
        samples = [TrainingSample(1e3 * s.distance, s.label)
                   for s in toy_samples(np.random.default_rng(21))]
        with pytest.raises(TrainingDivergenceError):
            train_mwle(samples, TrainingConfig(learning_rate=1e306, max_iters=100))

    def test_single_class_rejected(self):
        samples = [TrainingSample(np.array([0.1]), 1),
                   TrainingSample(np.array([0.2]), 1)]
        with pytest.raises(TrainingDataError):
            train_mwle(samples)

    def test_too_few_samples_rejected(self):
        with pytest.raises(TrainingDataError):
            train_mwle([TrainingSample(np.array([0.1]), 1)])

    def test_mixed_lengths_rejected(self):
        samples = [TrainingSample(np.array([0.1]), 1),
                   TrainingSample(np.array([0.2, 0.3]), 0)]
        with pytest.raises(ShapeError):
            train_mwle(samples)

    def test_training_sample_validation(self):
        with pytest.raises(ParameterError):
            TrainingSample(np.array([0.1]), 2)
        with pytest.raises(ParameterError):
            TrainingSample(np.array([0.1]), 1, weight=0.0)
        with pytest.raises(ParameterError):
            TrainingConfig(learning_rate=-0.1)


class TestSimilarityMatrix:
    def _distances(self):
        values = np.zeros((2, 2, 3))
        values[0, 1] = [0.1, 0.2, 0.3]
        values[1, 0] = [0.3, 0.1, 0.2]
        return DistanceMatrix(identities=("a", "b"), values=values)

    def test_applies_model_per_pair(self):
        model = LRModel(weights=np.array([-2.0, -1.0, -3.0]), bias=1.5)
        sims = similarity_matrix(model, self._distances())
        assert sims.prob("a", "b") == predict_similarity(model, np.array([0.1, 0.2, 0.3]))
        assert sims.prob("b", "a") == predict_similarity(model, np.array([0.3, 0.1, 0.2]))
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
        with pytest.raises(ParameterError):
            Verdict(threshold=0.5, sybil_pairs=frozenset({("a", "b")}),
                    fake_identities=frozenset({"a", "b"}),
                    legit_identities=frozenset({"b"}))
        with pytest.raises(ParameterError):
            Verdict(threshold=0.5, sybil_pairs=frozenset({("a", "b")}),
                    fake_identities=frozenset({"a"}),
                    legit_identities=frozenset())

    def test_verdict_identities_union(self):
        verdict = Verdict(threshold=0.5, sybil_pairs=frozenset({("a", "b")}),
                          fake_identities=frozenset({"a", "b"}),
                          legit_identities=frozenset({"c"}))
        assert verdict.identities == frozenset({"a", "b", "c"})
