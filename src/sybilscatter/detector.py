"""Similarity learning and Sybil verdicts.

A logistic-regression model maps an L-vector of profile distances to the
probability that the two identities are the same physical transmitter.
Training maximizes a class-weighted log likelihood by full-batch gradient
ascent; weighting compensates the natural imbalance of pair labels (most
identity pairs are distinct robots).  A pair is flagged as Sybil only when
the similarity is above threshold in BOTH directions, robot-level verdicts
follow by pair membership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import DistanceMatrix, DistanceVector
from .errors import (
    ParameterError,
    ShapeError,
    TrainingDataError,
    TrainingDivergenceError,
)

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class LRModel:
    """Logistic similarity model: probability = g(weights . d + bias)."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ShapeError(f"weights must be a nonempty 1-D vector, got {w.shape}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def profile_len(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class TrainingSample:
    """One labeled distance vector with its class weight."""

    distance: np.ndarray
    label: int
    weight: float = 1.0

    def __post_init__(self):
        d = np.asarray(self.distance, dtype=np.float64)
        if d.ndim != 1 or d.size == 0:
            raise ShapeError(f"distance must be a nonempty 1-D vector, got {d.shape}")
        if self.label not in (0, 1):
            raise ParameterError(f"label must be 0 or 1, got {self.label!r}")
        if not (self.weight > 0):
            raise ParameterError(f"weight must be > 0, got {self.weight}")
        d.flags.writeable = False
        object.__setattr__(self, "distance", d)
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.1
    max_iters: int = 5000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if not (self.learning_rate > 0):
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.grad_tol > 0):
            raise ParameterError(f"grad_tol must be > 0, got {self.grad_tol}")


@dataclass(frozen=True)
class SimilarityMatrix:
    """Directed same-source probabilities between N identities."""

    identities: tuple
    probs: np.ndarray

    def __post_init__(self):
        ids = tuple(str(i) for i in self.identities)
        p = np.asarray(self.probs, dtype=np.float64)
        n = len(ids)
        if len(set(ids)) != n:
            raise ParameterError("identities must be unique")
        if p.shape != (n, n):
            raise ShapeError(f"probs must be ({n}, {n}), got {p.shape}")
        if np.any((p < 0) | (p > 1)):
            raise ParameterError("similarities must lie in [0, 1]")
        if np.any(p[np.arange(n), np.arange(n)] != 0.0):
            raise ParameterError("diagonal must be zero")
        p.flags.writeable = False
        object.__setattr__(self, "identities", ids)
        object.__setattr__(self, "probs", p)

    def prob(self, from_identity: str, to_identity: str) -> float:
        return float(self.probs[self.identities.index(from_identity),
                                self.identities.index(to_identity)])


@dataclass(frozen=True)
class Verdict:
    """Pair flags and the per-identity fake/legit split they induce."""

    threshold: float
    sybil_pairs: frozenset
    fake_identities: frozenset
    legit_identities: frozenset

    def __post_init__(self):
        pairs = frozenset(tuple(sorted(p)) for p in self.sybil_pairs)
        fake = frozenset(self.fake_identities)
        legit = frozenset(self.legit_identities)
        if fake & legit:
            raise ParameterError(f"identities marked both fake and legit: {sorted(fake & legit)}")
        members = {i for pair in pairs for i in pair}
        if members != fake:
            raise ParameterError("fake_identities must be exactly the flagged-pair members")
        object.__setattr__(self, "sybil_pairs", pairs)
        object.__setattr__(self, "fake_identities", fake)
        object.__setattr__(self, "legit_identities", legit)

    @property
    def identities(self) -> frozenset:
        return self.fake_identities | self.legit_identities


def sigmoid(z):
    """Logistic function, stable for any float input.

    Evaluated on -|z| and reflected: exp never overflows, and the reflected
    branch is exact (the positive branch lies in [0.5, 1], so 1 - g is a
    Sterbenz subtraction), which makes g(-z) == 1 - g(z) hold bit-exactly.
    """
    z = np.asarray(z, dtype=np.float64)
    upper = 1.0 / (1.0 + np.exp(-np.abs(z)))
    out = np.where(z >= 0, upper, 1.0 - upper)
    return float(out) if out.ndim == 0 else out


def predict_similarity(model: LRModel, d) -> float:
    """Same-source probability for one distance vector."""
    values = d.values if isinstance(d, DistanceVector) else np.asarray(d, dtype=np.float64)
    if values.shape != model.weights.shape:
        raise ShapeError(
            f"distance vector {values.shape} does not match model weights "
            f"{model.weights.shape}")
    return sigmoid(float(np.dot(model.weights, values)) + model.bias)


def compute_class_weights(labels) -> dict:
    """Per-class weights inversely proportional to class frequency.

    v(c) = N / (2 * count(c)); a balanced set gets weight 1 for both classes.
    """
    y = np.asarray(labels)
    n = y.size
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos + n_neg != n:
        raise ParameterError("labels must all be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise TrainingDataError("both classes must be present to weight them")
    return {0: n / (2.0 * n_neg), 1: n / (2.0 * n_pos)}


def _design(samples):
    if len(samples) < 2:
        raise TrainingDataError(f"need at least 2 training samples, got {len(samples)}")
    dim = samples[0].distance.size
    for s in samples:
        if s.distance.size != dim:
            raise ShapeError("all training distances must have the same length")
    X = np.vstack([s.distance for s in samples])
    y = np.array([s.label for s in samples], dtype=np.float64)
    v = np.array([s.weight for s in samples], dtype=np.float64)
    if y.min() == y.max():
        raise TrainingDataError("training set contains a single class")
    return X, y, v


def weighted_log_likelihood(weights, bias, X, y, v) -> float:
    """Sum of v_n * [y_n log g(z_n) + (1 - y_n) log(1 - g(z_n))].

    Evaluated as -logaddexp(0, -z) - (1 - y) z, which never takes log of a
    rounded-to-zero probability.
    """
    z = X @ weights + bias
    return float(np.sum(v * (-np.logaddexp(0.0, -z) - (1.0 - y) * z)))


def _gradient_at(z, X, y, v):
    r = v * (y - sigmoid(z))
    return X.T @ r, float(np.sum(r))


def weighted_gradient(weights, bias, X, y, v):
    """Analytic gradient of weighted_log_likelihood in (weights, bias)."""
    return _gradient_at(X @ weights + bias, X, y, v)


def train_mwle(samples, config: TrainingConfig = TrainingConfig()) -> LRModel:
    """Fit the similarity model by maximum weighted likelihood.

    Full-batch gradient ascent from zero-initialized parameters.  The step
    uses the gradient divided by the total sample weight, so the pinned
    learning rate behaves identically at any corpus size; the maximizer is
    unchanged by the scaling.  Raises TrainingDivergenceError once the
    scores or the gradient stop being finite.  Deterministic: same samples
    and config give bit-identical models.
    """
    X, y, v = _design(samples)
    total_weight = float(v.sum())
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    # overflow is caught below and raised as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.max_iters):
            z = X @ w + b
            if not np.all(np.isfinite(z)):
                raise TrainingDivergenceError("scores became non-finite during training")
            grad_w, grad_b = _gradient_at(z, X, y, v)
            grad_w /= total_weight
            grad_b /= total_weight
            if not (np.all(np.isfinite(grad_w)) and np.isfinite(grad_b)):
                raise TrainingDivergenceError("gradient became non-finite during training")
            if max(float(np.abs(grad_w).max()), abs(grad_b)) < config.grad_tol:
                break
            w = w + config.learning_rate * grad_w
            b = b + config.learning_rate * grad_b
    return LRModel(weights=w, bias=b)


def similarity_matrix(model: LRModel, distances: DistanceMatrix) -> SimilarityMatrix:
    """Apply the model to every off-diagonal distance vector.

    Each score is one BLAS dot product, as predict_similarity takes it, so
    the matrix matches pair-by-pair prediction bit for bit.
    """
    if model.profile_len != distances.profile_len:
        raise ShapeError(
            f"model expects L={model.profile_len} but matrix has L={distances.profile_len}")
    values = distances.values
    z = np.matmul(values[:, :, None, :], model.weights[:, None])[:, :, 0, 0]
    probs = sigmoid(z + model.bias)
    np.fill_diagonal(probs, 0.0)
    return SimilarityMatrix(identities=distances.identities, probs=probs)


def detect_sybil(similarities: SimilarityMatrix, sigma: float = DEFAULT_THRESHOLD) -> Verdict:
    """Flag pairs whose similarity clears sigma in both directions.

    Every member of at least one flagged pair is ruled fake; the rest are
    legitimate.  Components are deliberately not merged: verdicts are per
    identity, not per inferred attacker.
    """
    if not (0.0 < sigma < 1.0):
        raise ParameterError(f"sigma must lie in (0, 1), got {sigma}")
    ids = similarities.identities
    p = similarities.probs
    pairs = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if p[i, j] >= sigma and p[j, i] >= sigma:
                pairs.add((ids[i], ids[j]))
    fake = {i for pair in pairs for i in pair}
    legit = set(ids) - fake
    return Verdict(threshold=float(sigma), sybil_pairs=frozenset(pairs),
                   fake_identities=frozenset(fake), legit_identities=frozenset(legit))
