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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distance import DistanceMatrix
from .errors import (
    ParameterError,
    ShapeError,
    TrainingDataError,
    TrainingDivergenceError,
)
from .scenario import prevalidated

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class LRModel:
    """Logistic similarity model: probability = g(weights . d + bias)."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        bias = float(self.bias)
        if w.ndim != 1 or w.size == 0:
            raise ShapeError(f"weights must be a nonempty 1-D vector, got {w.shape}")
        # a NaN parameter makes every similarity NaN, which no threshold flags
        if not (np.all(np.isfinite(w)) and np.isfinite(bias)):
            raise ParameterError("model weights and bias must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", bias)

    @property
    def profile_len(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class TrainingSet:
    """Labeled distance vectors as arrays, the form train_mwle reads.

    ``X`` is the (N, L) design, one distance vector per row, ``y`` the 0/1
    labels and ``v`` the per-sample class weights.  All three are copied
    to read-only float64 arrays (``X`` C-contiguous) and validated once,
    here: distances finite, labels 0 or 1, weights finite and positive.
    """

    X: np.ndarray
    y: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        X = np.array(self.X, dtype=np.float64, order="C")
        y = np.array(self.y, dtype=np.float64)
        v = np.array(self.v, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] == 0:
            raise ShapeError(f"X must be an (N, L) array with L >= 1, got {X.shape}")
        n = X.shape[0]
        if y.shape != (n,) or v.shape != (n,):
            raise ShapeError(
                f"y and v must be ({n},) vectors, got {y.shape} and {v.shape}")
        if not np.all(np.isfinite(X)):
            raise ParameterError("training distances must be finite")
        if not np.all((y == 0) | (y == 1)):
            raise ParameterError("labels must all be 0 or 1")
        if not np.all((v > 0) & (v < np.inf)):  # NaN fails both comparisons
            raise ParameterError("weights must be finite and > 0")
        for name, a in (("X", X), ("y", y), ("v", v)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self):
        return self.X.shape[0]


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
        p = np.array(self.probs, dtype=np.float64)
        n = len(ids)
        if len(set(ids)) != n:
            raise ParameterError("identities must be unique")
        if p.shape != (n, n):
            raise ShapeError(f"probs must be ({n}, {n}), got {p.shape}")
        if not np.all((p >= 0) & (p <= 1)):  # NaN fails both comparisons
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


class _Workspace:
    """Work vectors of the logistic and gradient kernels, for scores of one
    shape.  A fit allocates one and reuses it every iteration."""

    def __init__(self, shape):
        # |z|, -|z|, exp(-|z|), 1 + exp(-|z|), then the gradient's residual
        self.e = np.empty(shape)
        self.c = np.empty(shape)  # g(z) - 1/2

    def logistic(self, z) -> float:
        """Write g(z) - 1/2 to self.c; return max |z|, which is NaN or inf
        exactly when some score is not finite.

        g is evaluated on -|z|, so exp never overflows, and reflected:
        g(z) - 1/2 = copysign(g(|z|) - 1/2, z).  Every step after the
        division is exact, because g(|z|) lies in [1/2, 1]: g(|z|) - 1/2 is
        a Sterbenz subtraction, and 1/2 + c is g(|z|) itself for z >= 0 and
        the representable 1 - g(|z|) for z < 0.  So g(-z) == 1 - g(z) holds
        bit-exactly, and the result has the bits of the two-branch form
        where(z >= 0, g(|z|), 1 - g(|z|)) for every non-NaN z.
        """
        e, c = self.e, self.c
        np.absolute(z, out=e)
        largest = np.maximum.reduce(e, axis=None, initial=0.0)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.add(e, 1.0, out=e)
        np.divide(1.0, e, out=c)
        np.subtract(c, 0.5, out=c)
        np.copysign(c, z, out=c)
        return largest

    def gradient(self, z, XT, h, v, grad_w):
        """Write X^T r to grad_w for r = v * (y - g(z)), given h = y - 1/2;
        return (sum of r, max |z|).

        For 0/1 labels y - g(z) is exact in either form, so h - (g(z) - 1/2)
        has its bits.  X^T r is one BLAS dgemv on the transposed view of the
        C-contiguous design, and the sum is numpy's pairwise one, as np.sum
        takes it.
        """
        largest = self.logistic(z)
        r = self.e
        np.subtract(h, self.c, out=r)
        np.multiply(v, r, out=r)
        np.dot(XT, r, out=grad_w)
        return np.add.reduce(r), largest


def sigmoid(z):
    """Logistic function, stable for any float input (see _Workspace.logistic)."""
    z = np.asarray(z, dtype=np.float64)
    work = _Workspace(z.shape)
    work.logistic(z)
    g = np.add(work.c, 0.5, out=work.c)
    return float(g) if z.ndim == 0 else g


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


def _design(data: TrainingSet) -> TrainingSet:
    """``data``, once it holds at least 2 samples of both classes."""
    if len(data) < 2:
        raise TrainingDataError(f"need at least 2 training samples, got {len(data)}")
    if data.y.min() == data.y.max():
        raise TrainingDataError("training set contains a single class")
    return data


def weighted_log_likelihood(weights, bias, X, y, v) -> float:
    """Sum of v_n * [y_n log g(z_n) + (1 - y_n) log(1 - g(z_n))].

    Evaluated as -logaddexp(0, -z) - (1 - y) z, which never takes log of a
    rounded-to-zero probability.
    """
    z = X @ weights + bias
    return float(np.sum(v * (-np.logaddexp(0.0, -z) - (1.0 - y) * z)))


def weighted_gradient(weights, bias, X, y, v):
    """Analytic gradient of weighted_log_likelihood in (weights, bias)."""
    X = np.asarray(X, dtype=np.float64)
    z = X @ weights + bias
    grad_w = np.empty(X.shape[1])
    grad_b, _ = _Workspace(z.shape).gradient(z, X.T, np.subtract(y, 0.5), v, grad_w)
    return grad_w, float(grad_b)


def train_mwle(samples: TrainingSet, config: TrainingConfig = TrainingConfig()) -> LRModel:
    """Fit the similarity model by fixed-step gradient ascent on the
    weighted log-likelihood of a TrainingSet (LabeledDataset.training_samples()),
    from zero until every scaled gradient component is below grad_tol or
    max_iters steps have run; the stock fits stop at max_iters, short of
    the maximum weighted likelihood.  The gradient is scaled by the total
    sample weight, so the pinned learning rate behaves identically at any
    corpus size.  Raises TrainingDataError for fewer than 2 samples, a
    single class or a weight total that is not finite, and
    TrainingDivergenceError once the scores or the gradient stop being
    finite.  Deterministic: same samples and config give bit-identical
    models (for a fixed BLAS thread count).

    Every vector an iteration needs is allocated once per fit and written
    in place.  The two BLAS products are the dgemv calls X @ w and X.T @ r
    make, and every other step is the same ufunc or exact (see _Workspace),
    so the iterates have the bits of the allocating form.
    """
    data = _design(samples)
    X, v = data.X, data.v
    XT = X.T
    h = data.y - 0.5
    with np.errstate(over="ignore"):
        total_weight = float(v.sum())
    if not math.isfinite(total_weight):
        # finite weights can still overflow their total, and every scaled
        # gradient would then read 0 or NaN
        raise TrainingDataError("the sample weights' total overflows")
    lr = config.learning_rate
    work = _Workspace(len(data))
    z = np.empty(len(data))
    w = np.zeros(X.shape[1])
    grad_w = np.empty_like(w)
    step = np.empty_like(w)
    b = 0.0
    # overflow is caught below and raised as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.max_iters):
            np.dot(X, w, out=z)
            np.add(z, b, out=z)
            grad_b, largest = work.gradient(z, XT, h, v, grad_w)
            if not math.isfinite(largest):
                raise TrainingDivergenceError("scores became non-finite during training")
            np.divide(grad_w, total_weight, out=grad_w)
            grad_b = float(grad_b) / total_weight
            # maximum.reduce propagates NaN from any component
            steepest = float(np.maximum.reduce(np.absolute(grad_w, out=step),
                                               axis=None, initial=0.0))
            if not (math.isfinite(steepest) and math.isfinite(grad_b)):
                raise TrainingDivergenceError("gradient became non-finite during training")
            if max(steepest, abs(grad_b)) < config.grad_tol:
                break
            np.add(w, np.multiply(grad_w, lr, out=step), out=w)
            b = b + lr * grad_b
    return LRModel(weights=w, bias=b)


def similarity_scores(model: LRModel, X) -> np.ndarray:
    """Same-source probabilities g(weights . d + bias) of (..., L) distance
    vectors, one per vector.

    The one scoring kernel: similarity_matrix applies it to a distance
    matrix and harness.predict_scores to a dataset.  Each score is one
    BLAS dot product (a stacked matmul), so a vector scores the same bits
    alone, in a matrix or in a dataset, as the pair-by-pair form that
    tests/oracle.py keeps (similarity_probs) does.  Finite weights can
    still overflow a score to inf - inf; such a NaN raises ParameterError,
    as SimilarityMatrix rejects it.
    """
    z = np.matmul(X[..., None, :], model.weights[:, None])[..., 0, 0] + model.bias
    work = _Workspace(z.shape)
    if math.isnan(work.logistic(z)):
        raise ParameterError("similarities must lie in [0, 1]")
    return np.add(work.c, 0.5, out=work.c)


def similarity_matrix(model: LRModel, distances: DistanceMatrix) -> SimilarityMatrix:
    """Apply the model to every off-diagonal distance vector.

    The matrix is built without SimilarityMatrix's checks, which hold by
    construction: the identities are the distance matrix's, the scores
    are probabilities (similarity_scores rejects NaN) and the diagonal is
    set to zero.
    """
    if model.profile_len != distances.profile_len:
        raise ShapeError(
            f"model expects L={model.profile_len} but matrix has L={distances.profile_len}")
    probs = similarity_scores(model, distances.values)
    np.fill_diagonal(probs, 0.0)
    probs.setflags(write=False)
    return prevalidated(SimilarityMatrix, identities=distances.identities, probs=probs)


def detect_sybil(similarities: SimilarityMatrix, sigma: float = DEFAULT_THRESHOLD) -> Verdict:
    """Flag pairs whose similarity clears sigma in both directions.

    Every member of at least one flagged pair is ruled fake; the rest are
    legitimate.  Components are deliberately not merged: verdicts are per
    identity, not per inferred attacker.  The Verdict is built without its
    checks: each pair is stored sorted, the fake identities are exactly the
    pair members and the legitimate ones the rest.
    """
    if not (0.0 < sigma < 1.0):
        raise ParameterError(f"sigma must lie in (0, 1), got {sigma}")
    ids = similarities.identities
    hit = similarities.probs >= sigma  # NaN clears no threshold
    # both directions, each unordered pair once
    first, second = np.nonzero(hit & hit.T & _upper_triangle(len(ids)))
    pairs = frozenset(tuple(sorted((ids[i], ids[j])))
                      for i, j in zip(first.tolist(), second.tolist()))
    fake = frozenset(i for pair in pairs for i in pair)
    return prevalidated(Verdict, threshold=float(sigma), sybil_pairs=pairs,
                        fake_identities=fake, legit_identities=frozenset(ids) - fake)


@functools.lru_cache(maxsize=64)
def _upper_triangle(n: int) -> np.ndarray:
    """(N, N) mask of the entries above the diagonal: each unordered pair once."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask
