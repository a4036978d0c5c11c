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

import contextlib
import functools
import math
import numbers
from dataclasses import dataclass, field

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
        # NaN fails both comparisons; an infinite grad_tol would stop every
        # fit at the all-zero model
        if not (0 < self.learning_rate < math.inf):
            raise ParameterError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ParameterError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (0 < self.grad_tol < math.inf):
            raise ParameterError(f"grad_tol must be finite and > 0, got {self.grad_tol}")


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


@dataclass(frozen=True)
class Verdict:
    """Pair flags among identities and the fake/legit split they induce.

    The constructor takes the threshold, in (0, 1), the identities judged
    and the flagged pairs, each two distinct identities and stored sorted.
    The fake identities are the pair members and the legitimate ones the
    rest.
    """

    threshold: float
    identities: frozenset
    sybil_pairs: frozenset
    fake_identities: frozenset = field(init=False)
    legit_identities: frozenset = field(init=False)

    def __post_init__(self):
        threshold = float(self.threshold)
        if not (0.0 < threshold < 1.0):
            raise ParameterError(f"threshold must lie in (0, 1), got {threshold}")
        ids = frozenset(self.identities)
        pairs = frozenset(tuple(sorted(p)) for p in self.sybil_pairs)
        for pair in sorted(pairs):
            if len(pair) != 2 or pair[0] == pair[1] or not ids.issuperset(pair):
                raise ParameterError(
                    f"sybil pair {pair} must be two distinct members of the identities")
        fake = frozenset(i for pair in pairs for i in pair)
        for name, value in (("threshold", threshold), ("identities", ids),
                            ("sybil_pairs", pairs), ("fake_identities", fake),
                            ("legit_identities", ids - fake)):
            object.__setattr__(self, name, value)


def _logistic(z):
    """(g(z), max |z|) for a float64 array z; max |z| is NaN or inf exactly
    when some score is not finite.

    g is evaluated on -|z|, so exp never overflows, and reflected:
    g(z) - 1/2 = copysign(g(|z|) - 1/2, z).  Every step after the division
    is exact, because g(|z|) lies in [1/2, 1]: g(|z|) - 1/2 is a Sterbenz
    subtraction, and 1/2 + c is g(|z|) itself for z >= 0 and the
    representable 1 - g(|z|) for z < 0.  So g(-z) == 1 - g(z) holds
    bit-exactly, and the result has the bits of the two-branch form
    where(z >= 0, g(|z|), 1 - g(|z|)) for every non-NaN z.
    """
    e = np.absolute(z, out=np.empty(z.shape))
    largest = np.maximum.reduce(e, axis=None, initial=0.0)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=e)
    g = np.divide(1.0, e, out=e)
    np.subtract(g, 0.5, out=g)
    np.copysign(g, z, out=g)
    np.add(g, 0.5, out=g)
    return g, largest


# OpenBLAS runs a dgemv of 460,800 or more matrix elements on several
# threads, and their split changes the order of the gradient's sums and of
# the scores' in the rows at the end of each thread's share.  So the
# trainer's products run on column blocks of at most this many elements,
# one thread each, and the gradient sums the blocks in order: 8,192
# samples of the stock (11, N) design.
_BLOCK_ELEMENTS = 11 * 8192

# exp(u) is finite below this; log of the largest float is 709.78
_EXP_FINITE = 709.0
_NO_GUARD = contextlib.nullcontext()


class _Ascent:
    """The label-signed (L + 1, N) design of a fit and the work vectors of
    its gradient.

    Column n of the design is s_n (x_n, 1) with s_n = 2 y_n - 1: the
    distance vector and a one, negated for a label-0 sample.  So the
    parameters are one vector theta = (w, b), the bias is its last
    component, and theta . column is u_n = s_n z_n for the score
    z_n = w . x_n + b.  Negation is exact and rounding symmetric, so u_n
    has the bits of -z_n or z_n.  The design is built and every work
    vector allocated once per fit; an iteration rewrites the vectors in
    place.
    """

    def __init__(self, X, y, v):
        n, dim = X.shape
        sign = np.subtract(np.multiply(y, 2.0), 1.0)
        design = np.empty((dim + 1, n))
        np.multiply(X.T, sign, out=design[:dim])
        design[dim] = sign
        self.v = v
        self.u = np.empty(n)
        self.rho = np.empty(n)
        self.grad = np.empty(dim + 1)
        self.part = np.empty(dim + 1)
        # (design, u, rho) views of each column block.  No samples make one
        # empty block, whose gradient is zero.
        width = max(1, _BLOCK_ELEMENTS // (dim + 1))
        self.blocks = [(design[:, k:k + width], self.u[k:k + width], self.rho[k:k + width])
                       for k in range(0, max(n, 1), width)]

    def gradient(self, theta) -> float:
        """Write design rho to self.grad for rho = v / (1 + exp(u)); return
        max |u|, which is max |z|: NaN or inf exactly when some score is
        not finite.

        design rho is the gradient of the weighted log-likelihood, because
        s_n rho_n = v_n (y_n - g(z_n)) for 0/1 labels.  rho_n is v_n g(-u_n),
        the weight times the probability of the wrong label, so it keeps its
        relative accuracy for a correctly classified sample at any margin,
        where y - g(z) would cancel to 0 once g(z) rounds to y (|z| > 36.7).
        Past u = 709.78, exp(u) overflows to inf and rho to 0, its
        limit; that overflow is expected and silent.

        The scores and the gradient are one dgemv per column block, and
        the blocks' gradients are added in order.  np.matmul takes a block
        as the strided view it is (np.dot would copy it).
        """
        grad, u, rho = self.grad, self.u, self.rho
        for design, u_block, _ in self.blocks:
            np.matmul(theta, design, out=u_block)
        largest = np.maximum.reduce(np.absolute(u, out=rho), axis=None, initial=0.0)
        # entering np.errstate costs about 2 us, 5 % of an iteration on a
        # benchmark fold, so it is entered only when exp can overflow
        with _NO_GUARD if largest < _EXP_FINITE else np.errstate(over="ignore"):
            np.exp(u, out=rho)
        np.add(rho, 1.0, out=rho)
        np.divide(self.v, rho, out=rho)
        (design, _, rho_block), *rest = self.blocks
        np.matmul(design, rho_block, out=grad)
        for design, _, rho_block in rest:
            np.add(grad, np.matmul(design, rho_block, out=self.part), out=grad)
        return largest


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


def _trainable(data: TrainingSet) -> TrainingSet:
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
    """Analytic gradient of weighted_log_likelihood in (weights, bias), as
    train_mwle computes it: sum_n s_n v_n g(-s_n z_n) (x_n, 1) with
    s_n = 2 y_n - 1, which is sum_n v_n (y_n - g(z_n)) (x_n, 1) without
    its cancellation at large margins (see _Ascent.gradient)."""
    fit = _Ascent(np.asarray(X, dtype=np.float64), y, v)
    fit.gradient(np.append(np.asarray(weights, dtype=np.float64), bias))
    return fit.grad[:-1], float(fit.grad[-1])


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
    models at any BLAS thread count, because every product runs on one
    thread (see _BLOCK_ELEMENTS).

    The parameters are one vector theta = (w, b) over the label-signed
    (L + 1, N) design of _Ascent, built once per fit.  An iteration is one
    dgemv per column block for the scores, |u| and its max, exp, add and
    divide for the residual, and one dgemv per block for the gradient.
    Every vector it needs is allocated once and written in place, and
    every step is the same BLAS call or ufunc as in the allocating form,
    so the iterates have its bits.
    """
    data = _trainable(samples)
    with np.errstate(over="ignore"):
        total_weight = float(data.v.sum())
    if not math.isfinite(total_weight):
        # finite weights can still overflow their total, and every scaled
        # gradient would then read 0 or NaN
        raise TrainingDataError("the sample weights' total overflows")
    lr = config.learning_rate
    fit = _Ascent(data.X, data.y, data.v)
    grad = fit.grad
    theta = np.zeros_like(grad)
    step = np.empty_like(grad)
    # overflow is caught below and raised as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.max_iters):
            if not math.isfinite(fit.gradient(theta)):
                raise TrainingDivergenceError("scores became non-finite during training")
            np.divide(grad, total_weight, out=grad)
            # maximum.reduce propagates NaN from any component
            steepest = float(np.maximum.reduce(np.absolute(grad, out=step),
                                               axis=None, initial=0.0))
            if not math.isfinite(steepest):
                raise TrainingDivergenceError("gradient became non-finite during training")
            if steepest < config.grad_tol:
                break
            np.add(theta, np.multiply(grad, lr, out=step), out=theta)
    return LRModel(weights=theta[:-1], bias=theta[-1])


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
    probs, largest = _logistic(z)
    if math.isnan(largest):
        raise ParameterError("similarities must lie in [0, 1]")
    return probs


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
    checks, which hold by construction: sigma is checked here, and each
    pair is two distinct identities, stored sorted.
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
    judged = frozenset(ids)
    return prevalidated(Verdict, threshold=float(sigma), identities=judged,
                        sybil_pairs=pairs, fake_identities=fake, legit_identities=judged - fake)


@functools.lru_cache(maxsize=64)
def _upper_triangle(n: int) -> np.ndarray:
    """(N, N) mask of the entries above the diagonal: each unordered pair once."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask
