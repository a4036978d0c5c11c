"""Distances between signal profiles.

The discriminative measure is an adjusted cosine distance: both signatures
are centered on the mean vector of the FIRST profile before the angle is
taken.  Centering stretches the usable range from [0, 1] (nonnegative
vectors can never be more than orthogonal) to [0, 2] and anchors the
comparison in the first profile's own geometry, which makes the measure
deliberately asymmetric: d(F, G) and d(G, F) are both computed and both
must agree before a pair is flagged downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .scenario import prevalidated

DEGENERATE_NORM_TOL = 1e-12

# Substitutes when a centered vector collapses to (numerically) zero: a row
# equal to its own profile mean carries no directional information, so the
# f-side degenerates to "no distance"; an uninformative g-side is maximally
# uninformative about similarity.
F_SIDE_DEGENERATE_DISTANCE = 0.0
G_SIDE_DEGENERATE_DISTANCE = 1.0

BASELINE_METRICS = ("manhattan", "euclidean", "chebyshev", "cosine")


@dataclass(frozen=True)
class DistanceMatrix:
    """All N(N-1) directed distance vectors between N identities."""

    identities: tuple
    values: np.ndarray  # (N, N, L), zero diagonal

    def __post_init__(self):
        ids = tuple(str(i) for i in self.identities)
        vals = np.array(self.values, dtype=np.float64)
        n = len(ids)
        if len(set(ids)) != n:
            raise ParameterError("identities must be unique")
        if vals.ndim != 3 or vals.shape[0] != n or vals.shape[1] != n:
            raise ShapeError(f"values must be (N, N, L) with N={n}, got {vals.shape}")
        if np.any(vals[np.arange(n), np.arange(n)] != 0.0):
            raise ParameterError("diagonal entries must be zero vectors")
        vals.flags.writeable = False
        object.__setattr__(self, "identities", ids)
        object.__setattr__(self, "values", vals)

    @property
    def profile_len(self) -> int:
        return int(self.values.shape[2])


def _windows(windows_f, windows_g, means_f=None):
    """Validated float arrays of aligned (..., L, K) windows and (..., K) means."""
    F = np.asarray(windows_f, dtype=np.float64)
    G = np.asarray(windows_g, dtype=np.float64)
    if F.shape != G.shape or F.ndim < 2:
        raise ShapeError(f"window blocks must agree as (..., L, K), got {F.shape} vs {G.shape}")
    if means_f is None:
        return F, G
    M = np.asarray(means_f, dtype=np.float64)
    if M.shape != F.shape[:-2] + F.shape[-1:]:
        raise ShapeError(f"window blocks {F.shape} and means {M.shape} disagree")
    return F, G, M


def _norms(rows) -> np.ndarray:
    """np.linalg.norm(rows, axis=1), which is this, plus its wrappers."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _adjusted(F, G, M):
    """(distances before substitution, |f - mean|, |g - mean|) per row.

    Every reduction runs over the last axis of (rows, K) arrays, so a row
    gives the same bits whatever the batch shape around it.
    """
    k = F.shape[-1]
    fc = (F - M[..., None, :]).reshape(-1, k)
    gc = (G - M[..., None, :]).reshape(-1, k)
    nf = _norms(fc)
    ng = _norms(gc)
    bad = (nf < DEGENERATE_NORM_TOL) | (ng < DEGENERATE_NORM_TOL)
    safe = np.where(bad, 1.0, nf * ng)
    values = 1.0 - np.einsum("ij,ij->i", fc, gc) / safe
    # np.clip(values, 0, 2) without its wrapper: maximum with 0 first
    # keeps a -0.0 as clip does
    np.minimum(np.maximum(0.0, values, out=values), 2.0, out=values)
    # bitwise-equal centered vectors are zero by definition; the float
    # formula can leave a +-1 ulp residue
    values[np.logical_and.reduce(fc == gc, axis=1)] = 0.0
    shape = F.shape[:-1]
    return values.reshape(shape), nf.reshape(shape), ng.reshape(shape)


def adjusted_distances(windows_f, windows_g, means_f) -> np.ndarray:
    """Adjusted cosine distances of aligned windows, with substitutions.

    ``windows_f`` and ``windows_g`` are (..., L, K) profile windows and
    ``means_f`` the (..., K) means of the first ones; the result is the
    (..., L) row-by-row distances.  Both rows are centered on the first
    window's mean.  Degenerate rows are substituted: a first-side collapse
    gives F_SIDE_DEGENERATE_DISTANCE, a second-side collapse
    G_SIDE_DEGENERATE_DISTANCE, and the first side is checked first.
    """
    values, nf, ng = _adjusted(*_windows(windows_f, windows_g, means_f))
    values[ng < DEGENERATE_NORM_TOL] = G_SIDE_DEGENERATE_DISTANCE
    values[nf < DEGENERATE_NORM_TOL] = F_SIDE_DEGENERATE_DISTANCE
    return values


def baseline_distances(windows_f, windows_g, metric: str) -> np.ndarray:
    """Baseline distances of aligned (..., L, K) windows: (..., L)."""
    if metric not in BASELINE_METRICS:
        raise ParameterError(f"unknown metric {metric!r}; expected one of {BASELINE_METRICS}")
    F, G = _windows(windows_f, windows_g)
    shape = F.shape[:-1]
    rows_f = F.reshape(-1, F.shape[-1])
    rows_g = G.reshape(-1, G.shape[-1])
    diff = rows_f - rows_g
    if metric == "manhattan":
        values = np.abs(diff).sum(axis=1)
    elif metric == "euclidean":
        values = _norms(diff)
    elif metric == "chebyshev":
        values = np.abs(diff).max(axis=1)
    else:
        nf = _norms(rows_f)
        ng = _norms(rows_g)
        if np.any(nf == 0.0) or np.any(ng == 0.0):
            raise ParameterError("cosine distance undefined for a zero row")
        values = np.maximum(0.0, 1.0 - np.einsum("ij,ij->i", rows_f, rows_g) / (nf * ng))
    return values.reshape(shape)


def cosine_distance(f, g) -> float:
    """1 - cos(angle between f and g); in [0, 1] for nonnegative vectors."""
    return baseline_distance(f, g, "cosine")


def distance_matrix(profiles) -> DistanceMatrix:
    """Directed distance vectors between every ordered pair of profiles."""
    profiles = list(profiles)
    n = len(profiles)
    if n < 2:
        raise ParameterError(f"need at least 2 profiles, got {n}")
    shape = profiles[0].signatures.shape
    for p in profiles[1:]:
        if p.signatures.shape != shape:
            raise ShapeError(
                f"profile {p.identity!r} has shape {p.signatures.shape}, expected {shape}")
    identities = tuple(str(p.identity) for p in profiles)
    if len(set(identities)) != n:
        raise ParameterError("identities must be unique")
    # np.array stacks the equal-shape arrays as np.stack does
    windows = np.array([p.signatures for p in profiles])
    means = np.array([p.mean_vector for p in profiles])
    # the (N, N) grid, entry (i, j) from profile i to profile j; repeat
    # costs less than np.broadcast_to's Python set-up at these sizes.  The
    # diagonal comes out +0.0: bitwise-equal centered rows are zero, and a
    # degenerate row's F-side substitution, 0.0, runs last
    values = adjusted_distances(windows[:, None].repeat(n, axis=1),
                                windows[None].repeat(n, axis=0),
                                means[:, None].repeat(n, axis=1))
    # (N, N, L) float64 with a zero diagonal, over unique identities: what
    # DistanceMatrix would check
    values.setflags(write=False)
    return prevalidated(DistanceMatrix, identities=identities, values=values)


def baseline_distance(f, g, metric: str) -> float:
    """Classical distances used for the metric-comparison experiment."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.ndim != 1 or f.shape != g.shape:
        raise ShapeError(f"vectors must be equal-length 1-D, got {f.shape} vs {g.shape}")
    return float(baseline_distances(f[None, None], g[None, None], metric)[0, 0])
