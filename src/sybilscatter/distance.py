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

from .errors import DegenerateCenteringError, ParameterError, ShapeError
from .pipeline import SignalProfile

DEGENERATE_NORM_TOL = 1e-12

# Substitutes when a centered vector collapses to (numerically) zero: a row
# equal to its own profile mean carries no directional information, so the
# f-side degenerates to "no distance"; an uninformative g-side is maximally
# uninformative about similarity.
F_SIDE_DEGENERATE_DISTANCE = 0.0
G_SIDE_DEGENERATE_DISTANCE = 1.0

BASELINE_METRICS = ("manhattan", "euclidean", "chebyshev", "cosine")


@dataclass(frozen=True)
class DistanceVector:
    """L per-row distances from one identity's profile to another's."""

    from_identity: str
    to_identity: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ShapeError(f"values must be a nonempty 1-D vector, got {vals.shape}")
        if np.any(vals < 0):
            raise ParameterError("distance values must be nonnegative")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def profile_len(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class DistanceMatrix:
    """All N(N-1) directed distance vectors between N identities."""

    identities: tuple
    values: np.ndarray  # (N, N, L), zero diagonal

    def __post_init__(self):
        ids = tuple(str(i) for i in self.identities)
        vals = np.asarray(self.values, dtype=np.float64)
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
    def n_identities(self) -> int:
        return len(self.identities)

    @property
    def profile_len(self) -> int:
        return int(self.values.shape[2])

    def index_of(self, identity: str) -> int:
        return self.identities.index(identity)

    def vector(self, from_identity: str, to_identity: str) -> DistanceVector:
        i = self.index_of(from_identity)
        j = self.index_of(to_identity)
        return DistanceVector(from_identity=from_identity, to_identity=to_identity,
                              values=self.values[i, j])


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


def _adjusted(F, G, M):
    """(distances before substitution, |f - mean|, |g - mean|) per row.

    Every reduction runs over the last axis of (rows, K) arrays, so a row
    gives the same bits whatever the batch shape around it.
    """
    k = F.shape[-1]
    fc = (F - M[..., None, :]).reshape(-1, k)
    gc = (G - M[..., None, :]).reshape(-1, k)
    nf = np.linalg.norm(fc, axis=1)
    ng = np.linalg.norm(gc, axis=1)
    bad = (nf < DEGENERATE_NORM_TOL) | (ng < DEGENERATE_NORM_TOL)
    safe = np.where(bad, 1.0, nf * ng)
    values = np.clip(1.0 - np.einsum("ij,ij->i", fc, gc) / safe, 0.0, 2.0)
    # bitwise-equal centered vectors are zero by definition; the float
    # formula can leave a +-1 ulp residue
    values[np.all(fc == gc, axis=1)] = 0.0
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
        values = np.linalg.norm(diff, axis=1)
    elif metric == "chebyshev":
        values = np.abs(diff).max(axis=1)
    else:
        nf = np.linalg.norm(rows_f, axis=1)
        ng = np.linalg.norm(rows_g, axis=1)
        if np.any(nf == 0.0) or np.any(ng == 0.0):
            raise ParameterError("cosine distance undefined for a zero row")
        values = np.maximum(0.0, 1.0 - np.einsum("ij,ij->i", rows_f, rows_g) / (nf * ng))
    return values.reshape(shape)


def _vectors(*vectors):
    out = [np.asarray(v, dtype=np.float64) for v in vectors]
    if out[0].ndim != 1 or any(v.shape != out[0].shape for v in out):
        raise ShapeError(
            f"vectors must be equal-length 1-D, got {[v.shape for v in out]}")
    return out


def cosine_distance(f, g) -> float:
    """1 - cos(angle between f and g); in [0, 1] for nonnegative vectors."""
    return baseline_distance(f, g, "cosine")


def adjusted_cosine_distance(f, g, mean_f) -> float:
    """Cosine distance after centering BOTH vectors on mean_f.

    mean_f is the mean vector of the first argument's profile; centering by
    it (and never by g's) is what makes the pairwise distances asymmetric.
    Raises DegenerateCenteringError when either centered vector has norm
    below DEGENERATE_NORM_TOL; callers substitute a fixed distance per side.
    """
    f, g, mean_f = _vectors(f, g, mean_f)
    values, nf, ng = _adjusted(f[None, None], g[None, None], mean_f[None])
    if nf[0, 0] < DEGENERATE_NORM_TOL:
        raise DegenerateCenteringError(
            f"centered first vector has norm {nf[0, 0]:.3e}", side="first")
    if ng[0, 0] < DEGENERATE_NORM_TOL:
        raise DegenerateCenteringError(
            f"centered second vector has norm {ng[0, 0]:.3e}", side="second")
    return float(values[0, 0])


def adjusted_distance_rows(rows_f, rows_g, mean_f) -> np.ndarray:
    """Adjusted cosine distance per aligned row pair of two (L, K) blocks,
    centered on mean_f, with the substitutions of adjusted_distances."""
    rows_f = np.atleast_2d(np.asarray(rows_f, dtype=np.float64))
    rows_g = np.atleast_2d(np.asarray(rows_g, dtype=np.float64))
    mean_f = np.asarray(mean_f, dtype=np.float64)
    return adjusted_distances(rows_f[None], rows_g[None], mean_f[None])[0]


def baseline_distance_rows(rows_f, rows_g, metric: str) -> np.ndarray:
    """Baseline distance per aligned row pair of two (L, K) blocks."""
    rows_f = np.atleast_2d(np.asarray(rows_f, dtype=np.float64))
    rows_g = np.atleast_2d(np.asarray(rows_g, dtype=np.float64))
    return baseline_distances(rows_f[None], rows_g[None], metric)[0]


def _check_profiles(profile_f: SignalProfile, profile_g: SignalProfile):
    if profile_f.signatures.shape != profile_g.signatures.shape:
        raise ShapeError(
            f"profiles must agree in (L, K): {profile_f.signatures.shape} "
            f"vs {profile_g.signatures.shape}")


def profile_distance_vector(profile_f: SignalProfile, profile_g: SignalProfile) -> DistanceVector:
    """Row-by-row adjusted cosine distances, centered on profile_f's mean."""
    _check_profiles(profile_f, profile_g)
    values = adjusted_distances(profile_f.signatures[None], profile_g.signatures[None],
                                profile_f.mean_vector[None])[0]
    return DistanceVector(from_identity=profile_f.identity,
                          to_identity=profile_g.identity, values=values)


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
    windows = np.stack([p.signatures for p in profiles])
    means = np.stack([p.mean_vector for p in profiles])
    f_idx, g_idx = np.nonzero(~np.eye(n, dtype=bool))
    values = np.zeros((n, n, shape[0]), dtype=np.float64)
    values[f_idx, g_idx] = adjusted_distances(windows[f_idx], windows[g_idx],
                                              means[f_idx])
    return DistanceMatrix(identities=tuple(p.identity for p in profiles), values=values)


def baseline_distance(f, g, metric: str) -> float:
    """Classical distances used for the metric-comparison experiment."""
    f, g = _vectors(f, g)
    return float(baseline_distances(f[None, None], g[None, None], metric)[0, 0])


def baseline_profile_distance_vector(profile_f: SignalProfile, profile_g: SignalProfile,
                                     metric: str) -> DistanceVector:
    """Row-by-row baseline distances between two profiles."""
    _check_profiles(profile_f, profile_g)
    values = baseline_distances(profile_f.signatures[None], profile_g.signatures[None],
                                metric)[0]
    return DistanceVector(from_identity=profile_f.identity,
                          to_identity=profile_g.identity, values=values)
