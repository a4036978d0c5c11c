"""Trace-to-signature processing.

A received trace is smoothed, synchronized against the known tag code by
sliding correlation, and segmented into per-tag blocks.  Each block yields
one reflected-power estimate (mean of reflecting samples minus mean of
non-reflecting ones); the K estimates form a multipath signature, which is
L2-normalized to cancel transmit power.  L successive signatures stack into
a signal profile.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSignatureError,
    InsufficientDataError,
    MaskError,
    ParameterError,
    SegmentationError,
    ShapeError,
)
from .scenario import ReceivedTrace, TraceBatch, tag_block_bit_spans

DEFAULT_SMOOTHING_WINDOW = 9
DEFAULT_PROFILE_LEN = 10

# A correlation peak below this multiple of the median correlation is
# indistinguishable from background, so the trace is dropped as undecodable.
PEAK_FLOOR_RATIO = 3.0


def row_norms(rows) -> np.ndarray:
    """L2 norm of each row of an (R, K) array.

    The squared norm is one BLAS dot product per row, as np.linalg.norm
    takes it for a single vector, so a row's norm is bit-identical alone
    or in a batch.
    """
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class MultipathSignature:
    """Per-tag reflected powers and their unit-norm form."""

    raw: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=np.float64)
        normed = np.asarray(self.normalized, dtype=np.float64)
        if raw.ndim != 1 or normed.shape != raw.shape:
            raise ShapeError(f"raw {raw.shape} and normalized {normed.shape} must match")
        if not (np.all(np.isfinite(raw)) and np.all(np.isfinite(normed))):
            raise ParameterError("signature powers must be finite")
        if np.any(raw < 0):
            raise ParameterError("raw reflected powers must be nonnegative")
        if raw.any() and abs(np.linalg.norm(normed) - 1.0) > 1e-9:
            raise ParameterError("normalized signature must have unit L2 norm")
        raw.flags.writeable = False
        normed.flags.writeable = False
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalized", normed)

    @classmethod
    def from_raw(cls, raw) -> "MultipathSignature":
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 1:
            raise ShapeError(f"raw must be a 1-D vector, got {raw.shape}")
        if np.any(raw < 0):
            raise ParameterError("raw reflected powers must be nonnegative")
        norm = row_norms(raw[None])[0]
        if norm == 0.0:
            raise DegenerateSignatureError("all-zero reflection vector cannot be normalized")
        return cls(raw=raw, normalized=raw / norm)

    @property
    def n_tags(self) -> int:
        return int(self.raw.size)


@dataclass(frozen=True)
class SignalProfile:
    """L successive normalized signatures for one identity, plus their mean."""

    identity: str
    signatures: np.ndarray
    mean_vector: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.signatures, dtype=np.float64)
        mean = np.asarray(self.mean_vector, dtype=np.float64)
        if rows.ndim != 2:
            raise ShapeError(f"signatures must be (L, K), got {rows.shape}")
        if mean.shape != (rows.shape[1],):
            raise ShapeError(f"mean_vector {mean.shape} does not match K={rows.shape[1]}")
        if np.any(rows < 0):
            raise ParameterError("profile rows must be nonnegative")
        norms = np.linalg.norm(rows, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ParameterError("every profile row must have unit L2 norm")
        if np.any(np.abs(rows.mean(axis=0) - mean) > 1e-9):
            raise ParameterError("mean_vector must equal the arithmetic mean of the rows")
        rows.flags.writeable = False
        mean.flags.writeable = False
        object.__setattr__(self, "signatures", rows)
        object.__setattr__(self, "mean_vector", mean)

    @classmethod
    def from_rows(cls, identity: str, rows) -> "SignalProfile":
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return cls(identity=identity, signatures=rows, mean_vector=rows.mean(axis=0))

    @property
    def profile_len(self) -> int:
        return int(self.signatures.shape[0])

    @property
    def n_tags(self) -> int:
        return int(self.signatures.shape[1])

    def row(self, l: int) -> np.ndarray:
        return self.signatures[l]


@dataclass(frozen=True)
class SegmentBounds:
    """Sample-index bounds [t_start, t_end) of the backscattered region."""

    t_start: int
    t_end: int

    def __post_init__(self):
        if self.t_start < 0 or self.t_end <= self.t_start:
            raise ParameterError(
                f"bounds must satisfy 0 <= t_start < t_end, got [{self.t_start}, {self.t_end})")


def _smooth_rows(x, window: int) -> np.ndarray:
    """moving_average over each row of an (R, N) array."""
    n = x.shape[1]
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    if window > n:
        raise ParameterError(f"window {window} exceeds signal length {n}")
    if window == 1:
        return x.copy()
    back, fwd = window // 2, (window - 1) // 2
    # anchored on each row's first sample so the running sums stay near zero
    # and a constant row really does pass through bit-exactly
    anchor = x[:, :1]
    csum = np.zeros((x.shape[0], n + 1))
    np.cumsum(x - anchor, axis=1, out=csum[:, 1:])
    idx = np.arange(n)
    lo = np.maximum(idx - back, 0)
    hi = np.minimum(idx + fwd + 1, n)
    # take keeps the rows C-contiguous, which the BLAS correlation needs
    return anchor + (csum.take(hi, axis=1) - csum.take(lo, axis=1)) / (hi - lo)


def moving_average(samples, window: int) -> np.ndarray:
    """Centered moving average with edge truncation.

    Each output sample is the mean of the window centered on it (the extra
    tap of an even window falls on the past side); windows are truncated at
    the array edges, so a constant sequence passes through unchanged.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"samples must be 1-D, got shape {x.shape}")
    return _smooth_rows(x[None], window)[0]


def _correlate_rows(x, template) -> np.ndarray:
    """correlate over each row of an (R, N) array: (R, N - M + 1) lags.

    np.correlate per row.  Each lag is one BLAS dot product, and its
    summation order is what pins the peak and floor decisions.  A matmul
    over a sliding-window view makes the same dot calls without the loop,
    but it is no faster on a batch and slower on a single row.
    """
    out = np.empty((x.shape[0], x.shape[1] - template.size + 1))
    for row, lags in zip(x, out):
        lags[:] = np.correlate(row, template, mode="valid")
    return out


def correlate(smoothed, code) -> np.ndarray:
    """Sliding dot product of the signal against the code template.

    c[n] = sum_m smoothed[n + m] * code[m] over all full-overlap lags.
    """
    x = np.asarray(smoothed, dtype=np.float64)
    template = np.asarray(code, dtype=np.float64)
    if x.ndim != 1 or template.ndim != 1:
        raise ShapeError("both inputs must be 1-D")
    if template.size == 0:
        raise ParameterError("code must be nonempty")
    if template.size > x.size:
        raise ParameterError(
            f"code length {template.size} exceeds signal length {x.size}")
    return _correlate_rows(x[None], template)[0]


def expand_code(code, samples_per_bit: int) -> np.ndarray:
    """Expand an M-bit code to the sample domain."""
    if samples_per_bit < 1:
        raise ParameterError(f"samples_per_bit must be >= 1, got {samples_per_bit}")
    return np.repeat(np.asarray(code, dtype=np.float64), samples_per_bit)


def locate_rows(batch: TraceBatch, window: int = DEFAULT_SMOOTHING_WINDOW):
    """Segment every row of a batch: (starts, decodable, peaks, floors).

    Each smoothed row is correlated against the sample-domain code; the
    peak lag is the region start.  A peak below its floor, PEAK_FLOOR_RATIO
    times the row's median correlation, means no code is convincingly
    present, and the row is not decodable.
    """
    template = expand_code(batch.tag_code, batch.samples_per_bit)
    c = _correlate_rows(_smooth_rows(batch.samples, window), template)
    starts = np.argmax(c, axis=1)
    peaks = c[np.arange(c.shape[0]), starts]
    floors = PEAK_FLOOR_RATIO * np.median(c, axis=1)
    return starts, (peaks > 0.0) & (peaks >= floors), peaks, floors


def segment_backscatter(trace: ReceivedTrace,
                        window: int = DEFAULT_SMOOTHING_WINDOW) -> SegmentBounds:
    """Locate the backscattered region of a trace (see locate_rows).

    Raises SegmentationError when the trace is not decodable.
    """
    starts, decodable, peaks, floors = locate_rows(TraceBatch.stack([trace]), window)
    if not decodable[0]:
        raise SegmentationError(
            f"correlation peak {peaks[0]:.3e} below decision floor {floors[0]:.3e}")
    start = int(starts[0])
    return SegmentBounds(t_start=start, t_end=start + trace.code_span)


def _reflections(on, off) -> np.ndarray:
    """Mean of the reflecting minus mean of the absorbing samples, clamped
    at zero, over the last axis of contiguous gathers.

    A contiguous last axis is summed in the same order as a 1-D mean, so a
    block gives the same bits alone or in a batch.
    """
    return np.maximum(on.mean(axis=-1) - off.mean(axis=-1), 0.0)


def extract_reflection(block, reflect_mask) -> float:
    """Reflected-power estimate for one tag block.

    Mean of samples taken while the tag reflects minus mean while it
    absorbs, clamped below at zero (noise can push the difference negative,
    but a reflection cannot remove power).
    """
    x = np.asarray(block, dtype=np.float64)
    mask = np.asarray(reflect_mask, dtype=bool)
    if x.ndim != 1 or mask.shape != x.shape:
        raise ShapeError(f"block {x.shape} and mask {mask.shape} must be equal-length 1-D")
    if mask.all() or not mask.any():
        raise MaskError("mask must select at least one reflected and one non-reflected sample")
    return float(_reflections(x[mask], x[~mask]))


@functools.lru_cache(maxsize=64)
def _tag_gathers(code_bytes: bytes, samples_per_bit: int, n_tags: int) -> list:
    """Offsets into the code span of each tag's reflecting and absorbing samples.

    Returns [(tags, on, off)], one entry per group of tags with equal
    sample counts: the tag indices, and (T, n_on) and (T, n_off) offsets.
    """
    code = np.frombuffer(code_bytes, dtype=np.uint8)
    groups = {}
    for tag_idx, (b0, b1) in enumerate(tag_block_bit_spans(code.size, n_tags)):
        mask = np.repeat(code[b0:b1], samples_per_bit).astype(bool)
        if mask.all() or not mask.any():
            raise MaskError(f"tag {tag_idx + 1}'s code bits must both reflect and absorb")
        offsets = b0 * samples_per_bit + np.arange(mask.size)
        groups.setdefault((int(mask.sum()), mask.size), []).append(
            (tag_idx, offsets[mask], offsets[~mask]))
    out = []
    for members in groups.values():
        arrays = [np.array([m[0] for m in members]),
                  np.stack([m[1] for m in members]), np.stack([m[2] for m in members])]
        for arr in arrays:
            arr.flags.writeable = False
        out.append(tuple(arrays))
    return out


def reflection_rows(batch: TraceBatch, rows, starts) -> np.ndarray:
    """Raw K-vectors of the given batch rows, each region starting at starts.

    Works on the raw (unsmoothed) samples: block means are already noise
    averages, and smoothing would only correlate the estimation errors.
    """
    rows = np.asarray(rows, dtype=np.intp)[:, None, None]
    starts = np.asarray(starts, dtype=np.intp)[:, None, None]
    raw = np.empty((rows.shape[0], batch.n_tags), dtype=np.float64)
    for tags, on, off in _tag_gathers(batch.tag_code.tobytes(), batch.samples_per_bit,
                                      batch.n_tags):
        raw[:, tags] = _reflections(batch.samples[rows, starts + on],
                                    batch.samples[rows, starts + off])
    return raw


def build_signature(trace: ReceivedTrace, bounds: SegmentBounds) -> MultipathSignature:
    """Extract the K-vector multipath signature from a segmented trace."""
    if bounds.t_end > trace.samples.size:
        raise ShapeError(
            f"bounds [{bounds.t_start}, {bounds.t_end}) exceed trace length {trace.samples.size}")
    if bounds.t_end - bounds.t_start != trace.code_span:
        raise ShapeError(
            f"bounds span {bounds.t_end - bounds.t_start} does not equal the "
            f"code span {trace.code_span}")
    raw = reflection_rows(TraceBatch.stack([trace]), [0], [bounds.t_start])[0]
    if not raw.any():
        raise DegenerateSignatureError(
            f"identity {trace.identity!r} at t={trace.t_s}: zero reflection on every tag")
    return MultipathSignature.from_raw(raw)


def signature_from_trace(trace: ReceivedTrace,
                         window: int = DEFAULT_SMOOTHING_WINDOW) -> MultipathSignature:
    """Segment and extract in one step."""
    return build_signature(trace, segment_backscatter(trace, window))


def signature_rows(batch: TraceBatch, window: int = DEFAULT_SMOOTHING_WINDOW):
    """Segment and extract every row of a batch: (kept, raw, normalized).

    ``kept`` indexes the rows that segment and reflect on some tag, in row
    order; ``raw`` and ``normalized`` are their (n_kept, K) signatures.  The
    other rows are the ones for which signature_from_trace raises
    SegmentationError or DegenerateSignatureError.
    """
    starts, decodable, _, _ = locate_rows(batch, window)
    found = np.flatnonzero(decodable)
    raw = reflection_rows(batch, found, starts[found])
    norms = row_norms(raw)
    live = norms > 0.0  # zero on every tag: no direction to normalize
    raw = raw[live]
    return found[live], raw, raw / norms[live][:, None]


def _layout(trace):
    return (trace.samples.size, trace.samples_per_bit, trace.n_tags,
            trace.tag_code.tobytes())


def trace_batches(traces):
    """A trace sequence as runs of one layout: [(first index, TraceBatch)]."""
    if isinstance(traces, TraceBatch):
        return [(0, traces)]
    out, first = [], 0
    for _, group in itertools.groupby(traces, key=_layout):
        batch = TraceBatch.stack(group)
        out.append((first, batch))
        first += len(batch)
    return out


def _normalized_rows(signatures):
    rows = []
    for sig in signatures:
        vec = getattr(sig, "normalized", sig)
        rows.append(np.asarray(vec, dtype=np.float64))
    return rows


def build_profile(identity: str, signatures, profile_len: int = DEFAULT_PROFILE_LEN) -> SignalProfile:
    """Profile from the most recent profile_len signatures of a stream.

    ``signatures`` is an ordered sequence of MultipathSignature (or plain
    normalized vectors), oldest first.
    """
    if profile_len < 1:
        raise ParameterError(f"profile_len must be >= 1, got {profile_len}")
    rows = _normalized_rows(signatures)
    if len(rows) < profile_len:
        raise InsufficientDataError(
            f"identity {identity!r}: {len(rows)} valid signatures, need {profile_len}")
    return SignalProfile.from_rows(identity, np.vstack(rows[-profile_len:]))


def max_age_periods_for(profile_len: int, max_age_periods: int | None = None) -> int:
    """The window's max age in update periods; default 2 L."""
    if profile_len < 1:
        raise ParameterError(f"profile_len must be >= 1, got {profile_len}")
    age = 2 * profile_len if max_age_periods is None else max_age_periods
    if age < profile_len:
        raise ParameterError("max_age_periods must be >= profile_len")
    return age


def expired(period, newest_period, max_age_periods):
    """The max-age rule: a signature from ``period`` is too old for a window
    whose newest signature is from ``newest_period``.  Works elementwise."""
    return period <= newest_period - max_age_periods


def full_window_ends(periods, profile_len: int) -> np.ndarray:
    """Positions e in a signature stream where ProfileAssembler emits a profile.

    ``periods`` are the increasing period indices of the stream.  The
    window ending at e holds entries e - L + 1 .. e, and it is full exactly
    when its oldest entry has not expired by period[e]: eviction by age
    runs from the oldest end, so any expired entry would include that one.
    The max age is ProfileAssembler's default, 2 L.
    """
    age = max_age_periods_for(profile_len)
    p = np.asarray(periods, dtype=np.int64)
    ends = np.arange(profile_len - 1, p.size)
    return ends[~expired(p[ends - profile_len + 1], p[ends], age)]


def window_rows(rows, ends, profile_len: int) -> np.ndarray:
    """(W, L, K) windows of an (n, K) row stream, the W windows ending at ends."""
    return rows[np.asarray(ends)[:, None] + np.arange(1 - profile_len, 1)]


class ProfileAssembler:
    """Sliding profile window over one identity's signature stream.

    Traces that fail segmentation simply never reach push(), so the
    assembler sees gaps in the period index.  Signatures older than
    ``max_age_periods`` update periods (default 2 L) are discarded, which
    makes a long outage reset the window instead of gluing stale history
    onto fresh data.  full_window_ends gives the same windows for a whole
    stream at once.
    """

    def __init__(self, identity: str, profile_len: int = DEFAULT_PROFILE_LEN,
                 max_age_periods: int | None = None):
        self.max_age_periods = max_age_periods_for(profile_len, max_age_periods)
        self.identity = identity
        self.profile_len = profile_len
        self._window = deque()
        self._last_period = None

    @property
    def window(self) -> tuple:
        """The signatures currently in the window, oldest first."""
        return tuple(sig for _, sig in self._window)

    def push(self, period_idx: int, signature: MultipathSignature):
        """Add one signature; returns a SignalProfile when the window is full."""
        if self._last_period is not None and period_idx <= self._last_period:
            raise ParameterError(
                f"period index must increase, got {period_idx} after {self._last_period}")
        self._last_period = period_idx
        self._window.append((period_idx, signature))
        if len(self._window) > self.profile_len:
            self._window.popleft()
        while self._window and expired(self._window[0][0], period_idx,
                                       self.max_age_periods):
            self._window.popleft()
        if len(self._window) == self.profile_len:
            rows = np.vstack([sig.normalized for _, sig in self._window])
            return SignalProfile.from_rows(self.identity, rows)
        return None
