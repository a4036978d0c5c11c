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
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSignatureError,
    InsufficientDataError,
    MaskError,
    ParameterError,
    SegmentationError,
    ShapeError,
)
from .scenario import (
    SMOOTHING_WINDOW,
    ReceivedTrace,
    TraceBatch,
    prevalidated,
    tag_block_bit_spans,
)

DEFAULT_PROFILE_LEN = 10

# A correlation peak below this multiple of the median correlation is
# indistinguishable from background, so the trace is dropped as undecodable.
PEAK_FLOOR_RATIO = 3.0


def row_norms(rows) -> np.ndarray:
    """L2 norm over the last axis of an (..., K) array.

    The squared norm is one BLAS dot product per row, as np.linalg.norm
    takes it for a single vector, so a row's norm is bit-identical alone
    or in a batch.  Squares that overflow give an infinite norm, without a
    warning: every caller rejects it.
    """
    with np.errstate(over="ignore"):
        return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


def _readonly_arrays(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class MultipathSignature:
    """Per-tag reflected powers and their unit-norm form.

    The constructor takes the raw powers (1-D, finite, nonnegative) and
    derives ``normalized`` from them, so every signature is a valid
    SignalProfile row and a ProfileAssembler trusts its signatures.
    """

    raw: np.ndarray
    normalized: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.array(self.raw, dtype=np.float64)
        if raw.ndim != 1:
            raise ShapeError(f"raw must be a 1-D vector, got {raw.shape}")
        if np.any(raw < 0):
            raise ParameterError("raw reflected powers must be nonnegative")
        norm = row_norms(raw)
        if norm == 0.0:
            raise DegenerateSignatureError("all-zero reflection vector cannot be normalized")
        if not np.isfinite(norm):  # a NaN or inf power, or squares that overflow
            raise ParameterError("signature powers and their squared sum must be finite")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalized", raw / norm)
        _readonly_arrays(raw, self.normalized)

    @classmethod
    def from_raw(cls, raw) -> "MultipathSignature":
        return cls(raw=raw)

    @property
    def n_tags(self) -> int:
        return int(self.raw.size)


@dataclass(frozen=True)
class SignalProfile:
    """L successive normalized signatures for one identity, plus their mean.

    The constructor takes the (L, K) rows, L >= 1, each finite,
    nonnegative and of unit norm, and derives ``mean_vector`` from them.
    """

    identity: str
    signatures: np.ndarray
    mean_vector: np.ndarray = field(init=False)

    def __post_init__(self):
        rows = np.array(self.signatures, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ShapeError(f"signatures must be (L, K) with L >= 1, got {rows.shape}")
        if not np.isfinite(rows).all():
            raise ParameterError("profile rows must be finite")
        if np.any(rows < 0):
            raise ParameterError("profile rows must be nonnegative")
        norms = np.linalg.norm(rows, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ParameterError("every profile row must have unit L2 norm")
        object.__setattr__(self, "signatures", rows)
        # the sum over axis 0 divided by L, as ndarray.mean computes it
        object.__setattr__(self, "mean_vector", np.add.reduce(rows, axis=0) / rows.shape[0])
        _readonly_arrays(rows, self.mean_vector)

    @classmethod
    def from_rows(cls, identity: str, rows) -> "SignalProfile":
        return cls(identity=identity, signatures=np.atleast_2d(rows))

    @property
    def profile_len(self) -> int:
        return int(self.signatures.shape[0])

    @property
    def n_tags(self) -> int:
        return int(self.signatures.shape[1])


@dataclass(frozen=True)
class SegmentBounds:
    """Sample-index bounds [t_start, t_end) of the backscattered region."""

    t_start: int
    t_end: int

    def __post_init__(self):
        if self.t_start < 0 or self.t_end <= self.t_start:
            raise ParameterError(
                f"bounds must satisfy 0 <= t_start < t_end, got [{self.t_start}, {self.t_end})")


@functools.lru_cache(maxsize=64)
def _smoothing_bounds(n: int, window: int):
    """Running-sum bounds (lo, hi) of each output sample of an n-sample
    moving average, and the truncated window widths hi - lo as floats (the
    values a division by the integer widths would convert them to)."""
    back, fwd = window // 2, (window - 1) // 2
    idx = np.arange(n)
    lo = np.maximum(idx - back, 0)
    hi = np.minimum(idx + fwd + 1, n)
    return _readonly_arrays(lo, hi, (hi - lo).astype(np.float64))


def _smooth_rows(x, window: int) -> np.ndarray:
    """moving_average over the last axis of an (..., N) array."""
    n = x.shape[-1]
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    if window > n:
        raise ParameterError(f"window {window} exceeds signal length {n}")
    if window == 1:
        return x.copy()
    lo, hi, width = _smoothing_bounds(n, window)
    # anchored on each row's first sample so the running sums stay near zero
    # and a constant row really does pass through bit-exactly
    anchor = x[..., :1]
    csum = np.zeros(x.shape[:-1] + (n + 1,))
    np.cumsum(x - anchor, axis=-1, out=csum[..., 1:])
    # take keeps the rows C-contiguous, which the BLAS correlation needs
    return anchor + (csum.take(hi, axis=-1) - csum.take(lo, axis=-1)) / width


def moving_average(samples, window: int) -> np.ndarray:
    """Centered moving average with edge truncation.

    Each output sample is the mean of the window centered on it (the extra
    tap of an even window falls on the past side); windows are truncated at
    the array edges, so a constant sequence passes through unchanged.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"samples must be 1-D, got shape {x.shape}")
    return _smooth_rows(x, window)


def _correlate_rows(x, template) -> np.ndarray:
    """correlate over each row of an (R, N) array: (R, N - M + 1) lags.

    np.correlate per row: the exact kernel, whose decisions locate_rows
    reproduces.  Each lag is one BLAS dot product, and its summation
    order is what pins ties at the peak and floor.  locate_rows runs it
    only on the rows its prefix-sum kernel cannot certify.
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


@functools.lru_cache(maxsize=64)
def _template(code_bytes: bytes, samples_per_bit: int) -> np.ndarray:
    """expand_code of a uint8 code, read-only."""
    return _readonly_arrays(
        expand_code(np.frombuffer(code_bytes, dtype=np.uint8), samples_per_bit))[0]


def _median_rows(c) -> np.ndarray:
    """np.median over the last axis, without its set-up cost; partitions c
    in place at the middle.

    The middle element of a row, or the mean of the two middle elements of
    an even-length row, both as np.median takes them; the lower one is the
    largest element below the middle.  Unlike np.median it does not turn a
    row holding NaN into NaN; locate_rows never needs it to, since such a
    row's NaN peak fails every comparison anyway.
    """
    mid = c.shape[-1] // 2
    c.partition(mid, axis=-1)
    if c.shape[-1] % 2:
        return c[..., mid]
    return (np.maximum.reduce(c[..., :mid], axis=-1) + c[..., mid]) / 2.0


def _row_index(positions, lead: int):
    """Index reading row r of an array with ``lead`` leading axes at positions[r]."""
    rows = np.indices(positions.shape[:lead], sparse=True)
    return (*(r.reshape(r.shape + (1,) * (positions.ndim - lead)) for r in rows), positions)


def _segmentation(c):
    """(starts, decodable, peaks, floors) of correlations along the last axis.

    The peak lag is the region start.  A peak not above zero or below its
    floor, PEAK_FLOOR_RATIO times the row's median correlation, means no
    code is convincingly present, and the row is not decodable.
    """
    starts = c.argmax(axis=-1)
    # read before _median_rows partitions c
    peaks = c[_row_index(starts, starts.ndim)]
    floors = PEAK_FLOOR_RATIO * _median_rows(c)
    return starts, (peaks > 0.0) & (peaks >= floors), peaks, floors


def _exact_segmentation(batch, redo):
    """_segmentation of np.correlate's lags on the rows of a batch, or the
    row of a trace, that the mask redo selects: the reference decisions."""
    smoothed = _smooth_rows(batch.samples[redo], SMOOTHING_WINDOW)
    template = _template(batch.tag_code.tobytes(), batch.samples_per_bit)
    return _segmentation(_correlate_rows(smoothed, template))


# float64 unit roundoff
_U = 2.0 ** -53


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): a sum of n + 1 terms, added in
    any order, errs by at most gamma_n times the sum of their magnitudes."""
    return n * _U / (1.0 - n * _U)


def _alternating_lags(x, samples_per_bit: int, n_runs: int, n_lags: int):
    """(c, A): the lags of each nonnegative row of x, smoothed, against an
    alternating template, (..., n_lags), and each row's sum, from prefix
    sums in O(N) per row; the rows lie along x's last axis.

    The smoothed row is _smooth_rows' window sums over the same widths,
    but of the unanchored prefix sum C of x.  With s = samples_per_bit
    and P = 2 s, the template is n_runs runs of s ones, P apart, so lag n
    sums the blocks B[n + j P], j < n_runs, where B[k] = Y[k + s] - Y[k]
    and Y is the prefix sum of the smoothed row.  T, the cumulative sum
    of B along stride P, turns that into one difference,
    T[n + (n_runs - 1) P] - T[n - P].
    """
    *lead, n = x.shape
    window = SMOOTHING_WINDOW
    back, fwd = window // 2, (window - 1) // 2
    width = _smoothing_bounds(n, window)[2]
    period = 2 * samples_per_bit
    n_blocks = n_lags + (n_runs - 1) * period
    # two buffers serve every step, since fresh pages cost as much as a
    # pass: prefix holds C, then Y, then the lags; work holds the smoothed
    # row, then T (it is wider than a row, see _chain_len)
    prefix = np.empty((*lead, n + window))
    work = np.empty((*lead, _chain_len(n_lags, samples_per_bit, n_runs) * period))
    # add.accumulate is the ufunc loop cumsum calls, without its wrappers
    accumulate = np.add.accumulate
    # C padded with back zeros in front and fwd copies of C[n] behind, so
    # that every window sum, truncated or not, is one difference: a
    # truncated window subtracts C[0] = 0, which returns its sum unchanged
    prefix[..., :back + 1] = 0.0
    accumulate(x, axis=-1, out=prefix[..., back + 1:back + 1 + n])
    prefix[..., back + 1 + n:] = prefix[..., back + n, None]
    total = prefix[..., -1]  # C[n]; Y and the lags never reach the pad
    smoothed = work[..., :n]
    np.subtract(prefix[..., window:], prefix[..., :n], out=smoothed)
    np.divide(smoothed, width, out=smoothed)
    accumulate(smoothed, axis=-1, out=prefix[..., 1:n + 1])
    # T shifted by one period, so that T[k - P] reads 0 for k < P
    work[..., :period] = 0.0
    work[..., period + n_blocks:] = 0.0
    np.subtract(prefix[..., samples_per_bit:samples_per_bit + n_blocks],
                prefix[..., :n_blocks], out=work[..., period:period + n_blocks])
    chains = work.reshape(*lead, -1, period)
    accumulate(chains, axis=-2, out=chains)
    lags = n_runs * period
    c = np.subtract(work[..., lags:lags + n_lags], work[..., :n_lags], out=prefix[..., :n_lags])
    return c, total


def _chain_len(n_lags: int, samples_per_bit: int, n_runs: int) -> int:
    """Terms of each stride sum of _alternating_lags.

    Times 2 s, it exceeds the row length n = n_lags + code_len - 1, since
    the code spans n_runs 2 s samples, or s fewer for an odd bit count.
    """
    return -(-(n_lags + n_runs * samples_per_bit * 2) // (2 * samples_per_bit))


@functools.lru_cache(maxsize=64)
def _error_bound(n: int, samples_per_bit: int, n_runs: int, code_len: int):
    """(k_sum, k_first, k_abs): on a nonnegative n-sample row x with sum
    A, the lags of _alternating_lags(x) and those of np.correlate on
    _smooth_rows(x) differ by at most E = k_sum A + k_first x[0] + k_abs.

    Both estimate the lags c of the exact moving average y.  With u the
    unit roundoff, eta = 2^-1074 a bound on the absolute error of a
    division whose result underflows, w the window, w_min = w // 2 + 1
    its narrowest truncation, rho = max over samples j of the sum of
    1 / w_i over the windows i holding j (so sum y <= rho A), Q the chain
    length, ones = n_runs s and M = code_len:
    - fast path.  Each prefix sum of x adds at most n terms in order and
      errs by e = gamma_n A.  The smoothed prefix sums then err by
      e_Y = 2 e (1 + (w - 1) / w_min) + gamma_2 S
      + gamma_n (1 + gamma_2) S + n eta, S = rho A + 2 e n / w_min: the
      interior window sums telescope, so the prefix errors enter only at
      the two ends and the w - 1 truncated windows.  A block B errs by
      2 (1 + u) e_Y + u b, b the sum of y over it.  A stride sum adds at
      most Q blocks, P apart, so disjoint: it errs by
      e_T = Q 2 (1 + u) e_Y + u rho A
      + gamma_Q (rho A + Q 2 (1 + u) e_Y + u rho A), and a lag, the
      difference of two, by F = 2 (1 + u) e_T + u rho A;
    - reference.  _smooth_rows' anchored prefix sums of x - x[0] err by
      e_s = gamma_(n+1) (A + n x[0]), so a smoothed sample errs by
      (1 + gamma_3) 2 e_s / w_min + gamma_3 x[0] + gamma_4 y_i + eta and
      a lag, over its ones samples, by R = ones ((1 + gamma_3) 2 e_s /
      w_min + gamma_3 x[0] + eta) + gamma_4 rho A.  np.correlate's dot
      product, in whatever order its BLAS sums, adds gamma_M (rho A + R);
      the template is 0/1, so every product is exact.
    E is twice F + R + gamma_M (rho A + R) + 16 u rho A.  The doubling
    and the last term absorb every rounding after the lags, none above
    a few u times 3 rho A: in A itself, the median's midpoint, the
    floor's x 3 and the comparisons.
    """
    lo, hi, width = _smoothing_bounds(n, SMOOTHING_WINDOW)
    cover = np.zeros(n + 1)
    np.add.at(cover, lo, 1.0 / width)
    np.add.at(cover, hi, -1.0 / width)
    rho = float(np.cumsum(cover).max())
    w_min = SMOOTHING_WINDOW // 2 + 1
    chain = _chain_len(n - code_len + 1, samples_per_bit, n_runs)
    ones = n_runs * samples_per_bit
    g = _gamma

    def bound(total, first, eta):
        e = g(n) * total
        spread = rho * total + 2.0 * e * n / w_min
        e_y = (2.0 * e * (1.0 + (SMOOTHING_WINDOW - 1) / w_min)
               + g(2) * spread + g(n) * (1.0 + g(2)) * spread + n * eta)
        blocks = chain * 2.0 * (1.0 + _U) * e_y
        e_t = blocks + _U * rho * total + g(chain) * (rho * total + blocks + _U * rho * total)
        fast = 2.0 * (1.0 + _U) * e_t + _U * rho * total
        e_s = g(n + 1) * (total + n * first)
        ref = (ones * ((1.0 + g(3)) * 2.0 * e_s / w_min + g(3) * first + eta)
               + g(4) * rho * total)
        return 2.0 * (fast + ref + g(code_len) * (rho * total + ref)
                      + 16.0 * _U * rho * total)

    return bound(1.0, 0.0, 0.0), bound(0.0, 1.0, 0.0), bound(0.0, 0.0, 2.0 ** -1074)


def _fast_segmentation(x, samples_per_bit: int, n_runs: int, code_len: int):
    """(starts, decodable, peaks, floors, certified) of every nonnegative
    row of x along its last axis, from prefix sums.

    A row is certified when its decisions are np.correlate's by
    construction.  With E its error bound (see _error_bound), it needs:
    - a top-two lag margin above 2 E: the exact argmax is the same lag,
      and the exact peak within E;
    - a peak above E: the exact peak is positive;
    - |peak - floor| above 4 E: the median moves by at most E, the floor
      by 3 E, the peak by E.
    NaN or infinite lags or bounds certify nothing.
    """
    n = x.shape[-1]
    k_sum, k_first, k_abs = _error_bound(n, samples_per_bit, n_runs, code_len)
    with np.errstate(over="ignore", invalid="ignore"):
        c, total = _alternating_lags(x, samples_per_bit, n_runs, n - code_len + 1)
        bound = k_sum * total + k_first * x[..., 0] + k_abs
        starts, decodable, peaks, floors = _segmentation(c)
        # _median_rows left the top two lags in the upper half, which holds
        # two or more by the length rule: partitioned, its -2 is the runner-up
        upper = c[..., c.shape[-1] // 2:]
        upper.partition(-2, axis=-1)
        certified = ((peaks - upper[..., -2] > 2.0 * bound) & (peaks > bound)
                     & (np.absolute(peaks - floors) > 4.0 * bound))
    return starts, decodable, peaks, floors, certified


def locate_rows(batch):
    """Segment every row of a TraceBatch, or a ReceivedTrace's one row to
    scalars: (starts, decodable, peaks, floors).

    Each row is smoothed and correlated against the sample-domain code,
    and _segmentation reads the region start, whether the row is
    decodable, and the peak and floor that decided it from the lags.  The
    decisions are np.correlate's on _smooth_rows' output.  The lags come
    from prefix sums of the raw row, O(N) per row, and only the rows
    whose decisions their error bound cannot certify (see
    _fast_segmentation) are smoothed and re-run through np.correlate.
    A certified row's peak and floor are within its bound of
    np.correlate's.
    """
    code_len = batch.tag_code.size * batch.samples_per_bit
    n_runs = (batch.tag_code.size + 1) // 2
    *decisions, certified = _fast_segmentation(
        batch.samples, batch.samples_per_bit, n_runs, code_len)
    if not certified.all():
        redo = ~certified
        # a trace's scalars become 0-d arrays, which a mask writes like rows
        decisions = [np.asarray(out) for out in decisions]
        for out, exact in zip(decisions, _exact_segmentation(batch, redo)):
            out[redo] = exact
    return tuple(decisions)


def segment_backscatter(trace: ReceivedTrace) -> SegmentBounds:
    """Locate the backscattered region of a trace (see locate_rows).

    Raises SegmentationError when the trace is not decodable.
    """
    start = _region_start(trace)
    return SegmentBounds(t_start=start, t_end=start + trace.code_span)


def _region_start(trace: ReceivedTrace) -> int:
    """locate_rows on one trace; raises SegmentationError with the peak
    and floor that decided it."""
    start, decodable, peak, floor = locate_rows(trace)
    if not decodable:
        raise SegmentationError(
            f"correlation peak {peak:.3e} below decision floor {floor:.3e}")
    return int(start)


def _reflections(on, off) -> np.ndarray:
    """Mean of the reflecting minus mean of the absorbing samples, clamped
    at zero, over the last axis of gathers whose last axis is contiguous.

    A contiguous last axis is summed in the same order as a 1-D mean, so a
    block gives the same bits alone or in a batch.  Each mean is the sum
    divided by the count, as ndarray.mean computes it, without its wrappers.
    """
    return np.maximum(np.add.reduce(on, axis=-1) / on.shape[-1]
                      - np.add.reduce(off, axis=-1) / off.shape[-1], 0.0)


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

    Returns [(tags, offsets, n_on)], one entry per group of tags with equal
    sample counts: the tag indices, and (T, n_on + n_off) offsets, each
    row the tag's n_on reflecting samples followed by its absorbing ones,
    so that one gather serves both means.
    """
    code = np.frombuffer(code_bytes, dtype=np.uint8)
    groups = {}
    for tag_idx, (b0, b1) in enumerate(tag_block_bit_spans(code.size, n_tags)):
        mask = np.repeat(code[b0:b1], samples_per_bit).astype(bool)
        offsets = b0 * samples_per_bit + np.arange(mask.size)
        groups.setdefault((int(mask.sum()), mask.size), []).append(
            (tag_idx, np.concatenate([offsets[mask], offsets[~mask]])))
    return [(*_readonly_arrays(np.array([m[0] for m in members]),
                               np.stack([m[1] for m in members])), n_on)
            for (n_on, _), members in groups.items()]


def reflection_rows(batch, starts) -> np.ndarray:
    """Raw K-vectors of each row of a TraceBatch or ReceivedTrace, its region at starts.

    Works on the raw (unsmoothed) samples: block means are already noise
    averages, and smoothing would only correlate the estimation errors.
    """
    lead = batch.samples.shape[:-1]
    starts = np.asarray(starts, dtype=np.intp)[..., None, None]
    raw = np.empty(lead + (batch.n_tags,), dtype=np.float64)
    for tags, offsets, n_on in _tag_gathers(batch.tag_code.tobytes(),
                                            batch.samples_per_bit, batch.n_tags):
        block = batch.samples[_row_index(starts + offsets, len(lead))]
        raw[..., tags] = _reflections(block[..., :n_on], block[..., n_on:])
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
    return _signature(trace, bounds.t_start)


def _signature(trace: ReceivedTrace, start: int) -> MultipathSignature:
    """reflection_rows on ``trace``, normalized as signature_rows does it.
    The powers of a validated trace need no further checks; raises
    DegenerateSignatureError."""
    raw = reflection_rows(trace, start)
    norm = row_norms(raw)
    if norm == 0.0:
        if not raw.any():
            raise DegenerateSignatureError(
                f"identity {trace.identity!r} at t={trace.t_s}: zero reflection on every tag")
        # every power underflows when squared
        raise DegenerateSignatureError("all-zero reflection vector cannot be normalized")
    if norm == np.inf:
        raise DegenerateSignatureError(
            f"identity {trace.identity!r} at t={trace.t_s}: the squared reflection "
            "powers overflow, so the vector cannot be normalized")
    raw, normalized = _readonly_arrays(raw, raw / norm)
    return prevalidated(MultipathSignature, raw=raw, normalized=normalized)


def signature_from_trace(trace: ReceivedTrace) -> MultipathSignature:
    """Segment and extract in one step, on the trace's own samples."""
    return _signature(trace, _region_start(trace))


def signature_rows(batch: TraceBatch):
    """Segment and extract every row of a batch: (kept, raw, normalized).

    ``kept`` indexes the rows that segment and have a finite, nonzero
    reflection norm, in row order; ``raw`` and ``normalized`` are their
    (n_kept, K) signatures.  The other rows are the ones for which
    signature_from_trace raises SegmentationError or
    DegenerateSignatureError.
    """
    starts, decodable, _, _ = locate_rows(batch)
    found = np.flatnonzero(decodable)
    raw = reflection_rows(batch, starts)[found]
    norms = row_norms(raw)
    # zero on every tag, or squares that overflow: no direction to normalize
    live = (norms > 0.0) & (norms < np.inf)
    raw = raw[live]
    return found[live], raw, raw / norms[live][:, None]


def build_profile(identity: str, signatures, profile_len: int = DEFAULT_PROFILE_LEN) -> SignalProfile:
    """Profile from the most recent profile_len signatures of a stream.

    ``signatures`` is an ordered sequence of MultipathSignature, oldest
    first.
    """
    if profile_len < 1:
        raise ParameterError(f"profile_len must be >= 1, got {profile_len}")
    signatures = list(signatures)
    if len(signatures) < profile_len:
        raise InsufficientDataError(
            f"identity {identity!r}: {len(signatures)} valid signatures, need {profile_len}")
    return SignalProfile.from_rows(
        identity, np.vstack([sig.normalized for sig in signatures[-profile_len:]]))


def max_age_periods_for(profile_len: int) -> int:
    """The window's max age in update periods: 2 L."""
    if profile_len < 1:
        raise ParameterError(f"profile_len must be >= 1, got {profile_len}")
    return 2 * profile_len


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
    The max age is ProfileAssembler's, 2 L.
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
    ``max_age_periods`` update periods (2 L) are discarded, which
    makes a long outage reset the window instead of gluing stale history
    onto fresh data.  full_window_ends gives the same windows for a whole
    stream at once.
    """

    def __init__(self, identity: str, profile_len: int = DEFAULT_PROFILE_LEN):
        self.max_age_periods = max_age_periods_for(profile_len)
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
            # rows of validated signatures, so SignalProfile's checks would
            # add nothing; the mean is derived as SignalProfile derives it
            rows = np.array([sig.normalized for _, sig in self._window])
            mean = np.add.reduce(rows, axis=0) / self.profile_len
            rows, mean = _readonly_arrays(rows, mean)
            return prevalidated(SignalProfile, identity=self.identity,
                                signatures=rows, mean_vector=mean)
        return None
