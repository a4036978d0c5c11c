"""Scenario synthesis for backscatter-tag robot networks.

Generates ground-truth trajectories and per-identity received traces.  A
receiver robot carries a ring of passive backscatter tags; transmitter
robots announce one or more identities, and each announcement produces one
trace per update period.  Tag reflections follow the two-segment free-space
budget

    P_refl = P_t * G_t / (4 pi d_t^2) * lam^2 * G_r / (16 pi^2 d_r^2) * T

with the tag's scattering behaviour lumped into the scalar transfer T.
A Sybil attacker re-announces under several identities, optionally scaling
its transmit power per identity, but it cannot move the phantom: all of its
identities radiate from the same antenna and therefore see (nearly) the
same tag geometry.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    GeometryError,
    IdentityError,
    ParameterError,
    ShapeError,
    TrajectoryError,
    TrajectoryRangeError,
)

DEFAULT_TAG_TRANSFER = 0.05
DEFAULT_AMBIENT_W = 1e-6
DEFAULT_SNR_DB = 20.0
DEFAULT_CODE_BITS = 64
DEFAULT_SAMPLES_PER_BIT = 8
DEFAULT_SAMPLE_RATE_HZ = 8000.0
DEFAULT_PERIOD_S = 0.6
DEFAULT_SLOT_SPACING_S = 0.02
DEFAULT_RING_RADIUS_M = 0.12
DEFAULT_SPEED_MPS = 0.2
DEFAULT_TX_POWER_W = 3.0

# Guard lengths are drawn in units of one full code span; a trace is always
# five spans long so file sizes stay uniform while the code position varies.
TRACE_SPANS = 5
MIN_GUARD_SPANS = 1

# taps of the moving average applied before the code correlation
SMOOTHING_WINDOW = 9
# the fewest code bits of one tag's block that segments exactly (check_layout)
MIN_TAG_BITS = 7


def _positive(name, value):
    if not (value > 0) or not math.isfinite(value):
        raise ParameterError(f"{name} must be strictly positive, got {value!r}")
    return float(value)


def check_layout(code_bits, samples_per_bit, n_tags):
    """Reject a code layout that the pipeline does not segment exactly.

    Every tag keys the alternating code over one block of its bits
    (tag_block_bit_spans).  Under these two rules a noise-free trace
    segments at its region's start wherever that lies and whatever the
    tags' powers:
    - code_bits >= MIN_TAG_BITS n_tags.  With a shorter block, a region
      next to a trace edge gets more of its first or last reflecting run
      through the truncated smoothing windows than the block's further
      runs take back, so it segments off its start;
    - samples_per_bit > SMOOTHING_WINDOW // 2, so the smoothing never
      carries a tag's power across an absorbing bit into the next
      reflecting run (at 2 it does; at 3 and 4 it inverts the code).
    """
    if n_tags < 1:
        raise ParameterError(f"n_tags must be >= 1, got {n_tags}")
    if code_bits < MIN_TAG_BITS * n_tags:
        raise ParameterError(
            f"code_bits {code_bits} gives one of {n_tags} tags fewer than "
            f"{MIN_TAG_BITS} bits: the rule is code_bits >= {MIN_TAG_BITS} n_tags")
    if samples_per_bit <= SMOOTHING_WINDOW // 2:
        raise ParameterError(
            f"samples_per_bit {samples_per_bit} mis-segments the alternating "
            f"code: the rule is samples_per_bit > {SMOOTHING_WINDOW // 2}, half "
            f"the {SMOOTHING_WINDOW}-tap smoothing window")


def _readonly(obj, name, arr):
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


def prevalidated(cls, **fields):
    """An instance of the frozen dataclass ``cls`` whose fields were already
    validated in bulk; its own per-instance checks are skipped."""
    obj = object.__new__(cls)
    # attribute by attribute, as a dataclass __init__ sets them: filling
    # obj.__dict__ directly would give every instance its own dict
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class ChannelParams:
    """Propagation constants for the tag reflection budget.

    The tag itself enters the power budget only through the lumped transfer
    ``tag_transfer``, which stands in for the full scattering term
    T(lam, G_tag, Gamma).
    """

    wavelength_m: float = 0.125
    tx_gain: float = 1.0
    rx_gain: float = 1.0
    tag_transfer: float = DEFAULT_TAG_TRANSFER

    def __post_init__(self):
        for name in ("wavelength_m", "tx_gain", "rx_gain"):
            _positive(name, getattr(self, name))
        # zero transfer is allowed: it models a disabled tag array and
        # yields ambient-only traces
        if not (self.tag_transfer >= 0) or not math.isfinite(self.tag_transfer):
            raise ParameterError(
                f"tag_transfer must be >= 0, got {self.tag_transfer!r}")


@dataclass(frozen=True)
class TagLayout:
    """Positions of the K tags in the receiver's body frame (meters)."""

    tag_positions: np.ndarray
    ring_radius_m: float

    def __post_init__(self):
        pos = np.array(self.tag_positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise GeometryError(f"tag_positions must be (K, 2), got {pos.shape}")
        if pos.shape[0] < 2:
            raise GeometryError(f"need at least 2 tags, got {pos.shape[0]}")
        _positive("ring_radius_m", self.ring_radius_m)
        radii = np.hypot(pos[:, 0], pos[:, 1])
        # 1 mm mounting tolerance on the ring
        if np.any(np.abs(radii - self.ring_radius_m) > 1e-3):
            raise GeometryError(
                "tag positions must sit on the ring within 1 mm; "
                f"radii {radii} vs nominal {self.ring_radius_m}")
        _readonly(self, "tag_positions", pos)

    @property
    def n_tags(self) -> int:
        return self.tag_positions.shape[0]

    @property
    def tag_ranges_m(self) -> np.ndarray:
        """Tag-to-receiver-antenna distances d_r (antenna at body origin)."""
        return np.hypot(self.tag_positions[:, 0], self.tag_positions[:, 1])

    @classmethod
    def regular_ring(cls, n_tags: int,
                     ring_radius_m: float = DEFAULT_RING_RADIUS_M) -> "TagLayout":
        """Evenly spaced tags on a circle, first tag on the +x axis."""
        if n_tags < 2:
            raise GeometryError(f"need at least 2 tags, got {n_tags}")
        theta = 2.0 * np.pi * np.arange(n_tags) / n_tags
        pos = ring_radius_m * np.column_stack([np.cos(theta), np.sin(theta)])
        return cls(tag_positions=pos, ring_radius_m=ring_radius_m)


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped 2-D waypoints traversed at a fixed nominal speed.

    Consecutive waypoints are joined by straight segments walked at
    ``speed_mps`` (within 1%).  Segments with zero displacement are dwells
    and are exempt from the speed check, so a parked robot is expressed as
    two identical positions at different times.
    """

    waypoints: np.ndarray
    speed_mps: float

    def __post_init__(self):
        wp = np.array(self.waypoints, dtype=np.float64)
        if wp.ndim != 2 or wp.shape[1] != 3:
            raise TrajectoryError(f"waypoints must be (n, 3) rows of (t, x, y), got {wp.shape}")
        if wp.shape[0] < 2:
            raise TrajectoryError("need at least 2 waypoints")
        _positive("speed_mps", self.speed_mps)
        dt = np.diff(wp[:, 0])
        if np.any(dt <= 0):
            raise TrajectoryError("waypoint times must be strictly increasing")
        seg = np.hypot(np.diff(wp[:, 1]), np.diff(wp[:, 2]))
        moving = seg > 0
        speeds = seg[moving] / dt[moving]
        if speeds.size and np.any(np.abs(speeds / self.speed_mps - 1.0) > 0.01):
            raise TrajectoryError(
                f"segment speeds {speeds} deviate more than 1% from {self.speed_mps} m/s")
        _readonly(self, "waypoints", wp)

    @property
    def t_min(self) -> float:
        return float(self.waypoints[0, 0])

    @property
    def t_max(self) -> float:
        return float(self.waypoints[-1, 0])

    @classmethod
    def from_path(cls, points, speed_mps: float, dwell_s: float = 0.0) -> "Trajectory":
        """Build waypoint times from cumulative path length at constant speed.

        ``dwell_s`` inserts a hold at the final point, which is convenient for
        padding a path out to a scenario horizon.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise TrajectoryError(f"points must be (n, 2), got {pts.shape}")
        _positive("speed_mps", speed_mps)
        seg = np.hypot(*np.diff(pts, axis=0).T) if pts.shape[0] > 1 else np.array([])
        times = np.concatenate([[0.0], np.cumsum(seg)]) / speed_mps
        wp = np.column_stack([times, pts])
        if dwell_s > 0:
            wp = np.vstack([wp, [times[-1] + dwell_s, pts[-1, 0], pts[-1, 1]]])
        return cls(waypoints=wp, speed_mps=speed_mps)


@dataclass(frozen=True)
class RobotAgent:
    """One physical transmitter and the identities it announces.

    A legitimate robot announces exactly one identity at unit power scale.
    A Sybil attacker announces two or more, each optionally with its own
    transmit power coefficient alpha > 0.
    """

    true_source_id: str
    claimed_identities: tuple
    trajectory: Trajectory
    base_tx_power_w: float
    power_scale_per_identity: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = tuple(str(i) for i in self.claimed_identities)
        if not ids:
            raise IdentityError(f"agent {self.true_source_id!r} claims no identities")
        if len(set(ids)) != len(ids):
            raise IdentityError(f"agent {self.true_source_id!r} repeats an identity")
        object.__setattr__(self, "claimed_identities", ids)
        _positive("base_tx_power_w", self.base_tx_power_w)
        scale = {str(k): float(v) for k, v in self.power_scale_per_identity.items()}
        unknown = set(scale) - set(ids)
        if unknown:
            raise IdentityError(
                f"power scale given for identities {sorted(unknown)} not claimed "
                f"by agent {self.true_source_id!r}")
        for ident, alpha in scale.items():
            if not (alpha > 0) or not math.isfinite(alpha):
                raise IdentityError(f"alpha for {ident!r} must be > 0, got {alpha}")
        if len(ids) == 1 and scale.get(ids[0], 1.0) != 1.0:
            raise IdentityError(
                f"legitimate agent {self.true_source_id!r} must transmit at alpha = 1")
        object.__setattr__(self, "power_scale_per_identity", scale)

    @property
    def is_attacker(self) -> bool:
        return len(self.claimed_identities) > 1

    def alpha_for(self, identity: str) -> float:
        return self.power_scale_per_identity.get(identity, 1.0)


@functools.lru_cache(maxsize=64)
def _tag_layout(n_bits: int, samples_per_bit: int, n_tags: int, n: int) -> np.ndarray:
    """The schedule of every region start in an n-sample trace, read-only.

    2n int16 entries: n zeros, the tag number (1..K) of each sample of the
    backscattered region as synthesize_traces lays it out, then zeros.
    The slice [n - s, 2n - s) is the schedule of a region starting at
    sample s, and [0, n) is the all-guard schedule.
    """
    spans = tag_block_bit_spans(n_bits, n_tags)
    tag_of = np.repeat(np.arange(1, n_tags + 1, dtype=np.int16),
                       [(b1 - b0) * samples_per_bit for b0, b1 in spans])
    layout = np.zeros(2 * n, dtype=np.int16)
    layout[n:n + tag_of.size] = tag_of
    layout.flags.writeable = False
    return layout


def _layout_schedule(trace, start: int) -> np.ndarray:
    """The schedule of a trace (or of a batch's rows) whose region starts at
    sample ``start``, n for none: a read-only view of the cached _tag_layout."""
    n = trace.samples.shape[-1]
    layout = _tag_layout(trace.tag_code.size, trace.samples_per_bit, trace.n_tags, n)
    return layout[n - start:2 * n - start]


def _trace_arrays(samples, tag_schedule, tag_code, samples_per_bit, n_tags,
                  sample_rate_hz, ndim):
    """Validate the arrays of one trace (ndim 1) or of a row batch (ndim 2).

    Returns samples and code as read-only copies in the stored dtypes, so
    the caller's arrays stay writeable, and each row's region start (n for
    an all-guard row) in place of the schedule.  Rows are traces of equal
    length sharing one code.  Besides check_layout, a trace must carry the
    alternating code and hold one code span plus two samples, that is three
    correlation lags: the lags are sums of nonnegative products, so with
    one lag the decision floor is 3x the peak and with two at least 1.5x,
    and such a trace never decodes.  A checked span is longer than the
    smoothing window.  Last, every schedule row must be the layout's
    schedule at its first tagged sample (_tag_layout), so the start alone
    is its ground truth; being equal to it, the values are tags 0..n_tags.
    """
    samples = np.array(samples, dtype=np.float64)
    schedule = np.asarray(tag_schedule)
    code = np.array(tag_code, dtype=np.uint8)
    _positive("sample_rate_hz", sample_rate_hz)
    if code.ndim != 1 or not np.array_equal(code, 1 - np.arange(code.size) % 2):
        raise ParameterError(
            "tag_code is not the alternating code: the rule is "
            "tag_code = 1, 0, 1, 0, ... (alternating_code(len(tag_code)))")
    check_layout(code.size, samples_per_bit, n_tags)
    if samples.ndim != ndim or schedule.shape != samples.shape:
        raise ShapeError(
            f"samples {samples.shape} and tag_schedule {schedule.shape} "
            f"must be {ndim}-D arrays of equal shape")
    n = samples.shape[-1]
    span = code.size * samples_per_bit
    if n < span + 2:
        raise ParameterError(
            f"trace of {n} samples is too short: the rule is at "
            f"least one code span plus two samples (three lags), {span + 2} samples")
    if not np.all(np.isfinite(samples)):
        raise ParameterError("trace magnitudes must be finite")
    if np.any(samples < 0):
        raise ParameterError("trace magnitudes must be nonnegative")
    tagged = schedule != 0
    starts = np.where(tagged.any(axis=-1), tagged.argmax(axis=-1), n)
    layout = _tag_layout(code.size, samples_per_bit, n_tags, n)
    if not all(np.array_equal(row, layout[n - s:2 * n - s])
               for row, s in zip(schedule.reshape(-1, n), starts.reshape(-1))):
        raise ParameterError(
            "tag_schedule does not follow the layout: the rule is a row of "
            f"zeros, or tags 1..{n_tags} over their code blocks "
            "(tag_block_bit_spans) from the row's first tagged sample on, "
            "cut off only by the trace end")
    for arr in (samples, starts, code):
        arr.flags.writeable = False
    return samples, starts, code


@dataclass(frozen=True)
class ReceivedTrace:
    """Magnitude samples received for one identity announcement.

    ``tag_schedule`` annotates each sample with the tag block it belongs to
    (1..K over the backscattered region, 0 over the ambient-only guards);
    ``tag_code`` is the known M-bit modulation pattern shared by all tags.
    The schedule must follow the simulator's layout (_trace_arrays) and is
    stored as a read-only view of one array cached per layout.
    """

    identity: str
    true_source_id: str
    t_s: float
    sample_rate_hz: float
    samples: np.ndarray
    tag_schedule: np.ndarray
    tag_code: np.ndarray
    samples_per_bit: int
    n_tags: int

    def __post_init__(self):
        samples, start, code = _trace_arrays(
            self.samples, self.tag_schedule, self.tag_code, self.samples_per_bit,
            self.n_tags, self.sample_rate_hz, ndim=1)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "tag_code", code)
        object.__setattr__(self, "tag_schedule", _layout_schedule(self, int(start)))

    @property
    def code_span(self) -> int:
        """Length of the backscattered region in samples."""
        return int(self.tag_code.size) * int(self.samples_per_bit)

    def scheduled_start(self):
        """Ground-truth start index of the backscattered region, or None."""
        nz = np.nonzero(self.tag_schedule)[0]
        return int(nz[0]) if nz.size else None


@dataclass(frozen=True, eq=False)
class TraceBatch(Sequence):
    """Every trace of one identity as one array, one row per trace.

    Row k of ``samples`` is the trace announced at ``t_s[k]``; all rows
    share the code, the modulation and the tag count.  The batch is
    validated once as a whole.  The ``tag_schedule`` rows it is built from
    follow the layout (_trace_arrays), so it keeps only ``region_starts``,
    each row's first tagged sample (the row length for none).  As a
    sequence it yields ReceivedTrace objects; see ``__getitem__``.
    """

    identity: str
    true_source_id: str
    t_s: np.ndarray
    sample_rate_hz: float
    samples: np.ndarray
    tag_schedule: InitVar[np.ndarray]
    tag_code: np.ndarray
    samples_per_bit: int
    n_tags: int
    region_starts: np.ndarray = field(init=False)

    def __post_init__(self, tag_schedule):
        samples, starts, code = _trace_arrays(
            self.samples, tag_schedule, self.tag_code, self.samples_per_bit,
            self.n_tags, self.sample_rate_hz, ndim=2)
        t_s = np.array(self.t_s, dtype=np.float64)
        if t_s.shape != samples.shape[:1]:
            raise ShapeError(f"t_s {t_s.shape} must hold one time per row of "
                             f"samples {samples.shape}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "region_starts", starts)
        object.__setattr__(self, "tag_code", code)
        _readonly(self, "t_s", t_s)

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    def __getitem__(self, k):
        """The trace of row k, holding its own copy of the samples row.

        A row view would pin the whole batch for as long as any one trace
        taken from it is kept; a consumer that keeps a subset of the traces
        (a receiver dropping lost announcements) would then hold every row.
        The schedule is the layout's cached view at the row's region start.
        """
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        k = range(len(self))[k]
        samples = self.samples[k].copy()
        samples.flags.writeable = False
        return prevalidated(
            ReceivedTrace, identity=self.identity,
            true_source_id=self.true_source_id, t_s=float(self.t_s[k]),
            sample_rate_hz=self.sample_rate_hz, samples=samples,
            tag_schedule=_layout_schedule(self, int(self.region_starts[k])),
            tag_code=self.tag_code, samples_per_bit=self.samples_per_bit,
            n_tags=self.n_tags)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to synthesize one scenario deterministically."""

    channel: ChannelParams
    tag_layout: TagLayout
    receiver_trajectory: Trajectory
    agents: tuple
    horizon_s: float = 60.0
    period_s: float = DEFAULT_PERIOD_S
    code_bits: int = DEFAULT_CODE_BITS
    samples_per_bit: int = DEFAULT_SAMPLES_PER_BIT
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    ambient_w: float = DEFAULT_AMBIENT_W
    snr_db: float | None = DEFAULT_SNR_DB
    slot_spacing_s: float = DEFAULT_SLOT_SPACING_S

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        _positive("horizon_s", self.horizon_s)
        _positive("period_s", self.period_s)
        _positive("sample_rate_hz", self.sample_rate_hz)
        _positive("ambient_w", self.ambient_w)
        if self.slot_spacing_s < 0:
            raise ParameterError("slot_spacing_s must be >= 0")
        check_layout(self.code_bits, self.samples_per_bit, self.tag_layout.n_tags)
        seen = set()
        for agent in self.agents:
            for ident in agent.claimed_identities:
                if ident in seen:
                    raise IdentityError(f"identity {ident!r} claimed by more than one agent")
                seen.add(ident)

    @property
    def identities(self) -> tuple:
        """All claimed identities, in agent declaration order."""
        out = []
        for agent in self.agents:
            out.extend(agent.claimed_identities)
        return tuple(out)

    @property
    def n_periods(self) -> int:
        # guard against 9.999... from float division
        return int(self.horizon_s / self.period_s + 1e-9)

    def agent_of(self, identity: str) -> RobotAgent:
        for agent in self.agents:
            if identity in agent.claimed_identities:
                return agent
        raise IdentityError(f"unknown identity {identity!r}")

    def true_sources(self) -> dict:
        return {i: self.agent_of(i).true_source_id for i in self.identities}


@dataclass(frozen=True)
class ScenarioRun:
    """Output of simulate_scenario: per-identity trace streams plus truth.

    ``traces`` maps each identity to a TraceBatch, one row per update
    period, as the simulator and the trace reader return it.
    """

    traces: dict
    true_sources: dict
    seed: int

    @property
    def identities(self) -> tuple:
        return tuple(self.traces.keys())


def alternating_code(n_bits: int) -> np.ndarray:
    """The shared modulation pattern: 1, 0, 1, 0, ... over n_bits."""
    if n_bits < 2:
        raise ParameterError(f"code needs >= 2 bits, got {n_bits}")
    return (1 - np.arange(n_bits, dtype=np.uint8) % 2).astype(np.uint8)


def tag_block_bit_spans(n_bits: int, n_tags: int):
    """Carve the M code bits into K contiguous near-equal per-tag spans.

    Returns a list of (first_bit, last_bit_exclusive) pairs.  Longer spans
    come first when n_bits is not divisible by n_tags, matching
    numpy.array_split.
    """
    if n_tags < 1:
        raise ParameterError(f"n_tags must be >= 1, got {n_tags}")
    if n_bits < 2 * n_tags:
        raise ParameterError(
            f"{n_bits} code bits cannot give every one of {n_tags} tags both "
            "a reflecting and a non-reflecting bit")
    edges = [len(part) for part in np.array_split(np.arange(n_bits), n_tags)]
    bounds = np.concatenate([[0], np.cumsum(edges)])
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_tags)]


def reflected_powers(channel: ChannelParams, tx_power_w: float,
                     d_t_m, d_r_m) -> np.ndarray:
    """Tag-reflected signal strengths at the receiver, elementwise.

    Two cascaded free-space segments (transmitter -> tag, tag -> receiver)
    with the tag's scattering lumped into channel.tag_transfer.  Strictly
    decreasing in both distances, linear in transmit power.  The distance
    arrays broadcast against each other.
    """
    tx_power_w = _positive("tx_power_w", tx_power_w)
    d_t = np.asarray(d_t_m, dtype=np.float64)
    d_r = np.asarray(d_r_m, dtype=np.float64)
    for name, d in (("d_t_m", d_t), ("d_r_m", d_r)):
        ok = (d > 0) & np.isfinite(d)
        if not np.all(ok):
            raise ParameterError(
                f"{name} must be strictly positive, got {float(d[~ok].flat[0])!r}")
    # float_power calls C pow per element, as Python's ``x ** 2`` does for a
    # float; numpy's square and power round differently in the last bit on
    # some inputs.  So a trace is bit-identical alone or in a batch.
    incident = tx_power_w * channel.tx_gain / (4.0 * math.pi * np.float_power(d_t, 2.0))
    collected = channel.wavelength_m ** 2 * channel.rx_gain / (
        16.0 * math.pi ** 2 * np.float_power(d_r, 2.0))
    return incident * collected * channel.tag_transfer


def positions_at(trajectory: Trajectory, t_s) -> np.ndarray:
    """Piecewise-linear interpolation of the trajectory: (n, 2) at n times."""
    t = np.asarray(t_s, dtype=np.float64)
    wp = trajectory.waypoints
    inside = (wp[0, 0] <= t) & (t <= wp[-1, 0])
    if not np.all(inside):
        raise TrajectoryRangeError(
            f"t = {float(t[~inside].flat[0])} outside trajectory span "
            f"[{wp[0, 0]}, {wp[-1, 0]}]")
    return np.column_stack([np.interp(t, wp[:, 0], wp[:, 1]),
                            np.interp(t, wp[:, 0], wp[:, 2])])


def tag_reflection_power_rows(scenario: ScenarioConfig, agent: RobotAgent,
                              identity: str, t_s) -> np.ndarray:
    """Ground-truth per-tag reflected powers, (n, K) for n announcement times.

    The receiver pose is sampled at each time and held for the whole trace
    (quasi-static); tag positions are body-frame offsets from it.
    """
    if identity not in agent.claimed_identities:
        raise IdentityError(
            f"identity {identity!r} does not belong to agent {agent.true_source_id!r}")
    tx_power = agent.base_tx_power_w * agent.alpha_for(identity)
    tx_pos = positions_at(agent.trajectory, t_s)
    rx_pos = positions_at(scenario.receiver_trajectory, t_s)
    tag_world = rx_pos[:, None, :] + scenario.tag_layout.tag_positions
    offset = tx_pos[:, None, :] - tag_world
    d_t = np.hypot(offset[..., 0], offset[..., 1])
    return reflected_powers(scenario.channel, tx_power, d_t,
                            scenario.tag_layout.tag_ranges_m)


def tag_reflection_powers(scenario: ScenarioConfig, agent: RobotAgent,
                          identity: str, t_s: float) -> np.ndarray:
    """Ground-truth per-tag reflected powers for one announcement."""
    return tag_reflection_power_rows(scenario, agent, identity, [t_s])[0]


def synthesize_traces(scenario: ScenarioConfig, agent: RobotAgent, identity: str,
                      t_s, rng_seeds) -> TraceBatch:
    """Synthesize the received traces of one identity, one row per announcement.

    Row k is announced at t_s[k] and drawn from its own generator, seeded
    with rng_seeds[k].  Layout: an ambient-only guard prefix of random
    length (one to three code spans), the backscattered region (all tags
    keyed on/off by the shared code, one contiguous block per tag), and an
    ambient-only suffix filling the trace to five code spans.  Additive
    white Gaussian noise is scaled to scenario.snr_db relative to the
    strongest tag reflection of the row; snr_db = None disables it.
    """
    t_s = np.asarray(t_s, dtype=np.float64)
    seeds = [int(s) for s in rng_seeds]
    if t_s.ndim != 1 or len(seeds) != t_s.size:
        raise ShapeError(f"need one seed per announcement time, got {len(seeds)} "
                         f"seeds for times of shape {t_s.shape}")
    powers = tag_reflection_power_rows(scenario, agent, identity, t_s)
    code = alternating_code(scenario.code_bits)
    spb = scenario.samples_per_bit
    code_span = scenario.code_bits * spb
    total = TRACE_SPANS * code_span
    n = t_s.size

    # tag number (1..K) and on/off keying of every sample of the region
    tag_of = _tag_layout(scenario.code_bits, spb, scenario.tag_layout.n_tags,
                         total)[total:total + code_span]
    on = np.repeat(code, spb).astype(np.float64)
    region = scenario.ambient_w + powers[:, tag_of - 1] * on

    rngs = [np.random.default_rng(seed) for seed in seeds]
    # each start is drawn before that row's noise, so the layout is
    # reproducible on its own
    starts = np.array([rng.integers(MIN_GUARD_SPANS * code_span,
                                    (TRACE_SPANS - 2 * MIN_GUARD_SPANS) * code_span + 1)
                       for rng in rngs], dtype=np.intp)
    samples = np.full((n, total), scenario.ambient_w, dtype=np.float64)
    samples[np.arange(n)[:, None], starts[:, None] + np.arange(code_span)] = region
    if scenario.snr_db is not None:
        sigma = powers.max(axis=1) * 10.0 ** (-scenario.snr_db / 20.0)
        # the draws of rng.normal(0.0, row_sigma, total), which adds 0.0 to
        # each, changing at most the sign of a zero, and the sum below
        # drops that sign since every sample is positive
        for row, rng, row_sigma in zip(samples, rngs, sigma):
            if row_sigma > 0:
                row += rng.standard_normal(total) * row_sigma
    np.maximum(samples, 0.0, out=samples)
    for arr in (samples, starts, t_s):
        arr.flags.writeable = False
    # finite and nonnegative by construction from a validated config
    return prevalidated(
        TraceBatch, identity=identity, true_source_id=agent.true_source_id,
        t_s=t_s, sample_rate_hz=scenario.sample_rate_hz, samples=samples,
        tag_code=code, samples_per_bit=spb, n_tags=scenario.tag_layout.n_tags,
        region_starts=starts)


def synthesize_trace(scenario: ScenarioConfig, agent: RobotAgent, identity: str,
                     t_s: float, rng_seed: int) -> ReceivedTrace:
    """Synthesize the received trace for one identity announcement."""
    return synthesize_traces(scenario, agent, identity, [t_s], [rng_seed])[0]


def trace_seeds(master_seed: int, n_identities: int, n_periods: int) -> np.ndarray:
    """Independent per-trace integer seeds derived from one master seed."""
    ss = np.random.SeedSequence(master_seed)
    n = max(n_identities * n_periods, 1)
    return ss.generate_state(n, dtype=np.uint64)


def simulate_scenario(scenario: ScenarioConfig, rng_seed: int) -> ScenarioRun:
    """Run one scenario: one trace per claimed identity per update period.

    Identities transmit in fixed slots within each period (slot_spacing_s
    apart, declaration order) so that announcements are distinct events in
    time.  Bit-identical output for identical (scenario, rng_seed).
    """
    identities = scenario.identities
    n_periods = scenario.n_periods
    if identities:
        if (len(identities) - 1) * scenario.slot_spacing_s >= scenario.period_s:
            raise ConfigError(
                f"{len(identities)} identity slots at {scenario.slot_spacing_s} s "
                f"spacing do not fit inside one {scenario.period_s} s period")
        trajs = [scenario.receiver_trajectory] + [a.trajectory for a in scenario.agents]
        for traj in trajs:
            if traj.t_min > 0.0 or traj.t_max < scenario.horizon_s:
                raise ConfigError(
                    f"trajectory spans [{traj.t_min}, {traj.t_max}] but must cover "
                    f"the scenario horizon [0, {scenario.horizon_s}]")

    seeds = trace_seeds(rng_seed, len(identities), n_periods)
    period_starts = np.arange(n_periods) * scenario.period_s
    traces = {}
    for id_idx, ident in enumerate(identities):
        traces[ident] = synthesize_traces(
            scenario, scenario.agent_of(ident), ident,
            period_starts + id_idx * scenario.slot_spacing_s,
            seeds[id_idx * n_periods:(id_idx + 1) * n_periods])
    return ScenarioRun(
        traces=traces,
        true_sources=scenario.true_sources(),
        seed=int(rng_seed),
    )
