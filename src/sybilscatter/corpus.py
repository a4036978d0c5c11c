"""Deterministic scenario corpora for the evaluation experiments.

Builds families of desk-scale scenarios around a stationary tag-ring
receiver: transmitter robots walk random waypoint paths in an annulus
around it, one or two of them announce extra identities (optionally with
per-identity transmit power scaling), and a fraction of the scenarios
additionally contain a "hard pair" of distinct robots whose signatures are
deliberately close.  Two hard-pair styles exist:

- "parallel": the companion walks the same path offset radially outward by
  a fraction of a meter, so both see the tag array from nearly the same
  direction.
- "mirror": the companion walks the base path reflected across the tag
  array's first axis.  For a 2-tag array both tags sit on that axis, so
  the mirrored robot produces exactly the same tag distances and is
  indistinguishable in principle; arrays with off-axis tags break the tie.
- "colocated": both robots walk independent paths confined to the same
  narrow bearing sector.  Their average signatures nearly coincide while
  their motion patterns stay uncorrelated, which separates metrics that
  only compare absolute signature directions from ones that compare the
  variation around the profile mean.

Geometry keeps every path segment well clear of the receiver and its tags:
waypoint radii, angular step bounds, and the hard-pair sector constraint
together bound the closest approach of any chord to about half a meter,
while the receiver (plus its 12 cm tag ring) stays within 0.37 m of the
origin.  That in turn keeps the weakest trace comfortably above the
segmentation floor even at the lowest power scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError
from .scenario import (
    DEFAULT_AMBIENT_W,
    DEFAULT_CODE_BITS,
    DEFAULT_PERIOD_S,
    DEFAULT_RING_RADIUS_M,
    DEFAULT_SAMPLE_RATE_HZ,
    DEFAULT_SAMPLES_PER_BIT,
    DEFAULT_SNR_DB,
    DEFAULT_SPEED_MPS,
    DEFAULT_TAG_TRANSFER,
    DEFAULT_TX_POWER_W,
    ChannelParams,
    RobotAgent,
    ScenarioConfig,
    TagLayout,
    Trajectory,
    check_layout,
)

RX_DISK_RADIUS_M = 0.25
AGENT_RADIUS_M = (0.7, 1.8)
HARD_PAIR_MIN_RADIUS_M = 0.6
ANGLE_STEP_RAD = (math.radians(15.0), math.radians(70.0))
HARD_PAIR_SECTOR_HALF_RAD = math.radians(60.0)
# mirror pairs: receiver stays close to the mirror axis and the base walk
# keeps a bearing margin from it, so the reflected twin is well separated
# in angle for arrays with off-axis tags
MIRROR_RX_BAND_M = 0.05
MIRROR_SECTOR_JITTER_RAD = math.radians(5.0)
HARD_PAIR_STYLES = ("parallel", "mirror", "colocated")

# Rotation of scenario shapes: (identities per attacker, ...), legit count.
# Chosen so roughly a fifth of all directed identity pairs are positive.
SCENARIO_PATTERNS = (
    ((3,), 2),
    ((2,), 3),
    ((4,), 3),
    ((2, 2), 2),
)


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs for one corpus; every field has a desk-scale default."""

    n_scenarios: int = 20
    n_tags: int = 4
    horizon_s: float = 60.0
    period_s: float = DEFAULT_PERIOD_S
    snr_db: float | None = DEFAULT_SNR_DB
    power_scaling: bool = True
    alpha_low: float = 0.25
    alpha_high: float = 4.0
    hard_pair_fraction: float = 0.5
    hard_pair_style: str = "parallel"
    hard_offset_low: float = 0.25
    hard_offset_high: float = 0.5
    colocated_half_deg: float = 8.0
    speed_mps: float = DEFAULT_SPEED_MPS
    base_tx_power_w: float = DEFAULT_TX_POWER_W
    ring_radius_m: float = DEFAULT_RING_RADIUS_M
    tag_transfer: float = DEFAULT_TAG_TRANSFER
    ambient_w: float = DEFAULT_AMBIENT_W
    code_bits: int = DEFAULT_CODE_BITS
    samples_per_bit: int = DEFAULT_SAMPLES_PER_BIT
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ParameterError(f"n_scenarios must be >= 1, got {self.n_scenarios}")
        if self.n_tags < 2:
            raise ParameterError(f"n_tags must be >= 2, got {self.n_tags}")
        check_layout(self.code_bits, self.samples_per_bit, self.n_tags)
        if not (0.0 < self.alpha_low <= self.alpha_high):
            raise ParameterError(
                f"alpha range must satisfy 0 < low <= high, got "
                f"[{self.alpha_low}, {self.alpha_high}]")
        if not (0.0 <= self.hard_pair_fraction <= 1.0):
            raise ParameterError("hard_pair_fraction must lie in [0, 1]")
        if self.hard_pair_style not in HARD_PAIR_STYLES:
            raise ParameterError(
                f"hard_pair_style must be one of {HARD_PAIR_STYLES}, "
                f"got {self.hard_pair_style!r}")
        if not (0.0 < self.hard_offset_low <= self.hard_offset_high):
            raise ParameterError("hard pair offsets must satisfy 0 < low <= high")
        if not (0.0 < math.radians(self.colocated_half_deg)
                <= HARD_PAIR_SECTOR_HALF_RAD):
            raise ParameterError(
                "colocated_half_deg must lie in (0, "
                f"{math.degrees(HARD_PAIR_SECTOR_HALF_RAD):.0f}]")


def _annulus_point(rng, r_lo, r_hi, theta):
    r = math.sqrt(rng.uniform(r_lo * r_lo, r_hi * r_hi))
    return r, np.array([r * math.cos(theta), r * math.sin(theta)])


def _walk_points(rng, spec: CorpusSpec, sector_center=None, sector_half=None):
    """Random annulus walk long enough to cover the horizon at fixed speed.

    Angular steps are bounded so no segment chord cuts near the origin;
    with sector_center set, headings fold back at the sector edges so every
    waypoint stays within the sector half-width of the center angle.
    """
    need = spec.horizon_s * spec.speed_mps * 1.05
    r_lo, r_hi = AGENT_RADIUS_M
    half = HARD_PAIR_SECTOR_HALF_RAD if sector_half is None else sector_half
    if sector_center is None:
        theta = rng.uniform(0.0, 2.0 * math.pi)
    else:
        theta = sector_center + rng.uniform(-0.5, 0.5) * half
    _, point = _annulus_point(rng, r_lo, r_hi, theta)
    points = [point]
    total = 0.0
    while total < need:
        step = rng.uniform(*ANGLE_STEP_RAD) * (1.0 if rng.random() < 0.5 else -1.0)
        if sector_center is None:
            theta = theta + step
        else:
            # billiard fold at the sector edges; the folded angle never
            # moves further than the raw step, so the chord-clearance
            # bound still holds
            rel = theta - sector_center + step
            while not (-half <= rel <= half):
                rel = 2.0 * half - rel if rel > half else -2.0 * half - rel
            theta = sector_center + rel
        _, nxt = _annulus_point(rng, r_lo, r_hi, theta)
        total += float(np.hypot(*(nxt - points[-1])))
        points.append(nxt)
        if len(points) > 1000:
            raise ConfigError("walk generation failed to cover the horizon")
    return np.vstack(points)


def _parallel_pair_paths(rng, spec: CorpusSpec):
    """Two parallel paths a fixed offset apart, confined to one sector.

    The offset points radially out of the sector center, so the companion
    path keeps at least the base path's distance from the origin.
    """
    center = rng.uniform(0.0, 2.0 * math.pi)
    base = _walk_points(rng, spec, sector_center=center)
    magnitude = rng.uniform(spec.hard_offset_low, spec.hard_offset_high)
    direction = np.array([math.cos(center), math.sin(center)])
    companion = base + magnitude * direction
    if np.any(np.hypot(companion[:, 0], companion[:, 1]) < HARD_PAIR_MIN_RADIUS_M):
        raise ConfigError("hard pair companion path entered the exclusion zone")
    return base, companion


def _mirror_pair_paths(rng, spec: CorpusSpec, rx_xy):
    """Base walk plus its reflection across the tag axis through the receiver.

    The base walk is confined to a sector perpendicular to the axis, so the
    twin stays at least ~40 degrees away in bearing; the reflection is an
    isometry, so segment lengths (and hence waypoint times) match exactly.
    """
    side = 1.0 if rng.random() < 0.5 else -1.0
    center = side * (0.5 * math.pi
                     + rng.uniform(-1.0, 1.0) * MIRROR_SECTOR_JITTER_RAD)
    base = _walk_points(rng, spec, sector_center=center)
    companion = np.column_stack([base[:, 0], 2.0 * rx_xy[1] - base[:, 1]])
    # mirroring preserves distance to the receiver, so this can only fire
    # if the base walk itself were malformed
    clear = np.hypot(companion[:, 0] - rx_xy[0], companion[:, 1] - rx_xy[1])
    if np.any(clear < HARD_PAIR_MIN_RADIUS_M - RX_DISK_RADIUS_M):
        raise ConfigError("mirror twin path entered the exclusion zone")
    return base, companion


def _colocated_pair_paths(rng, spec: CorpusSpec):
    """Two independent walks confined to one narrow bearing sector."""
    center = rng.uniform(0.0, 2.0 * math.pi)
    half = math.radians(spec.colocated_half_deg)
    base = _walk_points(rng, spec, sector_center=center, sector_half=half)
    companion = _walk_points(rng, spec, sector_center=center, sector_half=half)
    return base, companion


def _stationary_receiver(rng, spec: CorpusSpec, y_band=None) -> Trajectory:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    r = RX_DISK_RADIUS_M * math.sqrt(rng.random())
    x, y = r * math.cos(theta), r * math.sin(theta)
    if y_band is not None:
        y = rng.uniform(-y_band, y_band)
    waypoints = [(0.0, x, y), (spec.horizon_s + 1.0, x, y)]
    return Trajectory(waypoints=np.array(waypoints), speed_mps=spec.speed_mps)


def _agent_trajectory(points, spec: CorpusSpec) -> Trajectory:
    traj = Trajectory.from_path(points, spec.speed_mps)
    if traj.t_max < spec.horizon_s:
        # float slack from the 5% length margin should make this unreachable
        raise ConfigError("generated path does not cover the horizon")
    return traj


def scenario_pattern(index: int):
    """Attacker/legit mix for the index-th scenario of a corpus."""
    return SCENARIO_PATTERNS[index % len(SCENARIO_PATTERNS)]


def build_scenario(spec: CorpusSpec, index: int, geom_seed, alpha_seed) -> ScenarioConfig:
    """One scenario of the corpus rotation, fully determined by its seeds.

    Geometry and power scales come from separate RNG streams so that two
    corpora differing only in power_scaling share identical trajectories.
    """
    geom_rng = np.random.default_rng(geom_seed)
    alpha_rng = np.random.default_rng(alpha_seed)
    attacker_sizes, n_legit = scenario_pattern(index)
    n_agents = len(attacker_sizes) + n_legit

    mirror = spec.hard_pair_style == "mirror"
    receiver = _stationary_receiver(
        geom_rng, spec, y_band=MIRROR_RX_BAND_M if mirror else None)
    rx_xy = receiver.waypoints[0, 1:3]

    paths = [None] * n_agents
    if n_agents >= 2 and geom_rng.random() < spec.hard_pair_fraction:
        first, second = geom_rng.choice(n_agents, size=2, replace=False)
        if mirror:
            pair = _mirror_pair_paths(geom_rng, spec, rx_xy)
        elif spec.hard_pair_style == "colocated":
            pair = _colocated_pair_paths(geom_rng, spec)
        else:
            pair = _parallel_pair_paths(geom_rng, spec)
        paths[int(first)], paths[int(second)] = pair
    for i in range(n_agents):
        if paths[i] is None:
            paths[i] = _walk_points(geom_rng, spec)

    agents = []
    node = 0
    for agent_idx in range(n_agents):
        source = f"robot{agent_idx}"
        n_ids = attacker_sizes[agent_idx] if agent_idx < len(attacker_sizes) else 1
        identities = tuple(f"node{node + j:02d}" for j in range(n_ids))
        node += n_ids
        scale = {}
        if n_ids > 1 and spec.power_scaling:
            lo, hi = math.log(spec.alpha_low), math.log(spec.alpha_high)
            scale = {ident: float(math.exp(alpha_rng.uniform(lo, hi)))
                     for ident in identities}
        agents.append(RobotAgent(
            true_source_id=source,
            claimed_identities=identities,
            trajectory=_agent_trajectory(paths[agent_idx], spec),
            base_tx_power_w=spec.base_tx_power_w,
            power_scale_per_identity=scale,
        ))

    return ScenarioConfig(
        channel=ChannelParams(tag_transfer=spec.tag_transfer),
        tag_layout=TagLayout.regular_ring(spec.n_tags, spec.ring_radius_m),
        receiver_trajectory=receiver,
        agents=tuple(agents),
        horizon_s=spec.horizon_s,
        period_s=spec.period_s,
        code_bits=spec.code_bits,
        samples_per_bit=spec.samples_per_bit,
        sample_rate_hz=spec.sample_rate_hz,
        ambient_w=spec.ambient_w,
        snr_db=spec.snr_db,
    )


def build_corpus(spec: CorpusSpec, master_seed: int):
    """All scenarios of a corpus plus their simulation seeds.

    Returns (configs, seeds), aligned lists.  Every randomness source is
    derived from master_seed, so the corpus is a pure function of
    (spec, master_seed).
    """
    root = np.random.SeedSequence(master_seed)
    configs = []
    seeds = []
    for index, child in enumerate(root.spawn(spec.n_scenarios)):
        geom_ss, alpha_ss, sim_ss = child.spawn(3)
        configs.append(build_scenario(spec, index, geom_ss, alpha_ss))
        seeds.append(int(sim_ss.generate_state(1, np.uint64)[0]))
    return configs, seeds
