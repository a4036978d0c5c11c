"""Anatomy of a single backscatter trace.

One parked robot announces identity "n0" near a 4-tag receiver ring.  The
synthesizer emits the received magnitude trace for that announcement; this
script walks the detection front end over it step by step: locate the
backscattered region, estimate the per-tag reflected powers, normalize
them into the multipath signature, and compare against the geometric
ground truth.
"""

import numpy as np

from sybilscatter import (
    ChannelParams,
    RobotAgent,
    ScenarioConfig,
    TagLayout,
    Trajectory,
    build_signature,
    segment_backscatter,
    synthesize_trace,
    tag_reflection_powers,
)


def parked(x, y, horizon_s):
    return Trajectory(waypoints=np.array([(0.0, x, y), (horizon_s + 1.0, x, y)]),
                      speed_mps=0.2)


HORIZON_S = 6.0

robot = RobotAgent(
    true_source_id="robotA",
    claimed_identities=("n0",),
    trajectory=parked(1.0, 0.4, HORIZON_S),
    base_tx_power_w=3.0,
)
config = ScenarioConfig(
    channel=ChannelParams(),
    tag_layout=TagLayout.regular_ring(4),
    receiver_trajectory=parked(0.05, 0.0, HORIZON_S),
    agents=(robot,),
    horizon_s=HORIZON_S,
    snr_db=20.0,
)

trace = synthesize_trace(config, robot, "n0", t_s=0.0, rng_seed=7)
print(f"trace: {trace.samples.size} samples at {trace.sample_rate_hz:.0f} Hz, "
      f"{trace.tag_code.size}-bit code x {trace.samples_per_bit} samples/bit")
print(f"ambient floor {config.ambient_w:.1e} W, SNR {config.snr_db:.0f} dB\n")

# The guard regions carry only ambient noise; the code region carries the
# tag-modulated reflections on top of it.
bounds = segment_backscatter(trace)
truth_start = int(trace.region_starts)
print(f"segmentation: code region found at [{bounds.t_start}, {bounds.t_end})")
print(f"generator scheduled it at       [{truth_start}, {truth_start + trace.code_span})\n")

signature = build_signature(trace, bounds)
truth = tag_reflection_powers(config, robot, "n0", t_s=0.0)

print("tag   estimated W    true W         rel err")
for k, (est, ref) in enumerate(zip(signature.raw, truth), start=1):
    print(f"  {k}   {est:.4e}  {ref:.4e}  {abs(est - ref) / ref:8.2e}")

print(f"\nnormalized signature: {np.array2string(signature.normalized, precision=4)}")
print(f"unit norm check: |s| = {np.linalg.norm(signature.normalized):.12f}")
