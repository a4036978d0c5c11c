"""Shared fixtures: small deterministic scenarios that run in milliseconds.

Agents are parked (dwell trajectories) unless a test needs motion, which
keeps the geometry exact and the traces cheap to synthesize.
"""

import numpy as np
import pytest

from sybilscatter import (
    ChannelParams,
    LabeledDataset,
    ReceivedTrace,
    RobotAgent,
    ScenarioConfig,
    TagLayout,
    Trajectory,
    simulate_scenario,
)


def parked(x, y, horizon_s, speed_mps=0.2):
    """Stationary trajectory covering [0, horizon_s]."""
    waypoints = np.array([(0.0, x, y), (horizon_s + 1.0, x, y)])
    return Trajectory(waypoints=waypoints, speed_mps=speed_mps)


def make_scenario(agent_specs, horizon_s=6.0, n_tags=4, snr_db=20.0,
                  ambient_w=1e-6, rx_xy=(0.05, 0.0), **kwargs):
    """ScenarioConfig from ((source, identities, xy, alphas), ...) tuples."""
    agents = []
    for source, identities, xy, alphas in agent_specs:
        agents.append(RobotAgent(
            true_source_id=source,
            claimed_identities=identities,
            trajectory=parked(xy[0], xy[1], horizon_s),
            base_tx_power_w=3.0,
            power_scale_per_identity=alphas or {},
        ))
    return ScenarioConfig(
        channel=ChannelParams(),
        tag_layout=TagLayout.regular_ring(n_tags),
        receiver_trajectory=parked(rx_xy[0], rx_xy[1], horizon_s),
        agents=tuple(agents),
        horizon_s=horizon_s,
        snr_db=snr_db,
        ambient_w=ambient_w,
        **kwargs,
    )


def labeled_dataset(rows, sources):
    """LabeledDataset from (scenario key, window, from, to, label, distances) rows.

    A scalar distance is a one-entry vector.
    """
    codes = {}
    names = sorted({name for _, _, i, j, _, _ in rows for name in (i, j)})
    X = np.array([np.atleast_1d(values) for *_, values in rows], dtype=np.float64)
    return LabeledDataset(
        X=X, y=[label for *_, label, _ in rows],
        scenario=[codes.setdefault(key, len(codes)) for key, *_ in rows],
        window=[window for _, window, *_ in rows],
        from_id=[names.index(i) for _, _, i, *_ in rows],
        to_id=[names.index(j) for _, _, _, j, *_ in rows],
        keys=tuple(codes), identities=tuple(names), sources=sources)


# the message of the tag schedule rule of ReceivedTrace
SCHEDULE_RULE = r"tag_schedule does not follow the layout: the rule is a row of zeros"


def trace_stream(traces):
    """The traces of one identity as one stream, a 2-D ReceivedTrace, built
    by the validated constructor as a caller with its own arrays would
    build it."""
    first = traces[0]
    return ReceivedTrace(
        identity=first.identity, true_source_id=first.true_source_id,
        t_s=[t.t_s for t in traces], sample_rate_hz=first.sample_rate_hz,
        samples=np.stack([t.samples for t in traces]),
        tag_schedule=np.stack([t.tag_schedule for t in traces]),
        tag_code=first.tag_code, samples_per_bit=first.samples_per_bit,
        n_tags=first.n_tags)


FOUR_ID_SPECS = (
    ("robotA", ("n0", "n1"), (1.0, 0.3), None),
    ("robotB", ("n2",), (-0.9, 0.5), None),
    ("robotC", ("n3",), (0.2, -1.1), None),
)


@pytest.fixture(scope="session")
def four_identity_scenario():
    """One attacker with 2 identities plus 2 legitimate robots, 10 periods."""
    return make_scenario(FOUR_ID_SPECS)


@pytest.fixture(scope="session")
def four_identity_run(four_identity_scenario):
    return simulate_scenario(four_identity_scenario, 42)
