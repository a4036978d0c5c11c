"""Scenario synthesis: channel budget, trajectories, traces, determinism."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sybilscatter import (
    ChannelParams,
    ConfigError,
    CorpusSpec,
    GeometryError,
    IdentityError,
    ParameterError,
    ReceivedTrace,
    RobotAgent,
    ScenarioConfig,
    TagLayout,
    Trajectory,
    TrajectoryError,
    TrajectoryRangeError,
    alternating_code,
    simulate_scenario,
    synthesize_trace,
    tag_block_bit_spans,
    tag_reflection_powers,
    trace_seeds,
)

from conftest import FOUR_ID_SPECS, SCHEDULE_RULE, make_scenario, parked
from sybilscatter.fileio import TRACE_HEADER, read_trace_csv
from sybilscatter.scenario import _tag_layout, positions_at, reflected_powers

# Hand-evaluated reflection budget, pinned before the implementation:
# P_t=1, G_t=G_r=1, lam=0.125, d_t=2, d_r=0.12, transfer=1.
FRIIS_FIXTURE = 1.3669982246059626e-04


class TestReflectedPower:
    def test_pinned_fixture(self):
        channel = ChannelParams(wavelength_m=0.125, tx_gain=1.0, rx_gain=1.0,
                                tag_transfer=1.0)
        assert reflected_powers(channel, 1.0, 2.0, 0.12) == FRIIS_FIXTURE

    def test_linear_in_tx_power(self):
        channel = ChannelParams()
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(0.1, 10.0)
            d_t, d_r = rng.uniform(0.5, 3.0, 8), rng.uniform(0.05, 0.3, 8)
            np.testing.assert_array_equal(reflected_powers(channel, 2.0 * p, d_t, d_r),
                                          2.0 * reflected_powers(channel, p, d_t, d_r))

    def test_inverse_square_in_tag_distance(self):
        channel = ChannelParams()
        d_t = np.random.default_rng(1).uniform(0.5, 3.0, 50)
        np.testing.assert_array_equal(reflected_powers(channel, 1.0, d_t, 0.12),
                                      4.0 * reflected_powers(channel, 1.0, 2.0 * d_t, 0.12))

    def test_strictly_decreasing_in_both_distances(self):
        channel = ChannelParams()
        base = reflected_powers(channel, 1.0, 1.0, 0.1)
        assert np.all(reflected_powers(channel, 1.0, [1.3, 1.0], [0.1, 0.13]) < base)

    def test_rejects_nonpositive_inputs(self):
        channel = ChannelParams()
        with pytest.raises(ParameterError):
            reflected_powers(channel, 0.0, 1.0, 0.1)
        with pytest.raises(ParameterError, match="d_t_m"):
            reflected_powers(channel, 1.0, [1.0, -1.0], 0.1)
        with pytest.raises(ParameterError, match="d_r_m"):
            reflected_powers(channel, 1.0, 1.0, [0.1, 0.0])


class TestChannelParams:
    def test_zero_transfer_allowed(self):
        assert ChannelParams(tag_transfer=0.0).tag_transfer == 0.0

    def test_negative_transfer_rejected(self):
        with pytest.raises(ParameterError):
            ChannelParams(tag_transfer=-0.1)

    def test_other_fields_strictly_positive(self):
        with pytest.raises(ParameterError):
            ChannelParams(wavelength_m=0.0)
        with pytest.raises(ParameterError):
            ChannelParams(rx_gain=-1.0)


class TestTagLayout:
    def test_regular_ring_geometry(self):
        layout = TagLayout.regular_ring(4, 0.12)
        assert layout.n_tags == 4
        np.testing.assert_allclose(layout.tag_ranges_m, 0.12, rtol=0, atol=1e-15)
        # first tag on the +x axis
        np.testing.assert_allclose(layout.tag_positions[0], [0.12, 0.0], atol=1e-15)

    def test_two_tag_ring_lies_on_x_axis(self):
        layout = TagLayout.regular_ring(2, 0.12)
        np.testing.assert_allclose(layout.tag_positions[:, 1], 0.0, atol=1e-15)

    def test_off_ring_position_rejected(self):
        pos = np.array([[0.12, 0.0], [0.0, 0.125]])  # 5 mm off nominal
        with pytest.raises(GeometryError):
            TagLayout(tag_positions=pos, ring_radius_m=0.12)

    def test_needs_two_tags(self):
        with pytest.raises(GeometryError):
            TagLayout.regular_ring(1)

    def test_positions_read_only(self):
        layout = TagLayout.regular_ring(3)
        with pytest.raises(ValueError):
            layout.tag_positions[0, 0] = 9.9


class TestTrajectory:
    def test_position_at_waypoint(self):
        traj = Trajectory(waypoints=np.array([(0.0, 0.0, 0.0), (5.0, 1.0, 0.0)]),
                          speed_mps=0.2)
        np.testing.assert_array_equal(positions_at(traj, [0.0, 5.0]), [[0.0, 0.0], [1.0, 0.0]])

    def test_position_at_midpoint(self):
        traj = Trajectory(waypoints=np.array([(0.0, 0.0, 2.0), (5.0, 1.0, 0.0)]),
                          speed_mps=np.hypot(1.0, 2.0) / 5.0)
        np.testing.assert_array_equal(positions_at(traj, [2.5]), [[0.5, 1.0]])

    def test_position_at_matches_reinterpolation(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = rng.integers(2, 8)
            times = np.cumsum(rng.uniform(0.5, 2.0, n))
            pts = rng.uniform(-2, 2, (n, 2))
            seg = np.hypot(*np.diff(pts, axis=0).T)
            dt = np.diff(times)
            moving = seg > 0
            speed = float((seg[moving] / dt[moving]).mean()) if moving.any() else 0.2
            # resample times so every segment runs at exactly that speed
            times = np.concatenate([[0.0], np.cumsum(seg / speed)])
            traj = Trajectory(waypoints=np.column_stack([times, pts]), speed_mps=speed)
            ts = rng.uniform(times[0], times[-1], 10)
            k = np.minimum(np.searchsorted(times, ts, side="right") - 1, n - 2)
            frac = (ts - times[k]) / (times[k + 1] - times[k])
            expected = pts[k] + frac[:, None] * (pts[k + 1] - pts[k])
            np.testing.assert_allclose(positions_at(traj, ts), expected, rtol=0, atol=1e-12)

    def test_query_outside_span_rejected(self):
        traj = parked(0.0, 0.0, 5.0)
        with pytest.raises(TrajectoryRangeError, match="-0.1"):
            positions_at(traj, [0.0, -0.1])
        with pytest.raises(TrajectoryRangeError, match="6.1"):
            positions_at(traj, [6.1, 1.0])

    def test_speed_deviation_rejected(self):
        wp = np.array([(0.0, 0.0, 0.0), (1.0, 0.3, 0.0)])  # 0.3 m/s segment
        with pytest.raises(TrajectoryError):
            Trajectory(waypoints=wp, speed_mps=0.2)

    def test_dwell_segments_exempt_from_speed_check(self):
        wp = np.array([(0.0, 1.0, 1.0), (7.0, 1.0, 1.0)])
        traj = Trajectory(waypoints=wp, speed_mps=0.2)
        np.testing.assert_array_equal(positions_at(traj, [3.0]), [[1.0, 1.0]])

    def test_times_must_increase(self):
        wp = np.array([(0.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
        with pytest.raises(TrajectoryError):
            Trajectory(waypoints=wp, speed_mps=0.2)

    def test_from_path_cumulative_times(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)]
        traj = Trajectory.from_path(pts, speed_mps=0.5)
        np.testing.assert_allclose(traj.waypoints[:, 0], [0.0, 2.0, 6.0])

    def test_from_path_dwell_padding(self):
        traj = Trajectory.from_path([(0.0, 0.0), (1.0, 0.0)], 0.5, dwell_s=4.0)
        assert traj.t_max == 6.0
        np.testing.assert_array_equal(positions_at(traj, [5.0]), [[1.0, 0.0]])


class TestRobotAgent:
    def test_attacker_flag(self):
        legit = RobotAgent("r", ("a",), parked(1, 1, 5), 3.0)
        attacker = RobotAgent("r", ("a", "b"), parked(1, 1, 5), 3.0)
        assert not legit.is_attacker
        assert attacker.is_attacker

    def test_alpha_defaults_to_one(self):
        agent = RobotAgent("r", ("a", "b"), parked(1, 1, 5), 3.0, {"b": 2.0})
        assert agent.alpha_for("a") == 1.0
        assert agent.alpha_for("b") == 2.0

    def test_duplicate_identity_rejected(self):
        with pytest.raises(IdentityError):
            RobotAgent("r", ("a", "a"), parked(1, 1, 5), 3.0)

    def test_alpha_for_unclaimed_identity_rejected(self):
        with pytest.raises(IdentityError):
            RobotAgent("r", ("a", "b"), parked(1, 1, 5), 3.0, {"c": 2.0})

    def test_legit_agent_must_transmit_at_unit_alpha(self):
        with pytest.raises(IdentityError):
            RobotAgent("r", ("a",), parked(1, 1, 5), 3.0, {"a": 2.0})

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(IdentityError):
            RobotAgent("r", ("a", "b"), parked(1, 1, 5), 3.0, {"b": 0.0})


class TestCodeAndSpans:
    def test_alternating_code(self):
        np.testing.assert_array_equal(alternating_code(6), [1, 0, 1, 0, 1, 0])

    def test_code_needs_two_bits(self):
        with pytest.raises(ParameterError):
            alternating_code(1)

    def test_even_split(self):
        assert tag_block_bit_spans(64, 4) == [(0, 16), (16, 32), (32, 48), (48, 64)]

    def test_uneven_split_longer_spans_first(self):
        assert tag_block_bit_spans(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_every_tag_needs_two_bits(self):
        with pytest.raises(ParameterError):
            tag_block_bit_spans(7, 4)

    def test_spans_partition_the_code(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            bits = int(rng.integers(2 * k, 100))
            spans = tag_block_bit_spans(bits, k)
            assert spans[0][0] == 0 and spans[-1][1] == bits
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


class TestSynthesizeTrace:
    def _one_agent(self, **kwargs):
        config = make_scenario((("r0", ("n0",), (1.0, 0.4), None),), **kwargs)
        return config, config.agents[0]

    def test_layout_and_keying_noise_free(self):
        config, agent = self._one_agent(snr_db=None)
        trace = synthesize_trace(config, agent, "n0", 0.0, rng_seed=5)
        span = config.code_bits * config.samples_per_bit
        assert trace.samples.size == 5 * span
        start = int(trace.region_starts)
        assert span <= start <= 3 * span
        # guards are ambient only
        assert np.all(trace.samples[:start] == config.ambient_w)
        assert np.all(trace.samples[start + span:] == config.ambient_w)
        # each tag block is keyed by the shared code on top of the ambient
        powers = tag_reflection_powers(config, agent, "n0", 0.0)
        region = trace.samples[start:start + span]
        schedule = trace.tag_schedule[start:start + span]
        on = np.repeat(trace.tag_code, config.samples_per_bit).astype(bool)
        for tag in range(config.tag_layout.n_tags):
            block = schedule == tag + 1
            np.testing.assert_array_equal(
                region[block & on], config.ambient_w + powers[tag])
            np.testing.assert_array_equal(region[block & ~on], config.ambient_w)

    def test_zero_transfer_gives_ambient_only(self):
        config, agent = self._one_agent(snr_db=None)
        config = ScenarioConfig(
            channel=ChannelParams(tag_transfer=0.0),
            tag_layout=config.tag_layout,
            receiver_trajectory=config.receiver_trajectory,
            agents=config.agents, horizon_s=config.horizon_s, snr_db=None)
        trace = synthesize_trace(config, agent, "n0", 0.0, rng_seed=5)
        assert np.all(trace.samples == config.ambient_w)

    def test_same_source_same_seed_identical_traces(self):
        config = make_scenario((("rA", ("n0", "n1"), (1.0, 0.3), None),))
        agent = config.agents[0]
        a = synthesize_trace(config, agent, "n0", 0.0, rng_seed=9)
        b = synthesize_trace(config, agent, "n1", 0.0, rng_seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.tag_schedule, b.tag_schedule)

    def test_alpha_scales_reflections(self):
        config = make_scenario(
            (("rA", ("n0", "n1"), (1.0, 0.3), {"n1": 2.0}),), snr_db=None)
        agent = config.agents[0]
        p0 = tag_reflection_powers(config, agent, "n0", 0.0)
        p1 = tag_reflection_powers(config, agent, "n1", 0.0)
        np.testing.assert_array_equal(p1, 2.0 * p0)

    def test_noise_clamped_nonnegative(self):
        config, agent = self._one_agent(snr_db=-3.0)
        trace = synthesize_trace(config, agent, "n0", 0.0, rng_seed=11)
        assert trace.samples.min() >= 0.0

    def test_identity_of_other_agent_rejected(self):
        config = make_scenario(FOUR_ID_SPECS)
        with pytest.raises(IdentityError):
            tag_reflection_powers(config, config.agents[0], "n2", 0.0)

    def test_trace_validation(self):
        code = alternating_code(8)
        good = dict(identity="x", true_source_id="s", t_s=0.0,
                    sample_rate_hz=100.0, tag_code=code, samples_per_bit=5,
                    n_tags=1)
        ReceivedTrace(samples=np.ones(60), tag_schedule=np.zeros(60, dtype=int), **good)
        with pytest.raises(ParameterError, match="nonnegative"):
            ReceivedTrace(samples=-np.ones(60), tag_schedule=np.zeros(60, dtype=int),
                          **good)
        with pytest.raises(ParameterError, match=SCHEDULE_RULE):  # beyond n_tags
            ReceivedTrace(samples=np.ones(60), tag_schedule=np.full(60, 3), **good)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        code = alternating_code(8)
        samples = np.ones(60)
        samples[7] = bad
        with pytest.raises(ParameterError, match="finite"):
            ReceivedTrace(identity="x", true_source_id="s", t_s=0.0,
                          sample_rate_hz=100.0, samples=samples,
                          tag_schedule=np.zeros(60, dtype=int), tag_code=code,
                          samples_per_bit=5, n_tags=1)


# layouts of the alternating code that the 9-tap smoothing mis-segments
REJECTED_SPB = (1, 2, 3, 4)
SPB_RULE = r"mis-segments the alternating code: the rule is samples_per_bit > 4"
CODE_BITS_RULE = r"the rule is code_bits >= 7 n_tags"
CODE_RULE = r"tag_code is not the alternating code: the rule is tag_code = 1, 0, 1, 0"
LENGTH_RULE = r"too short: the rule is at least one code span plus two samples \(three lags\)"


def _trace_fields(spb, code, n_tags=1, n=None):
    n = 5 * max(code.size * spb, 1) if n is None else n
    return dict(identity="x", true_source_id="s", sample_rate_hz=100.0,
                samples=np.ones(n), tag_schedule=np.zeros(n, dtype=np.int16),
                tag_code=code, samples_per_bit=spb, n_tags=n_tags)


class TestSamplesPerBitRule:
    @pytest.mark.parametrize("spb", REJECTED_SPB)
    def test_scenario_config_rejects(self, spb):
        with pytest.raises(ParameterError, match=rf"samples_per_bit {spb} {SPB_RULE}"):
            make_scenario(FOUR_ID_SPECS, samples_per_bit=spb)

    @pytest.mark.parametrize("spb", REJECTED_SPB)
    def test_corpus_spec_rejects(self, spb):
        with pytest.raises(ParameterError, match=rf"samples_per_bit {spb} {SPB_RULE}"):
            CorpusSpec(samples_per_bit=spb)

    @pytest.mark.parametrize("spb", REJECTED_SPB)
    def test_received_trace_rejects(self, spb):
        with pytest.raises(ParameterError, match=rf"samples_per_bit {spb} {SPB_RULE}"):
            ReceivedTrace(t_s=0.0, **_trace_fields(spb, alternating_code(8)))

    @pytest.mark.parametrize("spb", REJECTED_SPB)
    def test_trace_batch_rejects(self, spb):
        # a stream of one row
        fields = _trace_fields(spb, alternating_code(8))
        fields.update(samples=fields["samples"][None], tag_schedule=fields["tag_schedule"][None])
        with pytest.raises(ParameterError, match=rf"samples_per_bit {spb} {SPB_RULE}"):
            ReceivedTrace(t_s=[0.0], **fields)

    @pytest.mark.parametrize("code", [[1, 1, 0, 1, 0, 0, 1, 0], [0, 1] * 4, [1] * 8])
    def test_other_codes_are_rejected(self, code):
        with pytest.raises(ParameterError, match=CODE_RULE):
            ReceivedTrace(t_s=0.0, **_trace_fields(8, np.array(code, dtype=np.uint8)))

    def test_every_other_layout_is_accepted(self):
        for spb in range(5, 17):
            assert make_scenario(FOUR_ID_SPECS, samples_per_bit=spb).samples_per_bit == spb
            assert CorpusSpec(samples_per_bit=spb).samples_per_bit == spb
            ReceivedTrace(t_s=0.0, **_trace_fields(spb, alternating_code(8)))


def _trace_constructors(bits, spb, n_tags, code=None, n=None):
    """Calls of ReceivedTrace on a layout, one trace and a stream of two,
    each raising what the constructor raises."""
    code = 1 - np.arange(bits, dtype=np.uint8) % 2 if code is None else code
    fields = _trace_fields(spb, code, n_tags, n)
    rows = dict(fields, samples=np.stack([fields["samples"]] * 2),
                tag_schedule=np.stack([fields["tag_schedule"]] * 2))
    return [lambda: ReceivedTrace(t_s=0.0, **fields),
            lambda: ReceivedTrace(t_s=[0.0, 1.0], **rows)]


def _config_constructors(bits, spb, n_tags):
    return [lambda: make_scenario(FOUR_ID_SPECS, n_tags=n_tags, code_bits=bits,
                                  samples_per_bit=spb),
            lambda: CorpusSpec(n_tags=n_tags, code_bits=bits, samples_per_bit=spb)]


class TestLayoutRule:
    """check_layout's rules, applied by every constructor a layout enters."""

    @pytest.mark.parametrize("bits,n_tags", [(6, 4), (27, 4), (13, 2)])
    def test_configs_reject_short_codes(self, bits, n_tags):
        for build in _config_constructors(bits, 8, n_tags):
            with pytest.raises(ParameterError, match=rf"code_bits {bits} gives one of "
                                                     rf"{n_tags} tags .*{CODE_BITS_RULE}"):
                build()

    def test_traces_reject_short_codes(self):
        for build in _trace_constructors(4, 8, 3):
            with pytest.raises(ParameterError, match=CODE_BITS_RULE):
                build()

    def test_traces_reject_fewer_samples_than_the_code_spans(self):
        # a 320-sample span needs 322 samples, three lags
        for n in (8, 319, 320, 321):
            for build in _trace_constructors(64, 5, 1, n=n):
                with pytest.raises(ParameterError, match=rf"trace of {n} samples is "
                                                         + LENGTH_RULE + ", 322 samples"):
                    build()
        for build in _trace_constructors(64, 5, 1, n=322):
            build()

    @pytest.mark.parametrize("n", [512, 513])
    def test_stock_layout_rejects_one_and_two_lags(self, n):
        # one and two lags of the stock 64-bit, 8-per-bit code never decode
        for build in _trace_constructors(64, 8, 4, n=n):
            with pytest.raises(ParameterError, match=rf"trace of {n} samples is "
                                                     + LENGTH_RULE + ", 514 samples"):
                build()

    def test_stock_layout_accepts_three_lags(self):
        for build in _trace_constructors(64, 8, 4, n=514):
            assert build().samples.shape[-1] == 514

    def test_traces_reject_no_tags(self):
        for build in _trace_constructors(8, 8, 0):
            with pytest.raises(ParameterError, match="n_tags must be >= 1"):
                build()

    @settings(max_examples=80, deadline=None)
    @given(bits=st.integers(0, 64), spb=st.integers(-2, 16), n_tags=st.integers(2, 8))
    def test_every_rejected_layout_names_its_rule(self, bits, spb, n_tags):
        short_code = bits < 7 * n_tags
        assume(short_code or spb <= 4)
        rule = CODE_BITS_RULE if short_code else SPB_RULE
        builds = _trace_constructors(bits, spb, n_tags) + _config_constructors(bits, spb,
                                                                                n_tags)
        for build in builds:
            with pytest.raises(ParameterError, match=rule):
                build()

    @settings(max_examples=40, deadline=None)
    @given(bits=st.integers(7, 64), spb=st.integers(5, 16), data=st.data())
    def test_traces_name_the_code_and_length_rules(self, bits, spb, data):
        code = 1 - np.arange(bits, dtype=np.uint8) % 2
        flip = data.draw(st.integers(0, bits - 1))
        code[flip] ^= 1
        for build in _trace_constructors(bits, spb, 1, code=code):
            with pytest.raises(ParameterError, match=CODE_RULE):
                build()
        short = data.draw(st.integers(0, bits * spb + 1))
        for build in _trace_constructors(bits, spb, 1, n=short):
            with pytest.raises(ParameterError, match=LENGTH_RULE):
                build()


# the stock layout: 4 tags over 64 bits of 8 samples, a 2,560-sample trace
STOCK = 2560
REGION = 700  # the region start of the malformed schedules below


def _stock_schedule(start, dtype=np.int16):
    return _tag_layout(64, 8, 4, STOCK)[STOCK - start:2 * STOCK - start].astype(dtype)


def _with(values, dtype=np.int16):
    """The stock schedule at REGION with values[i] written at REGION + i."""
    schedule = _stock_schedule(REGION, dtype)
    for i, value in values.items():
        schedule[REGION + i] = value
    return schedule


# each a whole schedule, and whether a trace CSV can hold it: the reader
# parses a tag with int(), so 1.5 and nan are malformed lines there
MALFORMED = {
    "python-int-beyond-int16": (_with({5: 70000}, object).tolist(), True),
    "int64-wrapping-to-tag-1": (_with({0: 65537}, np.int64), True),
    "fraction-truncating-to-tag-1": (_with({0: 1.5}, np.float64), False),
    "python-int-beyond-int64": (_with({5: 2 ** 70}, object).tolist(), True),
    "nan": (_with({5: np.nan}, np.float64), False),
    "beyond-n-tags": (_with({1000: 5}), True),
    "uneven-blocks": (_with({128: 1}), True),  # tag 1 one sample longer, tag 2 shorter
    "stray-value": (_with({5: 3}), True),
    "region-begins-mid-block": (_with({0: 0, 1: 0, 2: 0}), True),
    "region-begins-at-tag-2": (_with(dict.fromkeys(range(128), 0)), True),
}


def _schedule_constructors(schedule, tmp_path=None):
    """ReceivedTrace on one stock-layout schedule, as one trace and in a
    stream of two, and, given tmp_path, read_trace_csv on it, each
    returning what it builds."""
    fields = _trace_fields(8, alternating_code(64), n_tags=4)
    rows = dict(fields, samples=np.stack([fields["samples"]] * 2),
                tag_schedule=[list(schedule), [0] * STOCK])
    fields["tag_schedule"] = schedule
    builds = [lambda: ReceivedTrace(t_s=0.0, **fields),
              lambda: ReceivedTrace(t_s=[0.0, 1.0], **rows)]
    if tmp_path is not None:
        path = tmp_path / "trace_x.csv"
        path.write_text(f"{TRACE_HEADER}\n" + "".join(f"0.0,1.0,{tag}\n" for tag in schedule))
        labels = {"identities": {"x": "s"},
                  "modulation": {"code_bits": 64, "samples_per_bit": 8,
                                 "sample_rate_hz": 100.0, "n_tags": 4}}
        builds.append(lambda: read_trace_csv(path, "x", labels))
    return builds


class TestScheduleValues:
    """One rule holds for every tag_schedule row: it is all guard, or the
    layout's schedule from its first tagged sample on (_tag_layout).  The
    row is compared in its own dtype before any int16 form of it exists,
    so nothing raises OverflowError, wraps or truncates."""

    @pytest.mark.parametrize("case", MALFORMED)
    def test_rejected_before_the_cast(self, tmp_path, case):
        schedule, in_csv = MALFORMED[case]
        *constructors, read = _schedule_constructors(schedule, tmp_path)
        for build in constructors:
            with pytest.raises(ParameterError, match=SCHEDULE_RULE):
                build()
        rule = " " + SCHEDULE_RULE if in_csv else r"\d+: malformed trace line"
        with pytest.raises(ConfigError, match=r"trace_x\.csv:" + rule):
            read()

    def test_every_start_of_the_stock_layout_is_accepted(self, tmp_path):
        """Every start 0..n - 1, a region cut off at the trace end included,
        and the all-guard schedule (start n)."""
        fields = _trace_fields(8, alternating_code(64), n_tags=4)
        for start in range(STOCK + 1):
            fields["tag_schedule"] = _stock_schedule(start)
            trace = ReceivedTrace(t_s=0.0, **fields)
            assert trace.region_starts == start
            np.testing.assert_array_equal(trace.tag_schedule, fields["tag_schedule"])
        for starts in np.array_split(np.arange(STOCK + 1), 16):
            schedule = np.stack([_stock_schedule(s) for s in starts])
            stream = ReceivedTrace(t_s=starts * 1.0, **dict(
                fields, samples=np.ones((starts.size, STOCK)), tag_schedule=schedule))
            np.testing.assert_array_equal(stream.region_starts, starts)
            np.testing.assert_array_equal(stream.tag_schedule, schedule)
        *_, read = _schedule_constructors(_stock_schedule(STOCK - 100), tmp_path)
        assert read().region_starts.tolist() == [STOCK - 100]

    def test_integral_floats_are_tags(self):
        fields = _trace_fields(8, alternating_code(64), n_tags=4)
        fields["tag_schedule"] = _stock_schedule(REGION, np.float64)
        trace = ReceivedTrace(t_s=0.0, **fields)
        assert trace.tag_schedule.dtype == np.int16 and trace.region_starts == REGION
        np.testing.assert_array_equal(trace.tag_schedule, fields["tag_schedule"])


class TestSimulateScenario:
    def test_ten_periods_ten_traces(self, four_identity_scenario, four_identity_run):
        assert four_identity_scenario.n_periods == 10
        for identity in ("n0", "n1", "n2", "n3"):
            assert len(four_identity_run.traces[identity]) == 10

    def test_true_sources(self, four_identity_run):
        assert four_identity_run.true_sources == {
            "n0": "robotA", "n1": "robotA", "n2": "robotB", "n3": "robotC"}

    def test_no_agents_empty_output(self):
        config = ScenarioConfig(
            channel=ChannelParams(), tag_layout=TagLayout.regular_ring(4),
            receiver_trajectory=parked(0.0, 0.0, 6.0), agents=(), horizon_s=6.0)
        run = simulate_scenario(config, 1)
        assert run.traces == {}

    def test_same_seed_bit_identical(self, four_identity_scenario, four_identity_run):
        rerun = simulate_scenario(four_identity_scenario, 42)
        for identity in rerun.traces:
            for a, b in zip(four_identity_run.traces[identity], rerun.traces[identity]):
                np.testing.assert_array_equal(a.samples, b.samples)
                np.testing.assert_array_equal(a.tag_schedule, b.tag_schedule)
                assert a.t_s == b.t_s

    def test_different_seeds_differ(self, four_identity_scenario, four_identity_run):
        other = simulate_scenario(four_identity_scenario, 43)
        assert not np.array_equal(other.traces["n0"][0].samples,
                                  four_identity_run.traces["n0"][0].samples)

    def test_slot_staggering(self, four_identity_run):
        t0 = {i: four_identity_run.traces[i][0].t_s for i in ("n0", "n1", "n2", "n3")}
        assert t0 == {"n0": 0.0, "n1": 0.02, "n2": 0.04, "n3": 0.06}

    def test_trace_seeds_layout(self):
        seeds = trace_seeds(7, 3, 10)
        assert seeds.shape == (30,)
        assert len(set(seeds.tolist())) == 30
        np.testing.assert_array_equal(seeds, trace_seeds(7, 3, 10))

    def test_horizon_coverage_enforced(self):
        agent = RobotAgent("r", ("a",), parked(1.0, 0.0, 3.0), 3.0)
        config = ScenarioConfig(
            channel=ChannelParams(), tag_layout=TagLayout.regular_ring(4),
            receiver_trajectory=parked(0.0, 0.0, 6.0), agents=(agent,),
            horizon_s=6.0)
        with pytest.raises(ConfigError):
            simulate_scenario(config, 1)

    def test_slots_must_fit_in_period(self):
        config = make_scenario(FOUR_ID_SPECS, period_s=0.05)
        with pytest.raises(ConfigError):
            simulate_scenario(config, 1)

    def test_identity_claimed_twice_rejected(self):
        specs = (("rA", ("n0",), (1.0, 0.3), None),
                 ("rB", ("n0",), (-1.0, 0.3), None))
        with pytest.raises(IdentityError):
            make_scenario(specs)
