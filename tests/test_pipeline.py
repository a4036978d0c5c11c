"""Signal pipeline: synchronization, extraction, profiles."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from sybilscatter import (
    DegenerateSignatureError,
    InsufficientDataError,
    MultipathSignature,
    ParameterError,
    ProfileAssembler,
    ReceivedTrace,
    SegmentBounds,
    SegmentationError,
    ShapeError,
    SignalProfile,
    alternating_code,
    build_profile,
    build_signature,
    segment_backscatter,
    signature_from_trace,
    simulate_scenario,
    synthesize_trace,
    tag_block_bit_spans,
    tag_reflection_powers,
)

from conftest import make_scenario, trace_batch
from sybilscatter import pipeline
from sybilscatter.pipeline import (
    _alternating_lags,
    _median_rows,
    _segmentation,
    _smoothing_widths,
    _tag_gathers,
    locate_rows,
    reflection_rows,
)
from sybilscatter.scenario import _tag_layout, check_layout


def _accepted(bits, spb, n_tags):
    try:
        check_layout(bits, spb, n_tags)
    except ParameterError:
        return False
    return True


# every samples_per_bit in 1-16 that the constructors accept
ACCEPTED_SPB = [spb for spb in range(1, 17) if _accepted(64, spb, 1)]


def handmade_trace(prefix_spans=0, n_tags=1, bits=64, spb=8, power=5e-5,
                   ambient=1e-6):
    """Trace with an exactly known layout, no noise, every tag at one power."""
    code = alternating_code(bits)
    span = bits * spb
    total = 5 * span
    start = prefix_spans * span
    samples = np.full(total, ambient)
    samples[start:start + span] += power * np.repeat(code, spb)
    schedule = np.zeros(total, dtype=np.int16)
    for tag, (b0, b1) in enumerate(tag_block_bit_spans(bits, n_tags)):
        schedule[start + b0 * spb:start + b1 * spb] = tag + 1
    return ReceivedTrace(identity="x", true_source_id="sx", t_s=0.0,
                         sample_rate_hz=8000.0, samples=samples,
                         tag_schedule=schedule, tag_code=code,
                         samples_per_bit=spb, n_tags=n_tags)


def layout_trace(bits, spb, powers, ambient, start):
    """Noise-free five-span trace of the simulator's layout: len(powers)
    tags, tag k keying powers[k] onto its block of the alternating code,
    the region starting at sample start."""
    code = alternating_code(bits)
    n = 5 * bits * spb
    samples = np.full(n, float(ambient))
    schedule = np.zeros(n, dtype=np.int16)
    for tag, (b0, b1) in enumerate(tag_block_bit_spans(bits, len(powers))):
        lo, hi = start + b0 * spb, start + b1 * spb
        samples[lo:hi] += powers[tag] * np.repeat(code[b0:b1], spb)
        schedule[lo:hi] = tag + 1
    return ReceivedTrace(identity="x", true_source_id="sx", t_s=0.0,
                         sample_rate_hz=8000.0, samples=samples,
                         tag_schedule=schedule, tag_code=code,
                         samples_per_bit=spb, n_tags=len(powers))


def code_trace(samples, code, spb=8):
    """A one-tag trace of the given samples and code."""
    samples = np.asarray(samples, dtype=np.float64)
    return ReceivedTrace(identity="x", true_source_id="sx", t_s=0.0,
                         sample_rate_hz=8000.0, samples=samples,
                         tag_schedule=np.zeros(samples.size, dtype=np.int16),
                         tag_code=np.asarray(code, dtype=np.uint8),
                         samples_per_bit=spb, n_tags=1)


def copies_trace(starts, background, powers, bits=64, spb=8, spans=5):
    """background plus powers[i] times the expanded alternating code at
    each of starts.  With integer background and powers that are
    multiples of 9 every smoothed sample and every lag is an exact
    integer, so ties are exact in every summation order."""
    expanded = np.repeat(alternating_code(bits), spb)
    samples = np.full(spans * expanded.size, float(background))
    for start, power in zip(starts, powers):
        samples[start:start + expanded.size] += power * expanded
    return code_trace(samples, alternating_code(bits), spb)


def exact_decisions(trace):
    """(start, decodable, peak, floor) of np.correlate on the oracle's
    smoothing, which locate_rows reproduces on every certified row."""
    return oracle.decisions(oracle.correlate_lags(trace.samples, trace.tag_code,
                                                  trace.samples_per_bit, 9))


def certified(trace):
    """The trace lies beyond the oracle's rounding bound, so locate_rows
    must make np.correlate's decisions on it."""
    return oracle.certified(trace.samples, trace.tag_code, trace.samples_per_bit)


def assert_exact_decisions(traces):
    """locate_rows on the batch and on each trace, and segment_backscatter,
    against the oracle's prefix-sum lags down to the SegmentationError
    message, and against np.correlate on the certified traces."""
    starts, decodable, _, _ = locate_rows(trace_batch(traces))
    for k, trace in enumerate(traces):
        start, ok, peak, floor = oracle.decisions(
            oracle.lags(trace.samples, trace.tag_code, trace.samples_per_bit, 9))
        one_start, one_ok, _, _ = locate_rows(trace)
        assert (starts[k], decodable[k]) == (one_start, one_ok) == (start, ok)
        if certified(trace):
            assert exact_decisions(trace)[:2] == (start, ok)
        if ok:
            assert segment_backscatter(trace).t_start == start
        else:
            with pytest.raises(SegmentationError) as err:
                segment_backscatter(trace)
            assert str(err.value) == (
                f"correlation peak {peak:.3e} below decision floor {floor:.3e}")


class TestOnlineSetUp:
    @pytest.mark.parametrize("n_lags", [1, 2, 7, 8, 2048, 2049])
    def test_median_rows_is_np_median(self, n_lags):
        rng = np.random.default_rng(n_lags)
        # steps of 0.1 over a small range give many ties, and even rows
        # average two different middle values
        ties = rng.integers(-3, 4, (30, n_lags)) * 0.1
        c = np.vstack([ties, rng.normal(size=(30, n_lags))])
        assert _median_rows(c).tobytes() == np.median(c, axis=1).tobytes()

    def test_cached_tables_are_read_only(self):
        trace = handmade_trace(n_tags=3)
        segment_backscatter(trace)
        width = _smoothing_widths(trace.samples.size)
        gathers = [arr for tags, offsets, _ in _tag_gathers(trace.tag_code.tobytes(),
                                                            trace.samples_per_bit, 3)
                   for arr in (tags, offsets)]
        for arr in [width] + gathers:
            assert not arr.flags.writeable
        # samples under each 9-tap window, truncated at the row's ends
        np.testing.assert_array_equal(
            width, np.convolve(np.ones(trace.samples.size), np.ones(9), mode="same"))


class TestSegmentation:
    def test_recovers_generator_schedule_noise_free(self):
        config = make_scenario((("r0", ("n0",), (1.0, 0.4), None),), snr_db=None)
        run = simulate_scenario(config, 17)
        for trace in run.traces["n0"]:
            bounds = segment_backscatter(trace)
            assert bounds.t_start == trace.scheduled_start()
            assert bounds.t_end == bounds.t_start + trace.code_span

    def test_zero_guard_prefix(self):
        trace = handmade_trace(prefix_spans=0)
        bounds = segment_backscatter(trace)
        assert bounds.t_start == 0
        assert bounds.t_end == trace.code_span

    def test_pure_noise_rejected(self):
        rng = np.random.default_rng(6)
        code = alternating_code(64)
        noise = np.abs(rng.normal(1e-6, 1e-7, 5 * 512))
        trace = ReceivedTrace(identity="x", true_source_id="s", t_s=0.0,
                              sample_rate_hz=8000.0, samples=noise,
                              tag_schedule=np.zeros(noise.size, dtype=np.int16),
                              tag_code=code, samples_per_bit=8, n_tags=1)
        with pytest.raises(SegmentationError):
            segment_backscatter(trace)

    def test_all_zero_trace_rejected(self):
        code = alternating_code(64)
        trace = ReceivedTrace(identity="x", true_source_id="s", t_s=0.0,
                              sample_rate_hz=8000.0, samples=np.zeros(5 * 512),
                              tag_schedule=np.zeros(5 * 512, dtype=np.int16),
                              tag_code=code, samples_per_bit=8, n_tags=1)
        with pytest.raises(SegmentationError):
            segment_backscatter(trace)

    @settings(max_examples=40, deadline=None)
    @given(bits=st.integers(8, 64), spb=st.sampled_from(ACCEPTED_SPB), data=st.data())
    def test_start_follows_a_shifted_prefix(self, bits, spb, data):
        # every modulation the constructors accept; the region starts
        # wherever the prefix ends
        span = bits * spb
        n = 5 * span
        start = data.draw(st.integers(0, n - span))
        ambient = data.draw(st.floats(1e-9, 1.0))
        power = ambient * data.draw(st.floats(20.0, 1e4))
        samples = np.full(n, ambient)
        samples[start:start + span] += power * np.repeat(alternating_code(bits), spb)
        trace = code_trace(samples, alternating_code(bits), spb)
        assert segment_backscatter(trace).t_start == start
        assert exact_decisions(trace)[:2] == (start, True)

    @settings(max_examples=150, deadline=None)
    @given(spb=st.integers(2, 16), n_tags=st.integers(1, 8), data=st.data())
    def test_every_accepted_layout_segments_at_its_start(self, spb, n_tags, data):
        # check_layout's contract: every layout the constructors accept
        # segments a noise-free trace exactly, with distinct tag powers of
        # at least 20 x ambient and the region starting anywhere
        bits = data.draw(st.integers(2 * n_tags, 64), label="code_bits")
        assume(_accepted(bits, spb, n_tags))
        ambient = data.draw(st.floats(1e-9, 1.0), label="ambient")
        ratios = data.draw(st.lists(st.floats(20.0, 1e4), min_size=n_tags,
                                    max_size=n_tags, unique=True), label="power ratios")
        start = data.draw(st.integers(0, 4 * bits * spb), label="start")
        trace = layout_trace(bits, spb, ambient * np.array(ratios), ambient, start)
        assert trace.scheduled_start() == start
        starts, decodable, _, _ = locate_rows(trace_batch([trace]))
        assert (starts[0], decodable[0]) == locate_rows(trace)[:2] == (start, True)
        assert exact_decisions(trace)[:2] == (start, True)

    def test_bounds_validation(self):
        with pytest.raises(ParameterError):
            SegmentBounds(t_start=-1, t_end=5)
        with pytest.raises(ParameterError):
            SegmentBounds(t_start=5, t_end=5)


def stock_trace(n, start, powers, ambient):
    """Noise-free n-sample trace of the stock layout (64-bit code, 8 samples
    per bit, 4 tags), its region at sample start, its schedule the cached
    layout's: ambient plus each tag's power where the code is on."""
    schedule = _tag_layout(64, 8, 4, n)[n - start:2 * n - start]
    on = np.zeros(n)
    on[start:start + 512] = np.repeat(alternating_code(64), 8)
    return ReceivedTrace(identity="x", true_source_id="sx", t_s=0.0,
                         sample_rate_hz=8000.0,
                         samples=ambient + on * np.append(0.0, powers)[schedule],
                         tag_schedule=schedule, tag_code=alternating_code(64),
                         samples_per_bit=8, n_tags=4)


# from this many samples (3.5 code spans) on, every noise-free stock trace decodes
CONTRACT_LEN = 1800


class TestLengthContract:
    """What the length rule promises for the stock layout, noise-free.

    The constructors accept any trace of one code span plus two samples
    (514).  Such a trace never decodes at a wrong start, but below
    CONTRACT_LEN it may fall below the 3x-median decision floor and be
    rejected; from CONTRACT_LEN on every start decodes.  Powers are 20 to
    1e4 times the ambient (times 1e-6 with no ambient)."""

    PATTERNS = {
        "ascending": np.geomspace(20.0, 1e4, 4),
        "descending": np.geomspace(1e4, 20.0, 4),
        "strong first": [1e4, 20.0, 20.0, 20.0],
        "strong last": [20.0, 20.0, 20.0, 1e4],
        "near-equal": [20.0, 21.0, 22.0, 23.0],
        "one at 1e4": [20.0, 1e4, 20.0, 20.0],
    }

    @staticmethod
    def _broken(n, start, powers, ambient):
        """The contract's violations by one trace: a wrong start, or no
        decision at CONTRACT_LEN samples or more."""
        found, decodable = locate_rows(stock_trace(n, start, powers, ambient))[:2]
        if decodable:
            return [] if found == start else [("wrong start", n, start, int(found))]
        return [("undecodable", n, start)] if n >= CONTRACT_LEN else []

    def test_grid_of_lengths_starts_and_powers(self):
        broken, cases = [], 0
        for n in (514, 777, 1024, 1480, 1556, 1800, 2048, 2560):
            for ambient in (0.0, 1.0):
                for name, ratios in self.PATTERNS.items():
                    powers = (ambient or 1e-6) * np.asarray(ratios)
                    for start in range(0, n - 511, 3):
                        broken += [(name, ambient, *b)
                                   for b in self._broken(n, start, powers, ambient)]
                        cases += 1
        assert cases == 30_708
        assert broken == []

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(514, 5120), data=st.data())
    def test_random_lengths_starts_and_powers(self, n, data):
        start = data.draw(st.integers(0, n - 512), label="start")
        ambient = data.draw(st.sampled_from([0.0, 1e-6, 1.0]), label="ambient")
        exponents = data.draw(st.lists(st.floats(np.log10(20.0), 4.0), min_size=4,
                                       max_size=4), label="log10 power ratios")
        powers = (ambient or 1e-6) * 10.0 ** np.array(exponents)
        assert self._broken(n, start, powers, ambient) == []


class TestCertifiedSegmentation:
    """locate_rows decides on its prefix-sum lags.  A row is certified when
    it lies beyond the oracle's rounding bound: its top-two lag margin
    exceeds 2 E and |peak - floor| exceeds 4 E.  Then np.correlate on the
    smoothed row decides the same; nearer a tie it may not."""

    def test_exact_tie_takes_the_first_copy(self):
        # every lag is an exact integer, so the two copies tie in every
        # summation order, and both kernels take the first
        trace = copies_trace([512, 1536], 0, [9.0, 9.0])
        lags = _alternating_lags(trace.samples, 8, 32, trace.samples.size - 511)
        assert lags[512] == lags[1536] == lags.max()
        assert not certified(trace)
        assert exact_decisions(trace)[:2] == (512, True)
        assert_exact_decisions([trace])
        assert segment_backscatter(trace).t_start == 512

    def test_peak_equal_to_floor_is_decodable(self):
        # peak 256 (837 + 1674) equals 3 x the background lags' 256 x 837,
        # exactly in both kernels
        trace = copies_trace([0], 837, [2304.0])
        start, ok, peak, floor = locate_rows(trace)
        assert peak == floor and (start, ok) == (0, True)
        assert exact_decisions(trace)[:2] == (0, True)
        assert not certified(trace)
        assert_exact_decisions([trace])

    def test_noise_only_row_is_a_certified_reject(self):
        rng = np.random.default_rng(6)
        trace = code_trace(np.abs(rng.normal(1e-6, 1e-7, 5 * 512)), alternating_code(64))
        assert certified(trace) and not exact_decisions(trace)[1]
        assert_exact_decisions([trace])

    @pytest.mark.parametrize("code", [np.tile([1, 1, 0, 0], 16), np.tile([0, 1], 32),
                                      np.random.default_rng(3).integers(0, 2, 64)])
    def test_other_codes_are_rejected(self, code):
        samples = np.full(5 * 512, 1e-6)
        samples[700:1212] += 5e-5 * np.repeat(code, 8)
        with pytest.raises(ParameterError, match="tag_code is not the alternating code"):
            code_trace(samples, code)

    @pytest.mark.parametrize("bits", [7, 9, 65])
    def test_odd_code_lengths_segment_on_the_fast_path(self, bits):
        # an odd code ends on a 1-bit: (bits + 1) // 2 runs of ones
        rng = np.random.default_rng(bits)
        span = bits * 8
        samples = np.abs(rng.normal(1e-6, 1e-7, 5 * span))
        samples[span + 5:2 * span + 5] += 5e-5 * np.repeat(alternating_code(bits), 8)
        noise = np.abs(rng.normal(1e-6, 1e-7, 5 * span))
        traces = [code_trace(samples, alternating_code(bits)),
                  code_trace(noise, alternating_code(bits))]
        assert all(certified(t) for t in traces)
        assert exact_decisions(traces[0])[:2] == (span + 5, True)
        assert_exact_decisions(traces)

    def test_near_ties_reproduce_np_correlate(self):
        """Certified near ties make np.correlate's decisions; uncertified
        ones may not."""
        # second copies within a few ulps to 1e-6 of the first, and
        # backgrounds within as little of the floor, noisy and not
        rng = np.random.default_rng(12)
        traces = []
        for delta in (0.0, 2.0 ** -52, 1e-15, 1e-13, 1e-11, 1e-9, 1e-6):
            for noise in (0.0, 1e-12):
                for sign in (1.0, -1.0):
                    tie = copies_trace([512, 1536], 1.0, [9.0, 9.0 * (1 + sign * delta)])
                    floor = copies_trace([0], 837.0 * (1 + sign * delta), [2304.0])
                    for trace in (tie, floor):
                        samples = trace.samples + noise * rng.random(trace.samples.size)
                        traces.append(code_trace(samples, trace.tag_code))
        flags = [certified(t) for t in traces]
        assert any(flags) and not all(flags)
        # the prefix-sum lags decide some of these rows otherwise than
        # np.correlate, and the bound leaves every one of them uncertified
        starts, decodable, _, _ = locate_rows(trace_batch(traces))
        wrong = [k for k, t in enumerate(traces)
                 if (starts[k], decodable[k]) != exact_decisions(t)[:2]]
        assert wrong and not any(flags[k] for k in wrong)
        assert_exact_decisions(traces)

    @settings(max_examples=60, deadline=None)
    @given(bits=st.integers(1, 12), spb=st.integers(1, 8), extra=st.integers(0, 80),
           data=st.data())
    def test_fast_lags_within_the_bound(self, bits, spb, extra, data):
        """The prefix-sum lags lie within the oracle's bound of
        np.correlate's, at every scale from subnormal sums to 1e200, and
        beyond the bound locate_rows makes np.correlate's decisions."""
        n = max(bits * spb + extra, 9)
        scale = data.draw(st.sampled_from([1e-300, 1e-6, 1.0, 1e200]))
        x = scale * data.draw(arrays(np.float64, n, elements=st.floats(0.0, 1e3)))
        code = alternating_code(bits) if bits > 1 else np.ones(1, dtype=np.uint8)
        lags = _alternating_lags(x, spb, (bits + 1) // 2, n - bits * spb + 1)
        assert lags.tobytes() == oracle.lags(x, code, spb, 9).tobytes()
        exact = oracle.correlate_lags(x, code, spb, 9)
        assert np.all(np.abs(lags - exact) <= oracle.row_bound(x, code, spb))
        if oracle.certified(x, code, spb):
            row = SimpleNamespace(samples=x, tag_code=code, samples_per_bit=spb)
            assert locate_rows(row)[:2] == oracle.decisions(exact)[:2]

    @settings(max_examples=60, deadline=None)
    @given(extra=st.integers(0, 1), data=st.data())
    def test_one_or_two_lags_never_decode(self, extra, data):
        # the length rule's reason: the prefix-sum lags of a nonnegative
        # row are nonnegative (each is a difference along a nondecreasing
        # stride sum), so the floor is 3x the only lag, or 1.5x the sum of
        # the two
        x = data.draw(arrays(np.float64, (4, 70 + extra), elements=st.floats(0.0, 1e6)))
        lags = _alternating_lags(x, 5, 7, 1 + extra)
        assert lags.shape == (4, 1 + extra)
        assert not _segmentation(lags)[1].any()


def one_tag_row(samples, code, spb):
    """The fields reflection_rows reads of a one-tag row whose code starts
    at sample 0."""
    return SimpleNamespace(samples=np.asarray(samples, dtype=np.float64),
                           tag_code=np.asarray(code, dtype=np.uint8),
                           samples_per_bit=spb, n_tags=1)


class TestExtractReflection:
    def test_constant_difference(self):
        row = one_tag_row([5.0, 2.0, 5.0, 2.0], [1, 0, 1, 0], 1)
        assert reflection_rows(row, 0).tolist() == [3.0]

    def test_identical_halves_give_zero(self):
        row = one_tag_row(np.full(8, 1.3), [1, 0], 4)
        assert reflection_rows(row, 0).tolist() == [0.0]

    def test_negative_difference_clamped(self):
        row = one_tag_row([1.0, 2.0, 1.0, 2.0], [1, 0, 1, 0], 1)
        assert reflection_rows(row, 0).tolist() == [0.0]

    def test_noisy_recovery_within_estimator_bound(self):
        """Block estimates stay within 3 sigma / sqrt(N) of injected powers."""
        config = make_scenario((("r0", ("n0",), (1.0, 0.4), None),),
                               horizon_s=18.0, ambient_w=5e-4, snr_db=20.0)
        agent = config.agents[0]
        run = simulate_scenario(config, 99)
        powers = tag_reflection_powers(config, agent, "n0", 0.0)
        sigma = powers.max() * 10.0 ** (-20.0 / 20.0)
        assert 5e-4 > 20 * sigma  # ambient floor keeps the clamp inactive
        errors = []
        for trace in run.traces["n0"]:
            start = trace.scheduled_start()
            signature = build_signature(
                trace, SegmentBounds(start, start + trace.code_span))
            errors.extend(signature.raw - powers)
        errors = np.asarray(errors)
        n_block = trace.code_span // trace.n_tags
        bound = 3.0 * sigma / np.sqrt(n_block)
        assert np.sqrt(np.mean(errors ** 2)) < bound


class TestMultipathSignature:
    def test_three_four_five_normalization(self):
        signature = MultipathSignature(raw=[3e-9, 4e-9])
        np.testing.assert_array_equal(signature.raw, [3e-9, 4e-9])
        np.testing.assert_array_equal(signature.normalized, [0.6, 0.8])

    def test_equal_powers_symmetric(self):
        signature = MultipathSignature(raw=[7.3e-5] * 4)
        np.testing.assert_array_equal(signature.normalized, [0.5] * 4)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            raw = rng.random(4) * 1e-4
            base = MultipathSignature(raw=raw).normalized
            # power-of-two scales are exact; arbitrary ones round
            np.testing.assert_array_equal(
                MultipathSignature(raw=4.0 * raw).normalized, base)
            alpha = rng.uniform(0.1, 9.0)
            np.testing.assert_allclose(
                MultipathSignature(raw=alpha * raw).normalized, base,
                rtol=0, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateSignatureError):
            MultipathSignature(raw=np.zeros(4))

    def test_negative_power_rejected(self):
        with pytest.raises(ParameterError):
            MultipathSignature(raw=[1.0, -0.1])

    def test_constructor_takes_only_the_raw_powers(self):
        with pytest.raises(TypeError):
            MultipathSignature(raw=[3.0, 4.0], normalized=[0.6, 0.8])
        with pytest.raises(ShapeError):
            MultipathSignature(raw=[[3.0, 4.0]])

    @pytest.mark.parametrize("raw", [[np.nan, 4.0], [np.inf, 4.0], [1e200, 1e200]])
    def test_non_finite_powers_rejected(self, raw):
        # an overflowing squared sum would normalize to zeros
        with np.errstate(over="ignore"):
            with pytest.raises(ParameterError, match="must be finite"):
                MultipathSignature(raw=raw)


class TestBuildSignatureFromTrace:
    def test_noise_free_recovers_injected_powers(self):
        config = make_scenario((("r0", ("n0",), (1.0, 0.4), None),), snr_db=None)
        agent = config.agents[0]
        run = simulate_scenario(config, 23)
        powers = tag_reflection_powers(config, agent, "n0", 0.0)
        for trace in run.traces["n0"]:
            signature = signature_from_trace(trace)
            np.testing.assert_allclose(signature.raw, powers, rtol=1e-12)

    def test_bounds_must_match_code_span(self):
        trace = handmade_trace(prefix_spans=1)
        with pytest.raises(ShapeError):
            build_signature(trace, SegmentBounds(0, 10))

    def test_ambient_only_region_is_degenerate(self):
        trace = handmade_trace(prefix_spans=1)
        # bounds aimed at the guard suffix: constant ambient extracts to zero
        start = 3 * trace.code_span
        with pytest.raises(DegenerateSignatureError):
            build_signature(trace, SegmentBounds(start, start + trace.code_span))

    def test_overflowing_squares_are_degenerate(self):
        # finite samples of about 1e200 square past the largest float, so
        # the norm is inf and raw / norm would be an all-zero "unit" row
        huge = stock_trace(CONTRACT_LEN, 300, [2e197, 2e198, 2e199, 1e200], 0.0)
        with pytest.raises(DegenerateSignatureError, match="overflow"):
            signature_from_trace(huge)
        in_range = [stock_trace(CONTRACT_LEN, start, [2e-3, 2e-2, 5e-3, 1e-2], 1e-3)
                    for start in (100, 700)]
        kept, raw, unit = pipeline.signature_rows(trace_batch([in_range[0], huge, in_range[1]]))
        want_kept, want_raw, want_unit = pipeline.signature_rows(trace_batch(in_range))
        assert kept.tolist() == [0, 2] and want_kept.tolist() == [0, 1]
        assert raw.tobytes() == want_raw.tobytes()
        assert unit.tobytes() == want_unit.tobytes()


class TestSignalProfile:
    def test_identical_rows_mean(self):
        v = np.array([0.6, 0.8])
        profile = SignalProfile(identity="a", signatures=np.tile(v, (5, 1)))
        np.testing.assert_array_equal(profile.mean_vector, v)

    def test_single_row_profile(self):
        v = np.array([0.6, 0.8])
        profile = SignalProfile(identity="a", signatures=v[None])
        assert profile.profile_len == 1
        np.testing.assert_array_equal(profile.mean_vector, v)
        # a bare vector is not promoted to one row
        with pytest.raises(ShapeError, match="L >= 1"):
            SignalProfile(identity="a", signatures=v)

    def test_rows_must_be_unit_norm(self):
        with pytest.raises(ParameterError):
            SignalProfile(identity="a", signatures=np.array([[0.5, 0.5]]))

    def test_mean_is_derived_from_the_rows(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        profile = SignalProfile(identity="a", signatures=rows)
        assert profile.mean_vector.tobytes() == rows.mean(axis=0).tobytes()
        with pytest.raises(TypeError):
            SignalProfile(identity="a", signatures=rows, mean_vector=rows.mean(axis=0))

    def test_empty_profile_rejected(self):
        # no rows have no mean; an empty window is never a profile
        with pytest.raises(ShapeError, match="L >= 1"):
            SignalProfile(identity="a", signatures=np.empty((0, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_and_means_rejected(self, bad):
        # a NaN row passed every comparison of the other checks, and the
        # distance matrix's diagonal is zero only for finite rows; the mean
        # of finite rows is finite
        rows = np.array([[0.6, 0.8], [bad, 0.8]])
        for signatures in (rows, rows[1:]):
            with pytest.raises(ParameterError, match="must be finite"):
                SignalProfile(identity="a", signatures=signatures)


class TestProfileWindows:
    def _signatures(self, n, seed=8):
        rng = np.random.default_rng(seed)
        return [MultipathSignature(raw=rng.random(4) + 0.1)
                for _ in range(n)]

    def test_build_profile_takes_most_recent(self):
        sigs = self._signatures(7)
        profile = build_profile("a", sigs, profile_len=3)
        np.testing.assert_array_equal(
            profile.signatures, np.vstack([s.normalized for s in sigs[-3:]]))

    def test_build_profile_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            build_profile("a", self._signatures(2), profile_len=3)

    def test_assembler_fills_then_slides(self):
        sigs = self._signatures(5)
        assembler = ProfileAssembler("a", profile_len=3)
        results = [assembler.push(k, s) for k, s in enumerate(sigs)]
        assert results[0] is None and results[1] is None
        np.testing.assert_array_equal(
            results[2].signatures, np.vstack([s.normalized for s in sigs[:3]]))
        np.testing.assert_array_equal(
            results[4].signatures, np.vstack([s.normalized for s in sigs[2:5]]))

    def test_assembler_evicts_stale_history(self):
        sigs = self._signatures(6)
        assembler = ProfileAssembler("a", profile_len=3)  # max age 6
        assert assembler.push(0, sigs[0]) is None
        assert assembler.push(1, sigs[1]) is None
        # a long outage: period jumps past the age limit, window restarts
        assert assembler.push(7, sigs[2]) is None
        assert len(assembler.window) == 1
        assert assembler.push(8, sigs[3]) is None
        profile = assembler.push(9, sigs[4])
        np.testing.assert_array_equal(
            profile.signatures, np.vstack([s.normalized for s in sigs[2:5]]))

    def test_assembler_profile_is_the_validated_one(self):
        sigs = self._signatures(4)
        assembler = ProfileAssembler("a", profile_len=3)
        profiles = [assembler.push(k, s) for k, s in enumerate(sigs)]
        expected = SignalProfile(identity="a",
                                 signatures=np.vstack([s.normalized for s in sigs[1:]]))
        profile = profiles[-1]
        assert isinstance(profile, SignalProfile) and profile.identity == "a"
        assert profile.signatures.tobytes() == expected.signatures.tobytes()
        assert profile.mean_vector.tobytes() == expected.mean_vector.tobytes()
        assert not profile.signatures.flags.writeable
        assert not profile.mean_vector.flags.writeable

    def test_assembler_requires_increasing_periods(self):
        assembler = ProfileAssembler("a", profile_len=2)
        assembler.push(3, self._signatures(1)[0])
        with pytest.raises(ParameterError):
            assembler.push(3, self._signatures(1)[0])
