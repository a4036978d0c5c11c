"""Batched kernels against their one-at-a-time oracles, bit for bit.

The simulator, the signal pipeline, the windowing and the distances work
on one array per identity.  These tests hold them to the per-trace,
per-window and per-pair forms in oracle.py on a seeded corpus scenario
that is degraded with noise-only announcements (lost periods), an outage
longer than the 2 L window age, and degenerate announcements that segment
but reflect on no tag.  The digest pins come from the per-trace code.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import FOUR_ID_SPECS, labeled_dataset, make_scenario, trace_batch
from sybilscatter import (
    ChannelParams,
    DegenerateSignatureError,
    DistanceMatrix,
    LRModel,
    MultipathSignature,
    ParameterError,
    ProfileAssembler,
    ReceivedTrace,
    ScenarioRun,
    SegmentationError,
    ShapeError,
    SignalProfile,
    SimilarityMatrix,
    TagLayout,
    Trajectory,
    Verdict,
    build_corpus,
    build_dataset,
    build_signature,
    detect_sybil,
    distance_matrix,
    extract_signatures,
    generate_dataset,
    predict_scores,
    segment_backscatter,
    signature_from_trace,
    similarity_matrix,
    simulate_scenario,
    trace_seeds,
)
from sybilscatter import pipeline
from sybilscatter.harness import DEFAULT_CORPUS_SPEC, DEFAULT_SEED, dataset_digest
from sybilscatter.pipeline import (
    _fast_segmentation,
    full_window_ends,
    locate_rows,
    signature_rows,
)
from sybilscatter.scenario import TraceBatch, _tag_layout, reflected_powers

PROFILE_LEN = 5  # max age 10 periods
OUTAGE = range(12, 24)  # 12 periods > 2 L
PLATEAU = slice(1000, 1600)  # segments, but is flat under every tag


def _noise_only(trace, rng):
    samples = np.abs(rng.normal(1e-6, 1e-7, trace.samples.size))
    return replace(trace, samples=samples, tag_schedule=np.zeros_like(trace.tag_schedule))


def _flat(trace):
    samples = np.full(trace.samples.size, 1e-6)
    samples[PLATEAU] = 1e-3
    return replace(trace, samples=samples)


@pytest.fixture(scope="module")
def corpus_scenario():
    spec = replace(DEFAULT_CORPUS_SPEC, n_scenarios=1, horizon_s=30.0)
    configs, seeds = build_corpus(spec, 5)
    return configs[0], seeds[0]


@pytest.fixture(scope="module")
def degraded_run(corpus_scenario):
    """identity -> list of traces with every degraded path represented."""
    config, seed = corpus_scenario
    run = simulate_scenario(config, seed)
    rng = np.random.default_rng(11)
    idents = list(run.traces)
    streams = {}
    for n, ident in enumerate(idents):
        traces = list(run.traces[ident])
        for k in range(len(traces)):
            u = rng.random()
            if (n == 0 and k in OUTAGE) or u < 0.05:
                traces[k] = _noise_only(traces[k], rng)
            elif (n == 1 and k in (8, 30)) or u > 0.97:
                traces[k] = _flat(traces[k])
        streams[ident] = traces
    return run, streams


def _one_trace_outcomes(streams):
    """signature_from_trace, segment_backscatter and build_signature on
    every trace against the per-trace oracle, down to the bytes of a kept
    signature and the message of a rejection; returns the outcomes seen."""
    outcomes = set()
    for traces in streams.values():
        for trace in traces:
            start, peak, floor = oracle.segment(trace.samples, trace.tag_code, 8, 9)
            if start is None:
                outcomes.add("rejected")
                for call in (signature_from_trace, segment_backscatter):
                    with pytest.raises(SegmentationError) as err:
                        call(trace)
                    assert str(err.value) == (
                        f"correlation peak {peak:.3e} below decision floor {floor:.3e}")
                continue
            bounds = segment_backscatter(trace)
            assert bounds.t_start == start
            raw = oracle.build_signature(trace.samples, start, trace.tag_code, 8,
                                         trace.n_tags)
            if not raw.any():
                outcomes.add("degenerate")
                for call in (lambda: signature_from_trace(trace),
                             lambda: build_signature(trace, bounds)):
                    with pytest.raises(DegenerateSignatureError):
                        call()
                continue
            outcomes.add("kept")
            for sig in (signature_from_trace(trace), build_signature(trace, bounds)):
                assert sig.raw.tobytes() == raw.tobytes()
                assert sig.normalized.tobytes() == (raw / np.linalg.norm(raw)).tobytes()
                assert not (sig.raw.flags.writeable or sig.normalized.flags.writeable)
    return outcomes


class TestSimulate:
    def test_channel_powers_square_like_python(self):
        # numpy's square rounds differently from C pow on ~1 in 1000 inputs
        rng = np.random.default_rng(9)
        d_t, d_r = rng.uniform(0.05, 30.0, (2, 20000))
        channel = ChannelParams()
        expected = [oracle.reflected_power(channel, 3.0, a, b)
                    for a, b in zip(d_t.tolist(), d_r.tolist())]
        np.testing.assert_array_equal(reflected_powers(channel, 3.0, d_t, d_r), expected)

    def test_rows_match_per_trace_synthesis(self, corpus_scenario):
        config, seed = corpus_scenario
        run = simulate_scenario(config, seed)
        seeds = trace_seeds(seed, len(config.identities), config.n_periods)
        expected = oracle.simulate_scenario(config, seeds)
        assert list(run.traces) == list(expected)
        for ident, rows in expected.items():
            batch = run.traces[ident]
            assert isinstance(batch, TraceBatch) and len(batch) == len(rows)
            for k, (t_s, samples, schedule) in enumerate(rows):
                trace = batch[k]
                assert trace.t_s == t_s
                np.testing.assert_array_equal(trace.samples, samples)
                np.testing.assert_array_equal(trace.tag_schedule, schedule)
                np.testing.assert_array_equal(batch.samples[k], samples)

    def test_indexing_yields_independent_read_only_rows(self, four_identity_run):
        batch = four_identity_run.traces["n0"]
        trace = batch[-1]
        assert isinstance(trace, ReceivedTrace)
        assert trace.samples.base is not batch.samples
        assert not trace.samples.flags.writeable
        assert [t.t_s for t in batch] == [t.t_s for t in batch[:]]


class TestSchedules:
    """A schedule that follows its layout is a view of one read-only array
    cached per layout; any other schedule is a private copy."""

    def _check_rows(self, batch):
        for k, trace in enumerate(batch):
            row = batch.tag_schedule[k]
            assert trace.tag_schedule.dtype == row.dtype
            assert trace.tag_schedule.tobytes() == row.tobytes()
            assert not trace.tag_schedule.flags.writeable
            nonzero = np.flatnonzero(row)
            assert trace.scheduled_start() == (int(nonzero[0]) if nonzero.size else None)

    def test_rows_equal_the_batch_rows(self, four_identity_run, degraded_run):
        _, streams = degraded_run
        for batch in [*four_identity_run.traces.values(), *map(trace_batch, streams.values())]:
            self._check_rows(batch)

    def test_one_layout_shares_one_array(self, four_identity_run, degraded_run):
        run, streams = degraded_run
        batch = four_identity_run.traces["n0"]
        first, other = batch[0], four_identity_run.traces["n2"][7]
        assert first.scheduled_start() != other.scheduled_start()
        assert np.shares_memory(first.tag_schedule, other.tag_schedule)
        assert not np.shares_memory(first.tag_schedule, batch.tag_schedule)
        # the corpus scenario has the same layout: 4 tags, 64 bits, 8 samples each
        ident = next(iter(streams))
        guard_only = streams[ident][OUTAGE[0]]
        assert guard_only.scheduled_start() is None
        built = replace(run.traces[ident][0])
        assert built.scheduled_start() is not None
        for trace in (guard_only, built):
            assert np.shares_memory(trace.tag_schedule, first.tag_schedule)

    def test_other_schedules_get_a_private_copy(self, four_identity_run):
        batch = four_identity_run.traces["n0"]
        trace = batch[0]
        start, n = trace.scheduled_start(), trace.samples.size
        uneven = trace.tag_schedule.copy()
        uneven[start + 128] = 1  # tag 1's block one sample longer, tag 2's shorter
        stray = trace.tag_schedule.copy()
        stray[start + 5] = 3
        cut_off = np.zeros(n, dtype=np.int16)
        cut_off[n - 100:] = trace.tag_schedule[start:start + 100]
        rows = np.stack([uneven, stray, cut_off])
        odd = replace(batch, t_s=batch.t_s[:3], samples=batch.samples[:3], tag_schedule=rows)
        self._check_rows(odd)
        for k, row in enumerate(rows):
            for got in (odd[k], replace(trace, tag_schedule=row)):
                np.testing.assert_array_equal(got.tag_schedule, row)
                assert got.scheduled_start() == np.flatnonzero(row)[0]
                for other in (trace.tag_schedule, odd.tag_schedule, row):
                    assert not np.shares_memory(got.tag_schedule, other)

    def test_cached_layout_is_read_only(self):
        layout = _tag_layout(64, 8, 4, 2560)
        assert not layout.flags.writeable
        with pytest.raises(ValueError):
            layout[0] = 1
        np.testing.assert_array_equal(layout[2560:2560 + 512], np.repeat([1, 2, 3, 4], 128))
        assert not layout[:2560].any() and not layout[2560 + 512:].any()

    def test_kept_traces_hold_only_their_samples(self):
        """Taking every row of a 60 s batch allocates the samples and at
        most 1 KiB more per trace; tracemalloc sees numpy's data."""
        batch = simulate_scenario(make_scenario(FOUR_ID_SPECS, horizon_s=60.0), 42).traces["n0"]
        tracemalloc.start()
        try:
            traces = [batch[k] for k in range(len(batch))]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traces) == 100
        assert held <= len(traces) * (batch.samples[0].nbytes + 1024)


class TestExtract:
    def _expected(self, streams):
        return {ident: oracle.signatures(traces, 9) for ident, traces in streams.items()}

    def test_fixture_covers_every_degraded_path(self, degraded_run):
        _, streams = degraded_run
        rejected = degenerate = 0
        for traces in streams.values():
            for trace in traces:
                start, _, _ = oracle.segment(trace.samples, trace.tag_code, 8, 9)
                if start is None:
                    rejected += 1
                elif not oracle.build_signature(trace.samples, start, trace.tag_code,
                                                8, trace.n_tags).any():
                    degenerate += 1
        assert rejected >= len(OUTAGE) and degenerate >= 2
        periods, _, _ = oracle.signatures(next(iter(streams.values())), 9)
        assert np.diff(periods).max() > 2 * PROFILE_LEN

    def test_signatures_match_per_trace_oracle(self, degraded_run):
        run, streams = degraded_run
        traces = {i: trace_batch(ts) for i, ts in streams.items()}
        got = extract_signatures(ScenarioRun(traces, run.true_sources, run.seed))
        expected = self._expected(streams)
        assert list(got.periods) == [i for i, e in expected.items() if e[0]]
        for ident, (periods, raw, normed) in expected.items():
            if not periods:
                continue
            np.testing.assert_array_equal(got.periods[ident], periods)
            np.testing.assert_array_equal(got.raw[ident], np.vstack(raw))
            np.testing.assert_array_equal(got.signatures[ident], np.vstack(normed))

    def test_uneven_tag_blocks(self):
        # 3 and 5 tags split 64 code bits unevenly
        for n_tags in (3, 5):
            config = make_scenario((("r0", ("n0",), (1.0, 0.4), None),),
                                   n_tags=n_tags, horizon_s=9.0)
            run = simulate_scenario(config, 21)
            got = extract_signatures(run)
            traces = list(run.traces["n0"])
            periods, raw, _ = oracle.signatures(traces, 9)
            assert len(periods) == len(traces)
            np.testing.assert_array_equal(got.periods["n0"], periods)
            np.testing.assert_array_equal(got.raw["n0"], np.vstack(raw))

    def test_streams_must_be_trace_batches(self):
        # nothing stacks loose traces: a tuple or list stream is a
        # ShapeError naming its identity, one layout or mixed
        config = make_scenario((("r0", ("n0",), (1.0, 0.4), None),), horizon_s=9.0)
        traces = list(simulate_scenario(config, 21).traces["n0"])
        longer = replace(traces[6], samples=np.pad(traces[6].samples, (0, 40)),
                         tag_schedule=np.pad(traces[6].tag_schedule, (0, 40)))
        for stream in (tuple(traces), traces, tuple(traces[:6] + [longer] + traces[7:])):
            with pytest.raises(ShapeError, match=r"identity 'n0': traces must be a "
                                                 rf"TraceBatch, got {type(stream).__name__}"):
                extract_signatures(ScenarioRun({"n0": stream}, {"n0": "r0"}, 21))

    @settings(max_examples=30, deadline=None)
    @given(exponent=st.integers(-60, 60), which=st.integers(0, 3))
    def test_power_of_two_scaling_keeps_signatures(self, degraded_run, exponent, which):
        """Scaling every sample by 2^e scales each lag, mean and norm
        exactly, so the kept rows and the unit signatures keep their bits."""
        _, streams = degraded_run
        batch = trace_batch(list(streams.values())[which])
        scaled = replace(batch, samples=batch.samples * 2.0 ** exponent)
        kept, _, unit = signature_rows(batch)
        kept_scaled, _, unit_scaled = signature_rows(scaled)
        assert kept.size < len(batch)
        assert kept_scaled.tobytes() == kept.tobytes()
        assert unit_scaled.tobytes() == unit.tobytes()

    def test_one_row_calls_match_per_trace_oracle(self, degraded_run):
        _, streams = degraded_run
        assert _one_trace_outcomes(streams) == {"rejected", "degenerate", "kept"}

    def test_one_trace_calls_run_on_the_trace_samples(self, degraded_run, monkeypatch):
        """The one-trace functions hand the segmentation and extraction
        kernels the trace's own (N,) samples, never a one-row batch."""
        seen = []

        def spy(name, samples_of):
            kernel = getattr(pipeline, name)

            def wrapper(first, *args):
                seen.append((name, samples_of(first)))
                return kernel(first, *args)
            monkeypatch.setattr(pipeline, name, wrapper)

        spy("_fast_segmentation", lambda x: x)
        spy("reflection_rows", lambda trace: trace.samples)
        _, streams = degraded_run
        for traces in streams.values():
            for trace in traces:
                seen.clear()
                try:
                    signature_from_trace(trace)
                except (SegmentationError, DegenerateSignatureError):
                    pass
                assert seen and seen[0][0] == "_fast_segmentation"
                assert all(samples is trace.samples for _, samples in seen)
        assert _one_trace_outcomes(streams) == {"rejected", "degenerate", "kept"}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_rank_gives_the_same_bytes(self, degraded_run, data):
        """_fast_segmentation on (R, N) rows, on each (1, N) row and on each
        (N,) row, and locate_rows on the batch and on each trace, agree to
        the byte.  The last row is one the bound cannot certify, so its 1-D
        call re-runs it through np.correlate and must make its decisions."""
        _, streams = degraded_run
        pool = [trace for traces in streams.values() for trace in traces]
        redone = [t for t in pool if not _fast_segmentation(t.samples, 8, 32, 512)[4]]
        traces = (data.draw(st.lists(st.sampled_from(pool), max_size=5))
                  + [data.draw(st.sampled_from(redone))])
        rows = np.stack([trace.samples for trace in traces])
        batch = _fast_segmentation(rows, 8, 32, 512)
        located = locate_rows(trace_batch(traces))
        for k, trace in enumerate(traces):
            one_row = _fast_segmentation(rows[k:k + 1], 8, 32, 512)
            alone = _fast_segmentation(trace.samples, 8, 32, 512)
            for of_batch, of_row, of_trace in zip(batch, one_row, alone):
                assert np.shape(of_trace) == ()
                assert (of_batch[k].tobytes() == of_row[0].tobytes()
                        == np.asarray(of_trace).tobytes())
            for of_batch, of_trace in zip(located, locate_rows(trace)):
                assert np.shape(of_trace) == ()
                assert of_batch[k].tobytes() == np.asarray(of_trace).tobytes()
        start, _, _ = oracle.segment(trace.samples, trace.tag_code, 8, 9)
        lags = np.correlate(oracle.moving_average(trace.samples, 9),
                            np.repeat(trace.tag_code, 8).astype(np.float64), mode="valid")
        assert locate_rows(trace)[:2] == (np.argmax(lags), start is not None)

    def test_locate_rows_matches_np_correlate(self, degraded_run):
        # the flat plateaus tie many lags, so some rows need np.correlate
        _, streams = degraded_run
        redone = 0
        for traces in streams.values():
            batch = trace_batch(traces)
            starts, decodable, _, _ = locate_rows(batch)
            redone += (~_fast_segmentation(batch.samples, 8, 32, 512)[4]).sum()
            template = np.repeat(traces[0].tag_code, 8).astype(np.float64)
            for k, trace in enumerate(traces):
                start, peak, floor = oracle.segment(trace.samples, trace.tag_code, 8, 9)
                lags = np.correlate(oracle.moving_average(trace.samples, 9), template,
                                    mode="valid")
                assert starts[k] == np.argmax(lags)
                assert decodable[k] == (start is not None)
                if start is None:
                    with pytest.raises(SegmentationError) as err:
                        segment_backscatter(trace)
                    assert str(err.value) == (
                        f"correlation peak {peak:.3e} below decision floor {floor:.3e}")
        assert redone > 0

    def test_scalar_calls_are_rows_of_the_batch(self, degraded_run):
        _, streams = degraded_run
        traces = streams[list(streams)[1]]
        kept, raw, normed = signature_rows(trace_batch(traces))
        by_row = dict(zip(kept.tolist(), range(kept.size)))
        for k, trace in enumerate(traces):
            start, _, _ = oracle.segment(trace.samples, trace.tag_code, 8, 9)
            if start is not None:
                assert segment_backscatter(trace).t_start == start
            if k in by_row:
                sig = signature_from_trace(trace)
                np.testing.assert_array_equal(sig.raw, raw[by_row[k]])
                np.testing.assert_array_equal(sig.normalized, normed[by_row[k]])


class TestWindows:
    @pytest.mark.parametrize("profile_len", [1, 3, 5])
    def test_full_window_ends_match_the_assembler(self, profile_len):
        rng = np.random.default_rng(profile_len * 10)
        # gaps from 1 to past the max age, so windows end exactly at the limit
        gaps = np.where(rng.random(300) < 0.7, 1, rng.integers(1, 4 * profile_len, 300))
        periods = np.cumsum(gaps).tolist()
        assembler = ProfileAssembler("a", profile_len)
        reference = oracle.ProfileAssembler(profile_len)
        sig = MultipathSignature.from_raw([1.0, 2.0, 3.0])
        emitted = [e for e, p in enumerate(periods) if assembler.push(p, sig) is not None]
        expected = [e for e, p in enumerate(periods) if reference.push(p, sig)]
        assert emitted == expected
        np.testing.assert_array_equal(full_window_ends(periods, profile_len), expected)

    @pytest.mark.parametrize("metric,normalized", [
        ("adjusted", True), ("adjusted", False), ("manhattan", True),
        ("euclidean", True), ("chebyshev", True), ("cosine", True), ("cosine", False)])
    def test_dataset_matches_per_pair_oracle(self, degraded_run, metric, normalized):
        run, streams = degraded_run
        scenario = extract_signatures(
            ScenarioRun({i: trace_batch(t) for i, t in streams.items()}, run.true_sources,
                        run.seed))
        ds = build_dataset([scenario], PROFILE_LEN, normalized=normalized, metric=metric)
        oracle_streams = {}
        for ident, traces in streams.items():
            periods, raw, normed = oracle.signatures(traces, 9)
            if periods:
                oracle_streams[ident] = (periods, normed if normalized else raw)
        expected = oracle.dataset_rows(oracle_streams, run.true_sources, PROFILE_LEN,
                                       metric)
        assert len(ds) == len(expected) > 0
        for (_, *fields, row), (*expected_fields, values) in zip(ds.rows(), expected):
            assert fields == expected_fields
            assert type(fields[0]) is int
            np.testing.assert_array_equal(row, values)


class TestOnline:
    def _profiles(self, n, seed=3):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            rows = rng.random((10, 4)) + 0.05
            out.append(SignalProfile.from_rows(f"id{i}", rows / np.linalg.norm(
                rows, axis=1, keepdims=True)))
        # a twin gives exact zeros, a constant profile degenerate centering
        out.append(SignalProfile.from_rows("twin", out[0].signatures))
        out.append(SignalProfile.from_rows("flat", np.tile(out[1].signatures[0], (10, 1))))
        return out

    def test_distance_matrix_matches_pairwise(self):
        profiles = self._profiles(5)
        np.testing.assert_array_equal(distance_matrix(profiles).values,
                                      oracle.distance_matrix(profiles))

    def test_similarity_matrix_matches_pairwise(self):
        distances = distance_matrix(self._profiles(12))
        model = LRModel(weights=np.random.default_rng(4).normal(0.0, 3.0, 10), bias=0.7)
        sims = similarity_matrix(model, distances)
        np.testing.assert_array_equal(sims.probs,
                                      oracle.similarity_probs(model, distances.values))
        assert not np.diag(sims.probs).any()

    @pytest.mark.parametrize("sigma", [0.5, 0.3, 0.9])
    def test_pair_rule_matches_the_double_loop(self, sigma):
        rng = np.random.default_rng(21)
        near = [np.nextafter(sigma, 0.0), sigma, np.nextafter(sigma, 1.0)]
        for n in range(2, 13):
            for _ in range(20):
                # most entries sit exactly at sigma or one ulp off it, so
                # one-sided and two-sided pairs both occur
                probs = np.where(rng.random((n, n)) < 0.7,
                                 rng.choice(near, (n, n)), rng.random((n, n)))
                np.fill_diagonal(probs, 0.0)
                ids = tuple(rng.permutation([f"id{k:02d}" for k in range(n)]).tolist())
                verdict = detect_sybil(SimilarityMatrix(identities=ids, probs=probs), sigma)
                pairs, fake, legit = oracle.pair_rule(ids, probs, sigma)
                assert verdict.sybil_pairs == pairs
                assert verdict.fake_identities == fake
                assert verdict.legit_identities == legit
                assert verdict.threshold == sigma

    def test_loop_objects_match_the_validating_constructors(self, degraded_run):
        """The online loop on the degraded fixture builds its distance and
        similarity matrices and its verdicts without their constructors'
        checks; each equals, byte for byte, what the checking constructor
        makes of the oracle's values."""
        _, streams = degraded_run
        model = LRModel(weights=np.full(PROFILE_LEN, -1.0), bias=3.0)
        assemblers = {ident: ProfileAssembler(ident, PROFILE_LEN) for ident in streams}
        checked = flagged = 0
        for period in range(len(next(iter(streams.values())))):
            profiles = []
            for ident, traces in streams.items():
                try:
                    signature = signature_from_trace(traces[period])
                except (SegmentationError, DegenerateSignatureError):
                    continue
                profile = assemblers[ident].push(period, signature)
                if profile is not None:
                    profiles.append(profile)
            if len(profiles) < 2:
                continue
            distances = distance_matrix(profiles)
            want = DistanceMatrix(identities=[p.identity for p in profiles],
                                  values=oracle.distance_matrix(profiles))
            assert distances.identities == want.identities
            assert distances.values.dtype == want.values.dtype
            assert distances.values.tobytes() == want.values.tobytes()
            assert not distances.values.flags.writeable
            sims = similarity_matrix(model, distances)
            want_sims = SimilarityMatrix(
                identities=want.identities,
                probs=oracle.similarity_probs(model, want.values))
            assert sims.identities == want_sims.identities
            assert sims.probs.tobytes() == want_sims.probs.tobytes()
            assert not sims.probs.flags.writeable
            verdict = detect_sybil(sims)
            pairs, fake, legit = oracle.pair_rule(want_sims.identities,
                                                  want_sims.probs, 0.5)
            want_verdict = Verdict(threshold=0.5, sybil_pairs=frozenset(pairs),
                                   fake_identities=frozenset(fake),
                                   legit_identities=frozenset(legit))
            assert verdict == want_verdict
            checked += 1
            flagged += bool(verdict.sybil_pairs)
        # the fixture reaches both outcomes of the pair rule
        assert checked > 10 and 0 < flagged < checked

    def test_public_constructors_still_validate(self):
        values = np.zeros((2, 2, 3))
        values[0, 0] = 0.1
        with pytest.raises(ParameterError, match="diagonal"):
            DistanceMatrix(identities=("a", "b"), values=values)
        with pytest.raises(ParameterError, match="unique"):
            DistanceMatrix(identities=("a", "a"), values=np.zeros((2, 2, 3)))
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            SimilarityMatrix(identities=("a", "b"),
                             probs=np.array([[0.0, np.nan], [0.2, 0.0]]))
        with pytest.raises(ParameterError, match="diagonal"):
            SimilarityMatrix(identities=("a", "b"),
                             probs=np.array([[0.3, 0.1], [0.2, 0.0]]))
        with pytest.raises(ParameterError, match="both fake and legit"):
            Verdict(threshold=0.5, sybil_pairs=frozenset({("a", "b")}),
                    fake_identities=frozenset({"a", "b"}),
                    legit_identities=frozenset({"b"}))
        with pytest.raises(ParameterError, match="flagged-pair members"):
            Verdict(threshold=0.5, sybil_pairs=frozenset({("a", "b")}),
                    fake_identities=frozenset({"a"}), legit_identities=frozenset())

    def test_distance_matrix_rejects_repeated_identities(self):
        profiles = self._profiles(2)
        with pytest.raises(ParameterError, match="unique"):
            distance_matrix([profiles[0], profiles[1], profiles[0]])

    def test_nan_score_is_rejected(self):
        # a score of inf - inf is NaN in any summation order; finite weights
        # reach it by overflow, here infinite distances do
        values = np.zeros((2, 2, 2))
        values[0, 1] = [np.inf, np.inf]
        distances = DistanceMatrix(identities=("a", "b"), values=values)
        model = LRModel(weights=np.array([1.0, -1.0]), bias=0.0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ParameterError, match=r"\[0, 1\]"):
                similarity_matrix(model, distances)

    @pytest.mark.parametrize("profile_len", [3, 10])
    def test_offline_and_online_scores_agree(self, profile_len):
        """predict_scores and similarity_matrix give one vector the same bits."""
        rng = np.random.default_rng(profile_len)
        n = 30  # 870 directed pairs per matrix, 6 matrices
        model = LRModel(weights=rng.normal(0.0, 3.0, profile_len), bias=0.3)
        ids = [f"id{k:02d}" for k in range(n)]
        off = ~np.eye(n, dtype=bool)
        rows, online = [], []
        for scenario in range(6):
            values = rng.random((n, n, profile_len)) * 2.0
            values[~off] = 0.0
            sims = similarity_matrix(model, DistanceMatrix(identities=ids, values=values))
            for i, j in zip(*np.nonzero(off)):
                rows.append(((scenario,), 0, ids[i], ids[j], 0, values[i, j]))
                online.append(sims.probs[i, j])
        dataset = labeled_dataset(rows, {(s,): {i: i for i in ids} for s in range(6)})
        assert predict_scores(model, dataset).tobytes() == np.array(online).tobytes()

    @pytest.mark.parametrize("cls", [DistanceMatrix, SimilarityMatrix, LRModel,
                                     MultipathSignature, SignalProfile, TagLayout,
                                     Trajectory, ReceivedTrace, TraceBatch],
                             ids=lambda cls: cls.__name__)
    def test_constructors_copy_the_callers_arrays(self, cls):
        """The validating constructors freeze a copy; only the loop's
        prevalidated objects take the arrays they are given."""
        unit = np.array([0.6, 0.8])
        trace = dict(identity="n0", true_source_id="r0", sample_rate_hz=1.0,
                     tag_code=np.tile(np.array([1, 0], dtype=np.uint8), 7),
                     samples_per_bit=5, n_tags=2)
        kwargs = {  # every array already in its stored dtype
            DistanceMatrix: dict(identities=("a", "b"), values=np.zeros((2, 2, 3))),
            SimilarityMatrix: dict(identities=("a", "b"),
                                   probs=np.array([[0.0, 0.2], [0.3, 0.0]])),
            LRModel: dict(weights=np.array([1.0, 2.0]), bias=0.5),
            MultipathSignature: dict(raw=unit.copy(), normalized=unit.copy()),
            SignalProfile: dict(identity="n0", signatures=np.array([unit, unit]),
                                mean_vector=unit.copy()),
            TagLayout: dict(tag_positions=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            ring_radius_m=1.0),
            Trajectory: dict(waypoints=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
                             speed_mps=1.0),
            ReceivedTrace: dict(trace, t_s=0.0, samples=np.ones(72),
                                tag_schedule=np.zeros(72, dtype=np.int16)),
            TraceBatch: dict(trace, t_s=np.zeros(2), samples=np.ones((2, 72)),
                             tag_schedule=np.zeros((2, 72), dtype=np.int16)),
        }[cls]
        obj = cls(**kwargs)
        arrays = {name: a for name, a in kwargs.items() if isinstance(a, np.ndarray)}
        for name, given in arrays.items():
            own = getattr(obj, name)
            assert given.flags.writeable and not own.flags.writeable, name
            assert not np.shares_memory(own, given), name
        assert len(arrays) >= 1


class TestDigests:
    """Dataset digests of the per-trace code on the 2 x 30 s default corpus."""

    @pytest.fixture(scope="class")
    def corpus(self):
        spec = replace(DEFAULT_CORPUS_SPEC, n_scenarios=2, horizon_s=30.0)
        return build_corpus(spec, DEFAULT_SEED)

    @pytest.mark.parametrize("options,digest", [
        ({}, "f5191fa0c9b12ac8ed74648c29b3fee34eb83440877930c9678d665d9af9bce6"),
        ({"normalized": False},
         "e99b24f1d717d9ff35a58695b7989feecda2f0f854008d3a8b583dca5c8960e4"),
        ({"metric": "cosine"},
         "93ab3b6d61d1cb08f044465a99274be4f93c32154cd041d7e832b9a654c77d09"),
    ])
    def test_digest_pinned(self, corpus, options, digest):
        configs, seeds = corpus
        ds = generate_dataset(configs, seeds, n_tags=4, profile_len=10, **options)
        assert dataset_digest(ds) == digest

    def test_every_row_is_certified(self, corpus):
        """No stock row needs np.correlate: a change that sends them there
        fails here, not only in the benchmark's timings."""
        rows = 0
        for config, seed in zip(*corpus):
            for batch in simulate_scenario(config, seed).traces.values():
                *_, certified = _fast_segmentation(
                    batch.samples, batch.samples_per_bit, (batch.tag_code.size + 1) // 2,
                    batch.tag_code.size * batch.samples_per_bit)
                assert certified.all()
                rows += len(batch)
        assert rows == 500
