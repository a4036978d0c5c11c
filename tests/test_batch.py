"""Batched kernels against their one-at-a-time oracles, bit for bit.

The simulator, the signal pipeline, the windowing and the distances work
on one array per identity.  These tests hold them to the per-trace,
per-window and per-pair forms in oracle.py on a seeded corpus scenario
that is degraded with noise-only announcements (lost periods), an outage
longer than the 2 L window age, and degenerate announcements that segment
but reflect on no tag.  The digest pins come from the per-trace code.
"""

from dataclasses import replace

import numpy as np
import pytest

import oracle
from conftest import make_scenario
from sybilscatter import (
    ChannelParams,
    LRModel,
    MultipathSignature,
    ProfileAssembler,
    ReceivedTrace,
    ScenarioRun,
    SignalProfile,
    build_corpus,
    build_dataset,
    distance_matrix,
    extract_signatures,
    generate_dataset,
    segment_backscatter,
    signature_from_trace,
    similarity_matrix,
    simulate_scenario,
    trace_seeds,
)
from sybilscatter.harness import DEFAULT_CORPUS_SPEC, DEFAULT_SEED, dataset_digest
from sybilscatter.pipeline import full_window_ends, signature_rows
from sybilscatter.scenario import TraceBatch, reflected_powers

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


def _batch(traces):
    """The validated constructor, as a caller with its own arrays would use it."""
    first = traces[0]
    return TraceBatch(
        identity=first.identity, true_source_id=first.true_source_id,
        t_s=[t.t_s for t in traces], sample_rate_hz=first.sample_rate_hz,
        samples=np.stack([t.samples for t in traces]),
        tag_schedule=np.stack([t.tag_schedule for t in traces]),
        tag_code=first.tag_code, samples_per_bit=first.samples_per_bit,
        n_tags=first.n_tags)


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

    @pytest.mark.parametrize("as_batch", [True, False])
    def test_signatures_match_per_trace_oracle(self, degraded_run, as_batch):
        run, streams = degraded_run
        traces = {i: _batch(ts) if as_batch else tuple(ts) for i, ts in streams.items()}
        got = extract_signatures(ScenarioRun(traces, run.true_sources, run.seed))
        expected = self._expected(streams)
        assert list(got.periods) == [i for i, e in expected.items() if e[0]]
        for ident, (periods, raw, normed) in expected.items():
            if not periods:
                continue
            np.testing.assert_array_equal(got.periods[ident], periods)
            np.testing.assert_array_equal(got.raw[ident], np.vstack(raw))
            np.testing.assert_array_equal(got.signatures[ident], np.vstack(normed))

    def test_mixed_lengths_and_uneven_tag_blocks(self):
        # 3 and 5 tags split 64 code bits unevenly; a longer trace in the
        # middle of the stream splits it into runs of one layout
        for n_tags in (3, 5):
            config = make_scenario((("r0", ("n0",), (1.0, 0.4), None),),
                                   n_tags=n_tags, horizon_s=9.0)
            traces = list(simulate_scenario(config, 21).traces["n0"])
            traces[6] = replace(traces[6], samples=np.pad(traces[6].samples, (0, 40)),
                                tag_schedule=np.pad(traces[6].tag_schedule, (0, 40)))
            got = extract_signatures(ScenarioRun({"n0": tuple(traces)}, {"n0": "r0"}, 21))
            periods, raw, _ = oracle.signatures(traces, 9)
            assert len(periods) == len(traces)
            np.testing.assert_array_equal(got.periods["n0"], periods)
            np.testing.assert_array_equal(got.raw["n0"], np.vstack(raw))

    def test_scalar_calls_are_rows_of_the_batch(self, degraded_run):
        _, streams = degraded_run
        traces = streams[list(streams)[1]]
        kept, raw, normed = signature_rows(_batch(traces))
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
            ScenarioRun({i: tuple(t) for i, t in streams.items()}, run.true_sources,
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
        for sample, (window, i, j, label, values) in zip(ds.samples, expected):
            assert (sample.window, sample.from_identity, sample.to_identity,
                    sample.label) == (window, i, j, label)
            assert type(sample.window) is int
            np.testing.assert_array_equal(sample.values, values)


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
