"""The benchmark's three workloads, their inputs and their output checks.

Every workload runs on the DEFAULT_CORPUS_SPEC shape (K=4 tags, L=10,
20 dB SNR, power scaling, parallel hard pairs); only the scenario count
and the horizon are reduced (SIZES).  Each has two inputs built in set-up:

- ``ref``: the corpus of the reference seed (harness.DEFAULT_SEED), whose
  outputs are recorded in reference.json and whose detection quality the
  benchmark reports, so quality compares like with like on every run;
- ``seed``: the corpus of the workload seed given on the command line.

A pass is one run of a workload over one input.  cv_train and
signal_ingest call the library's entry points (generate_dataset,
cross_validate); traced passes call the same ones with the layer functions
they use wrapped in spans (harness_spans).  online_detect's robot loop is
the benchmark's own and opens its spans itself.
"""

from __future__ import annotations

import contextlib
import hashlib
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from unittest import mock

import numpy as np

from sybilscatter import (
    DegenerateSignatureError,
    LabeledDataset,
    ProfileAssembler,
    ReceivedTrace,
    SegmentationError,
    build_corpus,
    cross_validate,
    detect_sybil,
    distance_matrix,
    evaluate,
    generate_dataset,
    harness,
    rank_auroc,
    signature_from_trace,
    similarity_matrix,
    simulate_scenario,
)
from sybilscatter.fileio import read_model_json
from sybilscatter.harness import (
    DEFAULT_CORPUS_SPEC,
    DEFAULT_SEED as REFERENCE_SEED,
    dataset_digest,
)
from sybilscatter.pipeline import DEFAULT_PROFILE_LEN

BENCH_DIR = Path(__file__).resolve().parent
MODEL_PATH = BENCH_DIR / "model.json"

# Corpus master seed of the fixed online model.  Workload seeds must differ
# from it, so the model never sees the corpus it is scored on.
MODEL_SEED = 19120461
MODEL_SCENARIOS = 8

PROFILE_LEN = DEFAULT_PROFILE_LEN
N_TAGS = DEFAULT_CORPUS_SPEC.n_tags
SIGMA = 0.5

# online_detect degradation: shares of announcements lost or replaced by a
# noise-only trace, and one outage per scenario longer than the
# ProfileAssembler's max age (2 L periods), so its window reset runs.
DROP_SHARE = 0.03
NOISE_SHARE = 0.03
OUTAGE_EXTRA_MAX = 5

# (scenarios, horizon in s) per workload.  cv_train and signal_ingest use a
# third of the default horizon so that one pass takes a few seconds on a
# 2-core box and a run repeats it several times; online_detect keeps the
# full horizon, which its outage of more than 2 L periods needs.  ``tiny``
# is for the benchmark's own tests.
SIZES = {
    "full": {"cv_train": (8, 20.0), "signal_ingest": (8, 20.0),
             "online_detect": (5, 60.0)},
    "tiny": {"cv_train": (2, 30.0), "signal_ingest": (2, 30.0),
             "online_detect": (2, 30.0)},
}
K_FOLDS = 2


@dataclass(frozen=True)
class Corpus:
    configs: list
    seeds: list
    master_seed: int


def corpus_spec(workload: str, size: str):
    n_scenarios, horizon_s = SIZES[size][workload]
    return replace(DEFAULT_CORPUS_SPEC, n_scenarios=n_scenarios, horizon_s=horizon_s)


def build_inputs(workload, seed, size, tracer):
    """{"ref": Corpus, "seed": Corpus}, each from its own master seed."""
    spec = corpus_spec(workload, size)
    inputs = {}
    for which, master in (("ref", REFERENCE_SEED), ("seed", seed)):
        with tracer.span("corpus.build"):
            configs, seeds = build_corpus(spec, master)
        inputs[which] = Corpus(configs, seeds, master)
    return inputs


def truth_counts(configs) -> dict:
    """Sample and identity counts the harness must produce when no trace is lost.

    Every identity of a scenario gets a full window at periods L-1 .. P-1,
    and every ordered identity pair yields one sample per shared window.
    The corpus geometry keeps every clean trace above the segmentation
    floor, so on these corpora no trace may be lost.
    """
    out = Counter()
    for config in configs:
        sources = config.true_sources()
        windows = config.n_periods - PROFILE_LEN + 1
        for ident, src in sources.items():
            same = sum(1 for other, s in sources.items() if other != ident and s == src)
            out["samples_pos"] += same * windows
            out["samples_neg"] += (len(sources) - 1 - same) * windows
            out["n_fake" if same else "n_legit"] += 1
    return dict(out)


def dataset_outputs(dataset) -> dict:
    labels = dataset.labels()
    pos = int(labels.sum())
    return {"dataset_digest": dataset_digest(dataset),
            "samples_pos": pos, "samples_neg": int(labels.size - pos)}


# ------------------------------------------------------------------ spans

# harness module globals that generate_dataset and cross_validate call,
# and the span each call is timed in
HARNESS_SPANS = {
    "simulate_scenario": "scenario.simulate",
    "extract_signatures": "pipeline.extract",
    "build_dataset": "harness.dataset",
    "kfold_split": "harness.split",
    "train_mwle": "detector.train",
    "predict_scores": "harness.score",
    "metrics_from_scores": "harness.aggregate",
}
# LabeledDataset methods cross_validate calls, and their span
DATASET_SPANS = {
    "subset": "harness.subset",
    "training_samples": "harness.subset",
}


def n_traces(run) -> int:
    return sum(len(t) for t in run.traces.values())


def _count(counts):
    """{harness name: callback(args, result)} that fills the per-layer counts."""
    def simulated(args, run):
        counts["scenario.traces"] += n_traces(run)

    def extracted(args, scenario):
        counts["pipeline.rejected"] += n_traces(args[0]) - sum(
            len(p) for p in scenario.periods.values())

    def split(args, folds):
        counts["harness.folds"] += sum(1 for _, test in folds if test.size)

    def trained(args, model):
        counts["detector.train_calls"] += 1
        counts["detector.train_samples"] += len(args[0])

    return {"simulate_scenario": simulated, "extract_signatures": extracted,
            "kfold_split": split, "train_mwle": trained}


def _in_span(fn, name, tracer, counted=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counted is not None:
            counted(args, result)
        return result
    return wrapper


@contextlib.contextmanager
def harness_spans(tracer, counts):
    """Time every call the harness entry points make into the layers.

    generate_dataset and cross_validate look the functions of HARNESS_SPANS
    up in harness's module globals, and the methods of DATASET_SPANS on
    LabeledDataset, at call time.  While tracing, this swaps each for a
    wrapper that opens a span around the original call, so a traced pass
    runs the very same entry points in the same order.  The wrappers also
    count traces, rejected traces, folds and training samples.  With tracing
    off nothing is patched.
    """
    if not tracer.enabled:
        yield
        return
    counters = _count(counts)
    with contextlib.ExitStack() as stack:
        for name, span in HARNESS_SPANS.items():
            wrapped = _in_span(getattr(harness, name), span, tracer, counters.get(name))
            stack.enter_context(mock.patch.object(harness, name, wrapped))
        for name, span in DATASET_SPANS.items():
            wrapped = _in_span(getattr(LabeledDataset, name), span, tracer)
            stack.enter_context(mock.patch.object(LabeledDataset, name, wrapped))
        yield


# ------------------------------------------------------------------ ingest

def ingest(corpus: Corpus):
    return generate_dataset(corpus.configs, corpus.seeds, n_tags=N_TAGS,
                            profile_len=PROFILE_LEN)


class SignalIngest:
    """generate_dataset alone: simulate, extract, window and distance."""

    name = "signal_ingest"

    def setup(self, seed, size, tracer, counts):
        return {"inputs": build_inputs(self.name, seed, size, tracer),
                "model": read_model_json(MODEL_PATH)}

    def run_pass(self, state, which, tracer, counts, latencies):
        with harness_spans(tracer, counts):
            return ingest(state["inputs"][which])

    def operations(self, artifacts):
        """(attempted, failed) operations of one pass: here the pass itself."""
        return 1, 0

    def outputs(self, dataset) -> dict:
        return dataset_outputs(dataset)

    def oracle(self, state, which) -> dict:
        truth = truth_counts(state["inputs"][which].configs)
        return {k: truth[k] for k in ("samples_pos", "samples_neg")}

    def quality(self, state, dataset):
        """Held-out AUROC and FPR of the fixed model on this dataset."""
        report = evaluate(state["model"], dataset, SIGMA)
        return report.auroc, report.fpr


# ------------------------------------------------------------------ cv_train

class CvTrain(SignalIngest):
    """generate_dataset, then scenario-grouped cross_validate."""

    name = "cv_train"

    def setup(self, seed, size, tracer, counts):
        return {"inputs": build_inputs(self.name, seed, size, tracer)}

    def run_pass(self, state, which, tracer, counts, latencies):
        corpus = state["inputs"][which]
        with harness_spans(tracer, counts):
            dataset = ingest(corpus)
            report = cross_validate(dataset, k=K_FOLDS, seed=corpus.master_seed,
                                    sigma=SIGMA)
        return dataset, report

    def outputs(self, artifacts) -> dict:
        dataset, report = artifacts
        out = dataset_outputs(dataset)
        out.update(auroc=report.auroc, tpr=report.tpr, fpr=report.fpr,
                   n_fake=report.n_fake, n_legit=report.n_legit)
        return out

    def oracle(self, state, which) -> dict:
        return truth_counts(state["inputs"][which].configs)

    def quality(self, state, artifacts):
        _, report = artifacts
        return report.auroc, report.fpr


# ------------------------------------------------------------------ online

@dataclass(frozen=True)
class Stream:
    """One scenario as the receiving robot sees it, period by period."""

    identities: tuple
    fake: frozenset  # ground truth: identities sharing a transmitter
    n_periods: int
    traces: dict  # identity -> [ReceivedTrace or None (lost)] per period
    noise: dict  # identity -> [True where the trace carries no tag code]


def noise_trace(trace: ReceivedTrace, ambient_w: float, rng) -> ReceivedTrace:
    """An announcement received without tag modulation: ambient plus noise."""
    sigma = float(trace.samples.std())
    samples = np.maximum(ambient_w + rng.normal(0.0, sigma, trace.samples.size), 0.0)
    return ReceivedTrace(
        identity=trace.identity, true_source_id=trace.true_source_id,
        t_s=trace.t_s, sample_rate_hz=trace.sample_rate_hz, samples=samples,
        tag_schedule=np.zeros_like(trace.tag_schedule), tag_code=trace.tag_code,
        samples_per_bit=trace.samples_per_bit, n_tags=trace.n_tags)


def degrade(config, run, rng) -> Stream:
    """Lose, blank out and black out announcements, all drawn from rng."""
    n_periods = config.n_periods
    outage = 2 * PROFILE_LEN + 1 + int(rng.integers(0, OUTAGE_EXTRA_MAX))
    start = int(rng.integers(PROFILE_LEN, n_periods - outage - PROFILE_LEN + 1))
    traces, noise = {}, {}
    for ident in config.identities:
        kept, blank = [], []
        draws = rng.random(n_periods)
        for period, trace in enumerate(run.traces[ident]):
            u = draws[period]
            if start <= period < start + outage or u < DROP_SHARE:
                kept.append(None)
                blank.append(False)
            elif u < DROP_SHARE + NOISE_SHARE:
                kept.append(noise_trace(trace, config.ambient_w, rng))
                blank.append(True)
            else:
                kept.append(trace)
                blank.append(False)
        traces[ident] = kept
        noise[ident] = blank
    sources = config.true_sources()
    fake = frozenset(i for i, s in sources.items()
                     if sum(1 for t in sources.values() if t == s) > 1)
    return Stream(identities=config.identities, fake=fake, n_periods=n_periods,
                  traces=traces, noise=noise)


@dataclass
class Replay:
    """What one pass over the streams produced."""

    records: list  # (stream index, period, SimilarityMatrix, Verdict)
    counts: Counter
    attempted: int = 0
    failed: int = 0


def replay(streams, model, tracer, latencies) -> Replay:
    """Run the receiving robot over every period of every stream.

    A period is one operation.  It fails when anything raises other than
    the expected rejection of a trace, when a noise-only trace is accepted
    or when a clean trace is rejected.
    """
    span = tracer.span
    out = Replay(records=[], counts=Counter())
    counts = out.counts
    for index, stream in enumerate(streams):
        assemblers = {i: ProfileAssembler(i, PROFILE_LEN) for i in stream.identities}
        for period in range(stream.n_periods):
            t0 = perf_counter()
            ok = True
            try:
                with span("online.period"):
                    profiles = []
                    for ident in stream.identities:
                        trace = stream.traces[ident][period]
                        if trace is None:
                            continue
                        blank = stream.noise[ident][period]
                        try:
                            with span("pipeline.signature"):
                                signature = signature_from_trace(trace)
                        except (SegmentationError, DegenerateSignatureError):
                            counts["pipeline.rejected"] += 1
                            ok = ok and blank
                            continue
                        ok = ok and not blank
                        with span("pipeline.push"):
                            profile = assemblers[ident].push(period, signature)
                        if profile is not None:
                            counts["pipeline.full_windows"] += 1
                            profiles.append(profile)
                    if len(profiles) >= 2:
                        with span("distance.matrix"):
                            distances = distance_matrix(profiles)
                        with span("detector.similarity"):
                            similarities = similarity_matrix(model, distances)
                        with span("detector.verdict"):
                            verdict = detect_sybil(similarities, SIGMA)
                        counts["distance.pairs"] += len(profiles) * (len(profiles) - 1)
                        out.records.append((index, period, similarities, verdict))
            except Exception:  # noqa: BLE001 - a failed operation, counted below
                ok = False
            latencies.append(perf_counter() - t0)
            out.attempted += 1
            out.failed += not ok
    return out


class OnlineDetect:
    """The receiving robot, replayed period by period against a fixed model."""

    name = "online_detect"

    def setup(self, seed, size, tracer, counts):
        inputs = build_inputs(self.name, seed, size, tracer)
        streams = {}
        for which, corpus in inputs.items():
            rng = np.random.default_rng([corpus.master_seed, 1])
            streams[which] = []
            for config, sim_seed in zip(corpus.configs, corpus.seeds):
                with tracer.span("scenario.simulate"):
                    run = simulate_scenario(config, sim_seed)
                counts["scenario.traces"] += n_traces(run)
                streams[which].append(degrade(config, run, rng))
        return {"streams": streams, "model": read_model_json(MODEL_PATH)}

    def run_pass(self, state, which, tracer, counts, latencies):
        result = replay(state["streams"][which], state["model"], tracer, latencies)
        counts.update(result.counts)
        return result

    def operations(self, result: Replay):
        return result.attempted, result.failed

    def outputs(self, result: Replay) -> dict:
        digest = hashlib.sha256()
        for index, period, _, verdict in result.records:
            digest.update(repr((index, period, sorted(verdict.sybil_pairs),
                                sorted(verdict.fake_identities),
                                sorted(verdict.legit_identities))).encode())
        return {"verdict_digest": digest.hexdigest(),
                "verdicts": len(result.records),
                "rejected": result.counts["pipeline.rejected"],
                "full_windows": result.counts["pipeline.full_windows"]}

    def oracle(self, state, which) -> dict:
        """Nothing beyond replay's own per-period checks."""
        return {}

    def quality(self, state, result: Replay):
        """Per (period, identity) AUROC and FPR of the online verdicts.

        An identity's score is its best conjunctive pair score
        max_j min(p_ij, p_ji), the harness's ROC convention.
        """
        streams = state["streams"]["ref"]
        pos, neg = [], []
        false_flags = 0
        for index, _, similarities, verdict in result.records:
            probs = similarities.probs
            scores = np.minimum(probs, probs.T).max(axis=1)
            fake = streams[index].fake
            for ident, score in zip(similarities.identities, scores):
                if ident in fake:
                    pos.append(score)
                else:
                    neg.append(score)
                    false_flags += ident in verdict.fake_identities
        return rank_auroc(pos, neg), false_flags / len(neg)


WORKLOADS = {w.name: w for w in (CvTrain(), SignalIngest(), OnlineDetect())}
