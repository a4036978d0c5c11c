"""Evaluation harness: datasets, cross-validation, metrics, experiments.

Glues the simulator, signal pipeline, distances, and detector into the
experiments: labeled distance datasets from scenario corpora, scenario-
grouped k-fold cross-validation, robot-level metrics with ROC/AUROC, the
profile-size sweep, the normalization ablation, and the distance-metric
comparison.

Metric conventions: verdicts and TPR/FPR/accuracy are counted at robot
level, once per (scenario, identity).  The score of an identity for ROC
purposes is the best conjunctive pair score max_j min(s_ij, s_ji), which
flags the identity at threshold sigma exactly when the pair rule does.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .corpus import CorpusSpec, build_corpus, with_power_scaling
from .detector import (
    LRModel,
    SimilarityMatrix,
    TrainingConfig,
    TrainingSample,
    compute_class_weights,
    detect_sybil,
    sigmoid,
    train_mwle,
)
from .distance import BASELINE_METRICS, adjusted_distances, baseline_distances
from .errors import (
    ConfigError,
    MetricsUndefinedError,
    ParameterError,
    ShapeError,
)
from .pipeline import (
    DEFAULT_PROFILE_LEN,
    DEFAULT_SMOOTHING_WINDOW,
    full_window_ends,
    signature_rows,
    trace_batches,
    window_rows,
)
from .scenario import prevalidated, scenario_to_dict, simulate_scenario

ADJUSTED_METRIC = "adjusted"
DATASET_METRICS = (ADJUSTED_METRIC,) + BASELINE_METRICS
N_ROC_THRESHOLDS = 201
DEFAULT_K_FOLDS = 10
DEFAULT_SEED = 1234

# Headline corpus for the end-to-end evaluation.
DEFAULT_CORPUS_SPEC = CorpusSpec()

# Harder corpus for the metric comparison: every scenario contains a
# colocated pair, two robots roaming the same narrow bearing sector.
# Their absolute signature directions nearly coincide, so metrics that
# ignore the variation around the profile mean misflag them.
COMPARE_CORPUS_SPEC = CorpusSpec(
    n_scenarios=10,
    horizon_s=30.0,
    hard_pair_fraction=1.0,
    hard_pair_style="colocated",
)

# Corpus for the sweep and ablation experiments.  Every scenario carries a
# mirror hard pair: with 2 tags the mirrored twin is geometrically
# indistinguishable from its partner, so small tag arrays and short
# profiles measurably underperform.  The shorter horizon keeps the many
# cross-validated cells fast.
EXPERIMENT_CORPUS_SPEC = CorpusSpec(
    n_scenarios=12,
    horizon_s=30.0,
    hard_pair_fraction=1.0,
    hard_pair_style="mirror",
)


@dataclass(frozen=True)
class DatasetSample:
    """One labeled directed distance vector, traceable to its origin."""

    scenario_key: tuple
    window: int
    from_identity: str
    to_identity: str
    label: int
    values: np.ndarray

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ParameterError(f"label must be 0 or 1, got {self.label!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ShapeError(f"values must be a nonempty 1-D vector, got {vals.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "scenario_key", tuple(self.scenario_key))
        object.__setattr__(self, "label", int(self.label))


@dataclass(frozen=True)
class LabeledDataset:
    """Distance samples plus the ground truth needed to score them."""

    samples: tuple
    sources: dict  # scenario_key -> {identity: true_source_id}
    provenance: dict

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))

    def __len__(self):
        return len(self.samples)

    @property
    def profile_len(self) -> int:
        return int(self.provenance["profile_len"])

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def features(self) -> np.ndarray:
        return np.vstack([s.values for s in self.samples]) if self.samples \
            else np.empty((0, self.profile_len))

    def positive_fraction(self) -> float:
        return float(self.labels().mean()) if self.samples else 0.0

    def scenario_keys(self) -> tuple:
        seen = dict.fromkeys(s.scenario_key for s in self.samples)
        return tuple(seen)

    def subset(self, indices) -> "LabeledDataset":
        picked = tuple(self.samples[int(i)] for i in indices)
        keys = set(s.scenario_key for s in picked)
        return LabeledDataset(
            samples=picked,
            sources={k: v for k, v in self.sources.items() if k in keys},
            provenance=dict(self.provenance),
        )

    def training_samples(self, class_weights=None) -> list:
        if class_weights is None:
            class_weights = compute_class_weights(self.labels())
        return [TrainingSample(distance=s.values, label=s.label,
                               weight=class_weights[s.label])
                for s in self.samples]


def config_digest(configs) -> str:
    """Stable hash of a scenario list, for dataset provenance."""
    payload = json.dumps([scenario_to_dict(c) for c in configs], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def dataset_digest(dataset: LabeledDataset) -> str:
    """Content hash of every sample, for determinism checks."""
    h = hashlib.sha256()
    for s in dataset.samples:
        h.update(repr((s.scenario_key, s.window, s.from_identity,
                       s.to_identity, s.label)).encode())
        h.update(s.values.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ScenarioSignatures:
    """Signature streams of one simulated scenario, ground truth included.

    Per identity with at least one valid signature: the increasing period
    indices that have one, and the aligned (n, K) rows of normalized and of
    raw signatures.
    """

    scenario_key: tuple
    sources: dict  # identity -> true_source_id, full map from the simulator
    periods: dict  # identity -> int array of period indices with valid signatures
    signatures: dict  # identity -> (n, K) normalized signatures, aligned
    raw: dict  # identity -> (n, K) raw signatures, aligned


def extract_signatures(run, smoothing_window: int = DEFAULT_SMOOTHING_WINDOW,
                       config_index: int = 0) -> ScenarioSignatures:
    """Run every trace of a scenario through the signal pipeline.

    Each identity's traces go through signature_rows as one batch (or one
    per run of equal layout).  Traces that fail segmentation or yield a
    degenerate signature are skipped; their period simply has no entry for
    that identity.
    """
    periods, signatures, raw = {}, {}, {}
    for identity, traces in run.traces.items():
        kept, raw_rows, unit_rows = [], [], []
        for first, batch in trace_batches(traces):
            rows, batch_raw, batch_unit = signature_rows(batch, smoothing_window)
            kept.append(first + rows)
            raw_rows.append(batch_raw)
            unit_rows.append(batch_unit)
        if any(k.size for k in kept):
            periods[identity] = np.concatenate(kept)
            raw[identity] = np.concatenate(raw_rows)
            signatures[identity] = np.concatenate(unit_rows)
    return ScenarioSignatures(
        scenario_key=(int(config_index), int(run.seed)),
        sources=dict(run.true_sources),
        periods=periods,
        signatures=signatures,
        raw=raw,
    )


def corpus_signatures(configs, seeds,
                      smoothing_window: int = DEFAULT_SMOOTHING_WINDOW) -> list:
    """Simulate and extract every scenario of a corpus."""
    if len(configs) != len(seeds):
        raise ParameterError("configs and seeds must be aligned")
    out = []
    for idx, (config, seed) in enumerate(zip(configs, seeds)):
        run = simulate_scenario(config, seed)
        out.append(extract_signatures(run, smoothing_window, config_index=idx))
    return out


def _window_tables(scenario: ScenarioSignatures, profile_len: int, normalized: bool):
    """identity -> (window periods, (W, L, K) windows, (W, K) window means).

    Only identities with at least one full window are listed.
    """
    tables = {}
    for identity, periods in scenario.periods.items():
        rows = scenario.signatures[identity] if normalized else scenario.raw[identity]
        ends = full_window_ends(periods, profile_len)
        if ends.size:
            windows = window_rows(rows, ends, profile_len)
            tables[identity] = (periods[ends], windows, windows.mean(axis=1))
    return tables


def build_dataset(scenarios, profile_len: int = DEFAULT_PROFILE_LEN,
                  normalized: bool = True, metric: str = ADJUSTED_METRIC,
                  provenance: dict | None = None) -> LabeledDataset:
    """Labeled directed distance samples from extracted signature streams.

    For every update period where two identities of a scenario both have a
    full profile window, both directed distance vectors are emitted; the
    label marks whether the identities share a physical source.  Each
    ordered identity pair takes one batched distance call over all of its
    shared windows.
    """
    if metric not in DATASET_METRICS:
        raise ParameterError(f"unknown metric {metric!r}; expected one of {DATASET_METRICS}")
    samples = []
    sources = {}
    for scenario in scenarios:
        key = tuple(scenario.scenario_key)
        tables = _window_tables(scenario, profile_len, normalized)
        idents = [i for i in scenario.periods if i in tables]
        n_before = len(samples)
        for i in idents:
            periods_i, windows_i, means_i = tables[i]
            for j in idents:
                if i == j:
                    continue
                periods_j, windows_j, _ = tables[j]
                shared, at_i, at_j = np.intersect1d(
                    periods_i, periods_j, assume_unique=True, return_indices=True)
                if metric == ADJUSTED_METRIC:
                    values = adjusted_distances(windows_i[at_i], windows_j[at_j],
                                                means_i[at_i])
                else:
                    values = baseline_distances(windows_i[at_i], windows_j[at_j], metric)
                values.flags.writeable = False
                label = int(scenario.sources[i] == scenario.sources[j])
                # fields are well-formed by construction: skip per-sample checks
                samples.extend(
                    prevalidated(DatasetSample, scenario_key=key, window=period,
                                 from_identity=i, to_identity=j, label=label,
                                 values=row)
                    for period, row in zip(shared.tolist(), values))
        if len(samples) == n_before:
            warnings.warn(f"scenario {scenario.scenario_key} produced no samples; skipped")
            continue
        sources[scenario.scenario_key] = dict(scenario.sources)
    info = {
        "profile_len": int(profile_len),
        "normalized": bool(normalized),
        "metric": metric,
    }
    if provenance:
        info.update(provenance)
    return LabeledDataset(samples=tuple(samples), sources=sources, provenance=info)


def generate_dataset(configs, seeds, n_tags: int, profile_len: int,
                     smoothing_window: int = DEFAULT_SMOOTHING_WINDOW,
                     normalized: bool = True,
                     metric: str = ADJUSTED_METRIC) -> LabeledDataset:
    """Full dataset pipeline: simulate, extract, window, label."""
    configs = list(configs)
    seeds = [int(s) for s in seeds]
    if not configs:
        raise ConfigError("need at least one scenario config")
    for config in configs:
        if config.tag_layout.n_tags != n_tags:
            raise ConfigError(
                f"config has {config.tag_layout.n_tags} tags, expected {n_tags}")
    def _mixed(config):
        has_attacker = any(a.is_attacker for a in config.agents)
        has_legit = any(not a.is_attacker for a in config.agents)
        return has_attacker and has_legit
    if not any(_mixed(c) for c in configs):
        raise ConfigError(
            "corpus needs at least one scenario with both an attacker and a "
            "legitimate robot")
    scenarios = corpus_signatures(configs, seeds, smoothing_window)
    provenance = {
        "seeds": tuple(seeds),
        "config_digest": config_digest(configs),
        "n_tags": int(n_tags),
        "smoothing_window": int(smoothing_window),
    }
    return build_dataset(scenarios, profile_len, normalized, metric, provenance)


def kfold_split(dataset: LabeledDataset, k: int, seed: int,
                by_scenario: bool = True) -> list:
    """Disjoint, exhaustive (train, test) index partitions.

    Default mode assigns whole scenarios to folds (no leakage through
    shared trajectories) while greedily balancing positive counts.  With
    by_scenario=False the split is a plain label-stratified partition of
    samples, which supports degenerate cases like leave-one-out.
    """
    n = len(dataset)
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    if by_scenario:
        keys = dataset.scenario_keys()
        if k > len(keys):
            raise ParameterError(f"k={k} exceeds the {len(keys)} scenario groups")
        by_key = {key: [] for key in keys}
        positives = {key: 0 for key in keys}
        for idx, s in enumerate(dataset.samples):
            by_key[s.scenario_key].append(idx)
            positives[s.scenario_key] += s.label
        order = list(keys)
        rng.shuffle(order)
        order.sort(key=lambda key: -positives[key])  # stable: ties keep shuffle order
        fold_keys = [[] for _ in range(k)]
        fold_pos = np.zeros(k)
        fold_tot = np.zeros(k)
        for key in order:
            # fewest positives, then fewest samples, then lowest index
            target = min(range(k), key=lambda f: (fold_pos[f], fold_tot[f], f))
            fold_keys[target].append(key)
            fold_pos[target] += positives[key]
            fold_tot[target] += len(by_key[key])
        tests = [np.array(sorted(i for key in fk for i in by_key[key]), dtype=np.int64)
                 for fk in fold_keys]
    else:
        if k > n:
            raise ParameterError(f"k={k} exceeds the {n} samples")
        labels = dataset.labels()
        pos = np.flatnonzero(labels == 1)
        neg = np.flatnonzero(labels == 0)
        rng.shuffle(pos)
        rng.shuffle(neg)
        dealt = np.concatenate([pos, neg])
        folds = [[] for _ in range(k)]
        for position, idx in enumerate(dealt):
            folds[position % k].append(int(idx))
        tests = [np.array(sorted(f), dtype=np.int64) for f in folds]
    all_idx = np.arange(n, dtype=np.int64)
    out = []
    for test in tests:
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        out.append((all_idx[mask], test))
    return out


@dataclass(frozen=True)
class MetricsReport:
    """Robot-level detection metrics plus the ROC curve behind them."""

    tpr: float
    fpr: float
    accuracy: float
    auroc: float
    roc_points: tuple  # ((fpr, tpr), ...) sorted, endpoints included
    roc_sweep: tuple  # ((threshold, fpr, tpr), ...) over the sigma grid
    n_fake: int
    n_legit: int


def trapezoid_area(points) -> float:
    """Area under a piecewise-linear curve given as (x, y) points."""
    pts = sorted((float(x), float(y)) for x, y in points)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def rank_auroc(pos_scores, neg_scores) -> float:
    """Mann-Whitney AUROC estimate: P(pos > neg) + 0.5 P(pos = neg).

    Computed from tie-averaged ranks; serves as the independent check on
    the trapezoidal value.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise MetricsUndefinedError("rank AUROC needs both classes")
    combined = np.concatenate([pos, neg])
    _, inverse, counts = np.unique(combined, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    avg_rank = (starts + ends) / 2.0
    ranks = avg_rank[inverse]
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def predict_scores(model: LRModel, dataset: LabeledDataset,
                   indices=None) -> np.ndarray:
    """Directed similarity score for each (selected) sample."""
    if indices is None:
        X = dataset.features()
    else:
        X = np.vstack([dataset.samples[int(i)].values for i in indices])
    if X.shape[1] != model.profile_len:
        raise ShapeError(
            f"dataset has L={X.shape[1]} but model expects L={model.profile_len}")
    return sigmoid(X @ model.weights + model.bias)


def _pair_mean_scores(dataset, indices, scores):
    """scenario_key -> {(from, to): mean score over windows}."""
    sums = {}
    counts = {}
    for pos, idx in enumerate(indices):
        s = dataset.samples[int(idx)]
        key = (s.scenario_key, s.from_identity, s.to_identity)
        sums[key] = sums.get(key, 0.0) + float(scores[pos])
        counts[key] = counts.get(key, 0) + 1
    out = {}
    for (scenario_key, i, j), total in sums.items():
        out.setdefault(scenario_key, {})[(i, j)] = total / counts[(scenario_key, i, j)]
    return out


def _scenario_truth(dataset, pair_scores):
    """scenario_key -> {identity: is_fake} over identities present in scores.

    An identity is truly fake when its source is shared with any other
    identity of the scenario, whether or not that sibling produced samples.
    """
    truth = {}
    for scenario_key, pairs in pair_scores.items():
        sources = dataset.sources[scenario_key]
        present = sorted({i for pair in pairs for i in pair})
        by_source = {}
        for ident, src in sources.items():
            by_source.setdefault(src, []).append(ident)
        truth[scenario_key] = {
            ident: len(by_source[sources[ident]]) > 1 for ident in present}
    return truth


def _conjunctive_pair_scores(pairs):
    """{(i, j) unordered: min of the two directed means, missing side = 0}."""
    out = {}
    for i, j in {tuple(sorted(p)) for p in pairs}:
        out[(i, j)] = min(pairs.get((i, j), 0.0), pairs.get((j, i), 0.0))
    return out


def _identity_scores(pair_scores, truth):
    """Per-scenario identity score: best conjunctive pair score."""
    labels = []
    scores = []
    for scenario_key, pairs in pair_scores.items():
        conj = _conjunctive_pair_scores(pairs)
        best = {}
        for (i, j), score in conj.items():
            best[i] = max(best.get(i, 0.0), score)
            best[j] = max(best.get(j, 0.0), score)
        for ident in sorted(best):
            labels.append(1 if truth[scenario_key][ident] else 0)
            scores.append(best[ident])
    return np.array(labels, dtype=np.int64), np.array(scores, dtype=np.float64)


def _verdict_counts(dataset, pair_scores, truth, sigma):
    tp = fp = fn = tn = 0
    for scenario_key, pairs in pair_scores.items():
        idents = sorted({i for pair in pairs for i in pair})
        index = {ident: n for n, ident in enumerate(idents)}
        probs = np.zeros((len(idents), len(idents)))
        for (i, j), score in pairs.items():
            probs[index[i], index[j]] = score
        verdict = detect_sybil(SimilarityMatrix(identities=tuple(idents), probs=probs),
                               sigma)
        for ident in idents:
            flagged = ident in verdict.fake_identities
            if truth[scenario_key][ident]:
                tp += flagged
                fn += not flagged
            else:
                fp += flagged
                tn += not flagged
    return tp, fp, fn, tn


def metrics_from_scores(dataset: LabeledDataset, indices, scores,
                        sigma: float) -> MetricsReport:
    """Aggregate directed sample scores into the robot-level report."""
    indices = np.asarray(indices, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if indices.size == 0:
        raise MetricsUndefinedError("no samples to evaluate")
    pair_scores = _pair_mean_scores(dataset, indices, scores)
    truth = _scenario_truth(dataset, pair_scores)
    tp, fp, fn, tn = _verdict_counts(dataset, pair_scores, truth, sigma)
    n_fake = tp + fn
    n_legit = fp + tn
    if n_fake == 0 or n_legit == 0:
        raise MetricsUndefinedError(
            f"need both robot classes, got {n_fake} fake / {n_legit} legit")
    labels, identity_scores = _identity_scores(pair_scores, truth)
    thresholds = np.linspace(1.0, 0.0, N_ROC_THRESHOLDS)
    flagged = identity_scores[None, :] >= thresholds[:, None]
    pos = labels == 1
    tpr_curve = flagged[:, pos].mean(axis=1)
    fpr_curve = flagged[:, ~pos].mean(axis=1)
    sweep = tuple((float(t), float(f), float(r))
                  for t, f, r in zip(thresholds, fpr_curve, tpr_curve))
    points = {(0.0, 0.0), (1.0, 1.0)}
    points.update((float(f), float(r)) for f, r in zip(fpr_curve, tpr_curve))
    roc_points = tuple(sorted(points))
    return MetricsReport(
        tpr=tp / n_fake,
        fpr=fp / n_legit,
        accuracy=(tp + tn) / (n_fake + n_legit),
        auroc=trapezoid_area(roc_points),
        roc_points=roc_points,
        roc_sweep=sweep,
        n_fake=int(n_fake),
        n_legit=int(n_legit),
    )


def evaluate(model: LRModel, test: LabeledDataset, sigma: float = 0.5) -> MetricsReport:
    """Score a dataset with one model and report robot-level metrics."""
    if not len(test):
        raise MetricsUndefinedError("test set is empty")
    indices = np.arange(len(test))
    scores = predict_scores(model, test)
    return metrics_from_scores(test, indices, scores, sigma)


def scenario_verdicts(model: LRModel, dataset: LabeledDataset,
                      sigma: float = 0.5) -> dict:
    """Per-scenario Sybil verdicts: scenario_key -> Verdict."""
    if not len(dataset):
        raise MetricsUndefinedError("dataset is empty")
    indices = np.arange(len(dataset))
    scores = predict_scores(model, dataset)
    pair_scores = _pair_mean_scores(dataset, indices, scores)
    verdicts = {}
    for scenario_key, pairs in pair_scores.items():
        idents = sorted({i for pair in pairs for i in pair})
        index = {ident: n for n, ident in enumerate(idents)}
        probs = np.zeros((len(idents), len(idents)))
        for (i, j), score in pairs.items():
            probs[index[i], index[j]] = score
        verdicts[scenario_key] = detect_sybil(
            SimilarityMatrix(identities=tuple(idents), probs=probs), sigma)
    return verdicts


def cross_validate(dataset: LabeledDataset, k: int = DEFAULT_K_FOLDS,
                   seed: int = DEFAULT_SEED, sigma: float = 0.5,
                   training: TrainingConfig = TrainingConfig(),
                   by_scenario: bool = True) -> MetricsReport:
    """k-fold cross-validation with pooled out-of-fold scoring.

    Every sample is scored exactly once, by the model of the fold that held
    it out; the pooled scores then flow through the same robot-level
    aggregation as a plain evaluation.
    """
    folds = kfold_split(dataset, k, seed, by_scenario=by_scenario)
    scores = np.full(len(dataset), np.nan)
    for train_idx, test_idx in folds:
        if test_idx.size == 0:
            continue
        train_subset = dataset.subset(train_idx)
        model = train_mwle(train_subset.training_samples(), training)
        scores[test_idx] = predict_scores(model, dataset, test_idx)
    if np.any(np.isnan(scores)):
        raise MetricsUndefinedError("cross-validation left unscored samples")
    return metrics_from_scores(dataset, np.arange(len(dataset)), scores, sigma)


def sweep_profile_size(tag_counts, profile_lens, spec: CorpusSpec,
                       master_seed: int, k_folds: int = 5, sigma: float = 0.5,
                       training: TrainingConfig = TrainingConfig()) -> list:
    """AUROC grid over tag count and profile length.

    Scenario simulation and signature extraction are shared across profile
    lengths within one tag count; rows come back as dicts with keys K, L,
    auroc.  A failing cell is skipped with a warning.
    """
    tag_counts = list(tag_counts)
    profile_lens = list(profile_lens)
    if not tag_counts or not profile_lens:
        raise ParameterError("tag_counts and profile_lens must be nonempty")
    rows = []
    for n_tags in tag_counts:
        configs, seeds = build_corpus(replace(spec, n_tags=int(n_tags)), master_seed)
        scenarios = corpus_signatures(configs, seeds)
        provenance = {"seeds": tuple(seeds), "config_digest": config_digest(configs),
                      "n_tags": int(n_tags)}
        for profile_len in profile_lens:
            try:
                ds = build_dataset(scenarios, int(profile_len), provenance=provenance)
                report = cross_validate(ds, k_folds, master_seed, sigma, training)
                rows.append({"K": int(n_tags), "L": int(profile_len),
                             "auroc": report.auroc})
            except Exception as exc:  # missing cell, not a fatal sweep
                warnings.warn(f"sweep cell K={n_tags} L={profile_len} failed: {exc}")
    return rows


def ablation_normalization(spec: CorpusSpec, master_seed: int,
                           profile_len: int = DEFAULT_PROFILE_LEN,
                           k_folds: int = 5, sigma: float = 0.5,
                           training: TrainingConfig = TrainingConfig()) -> list:
    """Four-arm experiment: {normalized, raw} x {power scaling, none}.

    The two corpora share trajectories exactly (power scales come from a
    separate RNG stream), so the arms differ only in the attacker's per
    identity transmit power and in whether signatures are normalized.
    """
    if not spec.power_scaling:
        raise ConfigError("ablation needs a corpus spec with power_scaling enabled")
    rows = []
    for scaling in (True, False):
        configs, seeds = build_corpus(with_power_scaling(spec, scaling), master_seed)
        scenarios = corpus_signatures(configs, seeds)
        provenance = {"seeds": tuple(seeds), "config_digest": config_digest(configs),
                      "n_tags": spec.n_tags}
        for normalized in (True, False):
            ds = build_dataset(scenarios, profile_len, normalized=normalized,
                               provenance=provenance)
            report = cross_validate(ds, k_folds, master_seed, sigma, training)
            rows.append({
                "normalized": normalized,
                "power_scaling": scaling,
                "tpr": report.tpr,
                "fpr": report.fpr,
                "accuracy": report.accuracy,
                "auroc": report.auroc,
            })
    return rows


def compare_distance_metrics(spec: CorpusSpec, master_seed: int,
                             profile_len: int = DEFAULT_PROFILE_LEN,
                             k_folds: int = 5, sigma: float = 0.5,
                             training: TrainingConfig = TrainingConfig(),
                             metrics=DATASET_METRICS) -> list:
    """TPR/FPR of the detector under each distance metric, same corpus."""
    configs, seeds = build_corpus(spec, master_seed)
    scenarios = corpus_signatures(configs, seeds)
    provenance = {"seeds": tuple(seeds), "config_digest": config_digest(configs),
                  "n_tags": spec.n_tags}
    rows = []
    for metric in metrics:
        ds = build_dataset(scenarios, profile_len, metric=metric,
                           provenance=provenance)
        report = cross_validate(ds, k_folds, master_seed, sigma, training)
        rows.append({"metric": metric, "tpr": report.tpr, "fpr": report.fpr})
    return rows
