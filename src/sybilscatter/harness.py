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
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .corpus import CorpusSpec, build_corpus
from .detector import (
    DEFAULT_THRESHOLD,
    LRModel,
    SimilarityMatrix,
    TrainingConfig,
    TrainingSet,
    compute_class_weights,
    detect_sybil,
    similarity_scores,
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
    full_window_ends,
    signature_rows,
    window_rows,
)
from .scenario import TraceBatch, simulate_scenario

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
class LabeledDataset:
    """Labeled directed distance samples as columns, plus the ground truth.

    Row n is the distance vector X[n] from identities[from_id[n]] to a
    different identity, identities[to_id[n]], over the window ending at
    update period window[n] of scenario keys[scenario[n]]; y[n] is 1 when
    both share a source.  Keys come in order of first appearance and
    identities sorted.  The columns are copied to read-only arrays and
    validated once, here.
    """

    X: np.ndarray  # (N, L) float64
    y: np.ndarray  # the other columns are (N,) int64
    scenario: np.ndarray
    window: np.ndarray
    from_id: np.ndarray
    to_id: np.ndarray
    keys: tuple
    identities: tuple
    sources: dict  # scenario_key -> {identity: true_source_id}

    def __post_init__(self):
        X = np.array(self.X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] < 1:
            raise ShapeError(f"X must be an (N, L) array with L >= 1, got {X.shape}")
        columns = {name: np.array(getattr(self, name), dtype=np.int64)
                   for name in ("y", "scenario", "window", "from_id", "to_id")}
        if any(column.shape != X.shape[:1] for column in columns.values()):
            raise ShapeError(f"every column needs the {len(X)} rows of X")
        if not np.all(np.isfinite(X)):
            raise ParameterError("distances must be finite")
        if not np.all((columns["y"] == 0) | (columns["y"] == 1)):
            raise ParameterError("labels must all be 0 or 1")
        codes, first = np.unique(columns["scenario"], return_index=True)
        if not np.array_equal(codes, np.arange(len(self.keys))) or np.any(np.diff(first) < 0):
            raise ParameterError("scenario codes must number the keys by first appearance")
        ids = np.concatenate([columns["from_id"], columns["to_id"]])
        if np.any((ids < 0) | (ids >= len(self.identities))):
            raise ParameterError("identity codes must index identities")
        if np.any(columns["from_id"] == columns["to_id"]):
            raise ParameterError("a sample's from and to identities must differ")
        if list(self.identities) != sorted(set(self.identities)):
            raise ParameterError("identities must be sorted and distinct")
        if not set(self.keys) <= set(self.sources):
            raise ParameterError("every scenario key needs its sources")
        for name, column in (("X", X), *columns.items()):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "identities", tuple(self.identities))

    def __len__(self):
        return self.X.shape[0]

    @property
    def profile_len(self) -> int:
        return self.X.shape[1]

    def labels(self) -> np.ndarray:
        return self.y

    def features(self) -> np.ndarray:
        return self.X

    def positive_fraction(self) -> float:
        return float(self.y.mean()) if len(self) else 0.0

    def scenario_keys(self) -> tuple:
        return self.keys

    def rows(self):
        """Each sample as (scenario key, window, from, to, label, distances)."""
        keys, names = self.keys, self.identities
        for s, w, i, j, label, values in zip(
                self.scenario.tolist(), self.window.tolist(), self.from_id.tolist(),
                self.to_id.tolist(), self.y.tolist(), self.X):
            yield keys[s], w, names[i], names[j], label, values

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        codes, first, scenario = np.unique(self.scenario[idx], return_index=True,
                                           return_inverse=True)
        order = np.argsort(first)  # the picked scenarios by first appearance
        renumber = np.empty_like(order)
        renumber[order] = np.arange(order.size)
        keys = tuple(self.keys[c] for c in codes[order].tolist())
        picked = set(keys)
        return LabeledDataset(
            X=self.X[idx], y=self.y[idx], scenario=renumber[scenario],
            window=self.window[idx], from_id=self.from_id[idx], to_id=self.to_id[idx],
            keys=keys, identities=self.identities,
            sources={k: v for k, v in self.sources.items() if k in picked},
        )

    def training_samples(self) -> TrainingSet:
        """The samples as one array training set, weighted by
        compute_class_weights of the labels."""
        class_weights = compute_class_weights(self.y)
        weights = np.where(self.y == 1, class_weights[1], class_weights[0])
        return TrainingSet(X=self.X, y=self.y, v=weights)


def dataset_digest(dataset: LabeledDataset) -> str:
    """Content hash of every sample, for determinism checks."""
    h = hashlib.sha256()
    for key, window, i, j, label, values in dataset.rows():
        h.update(repr((key, window, i, j, label)).encode())
        h.update(values.tobytes())
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


def extract_signatures(run, config_index: int = 0) -> ScenarioSignatures:
    """Run every trace of a scenario through the signal pipeline.

    Each identity's TraceBatch goes through signature_rows; a stream that
    is not a TraceBatch raises ShapeError.  Traces that fail segmentation
    or yield a degenerate signature are skipped; their period simply has
    no entry for that identity.
    """
    periods, signatures, raw = {}, {}, {}
    for identity, traces in run.traces.items():
        if not isinstance(traces, TraceBatch):
            raise ShapeError(f"identity {identity!r}: traces must be a TraceBatch, "
                             f"got {type(traces).__name__}")
        kept, raw_rows, unit_rows = signature_rows(traces)
        if kept.size:
            periods[identity], raw[identity], signatures[identity] = kept, raw_rows, unit_rows
    return ScenarioSignatures(
        scenario_key=(int(config_index), int(run.seed)),
        sources=dict(run.true_sources),
        periods=periods,
        signatures=signatures,
        raw=raw,
    )


def corpus_signatures(configs, seeds) -> list:
    """Simulate and extract every scenario of a corpus."""
    if len(configs) != len(seeds):
        raise ParameterError("configs and seeds must be aligned")
    out = []
    for idx, (config, seed) in enumerate(zip(configs, seeds)):
        # the previous run lives on here; freeing it first saves 4 MB but re-faults pages
        run = simulate_scenario(config, seed)
        out.append(extract_signatures(run, config_index=idx))
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
                  normalized: bool = True, metric: str = ADJUSTED_METRIC) -> LabeledDataset:
    """Labeled directed distance samples from extracted signature streams.

    For every update period where two identities of a scenario both have a
    full profile window, both directed distance vectors are emitted; the
    label marks whether the identities share a physical source.  Each
    ordered identity pair takes one batched distance call over all of its
    shared windows.
    """
    if metric not in DATASET_METRICS:
        raise ParameterError(f"unknown metric {metric!r}; expected one of {DATASET_METRICS}")
    blocks = []  # (scenario code, from, to, label, window ends, values) per ordered pair
    codes, sources = {}, {}
    for scenario in scenarios:
        key = tuple(scenario.scenario_key)
        tables = _window_tables(scenario, profile_len, normalized)
        idents = [i for i in scenario.periods if i in tables]
        code = codes.get(key, len(codes))
        pairs = []
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
                label = int(scenario.sources[i] == scenario.sources[j])
                pairs.append((code, i, j, label, shared, values))
        if not any(shared.size for *_, shared, _ in pairs):
            warnings.warn(f"scenario {scenario.scenario_key} produced no samples; skipped")
            continue
        codes[key] = code
        blocks += pairs
        sources[key] = dict(scenario.sources)
    scenario_codes, froms, tos, labels, windows, values = zip(*blocks) if blocks else [()] * 6
    index = {name: n for n, name in enumerate(sorted(set(froms) | set(tos)))}
    sizes = [w.size for w in windows]
    return LabeledDataset(
        X=np.concatenate([np.empty((0, profile_len)), *values]),
        y=np.repeat(labels, sizes),
        scenario=np.repeat(scenario_codes, sizes),
        window=np.concatenate([np.empty(0, np.int64), *windows]),
        from_id=np.repeat([index[i] for i in froms], sizes),
        to_id=np.repeat([index[j] for j in tos], sizes),
        keys=tuple(codes), identities=tuple(index), sources=sources,
    )


def generate_dataset(configs, seeds, n_tags: int, profile_len: int,
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
    return build_dataset(corpus_signatures(configs, seeds), profile_len, normalized, metric)


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
        n_keys = len(dataset.keys)
        if k > n_keys:
            raise ParameterError(f"k={k} exceeds the {n_keys} scenario groups")
        sizes = np.bincount(dataset.scenario, minlength=n_keys).tolist()
        positives = np.bincount(dataset.scenario[dataset.y == 1], minlength=n_keys).tolist()
        order = list(range(n_keys))
        rng.shuffle(order)
        order.sort(key=lambda s: -positives[s])  # stable: ties keep shuffle order
        fold_of = np.empty(n_keys, dtype=np.int64)
        fold_pos = np.zeros(k)
        fold_tot = np.zeros(k)
        for s in order:
            # fewest positives, then fewest samples, then lowest index
            target = min(range(k), key=lambda f: (fold_pos[f], fold_tot[f], f))
            fold_of[s] = target
            fold_pos[target] += positives[s]
            fold_tot[target] += sizes[s]
        sample_fold = fold_of[dataset.scenario]
        tests = [np.flatnonzero(sample_fold == f) for f in range(k)]
    else:
        if k > n:
            raise ParameterError(f"k={k} exceeds the {n} samples")
        pos = np.flatnonzero(dataset.y == 1)
        neg = np.flatnonzero(dataset.y == 0)
        rng.shuffle(pos)
        rng.shuffle(neg)
        dealt = np.concatenate([pos, neg])
        tests = [np.sort(dealt[f::k]) for f in range(k)]
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
    """Directed similarity score for each (selected) sample.

    Scored by similarity_scores, the kernel similarity_matrix uses, so a
    distance vector gets the same bits offline and online.
    """
    X = dataset.X if indices is None else dataset.X[np.asarray(indices, dtype=np.int64)]
    if X.shape[1] != model.profile_len:
        raise ShapeError(
            f"dataset has L={X.shape[1]} but model expects L={model.profile_len}")
    return similarity_scores(model, X)


def _scenario_similarities(dataset, indices, scores) -> dict:
    """scenario_key -> SimilarityMatrix of the mean score per directed pair.

    Each scenario's matrix spans, in sorted order, the identities of its
    picked rows; a pair without picked rows scores 0.
    """
    n_ids = len(dataset.identities)
    codes = (dataset.scenario[indices] * n_ids + dataset.from_id[indices]) * n_ids \
        + dataset.to_id[indices]
    pairs, inverse = np.unique(codes, return_inverse=True)
    # bincount adds each pair's scores in input order, as a running sum does
    means = np.bincount(inverse, weights=scores) / np.bincount(inverse)
    scenario, from_to = np.divmod(pairs, n_ids * n_ids)
    from_id, to_id = np.divmod(from_to, n_ids)
    out = {}
    for s in np.unique(scenario).tolist():
        picked = scenario == s
        present = np.union1d(from_id[picked], to_id[picked])  # sorted, as identities are
        probs = np.zeros((present.size, present.size))
        probs[np.searchsorted(present, from_id[picked]),
              np.searchsorted(present, to_id[picked])] = means[picked]
        out[dataset.keys[s]] = SimilarityMatrix(
            identities=tuple(dataset.identities[c] for c in present.tolist()), probs=probs)
    return out


def _robot_level(dataset, indices, scores, sigma):
    """(is fake, flagged at sigma, score) per identity of every scored scenario.

    Fake means its source has a sibling identity, with or without samples;
    the score is the best conjunctive pair score max_j min(P_ij, P_ji).
    """
    fake, flagged, best = [], [], []
    for key, sims in _scenario_similarities(dataset, indices, scores).items():
        sources = dataset.sources[key]
        shared = Counter(sources.values())
        verdict = detect_sybil(sims, sigma)
        fake += [shared[sources[i]] > 1 for i in sims.identities]
        flagged += [i in verdict.fake_identities for i in sims.identities]
        best.append(np.minimum(sims.probs, sims.probs.T).max(axis=1))
    return np.array(fake), np.array(flagged), np.concatenate(best)


def metrics_from_scores(dataset: LabeledDataset, indices, scores,
                        sigma: float) -> MetricsReport:
    """Aggregate directed sample scores into the robot-level report."""
    indices = np.asarray(indices, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if indices.size == 0:
        raise MetricsUndefinedError("no samples to evaluate")
    fake, flagged, identity_scores = _robot_level(dataset, indices, scores, sigma)
    n_fake = int(np.sum(fake))
    n_legit = fake.size - n_fake
    tp = int(np.sum(fake & flagged))
    fp = int(np.sum(flagged)) - tp
    if n_fake == 0 or n_legit == 0:
        raise MetricsUndefinedError(
            f"need both robot classes, got {n_fake} fake / {n_legit} legit")
    thresholds = np.linspace(1.0, 0.0, N_ROC_THRESHOLDS)
    above = identity_scores[None, :] >= thresholds[:, None]
    tpr_curve = above[:, fake].mean(axis=1)
    fpr_curve = above[:, ~fake].mean(axis=1)
    sweep = tuple((float(t), float(f), float(r))
                  for t, f, r in zip(thresholds, fpr_curve, tpr_curve))
    points = {(0.0, 0.0), (1.0, 1.0)}
    points.update((float(f), float(r)) for f, r in zip(fpr_curve, tpr_curve))
    roc_points = tuple(sorted(points))
    return MetricsReport(
        tpr=tp / n_fake,
        fpr=fp / n_legit,
        accuracy=(tp + n_legit - fp) / (n_fake + n_legit),
        auroc=trapezoid_area(roc_points),
        roc_points=roc_points,
        roc_sweep=sweep,
        n_fake=n_fake,
        n_legit=n_legit,
    )


def evaluate(model: LRModel, test: LabeledDataset,
             sigma: float = DEFAULT_THRESHOLD) -> MetricsReport:
    """Score a dataset with one model and report robot-level metrics."""
    if not len(test):
        raise MetricsUndefinedError("test set is empty")
    indices = np.arange(len(test))
    scores = predict_scores(model, test)
    return metrics_from_scores(test, indices, scores, sigma)


def scenario_verdicts(model: LRModel, dataset: LabeledDataset,
                      sigma: float = DEFAULT_THRESHOLD) -> dict:
    """Per-scenario Sybil verdicts: scenario_key -> Verdict."""
    if not len(dataset):
        raise MetricsUndefinedError("dataset is empty")
    scores = predict_scores(model, dataset)
    similarities = _scenario_similarities(dataset, np.arange(len(dataset)), scores)
    return {key: detect_sybil(sims, sigma) for key, sims in similarities.items()}


def cross_validate(dataset: LabeledDataset, k: int = DEFAULT_K_FOLDS,
                   seed: int = DEFAULT_SEED, sigma: float = DEFAULT_THRESHOLD,
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


def _corpus_scenarios(spec: CorpusSpec, master_seed: int) -> list:
    """Simulated and extracted scenarios of a corpus."""
    return corpus_signatures(*build_corpus(spec, master_seed))


def sweep_profile_size(tag_counts, profile_lens, spec: CorpusSpec,
                       master_seed: int, k_folds: int = 5,
                       sigma: float = DEFAULT_THRESHOLD) -> list:
    """AUROC grid over tag count and profile length.

    Scenario simulation and signature extraction are shared across profile
    lengths within one tag count; rows come back as dicts with keys K, L,
    auroc.  A cell that fails with an input or data error (ValueError or
    RuntimeError, the bases of errors.py) is skipped with a warning; any
    other exception is a bug and propagates.
    """
    tag_counts = list(tag_counts)
    profile_lens = list(profile_lens)
    if not tag_counts or not profile_lens:
        raise ParameterError("tag_counts and profile_lens must be nonempty")
    rows = []
    for n_tags in tag_counts:
        scenarios = _corpus_scenarios(replace(spec, n_tags=int(n_tags)), master_seed)
        for profile_len in profile_lens:
            try:
                ds = build_dataset(scenarios, int(profile_len))
                report = cross_validate(ds, k_folds, master_seed, sigma)
                rows.append({"K": int(n_tags), "L": int(profile_len),
                             "auroc": report.auroc})
            except (ValueError, RuntimeError) as exc:  # missing cell, not a fatal sweep
                warnings.warn(f"sweep cell K={n_tags} L={profile_len} failed: {exc}")
    return rows


def ablation_normalization(spec: CorpusSpec, master_seed: int,
                           profile_len: int = DEFAULT_PROFILE_LEN,
                           k_folds: int = 5, sigma: float = DEFAULT_THRESHOLD) -> list:
    """Four-arm experiment: {normalized, raw} x {power scaling, none}.

    The two corpora share trajectories exactly (power scales come from a
    separate RNG stream), so the arms differ only in the attacker's per
    identity transmit power and in whether signatures are normalized.
    """
    if not spec.power_scaling:
        raise ConfigError("ablation needs a corpus spec with power_scaling enabled")
    rows = []
    for scaling in (True, False):
        scenarios = _corpus_scenarios(replace(spec, power_scaling=scaling), master_seed)
        for normalized in (True, False):
            ds = build_dataset(scenarios, profile_len, normalized=normalized)
            report = cross_validate(ds, k_folds, master_seed, sigma)
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
                             k_folds: int = 5, sigma: float = DEFAULT_THRESHOLD,
                             metrics=DATASET_METRICS) -> list:
    """TPR/FPR of the detector under each distance metric, same corpus."""
    scenarios = _corpus_scenarios(spec, master_seed)
    rows = []
    for metric in metrics:
        ds = build_dataset(scenarios, profile_len, metric=metric)
        report = cross_validate(ds, k_folds, master_seed, sigma)
        rows.append({"metric": metric, "tpr": report.tpr, "fpr": report.fpr})
    return rows
