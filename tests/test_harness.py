"""Evaluation harness: datasets, folds, metrics, experiments."""

import numpy as np
import pytest
from conftest import FOUR_ID_SPECS, make_scenario

from sybilscatter import (
    ConfigError,
    CorpusSpec,
    MetricsUndefinedError,
    ParameterError,
    TrainingSet,
    build_corpus,
    build_dataset,
    compute_class_weights,
    corpus_signatures,
    cross_validate,
    evaluate,
    extract_signatures,
    generate_dataset,
    kfold_split,
    metrics_from_scores,
    rank_auroc,
    scenario_verdicts,
    simulate_scenario,
    train_mwle,
    trapezoid_area,
    with_power_scaling,
)
from sybilscatter.corpus import scenario_pattern
from sybilscatter.harness import (
    DatasetSample,
    LabeledDataset,
    _identity_scores,
    _pair_mean_scores,
    _scenario_truth,
    config_digest,
    dataset_digest,
)

TINY_SPEC = CorpusSpec(n_scenarios=3, horizon_s=12.0, hard_pair_fraction=1.0,
                       hard_pair_style="mirror")


def small_configs():
    spots = [((1.0, 0.3), (-0.9, 0.5), (0.2, -1.1)),
             ((0.7, -0.8), (-0.5, -0.9), (1.1, 0.6)),
             ((-1.2, 0.2), (0.4, 1.0), (0.9, -0.4))]
    configs = []
    for a, b, c in spots:
        configs.append(make_scenario(
            (("robotA", ("n0", "n1"), a, None),
             ("robotB", ("n2",), b, None),
             ("robotC", ("n3",), c, None)),
            horizon_s=6.0))
    return configs


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(small_configs(), seeds=[7, 8, 9], n_tags=4,
                            profile_len=3)


@pytest.fixture(scope="module")
def walking_dataset():
    # parked robots give constant signatures with no usable residual, so
    # detection-quality checks need the moving corpus
    configs, seeds = build_corpus(TINY_SPEC, 77)
    return generate_dataset(configs, seeds, n_tags=4, profile_len=3)


def tiny_labeled(entries, sources, profile_len=2):
    samples = tuple(
        DatasetSample(scenario_key=key, window=w, from_identity=i,
                      to_identity=j, label=label,
                      values=np.full(profile_len, value))
        for (key, w, i, j, label, value) in entries)
    return LabeledDataset(samples=samples, sources=sources,
                          provenance={"profile_len": profile_len})


class TestDatasetConstruction:
    def test_every_window_emits_all_directed_pairs(self, four_identity_run):
        scenario = extract_signatures(four_identity_run)
        ds = build_dataset([scenario], profile_len=3)
        by_window = {}
        for s in ds.samples:
            by_window.setdefault(s.window, []).append(s)
        # 10 update periods, full L=3 windows exist from the third onward
        assert sorted(by_window) == list(range(2, 10))
        for window, group in by_window.items():
            assert len(group) == 12  # 4 identities, both directions
            positives = {(s.from_identity, s.to_identity)
                         for s in group if s.label == 1}
            assert positives == {("n0", "n1"), ("n1", "n0")}

    def test_labels_follow_true_sources(self, four_identity_run):
        scenario = extract_signatures(four_identity_run)
        ds = build_dataset([scenario], profile_len=3)
        for s in ds.samples:
            same = ds.sources[s.scenario_key][s.from_identity] \
                == ds.sources[s.scenario_key][s.to_identity]
            assert s.label == int(same)

    def test_dataset_shape_and_provenance(self, small_dataset):
        assert small_dataset.profile_len == 3
        assert len(small_dataset.scenario_keys()) == 3
        assert small_dataset.features().shape == (len(small_dataset), 3)
        assert 0.0 < small_dataset.positive_fraction() < 0.5
        assert small_dataset.provenance["seeds"] == (7, 8, 9)

    def test_generation_is_deterministic(self, small_dataset):
        again = generate_dataset(small_configs(), seeds=[7, 8, 9], n_tags=4,
                                 profile_len=3)
        assert dataset_digest(again) == dataset_digest(small_dataset)

    def test_seed_changes_dataset(self, small_dataset):
        other = generate_dataset(small_configs(), seeds=[70, 80, 90], n_tags=4,
                                 profile_len=3)
        assert dataset_digest(other) != dataset_digest(small_dataset)

    def test_config_digest_ignores_object_identity(self):
        assert config_digest(small_configs()) == config_digest(small_configs())

    def test_tag_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            generate_dataset(small_configs(), seeds=[7, 8, 9], n_tags=2,
                             profile_len=3)

    def test_all_legit_corpus_rejected(self):
        config = make_scenario((("robotB", ("n2",), (-0.9, 0.5), None),
                                ("robotC", ("n3",), (0.2, -1.1), None)))
        with pytest.raises(ConfigError):
            generate_dataset([config], seeds=[7], n_tags=4, profile_len=3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            generate_dataset([], seeds=[], n_tags=4, profile_len=3)

    def test_unknown_metric_rejected(self, four_identity_run):
        scenario = extract_signatures(four_identity_run)
        with pytest.raises(ParameterError):
            build_dataset([scenario], profile_len=3, metric="hamming")

    def test_raw_rows_differ_from_normalized(self, four_identity_run):
        scenario = extract_signatures(four_identity_run)
        norm = build_dataset([scenario], profile_len=3, normalized=True)
        raw = build_dataset([scenario], profile_len=3, normalized=False)
        assert len(norm) == len(raw)
        assert dataset_digest(norm) != dataset_digest(raw)

    def test_subset_keeps_alignment(self, small_dataset):
        picked = small_dataset.subset([0, 5, 11])
        assert len(picked) == 3
        assert picked.samples[1] is small_dataset.samples[5]
        assert set(picked.sources) == set(s.scenario_key for s in picked.samples)


class TestKfoldSplit:
    def test_scenario_folds_partition_samples(self, small_dataset):
        folds = kfold_split(small_dataset, k=3, seed=0)
        seen = np.concatenate([test for _, test in folds])
        assert sorted(seen) == list(range(len(small_dataset)))
        for train, test in folds:
            assert not set(train) & set(test)
            assert len(set(train) | set(test)) == len(small_dataset)

    def test_scenarios_never_straddle_folds(self, small_dataset):
        folds = kfold_split(small_dataset, k=3, seed=0)
        for _, test in folds:
            keys = {small_dataset.samples[i].scenario_key for i in test}
            train_keys = {small_dataset.samples[i].scenario_key
                          for i in np.setdiff1d(np.arange(len(small_dataset)), test)}
            assert not keys & train_keys

    def test_more_folds_than_scenarios_rejected(self, small_dataset):
        with pytest.raises(ParameterError):
            kfold_split(small_dataset, k=4, seed=0)

    def test_k_below_two_rejected(self, small_dataset):
        with pytest.raises(ParameterError):
            kfold_split(small_dataset, k=1, seed=0)

    def test_sample_folds_partition_and_stratify(self, small_dataset):
        folds = kfold_split(small_dataset, k=5, seed=3, by_scenario=False)
        seen = np.concatenate([test for _, test in folds])
        assert sorted(seen) == list(range(len(small_dataset)))
        labels = small_dataset.labels()
        per_fold_pos = [labels[test].sum() for _, test in folds]
        assert max(per_fold_pos) - min(per_fold_pos) <= 1

    def test_leave_one_out(self, small_dataset):
        folds = kfold_split(small_dataset, k=len(small_dataset), seed=0,
                            by_scenario=False)
        assert all(test.size == 1 for _, test in folds)

    def test_more_folds_than_samples_rejected(self, small_dataset):
        with pytest.raises(ParameterError):
            kfold_split(small_dataset, k=len(small_dataset) + 1, seed=0,
                        by_scenario=False)

    def test_same_seed_same_folds(self, small_dataset):
        a = kfold_split(small_dataset, k=3, seed=5)
        b = kfold_split(small_dataset, k=3, seed=5)
        for (_, ta), (_, tb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)


class TestCurveMetrics:
    def test_trapezoid_triangle(self):
        assert trapezoid_area([(0.0, 0.0), (1.0, 1.0)]) == 0.5

    def test_trapezoid_step_curve(self):
        assert trapezoid_area([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]) == 1.0

    def test_trapezoid_matches_numpy(self):
        rng = np.random.default_rng(21)
        x = np.sort(rng.random(20))
        y = rng.random(20)
        expected = float(np.trapezoid(y[np.argsort(x)], np.sort(x)))
        assert abs(trapezoid_area(zip(x, y)) - expected) <= 1e-12

    def test_rank_auroc_perfect(self):
        assert rank_auroc([0.9, 0.8], [0.1, 0.2, 0.3]) == 1.0

    def test_rank_auroc_inverted(self):
        assert rank_auroc([0.1, 0.2], [0.8, 0.9]) == 0.0

    def test_rank_auroc_all_tied(self):
        assert rank_auroc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5

    def test_rank_auroc_counting_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            pos = rng.integers(0, 10, size=8) / 10.0
            neg = rng.integers(0, 10, size=11) / 10.0
            wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
            assert rank_auroc(pos, neg) == pytest.approx(wins / (8 * 11), abs=1e-12)

    def test_rank_auroc_label_shuffle_is_null(self):
        rng = np.random.default_rng(23)
        scores = rng.random(100)
        values = []
        for _ in range(1000):
            pick = rng.permutation(100)
            values.append(rank_auroc(scores[pick[:40]], scores[pick[40:]]))
        assert abs(np.mean(values) - 0.5) <= 0.05

    def test_rank_auroc_needs_both_classes(self):
        with pytest.raises(MetricsUndefinedError):
            rank_auroc([], [0.1])


class TestRobotLevelMetrics:
    def _dataset(self, pair_values, sources, key=(0, 7)):
        entries = [(key, 0, i, j, int(sources[i] == sources[j]), v)
                   for (i, j), v in pair_values.items()]
        return tiny_labeled(entries, {key: dict(sources)})

    def test_perfect_scores(self):
        sources = {"a": "r0", "b": "r0", "c": "r1"}
        pairs = {("a", "b"): 0.9, ("b", "a"): 0.9,
                 ("a", "c"): 0.1, ("c", "a"): 0.1,
                 ("b", "c"): 0.1, ("c", "b"): 0.1}
        ds = self._dataset(pairs, sources)
        scores = [s.values[0] for s in ds.samples]
        report = metrics_from_scores(ds, np.arange(len(ds)), scores, sigma=0.5)
        assert (report.tpr, report.fpr, report.accuracy) == (1.0, 0.0, 1.0)
        assert report.auroc == 1.0
        assert (report.n_fake, report.n_legit) == (2, 1)

    def test_false_positive_counted(self):
        sources = {"a": "r0", "b": "r0", "c": "r1"}
        pairs = {("a", "b"): 0.9, ("b", "a"): 0.9,
                 ("a", "c"): 0.8, ("c", "a"): 0.8,
                 ("b", "c"): 0.1, ("c", "b"): 0.1}
        ds = self._dataset(pairs, sources)
        scores = [s.values[0] for s in ds.samples]
        report = metrics_from_scores(ds, np.arange(len(ds)), scores, sigma=0.5)
        assert report.tpr == 1.0 and report.fpr == 1.0
        assert report.accuracy == pytest.approx(2.0 / 3.0)

    def test_mutual_agreement_required(self):
        # one hot direction is not a pair, so nothing gets flagged
        sources = {"a": "r0", "b": "r0"}
        pairs = {("a", "b"): 0.9, ("b", "a"): 0.1,
                 ("a", "x"): 0.1, ("x", "a"): 0.1,
                 ("b", "x"): 0.1, ("x", "b"): 0.1}
        sources["x"] = "r1"
        ds = self._dataset(pairs, sources)
        scores = [s.values[0] for s in ds.samples]
        report = metrics_from_scores(ds, np.arange(len(ds)), scores, sigma=0.5)
        assert report.tpr == 0.0 and report.fpr == 0.0

    def test_single_robot_class_undefined(self):
        sources = {"a": "r0", "c": "r1"}
        pairs = {("a", "c"): 0.1, ("c", "a"): 0.1}
        ds = self._dataset(pairs, sources)
        scores = [s.values[0] for s in ds.samples]
        with pytest.raises(MetricsUndefinedError):
            metrics_from_scores(ds, np.arange(len(ds)), scores, sigma=0.5)

    def test_no_samples_undefined(self, small_dataset):
        with pytest.raises(MetricsUndefinedError):
            metrics_from_scores(small_dataset, np.array([]), np.array([]), 0.5)

    def test_truth_counts_absent_siblings(self):
        # node b shares a source with a but produced no samples; a is still fake
        key = (0, 7)
        sources = {key: {"a": "r0", "b": "r0", "c": "r1"}}
        entries = [(key, 0, "a", "c", 0, 0.2), (key, 0, "c", "a", 0, 0.2)]
        ds = tiny_labeled(entries, sources)
        pair_scores = _pair_mean_scores(ds, np.arange(2), np.array([0.2, 0.2]))
        truth = _scenario_truth(ds, pair_scores)
        assert truth[key] == {"a": True, "c": False}

    def test_pair_means_average_windows(self):
        key = (0, 7)
        sources = {key: {"a": "r0", "c": "r1"}}
        entries = [(key, 0, "a", "c", 0, 0.2), (key, 1, "a", "c", 0, 0.6)]
        ds = tiny_labeled(entries, sources)
        pair_scores = _pair_mean_scores(ds, np.arange(2), np.array([0.2, 0.6]))
        assert pair_scores[key][("a", "c")] == pytest.approx(0.4)


class TestCrossValidation:
    def test_report_fields_in_range(self, small_dataset):
        report = cross_validate(small_dataset, k=3, seed=11)
        for value in (report.tpr, report.fpr, report.accuracy, report.auroc):
            assert 0.0 <= value <= 1.0
        assert report.roc_points[0] == (0.0, 0.0)
        assert report.roc_points[-1] == (1.0, 1.0)
        assert len(report.roc_sweep) == 201

    def test_deterministic(self, small_dataset):
        a = cross_validate(small_dataset, k=3, seed=11)
        b = cross_validate(small_dataset, k=3, seed=11)
        assert (a.tpr, a.fpr, a.auroc, a.accuracy) == (b.tpr, b.fpr, b.auroc, b.accuracy)

    def test_trapezoid_agrees_with_rank_form(self, walking_dataset):
        model = train_mwle(walking_dataset.training_samples())
        report = evaluate(model, walking_dataset)
        indices = np.arange(len(walking_dataset))
        from sybilscatter import predict_scores
        scores = predict_scores(model, walking_dataset)
        pair_scores = _pair_mean_scores(walking_dataset, indices, scores)
        truth = _scenario_truth(walking_dataset, pair_scores)
        labels, identity_scores = _identity_scores(pair_scores, truth)
        rank = rank_auroc(identity_scores[labels == 1], identity_scores[labels == 0])
        assert abs(report.auroc - rank) <= 0.01

    def test_training_set_holds_the_weighted_samples(self, small_dataset):
        data = small_dataset.training_samples()
        labels = small_dataset.labels()
        weights = compute_class_weights(labels)
        assert isinstance(data, TrainingSet) and len(data) == len(small_dataset)
        assert data.X.tobytes() == small_dataset.features().tobytes()
        np.testing.assert_array_equal(data.y, labels)
        assert data.v.tolist() == [weights[c] for c in labels.tolist()]
        chosen = small_dataset.training_samples({0: 0.25, 1: 4.0})
        assert chosen.v.tolist() == [4.0 if c else 0.25 for c in labels.tolist()]

    def test_self_evaluation_is_strong(self, walking_dataset):
        model = train_mwle(walking_dataset.training_samples())
        report = evaluate(model, walking_dataset)
        assert report.auroc >= 0.9

    def test_scenario_verdicts_cover_identities(self, small_dataset):
        model = train_mwle(small_dataset.training_samples())
        verdicts = scenario_verdicts(model, small_dataset)
        assert set(verdicts) == set(small_dataset.scenario_keys())
        for key, verdict in verdicts.items():
            assert verdict.identities == {"n0", "n1", "n2", "n3"}


class TestCorpusBuilder:
    def test_corpus_is_deterministic(self):
        configs_a, seeds_a = build_corpus(TINY_SPEC, 99)
        configs_b, seeds_b = build_corpus(TINY_SPEC, 99)
        assert seeds_a == seeds_b
        assert config_digest(configs_a) == config_digest(configs_b)

    def test_master_seed_changes_corpus(self):
        configs_a, seeds_a = build_corpus(TINY_SPEC, 99)
        configs_b, seeds_b = build_corpus(TINY_SPEC, 100)
        assert seeds_a != seeds_b
        assert config_digest(configs_a) != config_digest(configs_b)

    def test_pattern_rotation_mixes_attackers(self):
        sizes = [scenario_pattern(i) for i in range(4)]
        assert len(set(sizes)) > 1
        for attacker_sizes, n_legit in sizes:
            assert all(size >= 2 for size in attacker_sizes)
            assert n_legit >= 1

    def test_config_knobs_flow_through(self):
        spec = CorpusSpec(n_scenarios=2, n_tags=6, horizon_s=9.0, snr_db=None)
        configs, _ = build_corpus(spec, 1)
        assert len(configs) == 2
        for config in configs:
            assert config.tag_layout.n_tags == 6
            assert config.snr_db is None
            assert config.horizon_s == 9.0

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            CorpusSpec(n_scenarios=0)
        with pytest.raises(ParameterError):
            CorpusSpec(alpha_low=2.0, alpha_high=1.0)
        with pytest.raises(ParameterError):
            CorpusSpec(hard_pair_fraction=1.5)
        with pytest.raises(ParameterError):
            CorpusSpec(hard_pair_style="braided")

    def test_power_scaling_toggle_keeps_geometry(self):
        on, seeds_on = build_corpus(with_power_scaling(TINY_SPEC, True), 5)
        off, seeds_off = build_corpus(with_power_scaling(TINY_SPEC, False), 5)
        assert seeds_on == seeds_off
        for config_on, config_off in zip(on, off):
            for agent_on, agent_off in zip(config_on.agents, config_off.agents):
                np.testing.assert_array_equal(agent_on.trajectory.waypoints,
                                              agent_off.trajectory.waypoints)
                if agent_on.is_attacker:
                    assert agent_on.power_scale_per_identity
                    assert not agent_off.power_scale_per_identity

    def test_alpha_one_equals_scaling_off(self):
        pinned = CorpusSpec(n_scenarios=1, horizon_s=6.0, alpha_low=1.0,
                            alpha_high=1.0)
        configs_on, seeds_on = build_corpus(with_power_scaling(pinned, True), 5)
        configs_off, seeds_off = build_corpus(with_power_scaling(pinned, False), 5)
        run_on = simulate_scenario(configs_on[0], seeds_on[0])
        run_off = simulate_scenario(configs_off[0], seeds_off[0])
        assert set(run_on.traces) == set(run_off.traces)
        for identity in run_on.traces:
            for ta, tb in zip(run_on.traces[identity], run_off.traces[identity]):
                np.testing.assert_array_equal(ta.samples, tb.samples)


@pytest.fixture(scope="module")
def tiny_sweep_rows():
    from sybilscatter import sweep_profile_size
    return sweep_profile_size((2,), (2, 3), TINY_SPEC, 77, k_folds=3)


class TestExperiments:
    def test_sweep_rows_cover_grid(self, tiny_sweep_rows):
        assert [(r["K"], r["L"]) for r in tiny_sweep_rows] == [(2, 2), (2, 3)]
        for row in tiny_sweep_rows:
            assert 0.0 <= row["auroc"] <= 1.0

    def test_sweep_deterministic(self, tiny_sweep_rows):
        from sybilscatter import sweep_profile_size
        again = sweep_profile_size((2,), (2, 3), TINY_SPEC, 77, k_folds=3)
        assert again == tiny_sweep_rows

    def test_sweep_rejects_empty_grid(self):
        from sybilscatter import sweep_profile_size
        with pytest.raises(ParameterError):
            sweep_profile_size((), (2,), TINY_SPEC, 77)

    def test_ablation_covers_four_arms(self):
        from sybilscatter import ablation_normalization
        rows = ablation_normalization(TINY_SPEC, 77, profile_len=3, k_folds=3)
        arms = {(r["normalized"], r["power_scaling"]) for r in rows}
        assert arms == {(True, True), (True, False), (False, True), (False, False)}
        for row in rows:
            for field in ("tpr", "fpr", "accuracy", "auroc"):
                assert 0.0 <= row[field] <= 1.0

    def test_ablation_needs_power_scaling(self):
        from sybilscatter import ablation_normalization
        with pytest.raises(ConfigError):
            ablation_normalization(with_power_scaling(TINY_SPEC, False), 77)

    def test_metric_comparison_rows(self):
        from sybilscatter import compare_distance_metrics
        rows = compare_distance_metrics(TINY_SPEC, 77, profile_len=3, k_folds=3,
                                        metrics=("adjusted", "euclidean"))
        assert [r["metric"] for r in rows] == ["adjusted", "euclidean"]
        for row in rows:
            assert 0.0 <= row["tpr"] <= 1.0
            assert 0.0 <= row["fpr"] <= 1.0
