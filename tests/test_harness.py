"""Evaluation harness: datasets, folds, metrics, experiments."""

from dataclasses import replace

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import labeled_dataset, make_scenario

from sybilscatter import (
    ConfigError,
    CorpusSpec,
    LabeledDataset,
    MetricsUndefinedError,
    ParameterError,
    ShapeError,
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
    predict_scores,
    rank_auroc,
    scenario_verdicts,
    simulate_scenario,
    train_mwle,
    trapezoid_area,
)
from sybilscatter import harness
from sybilscatter.corpus import scenario_pattern
from sybilscatter.harness import (
    _robot_level,
    _scenario_similarities,
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


class TestDatasetConstruction:
    def test_every_window_emits_all_directed_pairs(self, four_identity_run):
        scenario = extract_signatures(four_identity_run)
        ds = build_dataset([scenario], profile_len=3)
        by_window = {}
        for _, window, i, j, label, _ in ds.rows():
            by_window.setdefault(window, []).append((i, j, label))
        # 10 update periods, full L=3 windows exist from the third onward
        assert sorted(by_window) == list(range(2, 10))
        for window, group in by_window.items():
            assert len(group) == 12  # 4 identities, both directions
            positives = {(i, j) for i, j, label in group if label == 1}
            assert positives == {("n0", "n1"), ("n1", "n0")}

    def test_labels_follow_true_sources(self, four_identity_run):
        scenario = extract_signatures(four_identity_run)
        ds = build_dataset([scenario], profile_len=3)
        for key, _, i, j, label, _ in ds.rows():
            assert label == int(ds.sources[key][i] == ds.sources[key][j])

    def test_dataset_shape_and_provenance(self, small_dataset):
        assert small_dataset.profile_len == 3
        assert len(small_dataset.keys) == 3
        assert small_dataset.X.shape == (len(small_dataset), 3)
        assert 0.0 < small_dataset.positive_fraction() < 0.5

    def test_generation_is_deterministic(self, small_dataset):
        again = generate_dataset(small_configs(), seeds=[7, 8, 9], n_tags=4,
                                 profile_len=3)
        assert dataset_digest(again) == dataset_digest(small_dataset)

    def test_seed_changes_dataset(self, small_dataset):
        other = generate_dataset(small_configs(), seeds=[70, 80, 90], n_tags=4,
                                 profile_len=3)
        assert dataset_digest(other) != dataset_digest(small_dataset)

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

    def test_empty_dataset_keeps_its_profile_len(self, four_identity_run, small_dataset):
        scenario = extract_signatures(four_identity_run)  # 10 periods
        with pytest.warns(UserWarning, match="produced no samples"):
            built = build_dataset([scenario], profile_len=11)
        picked = small_dataset.subset([])
        for empty, profile_len in ((built, 11), (picked, 3)):
            assert len(empty) == 0 and empty.X.shape == (0, profile_len)
            assert empty.profile_len == profile_len

    def test_subset_keeps_alignment(self, small_dataset):
        picked = small_dataset.subset([0, 5, 11])
        assert len(picked) == 3
        assert list(picked.rows())[1][:5] == list(small_dataset.rows())[5][:5]
        assert picked.X[1].tobytes() == small_dataset.X[5].tobytes()
        assert set(picked.sources) == set(picked.keys)


@pytest.fixture
def tiny_dataset():
    """Four rows over three scenarios; scenario (1, 8) appears first."""
    a, b, c = (0, 7), (1, 8), (2, 9)
    rows = [(b, 0, "n0", "n1", 1, 0.1), (a, 0, "n0", "n2", 0, 0.2),
            (b, 1, "n1", "n0", 1, 0.3), (c, 0, "n2", "n3", 0, 0.4)]
    sources = {"n0": "r0", "n1": "r0", "n2": "r1", "n3": "r2"}
    return labeled_dataset(rows, {a: sources, b: sources, c: sources})


class TestLabeledDataset:
    def test_columns_are_read_only(self, tiny_dataset):
        for name in ("X", "y", "scenario", "window", "from_id", "to_id"):
            assert not getattr(tiny_dataset, name).flags.writeable
        assert tiny_dataset.labels() is tiny_dataset.y

    def test_label_two_rejected(self, tiny_dataset):
        with pytest.raises(ParameterError, match="labels"):
            replace(tiny_dataset, y=[1, 0, 2, 0])

    def test_nan_distance_rejected(self, tiny_dataset):
        with pytest.raises(ParameterError, match="finite"):
            replace(tiny_dataset, X=[[0.1], [np.nan], [0.3], [0.4]])

    @pytest.mark.parametrize("column", ["y", "scenario", "window", "from_id", "to_id"])
    def test_column_length_mismatch_rejected(self, tiny_dataset, column):
        with pytest.raises(ShapeError):
            replace(tiny_dataset, **{column: getattr(tiny_dataset, column)[:3]})

    @pytest.mark.parametrize("X", [np.empty((4, 0)), [0.1, 0.2, 0.3, 0.4]],
                             ids=["no-columns", "1-D"])
    def test_x_without_an_l_rejected(self, tiny_dataset, X):
        with pytest.raises(ShapeError, match="L >= 1"):
            replace(tiny_dataset, X=X)

    @pytest.mark.parametrize("scenario", [[0, 1, 0, 3], [0, 1, 0, -1], [1, 0, 1, 2]])
    def test_bad_scenario_codes_rejected(self, tiny_dataset, scenario):
        # out of range twice, then keys not in order of first appearance
        with pytest.raises(ParameterError, match="scenario codes"):
            replace(tiny_dataset, scenario=scenario)

    def test_out_of_range_identity_code_rejected(self, tiny_dataset):
        with pytest.raises(ParameterError, match="identity codes"):
            replace(tiny_dataset, to_id=[1, 2, 0, 4])

    def test_self_pair_rejected(self, tiny_dataset):
        with pytest.raises(ParameterError, match="must differ"):
            replace(tiny_dataset, to_id=[1, 2, 1, 3])

    def test_unsorted_identities_rejected(self, tiny_dataset):
        with pytest.raises(ParameterError, match="sorted"):
            replace(tiny_dataset, identities=("n1", "n0", "n2", "n3"))

    def test_subset_keeps_first_appearance_order_and_picked_sources(self, tiny_dataset):
        assert tiny_dataset.keys == ((1, 8), (0, 7), (2, 9))
        picked = tiny_dataset.subset([3, 2, 1])
        assert picked.keys == ((2, 9), (1, 8), (0, 7))
        assert picked.scenario.tolist() == [0, 1, 2]
        assert [row[:5] for row in picked.rows()] == [
            ((2, 9), 0, "n2", "n3", 0), ((1, 8), 1, "n1", "n0", 1),
            ((0, 7), 0, "n0", "n2", 0)]
        assert list(tiny_dataset.subset([2, 3]).sources) == [(1, 8), (2, 9)]


class TestKfoldSplit:
    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 12), min_size=2, max_size=8),
           by_scenario=st.booleans(), data=st.data())
    def test_folds_cover_every_index_once(self, sizes, by_scenario, data):
        n = sum(sizes)
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        keys = tuple((s, 0) for s in range(len(sizes)))
        dataset = LabeledDataset(
            X=np.zeros((n, 1)), y=y, scenario=np.repeat(np.arange(len(sizes)), sizes),
            window=np.zeros(n), from_id=np.zeros(n), to_id=np.ones(n), keys=keys,
            identities=("a", "b"), sources={key: {"a": "r", "b": "r"} for key in keys})
        k = data.draw(st.integers(2, len(sizes) if by_scenario else n))
        folds = kfold_split(dataset, k=k, seed=data.draw(st.integers(0, 2**32)),
                            by_scenario=by_scenario)
        assert len(folds) == k
        tests = np.concatenate([test for _, test in folds])
        assert np.array_equal(np.sort(tests), np.arange(n))
        for train, test in folds:
            assert not np.intersect1d(train, test).size
            assert np.array_equal(np.union1d(train, test), np.arange(n))
            if by_scenario:
                assert not np.intersect1d(dataset.scenario[train], dataset.scenario[test]).size

    def test_scenario_folds_partition_samples(self, small_dataset):
        folds = kfold_split(small_dataset, k=3, seed=0)
        seen = np.concatenate([test for _, test in folds])
        assert sorted(seen) == list(range(len(small_dataset)))
        for train, test in folds:
            assert not set(train) & set(test)
            assert len(set(train) | set(test)) == len(small_dataset)

    def test_scenarios_never_straddle_folds(self, small_dataset):
        folds = kfold_split(small_dataset, k=3, seed=0)
        for train, test in folds:
            assert not set(small_dataset.scenario[test]) & set(small_dataset.scenario[train])

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
        return labeled_dataset(entries, {key: dict(sources)})

    def test_perfect_scores(self):
        sources = {"a": "r0", "b": "r0", "c": "r1"}
        pairs = {("a", "b"): 0.9, ("b", "a"): 0.9,
                 ("a", "c"): 0.1, ("c", "a"): 0.1,
                 ("b", "c"): 0.1, ("c", "b"): 0.1}
        ds = self._dataset(pairs, sources)
        scores = ds.X[:, 0]
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
        scores = ds.X[:, 0]
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
        scores = ds.X[:, 0]
        report = metrics_from_scores(ds, np.arange(len(ds)), scores, sigma=0.5)
        assert report.tpr == 0.0 and report.fpr == 0.0

    def test_single_robot_class_undefined(self):
        sources = {"a": "r0", "c": "r1"}
        pairs = {("a", "c"): 0.1, ("c", "a"): 0.1}
        ds = self._dataset(pairs, sources)
        scores = ds.X[:, 0]
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
        ds = labeled_dataset(entries, sources)
        fake, _, _ = _robot_level(ds, np.arange(2), np.array([0.2, 0.2]), 0.5)
        assert fake.tolist() == [True, False]  # a, c

    def test_pair_means_average_windows(self):
        key = (0, 7)
        sources = {key: {"a": "r0", "c": "r1"}}
        entries = [(key, 0, "a", "c", 0, 0.2), (key, 1, "a", "c", 0, 0.6)]
        ds = labeled_dataset(entries, sources)
        sims = _scenario_similarities(ds, np.arange(2), np.array([0.2, 0.6]))
        assert sims[key].identities == ("a", "c")
        assert sims[key].probs[0, 1] == pytest.approx(0.4)


def _many_scenarios():
    """Nine scenarios of uneven size and positive count, to exercise fold balancing."""
    rng = np.random.default_rng(40)
    sources = {"a": "r0", "b": "r0", "c": "r1"}
    rows = []
    for s in range(9):
        for w in range(int(rng.integers(1, 12))):
            rows.append(((s, 100 + s), w, "a", "c", 0, 0.1))
            if rng.random() < 0.6:
                rows.append(((s, 100 + s), w, "a", "b", 1, 0.9))
    return labeled_dataset(rows, {(s, 100 + s): sources for s in range(9)})


class TestAggregationOracle:
    """The columnar aggregation and folds against the per-sample dict walks."""

    @pytest.mark.parametrize("by_scenario", [True, False])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_kfold_split_matches_oracle(self, walking_dataset, k, by_scenario):
        for ds in (walking_dataset, _many_scenarios()):
            for seed in (0, 11):
                if by_scenario and k > len(ds.keys):
                    with pytest.raises(ParameterError):
                        kfold_split(ds, k, seed, by_scenario)
                    with pytest.raises(ValueError):
                        oracle.kfold_split(ds, k, seed, by_scenario)
                    continue
                folds = kfold_split(ds, k, seed, by_scenario)
                expected = oracle.kfold_split(ds, k, seed, by_scenario)
                assert len(folds) == len(expected) == k
                for (train, test), (train_o, test_o) in zip(folds, expected):
                    assert train.dtype == test.dtype == np.int64
                    np.testing.assert_array_equal(train, train_o)
                    np.testing.assert_array_equal(test, test_o)

    def test_partial_permuted_metrics_match_oracle(self, walking_dataset):
        model = train_mwle(walking_dataset.training_samples())
        rng = np.random.default_rng(8)
        indices = rng.permutation(len(walking_dataset))[: 2 * len(walking_dataset) // 3]
        scores = predict_scores(model, walking_dataset, indices)
        for sigma in (0.3, 0.5, 0.8):
            report = metrics_from_scores(walking_dataset, indices, scores, sigma)
            expected = oracle.metrics_from_scores(walking_dataset, indices, scores, sigma)
            assert report == expected
            for field in ("tpr", "fpr", "accuracy", "auroc"):
                assert getattr(report, field).hex() == getattr(expected, field).hex()

    def test_pair_means_and_identity_scores_match_oracle(self, walking_dataset):
        model = train_mwle(walking_dataset.training_samples())
        indices = np.random.default_rng(9).permutation(len(walking_dataset))[::2]
        scores = predict_scores(model, walking_dataset, indices)
        pairs = oracle._pair_mean_scores(walking_dataset, indices, scores)
        sims = _scenario_similarities(walking_dataset, indices, scores)
        assert list(sims) == sorted(pairs, key=walking_dataset.keys.index)
        for key, means in pairs.items():
            ids = sims[key].identities
            for (i, j), mean in means.items():
                assert sims[key].probs[ids.index(i), ids.index(j)].hex() == mean.hex()
        truth = oracle._scenario_truth(walking_dataset, pairs)
        labels, best = oracle._identity_scores(
            {key: pairs[key] for key in sims}, truth)
        fake, _, identity_scores = _robot_level(walking_dataset, indices, scores, 0.5)
        np.testing.assert_array_equal(fake, labels == 1)
        assert identity_scores.tobytes() == best.tobytes()

    def test_scenario_verdicts_match_oracle(self, walking_dataset):
        model = train_mwle(walking_dataset.training_samples())
        for sigma in (0.3, 0.5, 0.8):
            verdicts = scenario_verdicts(model, walking_dataset, sigma)
            expected = oracle.scenario_verdicts(model, walking_dataset, sigma)
            assert list(verdicts.items()) == list(expected.items())


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
        scores = predict_scores(model, walking_dataset)
        fake, _, identity_scores = _robot_level(walking_dataset, indices, scores, 0.5)
        rank = rank_auroc(identity_scores[fake], identity_scores[~fake])
        assert abs(report.auroc - rank) <= 0.01

    def test_training_set_holds_the_weighted_samples(self, small_dataset):
        data = small_dataset.training_samples()
        labels = small_dataset.labels()
        weights = compute_class_weights(labels)
        assert isinstance(data, TrainingSet) and len(data) == len(small_dataset)
        assert data.X.tobytes() == small_dataset.X.tobytes()
        np.testing.assert_array_equal(data.y, labels)
        assert data.v.tolist() == [weights[c] for c in labels.tolist()]

    def test_self_evaluation_is_strong(self, walking_dataset):
        model = train_mwle(walking_dataset.training_samples())
        report = evaluate(model, walking_dataset)
        assert report.auroc >= 0.9

    def test_scenario_verdicts_cover_identities(self, small_dataset):
        model = train_mwle(small_dataset.training_samples())
        verdicts = scenario_verdicts(model, small_dataset)
        assert set(verdicts) == set(small_dataset.keys)
        for key, verdict in verdicts.items():
            assert verdict.identities == {"n0", "n1", "n2", "n3"}


def corpus_geometry(configs) -> tuple:
    """(every trajectory's waypoint bytes, every attacker's power scales),
    scenario by scenario."""
    waypoints, scales = [], []
    for config in configs:
        waypoints.append(config.receiver_trajectory.waypoints.tobytes())
        for agent in config.agents:
            waypoints.append(agent.trajectory.waypoints.tobytes())
            if agent.is_attacker:
                scales.append(agent.power_scale_per_identity)
    return waypoints, scales


class TestCorpusBuilder:
    def test_corpus_is_deterministic(self):
        configs_a, seeds_a = build_corpus(TINY_SPEC, 99)
        configs_b, seeds_b = build_corpus(TINY_SPEC, 99)
        assert seeds_a == seeds_b
        assert corpus_geometry(configs_a) == corpus_geometry(configs_b)

    def test_master_seed_changes_corpus(self):
        configs_a, seeds_a = build_corpus(TINY_SPEC, 99)
        configs_b, seeds_b = build_corpus(TINY_SPEC, 100)
        assert seeds_a != seeds_b
        for part_a, part_b in zip(corpus_geometry(configs_a), corpus_geometry(configs_b)):
            assert len(part_a) == len(part_b)
            assert all(a != b for a, b in zip(part_a, part_b))

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
        on, seeds_on = build_corpus(replace(TINY_SPEC, power_scaling=True), 5)
        off, seeds_off = build_corpus(replace(TINY_SPEC, power_scaling=False), 5)
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
        configs_on, seeds_on = build_corpus(replace(pinned, power_scaling=True), 5)
        configs_off, seeds_off = build_corpus(replace(pinned, power_scaling=False), 5)
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

    def test_sweep_skips_a_cell_with_a_data_error(self, tiny_sweep_rows, monkeypatch):
        from sybilscatter import sweep_profile_size
        build = harness.build_dataset

        def no_robots_at_l3(scenarios, profile_len, *args, **kwargs):
            if profile_len == 3:
                raise MetricsUndefinedError("need both robot classes")
            return build(scenarios, profile_len, *args, **kwargs)

        monkeypatch.setattr(harness, "build_dataset", no_robots_at_l3)
        with pytest.warns(UserWarning, match="K=2 L=3 failed: need both robot classes"):
            rows = sweep_profile_size((2,), (2, 3), TINY_SPEC, 77, k_folds=3)
        assert rows == tiny_sweep_rows[:1]

    def test_sweep_propagates_a_bug(self, monkeypatch):
        from sybilscatter import sweep_profile_size

        def broken(*args, **kwargs):
            raise TypeError("not a data error")

        monkeypatch.setattr(harness, "_corpus_scenarios", lambda spec, seed: [])
        monkeypatch.setattr(harness, "build_dataset", broken)
        with pytest.raises(TypeError, match="not a data error"):
            sweep_profile_size((2,), (2, 3), TINY_SPEC, 77, k_folds=3)

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
            ablation_normalization(replace(TINY_SPEC, power_scaling=False), 77)

    def test_metric_comparison_rows(self):
        from sybilscatter import compare_distance_metrics
        rows = compare_distance_metrics(TINY_SPEC, 77, profile_len=3, k_folds=3,
                                        metrics=("adjusted", "euclidean"))
        assert [r["metric"] for r in rows] == ["adjusted", "euclidean"]
        for row in rows:
            assert 0.0 <= row["tpr"] <= 1.0
            assert 0.0 <= row["fpr"] <= 1.0
