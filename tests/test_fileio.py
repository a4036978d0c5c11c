"""Serialization: trace/dataset CSV, model and verdict JSON, INI configs."""

import json

import numpy as np
import pytest

from sybilscatter import (
    ConfigError,
    LRModel,
    Verdict,
    metrics_from_scores,
    position_at,
    simulate_scenario,
)
from sybilscatter.fileio import (
    ABLATION_HEADER,
    COMPARE_HEADER,
    ROC_HEADER,
    SWEEP_HEADER,
    TRACE_HEADER,
    detect_config_kind,
    read_corpus_spec,
    read_model_json,
    read_run,
    read_samples_csv,
    read_scenario_config,
    samples_header,
    write_ablation_csv,
    write_compare_csv,
    write_metrics_json,
    write_model_json,
    write_roc_csv,
    write_run,
    write_samples_csv,
    write_sweep_csv,
    write_trace_csv,
    write_verdicts_json,
)
from sybilscatter.harness import DatasetSample, LabeledDataset

SCENARIO_INI = """\
[scenario]
horizon_s = 6.0
period_s = 0.6
snr_db = none

[channel]
wavelength_m = 0.125
tag_transfer = 0.05

[tags]
count = 4
ring_radius_m = 0.12

[receiver]
position = 0.05 0.0

[agent.robotA]
identities = n0 n1
position = 1.0 0.3
alphas = n0:2.0 n1:0.5

[agent.robotB]
identities = n2
path = -0.9 0.5
  -0.5 0.5
speed_mps = 0.2
"""

CORPUS_INI = """\
[corpus]
n_scenarios = 3
horizon_s = 12.0
hard_pair_fraction = 1.0
hard_pair_style = mirror
snr_db = 20
power_scaling = true

[sweep]
tag_counts = 2 4
profile_lens = 2 4
"""


def handmade_dataset():
    key_a, key_b = (0, 7), (1, 8)
    samples = (
        DatasetSample(key_a, 2, "n0", "n1", 1, np.array([0.01, 0.02])),
        DatasetSample(key_a, 2, "n1", "n0", 1, np.array([0.03, 0.015])),
        DatasetSample(key_a, 2, "n0", "n2", 0, np.array([0.9, 1.1])),
        DatasetSample(key_b, 3, "n0", "n2", 0, np.array([1.2345678901234567, 0.7])),
    )
    sources = {key_a: {"n0": "robotA", "n1": "robotA", "n2": "robotB"},
               key_b: {"n0": "robotA", "n2": "robotB"}}
    return LabeledDataset(samples=samples, sources=sources,
                          provenance={"profile_len": 2})


def perfect_report():
    key = (0, 7)
    sources = {key: {"a": "r0", "b": "r0", "c": "r1"}}
    pairs = {("a", "b"): 0.9, ("b", "a"): 0.9, ("a", "c"): 0.1,
             ("c", "a"): 0.1, ("b", "c"): 0.1, ("c", "b"): 0.1}
    samples = tuple(
        DatasetSample(key, 0, i, j, int(sources[key][i] == sources[key][j]),
                      np.array([score]))
        for (i, j), score in pairs.items())
    ds = LabeledDataset(samples=samples, sources=sources,
                        provenance={"profile_len": 1})
    scores = [s.values[0] for s in ds.samples]
    return metrics_from_scores(ds, np.arange(len(ds)), scores, sigma=0.5)


class TestTraceFiles:
    def test_run_round_trip(self, tmp_path, four_identity_run,
                            four_identity_scenario):
        paths = write_run(tmp_path, four_identity_run, four_identity_scenario)
        assert (tmp_path / "labels.json") in paths
        traces, labels = read_run(tmp_path)
        assert labels["seed"] == four_identity_run.seed
        assert labels["identities"] == four_identity_run.true_sources
        assert set(traces) == set(four_identity_run.traces)
        for identity, originals in four_identity_run.traces.items():
            loaded = traces[identity]
            assert len(loaded) == len(originals)
            for orig, back in zip(originals, loaded):
                assert back.t_s == orig.t_s
                assert back.true_source_id == orig.true_source_id
                np.testing.assert_array_equal(back.samples, orig.samples)
                np.testing.assert_array_equal(back.tag_schedule, orig.tag_schedule)

    def test_writes_are_byte_identical(self, tmp_path, four_identity_run,
                                       four_identity_scenario):
        write_run(tmp_path / "a", four_identity_run, four_identity_scenario)
        write_run(tmp_path / "b", four_identity_run, four_identity_scenario)
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_trace_header_pinned(self, tmp_path, four_identity_run):
        path = tmp_path / "t.csv"
        write_trace_csv(path, four_identity_run.traces["n0"])
        assert path.read_text().splitlines()[0] == TRACE_HEADER

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("wrong,header,here\n")
        labels = {"modulation": {"code_bits": 64, "samples_per_bit": 8,
                                 "sample_rate_hz": 8000.0, "n_tags": 4},
                  "identities": {"n0": "robotA"}}
        from sybilscatter.fileio import read_trace_csv
        with pytest.raises(ConfigError):
            read_trace_csv(path, "n0", labels)


class TestSamplesFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = handmade_dataset()
        path = tmp_path / "samples.csv"
        write_samples_csv(path, ds)
        back = read_samples_csv(path)
        assert len(back) == len(ds)
        assert back.profile_len == 2
        assert back.sources == ds.sources
        for orig, loaded in zip(ds.samples, back.samples):
            assert loaded.scenario_key == orig.scenario_key
            assert loaded.window == orig.window
            assert (loaded.from_identity, loaded.to_identity) \
                == (orig.from_identity, orig.to_identity)
            assert loaded.label == orig.label
            np.testing.assert_array_equal(loaded.values, orig.values)

    def test_header_names_distance_columns(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(path, handmade_dataset())
        assert path.read_text().splitlines()[0] == samples_header(2)
        assert samples_header(2).endswith("label,d_1,d_2")

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ConfigError):
            read_samples_csv(path)

    def test_missing_distance_columns_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("scenario,seed,window,from_id,to_id,"
                        "from_source,to_source,label\n")
        with pytest.raises(ConfigError):
            read_samples_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_distance_rejected(self, tmp_path, bad):
        path = tmp_path / "samples.csv"
        write_samples_csv(path, handmade_dataset())
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1] + [bad])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=":3:"):
            read_samples_csv(path)


class TestModelFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = LRModel(weights=np.array([-3.715, 0.002, 1.0 / 3.0]), bias=0.125)
        path = tmp_path / "model.json"
        write_model_json(path, model)
        back = read_model_json(path)
        np.testing.assert_array_equal(back.weights, model.weights)
        assert back.bias == model.bias

    def test_exact_field_set(self, tmp_path):
        path = tmp_path / "model.json"
        write_model_json(path, LRModel(weights=np.ones(2), bias=0.0))
        payload = json.loads(path.read_text())
        assert set(payload) == {"L", "weights", "bias"}
        assert payload["L"] == 2

    def test_inconsistent_length_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"L": 3, "weights": [0.1, 0.2], "bias": 0.0}))
        with pytest.raises(ConfigError):
            read_model_json(path)


class TestReportFiles:
    def test_metrics_field_set(self, tmp_path):
        report = perfect_report()
        path = tmp_path / "metrics.json"
        write_metrics_json(path, report)
        payload = json.loads(path.read_text())
        assert set(payload) == {"tpr", "fpr", "accuracy", "auroc",
                                "n_fake", "n_legit"}
        assert payload["tpr"] == 1.0 and payload["fpr"] == 0.0
        assert payload["n_fake"] == 2 and payload["n_legit"] == 1

    def test_roc_csv_covers_sweep(self, tmp_path):
        report = perfect_report()
        path = tmp_path / "roc.csv"
        write_roc_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == ROC_HEADER
        assert len(lines) == 1 + len(report.roc_sweep)

    def test_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [{"K": 2, "L": 10, "auroc": 0.75}])
        assert path.read_text() == f"{SWEEP_HEADER}\n2,10,0.75\n"

    def test_compare_csv(self, tmp_path):
        path = tmp_path / "compare.csv"
        write_compare_csv(path, [{"metric": "adjusted", "tpr": 1.0, "fpr": 0.25}])
        assert path.read_text() == f"{COMPARE_HEADER}\nadjusted,1.0,0.25\n"

    def test_ablation_csv(self, tmp_path):
        path = tmp_path / "ablation.csv"
        rows = [{"normalized": True, "power_scaling": False,
                 "tpr": 0.5, "fpr": 0.125, "accuracy": 0.75, "auroc": 0.875}]
        write_ablation_csv(path, rows)
        assert path.read_text() == f"{ABLATION_HEADER}\n1,0,0.5,0.125,0.75,0.875\n"

    def test_verdicts_json_structure(self, tmp_path):
        verdicts = {
            (1, 8): Verdict(threshold=0.5, sybil_pairs=frozenset({("z", "y")}),
                            fake_identities=frozenset({"y", "z"}),
                            legit_identities=frozenset({"w"})),
            (0, 7): Verdict(threshold=0.5, sybil_pairs=frozenset(),
                            fake_identities=frozenset(),
                            legit_identities=frozenset({"a", "b"})),
        }
        path = tmp_path / "verdicts.json"
        write_verdicts_json(path, verdicts, sigma=0.5)
        payload = json.loads(path.read_text())
        assert payload["sigma"] == 0.5
        assert [s["scenario"] for s in payload["scenarios"]] == [[0, 7], [1, 8]]
        flagged = payload["scenarios"][1]
        assert flagged["sybil_pairs"] == [["y", "z"]]
        assert flagged["fake_identities"] == ["y", "z"]
        assert flagged["legit_identities"] == ["w"]


class TestScenarioConfigFiles:
    def test_full_parse(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(SCENARIO_INI)
        config = read_scenario_config(path)
        assert config.horizon_s == 6.0
        assert config.snr_db is None
        assert config.channel.tag_transfer == 0.05
        assert config.tag_layout.n_tags == 4
        np.testing.assert_allclose(
            position_at(config.receiver_trajectory, 3.0), (0.05, 0.0))
        by_source = {a.true_source_id: a for a in config.agents}
        assert set(by_source) == {"robotA", "robotB"}
        attacker = by_source["robotA"]
        assert attacker.is_attacker
        assert attacker.power_scale_per_identity == {"n0": 2.0, "n1": 0.5}

    def test_path_walk_covers_horizon(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(SCENARIO_INI)
        config = read_scenario_config(path)
        walker = next(a for a in config.agents if a.true_source_id == "robotB")
        # 0.4 m at 0.2 m/s, then a dwell pad out to horizon + 1
        np.testing.assert_allclose(position_at(walker.trajectory, 0.0), (-0.9, 0.5))
        np.testing.assert_allclose(position_at(walker.trajectory, 2.0), (-0.5, 0.5))
        np.testing.assert_allclose(position_at(walker.trajectory, 7.0), (-0.5, 0.5))

    def test_waypoints_spelling(self, tmp_path):
        text = SCENARIO_INI.replace(
            "[receiver]\nposition = 0.05 0.0",
            "[receiver]\nwaypoints = 0 0.05 0.0\n  7 0.05 0.0")
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        config = read_scenario_config(path)
        np.testing.assert_array_equal(
            config.receiver_trajectory.waypoints,
            [[0.0, 0.05, 0.0], [7.0, 0.05, 0.0]])

    def test_explicit_tag_positions(self, tmp_path):
        text = SCENARIO_INI.replace(
            "[tags]\ncount = 4\nring_radius_m = 0.12",
            "[tags]\nring_radius_m = 0.12\npositions = 0.12 0\n  -0.12 0")
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        assert read_scenario_config(path).tag_layout.n_tags == 2

    def test_parses_and_simulates(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(SCENARIO_INI)
        run = simulate_scenario(read_scenario_config(path), rng_seed=3)
        assert set(run.traces) == {"n0", "n1", "n2"}

    def test_conflicting_trajectory_keys_rejected(self, tmp_path):
        text = SCENARIO_INI.replace("position = 1.0 0.3",
                                    "position = 1.0 0.3\nwaypoints = 0 1 1\n  7 1 1")
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            read_scenario_config(path)

    def test_missing_trajectory_rejected(self, tmp_path):
        text = SCENARIO_INI.replace("position = 0.05 0.0\n", "")
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            read_scenario_config(path)

    def test_missing_receiver_rejected(self, tmp_path):
        text = SCENARIO_INI.replace("[receiver]\nposition = 0.05 0.0\n", "")
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            read_scenario_config(path)

    def test_missing_agents_rejected(self, tmp_path):
        text = SCENARIO_INI.split("[agent.robotA]")[0]
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            read_scenario_config(path)

    def test_malformed_alpha_rejected(self, tmp_path):
        text = SCENARIO_INI.replace("alphas = n0:2.0 n1:0.5", "alphas = n0")
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            read_scenario_config(path)

    def test_malformed_waypoint_row_rejected(self, tmp_path):
        text = SCENARIO_INI.replace("position = 0.05 0.0",
                                    "waypoints = 0 0.05")
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            read_scenario_config(path)


class TestCorpusConfigFiles:
    def test_full_parse(self, tmp_path):
        path = tmp_path / "corpus.ini"
        path.write_text(CORPUS_INI)
        spec, sweep = read_corpus_spec(path)
        assert spec.n_scenarios == 3
        assert spec.horizon_s == 12.0
        assert spec.hard_pair_fraction == 1.0
        assert spec.hard_pair_style == "mirror"
        assert spec.snr_db == 20.0
        assert spec.power_scaling is True
        assert sweep == {"tag_counts": (2, 4), "profile_lens": (2, 4)}

    def test_sweep_section_optional(self, tmp_path):
        path = tmp_path / "corpus.ini"
        path.write_text(CORPUS_INI.split("[sweep]")[0])
        spec, sweep = read_corpus_spec(path)
        assert spec.n_scenarios == 3
        assert sweep is None

    def test_snr_none_spelling(self, tmp_path):
        path = tmp_path / "corpus.ini"
        path.write_text(CORPUS_INI.replace("snr_db = 20", "snr_db = none"))
        spec, _ = read_corpus_spec(path)
        assert spec.snr_db is None

    def test_missing_corpus_section_rejected(self, tmp_path):
        path = tmp_path / "corpus.ini"
        path.write_text("[sweep]\ntag_counts = 2\n")
        with pytest.raises(ConfigError):
            read_corpus_spec(path)

    def test_defaults_when_sparse(self, tmp_path):
        path = tmp_path / "corpus.ini"
        path.write_text("[corpus]\nn_scenarios = 2\n")
        spec, _ = read_corpus_spec(path)
        assert spec.n_scenarios == 2
        assert spec.n_tags == 4
        assert spec.snr_db == 20.0


class TestConfigKind:
    def test_corpus_detected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(CORPUS_INI)
        assert detect_config_kind(path) == "corpus"

    def test_scenario_detected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_INI)
        assert detect_config_kind(path) == "scenario"

    def test_ambiguous_rejected(self, tmp_path):
        path = tmp_path / "x.ini"
        path.write_text(CORPUS_INI + "\n[receiver]\nposition = 0 0\n")
        with pytest.raises(ConfigError):
            detect_config_kind(path)

    def test_unrecognized_rejected(self, tmp_path):
        path = tmp_path / "x.ini"
        path.write_text("[misc]\nkey = 1\n")
        with pytest.raises(ConfigError):
            detect_config_kind(path)

    def test_unreadable_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            detect_config_kind(tmp_path / "missing.ini")
