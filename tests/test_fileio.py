"""Serialization: trace/dataset CSV, model and verdict JSON, INI configs."""

import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import SCHEDULE_RULE, labeled_dataset

from sybilscatter import (
    ConfigError,
    LRModel,
    ParameterError,
    ReceivedTrace,
    Verdict,
    metrics_from_scores,
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
    read_run_labels,
    read_samples_csv,
    read_scenario_config,
    samples_header,
    write_metrics_json,
    write_model_json,
    write_roc_csv,
    write_rows_csv,
    write_run,
    write_samples_csv,
    write_trace_csv,
    write_verdicts_json,
)
from sybilscatter.scenario import positions_at

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
    rows = [
        (key_a, 2, "n0", "n1", 1, [0.01, 0.02]),
        (key_a, 2, "n1", "n0", 1, [0.03, 0.015]),
        (key_a, 2, "n0", "n2", 0, [0.9, 1.1]),
        (key_b, 3, "n0", "n2", 0, [1.2345678901234567, 0.7]),
    ]
    sources = {key_a: {"n0": "robotA", "n1": "robotA", "n2": "robotB"},
               key_b: {"n0": "robotA", "n2": "robotB"}}
    return labeled_dataset(rows, sources)


def perfect_report():
    key = (0, 7)
    sources = {key: {"a": "r0", "b": "r0", "c": "r1"}}
    pairs = {("a", "b"): 0.9, ("b", "a"): 0.9, ("a", "c"): 0.1,
             ("c", "a"): 0.1, ("b", "c"): 0.1, ("c", "b"): 0.1}
    ds = labeled_dataset(
        [(key, 0, i, j, int(sources[key][i] == sources[key][j]), score)
         for (i, j), score in pairs.items()], sources)
    scores = ds.X[:, 0]
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
            assert isinstance(loaded, ReceivedTrace) and len(loaded) == len(originals)
            assert loaded.samples.tobytes() == originals.samples.tobytes()
            # the ground truth survives the schedule column
            assert loaded.region_starts.tobytes() == originals.region_starts.tobytes()
            assert loaded.t_s.tobytes() == originals.t_s.tobytes()
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


    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0.1x", ""])
    def test_bad_sample_names_file_and_line(self, tmp_path, four_identity_run,
                                            four_identity_scenario, bad):
        write_run(tmp_path, four_identity_run, four_identity_scenario)
        path = tmp_path / "trace_n1.csv"
        lines = path.read_text().splitlines()
        t_s, _, tag = lines[4].split(",")
        lines[4] = ",".join([t_s, bad, tag])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"trace_n1\.csv:5: "):
            read_run(tmp_path)

    @pytest.mark.parametrize("bad,message", [("abc", "malformed trace line"),
                                             ("nan", "trace times and samples must be finite"),
                                             ("inf", "trace times and samples must be finite")])
    def test_bad_time_names_file_and_line(self, tmp_path, four_identity_run,
                                          four_identity_scenario, bad, message):
        write_run(tmp_path, four_identity_run, four_identity_scenario)
        path = tmp_path / "trace_n1.csv"
        lines = path.read_text().splitlines()
        lines[4] = ",".join([bad, *lines[4].split(",")[1:]])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=rf"trace_n1\.csv:5: {message}"):
            read_run(tmp_path)

    def test_traces_of_unequal_length_name_the_file(self, tmp_path, four_identity_run,
                                                    four_identity_scenario):
        write_run(tmp_path, four_identity_run, four_identity_scenario)
        path = tmp_path / "trace_n2.csv"
        lines = path.read_text().splitlines()
        del lines[3000]  # a sample of the second trace
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"trace_n2\.csv: traces of \[2559, 2560\] "
                                              r"samples; the traces of one file must be "
                                              r"of equal length"):
            read_run(tmp_path)

    def test_header_only_file_leaves_the_identity_out(self, tmp_path, four_identity_run,
                                                      four_identity_scenario):
        write_run(tmp_path, four_identity_run, four_identity_scenario)
        (tmp_path / "trace_n3.csv").write_text(TRACE_HEADER + "\n")
        traces, _ = read_run(tmp_path)
        assert list(traces) == ["n0", "n1", "n2"]

    @pytest.mark.parametrize("field,value,rule", [
        ("samples_per_bit", 3, "the rule is samples_per_bit > 4"),
        ("code_bits", 20, "the rule is code_bits >= 7 n_tags"),
        ("code_bits", 1, "code needs >= 2 bits"),
        ("n_tags", 0, "n_tags must be >= 1"),
        ("sample_rate_hz", -1.0, "sample_rate_hz must be strictly positive"),
    ])
    def test_rejected_layout_names_the_trace_file(self, tmp_path, four_identity_run,
                                                  four_identity_scenario, field, value, rule):
        write_run(tmp_path, four_identity_run, four_identity_scenario)
        labels = json.loads((tmp_path / "labels.json").read_text())
        labels["modulation"][field] = value
        (tmp_path / "labels.json").write_text(json.dumps(labels))
        with pytest.raises(ConfigError, match=rf"trace_n0\.csv: .*{rule}"):
            read_run(tmp_path)

    def test_out_of_range_tag_names_the_trace_file(self, tmp_path, four_identity_run,
                                                   four_identity_scenario):
        # 70000 does not fit the stored int16: it was an OverflowError
        write_run(tmp_path, four_identity_run, four_identity_scenario)
        path = tmp_path / "trace_n0.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",70000"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"trace_n0\.csv: " + SCHEDULE_RULE):
            read_run(tmp_path)

    @pytest.mark.parametrize("n", [512, 513])
    def test_trace_of_one_or_two_lags_names_the_trace_file(self, tmp_path, four_identity_run,
                                                          four_identity_scenario, n):
        write_run(tmp_path, four_identity_run, four_identity_scenario)
        path = tmp_path / "trace_n0.csv"
        path.write_text("t_s,sample,tag_index\n" + "0.0,1e-06,0\n" * n)
        with pytest.raises(ConfigError, match=rf"trace_n0\.csv: trace of {n} samples is too "
                                              r"short: the rule is at least one code span "
                                              r"plus two samples \(three lags\), 514 samples"):
            read_run(tmp_path)
        path.write_text("t_s,sample,tag_index\n" + "0.0,1e-06,0\n" * 514)
        assert read_run(tmp_path)[0]["n0"].samples.shape == (1, 514)

    def test_short_line_names_file_and_line(self, tmp_path, four_identity_run,
                                            four_identity_scenario):
        write_run(tmp_path, four_identity_run, four_identity_scenario)
        path = tmp_path / "trace_n0.csv"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"trace_n0\.csv:3: malformed"):
            read_run(tmp_path)


GOOD_LABELS = {"seed": 7, "identities": {"n0": "robotA", "n1": "robotA"},
               "modulation": {"code_bits": 64, "samples_per_bit": 8,
                              "sample_rate_hz": 8000.0, "n_tags": 4}}


def _labels(**changes):
    """GOOD_LABELS with top-level or modulation keys replaced (None deletes)."""
    payload = json.loads(json.dumps(GOOD_LABELS))
    for key, value in changes.items():
        target = payload["modulation"] if key in payload["modulation"] else payload
        if value is None:
            del target[key]
        else:
            target[key] = value
    return payload


class TestRunLabels:
    def test_written_labels_read_back(self, tmp_path, four_identity_run,
                                      four_identity_scenario):
        write_run(tmp_path, four_identity_run, four_identity_scenario)
        labels = read_run_labels(tmp_path / "labels.json")
        assert labels == json.loads((tmp_path / "labels.json").read_text())

    @pytest.mark.parametrize("payload,message", [
        (_labels(seed=None), "missing 'seed'"),
        (_labels(seed="7"), "seed must be an integer"),
        (_labels(seed=7.0), "seed must be an integer"),
        (_labels(seed=True), "seed must be an integer"),
    ])
    def test_seed(self, tmp_path, payload, message):
        self._rejects(tmp_path, payload, message)

    @pytest.mark.parametrize("payload,message", [
        (_labels(identities=None), "missing 'identities'"),
        (_labels(identities=["n0", "n1"]), "identities must map each identity"),
        (_labels(identities={"n0": 3}), "identities must map each identity"),
    ])
    def test_identities(self, tmp_path, payload, message):
        self._rejects(tmp_path, payload, message)

    @pytest.mark.parametrize("payload", [
        _labels(code_bits=None), _labels(code_bits=64.0), _labels(samples_per_bit="8"),
        _labels(n_tags=None), _labels(sample_rate_hz=None), _labels(sample_rate_hz="8k"),
        _labels(modulation=[64, 8, 8000.0, 4]),
    ])
    def test_modulation(self, tmp_path, payload):
        self._rejects(tmp_path, payload, "modulation must hold the integers code_bits, "
                                         "samples_per_bit and n_tags and the number "
                                         "sample_rate_hz")

    def test_missing_modulation(self, tmp_path):
        self._rejects(tmp_path, _labels(modulation=None), "missing 'modulation'")

    @pytest.mark.parametrize("text", ['{"seed": 7,', "[7]"])
    def test_malformed_json_names_file(self, tmp_path, text):
        path = tmp_path / "labels.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"labels\.json: "):
            read_run_labels(path)

    def _rejects(self, tmp_path, payload, message):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=rf"labels\.json: {message}"):
            read_run_labels(path)
        with pytest.raises(ConfigError, match=rf"labels\.json: {message}"):
            read_run(tmp_path)


class TestSamplesFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = handmade_dataset()
        path = tmp_path / "samples.csv"
        write_samples_csv(path, ds)
        back = read_samples_csv(path)
        assert len(back) == len(ds)
        assert back.profile_len == 2
        assert back.sources == ds.sources
        for (*fields, values), (*loaded, loaded_values) in zip(ds.rows(), back.rows()):
            assert loaded == fields
            assert loaded_values.tobytes() == values.tobytes()

    def test_header_names_distance_columns(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(path, handmade_dataset())
        assert path.read_text().splitlines()[0] == samples_header(2)
        assert samples_header(2).endswith("label,d_1,d_2")

    def test_header_only_file_keeps_profile_len(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(samples_header(4) + "\n")
        ds = read_samples_csv(path)
        assert len(ds) == 0 and ds.X.shape == (0, 4) and ds.profile_len == 4

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

    @pytest.mark.parametrize("edit,message", [
        # header d_1,d_2 but one distance value, then three
        (lambda p: p[:-1], "expected 10 fields, got 9"),
        (lambda p: p + ["0.5"], "expected 10 fields, got 11"),
        # a line cut short inside its identity columns
        (lambda p: p[:4], "expected 10 fields, got 4"),
        (lambda p: p[:2] + ["two"] + p[3:], "malformed"),
        (lambda p: p[:-1] + ["0.1.2"], "malformed"),
        (lambda p: p[:7] + ["2"] + p[8:], "label 2 contradicts"),
        # n0 and n1 share robotA, so label 0 contradicts the source columns
        (lambda p: p[:7] + ["0"] + p[8:], "contradicts"),
        # n1 appears as robotA on line 2; the same source on both sides
        # keeps the label consistent
        (lambda p: p[:5] + ["robotC", "robotC"] + p[7:], "changes source"),
        # n1 to itself: one source on both sides, so the label is consistent
        (lambda p: p[:4] + ["n1"] + p[5:], "from_id and to_id are both 'n1'"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, edit, message):
        path = tmp_path / "samples.csv"
        write_samples_csv(path, handmade_dataset())
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=rf"samples\.csv:3: .*{message}"):
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

    @pytest.mark.parametrize("window", [2 ** 63, -2 ** 63 - 1, 10 ** 29])
    def test_window_beyond_int64_rejected(self, tmp_path, window):
        """The reader range-checks the window column and LabeledDataset
        raises ParameterError, not OverflowError, for a code beyond int64;
        the int64 bounds themselves load."""
        path = tmp_path / "samples.csv"
        write_samples_csv(path, handmade_dataset())
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        for edge in (2 ** 63 - 1, -2 ** 63):
            lines[2] = ",".join(parts[:2] + [str(edge)] + parts[3:])
            path.write_text("\n".join(lines) + "\n")
            assert read_samples_csv(path).window[1] == edge
        lines[2] = ",".join(parts[:2] + [str(window)] + parts[3:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError,
                           match=rf"samples\.csv:3: window {window} does not fit in int64"):
            read_samples_csv(path)
        ds = handmade_dataset()
        with pytest.raises(ParameterError, match="must fit in int64"):
            replace(ds, window=[window, *ds.window[1:].tolist()])


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

    def test_non_finite_weight_rejected(self, tmp_path):
        # json writes and reads NaN as a bare literal
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"L": 2, "weights": [0.1, float("nan")], "bias": 0.0}))
        with pytest.raises(ConfigError, match="model.json: .*finite"):
            read_model_json(path)

    @pytest.mark.parametrize("payload,message", [
        ({"L": 2, "weights": [1.0, 2.0]}, "missing 'bias'"),
        ({"weights": [1.0, 2.0], "bias": 0.0}, "missing 'L'"),
        ({"L": 2, "bias": 0.0}, "missing 'weights'"),
        ({"L": "2", "weights": [1.0, 2.0], "bias": 0.0}, "L must be an integer"),
        ({"L": 2.0, "weights": [1.0, 2.0], "bias": 0.0}, "L must be an integer"),
        ({"L": 2, "weights": [1.0, "2"], "bias": 0.0}, "weights must be a list"),
        ({"L": 1, "weights": 1.0, "bias": 0.0}, "weights must be a list"),
        ({"L": 2, "weights": [1.0, 2.0], "bias": None}, "bias must be a number"),
        ({"L": 2, "weights": [1.0, 2.0], "bias": True}, "bias must be a number"),
        ([1.0, 2.0], "expected a JSON object"),
    ])
    def test_missing_or_ill_typed_field_names_file(self, tmp_path, payload, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=rf"model\.json: {message}"):
            read_model_json(path)

    def test_malformed_json_names_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"L": 2, "weights": [1.0,')
        with pytest.raises(ConfigError, match=r"model\.json: "):
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
        write_rows_csv(path, SWEEP_HEADER, [{"K": 2, "L": 10, "auroc": 0.75}])
        assert path.read_text() == f"{SWEEP_HEADER}\n2,10,0.75\n"

    def test_compare_csv(self, tmp_path):
        path = tmp_path / "compare.csv"
        write_rows_csv(path, COMPARE_HEADER,
                       [{"metric": "adjusted", "tpr": 1.0, "fpr": 0.25}])
        assert path.read_text() == f"{COMPARE_HEADER}\nadjusted,1.0,0.25\n"

    def test_ablation_csv(self, tmp_path):
        path = tmp_path / "ablation.csv"
        rows = [{"normalized": True, "power_scaling": False,
                 "tpr": 0.5, "fpr": 0.125, "accuracy": 0.75, "auroc": 0.875}]
        write_rows_csv(path, ABLATION_HEADER, rows)
        assert path.read_text() == f"{ABLATION_HEADER}\n1,0,0.5,0.125,0.75,0.875\n"

    def test_verdicts_json_structure(self, tmp_path):
        verdicts = {
            (1, 8): Verdict(threshold=0.5, identities=frozenset({"w", "y", "z"}),
                            sybil_pairs=frozenset({("z", "y")})),
            (0, 7): Verdict(threshold=0.5, identities=frozenset({"a", "b"}),
                            sybil_pairs=frozenset()),
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
            positions_at(config.receiver_trajectory, [3.0]), [(0.05, 0.0)])
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
        np.testing.assert_allclose(positions_at(walker.trajectory, [0.0, 2.0, 7.0]),
                                   [(-0.9, 0.5), (-0.5, 0.5), (-0.5, 0.5)])

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


# (INI text, section, a key no reader knows inserted there)
MISSPELT_KEYS = [
    (SCENARIO_INI, "scenario", "horizon"),
    (SCENARIO_INI, "channel", "reflection_coeff"),
    (SCENARIO_INI, "tags", "ring_radius"),
    (SCENARIO_INI, "receiver", "positon"),
    (SCENARIO_INI, "agent.robotB", "speed"),
    (CORPUS_INI, "corpus", "n_scenario"),
    (CORPUS_INI, "sweep", "tag_count"),
]

# (INI text, a line of it, the line with a value that does not parse)
UNPARSABLE_VALUES = [
    (CORPUS_INI, "horizon_s = 12.0", "n_tags = four"),
    (CORPUS_INI, "power_scaling = true", "power_scaling = maybe"),
    (CORPUS_INI, "profile_lens = 2 4", "profile_lens = 2 four"),
    (SCENARIO_INI, "period_s = 0.6", "period_s = fast"),
    (SCENARIO_INI, "snr_db = none", "snr_db = loud"),
    (SCENARIO_INI, "count = 4", "count = four"),
    (SCENARIO_INI, "position = 1.0 0.3", "position = 1.0 north"),
    (SCENARIO_INI, "alphas = n0:2.0 n1:0.5", "alphas = n0:2.0 n1:half"),
]


# (INI text, a line of it, the line with a non-finite float, its section and key):
# the scalar fields, rows, alphas, power, ring_radius_m and speed_mps
NON_FINITE_VALUES = [
    (CORPUS_INI, "horizon_s = 12.0", "horizon_s = inf", "corpus", "horizon_s"),
    (CORPUS_INI, "snr_db = 20", "snr_db = nan", "corpus", "snr_db"),
    (SCENARIO_INI, "period_s = 0.6", "period_s = 1e400", "scenario", "period_s"),
    (SCENARIO_INI, "wavelength_m = 0.125", "wavelength_m = -inf", "channel", "wavelength_m"),
    (SCENARIO_INI, "ring_radius_m = 0.12", "ring_radius_m = inf", "tags", "ring_radius_m"),
    (SCENARIO_INI, "position = 0.05 0.0", "position = 0.05 nan", "receiver", "position"),
    (SCENARIO_INI, "position = 1.0 0.3", "position = -0.9 1e400", "agent.robotA", "position"),
    (SCENARIO_INI, "n1:0.5", "n1:inf", "agent.robotA", "alphas"),
    (SCENARIO_INI, "identities = n2", "identities = n2\npower = nan", "agent.robotB", "power"),
    (SCENARIO_INI, "  -0.5 0.5", "  -0.5 -1e999", "agent.robotB", "path"),
    (SCENARIO_INI, "speed_mps = 0.2", "speed_mps = 1e400", "agent.robotB", "speed_mps"),
]


def read_config(path):
    if "[corpus]" in path.read_text():
        return read_corpus_spec(path)
    return read_scenario_config(path)


class TestConfigBoundary:
    @pytest.mark.parametrize("text,section,key", MISSPELT_KEYS,
                             ids=[section for _, section, _ in MISSPELT_KEYS])
    def test_unknown_key_names_file_section_and_key(self, tmp_path, text, section, key):
        path = tmp_path / "config.ini"
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
        with pytest.raises(ConfigError, match=rf"config\.ini: \[{section}\] unknown key '{key}'"):
            read_config(path)

    def test_default_section_keys_belong_to_every_section(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[DEFAULT]\nhorizon_s = 6.0\n\n" + SCENARIO_INI)
        with pytest.raises(ConfigError, match=r"\[channel\] unknown key 'horizon_s'"):
            read_scenario_config(path)

    @pytest.mark.parametrize("text,old,new", UNPARSABLE_VALUES,
                             ids=[new for *_, new in UNPARSABLE_VALUES])
    def test_unparsable_value_names_file_and_key(self, tmp_path, text, old, new):
        path = tmp_path / "config.ini"
        path.write_text(text.replace(old, new))
        key = new.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"config\.ini: \[[a-z.A-Z]+\] {key} = "):
            read_config(path)

    @pytest.mark.parametrize("text,old,new,section,key", NON_FINITE_VALUES,
                             ids=[f"{section}-{key}" for *_, section, key in NON_FINITE_VALUES])
    def test_non_finite_float_names_file_section_and_key(self, tmp_path, text, old, new,
                                                          section, key):
        """Rejected where it is parsed, before a constructor or numpy sees it."""
        path = tmp_path / "config.ini"
        path.write_text(text.replace(old, new, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=rf"config\.ini: \[{re.escape(section)}\] "
                                                  rf"{key} = .*is not a finite number"):
                read_config(path)

    @pytest.mark.parametrize("text,header", [
        (CORPUS_INI, "[sweeep]"), (CORPUS_INI, "[scenario]"),
        (SCENARIO_INI, "[chanel]"), (SCENARIO_INI, "[agents.robotC]"),
        (SCENARIO_INI, "[corpus]"),
    ])
    def test_unknown_section_names_file_and_section(self, tmp_path, text, header):
        path = tmp_path / "config.ini"
        path.write_text(text + f"\n{header}\n")
        with pytest.raises(ConfigError,
                           match=rf"config\.ini: unknown section \{header[:-1]}\]"):
            read_scenario_config(path) if "[receiver]" in text else read_corpus_spec(path)

    def test_corpus_value_out_of_domain_names_file_and_section(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text(CORPUS_INI.replace("n_scenarios = 3", "n_tags = 1"))
        with pytest.raises(ConfigError, match=r"config\.ini: \[corpus\] n_tags must be >= 2"):
            read_corpus_spec(path)

    def test_scenario_value_out_of_domain_names_file_and_section(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text(SCENARIO_INI.replace("period_s = 0.6", "period_s = -0.6"))
        with pytest.raises(ConfigError, match=r"config\.ini: \[scenario\] period_s"):
            read_scenario_config(path)

    def test_channel_value_out_of_domain_names_file_and_section(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text(SCENARIO_INI.replace("tag_transfer = 0.05", "tag_transfer = -0.05"))
        with pytest.raises(ConfigError, match=r"config\.ini: \[channel\] tag_transfer"):
            read_scenario_config(path)

    @pytest.mark.parametrize("old,new,section,message", [
        ("count = 4", "count = 1", "tags", "need at least 2 tags, got 1"),
        ("count = 4", "positions = 0.12 0.0\n  0.0 0.5", "tags", "must sit on the ring"),
        ("position = 0.05 0.0", "waypoints = 0 0.05 0.0\n  10 5.0 0.0", "receiver",
         "deviate more than 1%"),
        ("position = 1.0 0.3", "waypoints = 0 1.0 0.3\n  10 5.0 0.3", "agent.robotA",
         "deviate more than 1%"),
        ("speed_mps = 0.2", "speed_mps = 0", "agent.robotB", "speed_mps"),
        ("identities = n0 n1", "identities = n0 n0", "agent.robotA",
         "repeats an identity"),
        ("identities = n2", "identities = n1", "scenario",
         "identity 'n1' claimed by more than one agent"),
    ], ids=["ring-count", "ring-positions", "receiver-speed", "agent-speed",
            "agent-path-speed", "agent-identities", "scenario-claims"])
    def test_constructor_error_names_file_and_section(self, tmp_path, old, new,
                                                       section, message):
        path = tmp_path / "config.ini"
        path.write_text(SCENARIO_INI.replace(old, new, 1))
        with pytest.raises(ConfigError,
                           match=rf"config\.ini: \[{re.escape(section)}\] .*{re.escape(message)}"):
            read_scenario_config(path)

    @pytest.mark.parametrize("spb", [1, 3, 4])
    @pytest.mark.parametrize("text,section", [(SCENARIO_INI, "scenario"),
                                              (CORPUS_INI, "corpus")])
    def test_mis_segmenting_samples_per_bit_rejected(self, tmp_path, text, section, spb):
        path = tmp_path / "config.ini"
        path.write_text(text.replace(f"[{section}]\n",
                                     f"[{section}]\nsamples_per_bit = {spb}\n"))
        with pytest.raises(ConfigError, match=rf"config\.ini: \[{section}\] samples_per_bit "
                                              rf"{spb} mis-segments the alternating code"):
            read_config(path)

    @pytest.mark.parametrize("text,section", [(SCENARIO_INI, "scenario"),
                                              (CORPUS_INI, "corpus")])
    def test_short_code_rejected(self, tmp_path, text, section):
        # both files lay out 4 tags
        path = tmp_path / "config.ini"
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\ncode_bits = 27\n"))
        with pytest.raises(ConfigError, match=rf"config\.ini: \[{section}\] code_bits 27 "
                                              r"gives one of 4 tags fewer than 7 bits"):
            read_config(path)

    def test_agent_without_identities_rejected(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text(SCENARIO_INI.replace("identities = n2\n", ""))
        with pytest.raises(ConfigError, match=r"\[agent\.robotB\] needs identities"):
            read_scenario_config(path)

    @pytest.mark.parametrize("text", ["n_tags = 4\n", "[corpus]\nn_tags = 4\nn_tags = 2\n"])
    def test_malformed_file_names_file(self, tmp_path, text):
        path = tmp_path / "config.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"config\.ini"):
            read_corpus_spec(path)

    def test_readme_examples_load(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        scenario_ini, corpus_ini = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = tmp_path / "scenario.ini"
        path.write_text(scenario_ini)
        config = read_scenario_config(path)
        by_source = {a.true_source_id: a for a in config.agents}
        assert by_source["robotA"].claimed_identities == ("n0", "n1")
        assert by_source["robotA"].power_scale_per_identity == {"n0": 2.0, "n1": 0.5}
        assert by_source["robotB"].claimed_identities == ("n2",)
        assert config.tag_layout.n_tags == 4 and config.tag_layout.ring_radius_m == 0.12
        assert (config.horizon_s, config.period_s, config.snr_db) == (60.0, 0.6, 20.0)
        path = tmp_path / "corpus.ini"
        path.write_text(corpus_ini)
        spec, sweep = read_corpus_spec(path)
        assert (spec.n_scenarios, spec.horizon_s, spec.hard_pair_fraction) == (20, 60.0, 0.5)
        assert spec.hard_pair_style == "parallel" and spec.power_scaling is True
        assert sweep == {"tag_counts": (2, 4), "profile_lens": (2, 4, 10)}


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
