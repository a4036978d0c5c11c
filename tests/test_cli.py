"""Command line workflow, run in process against tiny configs."""

import hashlib
import json

import pytest

from sybilscatter.cli import main
from sybilscatter.fileio import (
    ABLATION_HEADER,
    COMPARE_HEADER,
    ROC_HEADER,
    SWEEP_HEADER,
    read_samples_csv,
)

CORPUS_INI = """\
[corpus]
n_scenarios = 3
horizon_s = 12.0
hard_pair_fraction = 1.0
hard_pair_style = mirror

[sweep]
tag_counts = 2
profile_lens = 2 3
"""

SCENARIO_INI = """\
[scenario]
horizon_s = 3.0
period_s = 0.6

[receiver]
position = 0.05 0.0

[agent.robotA]
identities = n0 n1
position = 1.0 0.3

[agent.robotB]
identities = n2
position = -0.9 0.5
"""


# sha256 of the experiment files that corpus_ini gives at seed 7 (ablation
# and comparison at --profile-len 3): every byte the shared writer emits
EXPERIMENT_SHA256 = {
    "sweep.csv": "40cfbb0dd8f932316443bba719adb4d29ace4b2cf9c80a049d45f654aa6c8890",
    "ablation.csv": "7fc59146027d96bdad2f244ced332d0b6f081517a2ec9b728b926be8ad0783f1",
    "compare.csv": "c5652a4430fa936e821b456931f3f112cd49cf4e2c0dc1d9173c13cc835a9a75",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "corpus.ini"
    path.write_text(CORPUS_INI)
    return str(path)


@pytest.fixture(scope="module")
def scenario_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "scenario.ini"
    path.write_text(SCENARIO_INI)
    return str(path)


@pytest.fixture(scope="module")
def samples_dir(tmp_path_factory, corpus_ini):
    out = tmp_path_factory.mktemp("samples")
    rc = main(["dataset", "--config", corpus_ini, "--profile-len", "3",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_scenario_directories(self, tmp_path, scenario_ini, capsys):
        rc = main(["simulate", "--config", scenario_ini, "--seed", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        run_dir = tmp_path / "scenario_000"
        assert (run_dir / "labels.json").exists()
        for identity in ("n0", "n1", "n2"):
            assert (run_dir / f"trace_{identity}.csv").exists()
        assert "scenario_000: 3 identities" in capsys.readouterr().out

    def test_labels_carry_ground_truth(self, tmp_path, scenario_ini):
        main(["simulate", "--config", scenario_ini, "--seed", "5",
              "--out", str(tmp_path)])
        labels = json.loads((tmp_path / "scenario_000" / "labels.json").read_text())
        assert labels["identities"] == {"n0": "robotA", "n1": "robotA",
                                        "n2": "robotB"}


class TestDataset:
    def test_writes_samples_csv(self, samples_dir):
        ds = read_samples_csv(samples_dir / "samples.csv")
        assert ds.profile_len == 3
        assert len(ds) > 0
        assert 0 < ds.labels().sum() < len(ds)

    def test_from_trace_directory(self, tmp_path, scenario_ini):
        main(["simulate", "--config", scenario_ini, "--seed", "5",
              "--out", str(tmp_path / "runs")])
        rc = main(["dataset", "--traces", str(tmp_path / "runs"),
                   "--profile-len", "2", "--out", str(tmp_path / "ds")])
        assert rc == 0
        ds = read_samples_csv(tmp_path / "ds" / "samples.csv")
        assert ds.profile_len == 2
        assert {i for _, _, i, *_ in ds.rows()} == {"n0", "n1", "n2"}

    def test_single_run_directory_accepted(self, tmp_path, scenario_ini):
        main(["simulate", "--config", scenario_ini, "--seed", "5",
              "--out", str(tmp_path / "runs")])
        rc = main(["dataset", "--traces", str(tmp_path / "runs" / "scenario_000"),
                   "--profile-len", "2", "--out", str(tmp_path / "ds")])
        assert rc == 0

    def test_reruns_are_byte_identical(self, tmp_path, corpus_ini, samples_dir):
        rc = main(["dataset", "--config", corpus_ini, "--profile-len", "3",
                   "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "samples.csv").read_bytes() \
            == (samples_dir / "samples.csv").read_bytes()


class TestTrainEvaluate:
    def test_train_writes_model(self, tmp_path, samples_dir, capsys):
        rc = main(["train", "--dataset", str(samples_dir / "samples.csv"),
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "model.json").read_text())
        assert payload["L"] == 3
        assert "trained on" in capsys.readouterr().out

    def test_evaluate_cross_validation(self, tmp_path, samples_dir, capsys):
        rc = main(["evaluate", "--dataset", str(samples_dir / "samples.csv"),
                   "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        # 3 scenarios cannot support the default 10 folds
        assert "clamping k-folds to 3" in out
        assert "auroc=" in out
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) == {"tpr", "fpr", "accuracy", "auroc",
                                "n_fake", "n_legit"}
        roc = (tmp_path / "roc.csv").read_text().splitlines()
        assert roc[0] == ROC_HEADER and len(roc) == 202
        assert not (tmp_path / "verdicts.json").exists()

    def test_evaluate_with_model_writes_verdicts(self, tmp_path, samples_dir):
        main(["train", "--dataset", str(samples_dir / "samples.csv"),
              "--out", str(tmp_path)])
        rc = main(["evaluate", "--dataset", str(samples_dir / "samples.csv"),
                   "--model", str(tmp_path / "model.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        verdicts = json.loads((tmp_path / "verdicts.json").read_text())
        assert verdicts["sigma"] == 0.5
        assert len(verdicts["scenarios"]) == 3
        for entry in verdicts["scenarios"]:
            assert set(entry) == {"scenario", "sybil_pairs",
                                  "fake_identities", "legit_identities"}

    def test_evaluate_reruns_are_byte_identical(self, tmp_path, samples_dir):
        for sub in ("a", "b"):
            rc = main(["evaluate", "--dataset", str(samples_dir / "samples.csv"),
                       "--seed", "7", "--out", str(tmp_path / sub)])
            assert rc == 0
        for name in ("metrics.json", "roc.csv"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()


class TestExperimentCommands:
    def test_sweep(self, tmp_path, corpus_ini, capsys):
        rc = main(["sweep", "--config", corpus_ini, "--seed", "7",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert [line.split(",")[:2] for line in lines[1:]] \
            == [["2", "2"], ["2", "3"]]
        assert "K=2 L=2" in capsys.readouterr().out
        assert sha256(tmp_path / "sweep.csv") == EXPERIMENT_SHA256["sweep.csv"]

    def test_ablate_norm(self, tmp_path, corpus_ini):
        rc = main(["ablate-norm", "--config", corpus_ini, "--seed", "7",
                   "--profile-len", "3", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "ablation.csv").read_text().splitlines()
        assert lines[0] == ABLATION_HEADER
        assert sorted(line.split(",")[:2] for line in lines[1:]) \
            == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
        assert sha256(tmp_path / "ablation.csv") == EXPERIMENT_SHA256["ablation.csv"]

    def test_compare_metrics(self, tmp_path, corpus_ini):
        rc = main(["compare-metrics", "--config", corpus_ini, "--seed", "7",
                   "--profile-len", "3", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == COMPARE_HEADER
        assert [line.split(",")[0] for line in lines[1:]] \
            == ["adjusted", "manhattan", "euclidean", "chebyshev", "cosine"]
        assert sha256(tmp_path / "compare.csv") == EXPERIMENT_SHA256["compare.csv"]


class TestErrors:
    def test_missing_dataset_file_exits_2(self, tmp_path, capsys):
        rc = main(["evaluate", "--dataset", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate_rejects_model_without_bias(self, tmp_path, samples_dir, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"L": 2, "weights": [1.0, 2.0]}))
        rc = main(["evaluate", "--dataset", str(samples_dir / "samples.csv"),
                   "--model", str(model), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "model.json: missing 'bias'" in err

    def test_dataset_rejects_labels_without_modulation(self, tmp_path, scenario_ini, capsys):
        main(["simulate", "--config", scenario_ini, "--seed", "5",
              "--out", str(tmp_path / "runs")])
        labels = tmp_path / "runs" / "scenario_000" / "labels.json"
        payload = json.loads(labels.read_text())
        del payload["modulation"]
        labels.write_text(json.dumps(payload))
        rc = main(["dataset", "--traces", str(tmp_path / "runs"), "--out", str(tmp_path / "ds")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "labels.json: missing 'modulation'" in err

    def test_dataset_rejects_an_out_of_range_tag(self, tmp_path, scenario_ini, capsys):
        # a tag index beyond int16 once ended the command in an OverflowError
        main(["simulate", "--config", scenario_ini, "--seed", "5",
              "--out", str(tmp_path / "runs")])
        path = tmp_path / "runs" / "scenario_000" / "trace_n0.csv"
        lines = path.read_text().splitlines()
        lines[1] = "0.0,1e-06,70000"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["dataset", "--traces", str(tmp_path / "runs"), "--out", str(tmp_path / "ds")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trace_n0.csv: tag_schedule values" in err

    def test_dataset_rejects_a_trace_of_one_code_span(self, tmp_path, scenario_ini, capsys):
        # 512 samples are one lag of the stock code, which never decodes
        main(["simulate", "--config", scenario_ini, "--seed", "5",
              "--out", str(tmp_path / "runs")])
        path = tmp_path / "runs" / "scenario_000" / "trace_n0.csv"
        path.write_text("t_s,sample,tag_index\n" + "0.0,1e-06,0\n" * 512)
        rc = main(["dataset", "--traces", str(tmp_path / "runs"), "--out", str(tmp_path / "ds")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trace_n0.csv: trace of 512 samples" in err

    def test_experiment_rejects_scenario_config(self, tmp_path, scenario_ini,
                                                capsys):
        rc = main(["sweep", "--config", scenario_ini, "--out", str(tmp_path)])
        assert rc == 2
        assert "needs a [corpus] config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "dataset", "train"])
    @pytest.mark.parametrize("flag", [["--sigma", "0.3"], ["--k-folds", "3"]],
                             ids=["sigma", "k-folds"])
    def test_commands_without_scoring_reject_scoring_flags(self, tmp_path, command,
                                                           flag, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, *flag, "--out", str(tmp_path)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
