"""The benchmark's own tests.

    python3 -m pytest bench/tests

Runs use the ``tiny`` size, so each takes a few seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare()

import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

SEED = 7
TAMPERED_KEY = {"cv_train": "fpr", "signal_ingest": "dataset_digest",
                "online_detect": "verdict_digest"}


def bench(*args):
    argv = [sys.executable, str(BENCH / "run.py"), "--seed", str(SEED),
            "--seconds", "0", "--size", "tiny", *args]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = bench("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tampered_reference_counts_as_failed_operations(workload):
    reference = json.loads(run.REFERENCE_PATH.read_text(encoding="utf-8"))
    entry = reference[workload]["tiny"]
    key = TAMPERED_KEY[workload]
    value = entry[key]
    entry[key] = value[::-1] if isinstance(value, str) else value + 0.5

    result, _, _ = run.measure(workloads.WORKLOADS[workload], SEED, "tiny", 0,
                               False, entry)
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced(workload):
    bench_workload = workloads.WORKLOADS[workload]
    state = bench_workload.setup(SEED, "tiny", NullTracer(), Counter())
    untraced = bench_workload.outputs(
        bench_workload.run_pass(state, "seed", NullTracer(), Counter(), []))

    tracer = Tracer()
    tracer.run_id = "traced"
    with tracer.span("pass"):
        traced = bench_workload.outputs(
            bench_workload.run_pass(state, "seed", tracer, Counter(), []))
    assert traced == untraced

    # self times partition the pass span: layers plus glue add up to it
    name, start, end, parent, _ = tracer.spans[0]
    assert name == "pass" and parent == -1
    self_times = tracer.self_times()["traced"]
    assert sum(sum(v) for v in self_times.values()) == pytest.approx(end - start)
    assert set(self_times) - set(run.GLUE_SPANS) <= set(run.SPAN_SECONDS.values())
    assert len(self_times) > 2


def test_traced_pass_times_every_harness_call_and_restores_it():
    originals = {name: getattr(workloads.harness, name) for name in workloads.HARNESS_SPANS}
    originals.update({name: getattr(workloads.LabeledDataset, name)
                      for name in workloads.DATASET_SPANS})
    cv_train = workloads.WORKLOADS["cv_train"]
    state = cv_train.setup(SEED, "tiny", NullTracer(), Counter())
    tracer = Tracer()
    tracer.run_id = "traced"
    counts = Counter()
    cv_train.run_pass(state, "seed", tracer, counts, [])

    names = {row[0] for row in tracer.spans}
    assert names == set(workloads.HARNESS_SPANS.values()) | set(workloads.DATASET_SPANS.values())
    assert counts["harness.folds"] == counts["detector.train_calls"] == workloads.K_FOLDS
    assert counts["scenario.traces"] > 0 and counts["detector.train_samples"] > 0
    current = {name: getattr(workloads.harness, name) for name in workloads.HARNESS_SPANS}
    current.update({name: getattr(workloads.LabeledDataset, name)
                    for name in workloads.DATASET_SPANS})
    assert current == originals


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layers_and_glue_add_up_to_the_traced_run(workload):
    reference = json.loads(run.REFERENCE_PATH.read_text(encoding="utf-8"))
    result, passes, tracer = run.measure(workloads.WORKLOADS[workload], SEED, "tiny",
                                         0, True, reference[workload]["tiny"])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    in_jobs = {name for one in passes if one.traced
               for name in tracer.self_times()[one.run_id]}
    layers = sum(metrics[m] for m, span in run.SPAN_SECONDS.items() if span in in_jobs)
    assert layers > 0
    assert layers + metrics["trace.glue_s"] == pytest.approx(metrics["trace.run_s"])
    assert metrics["trace.overhead_s"] != 0


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cv_train",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
