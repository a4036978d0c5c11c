"""The sybilscatter benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload cv_train --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  Workloads (see
workloads.py) are closed-loop and single-process, with BLAS pinned to one
thread:

- ``cv_train``: generate_dataset then scenario-grouped cross_validate;
- ``signal_ingest``: generate_dataset only;
- ``online_detect``: the receiving robot, period by period, on degraded
  announcements and a fixed model.

Set-up (building the corpora; for online_detect also simulating them and
loading the model) runs at least SETUP_REPEATS times and ``setup_s`` is the
median.  Then jobs run back to back until ``--seconds`` have passed.  A job
is one pass over the reference corpus, checked against reference.json, and
one over the seed's corpus, checked against the first such pass.  A pass
that raises or whose outputs differ from what is expected counts all its
operations as failed.  An operation is an update period for online_detect
and a whole pass for the other workloads.

Every job repeats the same inputs.  ``--trace 0`` prints the end-to-end
metrics:

- ``run_s``: one job's time, the sum over both inputs' operations of each
  operation's median over the repetitions.  On a shared machine the speed of
  a core drifts for seconds at a time; taking each operation's median
  across repetitions spread over the run keeps one slow stretch from
  landing on a whole block of operations;
- ``period_p50_ms`` and ``period_p99_ms``: percentiles of every raw
  operation latency of the run, unsmoothed, so stalls that are not tied to
  one operation (GC pauses, allocator growth, amortised rebuilds) show;
- ``peak_rss_mb``, and the detection quality of the reference pass
  (cross-validated for cv_train, the fixed model's held-out scores for the
  others).

``--trace 1`` alternates untraced and traced jobs and prints the per-layer
metrics of the median traced job (by its time) and the median set-up: each
module's self time, summed over the spans around the calls into it; per-call
medians and per-unit times; and counts.  In that job the layer self times
plus ``trace.glue_s`` (the benchmark's own code between the calls) add up to
``trace.run_s``; ``trace.overhead_s`` is ``trace.run_s`` minus the median
untraced job time.  Set-up layers (``corpus.build_s``, and online_detect's
``scenario.*``) come from the median set-up.  The run also writes the spans
and a record of the machine (nproc, CPU model, Python, numpy, BLAS and its
thread count) to bench/out/.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"
INPUTS = ("ref", "seed")
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
MIN_JOBS = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "period_p50_ms": "ms",
    "period_p99_ms": "ms",
    "cv_auroc": "ratio",
    "cv_fpr": "ratio",
}

# per-layer metric -> span whose summed self time per job (or set-up) it reports
SPAN_SECONDS = {
    "corpus.build_s": "corpus.build",
    "scenario.simulate_s": "scenario.simulate",
    "pipeline.extract_s": "pipeline.extract",
    "harness.dataset_s": "harness.dataset",
    "detector.train_s": "detector.train",
    "harness.split_s": "harness.split",
    "harness.subset_s": "harness.subset",
    "harness.score_s": "harness.score",
    "harness.aggregate_s": "harness.aggregate",
    "pipeline.signature_s": "pipeline.signature",
    "pipeline.push_s": "pipeline.push",
    "distance.matrix_s": "distance.matrix",
    "detector.similarity_s": "detector.similarity",
    "detector.verdict_s": "detector.verdict",
}
# per-layer metric -> span whose median duration per call it reports
SPAN_CALL_US = {
    "pipeline.signature_us": "pipeline.signature",
    "pipeline.push_us": "pipeline.push",
    "distance.matrix_us": "distance.matrix",
    "detector.similarity_us": "detector.similarity",
    "detector.verdict_us": "detector.verdict",
}
# per-layer metric -> (span, count it is divided by), in microseconds
SPAN_PER_UNIT_US = {
    "scenario.us_per_trace": ("scenario.simulate", "scenario.traces"),
    "pipeline.us_per_trace": ("pipeline.extract", "scenario.traces"),
    "harness.us_per_sample": ("harness.dataset", "harness.samples"),
    "detector.us_per_train_sample": ("detector.train", "detector.train_samples"),
    "distance.us_per_pair": ("distance.matrix", "distance.pairs"),
}
COUNTS = (
    "scenario.traces", "pipeline.rejected", "pipeline.full_windows",
    "harness.samples_pos", "harness.samples_neg", "harness.folds",
    "detector.train_calls", "detector.train_samples", "distance.pairs",
)
# spans of the benchmark's own code; every other span is a layer's
GLUE_SPANS = ("pass", "online.period")

PER_LAYER = {name: "s" for name in SPAN_SECONDS}
PER_LAYER.update({name: "us" for name in SPAN_CALL_US})
PER_LAYER.update({name: "us" for name in SPAN_PER_UNIT_US})
PER_LAYER.update({name: "count" for name in COUNTS})
PER_LAYER.update({"error_rate": "ratio", "trace.run_s": "s",
                  "trace.overhead_s": "s", "trace.glue_s": "s"})


def prepare():
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy is imported.  Exits with status 2 when the
    checkout has no package source.
    """
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "sybilscatter" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_threads": int(BLAS_THREADS)}


class Pass:
    """One timed run of a workload over one input, and its check."""

    def __init__(self, job, which, traced):
        self.job = job
        self.which = which
        self.traced = traced
        self.run_id = f"job{job}-{which}"
        self.elapsed = 0.0
        self.latencies = []
        self.counts = Counter()
        self.attempted = 1
        self.failed = 1
        self.outputs = None
        self.artifacts = None


def run_pass(workload, state, one, tracer) -> None:
    tracer.run_id = one.run_id
    t0 = perf_counter()
    try:
        with tracer.span("pass"):
            one.artifacts = workload.run_pass(state, one.which, tracer, one.counts,
                                              one.latencies)
    except Exception:  # noqa: BLE001 - reported as a failed operation
        traceback.print_exc()
        one.elapsed = perf_counter() - t0
        return
    one.elapsed = perf_counter() - t0
    if not one.latencies:
        one.latencies.append(one.elapsed)
    one.attempted, one.failed = workload.operations(one.artifacts)


def check(workload, state, one, expected) -> None:
    """Compare a pass's outputs with what its input must give."""
    if one.artifacts is None:
        return
    one.outputs = workload.outputs(one.artifacts)
    want = dict(workload.oracle(state, one.which))
    want.update(expected)
    wrong = {k: (one.outputs.get(k), v) for k, v in want.items()
             if one.outputs.get(k) != v}
    if wrong:
        print(f"error: {one.run_id}: (got, expected) {wrong}", file=sys.stderr)
        one.failed = one.attempted


def operation_times(passes) -> list:
    """Each operation's median time over the passes of its input, inputs in order."""
    out = []
    for which in INPUTS:
        runs = [p.latencies for p in passes if p.which == which and p.outputs is not None]
        if runs:
            out.extend(statistics.median(times) for times in zip(*runs))
    return out


def percentile(values, q) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def layer_values(self_times, counts) -> dict:
    """Per-layer metrics of one traced job or one set-up.

    ``self_times`` is {span name: [self time of each span]}, over every pass
    of the job.
    """
    total = {name: sum(v) for name, v in self_times.items()}
    counts = dict(counts)
    if "harness.samples_pos" in counts:
        counts["harness.samples"] = counts["harness.samples_pos"] + counts["harness.samples_neg"]
    out = {m: total[s] for m, s in SPAN_SECONDS.items() if s in total}
    out.update({m: statistics.median(self_times[s]) * 1e6
                for m, s in SPAN_CALL_US.items() if s in self_times})
    out.update({m: total[s] / counts[c] * 1e6 for m, (s, c) in SPAN_PER_UNIT_US.items()
                if s in total and counts.get(c)})
    out.update({m: counts[m] for m in COUNTS if m in counts})
    return out


def jobs_of(passes, traced) -> list:
    """[[pass, ...] of each job], only jobs whose every pass gave outputs."""
    jobs = {}
    for one in passes:
        if one.traced == traced:
            jobs.setdefault(one.job, []).append(one)
    return [job for job in jobs.values() if all(p.outputs is not None for p in job)]


def median_row(rows, key):
    """The row whose ``key`` is the (lower) median: one consistent breakdown."""
    ordered = sorted(rows, key=key)
    return ordered[(len(ordered) - 1) // 2]


def job_layers(by_run, job) -> dict:
    """Per-layer metrics of one traced job, with its time and glue."""
    self_times = defaultdict(list)
    counts = Counter()
    for one in job:
        for name, times in by_run[one.run_id].items():
            self_times[name].extend(times)
        counts.update(one.counts)
        for key in ("samples_pos", "samples_neg"):
            if key in one.outputs:
                counts["harness." + key] += one.outputs[key]
    out = layer_values(self_times, counts)
    out["trace.run_s"] = sum(sum(v) for v in self_times.values())
    out["trace.glue_s"] = sum(sum(self_times.get(s, ())) for s in GLUE_SPANS)
    return out


def per_layer(tracer, setups, passes) -> dict:
    """Per-layer metrics: the median set-up's and the median traced job's."""
    by_run = tracer.self_times()
    out = dict.fromkeys(PER_LAYER, 0)
    if setups:
        run_id, counts, _ = median_row(setups, key=lambda s: s[2])
        out.update(layer_values(by_run[run_id], counts))
    traced = [job_layers(by_run, job) for job in jobs_of(passes, True)]
    untraced = [sum(p.elapsed for p in job) for job in jobs_of(passes, False)]
    if traced:
        out.update(median_row(traced, key=lambda row: row["trace.run_s"]))
        if untraced:
            out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(untraced)
    return out


def measure(workload, seed, size, seconds, trace, reference):
    """Set up, run jobs for ``seconds``, check them; returns (result, passes, tracer)."""
    from tracing import NullTracer, Tracer

    tracer = Tracer() if trace else NullTracer()
    untraced = NullTracer()
    setups = []  # (run id, counts, seconds) of each set-up
    state = None
    for i in itertools.count():
        if i >= SETUP_REPEATS and sum(s[2] for s in setups) >= SETUP_MIN_SECONDS:
            break
        tracer.run_id = f"setup{i}"
        counts = Counter()
        state = None  # release the previous set-up before building the next
        t0 = perf_counter()
        state = workload.setup(seed, size, tracer, counts)
        setups.append((tracer.run_id, counts, perf_counter() - t0))

    passes = []
    expected = {"ref": reference, "seed": {}}
    quality = None
    start = perf_counter()
    for n in itertools.count():
        traced = trace and n % 2 == 1
        if n >= MIN_JOBS and not traced and perf_counter() - start >= seconds:
            break
        for which in INPUTS:
            one = Pass(n, which, traced)
            run_pass(workload, state, one, tracer if traced else untraced)
            check(workload, state, one, expected[which])
            if which == "seed" and not expected["seed"] and one.outputs is not None \
                    and not one.failed:
                expected["seed"] = one.outputs
            if which == "ref" and quality is None and one.outputs is not None:
                try:
                    quality = workload.quality(state, one.artifacts)
                except Exception:  # noqa: BLE001 - reported as a failed operation
                    traceback.print_exc()
                    one.failed = one.attempted
            one.artifacts = None
            passes.append(one)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        metrics = per_layer(tracer, setups, passes)
        metrics["error_rate"] = failed / attempted
        units = PER_LAYER
    else:
        latencies = [t for p in passes for t in p.latencies]
        auroc, fpr = quality if quality is not None else (0.0, 0.0)
        metrics = {
            "setup_s": statistics.median(s[2] for s in setups),
            "run_s": sum(operation_times(passes)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "period_p50_ms": percentile(latencies, 50) * 1e3,
            "period_p99_ms": percentile(latencies, 99) * 1e3,
            "cv_auroc": auroc,
            "cv_fpr": fpr,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0 and quality is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, passes, tracer


def write_trace(path, args, info, passes, tracer) -> None:
    payload = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "machine": info,
        "passes": [{"run": p.run_id, "input": p.which, "traced": p.traced,
                    "seconds": p.elapsed, "attempted": p.attempted,
                    "failed": p.failed, "counts": dict(p.counts)} for p in passes],
        "spans": tracer.rows(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cv_train", "signal_ingest", "online_detect"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few-second run for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    import workloads

    if args.seed < 0 or args.seed == workloads.MODEL_SEED:
        print(f"error: seed must be >= 0 and differ from the model's "
              f"{workloads.MODEL_SEED}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    result, passes, tracer = measure(
        workload, args.seed, args.size, args.seconds, bool(args.trace),
        reference[args.workload][args.size])
    for one in passes:
        print(f"{one.run_id} traced={int(one.traced)} {one.elapsed:.3f}s "
              f"attempted={one.attempted} failed={one.failed}", file=sys.stderr)
    if args.trace:
        info = machine()
        print(f"machine: {json.dumps(info)}", file=sys.stderr)
        path = OUT_DIR / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
        write_trace(path, args, info, passes, tracer)
        print(f"spans written to {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
