"""Command line front end.

Subcommands mirror the library workflow: simulate scenarios to trace CSVs,
turn traces (or fresh simulations) into a labeled dataset, train the
similarity model, evaluate it, and run the three stock experiments.  Every
command is deterministic for a fixed --seed, so reruns produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio, harness
from .corpus import CorpusSpec, build_corpus
from .detector import DEFAULT_THRESHOLD, TrainingConfig, train_mwle
from .errors import ConfigError
from .scenario import ScenarioRun, simulate_scenario

# Defaults for running without --config: small corpora that finish in
# seconds.  The stock experiment specs in harness stay available through
# config files.
DEMO_SIM_SPEC = CorpusSpec(n_scenarios=1, horizon_s=6.0)
DEMO_CORPUS_SPEC = CorpusSpec(n_scenarios=4, horizon_s=30.0)
DEMO_EXPERIMENT_SPEC = CorpusSpec(n_scenarios=6, horizon_s=30.0)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=harness.DEFAULT_SEED,
                        help="master seed (default %(default)s)")
    common.add_argument("--config", default=None,
                        help="INI file describing a scenario or a corpus")
    common.add_argument("--out", default="out",
                        help="output directory (default %(default)s)")
    # only the commands that score a model take these
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--k-folds", type=int, default=harness.DEFAULT_K_FOLDS,
                         dest="k_folds",
                         help="cross-validation folds (default %(default)s)")
    scoring.add_argument("--sigma", type=float, default=DEFAULT_THRESHOLD,
                         help="similarity threshold (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="sybilscatter",
        description="Backscatter-tag Sybil detection: simulation, training, "
                    "evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate scenarios and write trace CSVs")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dataset", parents=[common],
                       help="build a labeled distance dataset (samples.csv)")
    p.add_argument("--traces", default=None,
                   help="directory of simulate output to read instead of "
                        "simulating fresh scenarios")
    p.add_argument("--profile-len", type=int, default=harness.DEFAULT_PROFILE_LEN,
                   dest="profile_len", help="profile window length L")
    p.add_argument("--metric", default=harness.ADJUSTED_METRIC,
                   choices=harness.DATASET_METRICS, help="distance metric")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", parents=[common],
                       help="train the similarity model (model.json)")
    p.add_argument("--dataset", default=None, help="samples.csv to train on")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common, scoring],
                       help="evaluate detection (metrics.json, roc.csv)")
    p.add_argument("--dataset", default=None, help="samples.csv to evaluate")
    p.add_argument("--model", default=None,
                   help="model.json; without it, run cross-validation")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[common, scoring],
                       help="tag count x profile length AUROC sweep (sweep.csv)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate-norm", parents=[common, scoring],
                       help="normalization ablation under power scaling "
                            "(ablation.csv)")
    p.add_argument("--profile-len", type=int, default=harness.DEFAULT_PROFILE_LEN,
                   dest="profile_len")
    p.set_defaults(func=cmd_ablate_norm)

    p = sub.add_parser("compare-metrics", parents=[common, scoring],
                       help="false-positive comparison of distance metrics "
                            "(compare.csv)")
    p.add_argument("--profile-len", type=int, default=harness.DEFAULT_PROFILE_LEN,
                   dest="profile_len")
    p.set_defaults(func=cmd_compare_metrics)

    return parser


# ---------------------------------------------------------------- helpers

def _corpus_from_config(args, default_spec: CorpusSpec):
    """(configs, seeds) from --config, or from a default corpus spec."""
    if args.config is None:
        configs, seeds = build_corpus(default_spec, args.seed)
        return configs, seeds
    kind = fileio.detect_config_kind(args.config)
    if kind == "scenario":
        config = fileio.read_scenario_config(args.config)
        return [config], [int(args.seed)]
    spec, _ = fileio.read_corpus_spec(args.config)
    configs, seeds = build_corpus(spec, args.seed)
    return configs, seeds


def _spec_from_config(args, default_spec: CorpusSpec):
    """(CorpusSpec, sweep options) for the experiment commands."""
    if args.config is None:
        return default_spec, None
    kind = fileio.detect_config_kind(args.config)
    if kind != "corpus":
        raise ConfigError("this command needs a [corpus] config, not a "
                          "single scenario")
    return fileio.read_corpus_spec(args.config)


def _clamp_folds(args, n_groups: int) -> int:
    if n_groups < 2:
        raise ConfigError(f"need at least 2 scenario groups, got {n_groups}")
    k = min(args.k_folds, n_groups)
    if k != args.k_folds:
        print(f"note: clamping k-folds to {k} (only {n_groups} scenario groups)")
    return k


def _build_dataset(args) -> harness.LabeledDataset:
    if getattr(args, "dataset", None):
        return fileio.read_samples_csv(args.dataset)
    if getattr(args, "traces", None):
        return _dataset_from_traces(args)
    configs, seeds = _corpus_from_config(args, DEMO_CORPUS_SPEC)
    profile_len = getattr(args, "profile_len", harness.DEFAULT_PROFILE_LEN)
    metric = getattr(args, "metric", harness.ADJUSTED_METRIC)
    return harness.generate_dataset(
        configs, seeds, n_tags=configs[0].tag_layout.n_tags,
        profile_len=profile_len, metric=metric)


def _dataset_from_traces(args) -> harness.LabeledDataset:
    root = Path(args.traces)
    if (root / "labels.json").exists():
        run_dirs = [root]
    else:
        run_dirs = sorted(d for d in root.iterdir()
                          if d.is_dir() and (d / "labels.json").exists())
    if not run_dirs:
        raise ConfigError(f"no scenario runs found under {root}")
    scenarios = []
    for idx, run_dir in enumerate(run_dirs):
        traces, labels = fileio.read_run(run_dir)
        run = ScenarioRun(
            traces=traces, true_sources=dict(labels["identities"]),
            seed=int(labels["seed"]))
        scenarios.append(harness.extract_signatures(run, config_index=idx))
    return harness.build_dataset(scenarios, args.profile_len, metric=args.metric)


# ---------------------------------------------------------------- commands

def cmd_simulate(args) -> int:
    configs, seeds = _corpus_from_config(args, DEMO_SIM_SPEC)
    out = Path(args.out)
    for idx, (config, seed) in enumerate(zip(configs, seeds)):
        run = simulate_scenario(config, seed)
        run_dir = out / f"scenario_{idx:03d}"
        fileio.write_run(run_dir, run, config)
        n_traces = sum(len(ts) for ts in run.traces.values())
        print(f"scenario_{idx:03d}: {len(run.traces)} identities, "
              f"{n_traces} traces -> {run_dir}")
    return 0


def cmd_dataset(args) -> int:
    dataset = _build_dataset(args)
    out = Path(args.out)
    path = out / "samples.csv"
    fileio.write_samples_csv(path, dataset)
    print(f"{len(dataset)} samples (L={dataset.profile_len}, "
          f"{dataset.positive_fraction():.1%} positive) -> {path}")
    return 0


def cmd_train(args) -> int:
    dataset = _build_dataset(args)
    model = train_mwle(dataset.training_samples(), TrainingConfig())
    out = Path(args.out)
    path = out / "model.json"
    fileio.write_model_json(path, model)
    print(f"trained on {len(dataset)} samples (L={dataset.profile_len}) -> {path}")
    return 0


def cmd_evaluate(args) -> int:
    dataset = _build_dataset(args)
    out = Path(args.out)
    if args.model:
        model = fileio.read_model_json(args.model)
        report = harness.evaluate(model, dataset, sigma=args.sigma)
        verdicts = harness.scenario_verdicts(model, dataset, args.sigma)
        fileio.write_verdicts_json(out / "verdicts.json", verdicts, args.sigma)
    else:
        k = _clamp_folds(args, len(dataset.keys))
        report = harness.cross_validate(dataset, k=k, seed=args.seed,
                                        sigma=args.sigma)
    fileio.write_metrics_json(out / "metrics.json", report)
    fileio.write_roc_csv(out / "roc.csv", report)
    print(f"tpr={report.tpr:.3f} fpr={report.fpr:.3f} "
          f"accuracy={report.accuracy:.3f} auroc={report.auroc:.3f} "
          f"({report.n_fake} fake / {report.n_legit} legit) -> {out}")
    return 0


def cmd_sweep(args) -> int:
    spec, sweep_opts = _spec_from_config(args, DEMO_EXPERIMENT_SPEC)
    sweep_opts = sweep_opts or {}
    tag_counts = sweep_opts.get("tag_counts", (2, 4))
    profile_lens = sweep_opts.get("profile_lens", (2, 10))
    k = _clamp_folds(args, spec.n_scenarios)
    rows = harness.sweep_profile_size(tag_counts, profile_lens, spec,
                                      args.seed, k_folds=k, sigma=args.sigma)
    out = Path(args.out)
    path = out / "sweep.csv"
    fileio.write_rows_csv(path, fileio.SWEEP_HEADER, rows)
    for row in rows:
        print(f"K={row['K']} L={row['L']}: auroc={row['auroc']:.3f}")
    print(f"-> {path}")
    return 0


def cmd_ablate_norm(args) -> int:
    spec, _ = _spec_from_config(args, DEMO_EXPERIMENT_SPEC)
    k = _clamp_folds(args, spec.n_scenarios)
    rows = harness.ablation_normalization(spec, args.seed,
                                          profile_len=args.profile_len,
                                          k_folds=k, sigma=args.sigma)
    out = Path(args.out)
    path = out / "ablation.csv"
    fileio.write_rows_csv(path, fileio.ABLATION_HEADER, rows)
    for row in rows:
        kind = "normalized" if row["normalized"] else "raw"
        scale = "scaled" if row["power_scaling"] else "unscaled"
        print(f"{kind}/{scale}: tpr={row['tpr']:.3f} fpr={row['fpr']:.3f} "
              f"auroc={row['auroc']:.3f}")
    print(f"-> {path}")
    return 0


def cmd_compare_metrics(args) -> int:
    spec, _ = _spec_from_config(args, harness.COMPARE_CORPUS_SPEC)
    k = _clamp_folds(args, spec.n_scenarios)
    rows = harness.compare_distance_metrics(spec, args.seed,
                                            profile_len=args.profile_len,
                                            k_folds=k, sigma=args.sigma)
    out = Path(args.out)
    path = out / "compare.csv"
    fileio.write_rows_csv(path, fileio.COMPARE_HEADER, rows)
    for row in rows:
        print(f"{row['metric']}: tpr={row['tpr']:.3f} fpr={row['fpr']:.3f}")
    print(f"-> {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
