"""File formats: trace CSV, dataset CSV, model/metrics/verdict JSON, INI configs.

All writers are deterministic: floats are emitted with repr (shortest
round-trip form), JSON keys are sorted, and rows follow input order, so a
rerun with the same seed produces byte-identical files.
"""

from __future__ import annotations

import configparser
import json
from pathlib import Path

import numpy as np

from .corpus import CorpusSpec
from .detector import LRModel
from .errors import ConfigError
from .harness import DatasetSample, LabeledDataset, MetricsReport
from .scenario import (
    ChannelParams,
    ReceivedTrace,
    RobotAgent,
    ScenarioConfig,
    ScenarioRun,
    TagLayout,
    Trajectory,
    alternating_code,
)

TRACE_HEADER = "t_s,sample,tag_index"
ROC_HEADER = "threshold,fpr,tpr"
SWEEP_HEADER = "K,L,auroc"
COMPARE_HEADER = "metric,tpr,fpr"
ABLATION_HEADER = "normalized,power_scaling,tpr,fpr,accuracy,auroc"


def _fmt(x) -> str:
    return repr(float(x))


def _write_text(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _dump_json(path, payload):
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------- traces

def write_trace_csv(path, traces) -> None:
    """All traces of one identity, one row per sample.

    The t_s column repeats each trace's start time and doubles as the
    period key when reading the file back.
    """
    lines = [TRACE_HEADER]
    for trace in traces:
        t_s = _fmt(trace.t_s)
        for sample, tag in zip(trace.samples, trace.tag_schedule):
            lines.append(f"{t_s},{_fmt(sample)},{int(tag)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_run_labels(path, run: ScenarioRun, config: ScenarioConfig) -> None:
    """Ground-truth sidecar for one simulated scenario."""
    payload = {
        "seed": int(run.seed),
        "identities": {ident: src for ident, src in run.true_sources.items()},
        "modulation": {
            "code_bits": config.code_bits,
            "samples_per_bit": config.samples_per_bit,
            "sample_rate_hz": config.sample_rate_hz,
            "n_tags": config.tag_layout.n_tags,
        },
    }
    _dump_json(path, payload)


def write_run(out_dir, run: ScenarioRun, config: ScenarioConfig) -> list:
    """One CSV per identity plus labels.json; returns the paths written."""
    out_dir = Path(out_dir)
    paths = []
    for identity, traces in run.traces.items():
        path = out_dir / f"trace_{identity}.csv"
        write_trace_csv(path, traces)
        paths.append(path)
    labels = out_dir / "labels.json"
    write_run_labels(labels, run, config)
    paths.append(labels)
    return paths


def read_run_labels(path) -> dict:
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def read_trace_csv(path, identity: str, labels: dict) -> list:
    """Rebuild the ReceivedTrace sequence for one identity."""
    mod = labels["modulation"]
    code = alternating_code(int(mod["code_bits"]))
    source = labels["identities"][identity]
    traces = []
    t_s = None
    samples: list = []
    tags: list = []

    def flush():
        if t_s is None:
            return
        traces.append(ReceivedTrace(
            identity=identity,
            true_source_id=source,
            t_s=float(t_s),
            sample_rate_hz=float(mod["sample_rate_hz"]),
            samples=np.array(samples, dtype=np.float64),
            tag_schedule=np.array(tags, dtype=np.int16),
            tag_code=code,
            samples_per_bit=int(mod["samples_per_bit"]),
            n_tags=int(mod["n_tags"]),
        ))

    with open(path, encoding="utf-8") as fp:
        header = fp.readline().strip()
        if header != TRACE_HEADER:
            raise ConfigError(f"{path}: expected header {TRACE_HEADER!r}, got {header!r}")
        for line in fp:
            line = line.strip()
            if not line:
                continue
            t_str, sample_str, tag_str = line.split(",")
            if t_s is None or t_str != t_s:
                flush()
                t_s = t_str
                samples, tags = [], []
            samples.append(float(sample_str))
            tags.append(int(tag_str))
    flush()
    return traces


def read_run(run_dir) -> tuple:
    """Load a scenario directory back into (traces by identity, labels)."""
    run_dir = Path(run_dir)
    labels = read_run_labels(run_dir / "labels.json")
    traces = {}
    for identity in sorted(labels["identities"]):
        path = run_dir / f"trace_{identity}.csv"
        if path.exists():
            traces[identity] = read_trace_csv(path, identity, labels)
    return traces, labels


# ---------------------------------------------------------------- dataset

def samples_header(profile_len: int) -> str:
    cols = ["scenario", "seed", "window", "from_id", "to_id",
            "from_source", "to_source", "label"]
    cols += [f"d_{l}" for l in range(1, profile_len + 1)]
    return ",".join(cols)


def write_samples_csv(path, dataset: LabeledDataset) -> None:
    profile_len = dataset.profile_len
    lines = [samples_header(profile_len)]
    for s in dataset.samples:
        src = dataset.sources[s.scenario_key]
        row = [str(s.scenario_key[0]), str(s.scenario_key[1]), str(s.window),
               s.from_identity, s.to_identity,
               src[s.from_identity], src[s.to_identity], str(s.label)]
        row += [_fmt(v) for v in s.values]
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


def read_samples_csv(path) -> LabeledDataset:
    samples = []
    sources: dict = {}
    with open(path, encoding="utf-8") as fp:
        header = fp.readline().strip().split(",")
        if header[:8] != ["scenario", "seed", "window", "from_id", "to_id",
                          "from_source", "to_source", "label"]:
            raise ConfigError(f"{path}: unexpected dataset header")
        profile_len = len(header) - 8
        if profile_len < 1:
            raise ConfigError(f"{path}: no distance columns")
        for lineno, line in enumerate(fp, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            key = (int(parts[0]), int(parts[1]))
            from_id, to_id = parts[3], parts[4]
            values = np.array([float(v) for v in parts[8:]], dtype=np.float64)
            if not np.all(np.isfinite(values)):
                raise ConfigError(f"{path}:{lineno}: distances must be finite")
            sources.setdefault(key, {})
            sources[key][from_id] = parts[5]
            sources[key][to_id] = parts[6]
            samples.append(DatasetSample(
                scenario_key=key, window=int(parts[2]),
                from_identity=from_id, to_identity=to_id,
                label=int(parts[7]), values=values))
    return LabeledDataset(samples=tuple(samples), sources=sources,
                          provenance={"profile_len": profile_len, "path": str(path)})


# ---------------------------------------------------------------- model & metrics

def write_model_json(path, model: LRModel) -> None:
    payload = {
        "L": int(model.profile_len),
        "weights": [float(w) for w in model.weights],
        "bias": float(model.bias),
    }
    _dump_json(path, payload)


def read_model_json(path) -> LRModel:
    with open(path, encoding="utf-8") as fp:
        payload = json.load(fp)
    weights = np.array(payload["weights"], dtype=np.float64)
    if int(payload["L"]) != weights.size:
        raise ConfigError(f"{path}: L={payload['L']} but {weights.size} weights")
    return LRModel(weights=weights, bias=float(payload["bias"]))


def write_metrics_json(path, report: MetricsReport) -> None:
    payload = {
        "tpr": report.tpr,
        "fpr": report.fpr,
        "accuracy": report.accuracy,
        "auroc": report.auroc,
        "n_fake": report.n_fake,
        "n_legit": report.n_legit,
    }
    _dump_json(path, payload)


def write_roc_csv(path, report: MetricsReport) -> None:
    lines = [ROC_HEADER]
    for threshold, fpr, tpr in report.roc_sweep:
        lines.append(f"{_fmt(threshold)},{_fmt(fpr)},{_fmt(tpr)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_sweep_csv(path, rows) -> None:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(f"{int(row['K'])},{int(row['L'])},{_fmt(row['auroc'])}")
    _write_text(path, "\n".join(lines) + "\n")


def write_compare_csv(path, rows) -> None:
    lines = [COMPARE_HEADER]
    for row in rows:
        lines.append(f"{row['metric']},{_fmt(row['tpr'])},{_fmt(row['fpr'])}")
    _write_text(path, "\n".join(lines) + "\n")


def write_ablation_csv(path, rows) -> None:
    lines = [ABLATION_HEADER]
    for row in rows:
        lines.append(",".join([
            str(int(row["normalized"])), str(int(row["power_scaling"])),
            _fmt(row["tpr"]), _fmt(row["fpr"]),
            _fmt(row["accuracy"]), _fmt(row["auroc"]),
        ]))
    _write_text(path, "\n".join(lines) + "\n")


def write_verdicts_json(path, verdicts: dict, sigma: float) -> None:
    """Per-scenario verdicts: {scenario_key: Verdict}."""
    payload = {
        "sigma": float(sigma),
        "scenarios": [
            {
                "scenario": list(key),
                "sybil_pairs": sorted([list(p) for p in v.sybil_pairs]),
                "fake_identities": sorted(v.fake_identities),
                "legit_identities": sorted(v.legit_identities),
            }
            for key, v in sorted(verdicts.items())
        ],
    }
    _dump_json(path, payload)


# ---------------------------------------------------------------- INI configs

def _parser():
    return configparser.ConfigParser(interpolation=None)


def _parse_rows(text, width: int, what: str) -> np.ndarray:
    rows = []
    for line in text.strip().splitlines():
        parts = line.split()
        if len(parts) != width:
            raise ConfigError(f"{what} line needs {width} values, got {line!r}")
        rows.append([float(p) for p in parts])
    if not rows:
        raise ConfigError(f"empty {what} list")
    return np.array(rows)


def _section_trajectory(section, horizon_s: float, default_speed: float,
                        name: str) -> Trajectory:
    """Trajectory from an INI section.

    Three equivalent spellings: explicit timed ``waypoints`` (t x y rows),
    a ``path`` of x y rows walked at ``speed_mps`` (padded with a final
    dwell if it ends before the horizon), or a stationary ``position``.
    """
    speed = float(section.get("speed_mps", default_speed))
    given = [k for k in ("waypoints", "path", "position") if k in section]
    if len(given) != 1:
        raise ConfigError(
            f"section [{name}] needs exactly one of waypoints/path/position, "
            f"got {given or 'none'}")
    if "waypoints" in section:
        return Trajectory(waypoints=_parse_rows(section["waypoints"], 3, "waypoint"),
                          speed_mps=speed)
    if "position" in section:
        x, y = _parse_rows(section["position"], 2, "position")[0]
        waypoints = [(0.0, x, y), (horizon_s + 1.0, x, y)]
        return Trajectory(waypoints=np.array(waypoints), speed_mps=speed)
    points = _parse_rows(section["path"], 2, "path")
    traj = Trajectory.from_path(points, speed)
    if traj.t_max < horizon_s:
        traj = Trajectory.from_path(points, speed,
                                    dwell_s=horizon_s + 1.0 - traj.t_max)
    return traj


def _parse_snr(raw):
    if raw is None:
        return ScenarioConfig.__dataclass_fields__["snr_db"].default
    raw = raw.strip().lower()
    if raw in ("none", "off", ""):
        return None
    return float(raw)


def read_scenario_config(path) -> ScenarioConfig:
    """Single-scenario INI: [scenario], [channel], [tags], [receiver], [agent.*]."""
    cp = _parser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if "receiver" not in cp:
        raise ConfigError(f"{path}: missing [receiver] section")

    sc = cp["scenario"] if "scenario" in cp else {}
    horizon_s = float(sc.get("horizon_s", 6.0))
    ch = cp["channel"] if "channel" in cp else {}
    channel = ChannelParams(
        wavelength_m=float(ch.get("wavelength_m", 0.125)),
        tx_gain=float(ch.get("tx_gain", 1.0)),
        rx_gain=float(ch.get("rx_gain", 1.0)),
        tag_gain=float(ch.get("tag_gain", 1.0)),
        reflection_coeff=float(ch.get("reflection_coeff", 1.0)),
        tag_transfer=float(ch.get("tag_transfer", 0.05)),
    )

    tg = cp["tags"] if "tags" in cp else {}
    ring_radius = float(tg.get("ring_radius_m", 0.12))
    if "positions" in tg:
        pos = []
        for line in tg["positions"].strip().splitlines():
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(f"tag position line needs 'x y', got {line!r}")
            pos.append([float(p) for p in parts])
        layout = TagLayout(tag_positions=np.array(pos), ring_radius_m=ring_radius)
    else:
        layout = TagLayout.regular_ring(int(tg.get("count", 4)), ring_radius)

    receiver = _section_trajectory(cp["receiver"], horizon_s, 0.2, "receiver")

    agents = []
    for section in cp.sections():
        if not section.startswith("agent."):
            continue
        ag = cp[section]
        source = section[len("agent."):]
        identities = tuple(ag["identities"].split())
        scale = {}
        if "alphas" in ag:
            for token in ag["alphas"].split():
                ident, _, value = token.partition(":")
                if not value:
                    raise ConfigError(f"alpha entry needs 'identity:value', got {token!r}")
                scale[ident] = float(value)
        agents.append(RobotAgent(
            true_source_id=source,
            claimed_identities=identities,
            trajectory=_section_trajectory(ag, horizon_s, 0.2, section),
            base_tx_power_w=float(ag.get("power", 3.0)),
            power_scale_per_identity=scale,
        ))
    if not agents:
        raise ConfigError(f"{path}: no [agent.*] sections")

    return ScenarioConfig(
        channel=channel,
        tag_layout=layout,
        receiver_trajectory=receiver,
        agents=tuple(agents),
        horizon_s=horizon_s,
        period_s=float(sc.get("period_s", 0.6)),
        code_bits=int(sc.get("code_bits", 64)),
        samples_per_bit=int(sc.get("samples_per_bit", 8)),
        sample_rate_hz=float(sc.get("sample_rate_hz", 8000.0)),
        ambient_w=float(sc.get("ambient_w", 1e-6)),
        snr_db=_parse_snr(sc.get("snr_db")),
        slot_spacing_s=float(sc.get("slot_spacing_s", 0.02)),
    )


def read_corpus_spec(path) -> tuple:
    """Corpus INI: [corpus] spec knobs plus an optional [sweep] section.

    Returns (CorpusSpec, sweep options dict or None).
    """
    cp = _parser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if "corpus" not in cp:
        raise ConfigError(f"{path}: missing [corpus] section")
    co = cp["corpus"]
    kwargs = {}
    float_keys = ("horizon_s", "period_s", "alpha_low", "alpha_high",
                  "hard_pair_fraction", "hard_offset_low", "hard_offset_high",
                  "colocated_half_deg", "speed_mps", "base_tx_power_w",
                  "ring_radius_m", "tag_transfer", "ambient_w", "sample_rate_hz")
    int_keys = ("n_scenarios", "n_tags", "code_bits", "samples_per_bit")
    for key in float_keys:
        if key in co:
            kwargs[key] = float(co[key])
    for key in int_keys:
        if key in co:
            kwargs[key] = int(co[key])
    if "hard_pair_style" in co:
        kwargs["hard_pair_style"] = co["hard_pair_style"].strip()
    if "snr_db" in co:
        kwargs["snr_db"] = _parse_snr(co["snr_db"])
    if "power_scaling" in co:
        kwargs["power_scaling"] = co.getboolean("power_scaling")
    spec = CorpusSpec(**kwargs)

    sweep = None
    if "sweep" in cp:
        sw = cp["sweep"]
        sweep = {}
        if "tag_counts" in sw:
            sweep["tag_counts"] = tuple(int(t) for t in sw["tag_counts"].split())
        if "profile_lens" in sw:
            sweep["profile_lens"] = tuple(int(t) for t in sw["profile_lens"].split())
    return spec, sweep


def detect_config_kind(path) -> str:
    """'scenario' or 'corpus', by which section the INI declares."""
    cp = _parser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    has_corpus = "corpus" in cp
    has_scenario = any(s == "receiver" or s.startswith("agent.") for s in cp.sections())
    if has_corpus and has_scenario:
        raise ConfigError(f"{path}: declares both a corpus and a single scenario")
    if has_corpus:
        return "corpus"
    if has_scenario:
        return "scenario"
    raise ConfigError(f"{path}: neither [corpus] nor scenario sections found")
