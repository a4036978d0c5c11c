"""File formats: trace CSV, dataset CSV, model/metrics/verdict JSON, INI configs.

All writers are deterministic: floats are emitted with repr (shortest
round-trip form), JSON keys are sorted, and rows follow input order, so a
rerun with the same seed produces byte-identical files.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .corpus import CorpusSpec
from .detector import LRModel
from .errors import ConfigError, ParameterError
from .harness import LabeledDataset, MetricsReport
from .scenario import (
    DEFAULT_RING_RADIUS_M,
    DEFAULT_SPEED_MPS,
    DEFAULT_TX_POWER_W,
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
    """The labels.json of write_run_labels; ConfigError names the file when
    a field is missing or ill-typed."""
    payload = _json_object(path, ("seed", "identities", "modulation"))
    seed, identities, mod = payload["seed"], payload["identities"], payload["modulation"]
    if not _is_int(seed):
        raise ConfigError(f"{path}: seed must be an integer, got {seed!r}")
    if not (isinstance(identities, dict)
            and all(isinstance(src, str) for src in identities.values())):
        raise ConfigError(f"{path}: identities must map each identity to its source name")
    if not (isinstance(mod, dict) and _is_number(mod.get("sample_rate_hz")) and all(
            _is_int(mod.get(key)) for key in ("code_bits", "samples_per_bit", "n_tags"))):
        raise ConfigError(f"{path}: modulation must hold the integers code_bits, "
                          "samples_per_bit and n_tags and the number sample_rate_hz")
    return payload


def read_trace_csv(path, identity: str, labels: dict):
    """One identity's traces as a stream, a 2-D ReceivedTrace, or None for
    a file without a trace; ConfigError names path:line for a malformed
    line or a non-finite value, and the file for traces of unequal length
    or a layout or tag schedule ReceivedTrace rejects."""
    times, rows, tags = [], [], []  # per trace: t_s, samples, tag indices
    with open(path, encoding="utf-8") as fp:
        header = fp.readline().strip()
        if header != TRACE_HEADER:
            raise ConfigError(f"{path}: expected header {TRACE_HEADER!r}, got {header!r}")
        key = None
        for lineno, line in enumerate(fp, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                t_str, sample_str, tag_str = line.split(",")
                t_s, sample, tag = float(t_str), float(sample_str), int(tag_str)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: malformed trace line {line!r}") from None
            if not (math.isfinite(t_s) and math.isfinite(sample)):
                raise ConfigError(f"{path}:{lineno}: trace times and samples must be finite")
            if t_str != key:
                key = t_str
                times.append(t_s)
                rows.append([])
                tags.append([])
            rows[-1].append(sample)
            tags[-1].append(tag)
    if not rows:
        return None
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise ConfigError(f"{path}: traces of {lengths} samples; the traces of one "
                          "file must be of equal length")
    mod = labels["modulation"]
    return _construct(f"{path}:", lambda: ReceivedTrace(
        identity=identity, true_source_id=labels["identities"][identity], t_s=times,
        sample_rate_hz=float(mod["sample_rate_hz"]), samples=rows, tag_schedule=tags,
        tag_code=alternating_code(mod["code_bits"]), samples_per_bit=mod["samples_per_bit"],
        n_tags=mod["n_tags"]))


def read_run(run_dir) -> tuple:
    """Load a scenario directory back into (stream by identity, labels).

    An identity without a trace file, or whose file holds no trace, is
    left out.
    """
    run_dir = Path(run_dir)
    labels = read_run_labels(run_dir / "labels.json")
    traces = {}
    for identity in sorted(labels["identities"]):
        path = run_dir / f"trace_{identity}.csv"
        if path.exists():
            batch = read_trace_csv(path, identity, labels)
            if batch is not None:
                traces[identity] = batch
    return traces, labels


# ---------------------------------------------------------------- dataset

SAMPLE_COLUMNS = ["scenario", "seed", "window", "from_id", "to_id",
                  "from_source", "to_source", "label"]


def samples_header(profile_len: int) -> str:
    return ",".join(SAMPLE_COLUMNS + [f"d_{l}" for l in range(1, profile_len + 1)])


def write_samples_csv(path, dataset: LabeledDataset) -> None:
    lines = [samples_header(dataset.profile_len)]
    for key, window, i, j, label, values in dataset.rows():
        src = dataset.sources[key]
        row = [str(key[0]), str(key[1]), str(window), i, j, src[i], src[j], str(label)]
        row += [_fmt(v) for v in values]
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


def read_samples_csv(path) -> LabeledDataset:
    """Load a samples.csv; a malformed line raises ConfigError naming path:line."""
    codes: dict = {}
    sources: dict = {}
    rows = []  # (scenario code, window, label, from, to, distances)
    with open(path, encoding="utf-8") as fp:
        header = fp.readline().strip().split(",")
        if header[:8] != SAMPLE_COLUMNS:
            raise ConfigError(f"{path}: unexpected dataset header")
        profile_len = len(header) - 8
        if profile_len < 1:
            raise ConfigError(f"{path}: no distance columns")
        for lineno, line in enumerate(fp, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ConfigError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
            try:
                key = (int(parts[0]), int(parts[1]))
                window, label = int(parts[2]), int(parts[7])
                values = [float(v) for v in parts[8:]]
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: malformed sample line") from None
            if not -2 ** 63 <= window < 2 ** 63:
                raise ConfigError(f"{path}:{lineno}: window {window} does not fit in int64")
            i, j, src_i, src_j = parts[3:7]
            if i == j:
                raise ConfigError(f"{path}:{lineno}: from_id and to_id are both {i!r}")
            if label != int(src_i == src_j):  # rejects any label but 0 and 1 too
                raise ConfigError(f"{path}:{lineno}: label {label} contradicts "
                                  f"sources {src_i!r} and {src_j!r}")
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"{path}:{lineno}: distances must be finite")
            known = sources.setdefault(key, {})
            for ident, src in ((i, src_i), (j, src_j)):
                if known.setdefault(ident, src) != src:
                    raise ConfigError(f"{path}:{lineno}: identity {ident!r} changes source "
                                      f"from {known[ident]!r} to {src!r}")
            rows.append((codes.setdefault(key, len(codes)), window, label, i, j, values))
    scenario, windows, labels, froms, tos, values = zip(*rows) if rows else [()] * 6
    index = {name: n for n, name in enumerate(sorted(set(froms) | set(tos)))}
    return LabeledDataset(
        X=np.array(values, dtype=np.float64).reshape(-1, profile_len),
        y=labels, scenario=scenario, window=windows,
        from_id=[index[i] for i in froms], to_id=[index[j] for j in tos],
        keys=tuple(codes), identities=tuple(index), sources=sources)


# ---------------------------------------------------------------- model & metrics

def write_model_json(path, model: LRModel) -> None:
    payload = {
        "L": int(model.profile_len),
        "weights": [float(w) for w in model.weights],
        "bias": float(model.bias),
    }
    _dump_json(path, payload)


def read_model_json(path) -> LRModel:
    """The model of write_model_json; ConfigError names the file when it is
    not a JSON object with an integer L, a list of L numbers as weights
    and a number as bias."""
    payload = _json_object(path, ("L", "weights", "bias"))
    size, weights, bias = payload["L"], payload["weights"], payload["bias"]
    if not _is_int(size):
        raise ConfigError(f"{path}: L must be an integer, got {size!r}")
    if not (isinstance(weights, list) and all(map(_is_number, weights))):
        raise ConfigError(f"{path}: weights must be a list of numbers")
    if not _is_number(bias):
        raise ConfigError(f"{path}: bias must be a number, got {bias!r}")
    if size != len(weights):
        raise ConfigError(f"{path}: L={size} but {len(weights)} weights")
    try:
        return LRModel(weights=np.array(weights, dtype=np.float64), bias=float(bias))
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _json_object(path, keys) -> dict:
    """The JSON object in path; ConfigError names the file when it does not
    parse, is not an object or misses one of keys."""
    try:
        with open(path, encoding="utf-8") as fp:
            payload = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object with {', '.join(keys)}")
    for key in keys:
        if key not in payload:
            raise ConfigError(f"{path}: missing {key!r}")
    return payload


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


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


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    return _fmt(value) if isinstance(value, float) else str(value)


def write_rows_csv(path, header: str, rows) -> None:
    """One line per row dict, its values in the order of the header's columns
    (SWEEP_HEADER, COMPARE_HEADER or ABLATION_HEADER for the experiments):
    booleans as 0/1, floats by repr, anything else by str."""
    columns = header.split(",")
    lines = [header]
    lines += [",".join(_cell(row[name]) for name in columns) for row in rows]
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

# horizon_s of a scenario INI that does not set it: a short single run,
# where ScenarioConfig's own default is the corpus horizon
INI_HORIZON_S = 6.0
TRAJECTORY_KEYS = ("waypoints", "path", "position", "speed_mps")
TAGS_KEYS = ("count", "ring_radius_m", "positions")
AGENT_KEYS = ("identities", "alphas", "power") + TRAJECTORY_KEYS
SWEEP_KEYS = ("tag_counts", "profile_lens")
SCENARIO_SECTIONS = ("scenario", "channel", "tags", "receiver")
CORPUS_SECTIONS = ("corpus", "sweep")


def _boolean(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def _finite(text) -> float:
    """float(text), which must be finite: every INI float is parsed here."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()} is not a finite number")
    return value


def _optional_float(text):
    return None if text.lower() in ("none", "off", "") else _finite(text)


# value parser of each scalar field annotation of the config dataclasses
FIELD_PARSERS = {"int": int, "float": _finite, "bool": _boolean, "str": str,
                 "float | None": _optional_float}


def _read(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cp


class _Section:
    """The keys of INI section [name], empty when it is absent.

    A key outside ``known`` raises ConfigError naming the file, section
    and key; keys of a [DEFAULT] section are keys of every section.
    """

    def __init__(self, path, cp, name: str, known):
        self.where = f"{path}: [{name}]"
        self.keys = cp[name] if name in cp else {}
        unknown = sorted(set(self.keys) - set(known))
        if unknown:
            raise ConfigError(f"{self.where} unknown key {unknown[0]!r}; "
                              f"expected one of {', '.join(known)}")

    def __contains__(self, key) -> bool:
        return key in self.keys

    def get(self, key: str, parse, default=None):
        """parse(value of key), or default when the key is absent."""
        if key not in self.keys:
            return default
        try:
            return parse(self.keys[key])
        except ValueError as exc:
            raise ConfigError(f"{self.where} {key} = {self.keys[key]!r}: {exc}") from None

    def rows(self, key: str, width: int) -> np.ndarray:
        """The value of key as lines of ``width`` numbers."""
        return self.get(key, lambda text: _parse_rows(text, width))


def _check_sections(path, cp, known, agents: bool = False) -> None:
    """ConfigError naming the file and the first section outside
    ``known`` (nor an [agent.*] section, when ``agents``)."""
    for name in cp.sections():
        if name not in known and not (agents and name.startswith("agent.")):
            expected = ", ".join(f"[{k}]" for k in known) + (", [agent.*]" if agents else "")
            raise ConfigError(f"{path}: unknown section [{name}]; expected {expected}")


def _construct(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), any input error it raises (a ValueError)
    re-raised as ConfigError prefixed with ``where``, the file and section."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def _fields(path, cp, name: str, cls) -> dict:
    """Keyword arguments for the config dataclass ``cls`` from section
    [name]: its keys are the scalar fields of ``cls``, each parsed by its
    annotation; an absent key keeps the field's default."""
    parsers = {f.name: FIELD_PARSERS[f.type] for f in fields(cls) if f.type in FIELD_PARSERS}
    section = _Section(path, cp, name, tuple(parsers))
    return {key: section.get(key, parsers[key]) for key in section.keys}


def _parse_rows(text, width: int) -> np.ndarray:
    rows = []
    for line in text.strip().splitlines():
        parts = line.split()
        if len(parts) != width:
            raise ConfigError(f"line needs {width} values, got {line!r}")
        rows.append([_finite(p) for p in parts])
    if not rows:
        raise ConfigError("no rows")
    return np.array(rows)


def _ints(text) -> tuple:
    return tuple(int(t) for t in text.split())


def _alphas(text) -> dict:
    scale = {}
    for token in text.split():
        ident, _, value = token.partition(":")
        if not value:
            raise ConfigError(f"alpha entry needs 'identity:value', got {token!r}")
        scale[ident] = _finite(value)
    return scale


def _section_trajectory(section: _Section, horizon_s: float,
                        default_speed: float) -> Trajectory:
    """Trajectory from an INI section.

    Three equivalent spellings: explicit timed ``waypoints`` (t x y rows),
    a ``path`` of x y rows walked at ``speed_mps`` (padded with a final
    dwell if it ends before the horizon), or a stationary ``position``.
    """
    speed = section.get("speed_mps", _finite, default_speed)
    given = [k for k in ("waypoints", "path", "position") if k in section]
    if len(given) != 1:
        raise ConfigError(
            f"{section.where} needs exactly one of waypoints/path/position, "
            f"got {given or 'none'}")
    where = section.where
    if "waypoints" in section:
        return _construct(where, Trajectory, waypoints=section.rows("waypoints", 3),
                          speed_mps=speed)
    if "position" in section:
        x, y = section.rows("position", 2)[0]
        waypoints = [(0.0, x, y), (horizon_s + 1.0, x, y)]
        return _construct(where, Trajectory, waypoints=np.array(waypoints), speed_mps=speed)
    points = section.rows("path", 2)
    traj = _construct(where, Trajectory.from_path, points, speed)
    if traj.t_max < horizon_s:
        traj = _construct(where, Trajectory.from_path, points, speed,
                          dwell_s=horizon_s + 1.0 - traj.t_max)
    return traj


def read_scenario_config(path) -> ScenarioConfig:
    """Single-scenario INI: [scenario], [channel], [tags], [receiver], [agent.*].

    [scenario] and [channel] take the scalar fields of ScenarioConfig and
    ChannelParams as keys; an unknown section, or an unknown key in any
    section, is rejected, and so is a value those classes reject.
    """
    cp = _read(path)
    _check_sections(path, cp, SCENARIO_SECTIONS, agents=True)
    if "receiver" not in cp:
        raise ConfigError(f"{path}: missing [receiver] section")
    scalars = _fields(path, cp, "scenario", ScenarioConfig)
    horizon_s = scalars.setdefault("horizon_s", INI_HORIZON_S)
    channel = _construct(f"{path}: [channel]", ChannelParams,
                         **_fields(path, cp, "channel", ChannelParams))

    tg = _Section(path, cp, "tags", TAGS_KEYS)
    ring_radius = tg.get("ring_radius_m", _finite, DEFAULT_RING_RADIUS_M)
    if "positions" in tg:
        layout = _construct(tg.where, TagLayout, tag_positions=tg.rows("positions", 2),
                            ring_radius_m=ring_radius)
    else:
        layout = _construct(tg.where, TagLayout.regular_ring, tg.get("count", int, 4),
                            ring_radius)

    receiver = _section_trajectory(_Section(path, cp, "receiver", TRAJECTORY_KEYS),
                                   horizon_s, DEFAULT_SPEED_MPS)

    agents = []
    for name in cp.sections():
        if not name.startswith("agent."):
            continue
        ag = _Section(path, cp, name, AGENT_KEYS)
        identities = ag.get("identities", str.split)
        if identities is None:
            raise ConfigError(f"{ag.where} needs identities")
        agents.append(_construct(
            ag.where, RobotAgent,
            true_source_id=name[len("agent."):],
            claimed_identities=tuple(identities),
            trajectory=_section_trajectory(ag, horizon_s, DEFAULT_SPEED_MPS),
            base_tx_power_w=ag.get("power", _finite, DEFAULT_TX_POWER_W),
            power_scale_per_identity=ag.get("alphas", _alphas, {}),
        ))
    if not agents:
        raise ConfigError(f"{path}: no [agent.*] sections")

    return _construct(f"{path}: [scenario]", ScenarioConfig, channel=channel,
                      tag_layout=layout, receiver_trajectory=receiver,
                      agents=tuple(agents), **scalars)


def read_corpus_spec(path) -> tuple:
    """Corpus INI: [corpus] spec knobs plus an optional [sweep] section.

    [corpus] takes the fields of CorpusSpec as keys; an unknown section,
    an unknown key in either section and a value CorpusSpec rejects are
    rejected.  Returns (CorpusSpec, sweep options dict or None).
    """
    cp = _read(path)
    _check_sections(path, cp, CORPUS_SECTIONS)
    if "corpus" not in cp:
        raise ConfigError(f"{path}: missing [corpus] section")
    spec = _construct(f"{path}: [corpus]", CorpusSpec,
                      **_fields(path, cp, "corpus", CorpusSpec))

    sweep = None
    if "sweep" in cp:
        sw = _Section(path, cp, "sweep", SWEEP_KEYS)
        sweep = {key: sw.get(key, _ints) for key in SWEEP_KEYS if key in sw}
    return spec, sweep


def detect_config_kind(path) -> str:
    """'scenario' or 'corpus', by which section the INI declares."""
    cp = _read(path)
    has_corpus = "corpus" in cp
    has_scenario = any(s == "receiver" or s.startswith("agent.") for s in cp.sections())
    if has_corpus and has_scenario:
        raise ConfigError(f"{path}: declares both a corpus and a single scenario")
    if has_corpus:
        return "corpus"
    if has_scenario:
        return "scenario"
    raise ConfigError(f"{path}: neither [corpus] nor scenario sections found")
