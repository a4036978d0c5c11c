"""Sybil attack detection for backscatter-tag robot networks.

The package simulates swarms of mobile transmitters whose signals bounce
off a ring of backscatter tags on the receiver, extracts per-tag multipath
signatures from the received traces, and decides which claimed identities
are fake by comparing signature profiles over time.

Typical flow:

    spec = CorpusSpec(n_scenarios=20)
    configs, seeds = build_corpus(spec, master_seed=1234)
    dataset = generate_dataset(configs, seeds, n_tags=4, profile_len=10)
    report = cross_validate(dataset, k=10, seed=1234)
"""

from .corpus import CorpusSpec, build_corpus, build_scenario
from .detector import (
    LRModel,
    SimilarityMatrix,
    TrainingConfig,
    TrainingSet,
    Verdict,
    compute_class_weights,
    detect_sybil,
    similarity_matrix,
    train_mwle,
    weighted_gradient,
    weighted_log_likelihood,
)
from .distance import (
    DistanceMatrix,
    adjusted_distances,
    baseline_distances,
    cosine_distance,
    distance_matrix,
)
from .errors import (
    ConfigError,
    DegenerateSignatureError,
    GeometryError,
    IdentityError,
    InsufficientDataError,
    MetricsUndefinedError,
    ParameterError,
    SegmentationError,
    ShapeError,
    TrainingDataError,
    TrainingDivergenceError,
    TrajectoryError,
    TrajectoryRangeError,
)
from .harness import (
    LabeledDataset,
    MetricsReport,
    ablation_normalization,
    build_dataset,
    compare_distance_metrics,
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
    sweep_profile_size,
    trapezoid_area,
)
from .pipeline import (
    MultipathSignature,
    ProfileAssembler,
    SegmentBounds,
    SignalProfile,
    build_profile,
    build_signature,
    full_window_ends,
    segment_backscatter,
    signature_from_trace,
    signature_rows,
    window_rows,
)
from .scenario import (
    ChannelParams,
    ReceivedTrace,
    RobotAgent,
    ScenarioConfig,
    ScenarioRun,
    TagLayout,
    Trajectory,
    alternating_code,
    simulate_scenario,
    synthesize_trace,
    synthesize_traces,
    tag_block_bit_spans,
    tag_reflection_powers,
    trace_seeds,
)

__version__ = "0.1.0"
