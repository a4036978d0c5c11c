"""Shipping gate: one test per release criterion, one printed line each.

Run with -rA (the repo default) so every [PASS]/[FAIL] line is visible in
the terminal summary.  Thresholds and corpus settings are frozen here on
purpose; loosening them is a release decision, not a test fix.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from conftest import FOUR_ID_SPECS, labeled_dataset, make_scenario

from sybilscatter import (
    CorpusSpec,
    DistanceMatrix,
    MultipathSignature,
    ReceivedTrace,
    SegmentBounds,
    SegmentationError,
    SignalProfile,
    TrainingSet,
    ablation_normalization,
    adjusted_distances,
    alternating_code,
    baseline_distances,
    build_corpus,
    build_signature,
    compare_distance_metrics,
    compute_class_weights,
    cosine_distance,
    cross_validate,
    detect_sybil,
    distance_matrix,
    evaluate,
    extract_signatures,
    generate_dataset,
    kfold_split,
    predict_scores,
    rank_auroc,
    segment_backscatter,
    signature_from_trace,
    similarity_matrix,
    simulate_scenario,
    sweep_profile_size,
    synthesize_trace,
    tag_block_bit_spans,
    tag_reflection_powers,
    train_mwle,
    trapezoid_area,
)
from sybilscatter.detector import LRModel, SimilarityMatrix, similarity_scores
from sybilscatter.harness import (
    COMPARE_CORPUS_SPEC,
    DEFAULT_CORPUS_SPEC,
    DEFAULT_SEED,
    EXPERIMENT_CORPUS_SPEC,
    _robot_level,
    build_dataset,
    metrics_from_scores,
)
from sybilscatter.pipeline import locate_rows, reflection_rows
from sybilscatter.scenario import ChannelParams, Trajectory, positions_at, reflected_powers

MAX_RUNTIME_S = 300.0


def verdict_line(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_end_to_end_detection():
    """Default corpus, K=4, L=10, SNR 20 dB: CV AUROC >= 0.95 in < 5 min."""
    t0 = time.perf_counter()
    configs, seeds = build_corpus(DEFAULT_CORPUS_SPEC, DEFAULT_SEED)
    dataset = generate_dataset(configs, seeds, n_tags=4, profile_len=10)
    report = cross_validate(dataset, k=10, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - t0
    ok = report.auroc >= 0.95 and elapsed < MAX_RUNTIME_S
    verdict_line(
        "criterion 1 (end-to-end detection)", ok,
        f"auroc={report.auroc:.4f} (need >= 0.95), tpr={report.tpr:.3f}, "
        f"fpr={report.fpr:.3f}, runtime={elapsed:.1f}s (need < {MAX_RUNTIME_S:.0f})")


def test_criterion_2_tag_count_and_profile_length():
    """More tags and longer profiles help: (4,10) beats (2,2) by >= 0.05."""
    rows = sweep_profile_size((2, 4), (2, 4, 10), EXPERIMENT_CORPUS_SPEC,
                              DEFAULT_SEED, k_folds=5)
    grid = {(r["K"], r["L"]): r["auroc"] for r in rows}
    complete = len(grid) == 6
    gap = grid[(4, 10)] - grid[(2, 2)]
    means = [np.mean([grid[(k, l)] for k in (2, 4)]) for l in (2, 4, 10)]
    steps = np.diff(means)
    monotone = bool(np.all(steps >= -0.02))
    ok = complete and gap >= 0.05 and monotone
    verdict_line(
        "criterion 2 (K/L sweep)", ok,
        f"auroc(4,10)-auroc(2,2)={gap:+.4f} (need >= +0.05), "
        f"L-means={[f'{m:.4f}' for m in means]} steps={[f'{s:+.4f}' for s in steps]} "
        f"(need >= -0.02), cells={len(grid)}/6")


def test_criterion_3_normalization_ablation():
    """Normalization recovers the TPR lost to attacker power scaling."""
    ablation = ablation_normalization(EXPERIMENT_CORPUS_SPEC, DEFAULT_SEED,
                                      profile_len=10, k_folds=5)
    tpr = {(r["normalized"], r["power_scaling"]): r["tpr"] for r in ablation}
    scaled_gap = tpr[(True, True)] - tpr[(False, True)]
    unscaled_gap = abs(tpr[(True, False)] - tpr[(False, False)])

    # trace-level invariant: scaling a noise-free announcement by alpha
    # leaves the normalized signature unchanged
    worst = 0.0
    for alpha in (0.25, 0.7, 1.3, 4.0):
        config = make_scenario(
            (("robotA", ("n0", "n1"), (1.0, 0.3), {"n0": alpha}),),
            snr_db=None)
        agent = config.agents[0]
        scaled = signature_from_trace(synthesize_trace(config, agent, "n0", 0.0, 5))
        plain = signature_from_trace(synthesize_trace(config, agent, "n1", 0.0, 5))
        worst = max(worst, float(np.abs(scaled.normalized - plain.normalized).max()))

    ok = scaled_gap >= 0.10 and unscaled_gap < 0.05 and worst <= 1e-9
    verdict_line(
        "criterion 3 (normalization ablation)", ok,
        f"tpr gain under scaling={scaled_gap:+.4f} (need >= +0.10), "
        f"gap without scaling={unscaled_gap:.4f} (need < 0.05), "
        f"alpha invariance={worst:.2e} (need <= 1e-9)")


def test_criterion_4_distance_metric_comparison():
    """Adjusted cosine yields strictly fewer false positives at sigma 0.5."""
    rows = compare_distance_metrics(COMPARE_CORPUS_SPEC, DEFAULT_SEED,
                                    profile_len=10, k_folds=5,
                                    metrics=("adjusted", "cosine", "euclidean"))
    fpr = {r["metric"]: r["fpr"] for r in rows}
    ok = fpr["adjusted"] < fpr["cosine"] and fpr["adjusted"] < fpr["euclidean"]
    verdict_line(
        "criterion 4 (distance comparison)", ok,
        f"fpr adjusted={fpr['adjusted']:.4f}, cosine={fpr['cosine']:.4f}, "
        f"euclidean={fpr['euclidean']:.4f} (adjusted must be strictly lowest)")


# ------------------------------------------------------------- criterion 5

def known_layout_trace(powers, ambient=0.0, bits=64, spb=8, prefix_spans=1):
    """Noise-free trace with injected per-tag powers at an exact position."""
    code = alternating_code(bits)
    span = bits * spb
    samples = np.full(5 * span, float(ambient))
    schedule = np.zeros(5 * span, dtype=np.int16)
    start = prefix_spans * span
    for tag_idx, (b0, b1) in enumerate(tag_block_bit_spans(bits, len(powers))):
        lo, hi = start + b0 * spb, start + b1 * spb
        samples[lo:hi] += powers[tag_idx] * np.repeat(code[b0:b1], spb)
        schedule[lo:hi] = tag_idx + 1
    return ReceivedTrace(identity="x", true_source_id="sx", t_s=0.0,
                         sample_rate_hz=8000.0, samples=samples,
                         tag_schedule=schedule, tag_code=code,
                         samples_per_bit=spb, n_tags=len(powers))


def _segmentation_oracle():
    spec = CorpusSpec(n_scenarios=4, horizon_s=12.0, hard_pair_fraction=1.0,
                      hard_pair_style="mirror", snr_db=None)
    configs, seeds = build_corpus(spec, 2024)
    total = exact = 0
    for config, seed in zip(configs, seeds):
        run = simulate_scenario(config, seed)
        for traces in run.traces.values():
            for trace in traces:
                total += 1
                exact += segment_backscatter(trace).t_start == trace.scheduled_start()
    return exact, total


def _extraction_oracle(seed):
    """RMS error of block power estimates on a clamp-free noisy scenario."""
    config = make_scenario((("r0", ("n0",), (1.0, 0.4), None),),
                           horizon_s=18.0, ambient_w=5e-4, snr_db=20.0)
    agent = config.agents[0]
    run = simulate_scenario(config, seed)
    powers = tag_reflection_powers(config, agent, "n0", 0.0)
    sigma = powers.max() * 10.0 ** (-20.0 / 20.0)
    assert config.ambient_w > 20 * sigma  # keeps the nonnegativity clamp inactive
    errors = []
    for trace in run.traces["n0"]:
        start = trace.scheduled_start()
        sig = build_signature(trace, SegmentBounds(start, start + trace.code_span))
        errors.extend(sig.raw - powers)
    n_block = trace.code_span // trace.n_tags
    rms = float(np.sqrt(np.mean(np.square(errors))))
    return rms, 3.0 * sigma / np.sqrt(n_block)


def _gradient_vs_finite_differences():
    from sybilscatter import weighted_gradient, weighted_log_likelihood
    rng = np.random.default_rng(31)
    X = rng.random((40, 4))
    y = (rng.random(40) < 0.4).astype(np.float64)
    v = rng.random(40) + 0.5
    w = rng.normal(size=4)
    b = -0.3
    grad_w, grad_b = weighted_gradient(w, b, X, y, v)
    h = 1e-6
    worst = 0.0
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        fd = (weighted_log_likelihood(w + e, b, X, y, v)
              - weighted_log_likelihood(w - e, b, X, y, v)) / (2 * h)
        worst = max(worst, abs(grad_w[k] - fd) / max(1.0, abs(fd)))
    fd_b = (weighted_log_likelihood(w, b + h, X, y, v)
            - weighted_log_likelihood(w, b - h, X, y, v)) / (2 * h)
    return max(worst, abs(grad_b - fd_b) / max(1.0, abs(fd_b)))


def _auroc_two_ways():
    spec = CorpusSpec(n_scenarios=3, horizon_s=12.0, hard_pair_fraction=0.5,
                      hard_pair_style="mirror")
    configs, seeds = build_corpus(spec, 77)
    dataset = generate_dataset(configs, seeds, n_tags=4, profile_len=3)
    model = train_mwle(dataset.training_samples())
    report = evaluate(model, dataset)
    scores = predict_scores(model, dataset)
    fake, _, identity_scores = _robot_level(dataset, np.arange(len(dataset)), scores,
                                            0.5)
    rank = rank_auroc(identity_scores[fake], identity_scores[~fake])
    return abs(report.auroc - rank)


def _identity_battery(four_identity_run):
    """Fixed-value identity rows, each checked for exact equality."""
    checks = []

    def check(name, fn):
        checks.append((name, fn))

    # channel model
    ch = ChannelParams()
    check("reflection linear in tx power",
          lambda: reflected_powers(ch, 6.0, 1.7, 0.34)
          == 2.0 * reflected_powers(ch, 3.0, 1.7, 0.34))
    check("reflection inverse-square in tag distance",
          lambda: reflected_powers(ch, 3.0, 3.4, 0.34)
          == reflected_powers(ch, 3.0, 1.7, 0.34) / 4.0)

    # trajectory interpolation
    walk = Trajectory(waypoints=np.array([(0.0, 0.0, 0.0), (5.0, 1.0, 1.0)]),
                      speed_mps=float(np.hypot(1.0, 1.0) / 5.0))
    check("waypoint endpoint exact",
          lambda: positions_at(walk, [5.0]).tolist() == [[1.0, 1.0]])
    check("segment midpoint is the mean",
          lambda: positions_at(walk, [2.5]).tolist() == [[0.5, 0.5]])

    # synthesis edge cases
    quiet = replace(make_scenario(FOUR_ID_SPECS, snr_db=None),
                    channel=ChannelParams(tag_transfer=0.0))
    check("zero transfer leaves only ambient",
          lambda: bool(np.all(
              synthesize_trace(quiet, quiet.agents[0], "n0", 0.0, 3).samples
              == quiet.ambient_w)))
    twin_cfg = make_scenario(FOUR_ID_SPECS)
    check("same source, same seed, alpha 1: identical traces",
          lambda: np.array_equal(
              synthesize_trace(twin_cfg, twin_cfg.agents[0], "n0", 0.0, 7).samples,
              synthesize_trace(twin_cfg, twin_cfg.agents[0], "n1", 0.0, 7).samples))
    check("zero agents simulate to empty output",
          lambda: simulate_scenario(make_scenario(()), 1).traces == {})

    def rerun_is_bit_identical():
        rerun_cfg = make_scenario(FOUR_ID_SPECS, horizon_s=3.0)
        first = simulate_scenario(rerun_cfg, 5)
        second = simulate_scenario(rerun_cfg, 5)
        return all(
            np.array_equal(a.samples, b.samples)
            for ident in first.traces
            for a, b in zip(first.traces[ident], second.traces[ident]))

    check("same seed twice: bit-identical runs", rerun_is_bit_identical)

    check("alternating code pattern",
          lambda: alternating_code(6).tolist() == [1, 0, 1, 0, 1, 0])
    check("even tag block split",
          lambda: [tuple(s) for s in tag_block_bit_spans(64, 4)]
          == [(0, 16), (16, 32), (32, 48), (48, 64)])

    # correlation
    def code_row(samples):
        # the fields locate_rows reads; 4 samples per bit is below what a
        # ReceivedTrace accepts, but the kernel runs on any row
        return SimpleNamespace(samples=samples, tag_code=alternating_code(8),
                               samples_per_bit=4)

    code_template = np.repeat(alternating_code(8), 4).astype(np.float64)
    embedded = np.concatenate([code_template, np.zeros(32)])
    check("embedded code correlates strongest at its true lag",
          lambda: locate_rows(code_row(embedded))[0] == 0)
    # the lags are nonnegative, so a zero peak means every lag is zero
    check("zero signal correlates to zero",
          lambda: locate_rows(code_row(np.zeros(64)))[2:] == (0.0, 0.0))

    # segmentation boundaries
    check("zero guard prefix starts at sample zero",
          lambda: segment_backscatter(
              known_layout_trace([5e-5], ambient=1e-6, prefix_spans=0)).t_start == 0)

    def pure_noise_rejected():
        rng = np.random.default_rng(8)
        noise = np.abs(rng.normal(1e-6, 1e-7, size=2560))
        trace = ReceivedTrace(identity="x", true_source_id="sx", t_s=0.0,
                              sample_rate_hz=8000.0, samples=noise,
                              tag_schedule=np.zeros(2560, dtype=np.int16),
                              tag_code=alternating_code(64), samples_per_bit=8,
                              n_tags=1)
        try:
            segment_backscatter(trace)
        except SegmentationError:
            return True
        return False

    check("pure noise is rejected", pure_noise_rejected)

    # extraction on constants
    def one_tag_row(samples):
        # one tag keying one reflecting bit then one absorbing bit, 64
        # samples each; the fields reflection_rows reads
        return SimpleNamespace(samples=samples, tag_code=alternating_code(2),
                               samples_per_bit=64, n_tags=1)

    block = np.concatenate([np.full(64, 5.0), np.full(64, 2.0)])
    check("constant halves extract their difference",
          lambda: reflection_rows(one_tag_row(block), 0).tolist() == [3.0])
    check("identical halves extract zero",
          lambda: reflection_rows(one_tag_row(np.full(128, 2.0)), 0).tolist() == [0.0])

    # signature normalization
    check("3-4-5 normalization",
          lambda: MultipathSignature(raw=np.array([3e-9, 4e-9]))
          .normalized.tolist() == [0.6, 0.8])
    pow2 = np.array([2.7e-5, 9.1e-6, 4.4e-5, 1.3e-5])
    check("power-of-two scaling leaves normalization unchanged",
          lambda: all(
              np.array_equal(MultipathSignature(raw=pow2 * a).normalized,
                             MultipathSignature(raw=pow2).normalized)
              for a in (0.5, 4.0)))
    check("equal powers normalize to 0.5 each",
          lambda: MultipathSignature(raw=np.full(4, 7e-5))
          .normalized.tolist() == [0.5, 0.5, 0.5, 0.5])
    sig345 = build_signature(known_layout_trace([3e-9, 4e-9]),
                             SegmentBounds(512, 1024))
    check("trace extraction recovers 3-4-5 powers",  # block mean rounds 1 ulp
          lambda: np.allclose(sig345.raw, [3e-9, 4e-9], rtol=1e-12, atol=0.0))

    # n=4 means of repeated non-dyadic values round in the last ulp, so the
    # exact-mean rows stick to values whose sums stay representable
    unit_rows = np.array([[1.0, 0.0]] * 3)
    check("identical profile rows give that mean",
          lambda: SignalProfile(identity="a", signatures=unit_rows).mean_vector.tolist()
          == [1.0, 0.0])
    check("single-row profile is its own mean",
          lambda: SignalProfile(identity="a", signatures=[[0.6, 0.8]]).mean_vector.tolist()
          == [0.6, 0.8])

    # distances
    f, g = np.array([0.6, 0.8]), np.array([1.0, 0.0])
    orth = np.array([0.0, 1.0])
    check("cosine self-distance is zero", lambda: cosine_distance(f, f) == 0.0)
    check("cosine orthogonal distance is one",
          lambda: cosine_distance(g, orth) == 1.0)
    check("zero mean reduces adjusted to plain cosine",
          lambda: adjusted_distances(f[None], g[None], np.zeros(2))[0]
          == cosine_distance(f, g))
    check("identical vectors center to zero distance",
          lambda: adjusted_distances(f[None], f[None], np.array([0.2, 0.1]))[0] == 0.0)

    trio = np.array([[0.6, 0.8]] * 3)
    profile_a = SignalProfile(identity="a", signatures=trio)
    profile_b = SignalProfile(identity="b", signatures=trio)
    check("equal profiles are zero at every lag",
          lambda: adjusted_distances(profile_a.signatures, profile_b.signatures,
                                     profile_a.mean_vector).tolist()
          == [0.0, 0.0, 0.0])

    def ring_profiles(n):
        rng = np.random.default_rng(13)
        out = []
        for i in range(n):
            r = rng.random((3, 4)) + 0.1
            out.append(SignalProfile(identity=f"id{i}",
                                     signatures=r / np.linalg.norm(r, axis=1, keepdims=True)))
        return out

    check("two profiles make two directed vectors",
          lambda: distance_matrix(ring_profiles(2)).values.shape == (2, 2, 3))

    def five_profiles_twenty_vectors():
        m = distance_matrix(ring_profiles(5))
        off = [m.values[i, j] for i in range(5) for j in range(5) if i != j]
        return len(off) == 20 and all(v.shape == (3,) for v in off)

    check("five profiles make twenty off-diagonal vectors",
          five_profiles_twenty_vectors)

    def duplicate_profile_zeroed():
        profiles = ring_profiles(3)
        twin = SignalProfile(identity="twin", signatures=profiles[0].signatures)
        m = distance_matrix(profiles + [twin])
        i, j = m.identities.index("id0"), m.identities.index("twin")
        return np.all(m.values[i, j] == 0.0) and np.all(m.values[j, i] == 0.0)

    check("duplicated profile has exactly-zero mutual entries",
          duplicate_profile_zeroed)
    check("manhattan fixture",
          lambda: baseline_distances(np.zeros((1, 2)), np.ones((1, 2)),
                                     "manhattan").tolist() == [2.0])
    check("euclidean fixture",
          lambda: baseline_distances(np.zeros((1, 2)), np.array([[3.0, 4.0]]),
                                     "euclidean").tolist() == [5.0])
    check("chebyshev fixture",
          lambda: baseline_distances(np.array([[1.0, 5.0]]), np.array([[4.0, 1.0]]),
                                     "chebyshev").tolist() == [4.0])

    # similarity model: one-column distances scored by g(z) itself
    def logistic(z):
        return similarity_scores(LRModel(weights=[1.0], bias=0.0),
                                 np.asarray(z, dtype=np.float64)[:, None])

    check("sigmoid at zero", lambda: logistic([0.0]).tolist() == [0.5])
    rng = np.random.default_rng(14)
    zs = rng.normal(scale=25.0, size=1000)
    check("sigmoid reflection symmetry",
          lambda: np.array_equal(logistic(-zs), 1.0 - logistic(zs)))

    def sigmoid_saturates():
        with np.errstate(over="raise"):
            return logistic([50.0, -1000.0]).tolist() == [1.0, 0.0]

    check("sigmoid saturation without overflow", sigmoid_saturates)
    def pair_probs(model, d_ab, d_ba):
        values = np.zeros((2, 2, 3))
        values[0, 1], values[1, 0] = d_ab, d_ba
        return similarity_matrix(model, DistanceMatrix(("a", "b"), values)).probs

    null_model = LRModel(weights=np.zeros(3), bias=0.0)
    check("null model predicts one half",
          lambda: pair_probs(null_model, [0.3, 0.7, 0.1], [0.0, 0.0, 0.0])[0, 1] == 0.5)
    negative = LRModel(weights=np.full(3, -2.0), bias=0.0)
    def negative_weights():
        probs = pair_probs(negative, np.zeros(3), np.full(3, 30.0))
        return probs[0, 1] == 0.5 and probs[1, 0] < 1e-6

    check("negative weights: zero distance is ambivalent, far is dissimilar",
          negative_weights)
    check("balanced classes weigh one",
          lambda: compute_class_weights([0, 1] * 25) == {0: 1.0, 1: 1.0})
    check("imbalanced class weights",
          lambda: compute_class_weights([1] * 10 + [0] * 40)
          == {0: 0.625, 1: 2.5})

    def unit_weight_noop():
        rng = np.random.default_rng(15)
        y = np.arange(20) % 2
        X = np.array([rng.random(2) * (0.2 if label else 1.0) for label in y])
        balanced = compute_class_weights(y)
        plain = TrainingSet(X=X, y=y, v=np.ones(20))
        weighted = TrainingSet(X=X, y=y, v=[balanced[label] for label in y])
        a, b = train_mwle(plain), train_mwle(weighted)
        return np.array_equal(a.weights, b.weights) and a.bias == b.bias

    check("explicit unit weights train identically", unit_weight_noop)

    two_ids = SimilarityMatrix(identities=("a", "b"),
                               probs=np.array([[0.0, 0.7], [0.2, 0.0]]))
    check("two identities give two probabilities",
          lambda: two_ids.probs[0, 1] == 0.7 and two_ids.probs[1, 0] == 0.2)

    def detect_fixtures():
        both = SimilarityMatrix(identities=("i", "j"),
                                probs=np.array([[0.0, 0.9], [0.8, 0.0]]))
        oneway = SimilarityMatrix(identities=("i", "j"),
                                  probs=np.array([[0.0, 0.9], [0.3, 0.0]]))
        low = SimilarityMatrix(identities=("i", "j"),
                               probs=np.array([[0.0, 0.4], [0.4, 0.0]]))
        v = detect_sybil(both)
        return (v.sybil_pairs == frozenset({("i", "j")})
                and v.fake_identities == frozenset({"i", "j"})
                and not detect_sybil(oneway).sybil_pairs
                and not detect_sybil(low).fake_identities)

    check("threshold fixtures flag exactly the mutual pair", detect_fixtures)

    # harness counting and folds
    def directed_pair_counts():
        scenario = extract_signatures(four_identity_run)
        ds = build_dataset([scenario], profile_len=3)
        by_window = {}
        for _, window, _, _, label, _ in ds.rows():
            by_window.setdefault(window, []).append(label)
        return all(len(lab) == 12 and sum(lab) == 2 for lab in by_window.values())

    check("four identities: 12 directed pairs, 2 positive", directed_pair_counts)

    def perfect_scores_ideal():
        key = (0, 7)
        sources = {key: {"a": "r0", "b": "r0", "c": "r1"}}
        pairs = {("a", "b"): 1.0, ("b", "a"): 1.0, ("a", "c"): 0.0,
                 ("c", "a"): 0.0, ("b", "c"): 0.0, ("c", "b"): 0.0}
        ds = labeled_dataset(
            [(key, 0, i, j, int(sources[key][i] == sources[key][j]), p)
             for (i, j), p in pairs.items()], sources)
        scores = ds.X[:, 0]
        rep = metrics_from_scores(ds, np.arange(len(ds)), scores, 0.5)
        return (rep.auroc, rep.tpr, rep.fpr) == (1.0, 1.0, 0.0)

    check("perfect scores give the ideal report", perfect_scores_ideal)

    def leave_one_out_partitions():
        key = (0, 7)
        ds = labeled_dataset([(key, w, "a", "b", w % 2, 0.1) for w in range(6)],
                             {key: {"a": "r0", "b": "r0"}})
        folds = kfold_split(ds, k=6, seed=0, by_scenario=False)
        seen = sorted(int(i) for _, test in folds for i in test)
        return (all(test.size == 1 for _, test in folds)
                and seen == list(range(6)))

    check("leave-one-out folds partition the index set", leave_one_out_partitions)
    check("trapezoid triangle fixture",
          lambda: trapezoid_area([(0.0, 0.0), (1.0, 1.0)]) == 0.5)
    check("trapezoid step fixture",
          lambda: trapezoid_area([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]) == 1.0)
    check("rank auroc fixtures",
          lambda: rank_auroc([0.9], [0.1]) == 1.0
          and rank_auroc([0.1], [0.9]) == 0.0
          and rank_auroc([0.5, 0.5], [0.5]) == 0.5)

    failures = [name for name, fn in checks if not fn()]
    return len(checks), failures


def test_criterion_5_pipeline_oracles(four_identity_run):
    exact, total = _segmentation_oracle()
    seg_ok = exact == total and total > 100

    extraction_ok = True
    extraction_detail = []
    for seed in (99, 1234):
        rms, bound = _extraction_oracle(seed)
        extraction_ok &= rms < bound
        extraction_detail.append(f"{rms:.3e}<{bound:.3e}")

    grad_err = _gradient_vs_finite_differences()
    grad_ok = grad_err <= 1e-5

    auroc_diff = _auroc_two_ways()
    auroc_ok = auroc_diff <= 0.01

    n_rows, failed_rows = _identity_battery(four_identity_run)
    battery_ok = not failed_rows

    ok = seg_ok and extraction_ok and grad_ok and auroc_ok and battery_ok
    verdict_line(
        "criterion 5 (pipeline oracles)", ok,
        f"segmentation {exact}/{total} exact; extraction rms "
        f"{', '.join(extraction_detail)}; gradient rel err {grad_err:.2e} "
        f"(need <= 1e-5); |trapezoid-rank| {auroc_diff:.4f} (need <= 0.01); "
        f"identity battery {n_rows - len(failed_rows)}/{n_rows}"
        + (f" FAILED: {failed_rows}" if failed_rows else ""))


# ------------------------------------------------------------- criterion 6

CHAIN_CORPUS_INI = """\
[corpus]
n_scenarios = 3
horizon_s = 12.0
hard_pair_fraction = 1.0
hard_pair_style = mirror

[sweep]
tag_counts = 2
profile_lens = 2 3
"""

CHAIN_SCENARIO_INI = """\
[scenario]
horizon_s = 3.0

[receiver]
position = 0.05 0.0

[agent.robotA]
identities = n0 n1
position = 1.0 0.3

[agent.robotB]
identities = n2
position = -0.9 0.5
"""


def _run_cli_chain(root, corpus_ini, scenario_ini):
    from sybilscatter.cli import main
    ds = root / "ds"
    tr = root / "tr"
    steps = [
        ["simulate", "--config", scenario_ini, "--seed", "11",
         "--out", str(root / "sim")],
        ["dataset", "--config", corpus_ini, "--profile-len", "3",
         "--seed", "11", "--out", str(ds)],
        ["train", "--dataset", str(ds / "samples.csv"), "--out", str(tr)],
        ["evaluate", "--dataset", str(ds / "samples.csv"), "--seed", "11",
         "--out", str(root / "ev_cv")],
        ["evaluate", "--dataset", str(ds / "samples.csv"),
         "--model", str(tr / "model.json"), "--out", str(root / "ev_model")],
        ["sweep", "--config", corpus_ini, "--seed", "11",
         "--out", str(root / "sweep")],
        ["ablate-norm", "--config", corpus_ini, "--profile-len", "3",
         "--seed", "11", "--out", str(root / "ablate")],
        ["compare-metrics", "--config", corpus_ini, "--profile-len", "3",
         "--seed", "11", "--out", str(root / "compare")],
    ]
    for argv in steps:
        assert main(argv) == 0, f"subcommand failed: {argv[0]}"
    return len(steps)


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_6_cli_determinism(tmp_path):
    corpus_ini = tmp_path / "corpus.ini"
    corpus_ini.write_text(CHAIN_CORPUS_INI)
    scenario_ini = tmp_path / "scenario.ini"
    scenario_ini.write_text(CHAIN_SCENARIO_INI)
    n_steps = _run_cli_chain(tmp_path / "run_a", str(corpus_ini), str(scenario_ini))
    _run_cli_chain(tmp_path / "run_b", str(corpus_ini), str(scenario_ini))
    tree_a = _tree_bytes(tmp_path / "run_a")
    tree_b = _tree_bytes(tmp_path / "run_b")
    same_names = set(tree_a) == set(tree_b)
    differing = [name for name in tree_a if tree_b.get(name) != tree_a[name]]
    ok = same_names and not differing and len(tree_a) > 10
    verdict_line(
        "criterion 6 (CLI determinism)", ok,
        f"{n_steps} subcommands, {len(tree_a)} files byte-compared"
        + ("" if ok else f"; differing: {differing[:5]}"))
