"""Per-trace, per-window, per-pair and per-sample reference forms of the batched kernels.

These are the one-at-a-time code paths the package used before it moved to
batched kernels, kept here only as test oracles: the batched kernels must
match them bit for bit.  Segmentation also keeps np.correlate's lags and the
rounding bound that holds the prefix-sum lags to them.  Nothing in the
package imports this module.
"""

import functools
import math
from collections import deque, namedtuple

import numpy as np

from sybilscatter.detector import (
    _BLOCK_ELEMENTS,
    SimilarityMatrix,
    detect_sybil,
    weighted_log_likelihood,
)
from sybilscatter.distance import (
    DEGENERATE_NORM_TOL,
    F_SIDE_DEGENERATE_DISTANCE,
    G_SIDE_DEGENERATE_DISTANCE,
)
from sybilscatter.harness import (
    N_ROC_THRESHOLDS,
    MetricsReport,
    predict_scores,
    trapezoid_area,
)
from sybilscatter.pipeline import PEAK_FLOOR_RATIO, _chain_len
from sybilscatter.scenario import (
    MIN_GUARD_SPANS,
    SMOOTHING_WINDOW,
    TRACE_SPANS,
    alternating_code,
    tag_block_bit_spans,
)


# ---------------------------------------------------------------- simulate

def reflected_power(channel, tx_power_w, d_t_m, d_r_m):
    incident = tx_power_w * channel.tx_gain / (4.0 * math.pi * d_t_m ** 2)
    collected = channel.wavelength_m ** 2 * channel.rx_gain / (
        16.0 * math.pi ** 2 * d_r_m ** 2)
    return incident * collected * channel.tag_transfer


def position_at(trajectory, t_s):
    wp = trajectory.waypoints
    return np.array([np.interp(t_s, wp[:, 0], wp[:, 1]),
                     np.interp(t_s, wp[:, 0], wp[:, 2])])


def tag_reflection_powers(scenario, agent, identity, t_s):
    tx_power = agent.base_tx_power_w * agent.alpha_for(identity)
    tx_pos = position_at(agent.trajectory, t_s)
    rx_pos = position_at(scenario.receiver_trajectory, t_s)
    tag_world = rx_pos[None, :] + scenario.tag_layout.tag_positions
    d_t = np.hypot(*(tx_pos[None, :] - tag_world).T)
    d_r = scenario.tag_layout.tag_ranges_m
    return np.array([reflected_power(scenario.channel, tx_power, float(dt), float(dr))
                     for dt, dr in zip(d_t, d_r)])


def synthesize_trace(scenario, agent, identity, t_s, rng_seed):
    """(samples, schedule) of one announcement, built tag block by tag block."""
    powers = tag_reflection_powers(scenario, agent, identity, t_s)
    code = alternating_code(scenario.code_bits)
    spans = tag_block_bit_spans(scenario.code_bits, scenario.tag_layout.n_tags)
    spb = scenario.samples_per_bit
    code_span = scenario.code_bits * spb
    total = TRACE_SPANS * code_span
    rng = np.random.default_rng(rng_seed)
    t0 = int(rng.integers(MIN_GUARD_SPANS * code_span,
                          (TRACE_SPANS - 2 * MIN_GUARD_SPANS) * code_span + 1))
    samples = np.full(total, scenario.ambient_w, dtype=np.float64)
    schedule = np.zeros(total, dtype=np.int16)
    for tag_idx, (b0, b1) in enumerate(spans):
        lo, hi = t0 + b0 * spb, t0 + b1 * spb
        schedule[lo:hi] = tag_idx + 1
        samples[lo:hi] += powers[tag_idx] * np.repeat(code[b0:b1], spb).astype(np.float64)
    if scenario.snr_db is not None:
        sigma = float(powers.max()) * 10.0 ** (-scenario.snr_db / 20.0)
        if sigma > 0:
            samples = samples + rng.normal(0.0, sigma, total)
    np.maximum(samples, 0.0, out=samples)
    return samples, schedule


def simulate_scenario(scenario, trace_seeds):
    """identity -> list of (t_s, samples, schedule), one per period."""
    n_periods = scenario.n_periods
    out = {}
    for id_idx, ident in enumerate(scenario.identities):
        agent = scenario.agent_of(ident)
        rows = []
        for k in range(n_periods):
            t_s = k * scenario.period_s + id_idx * scenario.slot_spacing_s
            seed = int(trace_seeds[id_idx * n_periods + k])
            rows.append((t_s,) + synthesize_trace(scenario, agent, ident, t_s, seed))
        out[ident] = rows
    return out


# ---------------------------------------------------------------- extract

def moving_average(x):
    """The SMOOTHING_WINDOW-tap moving average, truncated at the row ends."""
    back, fwd = SMOOTHING_WINDOW // 2, (SMOOTHING_WINDOW - 1) // 2
    anchor = x[0]
    csum = np.concatenate([[0.0], np.cumsum(x - anchor)])
    idx = np.arange(x.size)
    lo = np.maximum(idx - back, 0)
    hi = np.minimum(idx + fwd + 1, x.size)
    return anchor + (csum[hi] - csum[lo]) / (hi - lo)


def expand_code(code, samples_per_bit):
    """Expand an M-bit code to the sample domain."""
    return np.repeat(np.asarray(code, dtype=np.float64), samples_per_bit)


def lags(samples, code, spb):
    """The prefix-sum lags of the smoothed samples against the expanded
    alternating code, with fresh arrays and in locate_rows' summation order:
    SMOOTHING_WINDOW sums of the prefix sum C, their prefix sum Y, the blocks
    B[k] = Y[k + spb] - Y[k], and the cumulative sums T of B along stride
    2 spb, each lag one difference of two T."""
    n = samples.size
    period = 2 * spb
    runs = (len(code) + 1) // 2
    n_lags = n - len(code) * spb + 1
    n_blocks = n_lags + (runs - 1) * period
    window = SMOOTHING_WINDOW
    back = window // 2
    idx = np.arange(n)
    width = np.minimum(idx + window - back, n) - np.maximum(idx - back, 0)
    csum = np.cumsum(samples)
    padded = np.concatenate([np.zeros(back + 1), csum, np.full(window - back - 1, csum[-1])])
    y = np.concatenate([[0.0], np.cumsum((padded[window:] - padded[:n]) / width)])
    # B shifted by one period, so that T[k - P] reads 0 for k < P
    blocks = np.zeros(-(-(period + n_blocks) // period) * period)
    blocks[period:period + n_blocks] = y[spb:spb + n_blocks] - y[:n_blocks]
    t = np.cumsum(blocks.reshape(-1, period), axis=0).ravel()
    return t[runs * period:runs * period + n_lags] - t[:n_lags]


def decisions(c):
    """(start, decodable, peak, floor) of one row of lags: the first
    maximal lag, and whether the peak is positive and at least the floor."""
    start = int(np.argmax(c))
    peak = float(c[start])
    floor = PEAK_FLOOR_RATIO * float(np.median(c))
    return start, peak > 0.0 and peak >= floor, peak, floor


def segment(samples, code, spb):
    """(start, peak, floor); start is None when the trace is rejected."""
    start, decodable, peak, floor = decisions(lags(samples, code, spb))
    return (start if decodable else None), peak, floor


def correlate_lags(samples, code, spb):
    """np.correlate's lags of the smoothed samples against the expanded
    code: the reference that error_bound holds the prefix-sum lags to."""
    return np.correlate(moving_average(samples), expand_code(code, spb),
                        mode="valid")


# float64 unit roundoff
_U = 2.0 ** -53


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u): a sum of n + 1 terms, added in
    any order, errs by at most gamma_n times the sum of their magnitudes."""
    return n * _U / (1.0 - n * _U)


@functools.lru_cache(maxsize=64)
def error_bound(n, samples_per_bit, n_runs, code_len):
    """(k_sum, k_first, k_abs): on a nonnegative n-sample row x with sum
    A, the prefix-sum lags (lags, locate_rows) and np.correlate's
    (correlate_lags) differ by at most E = k_sum A + k_first x[0] + k_abs.

    Both estimate the lags c of the exact moving average y.  With u the
    unit roundoff, eta = 2^-1074 a bound on the absolute error of a
    division whose result underflows, w the window, w_min = w // 2 + 1
    its narrowest truncation, rho = max over samples j of the sum of
    1 / w_i over the windows i holding j (so sum y <= rho A), Q the chain
    length, ones = n_runs s and M = code_len:
    - prefix sums.  Each prefix sum of x adds at most n terms in order and
      errs by e = gamma_n A.  The smoothed prefix sums then err by
      e_Y = 2 e (1 + (w - 1) / w_min) + gamma_2 S
      + gamma_n (1 + gamma_2) S + n eta, S = rho A + 2 e n / w_min: the
      interior window sums telescope, so the prefix errors enter only at
      the two ends and the w - 1 truncated windows.  A block B errs by
      2 (1 + u) e_Y + u b, b the sum of y over it.  A stride sum adds at
      most Q blocks, P apart, so disjoint: it errs by
      e_T = Q 2 (1 + u) e_Y + u rho A
      + gamma_Q (rho A + Q 2 (1 + u) e_Y + u rho A), and a lag, the
      difference of two, by F = 2 (1 + u) e_T + u rho A;
    - reference.  moving_average's anchored prefix sums of x - x[0] err by
      e_s = gamma_(n+1) (A + n x[0]), so a smoothed sample errs by
      (1 + gamma_3) 2 e_s / w_min + gamma_3 x[0] + gamma_4 y_i + eta and
      a lag, over its ones samples, by R = ones ((1 + gamma_3) 2 e_s /
      w_min + gamma_3 x[0] + eta) + gamma_4 rho A.  np.correlate's dot
      product, in whatever order its BLAS sums, adds gamma_M (rho A + R);
      the template is 0/1, so every product is exact.
    E is twice F + R + gamma_M (rho A + R) + 16 u rho A.  The doubling
    and the last term absorb every rounding after the lags, none above
    a few u times 3 rho A: in A itself, the median's midpoint, the
    floor's x 3 and the comparisons.
    """
    back = SMOOTHING_WINDOW // 2
    idx = np.arange(n)
    lo = np.maximum(idx - back, 0)
    hi = np.minimum(idx + SMOOTHING_WINDOW - back, n)
    width = hi - lo
    cover = np.zeros(n + 1)
    np.add.at(cover, lo, 1.0 / width)
    np.add.at(cover, hi, -1.0 / width)
    rho = float(np.cumsum(cover).max())
    w_min = SMOOTHING_WINDOW // 2 + 1
    chain = _chain_len(n - code_len + 1, samples_per_bit, n_runs)
    ones = n_runs * samples_per_bit
    g = _gamma

    def bound(total, first, eta):
        e = g(n) * total
        spread = rho * total + 2.0 * e * n / w_min
        e_y = (2.0 * e * (1.0 + (SMOOTHING_WINDOW - 1) / w_min)
               + g(2) * spread + g(n) * (1.0 + g(2)) * spread + n * eta)
        blocks = chain * 2.0 * (1.0 + _U) * e_y
        e_t = blocks + _U * rho * total + g(chain) * (rho * total + blocks + _U * rho * total)
        fast = 2.0 * (1.0 + _U) * e_t + _U * rho * total
        e_s = g(n + 1) * (total + n * first)
        ref = (ones * ((1.0 + g(3)) * 2.0 * e_s / w_min + g(3) * first + eta)
               + g(4) * rho * total)
        return 2.0 * (fast + ref + g(code_len) * (rho * total + ref)
                      + 16.0 * _U * rho * total)

    return bound(1.0, 0.0, 0.0), bound(0.0, 1.0, 0.0), bound(0.0, 0.0, 2.0 ** -1074)


def row_bound(samples, code, spb):
    """E of error_bound for one nonnegative trace of the stock window."""
    k_sum, k_first, k_abs = error_bound(samples.size, spb, (len(code) + 1) // 2,
                                        len(code) * spb)
    return k_sum * float(np.cumsum(samples)[-1]) + k_first * float(samples[0]) + k_abs


def certified(samples, code, spb):
    """True when a nonnegative trace lies beyond the bound, so that its
    prefix-sum decisions are np.correlate's: the top-two lag margin above
    2 E (the same argmax) and |peak - floor| above 4 E (the same side of
    the floor; the floor is 3 medians, each within E)."""
    c = lags(samples, code, spb)
    bound = row_bound(samples, code, spb)
    _, _, peak, floor = decisions(c)
    runner_up = np.sort(c)[-2] if c.size > 1 else -np.inf
    return bool(peak - runner_up > 2.0 * bound and abs(peak - floor) > 4.0 * bound)


def extract_reflection(x, mask):
    return max(float(x[mask].mean() - x[~mask].mean()), 0.0)


def build_signature(samples, start, code, spb, n_tags):
    """Raw K-vector from the per-tag block loop."""
    region = samples[start:start + code.size * spb]
    raw = np.empty(n_tags, dtype=np.float64)
    for tag_idx, (b0, b1) in enumerate(tag_block_bit_spans(int(code.size), n_tags)):
        mask = np.repeat(code[b0:b1], spb).astype(bool)
        raw[tag_idx] = extract_reflection(region[b0 * spb:b1 * spb], mask)
    return raw


def signatures(traces):
    """(periods, raw rows, normalized rows) of one identity's traces."""
    periods, raws, normed = [], [], []
    for k, trace in enumerate(traces):
        start, _, _ = segment(trace.samples, trace.tag_code, trace.samples_per_bit)
        if start is None:
            continue
        raw = build_signature(trace.samples, start, trace.tag_code,
                              trace.samples_per_bit, trace.n_tags)
        if not raw.any():
            continue
        periods.append(k)
        raws.append(raw)
        normed.append(raw / np.linalg.norm(raw))
    return periods, raws, normed


# ---------------------------------------------------------------- dataset

class ProfileAssembler:
    """The deque-driven sliding window, evicting by max age."""

    def __init__(self, profile_len):
        self.profile_len = profile_len
        self.max_age = 2 * profile_len
        self.window = deque()

    def push(self, period, row):
        self.window.append((period, row))
        if len(self.window) > self.profile_len:
            self.window.popleft()
        while self.window and self.window[0][0] <= period - self.max_age:
            self.window.popleft()
        return len(self.window) == self.profile_len


def window_tables(periods, rows, profile_len):
    """period -> (window rows, window mean) wherever the window is full."""
    assembler = ProfileAssembler(profile_len)
    table = {}
    for period, row in zip(periods, rows):
        if assembler.push(period, row):
            window = np.vstack([r for _, r in assembler.window])
            table[period] = (window, window.mean(axis=0))
    return table


def adjusted_distance_rows(rows_f, rows_g, mean_f):
    fc = rows_f - mean_f
    gc = rows_g - mean_f
    nf = np.linalg.norm(fc, axis=1)
    ng = np.linalg.norm(gc, axis=1)
    f_bad = nf < DEGENERATE_NORM_TOL
    g_bad = ng < DEGENERATE_NORM_TOL
    safe = np.where(f_bad | g_bad, 1.0, nf * ng)
    values = np.clip(1.0 - np.einsum("ij,ij->i", fc, gc) / safe, 0.0, 2.0)
    values[np.all(fc == gc, axis=1)] = 0.0
    values[g_bad] = G_SIDE_DEGENERATE_DISTANCE
    values[f_bad] = F_SIDE_DEGENERATE_DISTANCE
    return values


def baseline_distance_rows(rows_f, rows_g, metric):
    diff = rows_f - rows_g
    if metric == "manhattan":
        return np.abs(diff).sum(axis=1)
    if metric == "euclidean":
        return np.linalg.norm(diff, axis=1)
    if metric == "chebyshev":
        return np.abs(diff).max(axis=1)
    nf = np.linalg.norm(rows_f, axis=1)
    ng = np.linalg.norm(rows_g, axis=1)
    return np.maximum(0.0, 1.0 - np.einsum("ij,ij->i", rows_f, rows_g) / (nf * ng))


def dataset_rows(streams, sources, profile_len, metric="adjusted"):
    """[(window, from, to, label, values)] in the harness's sample order.

    ``streams`` maps identity -> (periods, rows), in identity order.
    """
    tables = {}
    for identity, (periods, rows) in streams.items():
        table = window_tables(periods, rows, profile_len)
        if table:
            tables[identity] = table
    idents = [i for i in streams if i in tables]
    out = []
    for i in idents:
        for j in idents:
            if i == j:
                continue
            label = int(sources[i] == sources[j])
            for period in sorted(set(tables[i]) & set(tables[j])):
                rows_i, mean_i = tables[i][period]
                rows_j, _ = tables[j][period]
                if metric == "adjusted":
                    values = adjusted_distance_rows(rows_i, rows_j, mean_i)
                else:
                    values = baseline_distance_rows(rows_i, rows_j, metric)
                out.append((period, i, j, label, values))
    return out


# ---------------------------------------------------------------- folds & metrics

Sample = namedtuple("Sample", "scenario_key window from_identity to_identity label values")


def samples(dataset):
    """One record per sample, the layout the dataset had before it went columnar."""
    return [Sample(*row) for row in dataset.rows()]


def kfold_split(dataset, k, seed, by_scenario=True):
    """Folds dealt sample by sample, grouped by scenario key."""
    records = samples(dataset)
    n = len(records)
    rng = np.random.default_rng(seed)
    if by_scenario:
        keys = tuple(dict.fromkeys(s.scenario_key for s in records))
        if k > len(keys):
            raise ValueError(f"k={k} exceeds the {len(keys)} scenario groups")
        by_key = {key: [] for key in keys}
        positives = {key: 0 for key in keys}
        for idx, s in enumerate(records):
            by_key[s.scenario_key].append(idx)
            positives[s.scenario_key] += s.label
        order = list(keys)
        rng.shuffle(order)
        order.sort(key=lambda key: -positives[key])
        fold_keys = [[] for _ in range(k)]
        fold_pos = np.zeros(k)
        fold_tot = np.zeros(k)
        for key in order:
            target = min(range(k), key=lambda f: (fold_pos[f], fold_tot[f], f))
            fold_keys[target].append(key)
            fold_pos[target] += positives[key]
            fold_tot[target] += len(by_key[key])
        tests = [np.array(sorted(i for key in fk for i in by_key[key]), dtype=np.int64)
                 for fk in fold_keys]
    else:
        labels = np.array([s.label for s in records], dtype=np.int64)
        pos = np.flatnonzero(labels == 1)
        neg = np.flatnonzero(labels == 0)
        rng.shuffle(pos)
        rng.shuffle(neg)
        dealt = np.concatenate([pos, neg])
        folds = [[] for _ in range(k)]
        for position, idx in enumerate(dealt):
            folds[position % k].append(int(idx))
        tests = [np.array(sorted(f), dtype=np.int64) for f in folds]
    all_idx = np.arange(n, dtype=np.int64)
    out = []
    for test in tests:
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        out.append((all_idx[mask], test))
    return out


def _pair_mean_scores(dataset, indices, scores):
    """scenario_key -> {(from, to): mean score over windows}, by a dict walk."""
    records = samples(dataset)
    sums = {}
    counts = {}
    for pos, idx in enumerate(indices):
        s = records[int(idx)]
        key = (s.scenario_key, s.from_identity, s.to_identity)
        sums[key] = sums.get(key, 0.0) + float(scores[pos])
        counts[key] = counts.get(key, 0) + 1
    out = {}
    for (scenario_key, i, j), total in sums.items():
        out.setdefault(scenario_key, {})[(i, j)] = total / counts[(scenario_key, i, j)]
    return out


def _scenario_truth(dataset, pair_scores):
    """scenario_key -> {identity: is_fake} over identities present in scores."""
    truth = {}
    for scenario_key, pairs in pair_scores.items():
        sources = dataset.sources[scenario_key]
        present = sorted({i for pair in pairs for i in pair})
        by_source = {}
        for ident, src in sources.items():
            by_source.setdefault(src, []).append(ident)
        truth[scenario_key] = {
            ident: len(by_source[sources[ident]]) > 1 for ident in present}
    return truth


def _conjunctive_pair_scores(pairs):
    """{(i, j) unordered: min of the two directed means, missing side = 0}."""
    out = {}
    for i, j in {tuple(sorted(p)) for p in pairs}:
        out[(i, j)] = min(pairs.get((i, j), 0.0), pairs.get((j, i), 0.0))
    return out


def _identity_scores(pair_scores, truth):
    """(labels, scores) per identity: its best conjunctive pair score."""
    labels = []
    scores = []
    for scenario_key, pairs in pair_scores.items():
        conj = _conjunctive_pair_scores(pairs)
        best = {}
        for (i, j), score in conj.items():
            best[i] = max(best.get(i, 0.0), score)
            best[j] = max(best.get(j, 0.0), score)
        for ident in sorted(best):
            labels.append(1 if truth[scenario_key][ident] else 0)
            scores.append(best[ident])
    return np.array(labels, dtype=np.int64), np.array(scores, dtype=np.float64)


def _similarities(pairs):
    """SimilarityMatrix over the sorted identities of one scenario's pair means."""
    idents = sorted({i for pair in pairs for i in pair})
    index = {ident: n for n, ident in enumerate(idents)}
    probs = np.zeros((len(idents), len(idents)))
    for (i, j), score in pairs.items():
        probs[index[i], index[j]] = score
    return SimilarityMatrix(identities=tuple(idents), probs=probs)


def _verdict_counts(dataset, pair_scores, truth, sigma):
    tp = fp = fn = tn = 0
    for scenario_key, pairs in pair_scores.items():
        sims = _similarities(pairs)
        verdict = detect_sybil(sims, sigma)
        for ident in sims.identities:
            flagged = ident in verdict.fake_identities
            if truth[scenario_key][ident]:
                tp += flagged
                fn += not flagged
            else:
                fp += flagged
                tn += not flagged
    return tp, fp, fn, tn


def metrics_from_scores(dataset, indices, scores, sigma):
    """The robot-level report from the dict-walk aggregation."""
    pair_scores = _pair_mean_scores(dataset, indices, scores)
    truth = _scenario_truth(dataset, pair_scores)
    tp, fp, fn, tn = _verdict_counts(dataset, pair_scores, truth, sigma)
    n_fake = tp + fn
    n_legit = fp + tn
    labels, identity_scores = _identity_scores(pair_scores, truth)
    thresholds = np.linspace(1.0, 0.0, N_ROC_THRESHOLDS)
    flagged = identity_scores[None, :] >= thresholds[:, None]
    pos = labels == 1
    tpr_curve = flagged[:, pos].mean(axis=1)
    fpr_curve = flagged[:, ~pos].mean(axis=1)
    sweep = tuple((float(t), float(f), float(r))
                  for t, f, r in zip(thresholds, fpr_curve, tpr_curve))
    points = {(0.0, 0.0), (1.0, 1.0)}
    points.update((float(f), float(r)) for f, r in zip(fpr_curve, tpr_curve))
    roc_points = tuple(sorted(points))
    return MetricsReport(
        tpr=tp / n_fake, fpr=fp / n_legit, accuracy=(tp + tn) / (n_fake + n_legit),
        auroc=trapezoid_area(roc_points), roc_points=roc_points, roc_sweep=sweep,
        n_fake=int(n_fake), n_legit=int(n_legit))


def scenario_verdicts(model, dataset, sigma):
    """scenario_key -> Verdict from the dict-walk pair means."""
    scores = predict_scores(model, dataset)
    pair_scores = _pair_mean_scores(dataset, np.arange(len(dataset)), scores)
    return {key: detect_sybil(_similarities(pairs), sigma)
            for key, pairs in pair_scores.items()}


# ---------------------------------------------------------------- online

def distance_matrix(profiles):
    """(N, N, L) adjusted distances, one profile pair at a time."""
    n = len(profiles)
    values = np.zeros((n, n, profiles[0].profile_len))
    for i, pf in enumerate(profiles):
        for j, pg in enumerate(profiles):
            if i != j:
                values[i, j] = adjusted_distance_rows(pf.signatures, pg.signatures,
                                                      pf.mean_vector)
    return values


def similarity_probs(model, values):
    """(N, N) same-source probabilities, one directed pair at a time."""
    n = values.shape[0]
    probs = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                probs[i, j] = sigmoid(float(np.dot(model.weights, values[i, j]))
                                      + model.bias)
    return probs


def pair_rule(ids, probs, sigma):
    """(pairs, fake, legit) of the pair rule, one identity pair at a time."""
    pairs = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if probs[i, j] >= sigma and probs[j, i] >= sigma:
                pairs.add(tuple(sorted((ids[i], ids[j]))))
    fake = {i for pair in pairs for i in pair}
    return pairs, fake, set(ids) - fake


# ---------------------------------------------------------------- train

def sigmoid(z):
    """The logistic function as the package evaluated it with fresh arrays."""
    z = np.asarray(z, dtype=np.float64)
    upper = 1.0 / (1.0 + np.exp(-np.abs(z)))
    out = np.where(z >= 0, upper, 1.0 - upper)
    return float(out) if out.ndim == 0 else out


def weighted_gradient(weights, bias, X, y, v):
    """The gradient with fresh arrays over the C-contiguous label-signed
    (L + 1, N) design, columns s (x, 1) with s = 2y - 1: scores u = s z and
    design rho one product per column block, rho = v / (1 + exp(u)), the
    blocks' gradients summed in order."""
    sign = 2.0 * y - 1.0
    design = np.ascontiguousarray(np.vstack([X.T * sign, sign]))
    width = max(1, _BLOCK_ELEMENTS // design.shape[0])
    blocks = [slice(lo, lo + width) for lo in range(0, len(X), width)]
    u = np.concatenate([np.append(weights, bias) @ design[:, blk] for blk in blocks])
    with np.errstate(over="ignore"):
        rho = v / (1.0 + np.exp(u))
    grad = design[:, blocks[0]] @ rho[blocks[0]]
    for blk in blocks[1:]:
        grad = grad + design[:, blk] @ rho[blk]
    return grad[:-1], float(grad[-1])


def train_mwle(X, y, v, config):
    """Gradient ascent on theta = (w, b) that evaluates the objective every step."""
    total_weight = float(v.sum())
    theta = np.zeros(X.shape[1] + 1, dtype=np.float64)
    for _ in range(config.max_iters):
        if not np.isfinite(weighted_log_likelihood(theta[:-1], theta[-1], X, y, v)):
            raise RuntimeError("objective became non-finite")
        grad_w, grad_b = weighted_gradient(theta[:-1], theta[-1], X, y, v)
        grad = np.append(grad_w, grad_b) / total_weight
        if float(np.abs(grad).max()) < config.grad_tol:
            break
        theta = theta + config.learning_rate * grad
    return theta[:-1], float(theta[-1])
