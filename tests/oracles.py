"""Independent oracles that more than one test module checks the code
against: each recomputes a result from its definition, in plain Python or
numpy, without the code under test's shortcuts."""
import math

import numpy as np

from melemad import maml

# the leaf-value and gain regularizer, gbdt's lambda
LAM = 1.0


# ------------------------------------------------------------------- metrics

def brute_scalars(tp, tn, fp, fn):
    """Accuracy, precision, recall, F1 and MCC from the confusion counts,
    0.0 wherever a denominator is 0."""
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    d = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(d) if d else 0.0
    return acc, prec, rec, f1, mcc


def mann_whitney(probs, labels):
    """AUC as the pairwise ranking statistic: the share of (positive,
    negative) pairs the positive outscores, a tie counting one half."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    total = 0.0
    for pp in pos:
        for pn in neg:
            if pp > pn:
                total += 1.0
            elif pp == pn:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------- gbdt

def oracle_split_candidates(X, y, base_score, min_leaf):
    """Exhaustive (gain, feature, midpoint) candidates for the first tree's
    root, replicating the stated split contract from scratch."""
    p = 1.0 / (1.0 + math.exp(-base_score))
    g = np.full(len(y), p) - y
    h = np.full(len(y), p * (1 - p))
    G, H = g.sum(), h.sum()
    parent = G * G / (H + LAM)
    n, m = X.shape
    candidates = []
    for j in range(m):
        vals = sorted(set(X[:, j].tolist()))
        for a, b in zip(vals, vals[1:]):
            thr = (a + b) / 2.0
            left = X[:, j] < thr
            nl = int(left.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            GL, HL = g[left].sum(), h[left].sum()
            gain = 0.5 * (GL * GL / (HL + LAM) + (G - GL) ** 2 / (H - HL + LAM) - parent)
            candidates.append((gain, j, thr))
    return candidates


# ----------------------------------------------------------------- generator

GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def splitmix64(state, count):
    """The next count outputs of SplitMix64 (Steele, Lea & Flood 2014) from
    state, as the reference loop computes them: add gamma to the state, then
    finalize a copy, one Python int at a time."""
    out = []
    for _ in range(count):
        state = (state + GAMMA) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def draws(key, count, start=0):
    """Draws start, ..., start + count - 1 of key: SplitMix64's outputs
    from the state key + start * gamma."""
    return splitmix64((key + start * GAMMA) & MASK64, count)


def key_of(*coords):
    """A key's hash chain: from 0, each coordinate's 64-bit words, low word
    first, each taking the chain to its draw of that number."""
    key = 0
    for c in coords:
        c = int(c)
        while True:
            key = draws(key, 1, start=c & MASK64)[0]
            c >>= 64
            if not c:
                break
    return key


def box_muller(key, count, start=0):
    """Normals start, ..., start + count - 1 of key, a pair at a time in
    Python floats and libm (Box & Muller, 1958): draws 2i and 2i + 1 of key,
    as 53-bit uniforms u and v, give normals 2i and 2i + 1 as r cos(t) and
    r sin(t), with r = sqrt(-2 log(1 - u)) and t = 2 pi v."""
    first = start - start % 2
    bits = draws(key, (start + count + 1) // 2 * 2 - first, first)
    out = []
    for a, b in zip(bits[0::2], bits[1::2]):
        u, v = (a >> 11) * 2.0**-53, (b >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(1.0 - u))
        out += [r * math.cos(2 * math.pi * v), r * math.sin(2 * math.pi * v)]
    return out[start - first : start - first + count]


def inclusion_chi_square(hits, trials, k):
    """Pearson's statistic of the per-row inclusion counts hits of N rows,
    over trials that each take k of the N rows without replacement, and
    its bounds. Each count has variance trials * p * (1 - p), p = k / N, and
    two counts a covariance of -1 / (N - 1) times that (they sum to
    trials * k), so the statistic scaled by (N - 1) / N is about chi-square
    with N - 1 degrees of freedom; the bounds are 5 of its standard
    deviations from its mean, so too even a spread fails as too uneven does."""
    hits = np.asarray(hits, dtype=np.float64)
    n = hits.size
    p = k / n
    stat = float(((hits - trials * p) ** 2).sum()) / (trials * p * (1 - p)) * (n - 1) / n
    df = n - 1
    return stat, df - 5 * math.sqrt(2 * df), df + 5 * math.sqrt(2 * df)


def reference_mask(arch, n, key, step):
    """Episode key's keep mask at inner step `step`, one cell at a time:
    unit u of row r is kept where draw r * h0 + u of key + (step,), as a
    53-bit uniform, is at least the dropout rate."""
    h0 = arch.hidden_dims[0]
    cells = draws(key_of(*key, step), n * h0)
    keep = [(bits >> 11) * 2.0**-53 >= arch.dropout_rate for bits in cells]
    return np.array(keep, dtype=bool).reshape(n, h0)


# ---------------------------------------------------------------------- maml

def one_mask(arch, n, key, step=0):
    """Episode key's keep mask at inner step `step`, as a fresh bool (n, h0)
    array (dropout_mask's stack is scratch), or None without dropout."""
    mask = maml.dropout_mask(arch, n, [key], step)
    return None if mask is None else mask[0].copy()


def pre_activations(params, X, keep=None):
    """Each hidden layer's pre-activations for one parameter vector, computed
    from params.layers() (a pass keeps none), dropout as in the pass."""
    pre = []
    a = X
    for i, (W, b) in enumerate(params.layers()[:-1]):
        pre.append(a @ W + b)
        a = np.maximum(pre[-1], 0.0)
        if i == 0 and keep is not None:
            a = a * (keep / (1.0 - params.arch.dropout_rate))
    return pre


def smooth_instance(seed, with_dropout=False):
    """Draw a small net + batch whose pre-activations stay clear of the ReLU
    kink and whose outputs stay clear of the probability clamp, so central
    differences are trustworthy."""
    for attempt in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        hidden = tuple(int(h) for h in rng.integers(1, 6, size=int(rng.integers(1, 4))))
        rate = 0.3 if with_dropout else 0.0
        arch = maml.MlpArchitecture(input_dim=m, hidden_dims=hidden, dropout_rate=rate)
        params = maml.init_params(arch, int(rng.integers(0, 2**31)))
        values = params.values + rng.normal(0, 0.3, params.values.shape)
        params = maml.ModelParams(values, arch)
        X = rng.normal(0, 1.5, (n, m))
        y = rng.integers(0, 2, n)
        dropout_seed = int(rng.integers(0, 2**31))
        mask = one_mask(arch, n, (dropout_seed,)) if with_dropout else None
        p_raw = maml._forward_pass(params, X, mask)[2]
        min_gap = min(float(np.abs(z).min()) for z in pre_activations(params, X, mask))
        clamp_gap = min(float(p_raw.min() - 1e-7), float(1 - 1e-7 - p_raw.max()))
        if min_gap > 1e-3 and clamp_gap > 1e-4:
            return arch, params, X, y, dropout_seed
    raise AssertionError("could not draw a smooth instance")
