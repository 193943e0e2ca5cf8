"""Gradient-boosted regression trees for binary classification.

Logistic objective with second-order (Newton) leaf values: per boosting
round the targets are gradients g = p - y and hessians h = p(1 - p), leaves
get -sum(g) / (sum(h) + lambda), and splits are searched over histograms of
binned feature values (the histogram search of LightGBM and of XGBoost's
hist method). A fit bins each column once (_bin) into at most _n_bins(n)
uint8 bins: one sort per column, cut at quantile ranks, each cut moved to
the next change of value so that equal values share a bin. A node that may
split sums g, h and its row count per bin of each column with one
np.bincount each, prefix-sums them over the bins, and takes the cut of
highest gain that leaves min_samples_leaf rows on either side; ties go to
the lowest feature, then the lowest cut. Rows go to the children by their
bins. The binning and each node's search take a block of columns per numpy
call (dataset._blocks), their scratch bounded at about _BLOCK_CELLS cells;
a column's sums run over the node's rows in row order, so the trees do not
depend on the block width. A split's threshold is the midpoint of the
node's two values beside the cut, taken in float64 (_midpoint), so the
float64 test x < threshold sends the node's rows as their bins do, and a
float32 matrix grows the trees of its float64 copy byte for byte. Feature
importance is total split gain, normalized. Training uses no randomness, so
identical inputs give byte-identical models. The logistic function is
dataset._sigmoid, which maml's output layer shares; GbdtConfig is defined
in config, with the rest of the config schema.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import GbdtConfig
from .dataset import LabeledDataset, _blocks, _sigmoid

_LAMBDA = 1.0
_PRIOR_CLIP = 1e-6
# cells per block of columns (dataset._blocks): features x rows in the
# binning and in a node's histogram sums, features x bins in its search
_BLOCK_CELLS = 1 << 14


@dataclass
class RegressionTree:
    """Flat node arrays; feature_index holds -1 at leaves."""

    feature_index: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray
    gain: np.ndarray


@dataclass
class GbdtModel:
    base_score: float
    trees: list[RegressionTree]
    config: GbdtConfig
    n_features: int
    train_losses: list[float] = field(default_factory=list)


def _log_loss(raw: np.ndarray, y: np.ndarray) -> float:
    # log(1 + e^raw) - y*raw, computed stably
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


def _n_bins(n: int) -> int:
    """Bins a column of n rows may take: one a row up to 32 rows, so a small
    node's search is exhaustive; then 32, or one per 8 rows where that is
    more, up to the 256 a uint8 holds. Few rows a bin would make a node's
    search over the bins cost more than its gather of the rows' bins."""
    return min(256, max(n // 8, min(n, 32)))


def _bin(X: np.ndarray) -> np.ndarray:
    """X's (n, m) cells as bin ids, feature-major (m, n) uint8. Rank r of a
    sorted column falls in quantile bin r * B // n (B = _n_bins(n)); a run
    of equal values takes the quantile bin of its first rank, so a cut
    inside a run moves to the run's end; the bins a column uses are then
    numbered 0, 1, ... in value order."""
    n, m = X.shape
    bins = np.empty((m, n), dtype=np.uint8)
    rank_bin = np.arange(n) * _n_bins(n) // n
    for cols in _blocks(m, n, _BLOCK_CELLS):
        values = X.T[cols]
        order = np.argsort(values, axis=1)
        v = np.take_along_axis(values, order, axis=1)
        # where a run of equal values starts; -0.0 equals 0.0, so the two
        # share a run
        first = np.empty(v.shape, dtype=bool)
        first[:, 0] = True
        np.not_equal(v[:, 1:], v[:, :-1], out=first[:, 1:])
        del v
        # each run's quantile bin, that of its first rank; then the bins in
        # use, numbered in value order
        ids = np.where(first, rank_bin, 0)
        np.maximum.accumulate(ids, axis=1, out=ids)
        np.not_equal(ids[:, 1:], ids[:, :-1], out=first[:, 1:])
        np.cumsum(first[:, 1:], axis=1, out=ids[:, 1:])
        ids[:, 0] = 0
        np.put_along_axis(bins[cols], order, ids, axis=1)
    return bins


def _midpoint(below: float, above: float) -> float:
    """A threshold t with below < t <= above, in float64 (Python floats), so
    the test x < t sends below left and above right: their midpoint, or above
    itself where the midpoint rounds onto below or overflows."""
    below, above = float(below), float(above)
    mid = (below + above) / 2.0
    return mid if below < mid <= above else above


class _TreeGrower:
    """Grows trees on (g, h) over one fit's binned columns."""

    def __init__(self, X, cfg: GbdtConfig):
        self.X = X
        self.cfg = cfg
        self.n, self.m = X.shape
        self.n_bins = _n_bins(self.n)
        # a block's column j histograms from j * n_bins of its flat sums
        self._offsets = (np.arange(self.m) * self.n_bins)[:, None]
        self.bins = None
        if self._can_split(self.n, 0):
            self.bins = _bin(X)
            # a block's bin ids (offset by column) and weights, held for the
            # fit: a fresh pair per block peaked higher in a select's RSS. A
            # block holds at most _BLOCK_CELLS cells, or one column of every row
            cells = max(_BLOCK_CELLS, self.n)
            self._idx = np.empty(cells, dtype=np.intp)
            self._weights = np.empty(cells)

    def _can_split(self, n_rows: int, depth: int) -> bool:
        return depth < self.cfg.max_depth and n_rows >= 2 * self.cfg.min_samples_leaf

    def grow(self, g, h):
        feature_index: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        leaf_value: list[float] = []
        gain: list[float] = []
        train_pred = np.zeros(self.n)

        def new_node() -> int:
            feature_index.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            leaf_value.append(0.0)
            gain.append(0.0)
            return len(feature_index) - 1

        # depth-first; each entry owns its row indices, ascending
        stack = [(new_node(), np.arange(self.n), 0)]
        while stack:
            node, rows, depth = stack.pop()
            G = g[rows].sum()
            H = h[rows].sum()
            split = None
            if self._can_split(rows.size, depth):
                split = self._best_split(rows, g, h, G, H)
            if split is None:
                value = -G / (H + _LAMBDA)
                leaf_value[node] = value
                train_pred[rows] = value
                continue
            best_gain, feat, cut = split
            go_left = self.bins[feat].take(rows) <= cut
            # between the node's two values beside the cut, so x < threshold
            # holds for exactly the node's rows in bins <= cut
            values = self.X[rows, feat]
            feature_index[node] = feat
            threshold[node] = _midpoint(values[go_left].max(), values[~go_left].min())
            gain[node] = best_gain
            left_id = new_node()
            right_id = new_node()
            left[node] = left_id
            right[node] = right_id
            stack.append((left_id, rows[go_left], depth + 1))
            stack.append((right_id, rows[~go_left], depth + 1))

        tree = RegressionTree(
            feature_index=np.array(feature_index, dtype=np.int64),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            leaf_value=np.array(leaf_value, dtype=np.float64),
            gain=np.array(gain, dtype=np.float64),
        )
        return tree, train_pred

    def _best_split(self, rows, g, h, G, H):
        """(gain, feature, cut) of the node's best split, or None where no
        cut gains: cut t sends the node's rows in bins <= t left. rows is
        ascending; G and H are g's and h's sums over it. A group of columns
        whose histograms hold about _BLOCK_CELLS cells is searched at once,
        its histograms summed a block of about _BLOCK_CELLS node cells at a
        time."""
        n_node, n_bins = rows.size, self.n_bins
        min_leaf = self.cfg.min_samples_leaf
        parent_score = G * G / (H + _LAMBDA)
        g_rows, h_rows = g.take(rows), h.take(rows)

        best_gain = 0.0
        best = None
        for group in _blocks(self.m, n_bins, _BLOCK_CELLS):
            GL, HL, NL = self._histograms(group, rows, g_rows, h_rows)
            # prefix sums over each column's bins: cut t takes bins 0..t
            GL, HL, NL = (np.cumsum(a[:, :-1], axis=1) for a in (GL, HL, NL))
            # 0.5 * (GL^2 / (HL + lambda) + (G - GL)^2 / (H - HL + lambda)
            #        - parent_score), in place
            gains = np.subtract(G, GL)
            gains *= gains
            den = np.subtract(H, HL)
            den += _LAMBDA
            gains /= den
            GL *= GL
            HL += _LAMBDA
            GL /= HL
            gains += GL
            gains -= parent_score
            gains *= 0.5
            # each child keeps min_samples_leaf rows
            short = (NL < min_leaf) | (NL > n_node - min_leaf)
            np.copyto(gains, -np.inf, where=short)
            # row-major first max: lowest feature, then lowest cut
            b, k = np.unravel_index(int(np.argmax(gains)), gains.shape)
            if gains[b, k] > best_gain:  # strict, so an earlier group wins ties
                best_gain = float(gains[b, k])
                best = (best_gain, group.start + int(b), int(k))
        return best

    def _histograms(self, group, rows, g_rows, h_rows):
        """Per column of group, per bin: the sums of g and of h and the count
        of the node's rows, each (columns, n_bins). A column's rows are
        summed in one np.bincount, in row order."""
        n_node, n_bins = rows.size, self.n_bins
        width = group.stop - group.start
        GL = np.empty((width, n_bins))
        HL = np.empty((width, n_bins))
        NL = np.empty((width, n_bins), dtype=np.intp)
        for cols in _blocks(width, n_node, _BLOCK_CELLS):
            span = cols.stop - cols.start
            cells, size = span * n_node, span * n_bins
            idx, weights = self._idx[:cells], self._weights[:cells]
            bins = self.bins[group.start + cols.start : group.start + cols.stop]
            np.add(bins.take(rows, axis=1), self._offsets[:span],
                   out=idx.reshape(span, n_node))
            weights.reshape(span, n_node)[:] = g_rows
            GL[cols] = np.bincount(idx, weights=weights, minlength=size).reshape(span, n_bins)
            weights.reshape(span, n_node)[:] = h_rows
            HL[cols] = np.bincount(idx, weights=weights, minlength=size).reshape(span, n_bins)
            NL[cols] = np.bincount(idx, minlength=size).reshape(span, n_bins)
        return GL, HL, NL


def train(ds: LabeledDataset, cfg: GbdtConfig | None = None) -> GbdtModel:
    """Fit cfg.n_trees boosted trees; single-class labels are allowed and
    simply produce single-leaf trees."""
    cfg = cfg or GbdtConfig()
    X = ds.features
    y = ds.labels.astype(np.float64)

    prior = float(np.clip(y.mean(), _PRIOR_CLIP, 1.0 - _PRIOR_CLIP))
    base_score = float(np.log(prior / (1.0 - prior)))
    raw = np.full(ds.n, base_score)

    grower = _TreeGrower(X, cfg)

    trees: list[RegressionTree] = []
    losses = [_log_loss(raw, y)]
    for _ in range(cfg.n_trees):
        p = _sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        tree, train_pred = grower.grow(g, h)
        raw = raw + cfg.learning_rate * train_pred
        trees.append(tree)
        losses.append(_log_loss(raw, y))

    return GbdtModel(
        base_score=base_score,
        trees=trees,
        config=cfg,
        n_features=ds.m,
        train_losses=losses,
    )


def feature_importance(model: GbdtModel) -> np.ndarray:
    """Per-feature total split gain, normalized to sum to 1 (all zeros if the
    model never split)."""
    scores = np.zeros(model.n_features)
    for tree in model.trees:
        internal = tree.feature_index >= 0
        np.add.at(scores, tree.feature_index[internal], tree.gain[internal])
    total = scores.sum()
    if total > 0:
        scores /= total
    return scores
