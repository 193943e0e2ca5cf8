"""Gradient-boosted regression trees for binary classification.

Logistic objective with second-order (Newton) leaf values: per boosting
round the targets are gradients g = p - y and hessians h = p(1 - p), leaves
get -sum(g) / (sum(h) + lambda), and splits are exact greedy over midpoints
of consecutive distinct sorted feature values. Each column is sorted once
per fit, into row ids of the narrowest unsigned type that holds them (uint16
up to 65,536 rows). A node that may split searches its own rows' per-feature
sort order (the pre-sorted lists of SLIQ and of XGBoost's exact greedy
search), so a node's search costs its own rows, not the fit's. Below the
root, that order is the node's span of one work buffer, which a split
partitions stably in place, left child first, so a fit holds its orders
twice however deep its trees grow. The sort, the root tie mask and each
node's search and partition take a block of columns per numpy call
(dataset._blocks), its scratch bounded at _BLOCK_CELLS feature-by-row
cells. Per tree, g and h sit side by side in one complex array g + 1j*h, so
a block gathers both in sorted order with one take and prefix-sums both with
one cumsum; complex addition adds the two parts apart, so the sums are bit
for bit those of g and of h. A boundary between equal values is no split
candidate. The root searches the same order over the same boundaries in
every tree of a fit, so its tie mask is computed once per fit from the
values and kept packed 8 boundaries a byte; the other nodes compare their
sorted values. The threshold is read from X at the two rows beside the
winning boundary. Ties go to the lowest feature, then the lowest threshold.
X may be float32 (a binary file's matrix) or float64: sorting and tie masks
are exact in either, and the threshold midpoint and the split test are taken
in float64, so a float32 matrix grows the trees of its float64 copy byte for
byte. Feature importance is total split gain, normalized. Training uses no
randomness, so identical inputs give byte-identical models. The logistic
function is dataset._sigmoid, which maml's output layer shares; GbdtConfig
is defined in config, with the rest of the config schema.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import GbdtConfig
from .dataset import LabeledDataset, _blocks, _sigmoid

_LAMBDA = 1.0
_PRIOR_CLIP = 1e-6
# cells (features x node rows) per block of columns (dataset._blocks)
_BLOCK_CELLS = 1 << 13


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


class _TreeGrower:
    """Grows one tree on (g, h) given column sort orders shared across trees."""

    def __init__(self, X, col_order, cfg: GbdtConfig):
        self.X = X
        self.col_order = col_order
        self.cfg = cfg
        self.n, self.m = X.shape
        # cell (row, col) of X sits at row * m + col of the flat values
        self._flat = X.reshape(-1)
        self._cols = np.arange(self.m)[:, None]
        self._flag = np.zeros(self.n, dtype=bool)
        # every tree's root searches col_order over the same window, so its
        # tie mask is the same in every tree of the fit; packed 8 boundaries
        # a byte, it holds an eighth of a bool mask's bytes
        self._root_ties = None
        # below the root, a node's orders are its span of this buffer (see
        # _partition). Held for the fit: allocated per tree, it left a select
        # of two 7500 x 40 chunks 0.4 MB higher in peak RSS
        self._work = None
        if self._can_split(self.n, 0):
            self._work = np.empty_like(col_order)
            lo, hi = self._window(self.n)
            self._root_ties = np.empty((self.m, (hi - lo + 7) // 8), dtype=np.uint8)
            for cols in _blocks(self.m, self.n, _BLOCK_CELLS):
                ties = self._ties(col_order[cols], cols.start, lo, hi)
                self._root_ties[cols] = np.packbits(ties, axis=1)

    def _window(self, n_node: int) -> tuple[int, int]:
        # t = number of rows sent left, lo..hi - 1
        return self.cfg.min_samples_leaf, n_node - self.cfg.min_samples_leaf + 1

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

        # depth-first; each entry owns its row indices, ascending, and, if it
        # may split, the start of its span of the work buffer (None otherwise)
        root_start = 0 if self._can_split(self.n, 0) else None
        stack = [(new_node(), np.arange(self.n), root_start, 0)]
        # g and h side by side, so one gather and one cumsum serve both:
        # complex addition adds the parts apart, so the sums are g's and h's
        gh = np.empty(self.n, dtype=np.complex128)
        gh.real = g
        gh.imag = h
        while stack:
            node, rows, start, depth = stack.pop()
            G = g[rows].sum()
            H = h[rows].sum()
            split = None
            if start is not None:
                span = self._work[:, start : start + rows.size]
                # the root reads col_order itself, which no split rewrites
                order = self.col_order if depth == 0 else span
                ties = self._root_ties if depth == 0 else None
                split = self._best_split(order, gh, G, H, ties)
            if split is None:
                value = -G / (H + _LAMBDA)
                leaf_value[node] = value
                train_pred[rows] = value
                continue
            best_gain, feat, thr = split
            feature_index[node] = feat
            threshold[node] = thr
            gain[node] = best_gain
            # in float64: a float32 comparison would round thr to float32,
            # onto the left value when the two values beside it are adjacent
            go_left = self.X[rows, feat].astype(np.float64, copy=False) < thr
            left_rows, right_rows = rows[go_left], rows[~go_left]
            left_splits = self._can_split(left_rows.size, depth + 1)
            right_splits = self._can_split(right_rows.size, depth + 1)
            if left_splits or right_splits:
                self._partition(order, span, left_rows)
            left_id = new_node()
            right_id = new_node()
            left[node] = left_id
            right[node] = right_id
            right_start = start + left_rows.size
            stack.append((left_id, left_rows, start if left_splits else None, depth + 1))
            stack.append((right_id, right_rows, right_start if right_splits else None, depth + 1))

        tree = RegressionTree(
            feature_index=np.array(feature_index, dtype=np.int64),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            leaf_value=np.array(leaf_value, dtype=np.float64),
            gain=np.array(gain, dtype=np.float64),
        )
        return tree, train_pred

    def _partition(self, order, span, left_rows):
        """Write the left child's per-feature orders, then the right child's,
        over span, the node's columns of the work buffer, cut from the node's
        orders a block of columns at a time. The cut is stable, so each child
        keeps its parent's sorted order. order is col_order at the root and
        span itself below it, so both sides of a block are cut into
        contiguous temps before either is written back."""
        n_node, n_left = order.shape[1], left_rows.size
        flag = self._flag
        flag[left_rows] = True
        for cols in _blocks(self.m, n_node, _BLOCK_CELLS):
            block = order[cols].reshape(-1)
            sel = flag.take(block)
            to_left = block.compress(sel)
            np.logical_not(sel, out=sel)
            to_right = block.compress(sel)
            span[cols, :n_left] = to_left.reshape(-1, n_left)
            span[cols, n_left:] = to_right.reshape(-1, n_node - n_left)
        flag[left_rows] = False

    def _ties(self, idx, j0, lo, hi):
        """Per boundary lo..hi - 1 of a block of sorted columns from j0: True
        where the value equals the one before it, so no split falls there."""
        cells = np.multiply(idx, self.m, dtype=np.intp)
        cells += self._cols[j0 : j0 + idx.shape[0]]
        v = self._flat.take(cells)
        return v[:, lo:hi] <= v[:, lo - 1 : hi - 1]

    def _best_split(self, order, gh, G, H, root_ties):
        """order holds the node's rows sorted per feature, one row per feature;
        gh holds g + 1j * h per row; root_ties is the root's packed tie mask,
        or None below the root."""
        n_node = order.shape[1]
        parent_score = G * G / (H + _LAMBDA)
        lo, hi = self._window(n_node)

        best_gain = 0.0
        best = None
        for cols in _blocks(self.m, n_node, _BLOCK_CELLS):
            idx = order[cols]
            if root_ties is None:
                tie = self._ties(idx, cols.start, lo, hi)
            else:
                tie = np.unpackbits(root_ties[cols], axis=1, count=hi - lo).view(bool)
            sums = gh.take(idx)
            np.cumsum(sums, axis=1, out=sums)
            # contiguous copies: the arithmetic below runs faster on them
            # than on the strided .real and .imag views; the sums are freed
            # before it allocates, so the block's scratch peaks no higher
            GL = sums.real[:, lo - 1 : hi - 1].copy()
            HL = sums.imag[:, lo - 1 : hi - 1].copy()
            del sums
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
            # a boundary must separate distinct values
            np.copyto(gains, -np.inf, where=tie)
            # row-major first max: lowest feature, then lowest threshold
            b, k = np.unravel_index(int(np.argmax(gains)), gains.shape)
            if gains[b, k] > best_gain:  # strict, so an earlier block wins ties
                best_gain = float(gains[b, k])
                feat, tk = cols.start + int(b), lo + k
                # Python floats: a float32 sum could round the midpoint onto
                # the left value
                below, above = self.X[idx[b, tk - 1], feat], self.X[idx[b, tk], feat]
                thr = (float(below) + float(above)) / 2.0
                best = (best_gain, feat, thr)
        return best


def train(ds: LabeledDataset, cfg: GbdtConfig | None = None) -> GbdtModel:
    """Fit cfg.n_trees boosted trees; single-class labels are allowed and
    simply produce single-leaf trees."""
    cfg = cfg or GbdtConfig()
    X = ds.features
    y = ds.labels.astype(np.float64)

    prior = float(np.clip(y.mean(), _PRIOR_CLIP, 1.0 - _PRIOR_CLIP))
    base_score = float(np.log(prior / (1.0 - prior)))
    raw = np.full(ds.n, base_score)

    # feature-major, in the narrowest unsigned type that holds a row id; the
    # grower's work buffer takes the same type. Sorting a block of columns at
    # a time bounds argsort's intp scratch
    col_order = np.empty((ds.m, ds.n), dtype=np.min_scalar_type(ds.n - 1))
    for cols in _blocks(ds.m, ds.n, _BLOCK_CELLS):
        col_order[cols] = np.argsort(X.T[cols], axis=1, kind="stable")
    grower = _TreeGrower(X, col_order, cfg)

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
