"""Gradient-boosted regression trees for binary classification.

Logistic objective with second-order (Newton) leaf values: per boosting round
the targets are gradients g = p - y and hessians h = p(1 - p), leaves get
-sum(g) / (sum(h) + lambda), and splits are exact greedy over midpoints of
consecutive distinct sorted feature values. Each column is sorted once per
fit, into int32 row ids. A node that may split holds its own rows'
per-feature sort order: a split partitions the parent's orders stably into
the two children (the pre-sorted lists of SLIQ and of XGBoost's exact greedy
search), so a node's search costs its own rows, not the fit's. A node scores
a block of columns per numpy call, with the block's scratch bounded at
_BLOCK_CELLS feature-by-row cells. Per tree, g and h sit side by side in one
complex array g + 1j*h, so a block gathers both in sorted order with one take
and prefix-sums both with one cumsum; complex addition adds the two parts
apart, so the sums are bit for bit those of g and of h. A boundary between
equal values is no split candidate. The root searches the same order over
the same boundaries in every tree of a fit, so its tie mask is computed
once per fit from the values and kept packed 8 boundaries a byte; the other
nodes compare their sorted values. The threshold is read from X at the two
rows beside the winning boundary. Ties go to the lowest feature, then the
lowest threshold. Feature importance is total split gain, normalized.
Training uses no randomness, so identical inputs give byte-identical models.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset
from .errors import ValidationError

_LAMBDA = 1.0
_PRIOR_CLIP = 1e-6
# cells (features x node rows) scored per numpy call in the split search
_BLOCK_CELLS = 1 << 13


@dataclass(frozen=True)
class GbdtConfig:
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 5

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValidationError("learning_rate must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
        if self._can_split(self.n, 0):
            lo, hi = self._window(self.n)
            width = self._width(self.n)
            self._root_ties = np.empty((self.m, (hi - lo + 7) // 8), dtype=np.uint8)
            for j0 in range(0, self.m, width):
                ties = self._ties(col_order[j0 : j0 + width], j0, lo, hi)
                self._root_ties[j0 : j0 + width] = np.packbits(ties, axis=1)

    def _window(self, n_node: int) -> tuple[int, int]:
        # t = number of rows sent left, lo..hi - 1
        return self.cfg.min_samples_leaf, n_node - self.cfg.min_samples_leaf + 1

    @staticmethod
    def _width(n_node: int) -> int:
        return max(1, _BLOCK_CELLS // n_node)

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

        # depth-first; each entry owns its row indices and, if it may split,
        # their per-feature sort order (None otherwise)
        root_order = self.col_order if self._can_split(self.n, 0) else None
        stack = [(new_node(), np.arange(self.n), root_order, 0)]
        # g and h side by side, so one gather and one cumsum serve both:
        # complex addition adds the parts apart, so the sums are g's and h's
        gh = np.empty(self.n, dtype=np.complex128)
        gh.real = g
        gh.imag = h
        while stack:
            node, rows, order, depth = stack.pop()
            G = g[rows].sum()
            H = h[rows].sum()
            split = None
            if order is not None:
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
            go_left = self.X[rows, feat] < thr
            left_rows, right_rows = rows[go_left], rows[~go_left]
            left_order, right_order = self._partition(
                order,
                left_rows,
                self._can_split(left_rows.size, depth + 1),
                self._can_split(right_rows.size, depth + 1),
            )
            left_id = new_node()
            right_id = new_node()
            left[node] = left_id
            right[node] = right_id
            stack.append((left_id, left_rows, left_order, depth + 1))
            stack.append((right_id, right_rows, right_order, depth + 1))

        tree = RegressionTree(
            feature_index=np.array(feature_index, dtype=np.int64),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            leaf_value=np.array(leaf_value, dtype=np.float64),
            gain=np.array(gain, dtype=np.float64),
        )
        return tree, train_pred

    def _partition(self, order, left_rows, left_splits, right_splits):
        """The children's per-feature orders, None for a child that cannot
        split, cut from the node's order a block of columns at a time. The
        cut is stable, so each child keeps its parent's sorted order."""
        n_node, n_left = order.shape[1], left_rows.size
        left_order = right_order = None
        if left_splits:
            left_order = np.empty((self.m, n_left), dtype=order.dtype)
        if right_splits:
            right_order = np.empty((self.m, n_node - n_left), dtype=order.dtype)
        if not (left_splits or right_splits):
            return left_order, right_order
        flag = self._flag
        flag[left_rows] = True
        width = self._width(n_node)
        for j0 in range(0, self.m, width):
            block = order[j0 : j0 + width].reshape(-1)
            sel = flag.take(block)
            if left_order is not None:
                block.compress(sel, out=left_order[j0 : j0 + width].reshape(-1))
            if right_order is not None:
                np.logical_not(sel, out=sel)
                block.compress(sel, out=right_order[j0 : j0 + width].reshape(-1))
        flag[left_rows] = False
        return left_order, right_order

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
        width = self._width(n_node)

        best_gain = 0.0
        best = None
        for j0 in range(0, self.m, width):
            idx = order[j0 : j0 + width]
            if root_ties is None:
                tie = self._ties(idx, j0, lo, hi)
            else:
                packed = root_ties[j0 : j0 + width]
                tie = np.unpackbits(packed, axis=1, count=hi - lo).view(bool)
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
                feat, tk = j0 + int(b), lo + k
                thr = (self.X[idx[b, tk - 1], feat] + self.X[idx[b, tk], feat]) / 2.0
                best = (best_gain, feat, float(thr))
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

    # feature-major; int32 row ids halve the m x n orders the fit holds, and
    # sorting a block of columns at a time bounds argsort's intp scratch
    col_order = np.empty((ds.m, ds.n), dtype=np.int32 if ds.n < 2**31 else np.intp)
    width = max(1, _BLOCK_CELLS // ds.n)
    for j0 in range(0, ds.m, width):
        col_order[j0 : j0 + width] = np.argsort(X.T[j0 : j0 + width], axis=1, kind="stable")
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
