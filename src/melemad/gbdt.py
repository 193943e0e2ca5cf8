"""Gradient-boosted regression trees for binary classification.

Logistic objective with second-order (Newton) leaf values: per boosting round
the targets are gradients g = p - y and hessians h = p(1 - p), leaves get
-sum(g) / (sum(h) + lambda), and splits are exact greedy over midpoints of
consecutive distinct sorted feature values. Each column is sorted once per
fit; a node scores a block of columns per numpy call, with the block's
scratch bounded at _BLOCK_CELLS feature-by-row cells. Ties go to the lowest
feature, then the lowest threshold. Feature importance is total split gain,
normalized. Training uses no randomness, so identical inputs give
byte-identical models.
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
        self._mask = np.zeros(self.n, dtype=bool)

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

        # depth-first; each entry owns its row indices
        stack = [(new_node(), np.arange(self.n), 0)]
        while stack:
            node, rows, depth = stack.pop()
            G = g[rows].sum()
            H = h[rows].sum()
            split = None
            if depth < self.cfg.max_depth and rows.size >= 2 * self.cfg.min_samples_leaf:
                split = self._best_split(rows, g, h, G, H)
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
        min_leaf = self.cfg.min_samples_leaf
        n_node = rows.size
        parent_score = G * G / (H + _LAMBDA)
        mask = self._mask
        mask[rows] = True
        # t = number of rows sent left, min_leaf..n_node - min_leaf
        lo, hi = min_leaf, n_node - min_leaf + 1
        width = max(1, _BLOCK_CELLS // n_node)

        best_gain = 0.0
        best = None
        for j0 in range(0, self.m, width):
            order = self.col_order[j0 : j0 + width]
            idx = order[mask[order]].reshape(-1, n_node)  # node rows, sorted per feature
            v = np.take_along_axis(self.X.T[j0 : j0 + width], idx, axis=1)
            GL = np.cumsum(g[idx], axis=1)[:, lo - 1 : hi - 1]
            HL = np.cumsum(h[idx], axis=1)[:, lo - 1 : hi - 1]
            gains = 0.5 * (
                GL * GL / (HL + _LAMBDA)
                + (G - GL) * (G - GL) / (H - HL + _LAMBDA)
                - parent_score
            )
            # a boundary must separate distinct values
            gains[v[:, lo:hi] <= v[:, lo - 1 : hi - 1]] = -np.inf
            # row-major first max: lowest feature, then lowest threshold
            b, k = np.unravel_index(int(np.argmax(gains)), gains.shape)
            if gains[b, k] > best_gain:  # strict, so an earlier block wins ties
                best_gain = float(gains[b, k])
                tk = lo + k
                thr = (v[b, tk - 1] + v[b, tk]) / 2.0
                best = (best_gain, j0 + int(b), float(thr))

        mask[rows] = False
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

    col_order = np.argsort(X.T, axis=1, kind="stable")  # feature-major
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
