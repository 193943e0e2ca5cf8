import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from melemad import gbdt
from melemad.dataset import LabeledDataset
from melemad.errors import ValidationError

from oracles import LAM, oracle_split_candidates


def make_ds(features, labels):
    return LabeledDataset(np.asarray(features, dtype=float), np.asarray(labels))


def separable_1d(n=200, seed=0, noise_features=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = (x > 0.5).astype(int)
    cols = [x]
    cols += [rng.standard_normal(n) for _ in range(noise_features)]
    return make_ds(np.column_stack(cols), y)


def fitted_raw(model, X):
    """Raw training scores rebuilt from the tree arrays, accumulated in the
    same order as training, so they match its bookkeeping bit for bit."""
    raw = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(tree.feature_index.shape[0]):
            feat = tree.feature_index[node]
            internal = feat >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            cur = node[rows]
            go_left = X[rows, feat[rows]] < tree.threshold[cur]
            node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
        raw = raw + model.config.learning_rate * tree.leaf_value[node]
    return raw


def fitted_proba(model, ds):
    """Training-set probabilities of a fitted model, checked against the
    final loss recorded during training."""
    raw = fitted_raw(model, ds.features)
    y = ds.labels.astype(float)
    assert float(np.mean(np.logaddexp(0.0, raw) - y * raw)) == model.train_losses[-1]
    return 1.0 / (1.0 + np.exp(-raw))


def assert_split_is_exhaustive_optimum(model, X, y, min_leaf):
    """The chosen split must be a gain maximizer of the exhaustive search.

    Mathematically tied candidates can differ by a few ulps between the two
    summation orders, so optimality is checked to 1e-9 relative rather than
    demanding one specific tie pick.
    """
    candidates = oracle_split_candidates(X, y.astype(float), model.base_score, min_leaf)
    positive = [c for c in candidates if c[0] > 0]
    root = model.trees[0]
    gmax = max((c[0] for c in positive), default=0.0)
    tol = 1e-9 * (1.0 + abs(gmax))
    if root.feature_index[0] < 0:
        assert gmax <= tol  # only fp-level gains were available
        return
    matches = [
        c
        for c in positive
        if c[1] == root.feature_index[0]
        and math.isclose(c[2], root.threshold[0], rel_tol=1e-9, abs_tol=1e-12)
    ]
    assert len(matches) == 1, "chosen split not among exhaustive candidates"
    assert matches[0][0] >= gmax - tol, "chosen split is not a gain maximizer"
    assert abs(root.gain[0] - matches[0][0]) <= tol


def assert_same_models(a, b):
    assert a.base_score == b.base_score
    assert np.array(a.train_losses).tobytes() == np.array(b.train_losses).tobytes()
    assert len(a.trees) == len(b.trees)
    for x, y in zip(a.trees, b.trees):
        for name in ("feature_index", "threshold", "left", "right", "leaf_value", "gain"):
            assert getattr(x, name).tobytes() == getattr(y, name).tobytes(), name


def reference_best_split(self, order, gh, G, H, root_ties):
    """Exact greedy split search with one Python iteration per feature.

    Only the node's row set is taken from order, and g and h from the parts
    of gh; root_ties is ignored, so every node compares its own values.
    Node rows are sorted per feature by a stable argsort of the rows in
    ascending index order, so equal values keep row order. Features are
    visited lowest first and a later one must beat the best gain strictly:
    the lowest feature wins ties, then the lowest threshold.
    """
    g, h = gh.real, gh.imag
    min_leaf = self.cfg.min_samples_leaf
    rows = np.sort(order[0])
    n_node = rows.size
    parent_score = G * G / (H + LAM)
    best_gain = 0.0
    best = None
    for j in range(self.m):
        idx = rows[np.argsort(self.X[rows, j], kind="stable")]
        v = self.X[idx, j]
        if v[0] == v[-1]:
            continue
        gs = np.cumsum(g[idx])
        hs = np.cumsum(h[idx])
        t = np.arange(min_leaf, n_node - min_leaf + 1)
        valid = v[t] > v[t - 1]
        if not valid.any():
            continue
        GL = gs[t - 1]
        HL = hs[t - 1]
        gains = 0.5 * (
            GL * GL / (HL + LAM)
            + (G - GL) * (G - GL) / (H - HL + LAM)
            - parent_score
        )
        gains[~valid] = -np.inf
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            tk = t[k]
            best = (best_gain, j, float((v[tk - 1] + v[tk]) / 2.0))
    return best


def tree_depth(tree):
    """Length of the longest root-to-leaf path."""
    depth = {0: 0}
    for node in range(tree.feature_index.shape[0]):
        if tree.feature_index[node] >= 0:
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return max(depth.values())


def train_both(monkeypatch, ds, cfg):
    """(block split search, per-feature reference) models of one fit."""
    model = gbdt.train(ds, cfg)
    with monkeypatch.context() as mp:
        mp.setattr(gbdt._TreeGrower, "_best_split", reference_best_split)
        reference = gbdt.train(ds, cfg)
    return model, reference


def features_of_kind(kind, rng, n, m):
    if kind == "continuous":
        return rng.standard_normal((n, m))
    if kind == "discrete":
        return rng.integers(0, 5, (n, m)).astype(float)
    # tie-heavy: mostly one value, a few others
    return rng.choice([0.0, 0.0, 0.0, 0.0, 1.0, 2.5], size=(n, m))


class TestTrain:
    def test_constant_labels_all_leaves_low_probability(self):
        rng = np.random.default_rng(0)
        ds = make_ds(rng.standard_normal((50, 3)), np.zeros(50, dtype=int))
        model = gbdt.train(ds, gbdt.GbdtConfig(n_trees=10))
        assert all(t.feature_index.shape[0] == 1 for t in model.trees)
        probs = fitted_proba(model, ds)
        assert np.all(probs < 0.01)

    def test_separable_1d_high_accuracy(self):
        ds = separable_1d(200, seed=1)
        model = gbdt.train(ds, gbdt.GbdtConfig())
        probs = fitted_proba(model, ds)
        acc = float(np.mean((probs >= 0.5) == (ds.labels == 1)))
        assert acc >= 0.99
        assert np.all(probs[ds.labels == 1] >= 0.9)

    def test_deterministic_structures(self):
        rng = np.random.default_rng(2)
        ds = make_ds(rng.standard_normal((80, 4)), rng.integers(0, 2, 80))
        cfg = gbdt.GbdtConfig(n_trees=15)
        assert_same_models(gbdt.train(ds, cfg), gbdt.train(ds, cfg))

    def test_tree_count_matches_config(self):
        ds = separable_1d(40, seed=3)
        model = gbdt.train(ds, gbdt.GbdtConfig(n_trees=7))
        assert len(model.trees) == 7

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            gbdt.GbdtConfig(n_trees=0)
        with pytest.raises(ValidationError):
            gbdt.GbdtConfig(learning_rate=1.5)
        with pytest.raises(ValidationError):
            gbdt.GbdtConfig(max_depth=0)


class TestPredict:
    def test_no_trees_gives_prior(self):
        # the loss before the first tree is the log loss of the label prior
        ds = make_ds([[0.0], [1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1, 1])
        model = gbdt.train(ds, gbdt.GbdtConfig(n_trees=1))
        prior = 1.0 / (1.0 + math.exp(-model.base_score))
        assert prior == pytest.approx(0.6)
        y = ds.labels.astype(float)
        expected = -np.mean(y * np.log(prior) + (1 - y) * np.log(1 - prior))
        assert model.train_losses[0] == pytest.approx(expected, rel=1e-12)

    def test_balanced_labels_zero_base_score(self):
        ds = make_ds([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        model = gbdt.train(ds, gbdt.GbdtConfig(n_trees=1))
        assert model.base_score == 0.0

    def test_probabilities_in_open_interval(self):
        ds = separable_1d(100, seed=5)
        model = gbdt.train(ds, gbdt.GbdtConfig())
        probs = fitted_proba(model, ds)
        assert np.all(probs > 0) and np.all(probs < 1)


class TestImportance:
    def test_signal_feature_dominates(self):
        ds = separable_1d(300, seed=6, noise_features=9)
        model = gbdt.train(ds, gbdt.GbdtConfig())
        scores = gbdt.feature_importance(model)
        assert scores[0] >= 0.8

    def test_all_leaf_model_gives_zero_vector(self):
        ds = make_ds(np.random.default_rng(7).standard_normal((30, 4)), np.ones(30, dtype=int))
        model = gbdt.train(ds, gbdt.GbdtConfig(n_trees=5))
        scores = gbdt.feature_importance(model)
        assert np.all(scores == 0.0)

    def test_normalization(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ds = make_ds(rng.standard_normal((60, 3)), rng.integers(0, 2, 60))
            scores = gbdt.feature_importance(gbdt.train(ds, gbdt.GbdtConfig(n_trees=10)))
            total = scores.sum()
            assert abs(total - 1.0) < 1e-9 or total == 0.0

    def test_support_iff_split(self):
        rng = np.random.default_rng(9)
        ds = make_ds(rng.standard_normal((80, 5)), rng.integers(0, 2, 80))
        model = gbdt.train(ds, gbdt.GbdtConfig(n_trees=10))
        scores = gbdt.feature_importance(model)
        split_on = set()
        for tree in model.trees:
            split_on.update(tree.feature_index[tree.feature_index >= 0].tolist())
        for j in range(ds.m):
            assert (scores[j] > 0) == (j in split_on)


class TestMonotoneLoss:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_training_loss_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 80))
        m = int(rng.integers(1, 5))
        X = rng.standard_normal((n, m))
        y = rng.integers(0, 2, n)
        cfg = gbdt.GbdtConfig(
            n_trees=int(rng.integers(2, 20)),
            max_depth=int(rng.integers(1, 4)),
            learning_rate=float(rng.uniform(0.02, 0.5)),
            min_samples_leaf=int(rng.integers(1, 5)),
        )
        model = gbdt.train(make_ds(X, y), cfg)
        losses = model.train_losses
        assert len(losses) == cfg.n_trees + 1
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-12


class TestSplitOracle:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_first_split_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        X = rng.standard_normal((n, m))
        y = rng.integers(0, 2, n)
        min_leaf = int(rng.integers(1, 3))
        ds = make_ds(X, y)
        model = gbdt.train(ds, gbdt.GbdtConfig(n_trees=1, max_depth=1, min_samples_leaf=min_leaf))
        assert_split_is_exhaustive_optimum(model, X, y, min_leaf)


class TestBlockSplitSearch:
    """The column-block split search must grow byte-identical trees to the
    per-feature reference, whatever the block width."""

    @pytest.mark.parametrize("kind", ["continuous", "discrete", "tie-heavy"])
    def test_matches_reference(self, monkeypatch, kind):
        for min_leaf in range(1, 9):
            for depth in range(1, 5):
                rng = np.random.default_rng(100 * min_leaf + depth)
                X = features_of_kind(kind, rng, 90, 7)
                y = ((X[:, 0] + X[:, 3] + rng.standard_normal(90)) > 1.0).astype(int)
                cfg = gbdt.GbdtConfig(
                    n_trees=3, max_depth=depth, learning_rate=0.5, min_samples_leaf=min_leaf
                )
                model, reference = train_both(monkeypatch, make_ds(X, y), cfg)
                assert_same_models(model, reference)

    @pytest.mark.parametrize("cells", [1, 7, 64, 250, 1000])
    def test_matches_reference_across_block_widths(self, monkeypatch, cells):
        monkeypatch.setattr(gbdt, "_BLOCK_CELLS", cells)
        for kind in ("continuous", "discrete", "tie-heavy"):
            rng = np.random.default_rng(cells)
            X = features_of_kind(kind, rng, 60, 13)
            y = ((X[:, 2] - X[:, 11] + rng.standard_normal(60)) > 0.0).astype(int)
            cfg = gbdt.GbdtConfig(n_trees=3, max_depth=4, learning_rate=0.5, min_samples_leaf=2)
            model, reference = train_both(monkeypatch, make_ds(X, y), cfg)
            assert_same_models(model, reference)

    def test_several_default_blocks_at_the_root(self, monkeypatch):
        n, m = 400, 50
        assert m > gbdt._BLOCK_CELLS // n  # the root spans several blocks
        rng = np.random.default_rng(11)
        X = rng.standard_normal((n, m))
        y = ((X[:, 5] + X[:, 45] + rng.standard_normal(n)) > 0.0).astype(int)
        cfg = gbdt.GbdtConfig(n_trees=2, max_depth=3, learning_rate=0.5)
        model, reference = train_both(monkeypatch, make_ds(X, y), cfg)
        assert_same_models(model, reference)

    @pytest.mark.parametrize("cells", [3 * 40, gbdt._BLOCK_CELLS])
    def test_duplicate_column_lowest_feature_wins(self, monkeypatch, cells):
        # column 1 is copied to column 6: equal best gains, in different
        # blocks when three columns fit a block, in one block otherwise
        monkeypatch.setattr(gbdt, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(12)
        X = rng.standard_normal((40, 8))
        X[:, 1] = np.arange(40) % 10
        X[:, 6] = X[:, 1]
        y = (X[:, 1] >= 5).astype(int)
        cfg = gbdt.GbdtConfig(n_trees=2, max_depth=2, min_samples_leaf=1)
        model, reference = train_both(monkeypatch, make_ds(X, y), cfg)
        root = model.trees[0]
        assert root.feature_index[0] == 1
        assert root.threshold[0] == 4.5
        assert_same_models(model, reference)

    def test_root_below_two_min_leaves_is_a_leaf(self, monkeypatch):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((9, 3))
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0, 1])
        cfg = gbdt.GbdtConfig(n_trees=3, max_depth=3, min_samples_leaf=5)
        model, reference = train_both(monkeypatch, make_ds(X, y), cfg)
        assert all(tree.feature_index.tolist() == [-1] for tree in model.trees)
        assert_same_models(model, reference)

    @pytest.mark.parametrize("depth", [5, 6])
    def test_matches_reference_on_deep_trees(self, monkeypatch, depth):
        for kind in ("continuous", "discrete", "tie-heavy"):
            rng = np.random.default_rng(depth)
            X = features_of_kind(kind, rng, 300, 6)
            y = ((X[:, 1] * X[:, 4] + rng.standard_normal(300)) > 0.0).astype(int)
            cfg = gbdt.GbdtConfig(
                n_trees=3, max_depth=depth, learning_rate=0.5, min_samples_leaf=2
            )
            model, reference = train_both(monkeypatch, make_ds(X, y), cfg)
            assert max(tree_depth(tree) for tree in model.trees) == depth
            assert_same_models(model, reference)

    def test_child_below_two_min_leaves_stays_a_leaf(self, monkeypatch):
        # the root sends the 4 rows below 3.5 left: too few for a left split
        # at min_samples_leaf 3, while the right child keeps splitting
        rng = np.random.default_rng(14)
        n = 60
        X = np.column_stack([np.arange(n, dtype=float), rng.standard_normal(n)])
        y = np.where(X[:, 0] < 4, 1, X[:, 0] % 7 == 0).astype(int)
        cfg = gbdt.GbdtConfig(n_trees=2, max_depth=3, learning_rate=0.5, min_samples_leaf=3)
        model, reference = train_both(monkeypatch, make_ds(X, y), cfg)
        root = model.trees[0]
        assert (root.feature_index[0], root.threshold[0]) == (0, 3.5)
        assert root.feature_index[root.left[0]] == -1
        assert root.feature_index[root.right[0]] >= 0
        assert_same_models(model, reference)

    @pytest.mark.parametrize("kind", ["discrete", "tie-heavy"])
    def test_root_ties_gathered_once_per_fit(self, monkeypatch, kind):
        # the root's tie mask comes from one values gather per block when the
        # fit starts; every tree's root reuses it, ties and all
        rng = np.random.default_rng(17)
        n, m = 120, 9
        X = features_of_kind(kind, rng, n, m)
        y = ((X[:, 0] - X[:, 4] + rng.standard_normal(n)) > 0.0).astype(int)
        cfg = gbdt.GbdtConfig(n_trees=8, max_depth=3, learning_rate=0.5, min_samples_leaf=3)
        ds = make_ds(X, y)
        root_ties = {}
        ties = gbdt._TreeGrower._ties

        def recording_ties(self, idx, j0, lo, hi):
            tie = ties(self, idx, j0, lo, hi)
            if idx.shape[1] == n:
                assert j0 not in root_ties
                root_ties[j0] = tie
            return tie

        monkeypatch.setattr(gbdt, "_BLOCK_CELLS", 4 * n)
        with monkeypatch.context() as mp:
            mp.setattr(gbdt._TreeGrower, "_ties", recording_ties)
            model = gbdt.train(ds, cfg)
        assert sorted(root_ties) == [0, 4, 8]  # one gather per block of the root
        assert all(tie.any() for tie in root_ties.values())
        assert all(tree.feature_index[0] >= 0 for tree in model.trees)
        _, reference = train_both(monkeypatch, ds, cfg)
        assert_same_models(model, reference)

    def test_successive_fits_share_no_root_ties(self, monkeypatch):
        # min_samples_leaf sets the root's window of boundaries (lo..hi), so
        # a mask kept from the first fit would be the wrong one for the next
        rng = np.random.default_rng(18)
        X = features_of_kind("discrete", rng, 80, 6)
        y = ((X[:, 1] + X[:, 2] + rng.standard_normal(80)) > 4.0).astype(int)
        ds = make_ds(X, y)
        for min_leaf in (1, 9, 2):
            cfg = gbdt.GbdtConfig(
                n_trees=4, max_depth=3, learning_rate=0.5, min_samples_leaf=min_leaf
            )
            model, reference = train_both(monkeypatch, ds, cfg)
            assert_same_models(model, reference)

    @pytest.mark.parametrize("kind", ["continuous", "discrete", "tie-heavy"])
    def test_threshold_is_the_midpoint_of_sorted_node_values(self, kind):
        # the threshold is read from X at the two winning rows; it must be the
        # midpoint of the two distinct sorted values of the node it splits
        rng = np.random.default_rng(19)
        X = features_of_kind(kind, rng, 150, 5)
        y = ((X[:, 0] + X[:, 3] + rng.standard_normal(150)) > 1.0).astype(int)
        cfg = gbdt.GbdtConfig(n_trees=4, max_depth=4, learning_rate=0.5, min_samples_leaf=2)
        model = gbdt.train(make_ds(X, y), cfg)
        splits = 0
        for tree in model.trees:
            node_rows = {0: np.arange(150)}
            for node in range(tree.feature_index.shape[0]):
                feat, rows = int(tree.feature_index[node]), node_rows[node]
                if feat < 0:
                    continue
                thr = tree.threshold[node]
                values = np.unique(X[rows, feat])  # sorted, distinct
                k = int(np.searchsorted(values, thr))
                assert 0 < k < values.size
                assert thr == (values[k - 1] + values[k]) / 2.0
                go_left = X[rows, feat] < thr
                node_rows[tree.left[node]] = rows[go_left]
                node_rows[tree.right[node]] = rows[~go_left]
                splits += 1
        assert splits > 4

    def test_chunk_on_a_row_view_equals_one_on_a_copy(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((500, 12))
        ds = make_ds(X, ((X[:, 3] + rng.standard_normal(500)) > 0).astype(int))
        view = ds.select_rows(slice(120, 420))
        copy = ds.select_rows(np.arange(120, 420))
        assert np.shares_memory(view.features, ds.features)
        assert not np.shares_memory(copy.features, ds.features)
        cfg = gbdt.GbdtConfig(n_trees=4, max_depth=4, learning_rate=0.5)
        assert_same_models(gbdt.train(view, cfg), gbdt.train(copy, cfg))

    def test_float32_matrix_grows_the_trees_of_its_float64_copy(self):
        # column 0 separates the classes between 1.0 and the next float32
        # above it: their midpoint rounds to 1.0 in float32, so a float32
        # midpoint or split test would send the left value right
        rng = np.random.default_rng(17)
        y = rng.integers(0, 2, 300)
        above = np.nextafter(np.float32(1.0), np.float32(2.0))
        X = rng.standard_normal((300, 6)).astype(np.float32)
        X[:, 0] = np.where(y == 1, above, np.float32(1.0))
        narrow = LabeledDataset._wrap(X, y)
        cfg = gbdt.GbdtConfig(n_trees=5, max_depth=3, learning_rate=0.5)
        model = gbdt.train(narrow, cfg)
        assert_same_models(model, gbdt.train(make_ds(X.astype(np.float64), y), cfg))
        root = model.trees[0]
        assert root.feature_index[0] == 0 and 1.0 < root.threshold[0] < above
        # the root separates the classes: its children are pure leaves
        assert root.feature_index[root.left[0]] == root.feature_index[root.right[0]] == -1

    def test_peak_memory_of_a_fit_stays_within_twice_the_matrix(self):
        # column orders and the work buffer hold uint16 row ids at this size;
        # int64 ones would quadruple both and push the peak well past this bound
        rng = np.random.default_rng(16)
        X = rng.standard_normal((7500, 40))
        ds = make_ds(X, ((X[:, 0] + rng.standard_normal(7500)) > 0).astype(int))
        cfg = gbdt.GbdtConfig(n_trees=2, max_depth=4, learning_rate=0.5)
        tracemalloc.start()
        try:
            gbdt.train(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * ds.features.nbytes

    def test_peak_memory_of_a_wide_float32_fit_stays_near_its_matrix(self):
        # col_order and the work buffer hold uint16 row ids, each half the
        # float32 matrix's bytes; fresh child orders at every split, or int32
        # ids, would push the peak past twice the matrix
        rng = np.random.default_rng(20)
        X = rng.standard_normal((3000, 600)).astype(np.float32)
        y = ((X[:, 0] + rng.standard_normal(3000)) > 0).astype(np.uint8)
        ds = LabeledDataset._wrap(X, y)
        cfg = gbdt.GbdtConfig(n_trees=2, max_depth=3, learning_rate=0.5)
        tracemalloc.start()
        try:
            gbdt.train(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * X.nbytes

    @pytest.mark.parametrize(
        "n, dtype", [(256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32)]
    )
    def test_row_ids_take_the_narrowest_unsigned_type(self, monkeypatch, n, dtype):
        # every node's orders, col_order at the root and the work buffer
        # below it, hold row ids in the narrowest type that holds row n - 1
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 3))
        ds = make_ds(X, ((X[:, 1] + rng.standard_normal(n)) > 0).astype(int))
        cfg = gbdt.GbdtConfig(n_trees=2, max_depth=2, learning_rate=0.5)
        seen = []
        best_split = gbdt._TreeGrower._best_split

        def recording_best_split(self, order, gh, G, H, root_ties):
            seen.append(order.dtype)
            return best_split(self, order, gh, G, H, root_ties)

        with monkeypatch.context() as mp:
            mp.setattr(gbdt._TreeGrower, "_best_split", recording_best_split)
            model = gbdt.train(ds, cfg)
        assert seen == [np.dtype(dtype)] * 6  # the root and both children, per tree
        _, reference = train_both(monkeypatch, ds, cfg)
        assert_same_models(model, reference)
