import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from melemad import dataset, maml
from melemad.dataset import LabeledDataset
from melemad.errors import Diverged, Saturated, ValidationError

from oracles import (inclusion_chi_square, key_of, one_mask, pre_activations, reference_mask,
                     smooth_instance)


def make_ds(features, labels):
    return LabeledDataset(np.asarray(features, dtype=float), np.asarray(labels))


def random_pool(n, m, seed, balance=0.5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, m))
    labels = (rng.random(n) < balance).astype(int)
    labels[:2] = [0, 1]
    return make_ds(X, labels)


def adapt(theta, X, y, alpha, inner_steps, dropout_key=(0,)):
    """inner_adapt on a stack of one episode; the adapted parameters. An
    architecture without dropout draws no mask from dropout_key."""
    path = maml.inner_adapt(
        maml.ModelParams._trusted(theta.values[None], theta.arch),
        np.asarray(X, dtype=float)[None], np.asarray(y)[None], alpha, inner_steps,
        [dropout_key],
    )
    return maml.ModelParams(path[-1][0], theta.arch)


def loss_at(values, arch, X, y, mask=None):
    params = maml.ModelParams(values, arch)
    return maml.bce_loss(maml._forward_pass(params, X, mask)[3], y)


def fd_gradient(values, arch, X, y, step=1e-5, mask=None):
    grad = np.zeros_like(values)
    for i in range(values.shape[0]):
        up = values.copy()
        up[i] += step
        down = values.copy()
        down[i] -= step
        grad[i] = (loss_at(up, arch, X, y, mask) - loss_at(down, arch, X, y, mask)) / (2 * step)
    return grad


class TestInitParams:
    def test_param_count_chain(self):
        arch = maml.MlpArchitecture(input_dim=100, hidden_dims=(64, 32, 16))
        assert arch.param_count == 100 * 64 + 64 + 64 * 32 + 32 + 32 * 16 + 16 + 16 * 1 + 1
        assert arch.param_count == 9089
        assert maml.init_params(arch, 0).values.shape == (9089,)

    def test_biases_exactly_zero(self):
        arch = maml.MlpArchitecture(input_dim=5, hidden_dims=(4, 3))
        params = maml.init_params(arch, 1)
        for W, b in params.layers():
            assert np.all(b == 0.0)
            assert np.any(W != 0.0)

    def test_deterministic(self):
        arch = maml.MlpArchitecture(input_dim=7, hidden_dims=(6,))
        a = maml.init_params(arch, 42)
        b = maml.init_params(arch, 42)
        assert a.values.tobytes() == b.values.tobytes()
        c = maml.init_params(arch, 43)
        assert c.values.tobytes() != a.values.tobytes()

    def test_weights_within_glorot_bound(self):
        arch = maml.MlpArchitecture(input_dim=10, hidden_dims=(8,))
        params = maml.init_params(arch, 3)
        for (fan_in, fan_out), (W, _) in zip(arch.layer_sizes, params.layers()):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(W) <= bound)


class TestArchitecture:
    @pytest.mark.parametrize(
        "hidden", [(8.7, 4.7), (8.0, 4), ("8", 4), (True, 4)],
        ids=["fractional", "float", "string", "bool"],
    )
    def test_non_integer_width_rejected(self, hidden):
        with pytest.raises(ValidationError, match="'hidden_dims'"):
            maml.MlpArchitecture(input_dim=4, hidden_dims=hidden)

    @pytest.mark.parametrize("input_dim", [4.0, "4", True], ids=["float", "string", "bool"])
    def test_non_integer_input_width_rejected(self, input_dim):
        with pytest.raises(ValidationError, match="'input_dim'"):
            maml.MlpArchitecture(input_dim=input_dim)

    def test_json_list_of_ints_builds_the_same_architecture(self):
        header = json.loads('{"input_dim": 4, "hidden_dims": [8, 4], "dropout_rate": 0.1}')
        arch = maml.MlpArchitecture(**header)
        expected = maml.MlpArchitecture(input_dim=4, hidden_dims=(8, 4), dropout_rate=0.1)
        assert arch == expected and arch.hidden_dims == (8, 4)
        assert arch.layer_sizes == expected.layer_sizes
        assert maml.init_params(arch, 3).values.tobytes() == (
            maml.init_params(expected, 3).values.tobytes()
        )


class TestForward:
    def test_zero_params_give_half(self):
        arch = maml.MlpArchitecture(input_dim=3, hidden_dims=(4,), dropout_rate=0.0)
        params = maml.ModelParams(np.zeros(arch.param_count), arch)
        probs = maml.forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_array_equal(probs, 0.5)

    def test_zero_rows_draw_an_empty_mask(self):
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(8, 3), dropout_rate=0.5)
        assert maml.dropout_mask(arch, 0, [(1,), (2,)], 0).shape == (2, 0, 8)

    @pytest.mark.parametrize("rate", [0.05, 0.2, 0.5, 0.9])
    def test_keep_fraction_near_one_minus_rate(self, rate):
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(64, 3), dropout_rate=rate)
        keep = maml.dropout_mask(arch, 2000, [(5,), (6,)], 0)
        cells = keep.size
        sd = math.sqrt(cells * rate * (1.0 - rate))
        assert abs(int(keep.sum()) - cells * (1.0 - rate)) <= 5 * sd

    @pytest.mark.parametrize("draw_block", [1, 5, 1 << 12])
    @pytest.mark.parametrize("cells", [1, 6, 7, 50, 1 << 12, 1 << 20])
    def test_mask_identical_whatever_the_draw_block(self, monkeypatch, cells, draw_block):
        # one row or several to a block of rows, a block cut mid-row by the
        # generator's own blocks or not, all against the per-cell oracle
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(6, 3), dropout_rate=0.3)
        monkeypatch.setattr(maml, "_DRAW_CELLS", cells)
        monkeypatch.setattr(dataset, "_DRAW_BLOCK", draw_block)
        keys = [(8, 2, 1, t) for t in range(3)]
        keep = maml.dropout_mask(arch, 23, keys, 4)
        for t, key in enumerate(keys):
            assert keep[t].tolist() == reference_mask(arch, 23, key, 4).tolist()

    def test_dropout_changes_training_output_only(self):
        no_dropout = maml.MlpArchitecture(input_dim=4, hidden_dims=(8, 3), dropout_rate=0.0)
        assert maml.dropout_mask(no_dropout, 6, [(1,)], 0) is None
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(8, 3), dropout_rate=0.5)
        params = maml.init_params(arch, 3)
        X = np.random.default_rng(2).normal(size=(6, 4))
        mask = one_mask(arch, 6, (1,))
        np.testing.assert_array_equal(mask, one_mask(arch, 6, (1,)))
        assert not np.array_equal(mask, one_mask(arch, 6, (2,)))
        infer = maml.forward(params, X)
        np.testing.assert_array_equal(infer, maml._forward_pass(params, X, None)[3])
        assert not np.array_equal(maml._forward_pass(params, X, mask)[3], infer)

    def test_clamp_bounds(self):
        arch = maml.MlpArchitecture(input_dim=1, hidden_dims=(1,), dropout_rate=0.0)
        # huge positive weights saturate the sigmoid; clamp keeps it inside (0,1)
        values = np.array([50.0, 50.0, 50.0, 50.0])
        params = maml.ModelParams(values, arch)
        probs = maml.forward(params, np.array([[100.0]]))
        assert probs[0] == 1.0 - 1e-7

    def test_dimension_mismatch(self):
        arch = maml.MlpArchitecture(input_dim=3, hidden_dims=(2,))
        params = maml.init_params(arch, 0)
        with pytest.raises(ValidationError, match=re.escape(
                "expected 3 input columns and leading shape (), got shape (2, 5)")):
            maml.forward(params, np.zeros((2, 5)))


class TestBceLoss:
    def test_all_half_is_ln2(self):
        assert maml.bce_loss([0.5, 0.5], [1, 0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_computed(self):
        assert maml.bce_loss([0.9, 0.1], [1, 0]) == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_perfect_after_clamp_below_threshold(self):
        eps = maml.PROB_EPS
        loss = maml.bce_loss([1.0 - eps, eps], [1, 0])
        assert loss < 1e-5

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match=re.escape("(1,) probs vs (2,) labels")):
            maml.bce_loss([0.5], [1, 0])

    # 8 and 9 rows sit either side of numpy's unrolled sum, 5000 past its
    # pairwise block
    @pytest.mark.parametrize("n", [1, 8, 9, 50, 5000])
    def test_stack_matches_per_episode(self, n):
        rng = np.random.default_rng(n)
        probs = np.clip(rng.random((3, n)), maml.PROB_EPS, 1.0 - maml.PROB_EPS)
        labels = rng.integers(0, 2, (3, n))
        losses = maml.bce_loss(probs, labels)
        per_episode = np.array([maml.bce_loss(p, y) for p, y in zip(probs, labels)])
        # one episode's rows reduced the way the loss was computed before stacks
        alone = np.array([-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
                          for p, y in zip(probs, labels.astype(np.float64))])
        assert losses.shape == (3,)
        assert losses.tobytes() == per_episode.tobytes() == alone.tobytes()


class TestBackward:
    def test_matches_finite_differences_many_architectures(self):
        # acceptance-grade check: >= 100 random small configurations
        checked = 0
        for seed in range(100):
            with_dropout = seed % 3 == 0
            arch, params, X, y, dropout_seed = smooth_instance(seed, with_dropout)
            mask = one_mask(arch, X.shape[0], (dropout_seed,)) if with_dropout else None
            analytic = maml.backward(params, X, y, mask)
            numeric = fd_gradient(params.values, arch, X, y, mask=mask)
            rel = np.abs(analytic - numeric) / (np.maximum(np.abs(analytic), np.abs(numeric)) + 1e-8)
            assert float(rel.max()) < 1e-4, f"seed {seed}: rel err {rel.max():.2e}"
            checked += 1
        assert checked >= 100

    def test_zero_weights_zero_inputs_bias_gradient(self):
        arch = maml.MlpArchitecture(input_dim=3, hidden_dims=(4, 2), dropout_rate=0.0)
        params = maml.ModelParams(np.zeros(arch.param_count), arch)
        X = np.zeros((6, 3))
        y = np.array([1, 1, 0, 1, 0, 0])
        grad = maml.backward(params, X, y)
        # only the output bias moves: d(loss)/db_out = mean(0.5 - y)
        expected_bias = float(np.mean(0.5 - y))
        assert grad[-1] == pytest.approx(expected_bias, abs=1e-12)
        assert np.all(grad[:-1] == 0.0)

    def test_duplicated_sample_mean_invariance(self):
        arch, params, X, y, _ = smooth_instance(7)
        single = maml.backward(params, X[:1], y[:1])
        tripled = maml.backward(params, np.repeat(X[:1], 3, axis=0), np.repeat(y[:1], 3))
        np.testing.assert_allclose(tripled, single, atol=1e-12)

    def test_gradient_finite_at_clamp(self):
        arch = maml.MlpArchitecture(input_dim=1, hidden_dims=(1,), dropout_rate=0.0)
        params = maml.ModelParams(np.array([50.0, 50.0, 50.0, 50.0]), arch)
        grad = maml.backward(params, np.array([[100.0]]), np.array([0]))
        assert np.all(np.isfinite(grad))


class TestInnerAdapt:
    def test_alpha_zero_is_identity(self):
        arch, params, X, y, _ = smooth_instance(11)
        adapted = adapt(params, X, y, alpha=0.0, inner_steps=3)
        np.testing.assert_array_equal(adapted.values, params.values)

    def test_single_step_matches_fd_composition(self):
        arch, params, X, y, _ = smooth_instance(12)
        alpha = 0.05
        adapted = adapt(params, X, y, alpha, inner_steps=1)
        g_fd = fd_gradient(params.values, arch, X, y)
        np.testing.assert_allclose(adapted.values, params.values - alpha * g_fd, atol=1e-7)

    def test_descent_on_support(self):
        pool = random_pool(60, 4, seed=13)
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(8, 4), dropout_rate=0.0)
        params = maml.init_params(arch, 5)
        before = maml.bce_loss(maml.forward(params, pool.features), pool.labels)
        adapted = adapt(params, pool.features, pool.labels, alpha=1e-4, inner_steps=1)
        after = maml.bce_loss(maml.forward(adapted, pool.features), pool.labels)
        assert after <= before

    def test_input_params_not_mutated(self):
        arch, params, X, y, _ = smooth_instance(14)
        snapshot = params.values.tobytes()
        adapt(params, X, y, alpha=0.1, inner_steps=2)
        assert params.values.tobytes() == snapshot


class TestSampleTask:
    CFG = maml.MamlConfig(samples_per_task=20, support_size=10, query_size=10)

    def test_disjoint_support_query(self):
        pool = random_pool(100, 3, seed=20)
        for task_seed in range(10):
            ep = maml.sample_task(pool, self.CFG, maml._key(task_seed))
            sup = {tuple(row) for row in pool.features[ep.support]}
            qry = {tuple(row) for row in pool.features[ep.query]}
            assert not (sup & qry)
            assert ep.support.size == 10 and ep.query.size == 10

    def test_stratification_within_one(self):
        pool = random_pool(200, 2, seed=21, balance=0.5)
        ratio = pool.labels.mean()
        ep = maml.sample_task(pool, self.CFG, maml._key(3))
        expected = 10 * ratio
        assert abs(int(pool.labels[ep.support].sum()) - expected) <= 1.5
        assert abs(int(pool.labels[ep.query].sum()) - expected) <= 1.5

    def test_deterministic(self):
        pool = random_pool(80, 3, seed=22)
        a = maml.sample_task(pool, self.CFG, maml._key(9))
        b = maml.sample_task(pool, self.CFG, maml._key(9))
        np.testing.assert_array_equal(pool.features[a.support], pool.features[b.support])
        np.testing.assert_array_equal(pool.features[a.query], pool.features[b.query])

    def test_pool_too_small(self):
        pool = random_pool(10, 2, seed=23)
        with pytest.raises(ValidationError,
                           match=f"pool has 10 rows, task needs {self.CFG.samples_per_task}"):
            maml.sample_task(pool, self.CFG, maml._key(0))

    def test_single_class_pool(self):
        pool = make_ds(np.random.default_rng(24).random((30, 2)), np.ones(30, dtype=int))
        with pytest.raises(ValidationError,
                           match="episode sampling needs both classes in the pool"):
            maml.sample_task(pool, self.CFG, maml._key(0))

    # a 200-row pool's classes take a tenth of their rows, often beyond
    # twice the expected bound of their keys; a 5000-row pool's take under
    # one percent, nearly always from the keys below that bound (dataset._smallest)
    @pytest.mark.parametrize("n", [200, 5000])
    def test_row_inclusion_uniform(self, n):
        episodes = 4000
        labels = (np.random.default_rng(25).random(n) < 0.3).astype(int)
        labels[:2] = [0, 1]
        pool = make_ds(np.arange(n, dtype=float)[:, None], labels)
        task_hits = np.zeros(n)
        support_hits = np.zeros(n)
        for j in range(episodes):
            ep = maml.sample_task(pool, self.CFG, maml._key(5, maml._STREAM_TASK, 0, j))
            support = pool.features[ep.support, 0].astype(int)
            query = pool.features[ep.query, 0].astype(int)
            assert np.unique(np.concatenate([support, query])).size == 20
            support_hits[support] += 1
            task_hits[support] += 1
            task_hits[query] += 1
        for cls in (0, 1):
            rows = np.flatnonzero(labels == cls)
            k_support = int(np.sum(pool.labels[ep.support] == cls))
            k_task = k_support + int(np.sum(pool.labels[ep.query] == cls))
            for hits, k in ((task_hits, k_task), (support_hits, k_support)):
                # every episode takes k of the class's rows
                assert hits[rows].sum() == episodes * k
                rate = k / rows.size
                sd = math.sqrt(episodes * rate * (1.0 - rate))
                assert np.abs(hits[rows] - episodes * rate).max() <= 5 * sd, (cls, k)

    @pytest.mark.parametrize("cfg", [
        maml.MamlConfig(samples_per_task=20, support_size=10, query_size=10),
        maml.MamlConfig(samples_per_task=30, support_size=7, query_size=12),
        maml.MamlConfig(samples_per_task=90, support_size=45, query_size=44),
    ], ids=["20-10-10", "30-7-12", "90-45-44"])
    @pytest.mark.parametrize("balance", [0.05, 0.3, 0.5, 0.9])
    def test_picks_distinct_in_range_and_split_as_stratified_take(self, cfg, balance):
        pool = random_pool(97, 2, seed=int(100 * balance), balance=balance)
        pos, neg = int(pool.labels.sum()), pool.n - int(pool.labels.sum())
        task_pos, task_neg = maml._stratified_take(pos, neg, cfg.samples_per_task)
        sup_pos, sup_neg = maml._stratified_take(task_pos, task_neg, cfg.support_size)
        qry_pos, _ = maml._stratified_take(task_pos - sup_pos, task_neg - sup_neg,
                                           cfg.query_size)
        for j in range(40):
            ep = maml.sample_task(pool, cfg, maml._key(31, j), task_index=j)
            rows = np.concatenate([ep.support, ep.query])
            assert ep.support.size == cfg.support_size and ep.query.size == cfg.query_size
            assert np.unique(rows).size == rows.size
            assert rows.min() >= 0 and rows.max() < pool.n
            assert int(pool.labels[ep.support].sum()) == sup_pos
            assert int(pool.labels[ep.query].sum()) == qry_pos

    def test_per_row_inclusion_within_chi_square(self):
        # 220 negatives and 80 positives: within a class, each row joins
        # about as many tasks, supports and queries as any other
        labels = np.array([0] * 220 + [1] * 80)
        pool = make_ds(np.arange(300.0)[:, None], labels)
        cfg = maml.MamlConfig(samples_per_task=30, support_size=10, query_size=10)
        trials = 3000
        hits = {name: np.zeros(300) for name in ("support", "query")}
        for j in range(trials):
            ep = maml.sample_task(pool, cfg, maml._key(41, maml._STREAM_TASK, 0, j))
            hits["support"][ep.support] += 1
            hits["query"][ep.query] += 1
        hits["task"] = hits["support"] + hits["query"]
        for name, counts in hits.items():
            for cls in (0, 1):
                rows = np.flatnonzero(labels == cls)
                k = int(counts[rows].sum()) // trials
                assert counts[rows].sum() == trials * k
                stat, low, high = inclusion_chi_square(counts[rows], trials, k)
                assert low <= stat <= high, (name, cls, stat)

    @pytest.mark.parametrize("rare", [0, 1])
    def test_rare_class_kept_in_every_task(self, rare):
        # one row of 100 holds the rare class: a proportional share of a
        # 20-row task rounds to 0 rows (or 20 of the common class), so the
        # take keeps one row of each class
        pos, neg = (1, 99) if rare else (99, 1)
        assert maml._stratified_take(pos, neg, 20) == ((1, 19) if rare else (19, 1))
        labels = np.full(100, 1 - rare)
        labels[37] = rare
        pool = make_ds(np.arange(100.0)[:, None], labels)
        for task_seed in range(5):
            ep = maml.sample_task(pool, self.CFG, maml._key(task_seed))
            rows = np.concatenate([ep.support, ep.query])
            assert rows.size == 20 and 37 in rows

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            maml.MamlConfig(samples_per_task=10, support_size=6, query_size=6)
        for key in ("alpha", "beta"):
            for value in (-1.0, math.nan, math.inf):
                with pytest.raises(ValidationError, match=f"{key} must be finite"):
                    maml.MamlConfig(**{key: value})


def episode_pool(Xs, ys, Xq, yq, task_index=0):
    """A pool of the support rows followed by the query rows, and the
    Episode that indexes them."""
    pool = make_ds(np.concatenate([Xs, Xq]), np.concatenate([ys, yq]))
    n_support = len(ys)
    episode = maml.Episode(np.arange(n_support), np.arange(n_support, pool.n), task_index)
    return pool, episode


def manual_episode(seed, n_support=6, n_query=6, m=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n_support + n_query, m))
    y = rng.integers(0, 2, n_support + n_query)
    y[:2] = [0, 1]
    return episode_pool(X[:n_support], y[:n_support], X[n_support:], y[n_support:])


def reference_descend(theta, X, y, alpha, inner_steps, dropout_key):
    """The per-episode inner loop from before episodes were stacked."""
    path = [theta.values]
    masks = []
    for step in range(inner_steps):
        mask = None
        if dropout_key is not None and theta.arch.dropout_rate > 0.0:
            mask = reference_mask(theta.arch, X.shape[0], dropout_key, step)
        params = maml.ModelParams(path[-1], theta.arch)
        grad = maml.backward(params, X, y, mask)
        masks.append(mask)
        path.append(path[-1] - alpha * grad)
    return path, masks


def reference_meta_batch(theta, pool, episodes, cfg):
    """The per-episode meta-batch from before episodes were stacked: adapt,
    score and differentiate one episode at a time on 2-D arrays, then reduce
    in episode order from zeros."""
    arch = theta.arch
    meta_grad = np.zeros_like(theta.values)
    meta_loss = 0.0
    correct = 0
    total = 0
    clamped = 0
    for ep in episodes:
        Xs, ys = pool.features[ep.support], pool.labels[ep.support]
        Xq, yq = pool.features[ep.query], pool.labels[ep.query]
        dropout_key = (cfg.seed, maml._STREAM_DROPOUT, maml._STREAM_TASK, ep.task_index)
        path, masks = reference_descend(theta, Xs, ys, cfg.alpha, cfg.inner_steps, dropout_key)
        adapted = maml.ModelParams(path[-1], arch)
        probs = maml.forward(adapted, Xq)
        grad = maml.backward(adapted, Xq, yq)
        if not cfg.first_order:
            for step in range(cfg.inner_steps - 1, -1, -1):
                # _hvp on one episode's 2-D arrays; TestHvp checks _hvp itself
                grad = grad - cfg.alpha * maml._hvp(
                    maml.ModelParams(path[step], arch), Xs, ys, masks[step], grad,
                )
        meta_grad += grad
        meta_loss += maml.bce_loss(probs, yq)
        correct += int(np.sum((probs >= 0.5) == (yq == 1)))
        total += probs.shape[0]
        clamped += int(np.isin(probs, [maml.PROB_EPS, 1.0 - maml.PROB_EPS]).sum())
    t = len(episodes)
    return meta_grad / t, meta_loss / t, correct / total, clamped


class TestMetaStep:
    def no_dropout_arch(self, m=3, hidden=(4, 2)):
        return maml.MlpArchitecture(input_dim=m, hidden_dims=hidden, dropout_rate=0.0)

    def test_single_task_first_order_reduction(self):
        pool, ep = manual_episode(31)
        dropout_arch = maml.MlpArchitecture(input_dim=3, hidden_dims=(4, 2), dropout_rate=0.3)
        cases = [(self.no_dropout_arch(), 1), (dropout_arch, 1), (dropout_arch, 2)]
        for arch, inner_steps in cases:
            cfg = maml.MamlConfig(
                alpha=0.05, samples_per_task=12, support_size=6, query_size=6,
                first_order=True, inner_steps=inner_steps,
            )
            theta = maml.init_params(arch, 30)
            meta_grad = maml._meta_batch(theta, pool, [ep], cfg)[0]
            # the training path's dropout key for this episode
            dropout_key = (cfg.seed, maml._STREAM_DROPOUT, maml._STREAM_TASK, ep.task_index)
            Xs, ys = pool.features[ep.support], pool.labels[ep.support]
            adapted = adapt(theta, Xs, ys, cfg.alpha, cfg.inner_steps, dropout_key)
            expected = maml.backward(adapted, pool.features[ep.query], pool.labels[ep.query])
            np.testing.assert_array_equal(meta_grad, expected)

    def test_alpha_zero_reduces_to_pooled_query_gradient(self):
        arch = self.no_dropout_arch()
        theta = maml.init_params(arch, 32)
        (pool_a, ep_a), (pool_b, ep_b) = manual_episode(33), manual_episode(34)
        # one pool of both episodes' rows, the second episode's indices shifted
        pool = make_ds(np.concatenate([pool_a.features, pool_b.features]),
                       np.concatenate([pool_a.labels, pool_b.labels]))
        shifted = maml.Episode(ep_b.support + pool_a.n, ep_b.query + pool_a.n, 1)
        cfg = maml.MamlConfig(
            alpha=0.0, samples_per_task=12, support_size=6, query_size=6, first_order=True
        )
        meta_grad = maml._meta_batch(theta, pool, [ep_a, shifted], cfg)[0]
        expected = np.mean(
            [maml.backward(theta, p.features[e.query], p.labels[e.query])
             for p, e in ((pool_a, ep_a), (pool_b, ep_b))], axis=0
        )
        np.testing.assert_allclose(meta_grad, expected, atol=1e-15)

    def test_beta_zero_leaves_theta_unchanged(self):
        arch = self.no_dropout_arch()
        theta = maml.init_params(arch, 35)
        cfg = maml.MamlConfig(
            alpha=0.01, beta=0.0, outer_iterations=2, samples_per_task=12, support_size=6,
            query_size=6,
        )
        new_theta, log = maml.meta_train(random_pool(40, 3, seed=36), cfg, initial=theta)
        assert log.iterations == [0, 1]
        np.testing.assert_array_equal(new_theta.values, theta.values)

    def test_second_order_matches_bilevel_finite_differences(self):
        # <= 10-parameter model, 1 inner step, FD through the composed objective
        arch = maml.MlpArchitecture(input_dim=1, hidden_dims=(2,), dropout_rate=0.0)
        assert arch.param_count <= 10
        alpha = 0.1
        cfg = maml.MamlConfig(
            alpha=alpha,
            samples_per_task=12,
            support_size=6,
            query_size=6,
            inner_steps=1,
            first_order=False,
        )
        rng = np.random.default_rng(40)
        theta = maml.ModelParams(rng.normal(0, 0.8, arch.param_count), arch)
        Xs = rng.normal(0, 1.2, (6, 1))
        ys = rng.integers(0, 2, 6)
        Xq = rng.normal(0, 1.2, (6, 1))
        yq = rng.integers(0, 2, 6)
        ys[:2] = [0, 1]
        yq[:2] = [0, 1]
        pool, ep = episode_pool(Xs, ys, Xq, yq)

        def composed(values):
            adapted = adapt(maml.ModelParams(values, arch), Xs, ys, alpha, 1)
            return maml.bce_loss(maml.forward(adapted, Xq), yq)

        step = 1e-5
        fd = np.zeros(arch.param_count)
        for i in range(arch.param_count):
            up = theta.values.copy()
            up[i] += step
            down = theta.values.copy()
            down[i] -= step
            fd[i] = (composed(up) - composed(down)) / (2 * step)

        meta_grad = maml._meta_batch(theta, pool, [ep], cfg)[0]
        rel = np.abs(meta_grad - fd) / (np.maximum(np.abs(meta_grad), np.abs(fd)) + 1e-8)
        assert float(rel.max()) < 1e-3

    def test_first_and_second_order_converge_as_alpha_shrinks(self):
        arch = self.no_dropout_arch()
        theta = maml.init_params(arch, 41)
        pool, ep = manual_episode(42)
        diffs = []
        for alpha in (1e-3, 1e-4, 1e-5):
            grads = {}
            for first in (True, False):
                cfg = maml.MamlConfig(
                    alpha=alpha,
                    samples_per_task=12,
                    support_size=6,
                    query_size=6,
                    first_order=first,
                )
                grads[first] = maml._meta_batch(theta, pool, [ep], cfg)[0]
            diffs.append(float(np.linalg.norm(grads[True] - grads[False])))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_theta_not_mutated(self):
        arch = self.no_dropout_arch()
        theta = maml.init_params(arch, 43)
        snapshot = theta.values.tobytes()
        cfg = maml.MamlConfig(
            outer_iterations=2, samples_per_task=12, support_size=6, query_size=6
        )
        new_theta, _ = maml.meta_train(random_pool(40, 3, seed=44), cfg, initial=theta)
        assert theta.values.tobytes() == snapshot
        assert new_theta.values.tobytes() != snapshot


class TestHvp:
    """_hvp is the exact Hessian-vector product of the support loss."""

    def stack(self, dropout, T=3, n=9):
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(6, 3), dropout_rate=0.3 * dropout)
        rng = np.random.default_rng(130 + dropout)
        values = maml.init_params(arch, 131).values + rng.normal(0, 0.3, (T, arch.param_count))
        X = rng.normal(0, 1.5, (T, n, 4))
        y = rng.integers(0, 2, (T, n))
        keep = maml.dropout_mask(arch, n, [(132, t) for t in range(T)], 0)
        u, v = rng.normal(size=(2, T, arch.param_count))
        return maml.ModelParams(values, arch), X, y, None if keep is None else keep.copy(), u, v

    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    def test_symmetric(self, dropout):
        params, X, y, keep, u, v = self.stack(dropout)
        uHv = np.einsum("tp,tp->t", u, maml._hvp(params, X, y, keep, v))
        vHu = np.einsum("tp,tp->t", v, maml._hvp(params, X, y, keep, u))
        assert np.all(np.abs(uHv - vHu) <= 1e-13 * np.abs(uHv)), (uHv, vHu)

    def test_matches_finite_difference_hessian(self):
        # the Hessian column by column, by central differences of backward,
        # at the smooth instances TestBackward checks the gradient on
        step = 1e-5
        for seed in range(100):
            with_dropout = seed % 3 == 0
            arch, params, X, y, dropout_seed = smooth_instance(seed, with_dropout)
            mask = one_mask(arch, X.shape[0], (dropout_seed,)) if with_dropout else None
            H = np.empty((arch.param_count, arch.param_count))
            for j in range(arch.param_count):
                up = params.values.copy()
                up[j] += step
                down = params.values.copy()
                down[j] -= step
                H[:, j] = (maml.backward(maml.ModelParams(up, arch), X, y, mask)
                           - maml.backward(maml.ModelParams(down, arch), X, y, mask)) / (2 * step)
            vec = np.random.default_rng(seed).normal(size=arch.param_count)
            expected = H @ vec
            err = np.abs(maml._hvp(params, X, y, mask, vec) - expected).max()
            assert err <= 1e-6 * np.abs(expected).max(), f"seed {seed}: {err:.2e}"

    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    def test_zero_vector_gives_exact_zeros(self, dropout):
        params, X, y, keep, u, _ = self.stack(dropout)
        out = maml._hvp(params, X, y, keep, np.zeros_like(u))
        assert out.dtype == np.float64 and out.shape == u.shape
        assert not np.any(out)


ENGINE_POOL = random_pool(200, 4, seed=70)
# 144 cells stack the engine tests' episodes two at a time; 1 << 16 and
# 1 << 30, like the default, put all of them in one stack
STACK_CELLS = (1, 7, 2 * 12 * 6, 1 << 16, 1 << 30)


def engine_cfg(inner_steps=1, first_order=True, **kw):
    # support and query sizes differ, so the stack bound reads the larger
    return maml.MamlConfig(
        alpha=0.05, beta=0.01, samples_per_task=24, support_size=12, query_size=10,
        inner_steps=inner_steps, first_order=first_order, seed=8, **kw,
    )


class TestStackEngine:
    """The stacked engine against the per-episode reference, byte for byte."""

    def arch(self, dropout):
        return maml.MlpArchitecture(input_dim=4, hidden_dims=(6, 3), dropout_rate=0.3 * dropout)

    def episodes(self, cfg, count=5):
        return [maml.sample_task(ENGINE_POOL, cfg, maml._key(100 + j), task_index=j)
                for j in range(count)]

    @pytest.mark.parametrize("cells", STACK_CELLS)
    @pytest.mark.parametrize("inner_steps", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("first_order", [True, False])
    def test_meta_batch_matches_reference(self, monkeypatch, cells, inner_steps, dropout,
                                          first_order):
        cfg = engine_cfg(inner_steps, first_order)
        theta = maml.init_params(self.arch(dropout), 71)
        eps = self.episodes(cfg)
        expected = reference_meta_batch(theta, ENGINE_POOL, eps, cfg)
        monkeypatch.setattr(maml, "_STACK_CELLS", cells)
        grad, loss, accuracy, clamped = maml._meta_batch(theta, ENGINE_POOL, eps, cfg)
        assert grad.tobytes() == expected[0].tobytes()
        assert repr(loss) == repr(expected[1])
        assert repr(accuracy) == repr(expected[2])
        assert clamped == expected[3]

    @pytest.mark.parametrize("cells", STACK_CELLS)
    def test_meta_train_matches_reference(self, monkeypatch, cells):
        arch = self.arch(True)
        cfg = engine_cfg(2, False, outer_iterations=4, tasks_per_meta_batch=5)
        monkeypatch.setattr(maml, "_meta_batch", reference_meta_batch)
        ref_theta, ref_log = maml.meta_train(ENGINE_POOL, cfg, arch=arch)
        monkeypatch.undo()
        monkeypatch.setattr(maml, "_STACK_CELLS", cells)
        theta, log = maml.meta_train(ENGINE_POOL, cfg, arch=arch)
        assert theta.values.tobytes() == ref_theta.values.tobytes()
        assert repr(log.meta_loss) == repr(ref_log.meta_loss)
        assert repr(log.query_accuracy) == repr(ref_log.query_accuracy)

    @pytest.mark.parametrize("cells", STACK_CELLS)
    @pytest.mark.parametrize("dropout", [False, True])
    def test_meta_evaluate_matches_reference(self, monkeypatch, cells, dropout):
        cfg = engine_cfg(2)
        theta = maml.init_params(self.arch(dropout), 79)
        expected_probs, expected_labels = [], []
        for j in range(7):
            ep = maml.sample_task(ENGINE_POOL, cfg, maml._key(cfg.seed, maml._STREAM_EVAL, j))
            Xs, ys = ENGINE_POOL.features[ep.support], ENGINE_POOL.labels[ep.support]
            key = (cfg.seed, maml._STREAM_DROPOUT, maml._STREAM_EVAL, j)
            path, _ = reference_descend(theta, Xs, ys, cfg.alpha, cfg.inner_steps, key)
            adapted = maml.ModelParams(path[-1], theta.arch)
            expected_probs.append(maml.forward(adapted, ENGINE_POOL.features[ep.query]))
            expected_labels.append(ENGINE_POOL.labels[ep.query])
        monkeypatch.setattr(maml, "_STACK_CELLS", cells)
        probs, labels = maml.meta_evaluate(theta, ENGINE_POOL, cfg, episodes=7)
        assert probs.tobytes() == np.concatenate(expected_probs).tobytes()
        assert labels.dtype == ENGINE_POOL.labels.dtype
        assert labels.tobytes() == np.concatenate(expected_labels).tobytes()

    # None: no mask, from an architecture without dropout
    @pytest.mark.parametrize("dropout_key", [None, (17,)], ids=["None", "17"])
    def test_inner_adapt_matches_reference(self, dropout_key):
        theta = maml.init_params(self.arch(dropout_key is not None), 72)
        ep = self.episodes(engine_cfg(), 1)[0]
        X, y = ENGINE_POOL.features[ep.support], ENGINE_POOL.labels[ep.support]
        adapted = adapt(theta, X, y, 0.05, 3, dropout_key or (17,))
        path, _ = reference_descend(theta, X, y, 0.05, 3, dropout_key)
        assert adapted.values.tobytes() == path[-1].tobytes()

    def test_stacked_forward_backward_match_per_episode(self):
        arch = self.arch(True)
        rng = np.random.default_rng(73)
        values = maml.init_params(arch, 74).values + rng.normal(0, 0.1, (3, arch.param_count))
        X = rng.normal(size=(3, 9, 4))
        y = rng.integers(0, 2, (3, 9))
        mask = maml.dropout_mask(arch, 9, [(1,), (2,), (3,)], 0).copy()
        stacked = maml.ModelParams(values, arch)
        probs = maml.forward(stacked, X)
        grads = maml.backward(stacked, X, y, mask)
        assert probs.shape == (3, 9) and grads.shape == (3, arch.param_count)
        for t in range(3):
            assert mask[t].tobytes() == reference_mask(arch, 9, (t + 1,), 0).tobytes()
            single = maml.ModelParams(values[t], arch)
            assert probs[t].tobytes() == maml.forward(single, X[t]).tobytes()
            assert grads[t].tobytes() == maml.backward(single, X[t], y[t], mask[t]).tobytes()

    @pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["single", "T1", "T3"])
    def test_fused_query_pass_matches_forward_then_backward(self, lead):
        arch = self.arch(True)
        rng = np.random.default_rng(75)
        values = maml.init_params(arch, 76).values + rng.normal(0, 0.1, (*lead, arch.param_count))
        X = rng.normal(size=(*lead, 9, 4))
        y = rng.integers(0, 2, (*lead, 9))
        params = maml.ModelParams(values, arch)
        probs, grads = maml.forward(params, X, y)
        assert probs.tobytes() == maml.forward(params, X).tobytes()
        assert grads.tobytes() == maml.backward(params, X, y).tobytes()

    @pytest.mark.parametrize("cells", [1, 1 << 16], ids=["T1", "T5"])
    @pytest.mark.parametrize("first_order", [True, False])
    def test_meta_batch_matches_two_pass_query(self, monkeypatch, cells, first_order):
        cfg = engine_cfg(2, first_order)
        theta = maml.init_params(self.arch(True), 77)
        eps = self.episodes(cfg)
        monkeypatch.setattr(maml, "_STACK_CELLS", cells)
        fused = maml._meta_batch(theta, ENGINE_POOL, eps, cfg)
        real_forward = maml.forward

        def two_pass(params, X, labels=None):
            probs = real_forward(params, X)
            return probs if labels is None else (probs, maml.backward(params, X, labels))

        monkeypatch.setattr(maml, "forward", two_pass)
        expected = maml._meta_batch(theta, ENGINE_POOL, eps, cfg)
        assert fused[0].tobytes() == expected[0].tobytes()
        assert repr(fused[1:]) == repr(expected[1:])

    def test_stack_shape_mismatch_rejected(self):
        arch = self.arch(False)
        stacked = maml.ModelParams(np.zeros((2, arch.param_count)), arch)
        columns = "expected 4 input columns and leading shape (2,), got shape "
        with pytest.raises(ValidationError, match=re.escape(columns + "(3, 5, 4)")):
            maml.forward(stacked, np.zeros((3, 5, 4)))
        with pytest.raises(ValidationError, match=re.escape(columns + "(5, 4)")):
            maml.forward(stacked, np.zeros((5, 4)))
        rows = re.escape("(2, 5) rows vs (2, 4) labels")
        with pytest.raises(ValidationError, match=rows):
            maml.backward(stacked, np.zeros((2, 5, 4)), np.zeros((2, 4)))
        with pytest.raises(ValidationError, match=rows):
            maml.forward(stacked, np.zeros((2, 5, 4)), np.zeros((2, 4)))

    def test_stack_size_bounded_by_cells(self, monkeypatch):
        # 5000 support rows x 64 hidden units exceed the bound on their own
        assert 5000 * 64 > maml._STACK_CELLS
        passes = []
        real_backward, real_forward = maml.backward, maml.forward

        def counting_backward(params, X, labels, dropout_mask=None):
            passes.append(("backward", X.shape[0]))
            return real_backward(params, X, labels, dropout_mask)

        def counting_forward(params, X, labels=None):
            passes.append(("forward", X.shape[0]))
            return real_forward(params, X, labels)

        monkeypatch.setattr(maml, "backward", counting_backward)
        monkeypatch.setattr(maml, "forward", counting_forward)
        theta = maml.init_params(maml.MlpArchitecture(input_dim=4), 78)
        cfg = engine_cfg(tasks_per_meta_batch=4)
        maml._meta_batch(theta, ENGINE_POOL, self.episodes(cfg, 4), cfg)
        # 12 rows x 64 units: one stack of four, a support and a query pass
        assert passes == [("backward", 4), ("forward", 4)]
        passes.clear()
        monkeypatch.setattr(maml, "_STACK_CELLS", 12 * 64)
        maml._meta_batch(theta, ENGINE_POOL, self.episodes(cfg, 4), cfg)
        assert passes == [("backward", 1), ("forward", 1)] * 4


class TestEpisodeStreams:
    """Episode rows and dropout masks are pure functions of their keys."""

    ARCH = maml.MlpArchitecture(input_dim=4, hidden_dims=(6, 3), dropout_rate=0.3)

    def test_meta_batch_repeatable(self):
        cfg = engine_cfg(2, False)
        theta = maml.init_params(self.ARCH, 110)
        eps = [
            maml.sample_task(ENGINE_POOL, cfg, maml._key(cfg.seed, maml._STREAM_TASK, 3, j),
                             task_index=15 + j)
            for j in range(5)
        ]
        first = maml._meta_batch(theta, ENGINE_POOL, eps, cfg)
        second = maml._meta_batch(theta, ENGINE_POOL, eps, cfg)
        assert first[0].tobytes() == second[0].tobytes()
        assert repr(first[1:]) == repr(second[1:])
        # the masks follow the episode: the same rows under another index differ
        moved = [dataclasses.replace(ep, task_index=ep.task_index + 5) for ep in eps]
        assert maml._meta_batch(theta, ENGINE_POOL, moved, cfg)[0].tobytes() != first[0].tobytes()

    def test_streams_distinct(self, monkeypatch):
        keys = []
        real_key = maml._key

        def recording_key(*coords):
            keys.append(real_key(*coords))
            return keys[-1]

        monkeypatch.setattr(maml, "_key", recording_key)
        cfg = engine_cfg(2, outer_iterations=2, tasks_per_meta_batch=3)
        theta, _ = maml.meta_train(ENGINE_POOL, cfg, arch=self.ARCH)
        maml.meta_evaluate(theta, ENGINE_POOL, cfg, episodes=3)
        # init; 6 episodes' rows and 2 masks each; 3 evaluation episodes' the same
        assert len(keys) == 1 + 6 * 3 + 3 * 3
        assert len(set(keys)) == len(keys)

        monkeypatch.undo()
        train = maml.sample_task(ENGINE_POOL, cfg, real_key(cfg.seed, maml._STREAM_TASK, 0, 0))
        evaluation = maml.sample_task(ENGINE_POOL, cfg, real_key(cfg.seed, maml._STREAM_EVAL, 0))
        train_rows = ENGINE_POOL.features[train.support]
        assert train_rows.tobytes() != ENGINE_POOL.features[evaluation.support].tobytes()
        train_mask, eval_mask = (
            one_mask(self.ARCH, 12, (cfg.seed, maml._STREAM_DROPOUT, stream, 0))
            for stream in (maml._STREAM_TASK, maml._STREAM_EVAL)
        )
        assert train_mask.tobytes() != eval_mask.tobytes()

    # MamlConfig.seed may be 2**32 or more, or 2**64 or more (a key value
    # two words long, test_dataset's TestCounterDraws)
    @pytest.mark.parametrize("value", [0, 2**32 - 1, 2**32, 2**40])
    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_key_matches_the_oracle_chain(self, value, kind):
        key = (kind(value), maml._STREAM_DROPOUT, kind(value), 7)
        assert maml._key(*key) == key_of(value, 2, value, 7)

    def test_resumed_run_samples_the_same_episodes(self, monkeypatch):
        drawn = []
        real_sample_task = maml.sample_task
        real_dropout_mask = maml.dropout_mask

        def recording_sample_task(pool, cfg, rng, task_index=0):
            ep = real_sample_task(pool, cfg, rng, task_index)
            drawn.append((task_index, *(a[rows].tobytes() for rows in (ep.support, ep.query)
                                        for a in (pool.features, pool.labels))))
            return ep

        def recording_dropout_mask(arch, n_rows, keys, step):
            mask = real_dropout_mask(arch, n_rows, keys, step)
            drawn.append((keys, step, mask.tobytes()))
            return mask

        monkeypatch.setattr(maml, "sample_task", recording_sample_task)
        monkeypatch.setattr(maml, "dropout_mask", recording_dropout_mask)
        cfg = engine_cfg(2, outer_iterations=8, tasks_per_meta_batch=3)
        maml.meta_train(ENGINE_POOL, cfg, arch=self.ARCH)
        uninterrupted = drawn[:]
        first_half = dataclasses.replace(cfg, outer_iterations=4)
        theta, _ = maml.meta_train(ENGINE_POOL, first_half, arch=self.ARCH)
        drawn.clear()
        maml.meta_train(ENGINE_POOL, first_half, arch=self.ARCH, initial=theta, start_iteration=4)
        # per iteration: 3 episodes, then 2 steps' masks for the stack of all 3
        assert len(uninterrupted) == 8 * (3 + 2)
        assert drawn == uninterrupted[4 * (3 + 2):]


class TestScratchReuse:
    """Passes write their activations into scratch kept between calls; every
    array a caller keeps must stay as it was when later passes reuse it."""

    ARCH = maml.MlpArchitecture(input_dim=5, hidden_dims=(8, 4), dropout_rate=0.25)

    def stack(self, seed, T, n):
        rng = np.random.default_rng(seed)
        noise = rng.normal(0, 0.1, (T, self.ARCH.param_count))
        values = maml.init_params(self.ARCH, 90).values + noise
        X = rng.normal(size=(T, n, 5))
        y = rng.integers(0, 2, (T, n))
        mask = maml.dropout_mask(self.ARCH, n, [(seed + t,) for t in range(T)], 0).copy()
        return maml.ModelParams(values, self.ARCH), X, y, mask

    def results(self, seed, T, n):
        params, X, y, mask = self.stack(seed, T, n)
        single = maml.ModelParams(params.values[0], self.ARCH)
        cfg = maml.MamlConfig(alpha=0.1, samples_per_task=n, support_size=n // 2,
                              query_size=n - n // 2, inner_steps=2, seed=seed)
        probs, labels = maml.meta_evaluate(single, random_pool(4 * n, 5, seed), cfg, episodes=T)
        return {
            "forward": maml.forward(params, X),
            "backward": maml.backward(params, X, y, mask),
            "_forward_pass": maml._forward_pass(params, X, mask)[3],
            "inner_adapt": adapt(single, X[0], y[0], 0.1, 2, (seed,)).values,
            "meta_evaluate probs": probs,
            "meta_evaluate labels": labels,
        }

    def test_kept_results_survive_later_passes(self):
        kept = self.results(91, 4, 30)
        snapshot = {name: value.copy() for name, value in kept.items()}
        # the same shape, a remainder stack of two, more rows, fewer rows
        for seed, T, n in ((92, 4, 30), (93, 2, 30), (94, 4, 50), (95, 1, 7)):
            self.results(seed, T, n)
            for name, value in kept.items():
                assert value.tobytes() == snapshot[name].tobytes(), (name, T, n)

    def test_second_order_meta_batch_with_a_remainder_stack(self, monkeypatch):
        # six episodes four to a stack: a stack of four, then one of two
        cfg = engine_cfg(2, False)
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(6, 3), dropout_rate=0.3)
        theta = maml.init_params(arch, 96)
        eps = [maml.sample_task(ENGINE_POOL, cfg, maml._key(200 + j), task_index=j)
               for j in range(6)]
        expected = reference_meta_batch(theta, ENGINE_POOL, eps, cfg)
        monkeypatch.setattr(maml, "_STACK_CELLS", 4 * 12 * 6)
        grad, *rest = maml._meta_batch(theta, ENGINE_POOL, eps, cfg)
        assert grad.tobytes() == expected[0].tobytes()
        assert repr(tuple(rest)) == repr(expected[1:])

    def test_backward_allocates_less_than_one_activation(self):
        # at 2000 rows each hidden activation of the default architecture is
        # 2000 x 64 float64 (1000 KB); a pass that allocated them afresh
        # would peak at several of them
        n = 2000
        arch = maml.MlpArchitecture(input_dim=40)
        params = maml.init_params(arch, 97)
        rng = np.random.default_rng(98)
        X = rng.normal(size=(n, 40))
        y = rng.integers(0, 2, n)
        mask = one_mask(arch, n, (99,))
        maml.backward(params, X, y, mask)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            maml.backward(params, X, y, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - baseline < n * arch.hidden_dims[0] * 8


def two_buffer_pass(params, X, y, keep):
    """The pass as it was before activations became deltas: a buffer per
    pre-activation, activation and delta, a float64 inverted-scaling mask
    and a gradient concatenated from its parts; the oracle for the bytes of
    the one-buffer pass. Returns the clamped probs and the gradient."""
    mask = None if keep is None else keep / (1.0 - params.arch.dropout_rate)
    layers = params.layers()
    inputs, pre = [X], []
    a = X
    for i, (W, b) in enumerate(layers[:-1]):
        z = np.matmul(a, W)
        np.add(z, b[..., None, :], out=z)
        pre.append(z)
        a = np.maximum(z, 0.0)
        if i == 0 and mask is not None:
            a = a * mask
        inputs.append(a)
    W_out, b_out = layers[-1]
    p_raw = maml._sigmoid((a @ W_out + b_out[..., None, :])[..., 0])
    p = np.clip(p_raw, maml.PROB_EPS, 1.0 - maml.PROB_EPS)
    interior = (p_raw > maml.PROB_EPS) & (p_raw < 1.0 - maml.PROB_EPS)
    d = (np.where(interior, p - y, 0.0) / X.shape[-2])[..., None]
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = (np.swapaxes(inputs[i], -1, -2) @ d, d.sum(axis=-2))
        if i == 0:
            break
        d = d @ np.swapaxes(layers[i][0], -1, -2)
        if i == 1 and mask is not None:
            d = d * mask
        d = d * (pre[i - 1] > 0.0).astype(np.float64)
    lead = X.shape[:-2]
    return p, np.concatenate(
        [part for gw, gb in grads for part in (gw.reshape(*lead, -1), gb)], axis=-1
    )


class TestOneBufferPass:
    """A pass holds one float64 buffer per hidden layer, whose activations
    its deltas overwrite, and bool keep masks; its bytes are the two-buffer
    pass's."""

    @pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no-dropout", "dropout"])
    @pytest.mark.parametrize("lead,n", [((), 7), ((1,), 5000), ((3,), 9)],
                             ids=["single", "T1-5000", "T3"])
    def test_matches_two_buffer_oracle(self, rate, lead, n):
        arch = maml.MlpArchitecture(input_dim=5, hidden_dims=(8, 4, 3), dropout_rate=rate)
        rng = np.random.default_rng(n + len(lead))
        values = maml.init_params(arch, 120).values + rng.normal(0, 0.3, (*lead, arch.param_count))
        params = maml.ModelParams(values, arch)
        X = rng.normal(0, 2, (*lead, n, 5))
        y = rng.integers(0, 2, (*lead, n)).astype(np.float64)
        keep = None
        if rate:
            T = lead[0] if lead else 1
            keep = maml.dropout_mask(arch, n, [(121, t) for t in range(T)], 0).copy()
            keep = keep.reshape(*lead, n, 8)
        # row 0 drives unit 0 of the first layer to +inf, which row 0 keeps;
        # row 1 drives it to +inf under a zero keep; row 2 holds a NaN
        W0 = params.layers()[0][0]
        X[..., :2, :] = 0.0
        X[..., :2, 0] = np.inf * np.sign(W0[..., 0, :1])
        assert np.all(np.isposinf((X[..., :2, :] @ W0)[..., 0]))
        X[..., 2, 1] = np.nan
        if keep is not None:
            keep[..., 0, 0] = True
            keep[..., 1, 0] = False
        with np.errstate(over="ignore", invalid="ignore"):
            expected_p, expected_grad = two_buffer_pass(params, X, y, keep)
            oracle_p, oracle_grad = two_buffer_pass(params, X, y, None)
            probs, grad = maml.forward(params, X, y)
            assert probs.tobytes() == oracle_p.tobytes()
            assert grad.tobytes() == oracle_grad.tobytes()
            assert maml.forward(params, X).tobytes() == oracle_p.tobytes()
            assert maml.backward(params, X, y, keep).tobytes() == expected_grad.tobytes()
            assert maml._forward_pass(params, X, keep)[3].tobytes() == expected_p.tobytes()

    def test_rejects_a_float_mask(self):
        arch = maml.MlpArchitecture(input_dim=3, hidden_dims=(4,), dropout_rate=0.5)
        X, y = np.zeros((2, 3)), np.array([0, 1])
        keep = one_mask(arch, 2, (1,))
        with pytest.raises(ValidationError, match="bool keep mask"):
            maml.backward(maml.init_params(arch, 0), X, y, keep / 0.5)

    @pytest.mark.parametrize("size,m", [(20, 4), (5000, 15)], ids=["T4", "paper-tall"])
    def test_scratch_holds_one_buffer_per_hidden_layer(self, monkeypatch, size, m):
        monkeypatch.setattr(maml, "_SCRATCH", {})
        arch = maml.MlpArchitecture(input_dim=m)
        cfg = maml.MamlConfig(samples_per_task=2 * size, support_size=size, query_size=size,
                              tasks_per_meta_batch=4, seed=122)
        pool = random_pool(2 * size + 10, m, seed=123)
        eps = [maml.sample_task(pool, cfg, maml._key(124, j), task_index=j) for j in range(4)]
        maml._meta_batch(maml.init_params(arch, 125), pool, eps, cfg)
        T = min(4, max(1, maml._STACK_CELLS // (size * max(arch.hidden_dims))))
        assert not [tag for tag, _ in maml._SCRATCH if re.fullmatch(r"[zd]\d+", tag)]
        assert {buf.dtype for buf in maml._SCRATCH.values()} == {
            np.dtype(np.float64), np.dtype(bool), np.dtype(np.uint64)}
        float_bytes = sum(buf.nbytes for buf in maml._SCRATCH.values()
                          if buf.dtype == np.float64)
        rows = 2 * T * size * m
        assert float_bytes <= 8 * (rows + T * size * sum(arch.hidden_dims))
        # the dropout draws: one block of rows, hashed at a time
        draws = [(tag, buf.nbytes) for (tag, dtype), buf in maml._SCRATCH.items()
                 if dtype == np.uint64]
        assert [tag for tag, _ in draws] == ["draws"] and draws[0][1] <= 8 * maml._DRAW_CELLS

    def test_first_order_holds_one_keep_buffer(self, monkeypatch):
        monkeypatch.setattr(maml, "_SCRATCH", {})
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(6, 3), dropout_rate=0.3)
        cfg = engine_cfg(3)
        eps = [maml.sample_task(ENGINE_POOL, cfg, maml._key(126, j), task_index=j)
               for j in range(4)]
        maml._meta_batch(maml.init_params(arch, 127), ENGINE_POOL, eps, cfg)
        assert [tag for tag, _ in maml._SCRATCH if tag.startswith("keep")] == ["keep"]

    def test_second_order_keeps_complex_buffers_under_their_own_tags(self, monkeypatch):
        monkeypatch.setattr(maml, "_SCRATCH", {})
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(6, 3), dropout_rate=0.3)
        cfg = engine_cfg(2, False)
        eps = [maml.sample_task(ENGINE_POOL, cfg, maml._key(128, j), task_index=j)
               for j in range(4)]
        maml._meta_batch(maml.init_params(arch, 129), ENGINE_POOL, eps, cfg)
        complex_keys = {key for key, buf in maml._SCRATCH.items() if buf.dtype.kind == "c"}
        assert complex_keys == {("a0", np.dtype(np.complex128)), ("a1", np.dtype(np.complex128))}
        assert ("a0", np.dtype(np.float64)) in maml._SCRATCH
        assert ("a1", np.dtype(np.float64)) in maml._SCRATCH
        assert all(buf.dtype == dtype for (_, dtype), buf in maml._SCRATCH.items())

    def test_scratch_is_in_the_dtype_asked_for(self, monkeypatch):
        monkeypatch.setattr(maml, "_SCRATCH", {})
        wide = maml._scratch("x", (2, 3))
        for dtype in (np.float32, bool, np.complex128, np.float64):
            assert maml._scratch("x", (2, 3), dtype).dtype == dtype
        # a smaller request of the first dtype is a view of the first buffer
        assert np.shares_memory(maml._scratch("x", (5,)), wide)


class TestMetaTrain:
    def small_cfg(self, iters, seed=1):
        return maml.MamlConfig(
            alpha=1e-3,
            beta=1e-2,
            outer_iterations=iters,
            tasks_per_meta_batch=2,
            samples_per_task=30,
            support_size=15,
            query_size=15,
            seed=seed,
        )

    def test_zero_iterations_returns_initial(self):
        pool = random_pool(100, 4, seed=50)
        cfg = self.small_cfg(0)
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(6,), dropout_rate=0.0)
        theta, log = maml.meta_train(pool, cfg, arch=arch)
        np.testing.assert_array_equal(theta.values, maml.init_params(arch, cfg.seed).values)
        assert log.iterations == []

    def test_log_one_entry_per_iteration(self):
        pool = random_pool(120, 3, seed=51)
        theta, log = maml.meta_train(pool, self.small_cfg(7))
        assert log.iterations == list(range(7))
        assert len(log.meta_loss) == len(log.query_accuracy) == len(log.seconds) == 7

    def test_loss_trend_improves(self):
        rng = np.random.default_rng(52)
        X = rng.uniform(0, 1, (400, 5))
        labels = (X[:, 0] + X[:, 1] > 1.0).astype(int)
        pool = make_ds(X, labels)
        cfg = self.small_cfg(60, seed=3)
        _, log = maml.meta_train(
            pool, cfg, arch=maml.MlpArchitecture(input_dim=5, hidden_dims=(16, 8), dropout_rate=0.0)
        )
        first = float(np.median(log.meta_loss[:6]))
        last = float(np.median(log.meta_loss[-6:]))
        assert last < first

    def test_deterministic_across_runs(self):
        pool = random_pool(120, 3, seed=53)
        cfg = self.small_cfg(5, seed=9)
        a, _ = maml.meta_train(pool, cfg)
        b, _ = maml.meta_train(pool, cfg)
        c, _ = maml.meta_train(pool, cfg)
        assert a.values.tobytes() == b.values.tobytes() == c.values.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_naming_the_iteration(self):
        pool = random_pool(120, 4, seed=55)
        cfg = maml.MamlConfig(
            alpha=1e300, outer_iterations=3, tasks_per_meta_batch=2, samples_per_task=30,
            support_size=15, query_size=15,
        )
        with pytest.raises(Diverged, match="iteration 0"):
            maml.meta_train(pool, cfg, arch=maml.MlpArchitecture(4, (8,)))

    @pytest.mark.parametrize("limit, raises", [(0.5, True), (1.0, False)])
    def test_saturation_raises_naming_the_iteration(self, monkeypatch, limit, raises):
        # a finite meta-loss and meta-gradient, every query probability clamped
        pool = random_pool(120, 4, seed=56)
        cfg = maml.MamlConfig(
            alpha=1e6, beta=1e6, outer_iterations=3, tasks_per_meta_batch=2,
            samples_per_task=30, support_size=15, query_size=15,
        )
        arch = maml.MlpArchitecture(4, (8,))
        monkeypatch.setattr(maml, "SATURATION_LIMIT", limit)
        if raises:
            with pytest.raises(Saturated, match="saturated at iteration 7: 30 of 30 query"):
                maml.meta_train(pool, cfg, arch=arch, start_iteration=7)
        else:
            _, log = maml.meta_train(pool, cfg, arch=arch, start_iteration=7)
            assert log.iterations == [7, 8, 9]

    def test_resume_continues_iteration_numbering(self):
        pool = random_pool(120, 3, seed=54)
        cfg = self.small_cfg(4, seed=5)
        theta, log_a = maml.meta_train(pool, cfg)
        _, log_b = maml.meta_train(pool, cfg, initial=theta, start_iteration=4)
        assert log_a.iterations == [0, 1, 2, 3]
        assert log_b.iterations == [4, 5, 6, 7]


class TestMetaEvaluate:
    def test_theta_untouched_and_shapes(self):
        pool = random_pool(90, 3, seed=60)
        cfg = maml.MamlConfig(samples_per_task=30, support_size=15, query_size=15, seed=2)
        arch = maml.MlpArchitecture(input_dim=3, hidden_dims=(5,), dropout_rate=0.2)
        theta = maml.init_params(arch, 1)
        snapshot = theta.values.tobytes()
        probs, labels = maml.meta_evaluate(theta, pool, cfg)
        assert theta.values.tobytes() == snapshot
        assert probs.shape == labels.shape
        assert probs.shape[0] == 3 * cfg.query_size  # ceil(90/30) episodes

    def test_zero_params_alpha_zero_gives_half(self):
        pool = random_pool(60, 2, seed=61)
        cfg = maml.MamlConfig(
            alpha=0.0, samples_per_task=20, support_size=10, query_size=10, seed=3
        )
        arch = maml.MlpArchitecture(input_dim=2, hidden_dims=(4,), dropout_rate=0.0)
        theta = maml.ModelParams(np.zeros(arch.param_count), arch)
        probs, labels = maml.meta_evaluate(theta, pool, cfg)
        np.testing.assert_array_equal(probs, 0.5)

    @pytest.mark.parametrize("episodes", [0, -1])
    def test_episode_count_must_be_positive(self, episodes):
        pool = random_pool(60, 2, seed=61)
        cfg = maml.MamlConfig(samples_per_task=20, support_size=10, query_size=10)
        theta = maml.init_params(maml.MlpArchitecture(input_dim=2, hidden_dims=(4,)), 1)
        with pytest.raises(ValidationError, match=f"episodes must be >= 1, got {episodes}"):
            maml.meta_evaluate(theta, pool, cfg, episodes=episodes)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_naming_the_episode(self):
        # three episodes in one stack: at alpha 1e300 the first two saturate
        # to finite clamped probabilities, the third scores NaN (which episode
        # overflows depends on its draws: this pool is one where the third does)
        pool = random_pool(90, 3, seed=164)
        cfg = maml.MamlConfig(alpha=1e300, samples_per_task=30, support_size=15, query_size=15)
        theta = maml.init_params(maml.MlpArchitecture(input_dim=3, hidden_dims=(5,)), 4)
        with pytest.raises(Diverged, match="diverged at episode 2:"):
            maml.meta_evaluate(theta, pool, cfg)
        # finite, so not diverged, but every probability is clamped
        with pytest.raises(Saturated, match="saturated: 30 of 30 query probabilities"):
            maml.meta_evaluate(theta, pool, cfg, episodes=2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("limit, raises", [(29 / 30, True), (1.0, False)])
    def test_saturation_limit_is_a_strict_fraction(self, monkeypatch, limit, raises):
        # two episodes of 15 query rows, all 30 probabilities clamped
        pool = random_pool(90, 3, seed=62)
        cfg = maml.MamlConfig(alpha=1e300, samples_per_task=30, support_size=15, query_size=15)
        theta = maml.init_params(maml.MlpArchitecture(input_dim=3, hidden_dims=(5,)), 4)
        monkeypatch.setattr(maml, "SATURATION_LIMIT", limit)
        if raises:
            with pytest.raises(Saturated):
                maml.meta_evaluate(theta, pool, cfg, episodes=2)
        else:
            probs, _ = maml.meta_evaluate(theta, pool, cfg, episodes=2)
            assert np.all(np.isin(probs, [maml.PROB_EPS, 1.0 - maml.PROB_EPS]))


    def test_a_float32_pool_scores_as_its_float64_copy(self):
        # a test_pool.bin loads as float32; its rows are widened exactly as
        # they are gathered, with no float64 copy of the pool
        wide = random_pool(20000, 10, seed=63)
        narrow = LabeledDataset._wrap(wide.features.astype(np.float32), wide.labels.copy())
        wide = make_ds(narrow.features.astype(np.float64), narrow.labels)
        cfg = maml.MamlConfig(samples_per_task=30, support_size=15, query_size=15, seed=5)
        theta = maml.init_params(maml.MlpArchitecture(input_dim=10, hidden_dims=(5,)), 6)
        expected = maml.meta_evaluate(theta, wide, cfg, episodes=40)
        tracemalloc.start()
        try:
            probs, labels = maml.meta_evaluate(theta, narrow, cfg, episodes=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.tobytes() == expected[0].tobytes()
        assert labels.tobytes() == expected[1].tobytes()
        assert peak <= 0.5 * narrow.features.nbytes


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        arch = maml.MlpArchitecture(input_dim=6, hidden_dims=(5, 3), dropout_rate=0.1)
        params = maml.init_params(arch, 77)
        cfg = maml.MamlConfig(samples_per_task=10, support_size=5, query_size=5, seed=77)
        path = tmp_path / "model.ckpt"
        maml.save_checkpoint(path, params, cfg, iteration=12, train_fraction=0.7)
        loaded, loaded_cfg, iteration, train_fraction = maml.load_checkpoint(path)
        assert iteration == 12
        assert train_fraction == 0.7
        assert loaded.arch == arch
        assert loaded_cfg == cfg
        np.testing.assert_array_equal(
            loaded.values, params.values.astype(np.float32).astype(np.float64)
        )

    def test_write_is_deterministic(self, tmp_path):
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(3,))
        params = maml.init_params(arch, 5)
        cfg = maml.MamlConfig(samples_per_task=10, support_size=5, query_size=5)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        maml.save_checkpoint(a, params, cfg, 3, 0.8)
        maml.save_checkpoint(b, params, cfg, 3, 0.8)
        assert a.read_bytes() == b.read_bytes()
