import math

import numpy as np
import pytest

from melemad import maml
from melemad.dataset import LabeledDataset
from melemad.errors import (
    DimensionMismatch,
    Diverged,
    LengthMismatch,
    PoolTooSmall,
    SingleClassPool,
    ValidationError,
)


def make_ds(features, labels):
    return LabeledDataset(np.asarray(features, dtype=float), np.asarray(labels))


def random_pool(n, m, seed, balance=0.5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, m))
    labels = (rng.random(n) < balance).astype(int)
    labels[:2] = [0, 1]
    return make_ds(X, labels)


def loss_at(values, arch, X, y, training=False, dropout_seed=0):
    params = maml.ModelParams(values, arch)
    return maml.bce_loss(maml.forward(params, X, training, dropout_seed), y)


def fd_gradient(values, arch, X, y, step=1e-5, training=False, dropout_seed=0):
    grad = np.zeros_like(values)
    for i in range(values.shape[0]):
        up = values.copy()
        up[i] += step
        down = values.copy()
        down[i] -= step
        grad[i] = (
            loss_at(up, arch, X, y, training, dropout_seed)
            - loss_at(down, arch, X, y, training, dropout_seed)
        ) / (2 * step)
    return grad


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
        mask = maml.dropout_mask(arch, n, dropout_seed) if with_dropout else None
        inputs, pre, p_raw, _ = maml._forward_pass(params, X, mask)
        min_gap = min(float(np.abs(z).min()) for z in pre)
        clamp_gap = min(float(p_raw.min() - 1e-7), float(1 - 1e-7 - p_raw.max()))
        if min_gap > 1e-3 and clamp_gap > 1e-4:
            return arch, params, X, y, dropout_seed
    raise AssertionError("could not draw a smooth instance")


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


class TestForward:
    def test_zero_params_give_half(self):
        arch = maml.MlpArchitecture(input_dim=3, hidden_dims=(4,), dropout_rate=0.0)
        params = maml.ModelParams(np.zeros(arch.param_count), arch)
        probs = maml.forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_array_equal(probs, 0.5)

    def test_no_dropout_training_equals_inference(self):
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(5, 3), dropout_rate=0.0)
        params = maml.init_params(arch, 2)
        X = np.random.default_rng(1).normal(size=(6, 4))
        np.testing.assert_array_equal(
            maml.forward(params, X, training=True, dropout_seed=7),
            maml.forward(params, X, training=False),
        )

    def test_dropout_changes_training_output_only(self):
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(8, 3), dropout_rate=0.5)
        params = maml.init_params(arch, 3)
        X = np.random.default_rng(2).normal(size=(6, 4))
        infer = maml.forward(params, X, training=False)
        train_a = maml.forward(params, X, training=True, dropout_seed=1)
        train_b = maml.forward(params, X, training=True, dropout_seed=1)
        np.testing.assert_array_equal(train_a, train_b)
        assert not np.array_equal(train_a, infer)

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
        with pytest.raises(DimensionMismatch):
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
        with pytest.raises(LengthMismatch):
            maml.bce_loss([0.5], [1, 0])


class TestBackward:
    def test_matches_finite_differences_many_architectures(self):
        # acceptance-grade check: >= 100 random small configurations
        checked = 0
        for seed in range(100):
            with_dropout = seed % 3 == 0
            arch, params, X, y, dropout_seed = smooth_instance(seed, with_dropout)
            mask = maml.dropout_mask(arch, X.shape[0], dropout_seed) if with_dropout else None
            analytic = maml.backward(params, X, y, mask)
            numeric = fd_gradient(
                params.values, arch, X, y, training=with_dropout, dropout_seed=dropout_seed
            )
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
        support = make_ds(X, y)
        adapted = maml.inner_adapt(params, support, alpha=0.0, inner_steps=3)
        np.testing.assert_array_equal(adapted.values, params.values)

    def test_single_step_matches_fd_composition(self):
        arch, params, X, y, _ = smooth_instance(12)
        support = make_ds(X, y)
        alpha = 0.05
        adapted = maml.inner_adapt(params, support, alpha, inner_steps=1)
        g_fd = fd_gradient(params.values, arch, X, y)
        np.testing.assert_allclose(adapted.values, params.values - alpha * g_fd, atol=1e-7)

    def test_descent_on_support(self):
        pool = random_pool(60, 4, seed=13)
        arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(8, 4), dropout_rate=0.0)
        params = maml.init_params(arch, 5)
        before = maml.bce_loss(maml.forward(params, pool.features), pool.labels)
        adapted = maml.inner_adapt(params, pool, alpha=1e-4, inner_steps=1)
        after = maml.bce_loss(maml.forward(adapted, pool.features), pool.labels)
        assert after <= before

    def test_input_params_not_mutated(self):
        arch, params, X, y, _ = smooth_instance(14)
        snapshot = params.values.tobytes()
        maml.inner_adapt(params, make_ds(X, y), alpha=0.1, inner_steps=2)
        assert params.values.tobytes() == snapshot


class TestSampleTask:
    CFG = maml.MamlConfig(samples_per_task=20, support_size=10, query_size=10)

    def test_disjoint_support_query(self):
        pool = random_pool(100, 3, seed=20)
        for task_seed in range(10):
            ep = maml.sample_task(pool, self.CFG, task_seed)
            sup = {tuple(row) for row in ep.support.features}
            qry = {tuple(row) for row in ep.query.features}
            assert not (sup & qry)
            assert ep.support.n == 10 and ep.query.n == 10

    def test_stratification_within_one(self):
        pool = random_pool(200, 2, seed=21, balance=0.5)
        ratio = pool.labels.mean()
        ep = maml.sample_task(pool, self.CFG, 3)
        expected = 10 * ratio
        assert abs(int(ep.support.labels.sum()) - expected) <= 1.5
        assert abs(int(ep.query.labels.sum()) - expected) <= 1.5

    def test_deterministic(self):
        pool = random_pool(80, 3, seed=22)
        a = maml.sample_task(pool, self.CFG, 9)
        b = maml.sample_task(pool, self.CFG, 9)
        np.testing.assert_array_equal(a.support.features, b.support.features)
        np.testing.assert_array_equal(a.query.features, b.query.features)

    def test_pool_too_small(self):
        pool = random_pool(10, 2, seed=23)
        with pytest.raises(PoolTooSmall):
            maml.sample_task(pool, self.CFG, 0)

    def test_single_class_pool(self):
        pool = make_ds(np.random.default_rng(24).random((30, 2)), np.ones(30, dtype=int))
        with pytest.raises(SingleClassPool):
            maml.sample_task(pool, self.CFG, 0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            maml.MamlConfig(samples_per_task=10, support_size=6, query_size=6)
        with pytest.raises(ValidationError):
            maml.MamlConfig(alpha=-1.0)


def manual_episode(seed, n_support=6, n_query=6, m=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n_support + n_query, m))
    y = rng.integers(0, 2, n_support + n_query)
    y[:2] = [0, 1]
    return maml.Episode(
        support=make_ds(X[:n_support], y[:n_support]),
        query=make_ds(X[n_support:], y[n_support:]),
        task_index=0,
    )


def reference_descend(theta, support, alpha, inner_steps, dropout_seed):
    """The per-episode inner loop from before episodes were stacked."""
    path = [theta.values]
    masks = []
    for step in range(inner_steps):
        mask = None
        if dropout_seed is not None:
            mask = maml.dropout_mask(theta.arch, support.n, int(dropout_seed) + step)
        params = maml.ModelParams(path[-1], theta.arch)
        grad = maml.backward(params, support.features, support.labels, mask)
        masks.append(mask)
        path.append(path[-1] - alpha * grad)
    return path, masks


def reference_hvp(params, X, y, mask, vec):
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return np.zeros_like(vec)
    r = 1e-6 * (1.0 + float(np.abs(params.values).max())) / norm
    g_plus = maml.backward(maml.ModelParams(params.values + r * vec, params.arch), X, y, mask)
    g_minus = maml.backward(maml.ModelParams(params.values - r * vec, params.arch), X, y, mask)
    return (g_plus - g_minus) / (2.0 * r)


def reference_meta_batch(theta, episodes, cfg):
    """The per-episode meta-batch from before episodes were stacked: adapt,
    score and differentiate one episode at a time on 2-D arrays, then reduce
    in episode order from zeros."""
    arch = theta.arch
    meta_grad = np.zeros_like(theta.values)
    meta_loss = 0.0
    correct = 0
    total = 0
    for ep in episodes:
        dropout_seed = None
        if cfg.dropout_in_adapt and arch.dropout_rate > 0.0:
            dropout_seed = int(
                maml._rng(cfg.seed, maml._STREAM_DROPOUT, ep.task_index).integers(0, 2**31)
            )
        path, masks = reference_descend(theta, ep.support, cfg.alpha, cfg.inner_steps, dropout_seed)
        adapted = maml.ModelParams(path[-1], arch)
        probs = maml.forward(adapted, ep.query.features, training=False)
        grad = maml.backward(adapted, ep.query.features, ep.query.labels)
        if not cfg.first_order:
            for step in range(cfg.inner_steps - 1, -1, -1):
                grad = grad - cfg.alpha * reference_hvp(
                    maml.ModelParams(path[step], arch), ep.support.features,
                    ep.support.labels, masks[step], grad,
                )
        meta_grad += grad
        meta_loss += maml.bce_loss(probs, ep.query.labels)
        correct += int(np.sum((probs >= 0.5) == (ep.query.labels == 1)))
        total += probs.shape[0]
    t = len(episodes)
    return meta_grad / t, meta_loss / t, correct / total


class TestMetaStep:
    def no_dropout_arch(self, m=3, hidden=(4, 2)):
        return maml.MlpArchitecture(input_dim=m, hidden_dims=hidden, dropout_rate=0.0)

    def test_single_task_first_order_reduction(self):
        ep = manual_episode(31)
        dropout_arch = maml.MlpArchitecture(input_dim=3, hidden_dims=(4, 2), dropout_rate=0.3)
        cases = [(self.no_dropout_arch(), 1), (dropout_arch, 1), (dropout_arch, 2)]
        for arch, inner_steps in cases:
            cfg = maml.MamlConfig(
                alpha=0.05, samples_per_task=12, support_size=6, query_size=6,
                first_order=True, inner_steps=inner_steps,
            )
            theta = maml.init_params(arch, 30)
            meta_grad = maml._meta_batch(theta, [ep], cfg)[0]
            dropout_seed = None
            if arch.dropout_rate > 0.0:
                # the training path's dropout seed for this episode
                dropout_seed = int(
                    maml._rng(cfg.seed, maml._STREAM_DROPOUT, ep.task_index).integers(0, 2**31)
                )
            adapted = maml.inner_adapt(theta, ep.support, cfg.alpha, cfg.inner_steps, dropout_seed)
            expected = maml.backward(adapted, ep.query.features, ep.query.labels)
            np.testing.assert_array_equal(meta_grad, expected)

    def test_alpha_zero_reduces_to_pooled_query_gradient(self):
        arch = self.no_dropout_arch()
        theta = maml.init_params(arch, 32)
        eps = [manual_episode(33), manual_episode(34)]
        cfg = maml.MamlConfig(
            alpha=0.0, samples_per_task=12, support_size=6, query_size=6, first_order=True
        )
        meta_grad = maml._meta_batch(theta, eps, cfg)[0]
        expected = np.mean(
            [maml.backward(theta, ep.query.features, ep.query.labels) for ep in eps], axis=0
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
        ep = maml.Episode(make_ds(Xs, ys), make_ds(Xq, yq), 0)

        def composed(values):
            inner = maml.ModelParams(values, arch)
            adapted = maml.inner_adapt(inner, ep.support, alpha, 1)
            return maml.bce_loss(maml.forward(adapted, Xq), yq)

        step = 1e-5
        fd = np.zeros(arch.param_count)
        for i in range(arch.param_count):
            up = theta.values.copy()
            up[i] += step
            down = theta.values.copy()
            down[i] -= step
            fd[i] = (composed(up) - composed(down)) / (2 * step)

        meta_grad = maml._meta_batch(theta, [ep], cfg)[0]
        rel = np.abs(meta_grad - fd) / (np.maximum(np.abs(meta_grad), np.abs(fd)) + 1e-8)
        assert float(rel.max()) < 1e-3

    def test_first_and_second_order_converge_as_alpha_shrinks(self):
        arch = self.no_dropout_arch()
        theta = maml.init_params(arch, 41)
        ep = manual_episode(42)
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
                grads[first] = maml._meta_batch(theta, [ep], cfg)[0]
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


ENGINE_POOL = random_pool(200, 4, seed=70)
STACK_CELLS = (1, 7, 2 * 12 * 6, maml._STACK_CELLS, 1 << 30)


def engine_cfg(inner_steps=1, first_order=True, **kw):
    # support and query sizes differ, so the stack bound reads the larger
    return maml.MamlConfig(
        alpha=0.05, beta=0.01, samples_per_task=24, support_size=12, query_size=10,
        inner_steps=inner_steps, first_order=first_order, seed=8, **kw,
    )


class TestStackEngine:
    """The stacked meta-batch against the per-episode reference, byte for byte."""

    def arch(self, dropout):
        return maml.MlpArchitecture(input_dim=4, hidden_dims=(6, 3), dropout_rate=0.3 * dropout)

    def episodes(self, cfg, count=5):
        return [maml.sample_task(ENGINE_POOL, cfg, 100 + j, task_index=j) for j in range(count)]

    @pytest.mark.parametrize("cells", STACK_CELLS)
    @pytest.mark.parametrize("inner_steps", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("first_order", [True, False])
    def test_meta_batch_matches_reference(self, monkeypatch, cells, inner_steps, dropout,
                                          first_order):
        cfg = engine_cfg(inner_steps, first_order)
        theta = maml.init_params(self.arch(dropout), 71)
        eps = self.episodes(cfg)
        expected = reference_meta_batch(theta, eps, cfg)
        monkeypatch.setattr(maml, "_STACK_CELLS", cells)
        grad, loss, accuracy = maml._meta_batch(theta, eps, cfg)
        assert grad.tobytes() == expected[0].tobytes()
        assert repr(loss) == repr(expected[1])
        assert repr(accuracy) == repr(expected[2])

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

    @pytest.mark.parametrize("dropout_seed", [None, 17])
    def test_inner_adapt_matches_reference(self, dropout_seed):
        theta = maml.init_params(self.arch(True), 72)
        support = self.episodes(engine_cfg(), 1)[0].support
        adapted = maml.inner_adapt(theta, support, 0.05, 3, dropout_seed)
        path, _ = reference_descend(theta, support, 0.05, 3, dropout_seed)
        assert adapted.values.tobytes() == path[-1].tobytes()

    def test_stacked_forward_backward_match_per_episode(self):
        arch = self.arch(True)
        rng = np.random.default_rng(73)
        values = maml.init_params(arch, 74).values + rng.normal(0, 0.1, (3, arch.param_count))
        X = rng.normal(size=(3, 9, 4))
        y = rng.integers(0, 2, (3, 9))
        mask = np.stack([maml.dropout_mask(arch, 9, s) for s in (1, 2, 3)])
        stacked = maml.ModelParams(values, arch)
        probs = maml.forward(stacked, X)
        grads = maml.backward(stacked, X, y, mask)
        assert probs.shape == (3, 9) and grads.shape == (3, arch.param_count)
        for t in range(3):
            single = maml.ModelParams(values[t], arch)
            assert probs[t].tobytes() == maml.forward(single, X[t]).tobytes()
            assert grads[t].tobytes() == maml.backward(single, X[t], y[t], mask[t]).tobytes()

    def test_stack_shape_mismatch_rejected(self):
        arch = self.arch(False)
        stacked = maml.ModelParams(np.zeros((2, arch.param_count)), arch)
        with pytest.raises(DimensionMismatch):
            maml.forward(stacked, np.zeros((3, 5, 4)))
        with pytest.raises(DimensionMismatch):
            maml.forward(stacked, np.zeros((5, 4)))
        with pytest.raises(LengthMismatch):
            maml.backward(stacked, np.zeros((2, 5, 4)), np.zeros((2, 4)))

    def test_unequal_episode_sizes_rejected(self):
        theta = maml.init_params(self.arch(False), 75)
        cfg = engine_cfg()
        with pytest.raises(LengthMismatch):
            maml._meta_batch(theta, [manual_episode(76, m=4), manual_episode(77, 5, m=4)], cfg)
        with pytest.raises(LengthMismatch):
            maml._meta_batch(theta, [manual_episode(76, m=4), manual_episode(77, 6, 4, m=4)], cfg)

    def test_stack_size_bounded_by_cells(self, monkeypatch):
        # 5000 support rows x 64 hidden units exceed the bound on their own
        assert 5000 * 64 > maml._STACK_CELLS
        stack_sizes = []
        real_backward = maml.backward

        def counting_backward(params, X, labels, dropout_mask=None):
            stack_sizes.append(X.shape[0])
            return real_backward(params, X, labels, dropout_mask)

        monkeypatch.setattr(maml, "backward", counting_backward)
        theta = maml.init_params(maml.MlpArchitecture(input_dim=4), 78)
        cfg = engine_cfg(tasks_per_meta_batch=4)
        maml._meta_batch(theta, self.episodes(cfg, 4), cfg)
        assert stack_sizes == [4, 4]  # 12 rows x 64 units: one stack of four
        stack_sizes.clear()
        monkeypatch.setattr(maml, "_STACK_CELLS", 12 * 64)
        maml._meta_batch(theta, self.episodes(cfg, 4), cfg)
        assert stack_sizes == [1] * 8


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


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        arch = maml.MlpArchitecture(input_dim=6, hidden_dims=(5, 3), dropout_rate=0.1)
        params = maml.init_params(arch, 77)
        cfg = maml.MamlConfig(samples_per_task=10, support_size=5, query_size=5, seed=77)
        path = tmp_path / "model.ckpt"
        maml.save_checkpoint(path, params, cfg, iteration=12)
        loaded, loaded_cfg, iteration = maml.load_checkpoint(path)
        assert iteration == 12
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
        maml.save_checkpoint(a, params, cfg, 3)
        maml.save_checkpoint(b, params, cfg, 3)
        assert a.read_bytes() == b.read_bytes()
