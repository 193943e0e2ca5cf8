"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Full-corpus results (hundreds of thousands of malware samples) are not
reproducible at desk scale, so criteria 2-10 exercise the pipeline against
independent oracles and structural properties instead; criterion 1 shows the
pipeline runs end-to-end on a stand-in with the same file format a real
feature matrix would use.
"""
import json
import math
import time

import numpy as np
import pytest

from melemad import cfsgb, cli, dataset, gbdt, maml, metrics
from melemad.errors import EmptySelection, ValidationError

from oracles import (brute_scalars, mann_whitney, oracle_split_candidates, pre_activations,
                     smooth_instance)


def ok(n, message):
    print(f"CRITERION {n} PASS: {message}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_end_to_end_on_standin_corpus(tmp_path):
    """Desk-scale stand-in: pre-vectorized CSV -> select -> meta-train ->
    evaluate through the CLI, no code changes."""
    start = time.perf_counter()
    data = tmp_path / "data"
    code = cli.main([
        "synth", "--n", "600", "--m", "40", "--informative", "5",
        "--noise-sigma", "0.0", "--seed", "13", "--format", "csv",
        "--out-dir", str(data),
    ])
    assert code == 0

    cfg = {
        "seed": 13,
        "chunking": {"p": 0.4, "q": 0.2},
        "gbdt": {"n_trees": 15, "max_depth": 2, "min_samples_leaf": 2},
        "selection": {"tau": 0.005},
        "split": {"train_fraction": 0.8},
        "maml": {
            "outer_iterations": 40, "tasks_per_meta_batch": 2,
            "samples_per_task": 60, "support_size": 30, "query_size": 30,
            "alpha": 0.0001, "beta": 0.01,
            "hidden_dims": [16, 8], "dropout_rate": 0.0,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    sel_dir = tmp_path / "sel"
    assert cli.main(["select", "--config", str(cfg_path),
                     "--input", str(data / "synthetic.csv"),
                     "--out-dir", str(sel_dir)]) == 0
    run_dir = tmp_path / "run"
    assert cli.main(["meta-train", "--config", str(cfg_path),
                     "--input", str(sel_dir / "projected.bin"),
                     "--out-dir", str(run_dir)]) == 0
    assert cli.main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                     "--data", str(run_dir / "test_pool.bin"),
                     "--out-dir", str(run_dir)]) == 0

    report = json.loads((run_dir / "metrics_report.json").read_text())
    assert set(report) >= {"accuracy", "precision", "recall", "f1", "mcc", "auc"}
    ok(1, f"pipeline ran end-to-end on a stand-in corpus in "
          f"{time.perf_counter() - start:.1f}s (full-scale corpora substituted)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    instances = 0
    while instances < 1000:
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        probs = rng.random(n)
        if instances % 3 == 0:
            probs = np.round(probs, 1)  # exercise tie grouping
        threshold = float(rng.random())

        cm = metrics.confusion(probs, labels, threshold)
        got = metrics.scalar_metrics(cm)

        tp = sum(1 for p, y in zip(probs, labels) if p >= threshold and y == 1)
        fp = sum(1 for p, y in zip(probs, labels) if p >= threshold and y == 0)
        fn = sum(1 for p, y in zip(probs, labels) if p < threshold and y == 1)
        tn = n - tp - fp - fn
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (tp, tn, fp, fn)
        assert got == brute_scalars(tp, tn, fp, fn)

        auc_value = metrics.auc(metrics.roc_curve(probs, labels))
        assert abs(auc_value - mann_whitney(probs, labels)) < 1e-9
        instances += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(2, f"{instances} instances matched brute-force recount and the pairwise "
          f"AUC statistic in {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_gradient_correctness():
    start = time.perf_counter()
    step = 1e-5
    for seed in range(100):
        with_dropout = seed % 3 == 0
        arch, params, X, y, dropout_seed = smooth_instance(seed, with_dropout)
        mask = maml.dropout_mask(arch, len(X), [(dropout_seed,)], 0)[0] if with_dropout else None
        analytic = maml.backward(params, X, y, mask)

        numeric = np.zeros_like(analytic)
        for i in range(analytic.shape[0]):
            up = params.values.copy()
            up[i] += step
            down = params.values.copy()
            down[i] -= step
            up_p = maml._forward_pass(maml.ModelParams(up, arch), X, mask)[3]
            down_p = maml._forward_pass(maml.ModelParams(down, arch), X, mask)[3]
            numeric[i] = (maml.bce_loss(up_p, y) - maml.bce_loss(down_p, y)) / (2 * step)

        rel = np.abs(analytic - numeric) / (np.maximum(np.abs(analytic), np.abs(numeric)) + 1e-8)
        assert float(rel.max()) < 1e-4, f"seed {seed}: {rel.max():.3e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(3, f"analytic gradients matched central differences on 100 architectures "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_bilevel_gradient_check():
    arch = maml.MlpArchitecture(input_dim=1, hidden_dims=(2,), dropout_rate=0.0)
    assert arch.param_count <= 10
    alpha = 0.1
    cfg = maml.MamlConfig(alpha=alpha, samples_per_task=12, support_size=6,
                          query_size=6, inner_steps=1, first_order=False)
    rng = np.random.default_rng(404)
    theta = maml.ModelParams(rng.normal(0, 0.8, arch.param_count), arch)
    Xs, Xq = rng.normal(0, 1.2, (6, 1)), rng.normal(0, 1.2, (6, 1))
    ys, yq = rng.integers(0, 2, 6), rng.integers(0, 2, 6)
    ys[:2], yq[:2] = [0, 1], [0, 1]
    # one pool of the support rows then the query rows, and their indices
    pool = dataset.LabeledDataset(np.concatenate([Xs, Xq]), np.concatenate([ys, yq]))
    episode = maml.Episode(np.arange(6), np.arange(6, 12), 0)

    def composed(values):
        path = maml.inner_adapt(maml.ModelParams(values[None], arch), Xs[None], ys[None],
                                alpha, 1, [(0,)])
        adapted = maml.ModelParams(path[-1][0], arch)
        return maml.bce_loss(maml.forward(adapted, Xq), yq)

    step = 1e-5
    fd = np.zeros(arch.param_count)
    for i in range(arch.param_count):
        up = theta.values.copy()
        up[i] += step
        down = theta.values.copy()
        down[i] -= step
        fd[i] = (composed(up) - composed(down)) / (2 * step)

    meta_grad = maml._meta_batch(theta, pool, [episode], cfg)[0]
    rel = np.abs(meta_grad - fd) / (np.maximum(np.abs(meta_grad), np.abs(fd)) + 1e-8)
    assert float(rel.max()) < 1e-3
    ok(4, f"second-order meta-gradient matched bilevel finite differences "
          f"(max rel err {rel.max():.2e})")


# ---------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def recovery_instance():
    ds, informative = dataset.synthesize(
        dataset.SyntheticSpec(n=2000, m=200, informative=10, noise_sigma=0.5, seed=7)
    )
    return ds, informative


def test_criterion_05_cfsgb_recovery(recovery_instance):
    ds, informative = recovery_instance
    start = time.perf_counter()
    selected, projected, report = cfsgb.run_cfsgb(
        ds, cfsgb.ChunkSpec(), gbdt.GbdtConfig(), tau=0.005
    )
    elapsed = time.perf_counter() - start
    hits = len(set(informative.tolist()) & set(selected.global_indices.tolist()))
    assert hits >= 9
    assert selected.r < 60
    assert projected.m == selected.r
    assert elapsed < 60.0
    ok(5, f"recovered {hits}/10 planted features, r={selected.r}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_cfsgb_structural_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(606)

    # chunk coverage over randomized (n, p, q) configurations
    coverage_configs = 0
    while coverage_configs < 200:
        n = int(rng.integers(1, 400))
        p = float(rng.uniform(0.02, 1.0))
        q = float(rng.uniform(0.0, 0.95))
        try:
            chunks = cfsgb.make_chunks(n, cfsgb.ChunkSpec(p=p, q=q))
        except ValidationError:
            continue
        cover = np.zeros(n, dtype=bool)
        for c in chunks:
            assert 0 <= c.start < c.stop <= n
            cover[c.start:c.stop] = True
        assert cover.all()
        coverage_configs += 1

    cfg = gbdt.GbdtConfig(n_trees=8, max_depth=2, min_samples_leaf=2)
    model_configs = 0
    for seed in range(12):
        ds, _ = dataset.synthesize(
            dataset.SyntheticSpec(n=int(rng.integers(80, 160)), m=int(rng.integers(4, 9)),
                                  informative=2, noise_sigma=0.3, seed=seed)
        )
        spec = cfsgb.ChunkSpec(p=float(rng.uniform(0.3, 0.8)), q=float(rng.uniform(0.0, 0.5)))
        taus = sorted((float(rng.uniform(0.0, 0.02)), float(rng.uniform(0.02, 0.2))))
        try:
            low_sel, _, _ = cfsgb.run_cfsgb(ds, spec, cfg, taus[0])
        except EmptySelection:
            continue
        # threshold monotonicity and union dominance
        try:
            high_sel, _, _ = cfsgb.run_cfsgb(ds, spec, cfg, taus[1])
            assert set(high_sel.global_indices.tolist()) <= set(low_sel.global_indices.tolist())
        except EmptySelection:
            pass  # empty set is trivially a subset
        union = set(low_sel.global_indices.tolist())
        for chunk_sel in low_sel.per_chunk:
            assert set(chunk_sel.indices.tolist()) <= union
        # single-chunk reduction
        single, _, _ = cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(p=1.0, q=0.0), cfg, taus[0])
        direct = cfsgb.threshold_select(gbdt.feature_importance(gbdt.train(ds, cfg)), taus[0])
        np.testing.assert_array_equal(single.global_indices, direct)
        model_configs += 1

    elapsed = time.perf_counter() - start
    assert coverage_configs + model_configs >= 200
    assert model_configs >= 8
    assert elapsed < 60.0
    ok(6, f"coverage on {coverage_configs} configs; monotonicity/dominance/"
          f"reduction on {model_configs} model-backed configs in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 7

MAML_E2E_CFG = maml.MamlConfig(
    alpha=1e-4, beta=1e-3, outer_iterations=200, tasks_per_meta_batch=4,
    samples_per_task=100, support_size=50, query_size=50, inner_steps=1,
    first_order=True, seed=4,
)


def maml_e2e_pools():
    ds, _ = dataset.synthesize(
        dataset.SyntheticSpec(n=4000, m=20, informative=3, noise_sigma=0.0,
                              class_balance=0.5, seed=11)
    )
    train, test = dataset.stratified_split(ds, dataset.SplitSpec(0.8, 2))
    scaler = dataset.fit_scaler(train)
    return dataset.apply_scaler(train, scaler), dataset.apply_scaler(test, scaler)


def run_maml_e2e():
    train, test = maml_e2e_pools()
    theta, log = maml.meta_train(train, MAML_E2E_CFG, arch=maml.MlpArchitecture(input_dim=20))
    probs, labels = maml.meta_evaluate(theta, test, MAML_E2E_CFG)
    return theta, log, metrics.compute_report(probs, labels)


def test_criterion_07_end_to_end_maml():
    start = time.perf_counter()
    theta, log, report = run_maml_e2e()
    elapsed = time.perf_counter() - start
    assert report.accuracy >= 0.95
    assert report.auc >= 0.99
    assert report.mcc >= 0.90
    assert len(log.iterations) == 200
    assert log.meta_loss[-1] < 0.1
    assert elapsed < 180.0
    ok(7, f"accuracy={report.accuracy:.4f} auc={report.auc:.4f} "
          f"mcc={report.mcc:.4f} in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_determinism_across_runs(tmp_path, recovery_instance):
    ds, _ = recovery_instance

    sel_files = []
    for run_idx in range(2):
        selected, _, _ = cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(), gbdt.GbdtConfig(), tau=0.005)
        path = tmp_path / f"sel_{run_idx}.json"
        cfsgb.save_selection(selected, path)
        sel_files.append(path.read_bytes())
    assert sel_files[0] == sel_files[1]

    ckpt_files = []
    report_files = []
    for run_idx in range(2):
        theta, _, report = run_maml_e2e()
        ckpt = tmp_path / f"model_{run_idx}.ckpt"
        maml.save_checkpoint(ckpt, theta, MAML_E2E_CFG, 200, 0.8)
        ckpt_files.append(ckpt.read_bytes())
        report_files.append(metrics.report_to_json(report).encode())
    assert ckpt_files[0] == ckpt_files[1]
    assert report_files[0] == report_files[1]
    ok(8, "selected-feature files, checkpoints and metric reports byte-identical "
          "across reruns")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_identity_and_degenerate_contracts():
    # alpha = 0 leaves parameters exactly unchanged
    arch = maml.MlpArchitecture(input_dim=4, hidden_dims=(6, 3), dropout_rate=0.0)
    theta = maml.init_params(arch, 9)
    rng = np.random.default_rng(9)
    X, y = rng.normal(size=(12, 4)), rng.integers(0, 2, 12)
    path = maml.inner_adapt(maml.ModelParams(theta.values[None], arch), X[None], y[None],
                            alpha=0.0, inner_steps=4, dropout_keys=[(0,)])
    assert np.array_equal(path[-1][0], theta.values)

    # tau above every importance -> EmptySelection
    ds, _ = dataset.synthesize(dataset.SyntheticSpec(n=150, m=6, informative=2, seed=9))
    with pytest.raises(EmptySelection):
        cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(p=0.5, q=0.0),
                        gbdt.GbdtConfig(n_trees=5, min_samples_leaf=2), tau=1.5)

    # constant labels -> all-zero importance vector
    const = dataset.LabeledDataset(rng.normal(size=(40, 5)), np.zeros(40, dtype=int))
    scores = gbdt.feature_importance(gbdt.train(const, gbdt.GbdtConfig(n_trees=5)))
    assert np.array_equal(scores, np.zeros(5))
    ok(9, "alpha=0 identity, EmptySelection on over-threshold tau, and zero "
          "importance under constant labels all hold exactly")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_gbdt_monotone_loss_and_split_oracle():
    rng = np.random.default_rng(1010)

    for _ in range(100):
        n = int(rng.integers(10, 80))
        m = int(rng.integers(1, 5))
        ds = dataset.LabeledDataset(rng.standard_normal((n, m)), rng.integers(0, 2, n))
        cfg = gbdt.GbdtConfig(
            n_trees=int(rng.integers(2, 15)),
            max_depth=int(rng.integers(1, 4)),
            learning_rate=float(rng.uniform(0.02, 0.5)),
            min_samples_leaf=int(rng.integers(1, 5)),
        )
        losses = gbdt.train(ds, cfg).train_losses
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-12

    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        X = rng.standard_normal((n, m))
        y = rng.integers(0, 2, n)
        min_leaf = int(rng.integers(1, 3))
        model = gbdt.train(
            dataset.LabeledDataset(X, y),
            gbdt.GbdtConfig(n_trees=1, max_depth=1, min_samples_leaf=min_leaf),
        )
        candidates = oracle_split_candidates(X, y.astype(float), model.base_score, min_leaf)
        positive = [c for c in candidates if c[0] > 0]
        root = model.trees[0]
        gmax = max((c[0] for c in positive), default=0.0)
        tol = 1e-9 * (1.0 + abs(gmax))
        if root.feature_index[0] < 0:
            # mathematically tied-at-zero cases may separate by a few ulps
            assert gmax <= tol
        else:
            matches = [
                c for c in positive
                if c[1] == root.feature_index[0]
                and math.isclose(c[2], root.threshold[0], rel_tol=1e-9, abs_tol=1e-12)
            ]
            assert len(matches) == 1
            assert matches[0][0] >= gmax - tol
            assert abs(root.gain[0] - matches[0][0]) <= tol
    ok(10, "monotone training loss on 100 instances and exhaustive split "
           "equivalence on 100 instances")
