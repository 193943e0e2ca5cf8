import json
from pathlib import Path

import pytest

from melemad import cli, dataset, gbdt, maml


def run(*argv):
    return cli.main([str(a) for a in argv])


def synth_args(out_dir, n=400, m=12, informative=3, fmt="csv", seed=5, noise="0.0"):
    return [
        "synth", "--n", n, "--m", m, "--informative", informative,
        "--noise-sigma", noise, "--seed", seed, "--format", fmt, "--out-dir", out_dir,
    ]


@pytest.fixture()
def small_config(tmp_path):
    cfg = {
        "seed": 3,
        "chunking": {"p": 0.5, "q": 0.2},
        "gbdt": {"n_trees": 10, "max_depth": 2, "min_samples_leaf": 2},
        "selection": {"tau": 0.01},
        "split": {"train_fraction": 0.75},
        "maml": {
            "outer_iterations": 5,
            "tasks_per_meta_batch": 2,
            "samples_per_task": 40,
            "support_size": 20,
            "query_size": 20,
            "alpha": 0.001,
            "beta": 0.01,
            "hidden_dims": [8, 4],
            "dropout_rate": 0.0,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSynth:
    def test_writes_dataset_and_truth(self, tmp_path):
        out = tmp_path / "out"
        assert run(*synth_args(out)) == 0
        ds = dataset.load_csv(out / "synthetic.csv")
        assert (ds.n, ds.m) == (400, 12)
        truth = json.loads((out / "informative.json").read_text())
        assert len(truth["informative_indices"]) == 3

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(*synth_args(out_a, fmt="bin")) == 0
        assert run(*synth_args(out_b, fmt="bin")) == 0
        assert (out_a / "synthetic.bin").read_bytes() == (out_b / "synthetic.bin").read_bytes()
        assert (out_a / "informative.json").read_text() == (out_b / "informative.json").read_text()

    def test_invalid_spec_exits_2_without_files(self, tmp_path):
        out = tmp_path / "o"
        code = run("synth", "--n", 200, "--m", 200, "--informative", 300,
                   "--seed", 1, "--out-dir", out)
        assert code == 2
        assert not (out / "synthetic.csv").exists()
        assert not (out / "informative.json").exists()


class TestSelect:
    def test_select_with_tau(self, tmp_path, small_config):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir))
        out = tmp_path / "sel"
        code = run("select", "--config", small_config, "--input", data_dir / "synthetic.csv",
                   "--out-dir", out)
        assert code == 0
        selection = json.loads((out / "selected_features.json").read_text())
        assert 0 < len(selection["global_indices"]) <= 12
        projected = dataset.load_binary(out / "projected.bin")
        assert projected.m == len(selection["global_indices"])
        report = json.loads((out / "cfsgb_report.json").read_text())
        assert report["r"] == projected.m
        assert report["k"] >= 1

    def test_select_top_k(self, tmp_path, small_config):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir))
        out = tmp_path / "sel"
        code = run("select", "--config", small_config, "--input", data_dir / "synthetic.csv",
                   "--top-k", 5, "--out-dir", out)
        assert code == 0
        selection = json.loads((out / "selected_features.json").read_text())
        assert len(selection["global_indices"]) >= 5

    def test_top_k_trains_each_chunk_once(self, tmp_path, small_config, monkeypatch):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir))
        train = gbdt.train
        calls = []

        def counted(ds, cfg=None):
            calls.append(ds.n)
            return train(ds, cfg)

        monkeypatch.setattr(gbdt, "train", counted)
        by_k = tmp_path / "by_k"
        code = run("select", "--config", small_config, "--input", data_dir / "synthetic.csv",
                   "--top-k", 5, "--out-dir", by_k)
        assert code == 0
        report = json.loads((by_k / "cfsgb_report.json").read_text())
        assert len(calls) == report["k"] > 1
        # the same selection as a fixed threshold at the tau top-k chose
        tau = json.loads((by_k / "selected_features.json").read_text())["threshold"]
        by_tau = tmp_path / "by_tau"
        code = run("select", "--config", small_config, "--input", data_dir / "synthetic.csv",
                   "--tau", repr(tau), "--out-dir", by_tau)
        assert code == 0
        for name in ("selected_features.json", "projected.bin"):
            assert (by_k / name).read_bytes() == (by_tau / name).read_bytes(), name

    def test_failed_save_leaves_no_partial_files(self, tmp_path, small_config, monkeypatch):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir))

        def partial_then_fail(ds, path):
            Path(path).write_bytes(b"MLMD partial")
            raise OSError("disk full")

        monkeypatch.setattr(dataset, "save_binary", partial_then_fail)
        out = tmp_path / "sel"
        code = run("select", "--config", small_config, "--input", data_dir / "synthetic.csv",
                   "--out-dir", out)
        assert code == 1
        assert not (out / "projected.bin").exists()
        assert [p.name for p in out.iterdir() if ".tmp" in p.name] == []

    def test_missing_input_exits_2_without_files(self, tmp_path, small_config):
        out = tmp_path / "sel"
        code = run("select", "--config", small_config, "--input", tmp_path / "nope.csv",
                   "--out-dir", out)
        assert code == 2
        assert not (out / "selected_features.json").exists()

    def test_needs_tau_or_top_k(self, tmp_path):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir))
        code = run("select", "--input", data_dir / "synthetic.csv", "--out-dir", tmp_path / "s")
        assert code == 2

    def test_published_hyperparameter_row_on_standin(self, tmp_path):
        # p=0.20, q=0.20, tau=0.00014 transcribed straight into a config
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir, n=800, m=100, informative=5, seed=17))
        cfg = {
            "seed": 17,
            "chunking": {"p": 0.20, "q": 0.20},
            "gbdt": {"n_trees": 10, "max_depth": 2, "min_samples_leaf": 2},
            "selection": {"tau": 0.00014},
        }
        cfg_path = tmp_path / "andmal_row.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "sel"
        code = run("select", "--config", cfg_path, "--input", data_dir / "synthetic.csv",
                   "--out-dir", out)
        assert code == 0
        selection = json.loads((out / "selected_features.json").read_text())
        assert 0 < len(selection["global_indices"]) < 100


class TestMetaTrainEvaluate:
    def test_full_pipeline(self, tmp_path, small_config):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir, fmt="bin"))
        out = tmp_path / "run"
        code = run("meta-train", "--config", small_config,
                   "--input", data_dir / "synthetic.bin", "--out-dir", out)
        assert code == 0
        for name in ("checkpoint.ckpt", "train_log.csv", "scaler.json", "test_pool.bin"):
            assert (out / name).exists(), name

        log_lines = (out / "train_log.csv").read_text().strip().splitlines()
        assert log_lines[0] == "iteration,meta_loss,query_accuracy,seconds"
        assert len(log_lines) == 1 + 5

        _, _, iteration = maml.load_checkpoint(out / "checkpoint.ckpt")
        assert iteration == 5

        code = run("evaluate", "--checkpoint", out / "checkpoint.ckpt",
                   "--data", out / "test_pool.bin", "--out-dir", out)
        assert code == 0
        report = json.loads((out / "metrics_report.json").read_text())
        for key in ("accuracy", "precision", "recall", "f1", "mcc", "auc", "confusion"):
            assert key in report
        roc_lines = (out / "roc.csv").read_text().strip().splitlines()
        assert roc_lines[1].startswith("0.0,0.0")
        assert roc_lines[-1] == "1.0,1.0"

    def test_resume_continues_numbering(self, tmp_path, small_config):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir, fmt="bin"))
        out = tmp_path / "run"
        run("meta-train", "--config", small_config, "--input", data_dir / "synthetic.bin",
            "--out-dir", out)
        out2 = tmp_path / "run2"
        code = run("meta-train", "--config", small_config, "--input", data_dir / "synthetic.bin",
                   "--out-dir", out2, "--resume", out / "checkpoint.ckpt", "--iterations", 3)
        assert code == 0
        _, _, iteration = maml.load_checkpoint(out2 / "checkpoint.ckpt")
        assert iteration == 8
        log_lines = (out2 / "train_log.csv").read_text().strip().splitlines()
        assert log_lines[1].split(",")[0] == "5"
        assert log_lines[-1].split(",")[0] == "7"

    def test_evaluate_flag_override_without_config(self, tmp_path, small_config):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir, fmt="bin"))
        out = tmp_path / "run"
        run("meta-train", "--config", small_config, "--input", data_dir / "synthetic.bin",
            "--out-dir", out)
        # smaller task than the checkpoint's config; must be honored
        code = run("evaluate", "--checkpoint", out / "checkpoint.ckpt",
                   "--data", out / "test_pool.bin", "--out-dir", out,
                   "--samples-per-task", 20, "--support-size", 10, "--query-size", 10,
                   "--episodes", 4)
        assert code == 0
        report = json.loads((out / "metrics_report.json").read_text())
        assert report["confusion"]["tp"] + report["confusion"]["tn"] + \
            report["confusion"]["fp"] + report["confusion"]["fn"] == 4 * 10

    def test_meta_train_deterministic_outputs(self, tmp_path, small_config):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir, fmt="bin"))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("meta-train", "--config", small_config,
                       "--input", data_dir / "synthetic.bin", "--out-dir", out) == 0
            outs.append(out)
        a, b = outs
        assert (a / "checkpoint.ckpt").read_bytes() == (b / "checkpoint.ckpt").read_bytes()
        assert (a / "test_pool.bin").read_bytes() == (b / "test_pool.bin").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_divergence_exits_1_without_outputs(self, tmp_path, small_config, capsys, flag):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir, fmt="bin"))
        out = tmp_path / "run"
        code = run("meta-train", "--config", small_config, "--input",
                   data_dir / "synthetic.bin", "--out-dir", out, flag, "1e300")
        assert code == 1
        assert "diverged at iteration" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_threads_accepted_by_every_stage(self, tmp_path, small_config):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir, fmt="bin"))
        outs = {}
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            assert run("meta-train", "--config", small_config, "--threads", threads,
                       "--input", data_dir / "synthetic.bin", "--out-dir", out) == 0
            assert run("evaluate", "--checkpoint", out / "checkpoint.ckpt", "--threads",
                       threads, "--data", out / "test_pool.bin", "--out-dir", out) == 0
            outs[threads] = out
        for name in ("checkpoint.ckpt", "metrics_report.json", "roc.csv"):
            assert (outs[1] / name).read_bytes() == (outs[3] / name).read_bytes(), name


class TestConfig:
    def test_bad_json_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code = run("select", "--config", cfg, "--input", "x.csv")
        assert code == 2

    def test_flag_overrides_config(self, tmp_path, small_config):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir))
        out = tmp_path / "sel"
        # absurd tau via flag -> empty selection -> runtime failure (exit 1)
        code = run("select", "--config", small_config, "--input", data_dir / "synthetic.csv",
                   "--tau", 5.0, "--out-dir", out)
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["select", "--input", "x.csv", "--tau", "0.01"],
        ["evaluate", "--checkpoint", "c.ckpt", "--data", "x.bin"],
    ])
    def test_seed_flag_rejected(self, capsys, command):
        # selection draws no random numbers and evaluate takes the
        # checkpoint's seed, so only synth and meta-train accept --seed
        with pytest.raises(SystemExit) as exc:
            run(*command, "--seed", 1)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert cli.build_parser().parse_args(["meta-train", "--input", "x", "--seed", "1"]).seed == 1

    def test_derive_seed_stable(self):
        assert cli.derive_seed(7, "select") == cli.derive_seed(7, "select")
        assert cli.derive_seed(7, "select") != cli.derive_seed(7, "split")
        assert cli.derive_seed(7, "select") != cli.derive_seed(8, "select")
