import argparse
import copy
import inspect
import json
import re
from pathlib import Path

import pytest

from melemad import cfsgb, cli, dataset, gbdt, maml


def run(*argv):
    return cli.main([str(a) for a in argv])


def synth_args(out_dir, n=400, m=12, informative=3, fmt="csv", seed=5, noise="0.0"):
    return [
        "synth", "--n", n, "--m", m, "--informative", informative,
        "--noise-sigma", noise, "--seed", seed, "--format", fmt, "--out-dir", out_dir,
    ]


SMALL_CONFIG = {
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


# each malformed CSV and the error line select gives for it
MALFORMED_CSV = {
    "blank line": ("f1,f2,label\n1,2,0\n\n3,4,1\n", "row 1 has 0 cells, expected 3"),
    "ragged row": ("f1,f2,label\n1,2,0\n3,4\n", "row 1 has 2 cells, expected 3"),
    "nan text": ("f1,f2,label\n1,nan,0\n", "non-numeric cell at row 0, column 1: 'nan'"),
    "label 2": ("f1,f2,label\n1,2,0\n3,4,2\n", "label at row 1 is not 0/1: '2'"),
    "non-numeric cell": (
        "f1,f2,label\n1,2,0\n3,x7,1\n", "non-numeric cell at row 1, column 1: 'x7'"
    ),
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
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

    @pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
    def test_malformed_csv_exits_2_naming_the_cell(self, tmp_path, capsys, case):
        text, message = MALFORMED_CSV[case]
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "sel"
        assert run("select", "--input", path, "--tau", 0.01, "--out-dir", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "evaluate --alpha"])
    def test_divergence_exits_1_without_outputs(self, tmp_path, small_config, capsys, flag):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir, fmt="bin"))
        out = tmp_path / "run"
        if flag.startswith("evaluate"):
            # a healthy checkpoint of the default architecture, evaluated at a
            # rate that drives its query probabilities to NaN (the small
            # architecture saturates to finite ones instead)
            config = tmp_path / "wide.json"
            config.write_text(json.dumps(with_entry("maml", "hidden_dims", [64, 32, 16])))
            trained = tmp_path / "trained"
            assert run("meta-train", "--config", config, "--input",
                       data_dir / "synthetic.bin", "--out-dir", trained) == 0
            code = run("evaluate", "--checkpoint", trained / "checkpoint.ckpt",
                       "--data", trained / "test_pool.bin", "--out-dir", out, "--alpha", "1e300")
            message = "diverged at episode"
        else:
            code = run("meta-train", "--config", small_config, "--input",
                       data_dir / "synthetic.bin", "--out-dir", out, flag, "1e300")
            message = "diverged at iteration"
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_saturated_evaluation_exits_1_without_outputs(self, tmp_path, trained, capsys):
        # the small architecture adapted at alpha 1e300 scores finite query
        # probabilities, every one clamped to PROB_EPS or 1 - PROB_EPS
        _, run_dir = trained
        out = tmp_path / "eval"
        code = run("evaluate", "--checkpoint", run_dir / "checkpoint.ckpt",
                   "--data", run_dir / "test_pool.bin", "--out-dir", out, "--alpha", "1e300")
        assert code == 1
        assert "evaluation saturated: " in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
        assert run("evaluate", "--checkpoint", run_dir / "checkpoint.ckpt",
                   "--data", run_dir / "test_pool.bin", "--out-dir", out) == 0

    def test_threads_accepted_by_every_stage(self, tmp_path, small_config):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir, fmt="bin"))
        outs = {}
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            assert run("select", "--config", small_config, "--threads", threads,
                       "--input", data_dir / "synthetic.bin", "--out-dir", out) == 0
            assert run("meta-train", "--config", small_config, "--threads", threads,
                       "--input", data_dir / "synthetic.bin", "--out-dir", out) == 0
            assert run("evaluate", "--checkpoint", out / "checkpoint.ckpt", "--threads",
                       threads, "--data", out / "test_pool.bin", "--out-dir", out) == 0
            outs[threads] = out
        for name in ("selected_features.json", "projected.bin", "cfsgb_report.json",
                     "checkpoint.ckpt", "metrics_report.json", "roc.csv"):
            assert (outs[1] / name).read_bytes() == (outs[3] / name).read_bytes(), name


def with_entry(section, key, value):
    """SMALL_CONFIG with one more entry: config[section][key] = value, or a
    top-level config[key] = value when section is None."""
    cfg = copy.deepcopy(SMALL_CONFIG)
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    return cfg


# each names the key that makes the config invalid, and the config
BAD_CONFIGS = {
    "unknown top-level key": ("spilt", with_entry(None, "spilt", {"train_fraction": 0.5})),
    "unknown gbdt key": ("n_tree", with_entry("gbdt", "n_tree", 2)),
    "unknown maml key": ("iterations", with_entry("maml", "iterations", 3)),
    "derived maml seed": ("seed", with_entry("maml", "seed", 99)),
    "derived split seed": ("seed", with_entry("split", "seed", 1)),
    "derived input_dim": ("input_dim", with_entry("maml", "input_dim", 12)),
    "removed dropout_in_adapt": (
        "dropout_in_adapt", with_entry("maml", "dropout_in_adapt", False)
    ),
    "section not an object": ("gbdt", {**SMALL_CONFIG, "gbdt": [10, 2]}),
    "string for an int": ("n_trees", with_entry("gbdt", "n_trees", "5")),
    "bool for an int": ("n_trees", with_entry("gbdt", "n_trees", True)),
    "string for an optional int": ("top_k", with_entry("selection", "top_k", "4")),
    "float for an int": ("outer_iterations", with_entry("maml", "outer_iterations", 2.5)),
    "string for a bool": ("first_order", with_entry("maml", "first_order", "no")),
    "null for a required int": ("max_depth", with_entry("gbdt", "max_depth", None)),
    "string in hidden_dims": ("hidden_dims", with_entry("maml", "hidden_dims", [8, "4"])),
    "int for hidden_dims": ("hidden_dims", with_entry("maml", "hidden_dims", 8)),
    "string seed": ("seed", with_entry(None, "seed", "abc")),
    "bool seed": ("seed", with_entry(None, "seed", True)),
    "negative seed": ("seed", with_entry(None, "seed", -3)),
}

STAGE_ARGV = {
    "select": lambda data, run_dir: ["select", "--input", data / "synthetic.bin"],
    "meta-train": lambda data, run_dir: ["meta-train", "--input", data / "synthetic.bin"],
    "evaluate": lambda data, run_dir: [
        "evaluate", "--checkpoint", run_dir / "checkpoint.ckpt",
        "--data", run_dir / "test_pool.bin",
    ],
}

# the defaults the CLI documented when it kept its own copy of them
DOCUMENTED_DEFAULTS = {
    "seed": 0,
    "output_dir": None,
    "chunking": {"p": 0.2, "q": 0.2, "k": None},
    "gbdt": {
        "n_trees": 100,
        "max_depth": 3,
        "learning_rate": 0.1,
        "min_samples_leaf": 5,
    },
    "selection": {"tau": None, "top_k": None},
    "split": {"train_fraction": 0.8, "stratified": True},
    "maml": {
        "alpha": 0.0001,
        "beta": 0.001,
        "outer_iterations": 1000,
        "tasks_per_meta_batch": 4,
        "samples_per_task": 100,
        "support_size": 50,
        "query_size": 50,
        "inner_steps": 1,
        "first_order": True,
        "hidden_dims": [64, 32, 16],
        "dropout_rate": 0.2,
    },
}


def edit_header(edit):
    """A checkpoint rewriter: the header parsed, passed to edit, written back."""
    def rewrite(blob):
        header, payload = blob.split(b"\n", 1)
        header = json.loads(header)
        edit(header)
        return json.dumps(header).encode() + b"\n" + payload
    return rewrite


# each rewrites a good checkpoint into a malformed one; with what the error names
BAD_CHECKPOINTS = {
    "header not JSON": (lambda blob: b"{not json" + blob[blob.index(b"\n"):],
                        "malformed checkpoint header"),
    "no architecture": (edit_header(lambda h: h.pop("architecture")), "'architecture'"),
    "unknown config key": (
        edit_header(lambda h: h["config"].update(dropout_in_adapt=True)), "'dropout_in_adapt'"
    ),
    "config value of the wrong type": (
        edit_header(lambda h: h["config"].update(first_order="no")), "'first_order'"
    ),
    "negative seed": (
        edit_header(lambda h: h["config"].update(seed=-1)), "seed must be non-negative"
    ),
    "negative iteration": (edit_header(lambda h: h.update(iteration=-5)), "iteration -5"),
    "iteration fractional": (edit_header(lambda h: h.update(iteration=2.5)), "'iteration'"),
    "iteration a string": (edit_header(lambda h: h.update(iteration="3")), "'iteration'"),
    "architecture width a string": (
        edit_header(lambda h: h["architecture"].update(input_dim="12")), "'input_dim'"
    ),
    "architecture widths strings": (
        edit_header(lambda h: h["architecture"].update(hidden_dims=["8", "4"])),
        "'hidden_dims'",
    ),
    "architecture widths fractional": (
        edit_header(lambda h: h["architecture"].update(hidden_dims=[8.7, 4.7])),
        "'hidden_dims'",
    ),
    "unknown architecture key": (
        edit_header(lambda h: h["architecture"].update(activation="relu")), "'activation'"
    ),
    # SMALL_CONFIG's 12 -> 8 -> 4 -> 1 architecture holds 145 parameters
    "payload not whole float32 values": (lambda blob: blob[:-1], f"needs {4 * 145}"),
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A data set, and a checkpoint and test pool meta-trained on it."""
    root = tmp_path_factory.mktemp("trained")
    config = root / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert run(*synth_args(root / "data", fmt="bin")) == 0
    assert run("meta-train", "--config", config, "--input", root / "data" / "synthetic.bin",
               "--out-dir", root / "run") == 0
    return root / "data", root / "run"


class TestConfig:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    @pytest.mark.parametrize("stage", sorted(STAGE_ARGV))
    def test_invalid_config_exits_2_without_outputs(self, tmp_path, trained, capsys,
                                                    stage, case):
        key, cfg = BAD_CONFIGS[case]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        argv = STAGE_ARGV[stage](*trained)
        assert run(*argv, "--config", path, "--out-dir", out) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    @pytest.mark.parametrize("stage", ["evaluate", "meta-train --resume"])
    def test_malformed_checkpoint_exits_2_without_outputs(self, tmp_path, trained, capsys,
                                                          stage, case):
        data, run_dir = trained
        rewrite, named = BAD_CHECKPOINTS[case]
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(rewrite((run_dir / "checkpoint.ckpt").read_bytes()))
        if stage == "evaluate":
            argv = ["evaluate", "--checkpoint", ckpt, "--data", run_dir / "test_pool.bin"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(SMALL_CONFIG))
            argv = ["meta-train", "--config", config, "--input", data / "synthetic.bin",
                    "--resume", ckpt]
        out = tmp_path / "out"
        assert run(*argv, "--out-dir", out) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_int_for_a_float_and_null_for_an_optional_accepted(self, tmp_path, trained):
        data, _ = trained
        cfg = with_entry("gbdt", "learning_rate", 1)
        cfg["chunking"]["k"] = None
        cfg["maml"].update(alpha=0, hidden_dims=[8])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        for argv in (STAGE_ARGV["select"](data, None), STAGE_ARGV["meta-train"](data, None)):
            assert run(*argv, "--config", path, "--out-dir", out) == 0, argv[0]

    def test_defaults_live_on_the_library_types(self):
        cfg = cli.load_config(None)
        built = {
            "chunking": [cli._build(cfsgb.ChunkSpec, cfg["chunking"])],
            "gbdt": [cli._build(gbdt.GbdtConfig, cfg["gbdt"])],
            "split": [cli._build(dataset.SplitSpec, cfg["split"])],
            "maml": [
                cli._build(maml.MamlConfig, cfg["maml"]),
                cli._build(maml.MlpArchitecture, cfg["maml"], input_dim=1),
            ],
        }
        run_cfsgb_args = inspect.signature(cfsgb.run_cfsgb).parameters
        for name, documented in DOCUMENTED_DEFAULTS.items():
            if not isinstance(documented, dict):
                assert cfg[name] == documented, name
                continue
            assert set(documented) == set(cli._SECTIONS[name]), name
            for key, value in documented.items():
                if name == "selection":
                    actual = run_cfsgb_args[key].default
                else:
                    actual = next(getattr(t, key) for t in built[name] if hasattr(t, key))
                expected = tuple(value) if isinstance(value, list) else value
                assert actual == expected and type(actual) is type(expected), f"{name}.{key}"

    def test_every_config_flag_names_an_accepted_key(self):
        parser = cli.build_parser()
        stages = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = 0
        for stage, sub in stages.choices.items():
            for action in sub._actions:
                section, _, key = action.dest.rpartition(".")
                if section:
                    assert key in cli._SECTIONS[section], (stage, action.option_strings)
                    flags += 1
        assert flags > 0

    def test_readme_example_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"Example `config.json`:\s*```json\n(.*?)```", readme, re.S)
        cfg = json.loads(example.group(1))
        cfg["maml"].update(outer_iterations=2, samples_per_task=40, support_size=20,
                           query_size=20)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir, n=200, m=8, fmt="bin"))
        out = tmp_path / "out"
        for argv in (
            ["select", "--input", data_dir / "synthetic.bin", "--n-trees", 5],
            ["meta-train", "--input", out / "projected.bin"],
            ["evaluate", "--checkpoint", out / "checkpoint.ckpt", "--data",
             out / "test_pool.bin"],
        ):
            assert run(*argv, "--config", path, "--out-dir", out) == 0, argv[0]

    def test_evaluate_reads_config_then_flags(self, tmp_path, trained):
        data, run_dir = trained
        cfg = with_entry("maml", "samples_per_task", 20)
        cfg["maml"].update(support_size=12, query_size=8)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        base = ["evaluate", "--checkpoint", run_dir / "checkpoint.ckpt", "--data",
                run_dir / "test_pool.bin", "--episodes", 3, "--config", path]
        for extra, scored in (([], 3 * 8), (["--query-size", 5], 3 * 5)):
            out = tmp_path / f"q{scored}"
            assert run(*base, *extra, "--out-dir", out) == 0
            report = json.loads((out / "metrics_report.json").read_text())
            assert sum(report["confusion"].values()) == scored

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
