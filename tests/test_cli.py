import argparse
import copy
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from melemad import cfsgb, cli, dataset, gbdt, maml, metrics

from oracles import key_of


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
    "no label column": ("f1,f2\n1,2\n", "no column named 'label' in ['f1', 'f2']"),
}


def csv_text(labels, m=12):
    """A CSV of m features, all 0.5, and one row per label."""
    header = ",".join(f"f{j}" for j in range(m)) + ",label\n"
    return header + "".join("0.5," * m + f"{label}\n" for label in labels)


# each failure a stage reports for its input: the stage, the input (CSV text,
# or an edit of the trained synthetic.bin's bytes), more flags, the exit
# code and the error line; {path} stands for the input file
INPUT_FAILURES = {
    "bad magic": ("select", lambda blob: b"MLMX" + blob[4:], ["--tau", 0.01], 2,
                  "{path}: bad magic b'MLMX'"),
    "truncated": ("select", lambda blob: blob[:-1], ["--tau", 0.01], 2,
                  "{path}: expected 19616 bytes, found 19615"),
    "class of one row": ("meta-train", csv_text([0] * 10 + [1], m=2), [], 2,
                         "class 1 has 1 sample(s); need >= 2 to stratify"),
    "zero stride": ("select", lambda blob: blob, ["--p", 0.01, "--q", 0.99, "--tau", 0.01], 2,
                    "overlap q=0.99 leaves stride 0 at l=4"),
    "pool too small": ("evaluate", csv_text([0, 1] * 5), [], 2,
                       "pool has 10 rows, task needs 40"),
    "single-class pool": ("evaluate", csv_text([0] * 40), [], 2,
                          "episode sampling needs both classes in the pool"),
    "pool of another width": ("evaluate", csv_text([0, 1] * 20, m=3), [], 2,
                              "--data {path}: the input has 3 features, "
                              "the checkpoint's model takes 12"),
    "tau above every importance": ("select", lambda blob: blob, ["--tau", 2, "--n-trees", 2],
                                   1, "threshold 2.0 excluded every feature in every chunk"),
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

    def test_balance_sets_the_positive_fraction(self, tmp_path):
        out = tmp_path / "out"
        assert run(*synth_args(out, n=200, fmt="bin"), "--balance", 0.2) == 0
        assert dataset.load_binary(out / "synthetic.bin").labels.sum() == 40

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
        # top-k keeps k features, or every feature that splits in some chunk
        # where fewer than k do (threshold_for_top_k's fallback)
        ds = dataset.load_csv(data_dir / "synthetic.csv")
        split = np.zeros(ds.m, dtype=bool)
        for c in cfsgb.make_chunks(ds.n, cfsgb.ChunkSpec(**SMALL_CONFIG["chunking"])):
            trained = gbdt.train(ds.select_rows(slice(c.start, c.stop)),
                                 gbdt.GbdtConfig(**SMALL_CONFIG["gbdt"]))
            split |= gbdt.feature_importance(trained) > 0
        assert len(selection["global_indices"]) == min(5, int(split.sum()))

    def test_bin_input_runs_as_its_float64_csv(self, tmp_path, small_config):
        # a .bin file loads as float32; the same values as a CSV load as
        # float64, and every stage writes the same bytes from either
        run(*synth_args(tmp_path / "d", fmt="bin"))
        narrow = dataset.load_binary(tmp_path / "d" / "synthetic.bin")
        assert narrow.features.dtype == np.float32
        wide = dataset.LabeledDataset(narrow.features, narrow.labels)
        dataset.save_csv(wide, tmp_path / "d" / "synthetic.csv")
        for name in ("bin", "csv"):
            data, out = tmp_path / "d" / f"synthetic.{name}", tmp_path / name
            assert run("select", "--config", small_config, "--input", data, "--out-dir", out) == 0
            assert run("meta-train", "--config", small_config, "--input", data,
                       "--out-dir", out) == 0
        test_pool = dataset.load_binary(tmp_path / "bin" / "test_pool.bin")
        dataset.save_csv(dataset.LabeledDataset(test_pool.features, test_pool.labels),
                         tmp_path / "csv" / "test_pool.csv")
        for name, pool in (("bin", "test_pool.bin"), ("csv", "test_pool.csv")):
            out = tmp_path / name
            assert run("evaluate", "--checkpoint", out / "checkpoint.ckpt",
                       "--data", out / pool, "--out-dir", out) == 0
        for name in ("selected_features.json", "projected.bin", "scaler.json", "test_pool.bin",
                     "checkpoint.ckpt", "metrics_report.json", "roc.csv"):
            assert (tmp_path / "bin" / name).read_bytes() == (tmp_path / "csv" / name).read_bytes()

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

    def test_csv_spill_leaves_no_file(self, tmp_path, small_config, monkeypatch, capsys):
        # the spill is an unnamed file in the output directory: it is not
        # there while select trains, nor after a run that succeeds or fails
        run(*synth_args(tmp_path / "d"))
        data = tmp_path / "d" / "synthetic.csv"
        out = tmp_path / "sel"
        outputs = ["cfsgb_report.json", "projected.bin", "selected_features.json"]
        run_cfsgb, seen = cfsgb.run_cfsgb, []

        def listed(*args, **kwargs):
            seen.append(sorted(p.name for p in out.iterdir()))
            return run_cfsgb(*args, **kwargs)

        monkeypatch.setattr(cfsgb, "run_cfsgb", listed)
        assert run("select", "--config", small_config, "--input", data, "--out-dir", out) == 0
        assert seen == [[]]
        assert sorted(p.name for p in out.iterdir()) == outputs
        # a bad cell in the last of the file's eight blocks of 50 rows: it
        # is found as the spill is written, before any chunk trains
        lines = data.read_text().splitlines(keepends=True)
        assert len(lines) == 401
        lines[-1] = "x" + lines[-1]
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        with monkeypatch.context() as mp:
            mp.setattr(dataset, "_BLOCK_CELLS", 13 * 50)
            assert run("select", "--config", small_config, "--input", bad, "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith("error: non-numeric cell at row 399, column 0:")
        assert seen == [[]]
        assert sorted(p.name for p in out.iterdir()) == outputs
        assert run("select", "--config", small_config, "--input", data, "--tau", 5.0,
                   "--out-dir", out) == 1
        assert "excluded every feature in every chunk" in capsys.readouterr().err
        assert seen == [[], outputs]
        assert sorted(p.name for p in out.iterdir()) == outputs

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
        # nothing was written, so the directory the run made is gone again
        assert not out.exists()

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

    def test_failed_run_removes_the_directories_it_made(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(MALFORMED_CSV["ragged row"][0])
        kept = tmp_path / "kept"
        kept.mkdir()
        assert run("select", "--input", path, "--tau", 0.01,
                   "--out-dir", kept / "made" / "deeper") == 2
        assert list(kept.iterdir()) == []

    def test_needs_tau_or_top_k(self, tmp_path):
        data_dir = tmp_path / "d"
        run(*synth_args(data_dir))
        code = run("select", "--input", data_dir / "synthetic.csv", "--out-dir", tmp_path / "s")
        assert code == 2

    @pytest.mark.parametrize("offset, value, message, fits", [
        # row 390 of 400, in the last of the chunks [0, 200), [160, 360) and
        # [320, 400) only: the first two chunks train before it is read
        (16 + 4 * (390 * 12 + 2), np.float32(np.nan).tobytes(), "features contain NaN", 2),
        # labels are read and checked when the file is opened
        (16 + 4 * 400 * 12 + 390, b"\x02", "labels must all be 0 or 1", 0),
    ], ids=["nan in the last chunk", "label 2"])
    def test_bad_bin_value_exits_2_without_outputs(self, tmp_path, small_config, monkeypatch,
                                                   capsys, offset, value, message, fits):
        run(*synth_args(tmp_path / "d", fmt="bin"))
        path = tmp_path / "d" / "synthetic.bin"
        blob = bytearray(path.read_bytes())
        blob[offset : offset + len(value)] = value
        path.write_bytes(bytes(blob))
        train = gbdt.train
        calls = []
        monkeypatch.setattr(gbdt, "train", lambda ds, cfg: calls.append(ds.n) or train(ds, cfg))
        out = tmp_path / "sel"
        assert run("select", "--config", small_config, "--input", path, "--out-dir", out) == 2
        assert message in capsys.readouterr().err
        assert calls == [200] * fits
        assert not out.exists()

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

        _, _, iteration, _ = maml.load_checkpoint(out / "checkpoint.ckpt")
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
        _, _, iteration, _ = maml.load_checkpoint(out2 / "checkpoint.ckpt")
        assert iteration == 8
        log_lines = (out2 / "train_log.csv").read_text().strip().splitlines()
        assert log_lines[1].split(",")[0] == "5"
        assert log_lines[-1].split(",")[0] == "7"

    @pytest.mark.parametrize("flags, named", [
        # the stored seed is derived from the top-level one: the message names
        # the seed the user gave, not the two derived ones
        (["--seed", 4], "config key 'seed' (4) does not derive the checkpoint's meta-training "
                        "seed: it was written with another seed or other draw streams"),
        (["--beta", 0.02], "config key 'maml.beta' differs from the checkpoint's "
                           "(0.02, stored 0.01)"),
        (["--alpha", 0.002], "config key 'maml.alpha' differs from the checkpoint's "
                             "(0.002, stored 0.001)"),
        (["--no-first-order"], "config key 'maml.first_order' differs from the checkpoint's "
                               "(False, stored True)"),
        # another split would put rows the checkpoint trained on in the test pool
        (["--train-fraction", 0.5], "config key 'split.train_fraction' differs from the "
                                    "checkpoint's (0.5, stored 0.75)"),
    ])
    def test_resume_with_another_config_exits_2_naming_the_key(self, tmp_path, trained,
                                                               small_config, capsys, flags,
                                                               named):
        data, run_dir = trained
        out, ckpt = tmp_path / "out", run_dir / "checkpoint.ckpt"
        code = run("meta-train", "--config", small_config, "--input", data / "synthetic.bin",
                   "--resume", ckpt, *flags, "--out-dir", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: --resume {ckpt}: {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("entry, width, message", [
        ({"hidden_dims": [8]}, 12,
         "config key 'maml.hidden_dims' differs from the checkpoint's ((8,), stored (8, 4))"),
        ({"dropout_rate": 0.5}, 12,
         "config key 'maml.dropout_rate' differs from the checkpoint's (0.5, stored 0.0)"),
        ({}, 3, "the input has 3 features, the checkpoint's model takes 12"),
    ], ids=["hidden_dims", "dropout_rate", "input width"])
    def test_resume_architecture_must_match_the_checkpoints(self, tmp_path, trained, capsys,
                                                           entry, width, message):
        _, run_dir = trained
        cfg = copy.deepcopy(SMALL_CONFIG)
        cfg["maml"].update(entry)
        config, data = tmp_path / "config.json", tmp_path / "data.csv"
        config.write_text(json.dumps(cfg))
        data.write_text(csv_text([0, 1] * 20, m=width), encoding="utf-8")
        ckpt, out = run_dir / "checkpoint.ckpt", tmp_path / "out"
        code = run("meta-train", "--config", config, "--input", data, "--resume", ckpt,
                   "--out-dir", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: --resume {ckpt}: {message}\n"
        assert not out.exists()

    def test_saturated_meta_training_exits_1_without_outputs(self, tmp_path, small_config,
                                                             capsys):
        run(*synth_args(tmp_path / "d", fmt="bin"))
        out = tmp_path / "run"
        code = run("meta-train", "--config", small_config, "--input",
                   tmp_path / "d" / "synthetic.bin", "--out-dir", out,
                   "--alpha", "1e6", "--beta", "1e6", "--iterations", 20)
        assert code == 1
        assert "meta-training saturated at iteration 0: " in capsys.readouterr().err
        assert not out.exists()

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
            # rate that drives its query probabilities to NaN
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

    def test_diverging_evaluate_writes_one_error_line(self, tmp_path, trained):
        # in a fresh process, so stderr is what a user sees: adapted
        # parameters past float32's range round to Inf in the float32 pass
        # without numpy's cast warning, and the run fails as a float64
        # overflow would
        _, run_dir = trained
        out = tmp_path / "eval"
        stderr = _child("-m", "melemad.cli", "evaluate", "--checkpoint",
                        run_dir / "checkpoint.ckpt", "--data", run_dir / "test_pool.bin",
                        "--out-dir", out, "--alpha", "1e300", code=1)
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: evaluation diverged at episode 0: "
                          "its query probabilities are NaN or Inf"]
        assert "overflow encountered in cast" not in stderr
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_saturated_evaluation_exits_1_without_outputs(self, tmp_path, trained, capsys):
        # the small architecture adapted at alpha 1e6 scores finite query
        # probabilities, every one clamped to PROB_EPS or 1 - PROB_EPS (at
        # 1e300 its float32 passes overflow to NaN)
        _, run_dir = trained
        out = tmp_path / "eval"
        code = run("evaluate", "--checkpoint", run_dir / "checkpoint.ckpt",
                   "--data", run_dir / "test_pool.bin", "--out-dir", out, "--alpha", "1e6")
        assert code == 1
        assert "evaluation saturated: " in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
        assert run("evaluate", "--checkpoint", run_dir / "checkpoint.ckpt",
                   "--data", run_dir / "test_pool.bin", "--out-dir", out) == 0

    def test_overflowing_scaler_span_exits_2_naming_the_column(self, tmp_path, small_config,
                                                               capsys):
        # each class's rows sit at one end, so the train split holds both ends
        data = tmp_path / "wide.csv"
        data.write_text("f0,label\n-1e308,0\n1e308,1\n-1e308,0\n1e308,1\n")
        out = tmp_path / "run"
        code = run("meta-train", "--config", small_config, "--input", data, "--out-dir", out)
        assert code == 2
        assert "overflows to Inf in column 0" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("threshold", ["1.5", "nan"])
    def test_threshold_checked_before_adapting(self, tmp_path, trained, monkeypatch, capsys,
                                               threshold):
        def refuse(*args, **kwargs):
            raise AssertionError("meta_evaluate ran")

        monkeypatch.setattr(maml, "meta_evaluate", refuse)
        _, run_dir = trained
        out = tmp_path / "eval"
        code = run("evaluate", "--checkpoint", run_dir / "checkpoint.ckpt",
                   "--data", run_dir / "test_pool.bin", "--out-dir", out,
                   "--threshold", threshold)
        assert code == 2
        assert "threshold must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

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
    "removed split stratified": ("stratified", with_entry("split", "stratified", True)),
    "removed chunking k": ("k", with_entry("chunking", "k", 3)),
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
    "NaN for a float": ("beta", with_entry("maml", "beta", float("nan"))),
    "Infinity for a float": ("learning_rate", with_entry("gbdt", "learning_rate", float("inf"))),
}

STAGE_ARGV = {
    "select": lambda data, run_dir: ["select", "--input", data / "synthetic.bin"],
    "meta-train": lambda data, run_dir: ["meta-train", "--input", data / "synthetic.bin"],
    "evaluate": lambda data, run_dir: [
        "evaluate", "--checkpoint", run_dir / "checkpoint.ckpt",
        "--data", run_dir / "test_pool.bin",
    ],
}

# each a config value of the right type outside its range: the stage that
# builds the value's type, the section, key and value, and the error line
OUT_OF_RANGE = {
    "min_samples_leaf 0": ("select", "gbdt", "min_samples_leaf", 0,
                           "min_samples_leaf must be >= 1"),
    "hidden width 0": ("meta-train", "maml", "hidden_dims", [8, 0],
                       "layer widths must be positive"),
    "no hidden layer": ("meta-train", "maml", "hidden_dims", [],
                        "need at least one hidden layer"),
    "dropout_rate 1": ("meta-train", "maml", "dropout_rate", 1.0,
                       "dropout_rate must be in [0, 1)"),
    "outer_iterations -1": ("meta-train", "maml", "outer_iterations", -1,
                            "outer_iterations must be >= 0"),
    "tasks_per_meta_batch 0": ("meta-train", "maml", "tasks_per_meta_batch", 0,
                               "tasks_per_meta_batch must be >= 1"),
    "inner_steps 0": ("meta-train", "maml", "inner_steps", 0, "inner_steps must be >= 1"),
    "support_size 0": ("meta-train", "maml", "support_size", 0,
                       "task and set sizes must be >= 1"),
}

# each a stage, a flag value it must reject, and what the error names
BAD_FLAGS = {
    "beta nan": ("meta-train", ["--beta", "nan"], "'beta'"),
    "beta inf": ("meta-train", ["--beta", "inf"], "'beta'"),
    "alpha nan": ("meta-train", ["--alpha", "nan"], "'alpha'"),
    "noise sigma nan": ("synth", ["--noise-sigma", "nan"], "noise_sigma"),
    "noise sigma inf": ("synth", ["--noise-sigma", "inf"], "noise_sigma"),
    "threshold nan": ("evaluate", ["--threshold", "nan"], "threshold"),
    "threshold above 1": ("evaluate", ["--threshold", "2"], "threshold"),
    "threshold below 0": ("evaluate", ["--threshold", "-1"], "threshold"),
    "zero episodes": ("evaluate", ["--episodes", "0"], "episodes"),
    "negative episodes": ("evaluate", ["--episodes", "-1"], "episodes"),
}

# the defaults the CLI documented when it kept its own copy of them
DOCUMENTED_DEFAULTS = {
    "seed": 0,
    "output_dir": None,
    "chunking": {"p": 0.2, "q": 0.2},
    "gbdt": {
        "n_trees": 100,
        "max_depth": 3,
        "learning_rate": 0.1,
        "min_samples_leaf": 5,
    },
    "selection": {"tau": None, "top_k": None},
    "split": {"train_fraction": 0.8},
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
    "config without seed": (edit_header(lambda h: h["config"].pop("seed")), "'config.seed'"),
    "config without alpha": (edit_header(lambda h: h["config"].pop("alpha")), "'config.alpha'"),
    "architecture without dropout rate": (
        edit_header(lambda h: h["architecture"].pop("dropout_rate")),
        "'architecture.dropout_rate'",
    ),
    "unknown config key": (
        edit_header(lambda h: h["config"].update(dropout_in_adapt=True)), "'dropout_in_adapt'"
    ),
    "config value of the wrong type": (
        edit_header(lambda h: h["config"].update(first_order="no")), "'first_order'"
    ),
    "negative seed": (
        edit_header(lambda h: h["config"].update(seed=-1)), "seed must be non-negative"
    ),
    "no split": (edit_header(lambda h: h.pop("split")), "'split'"),
    "split without train fraction": (
        edit_header(lambda h: h["split"].pop("train_fraction")), "'split.train_fraction'"
    ),
    "train fraction a string": (
        edit_header(lambda h: h["split"].update(train_fraction="0.75")), "'train_fraction'"
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

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
    def test_out_of_range_value_exits_2_without_outputs(self, tmp_path, trained, capsys, case):
        stage, section, key, value, message = OUT_OF_RANGE[case]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(with_entry(section, key, value)))
        out = tmp_path / "out"
        argv = STAGE_ARGV[stage](*trained)
        assert run(*argv, "--config", path, "--out-dir", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
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

    @pytest.mark.parametrize("case", sorted(BAD_FLAGS))
    def test_invalid_flag_exits_2_without_outputs(self, tmp_path, trained, capsys, case):
        stage, flags, named = BAD_FLAGS[case]
        if stage == "synth":
            argv = ["synth", "--n", 50, "--m", 4, "--informative", 2]
        else:
            argv = STAGE_ARGV[stage](*trained)
        out = tmp_path / "out"
        assert run(*argv, *flags, "--out-dir", out) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage,flag", [
        ("select", "--input"), ("meta-train", "--input"), ("meta-train", "--resume"),
        ("evaluate", "--data"), ("evaluate", "--checkpoint"), ("evaluate", "--config"),
    ])
    def test_directory_input_exits_2_naming_it(self, tmp_path, trained, capsys, stage, flag):
        argv = STAGE_ARGV[stage](*trained)
        directory = tmp_path / "dir"
        directory.mkdir()
        if flag in argv:
            argv[argv.index(flag) + 1] = directory
        else:
            argv += [flag, directory]
        out = tmp_path / "out"
        assert run(*argv, "--out-dir", out) == 2
        assert f"{flag} {directory} is missing or not a regular file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage,flag", [
        ("select", "--input"), ("meta-train", "--input"), ("evaluate", "--data"),
        ("select", "--config"), ("meta-train", "--config"), ("evaluate", "--config"),
    ])
    def test_file_not_utf8_exits_2_naming_it(self, tmp_path, trained, capsys, stage, flag):
        argv = STAGE_ARGV[stage](*trained)
        if flag == "--config":
            bad = tmp_path / "config.json"
            bad.write_bytes(b'{"seed": "\xff"}')
            argv += [flag, bad]
            named = f"config {bad}"
        else:
            bad = tmp_path / "bad.csv"
            bad.write_bytes(csv_text([0, 1] * 20).encode().replace(b"0.5", b"\xff", 1))
            argv[argv.index(flag) + 1] = bad
            named = str(bad)
        out = tmp_path / "out"
        assert run(*argv, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: {named} is not UTF-8 text: invalid start byte b'\\xff'\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda blob: b"MLMX" + blob[4:], "bad magic b'MLMX'"),
        (lambda blob: blob[:-1], "bytes, found"),
    ], ids=["bad magic", "truncated"])
    @pytest.mark.parametrize("stage", sorted(STAGE_ARGV))
    def test_malformed_binary_input_exits_2(self, tmp_path, trained, capsys, stage, edit,
                                            named):
        argv = STAGE_ARGV[stage](*trained)
        at = argv.index("--data" if stage == "evaluate" else "--input") + 1
        bad = tmp_path / "bad.bin"
        bad.write_bytes(edit(argv[at].read_bytes()))
        argv[at] = bad
        out = tmp_path / "out"
        assert run(*argv, "--out-dir", out) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(INPUT_FAILURES))
    def test_input_failure_exits_with_its_code_and_message(self, tmp_path, trained, capsys,
                                                           case):
        stage, content, flags, code, message = INPUT_FAILURES[case]
        data, run_dir = trained
        if isinstance(content, str):
            path = tmp_path / "bad.csv"
            path.write_text(content, encoding="utf-8")
        else:
            path = tmp_path / "bad.bin"
            path.write_bytes(content((data / "synthetic.bin").read_bytes()))
        if stage == "evaluate":
            argv = ["evaluate", "--checkpoint", run_dir / "checkpoint.ckpt", "--data", path]
        else:
            argv = [stage, "--input", path]
        out = tmp_path / "out"
        assert run(*argv, *flags, "--out-dir", out) == code
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
    @pytest.mark.parametrize("stage, module, work", [
        ("synth", dataset, "synthesize"),
        ("select", cfsgb, "run_cfsgb"),
        ("meta-train", maml, "meta_train"),
        ("evaluate", maml, "meta_evaluate"),
    ], ids=["synth", "select", "meta-train", "evaluate"])
    def test_out_dir_in_a_files_place_exits_2_before_the_work(
            self, tmp_path, trained, monkeypatch, capsys, stage, module, work, under):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(module, work, refuse)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / "sub" if under else afile
        if stage == "synth":
            argv = synth_args(out)
        else:
            argv = [*STAGE_ARGV[stage](*trained), "--out-dir", out]
        before = sorted(tmp_path.iterdir())
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: output directory {out} is a file or lies under one\n"
        assert sorted(tmp_path.iterdir()) == before and afile.read_text() == "kept"

    # per stage: flags of a first run, flags of a second run that change its
    # earlier outputs, and a saver of a later output made to fail
    @pytest.mark.parametrize("stage, first, second, module, saver", [
        ("select", ["--top-k", 3], ["--top-k", 8], dataset, "save_binary"),
        ("meta-train", ["--seed", 3], ["--seed", 4], maml, "save_checkpoint"),
        ("evaluate", [], ["--threshold", 0.3], metrics, "save_roc_csv"),
    ], ids=["select", "meta-train", "evaluate"])
    def test_failed_save_replaces_no_output(self, tmp_path, trained, small_config,
                                            monkeypatch, capsys, stage, first, second,
                                            module, saver):
        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        out = tmp_path / "out"
        argv = [*STAGE_ARGV[stage](*trained), "--config", small_config, "--out-dir", out]
        assert run(*argv, *first) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(module, saver, disk_full)
        assert run(*argv, *second) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert list(out.glob("*.tmp")) == []

    def test_output_dir_precedence(self, tmp_path, trained, monkeypatch):
        # --out-dir, then the config's output_dir, then the working directory
        flag, conf, cwd = dirs = [tmp_path / d for d in ("flag", "conf", "cwd")]
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(with_entry(None, "output_dir", str(conf))))
        argv = STAGE_ARGV["evaluate"](*trained)
        for extra, expected in [
            (["--config", config, "--out-dir", flag], flag),
            (["--config", config], conf),
            ([], cwd),
        ]:
            assert run(*argv, *extra) == 0
            assert [d for d in dirs if (d / "metrics_report.json").exists()] == [expected]
            (expected / "metrics_report.json").unlink()

    def test_int_for_a_float_and_null_for_an_optional_accepted(self, tmp_path, trained):
        data, _ = trained
        cfg = with_entry("gbdt", "learning_rate", 1)
        cfg["selection"]["top_k"] = None
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
            assert set(documented) == set(cli._sections()[name]), name
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
                    assert key in cli._sections()[section], (stage, action.option_strings)
                    flags += 1
        assert flags > 0

    def test_sections_are_the_fields_of_the_types_they_build(self):
        # the schema is written out in cli, apart from the code that runs it
        sections = cli._sections()
        params = list(inspect.signature(cfsgb.run_cfsgb).parameters)
        assert params[3:] == ["tau", "top_k"]
        hints = typing.get_type_hints(cfsgb.run_cfsgb)
        assert sections["selection"] == {key: hints[key] for key in ("tau", "top_k")}
        built = {
            "chunking": [cfsgb.ChunkSpec],
            "gbdt": [gbdt.GbdtConfig],
            "split": [dataset.SplitSpec],
            "maml": [maml.MamlConfig, maml.MlpArchitecture],
        }
        assert set(sections) == {"selection", *built}
        for name, types in built.items():
            expected = {
                f.name: typing.get_type_hints(t)[f.name]
                for t in types
                for f in dataclasses.fields(t)
                if f.name not in ("seed", "input_dim")
            }
            assert sections[name] == expected, name

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

    def test_evaluate_config_without_task_sizes_keeps_the_checkpoints(self, tmp_path):
        # the task sizes come from flags at meta-train, so only the
        # checkpoint holds them; the defaults' 100-row task would exceed the
        # 74-row test pool
        cfg = copy.deepcopy(SMALL_CONFIG)
        for key in ("samples_per_task", "support_size", "query_size"):
            del cfg["maml"][key]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        data_dir = tmp_path / "d"
        assert run(*synth_args(data_dir, n=300, fmt="bin")) == 0
        run_dir = tmp_path / "run"
        assert run("meta-train", "--config", config, "--input", data_dir / "synthetic.bin",
                   "--samples-per-task", 40, "--support-size", 20, "--query-size", 20,
                   "--out-dir", run_dir) == 0
        base = ["evaluate", "--checkpoint", run_dir / "checkpoint.ckpt", "--data",
                run_dir / "test_pool.bin"]
        bare, with_config = tmp_path / "bare", tmp_path / "with_config"
        assert run(*base, "--out-dir", bare) == 0
        assert run(*base, "--config", config, "--out-dir", with_config) == 0
        for name in ("metrics_report.json", "roc.csv"):
            assert (bare / name).read_bytes() == (with_config / name).read_bytes(), name

    @pytest.mark.parametrize("entry, named", [
        ({"hidden_dims": [8]}, "maml.hidden_dims"),
        ({"hidden_dims": [8], "dropout_rate": 0.5}, "maml.hidden_dims"),
        ({"dropout_rate": 0.5}, "maml.dropout_rate"),
    ], ids=["hidden_dims", "both", "dropout_rate"])
    def test_evaluate_config_architecture_must_match_the_checkpoints(self, tmp_path, trained,
                                                                    capsys, entry, named):
        # the checkpoint's 8 -> 4 architecture is evaluated, never the config's
        _, run_dir = trained
        cfg = copy.deepcopy(SMALL_CONFIG)
        cfg["maml"].update(entry)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run("evaluate", "--checkpoint", run_dir / "checkpoint.ckpt", "--data",
                   run_dir / "test_pool.bin", "--config", path, "--out-dir", out)
        assert code == 2
        assert f"config key {named!r} differs from the checkpoint's" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_json_exits_2(self, tmp_path, capsys):
        # a real input, so the config is read: a missing one also exits 2
        cfg, data, out = tmp_path / "broken.json", tmp_path / "x.csv", tmp_path / "out"
        cfg.write_text("{not json")
        data.write_text(csv_text([0, 1] * 20), encoding="utf-8")
        code = run("select", "--config", cfg, "--input", data, "--out-dir", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg} is not valid JSON: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_json_array_exits_2(self, tmp_path, capsys):
        cfg, data, out = tmp_path / "list.json", tmp_path / "x.csv", tmp_path / "out"
        cfg.write_text(json.dumps([SMALL_CONFIG]))
        data.write_text(csv_text([0, 1] * 20), encoding="utf-8")
        code = run("select", "--config", cfg, "--input", data, "--out-dir", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: config {cfg} must be a JSON object\n"
        assert not out.exists()

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

    def test_removed_k_flag_rejected(self, capsys):
        # one chunking rule: size p and overlap q, no forced chunk count
        with pytest.raises(SystemExit) as exc:
            run("select", "--input", "x.csv", "--tau", "0.01", "--k", 3)
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    def test_derive_seed_stable(self):
        assert cli.derive_seed(7, "select") == cli.derive_seed(7, "select")
        assert cli.derive_seed(7, "select") != cli.derive_seed(7, "split")
        assert cli.derive_seed(7, "select") != cli.derive_seed(8, "select")

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**70])
    @pytest.mark.parametrize("stage", ["split", "meta-train"])
    def test_derive_seed_is_the_top_of_the_oracle_key(self, seed, stage):
        assert cli.derive_seed(seed, stage) == key_of(seed, *stage.encode("utf-8")) >> 32
        assert 0 <= cli.derive_seed(seed, stage) < 2**32


# Under PYTHONDONTWRITEBYTECODE=1 a stage compiles every module it imports;
# numpy.random loads secrets, hmac and hashlib, which maps libcrypto, and
# numpy.ma costs about 1 MB; each stage should pay only for its own code.
STAGE_CHILD = """
import json, sys
from melemad import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump([code, sorted(sys.modules)], fh)
"""

# numpy.random and the modules it loads: every stage draws from the counter
# keys in dataset instead
RANDOM = {"numpy.random", "secrets", "hashlib", "_hashlib"}

# per stage: modules it must load (so it ran), modules it must not load
STAGE_MODULES = {
    "synth": ({"melemad.dataset"},
              {"melemad.cfsgb", "melemad.gbdt", "melemad.maml", "melemad.metrics", "numpy.ma",
               *RANDOM}),
    "select": ({"melemad.cfsgb", "melemad.gbdt"},
               {"melemad.maml", "melemad.metrics", "numpy.ma", *RANDOM}),
    "meta-train": ({"melemad.maml"},
                   {"melemad.cfsgb", "melemad.gbdt", "melemad.metrics", "numpy.ma", *RANDOM}),
    "evaluate": ({"melemad.maml", "melemad.metrics"},
                 {"melemad.cfsgb", "melemad.gbdt", "numpy.ma", *RANDOM}),
}


def _child(*argv, code=0):
    """Run python with argv in a fresh process that writes no bytecode and
    must exit with code; returns its stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *map(str, argv)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    return done.stderr


@pytest.fixture(scope="module")
def stage_modules(tmp_path_factory):
    """Each stage's exit code and sys.modules, each run in its own process
    through cli.main on a small pipeline."""
    tmp = tmp_path_factory.mktemp("stages")
    config = tmp / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    data, out = tmp / "data", tmp / "out"
    common = ["--config", config, "--out-dir", out]
    argvs = {
        "synth": synth_args(data, fmt="bin"),
        "select": ["select", "--input", data / "synthetic.bin", *common],
        "meta-train": ["meta-train", "--input", data / "synthetic.bin", *common],
        "evaluate": ["evaluate", "--checkpoint", out / "checkpoint.ckpt",
                     "--data", out / "test_pool.bin", *common],
    }
    loaded = {}
    for stage, argv in argvs.items():
        record = tmp / f"{stage}.json"
        _child("-c", STAGE_CHILD, record, *argv)
        loaded[stage] = json.loads(record.read_text())
    return loaded


def _modules_after(tmp_path, statement):
    """sys.modules of a fresh process after statement."""
    record = tmp_path / "modules.json"
    _child("-c", f"import json, sys\n{statement}\n"
           "json.dump(sorted(sys.modules), open(sys.argv[1], 'w'))", record)
    return json.loads(record.read_text())


@pytest.fixture(scope="module")
def numpy_modules(tmp_path_factory):
    """The modules a bare `import numpy` loads: a numpy that loads one of
    them itself waives it from every stage's unused set."""
    return set(_modules_after(tmp_path_factory.mktemp("numpy"), "import numpy"))


class TestStageModules:
    def test_importing_the_package_loads_no_module(self, tmp_path):
        modules = _modules_after(tmp_path, "import melemad")
        assert "melemad" in modules
        assert [m for m in modules if m.startswith("melemad.")] == []

    @pytest.mark.parametrize("stage", sorted(STAGE_MODULES))
    def test_a_stage_loads_only_the_modules_it_runs(self, stage_modules, numpy_modules, stage):
        code, modules = stage_modules[stage]
        assert code == 0
        needed, unused = STAGE_MODULES[stage]
        assert needed <= set(modules)
        unused = unused - numpy_modules
        assert unused.isdisjoint(modules), sorted(unused & set(modules))
