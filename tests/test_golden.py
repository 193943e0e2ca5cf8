"""Golden values of one small synth -> select -> meta-train -> evaluate run,
in-process through cli.main, so a change to any output shows in this file's
diff. A change that moves outputs on purpose updates these pins in the same
commit.

Two kinds of value are pinned:
- exactly, what is integer or picked by the counter draws, which are integer
  arithmetic and hold on any host: the informative columns, the selection,
  each tree's split features, the split's rows, the episodes' rows and the
  dropout masks;
- within RTOL, what passes through np.log, np.cos, np.exp or BLAS, whose last
  bits can differ between CPUs: the synthetic matrix, the trees' thresholds
  and leaf values, the checkpoint's parameters, the training log and the
  metrics.
"""
import hashlib
import json

import numpy as np
import pytest

from melemad import cli, dataset, gbdt, maml

RTOL = 1e-6

SYNTH = ["synth", "--n", 600, "--m", 30, "--informative", 5, "--noise-sigma", 0.5,
         "--seed", 2, "--format", "bin"]
CONFIG = {
    "seed": 11,
    "chunking": {"p": 0.5, "q": 0.2},
    "gbdt": {"n_trees": 6, "max_depth": 2, "learning_rate": 0.5},
    "selection": {"top_k": 8},
    "split": {"train_fraction": 0.75},
    "maml": {
        "outer_iterations": 5,
        "tasks_per_meta_batch": 2,
        "samples_per_task": 60,
        "support_size": 30,
        "query_size": 30,
        "alpha": 0.01,
        # large enough that the 5 iterations learn: query accuracy leaves 0.5
        "beta": 0.03,
        "hidden_dims": [8, 4],
        "dropout_rate": 0.25,
    },
}


def digest(*arrays) -> str:
    """sha256 of the arrays' int64 (or packed bool) bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(np.packbits(a).tobytes() if a.dtype == bool else a.astype(np.int64).tobytes())
    return h.hexdigest()


def run_pipeline(tmp_path) -> dict:
    """Run the four stages through cli.main, recording the trees gbdt.train
    grows, the split's rows, the episodes maml.sample_task draws and the
    masks maml.dropout_mask makes; return them beside the stages' outputs."""
    seen = {"trees": [], "split": None, "episodes": [], "masks": []}
    train, split, sample, mask = (gbdt.train, dataset.stratified_split, maml.sample_task,
                                  maml.dropout_mask)

    def record_train(ds, cfg=None):
        model = train(ds, cfg)
        seen["trees"].append(model.trees)
        return model

    def record_split(ds, spec):
        rows = dataset.LabeledDataset(np.arange(ds.n)[:, None], ds.labels)
        seen["split"] = [part.features[:, 0].astype(int) for part in split(rows, spec)]
        return split(ds, spec)

    def record_sample(pool, cfg, key, task_index=0):
        episode = sample(pool, cfg, key, task_index)
        seen["episodes"].append((episode.support, episode.query))
        return episode

    def record_mask(arch, n_rows, keys, step):
        keep = mask(arch, n_rows, keys, step)
        seen["masks"].append(keep.copy())
        return keep

    config, data, out = tmp_path / "config.json", tmp_path / "data", tmp_path / "out"
    config.write_text(json.dumps(CONFIG))
    common = ["--config", config, "--out-dir", out]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gbdt, "train", record_train)
        mp.setattr(dataset, "stratified_split", record_split)
        mp.setattr(maml, "sample_task", record_sample)
        mp.setattr(maml, "dropout_mask", record_mask)
        for argv in ([*SYNTH, "--out-dir", data],
                     ["select", "--input", data / "synthetic.bin", *common],
                     ["meta-train", "--input", out / "projected.bin", *common],
                     ["evaluate", "--checkpoint", out / "checkpoint.ckpt",
                      "--data", out / "test_pool.bin", *common]):
            assert cli.main([str(a) for a in argv]) == 0
    seen["synthetic"] = dataset.load_binary(data / "synthetic.bin")
    seen["informative"] = json.loads((data / "informative.json").read_text())
    seen["selection"] = json.loads((out / "selected_features.json").read_text())
    seen["params"] = maml.load_checkpoint(out / "checkpoint.ckpt")[0].values
    seen["log"] = (out / "train_log.csv").read_text().splitlines()
    seen["metrics"] = json.loads((out / "metrics_report.json").read_text())
    return seen


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


# ------------------------------------------------------------- exact pins

INFORMATIVE = [5, 9, 11, 12, 13]
SELECTED = [0, 5, 9, 11, 12, 13]
PER_CHUNK = [[5, 9, 11, 12, 13], [5, 9, 11, 12, 13], [0, 5, 9, 11, 13]]
# per chunk, per tree: the split features of its internal nodes, in node order
SPLIT_FEATURES = [[[5, 11, 9], [9, 11, 11], [9, 11, 11], [13, 11, 9], [5, 9, 11], [12, 13, 5]],
                  [[9, 11, 13], [9, 12, 5], [5, 13, 9], [13, 9, 9], [5, 13, 12], [11, 9, 9]],
                  [[5, 13, 11], [9, 11, 0], [9, 12, 11], [5, 13], [9, 5], [5, 13]]]
SPLIT_COUNTS = (450, 150)
SPLIT_DIGEST = "a77daa2f9bf7c0eeabd483f8928ee89b6f46223027df5ab91a0b303cb0b7b729"
FIRST_EPISODE = ([143, 97, 29, 115, 191, 176, 25, 362, 116, 20, 407, 141, 310, 447, 196, 248, 373,
                  351, 159, 64, 61, 262, 406, 294, 77, 268, 26, 101, 253, 124],
                 [205, 228, 266, 288, 81, 363, 187, 67, 220, 414, 322, 0, 346, 392, 286, 51, 243,
                  375, 142, 231, 235, 85, 33, 41, 342, 109, 252, 95, 45, 177])
EPISODE_COUNT = 13
EPISODE_DIGEST = "6dfd74916b85d0de5e080fcd54f86c08469f63c30ff517887b40d3240f039989"
MASK_SHAPES = [[2, 30, 8], [2, 30, 8], [2, 30, 8], [2, 30, 8], [2, 30, 8], [3, 30, 8]]
MASK_DIGEST = "a3b5598231759a3bde5c4b1e4940fcb48a4af6a0b28bb3f61760a6a723632c74"

# ------------------------------------------------------ pins within RTOL

# synthetic.bin's cells [0, :4] and [599, -4:], and its sum of squares
SYNTHETIC_CELLS = [0.8139513135, 1.066237807, -1.065391183, 0.6333451271, -0.6404932737,
                   0.8522146344, 0.5618923306, -0.05010574684]
SYNTHETIC_SQUARES = 25274.26554
# per chunk, per tree: thresholds and leaf values, in node order
THRESHOLDS = [[[-0.05829112045, 1.251747906, -1.023553222],
               [-0.2454836443, 0.9062951207, -0.44354406],
               [0.7492273748, 0.8694745898, -0.6374372542],
               [-0.2012472637, -0.6356831193, 1.547835946],
               [0.5113171339, 0.7377198339, -0.6833061278],
               [0.7093741298, -1.443971038, -0.1244023554]],
              [[0.004126017913, 0.5805093646, 0.3387800977],
               [0.004126017913, 0.4005371034, -0.7421753705],
               [0.2946667373, -1.220766008, -0.9464534819],
               [-0.1835106388, -1.446831852, 0.8976681828],
               [-0.291841954, -0.5358102918, -0.6913972199],
               [0.004957791883, 0.9199364781, -1.23965925]],
              [[0.2150158882, -0.7704460621, -0.3459451944],
               [0.3028243631, 0.4665816128, 1.147518992],
               [-0.09089904651, -0.02466277406, -0.6768787205], [0.762571156, -1.364340425],
               [0.581777215, 0.7399066091], [0.762571156, -1.364340425]]]
LEAVES = [[[1.298393312, -1.893221501, 1.894275398, -0.696571485],
           [0.7489919833, -1.301372396, 1.342854337, -0.4388527374],
           [0.1404286004, -1.160593234, 1.14677854, -0.7020410123],
           [1.085495244, -0.5464786455, 0.3616034667, -0.9896821488],
           [0.224700178, -0.9661765408, 0.9922290067, -0.3244009578],
           [-0.0554153155, -0.951971567, -0.5502743938, 0.9117702301]],
          [[-1.946308725, 0.7692307692, 1.944827586, -0.2222222222],
           [0.815089286, -1.325590818, 1.343324005, -0.2531140764],
           [0.4823150667, -1.164277663, -0.7992314657, 1.166381034],
           [1.050887829, -0.6736695902, 0.3381157521, -1.037905467],
           [0.4076425504, -0.9469649658, 0.04223447542, 0.9611175653],
           [0.3238198897, -0.899963616, 0.904624507, -0.3429463091]],
          [[-0.3012552301, -1.724303884, -0.5762974438, 2.024962556],
           [-1.298330166, -0.07794672989, 1.35208144, -0.3789450953],
           [0.2622995526, -1.065800285, 1.11156057, 0.04538347215],
           [-0.9915841749, -0.5753367049, 1.051228889],
           [-0.8786104611, 0.8843671563, -0.4505372533],
           [-0.7899832814, -0.4271947536, 0.8248970422]]]
PARAMS_HEAD = [0.197741732, 0.2358520478, -0.6139076948, 0.4839615524, -0.5917120576,
               0.4339829087, -0.008000094444, -0.02663360536]
PARAMS_NORM = 3.802157772
LOSSES = [0.7107025836, 0.6350563206, 0.6213823015, 0.6054572844, 0.582422193]
ACCURACIES = [0.5, 0.5, 0.6333333333, 0.8666666667, 0.9666666667]
CONFUSION = {"fn": 0, "fp": 2, "tn": 43, "tp": 45}
METRICS = {"accuracy": 0.9777777778,
           "auc": 1.0,
           "f1": 0.9782608696,
           "mcc": 0.9565007146,
           "precision": 0.9574468085,
           "recall": 1.0}


class TestGolden:
    def test_informative_and_selection(self, seen):
        assert seen["informative"]["informative_indices"] == INFORMATIVE
        assert seen["selection"]["global_indices"] == SELECTED
        assert [c["indices"] for c in seen["selection"]["per_chunk"]] == PER_CHUNK

    def test_tree_split_features(self, seen):
        features = [[t.feature_index[t.feature_index >= 0].tolist() for t in trees]
                    for trees in seen["trees"]]
        assert features == SPLIT_FEATURES

    def test_split_rows(self, seen):
        train, test = seen["split"]
        assert (train.size, test.size) == SPLIT_COUNTS
        assert digest(train, test) == SPLIT_DIGEST

    def test_episode_rows(self, seen):
        episodes = seen["episodes"]
        assert [e.tolist() for e in episodes[0]] == [list(r) for r in FIRST_EPISODE]
        assert len(episodes) == EPISODE_COUNT
        assert digest(*(rows for e in episodes for rows in e)) == EPISODE_DIGEST

    def test_dropout_masks(self, seen):
        assert [list(m.shape) for m in seen["masks"]] == MASK_SHAPES
        assert digest(*seen["masks"]) == MASK_DIGEST

    def test_synthetic_matrix(self, seen):
        X = seen["synthetic"].features.astype(np.float64)
        cells = [*X[0, :4], *X[-1, -4:]]
        np.testing.assert_allclose(cells, SYNTHETIC_CELLS, rtol=RTOL)
        np.testing.assert_allclose(float((X * X).sum()), SYNTHETIC_SQUARES, rtol=RTOL)

    def test_tree_thresholds_and_leaves(self, seen):
        trees = seen["trees"]
        internal = [[t.threshold[t.feature_index >= 0] for t in ts] for ts in trees]
        leaves = [[t.leaf_value[t.feature_index < 0] for t in ts] for ts in trees]
        for got, want in ((internal, THRESHOLDS), (leaves, LEAVES)):
            assert [[len(v) for v in ts] for ts in got] == [[len(v) for v in ts] for ts in want]
            np.testing.assert_allclose(np.concatenate([v for ts in got for v in ts]),
                                       [x for ts in want for v in ts for x in v], rtol=RTOL)

    def test_checkpoint_parameters(self, seen):
        values = seen["params"].astype(np.float64)
        np.testing.assert_allclose(values[:8], PARAMS_HEAD, rtol=RTOL)
        np.testing.assert_allclose(np.linalg.norm(values), PARAMS_NORM, rtol=RTOL)

    def test_train_log(self, seen):
        rows = [line.split(",") for line in seen["log"][1:]]
        assert [int(r[0]) for r in rows] == list(range(len(LOSSES)))
        np.testing.assert_allclose([float(r[1]) for r in rows], LOSSES, rtol=RTOL)
        np.testing.assert_allclose([float(r[2]) for r in rows], ACCURACIES, rtol=RTOL)

    def test_metrics(self, seen):
        report = seen["metrics"]
        assert report["confusion"] == CONFUSION
        assert sorted(report) == sorted([*METRICS, "confusion"])
        for name, value in METRICS.items():
            np.testing.assert_allclose(report[name], value, rtol=RTOL, err_msg=name)
