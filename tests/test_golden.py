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
        "beta": 0.01,
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
SELECTED = [0, 4, 5, 9, 11, 12, 13, 29]
PER_CHUNK = [[5, 9, 11, 12, 13, 29], [5, 9, 11, 12, 13], [0, 4, 5, 9, 11, 13]]
# per chunk, per tree: the split features of its internal nodes, in node order
SPLIT_FEATURES = [[[5, 11, 11], [9, 11, 11], [9, 13, 5], [5, 12, 13], [13, 11, 9], [9, 11, 29]],
                  [[9, 11, 13], [5, 13, 9], [9, 13, 11], [5, 13, 9], [13, 9, 9], [9, 12, 11]],
                  [[5, 13, 11], [9, 11, 0], [9, 5], [9, 4, 11], [5, 13], [5, 13]]]
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
THRESHOLDS = [[[-0.03632149287, 1.251747906, -0.6833061278],
               [0.004984032363, 0.9062951207, -0.44354406],
               [0.6556452215, -1.367782474, -0.1244023554],
               [0.5008611828, 0.627582401, 0.7803648114],
               [-0.2012472637, -0.6356831193, 1.547835946],
               [0.6556452215, 0.8694745898, -1.347585678]],
              [[0.05231820978, 0.5805093646, 0.3387800977],
               [0.02732280781, -0.6276756823, -0.82249102],
               [0.2801826745, -1.166040957, -0.7966735661],
               [0.2946667373, -1.220766008, -0.9464534819],
               [-0.1261401363, -1.446831852, 0.8976681828],
               [0.05231820978, 0.4005371034, -0.9688937068]],
              [[0.04163191421, -0.325576961, -0.4020918161],
               [0.1833275557, -0.1257756632, 1.239416242], [0.4891806096, 0.8762594163],
               [-0.222952418, 1.36681813, -0.6768787205], [0.7302770317, -1.386186957],
               [0.7302770317, -1.386186957]]]
LEAVES = [[[0.8946887859, -1.943627373, 1.894643723, -0.696571485],
           [0.3142154588, -1.326306929, 1.349272375, -0.4315561883],
           [-0.1799684929, -1.154550169, -0.7197040359, 1.155343642],
           [-1.012617798, 0.3008921737, 1.057087154, -0.3258984543],
           [0.9931280837, -0.4554074586, 0.3288126303, -0.8959828945],
           [0.176868213, -0.9079622497, 0.9192207148, -0.4050391327]],
          [[-1.946308725, 0.6666666667, 1.945205479, -0.2222222222],
           [0.8844721139, -1.33726232, -0.1373398172, 1.357329338],
           [0.1965888921, -1.151527775, -0.7783944378, 1.158513526],
           [0.3922665381, -1.047978298, -0.6008812759, 1.053057557],
           [0.9712044922, -0.4686759872, 0.3017404601, -0.9551768538],
           [0.3233706828, -0.8676271366, 0.8880145953, -0.1547893485]],
          [[-0.1301316809, -1.730013106, 0.3160340821, 2.019156096],
           [-1.300747376, 0.03469880636, 1.362794008, 0.1870838843],
           [-1.100431509, 1.132871995, -0.6153499575],
           [0.1832994139, -0.9530281191, 0.9680744436, 0.1385078278],
           [-0.8857267126, -0.4463937478, 0.9291040782],
           [-0.7860823069, -0.3905492059, 0.8230849727]]]
PARAMS_HEAD = [0.1916792989, 0.2054408342, -0.4263737202, 0.5027318597, -0.5312513709,
               0.4403585196, -0.0115679726, 0.0132092163]
PARAMS_NORM = 3.887769774
LOSSES = [0.6597118914, 0.6255606455, 0.6092880431, 0.5985346385, 0.5730669064]
ACCURACIES = [0.6166666667, 0.8833333333, 0.8833333333, 0.9, 0.9666666667]
CONFUSION = {"fn": 1, "fp": 3, "tn": 42, "tp": 44}
METRICS = {"accuracy": 0.9555555556,
           "auc": 0.9980246914,
           "f1": 0.9565217391,
           "mcc": 0.9120123093,
           "precision": 0.9361702128,
           "recall": 0.9777777778}


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
