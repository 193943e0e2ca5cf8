"""The benchmark's traced runs still see the layers they time.

perfbench/traced_cli.py wraps melemad functions by name, and run.py's
layer_values reads the span tree by name: the gbdt.train calls under
cfsgb.run_cfsgb, one a chunk, and cfsgb.threshold_for_top_k in selection;
the forward, backward, sample_task and inner_adapt calls under
maml.meta_train, and the inner_adapt calls under maml.meta_evaluate; and
evaluate's dataset.load_binary and metrics.compute_report, whose times and
counts it divides by. Meta-training makes two passes a stack: the support
backward inside inner_adapt and the query forward, which also returns the
query gradient. A change to a stage that stops calling them through their
module breaks a traced benchmark run; these tests fail first. They run
traced_cli.py as it is, in a child process, on a small pipeline.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from melemad import cfsgb, cli

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"

CONFIG = {
    "seed": 3,
    "split": {"train_fraction": 0.75},
    "maml": {
        "outer_iterations": 3,
        "tasks_per_meta_batch": 2,
        "samples_per_task": 40,
        "support_size": 20,
        "query_size": 20,
        "hidden_dims": [8, 4],
    },
}


def traced(spans_path, *argv):
    """Run one CLI command under traced_cli.py; returns its span tree as
    (name, parent name, root name) per span."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, str(TRACED_CLI), str(spans_path), *map(str, argv)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    spans = json.loads(Path(spans_path).read_text())["spans"]
    names = [span[0] for span in spans]
    roots = []
    for name, _, _, parent, _ in spans:
        roots.append(name if parent < 0 else roots[parent])
    return [(name, names[parent] if parent >= 0 else None, root)
            for (name, _, _, parent, _), root in zip(spans, roots)]


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    config = tmp / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert cli.main(["synth", "--n", "300", "--m", "6", "--informative", "3", "--seed", "5",
                     "--format", "bin", "--out-dir", str(tmp / "d")]) == 0
    select = traced(tmp / "select.json", "select", "--config", config, "--top-k", 3,
                    "--input", tmp / "d" / "synthetic.bin", "--out-dir", tmp / "sel")
    out = tmp / "run"
    train = traced(tmp / "train.json", "meta-train", "--config", config,
                   "--input", tmp / "d" / "synthetic.bin", "--out-dir", out)
    evaluate = traced(tmp / "evaluate.json", "evaluate", "--checkpoint", out / "checkpoint.ckpt",
                      "--data", out / "test_pool.bin", "--out-dir", out)
    return select, train, evaluate


def test_select_trains_once_a_chunk_under_run_cfsgb(trees):
    select, _, _ = trees
    trainings = [(parent, root) for name, parent, root in select if name == "gbdt.train"]
    # CONFIG leaves chunking at its defaults: 300 rows in 6 chunks
    assert trainings == [("cfsgb.run_cfsgb", "cfsgb.run_cfsgb")] * len(
        cfsgb.make_chunks(300, cfsgb.ChunkSpec()))
    assert [(name, parent) for name, parent, _ in select if name.startswith("cfsgb.")] == [
        ("cfsgb.run_cfsgb", None), ("cfsgb.threshold_for_top_k", "cfsgb.run_cfsgb")]


def test_meta_train_layers_under_meta_train(trees):
    _, train, _ = trees
    under = {name for name, _, root in train if root == "maml.meta_train"}
    assert {"maml.forward", "maml.backward", "maml.sample_task", "maml.inner_adapt"} <= under
    # one sample_task call per episode: 3 iterations of 2
    assert sum(name == "maml.sample_task" for name, _, _ in train) == 6
    # the support passes run inside the inner loop, the query passes beside it
    parents = {(name, parent) for name, parent, _ in train}
    assert ("maml.inner_adapt", "maml.meta_train") in parents
    assert ("maml.backward", "maml.inner_adapt") in parents
    assert ("maml.forward", "maml.meta_train") in parents


def test_meta_train_makes_two_passes_per_stack(trees):
    # first-order: the support backward inside inner_adapt and one query
    # forward that also returns the query gradient, so no query backward
    _, train, _ = trees
    assert ("maml.backward", "maml.meta_train") not in {(name, parent)
                                                        for name, parent, _ in train}
    under = [name for name, _, root in train if root == "maml.meta_train"]
    assert under.count("maml.forward") == under.count("maml.inner_adapt") > 0


def test_evaluate_adapts_under_meta_evaluate(trees):
    _, _, evaluate = trees
    adapt_parents = {parent for name, parent, _ in evaluate if name == "maml.inner_adapt"}
    assert adapt_parents == {"maml.meta_evaluate"}


def test_evaluate_loads_and_scores_through_their_modules(trees):
    # dataset.load_mb_per_s divides by the load's time, metrics.scored_rows
    # reads the report's span
    _, _, evaluate = trees
    top = [name for name, parent, _ in evaluate if parent is None]
    assert top == ["dataset.load_binary", "maml.meta_evaluate", "metrics.compute_report"]
