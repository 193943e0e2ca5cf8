"""The benchmark's traced runs still see the layers they time.

perfbench/traced_cli.py wraps melemad functions by name, and run.py's
layer_values reads the span tree by name: the forward, backward, sample_task
and inner_adapt calls under maml.meta_train, and the inner_adapt calls under
maml.meta_evaluate. Meta-training makes two passes a stack: the support
backward inside inner_adapt and the query forward, which also returns the
query gradient. A change to melemad.maml that stops calling them through
the module breaks a traced benchmark run; these tests fail first. They run
traced_cli.py as it is, in a child process, on a small pipeline.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from melemad import cli

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
    out = tmp / "run"
    train = traced(tmp / "train.json", "meta-train", "--config", config,
                   "--input", tmp / "d" / "synthetic.bin", "--out-dir", out)
    evaluate = traced(tmp / "evaluate.json", "evaluate", "--checkpoint", out / "checkpoint.ckpt",
                      "--data", out / "test_pool.bin", "--out-dir", out)
    return train, evaluate


def test_meta_train_layers_under_meta_train(trees):
    train, _ = trees
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
    train, _ = trees
    assert ("maml.backward", "maml.meta_train") not in {(name, parent)
                                                        for name, parent, _ in train}
    under = [name for name, _, root in train if root == "maml.meta_train"]
    assert under.count("maml.forward") == under.count("maml.inner_adapt") > 0


def test_evaluate_adapts_under_meta_evaluate(trees):
    _, evaluate = trees
    adapt_parents = {parent for name, parent, _ in evaluate if name == "maml.inner_adapt"}
    assert adapt_parents == {"maml.meta_evaluate"}
