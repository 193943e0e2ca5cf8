"""Run one melemad CLI command with spans around the calls into each layer.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <melemad cli argv...>

The wrappers replace public functions on the melemad modules before the CLI
runs, so every call the program makes through a module attribute is timed;
the program's own files are not changed. Spans (name, start, end, parent,
attributes) are kept in memory and written to SPANS_JSON when the command
ends, together with the time taken to import melemad.cli. The exit code is
the CLI's.
"""
from __future__ import annotations

import json
import os
import sys
import time

_t0 = time.perf_counter()
import melemad.cli as cli  # noqa: E402
_IMPORT_S = time.perf_counter() - _t0

from melemad import cfsgb, dataset, gbdt, maml, metrics  # noqa: E402


class Tracer:
    """Span recorder for one single-threaded process.

    Each span is [name, start, end, parent index or -1, attrs or None].
    The parent is the innermost span open when the call began, so the
    benchmark must run the program with --threads 1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, module, name: str, attrs=None) -> None:
        fn = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        spans = self.spans
        stack = self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [label, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        setattr(module, name, traced)


def _rows(args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs["X"]
    return {"rows": int(X.shape[0])}


def _load(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _gbdt_train(args, kwargs, result):
    ds, cfg = args[0], args[1]
    internal = sum(int((tree.feature_index >= 0).sum()) for tree in result.trees)
    return {"cells": ds.n * ds.m * cfg.n_trees, "internal_nodes": internal}


def _run_cfsgb(args, kwargs, result):
    report = result[2]
    return {"chunks": report.k, "selected_r": report.r}


def _meta_train(args, kwargs, result):
    return {"iterations": len(result[1].iterations)}


def _meta_evaluate(args, kwargs, result):
    return {"pool_rows": int(args[1].n), "scored_rows": int(result[0].shape[0])}


def _compute_report(args, kwargs, result):
    return {"scored_rows": int(len(args[0]))}


def install(tracer: Tracer) -> None:
    for name in ("synthesize", "save_binary", "save_csv",
                 "stratified_split", "fit_scaler", "apply_scaler"):
        tracer.wrap(dataset, name)
    tracer.wrap(dataset, "load_binary", _load)
    tracer.wrap(dataset, "load_csv", _load)
    tracer.wrap(gbdt, "train", _gbdt_train)
    tracer.wrap(cfsgb, "run_cfsgb", _run_cfsgb)
    tracer.wrap(cfsgb, "threshold_for_top_k")
    tracer.wrap(maml, "meta_train", _meta_train)
    tracer.wrap(maml, "meta_evaluate", _meta_evaluate)
    tracer.wrap(maml, "sample_task")
    tracer.wrap(maml, "inner_adapt")
    tracer.wrap(maml, "backward", _rows)
    tracer.wrap(maml, "forward", _rows)
    tracer.wrap(metrics, "compute_report", _compute_report)


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_argv)
    finally:
        record = {
            "import_s": _IMPORT_S,
            "melemad_file": os.path.abspath(cli.__file__),
            "spans": tracer.spans,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
