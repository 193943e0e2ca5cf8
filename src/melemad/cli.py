"""Command-line driver: synth, select, meta-train, evaluate.

One JSON config file (sections: chunking, gbdt, selection, split, maml) plus
per-field flag overrides. Every stage seeds its randomness from the global
seed hashed with the stage name, writes outputs to a temp file and renames on
success, and exits 0 on success, 1 on runtime failure, 2 on validation
failure.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import cfsgb, dataset, gbdt, maml, metrics
from .errors import (
    BadMagic,
    MelemadError,
    TruncatedFile,
    ValidationError,
)

DEFAULT_CONFIG: dict = {
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
        "dropout_in_adapt": True,
        "hidden_dims": [64, 32, 16],
        "dropout_rate": 0.2,
    },
}


def derive_seed(seed: int, stage: str) -> int:
    """Stable per-stage seed: sha256 of "<seed>:<stage>" truncated to 32 bits."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    text = Path(path).read_text(encoding="utf-8")
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    paths = {
        "seed": ("seed",),
        "p": ("chunking", "p"),
        "q": ("chunking", "q"),
        "k": ("chunking", "k"),
        "n_trees": ("gbdt", "n_trees"),
        "max_depth": ("gbdt", "max_depth"),
        "learning_rate": ("gbdt", "learning_rate"),
        "min_samples_leaf": ("gbdt", "min_samples_leaf"),
        "tau": ("selection", "tau"),
        "top_k": ("selection", "top_k"),
        "train_fraction": ("split", "train_fraction"),
        "alpha": ("maml", "alpha"),
        "beta": ("maml", "beta"),
        "iterations": ("maml", "outer_iterations"),
        "tasks_per_batch": ("maml", "tasks_per_meta_batch"),
        "samples_per_task": ("maml", "samples_per_task"),
        "support_size": ("maml", "support_size"),
        "query_size": ("maml", "query_size"),
        "inner_steps": ("maml", "inner_steps"),
        "first_order": ("maml", "first_order"),
    }
    for attr, keys in paths.items():
        value = getattr(args, attr, None)
        if value is None:
            continue
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return cfg


def _out_dir(args: argparse.Namespace, cfg: dict) -> Path:
    out = args.out_dir or cfg.get("output_dir") or os.environ.get("MELEMAD_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _atomic_save(path: Path, saver) -> None:
    """Run saver(tmp_path) then rename over the target.

    The temp file sits next to the target under a per-process name, and is
    removed if the saver or the rename fails.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        saver(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_dataset(path: str, label_column: str = "label") -> dataset.LabeledDataset:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"input file not found: {p}")
    if p.suffix.lower() == ".csv":
        return dataset.load_csv(p, label_column)
    return dataset.load_binary(p)


def _chunk_spec(cfg: dict) -> cfsgb.ChunkSpec:
    section = cfg["chunking"]
    return cfsgb.ChunkSpec(p=section["p"], q=section["q"], explicit_k=section["k"])


def _gbdt_config(cfg: dict) -> gbdt.GbdtConfig:
    section = cfg["gbdt"]
    return gbdt.GbdtConfig(
        n_trees=section["n_trees"],
        max_depth=section["max_depth"],
        learning_rate=section["learning_rate"],
        min_samples_leaf=section["min_samples_leaf"],
    )


def _maml_config(cfg: dict, seed: int) -> maml.MamlConfig:
    section = cfg["maml"]
    return maml.MamlConfig(
        alpha=section["alpha"],
        beta=section["beta"],
        outer_iterations=section["outer_iterations"],
        tasks_per_meta_batch=section["tasks_per_meta_batch"],
        samples_per_task=section["samples_per_task"],
        support_size=section["support_size"],
        query_size=section["query_size"],
        inner_steps=section["inner_steps"],
        first_order=section["first_order"],
        dropout_in_adapt=section["dropout_in_adapt"],
        seed=seed,
    )


def _architecture(cfg: dict, input_dim: int) -> maml.MlpArchitecture:
    section = cfg["maml"]
    return maml.MlpArchitecture(
        input_dim=input_dim,
        hidden_dims=tuple(section["hidden_dims"]),
        dropout_rate=section["dropout_rate"],
    )


def cmd_synth(args: argparse.Namespace) -> int:
    spec = dataset.SyntheticSpec(
        n=args.n,
        m=args.m,
        informative=args.informative,
        noise_sigma=args.noise_sigma,
        class_balance=args.balance,
        seed=args.seed if args.seed is not None else 0,
    )
    out = _out_dir(args, {})
    ds, informative = dataset.synthesize(spec)
    if args.format == "csv":
        _atomic_save(out / "synthetic.csv", lambda p: dataset.save_csv(ds, p))
        data_path = out / "synthetic.csv"
    else:
        _atomic_save(out / "synthetic.bin", lambda p: dataset.save_binary(ds, p))
        data_path = out / "synthetic.bin"
    truth = json.dumps({"informative_indices": [int(i) for i in informative]}, sort_keys=True)
    _atomic_save(out / "informative.json", lambda p: p.write_text(truth + "\n", encoding="utf-8"))
    print(f"wrote {data_path} ({ds.n} rows, {ds.m} features) and informative.json")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    chunk_spec = _chunk_spec(cfg)
    gbdt_cfg = _gbdt_config(cfg)
    ds = _load_dataset(args.input, args.label_column)

    selected, projected, report = cfsgb.run_cfsgb(
        ds,
        chunk_spec,
        gbdt_cfg,
        cfg["selection"]["tau"],
        threads=args.threads,
        top_k=cfg["selection"]["top_k"],
    )
    tau = selected.threshold_used

    out = _out_dir(args, cfg)
    _atomic_save(out / "selected_features.json", lambda p: cfsgb.save_selection(selected, p))
    _atomic_save(out / "projected.bin", lambda p: dataset.save_binary(projected, p))
    report_json = json.dumps(
        {
            "k": report.k,
            "chunk_sizes": report.chunk_sizes,
            "chunk_selected_counts": report.chunk_selected_counts,
            "r": report.r,
            "tau": tau,
            "seconds_per_stage": report.seconds_per_stage,
        },
        sort_keys=True,
        indent=2,
    )
    _atomic_save(
        out / "cfsgb_report.json",
        lambda p: p.write_text(report_json + "\n", encoding="utf-8"),
    )
    print(f"selected {selected.r}/{ds.m} features across {report.k} chunks (tau={tau:g})")
    return 0


def cmd_meta_train(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    seed = cfg["seed"]
    split_spec = dataset.SplitSpec(
        train_fraction=cfg["split"]["train_fraction"],
        stratified=cfg["split"]["stratified"],
        seed=derive_seed(seed, "split"),
    )
    maml_cfg = _maml_config(cfg, derive_seed(seed, "meta-train"))
    ds = _load_dataset(args.input, args.label_column)
    arch = _architecture(cfg, ds.m)

    train_pool, test_pool = dataset.stratified_split(ds, split_spec)
    scaler = dataset.fit_scaler(train_pool)
    train_pool = dataset.apply_scaler(train_pool, scaler)
    test_pool = dataset.apply_scaler(test_pool, scaler)

    initial = None
    start_iteration = 0
    if args.resume:
        initial, _, start_iteration = maml.load_checkpoint(args.resume)
        if initial.arch != arch:
            raise ValidationError("checkpoint architecture does not match config")

    params, log = maml.meta_train(
        train_pool,
        maml_cfg,
        arch=arch,
        initial=initial,
        start_iteration=start_iteration,
        threads=args.threads,
    )
    final_iteration = start_iteration + maml_cfg.outer_iterations

    out = _out_dir(args, cfg)
    _atomic_save(out / "scaler.json", lambda p: dataset.save_scaler(scaler, p))
    _atomic_save(out / "test_pool.bin", lambda p: dataset.save_binary(test_pool, p))
    _atomic_save(
        out / "checkpoint.ckpt",
        lambda p: maml.save_checkpoint(p, params, maml_cfg, final_iteration),
    )
    _atomic_save(out / "train_log.csv", lambda p: log.save_csv(p))
    last_loss = log.meta_loss[-1] if log.meta_loss else float("nan")
    print(
        f"meta-trained to iteration {final_iteration} (last meta-loss {last_loss:.4f}); "
        f"wrote checkpoint.ckpt, train_log.csv, scaler.json, test_pool.bin"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    params, ckpt_cfg, _ = maml.load_checkpoint(args.checkpoint)
    cfg = _apply_overrides(load_config(args.config), args)
    if args.config is not None:
        maml_cfg = _maml_config(cfg, ckpt_cfg.seed)
    else:
        # no config file: start from the checkpoint's embedded config and
        # apply any flag overrides on top
        overrides = {
            name: getattr(args, name)
            for name in ("alpha", "support_size", "query_size", "samples_per_task")
            if getattr(args, name, None) is not None
        }
        maml_cfg = replace(ckpt_cfg, **overrides) if overrides else ckpt_cfg
    test_pool = _load_dataset(args.data, args.label_column)

    probs, labels = maml.meta_evaluate(params, test_pool, maml_cfg, episodes=args.episodes)
    report = metrics.compute_report(probs, labels, threshold=args.threshold)

    out = _out_dir(args, cfg)
    _atomic_save(
        out / "metrics_report.json",
        lambda p: p.write_text(metrics.report_to_json(report), encoding="utf-8"),
    )
    _atomic_save(out / "roc.csv", lambda p: metrics.save_roc_csv(report, p))
    print(
        f"accuracy={report.accuracy:.4f} precision={report.precision:.4f} "
        f"recall={report.recall:.4f} f1={report.f1:.4f} "
        f"mcc={report.mcc:.4f} auc={report.auc:.4f}"
    )
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out-dir", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--label-column", default="label")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="melemad")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--m", type=int, required=True)
    p_synth.add_argument("--informative", type=int, required=True)
    p_synth.add_argument("--noise-sigma", type=float, default=0.5)
    p_synth.add_argument("--balance", type=float, default=0.5)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--format", choices=("csv", "bin"), default="csv")
    p_synth.add_argument("--out-dir", default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_select = sub.add_parser("select", help="chunk-wise feature selection")
    _add_common(p_select)
    p_select.add_argument("--input", required=True, help="dataset file (.csv or .bin)")
    p_select.add_argument("--p", type=float, default=None)
    p_select.add_argument("--q", type=float, default=None)
    p_select.add_argument("--k", type=int, default=None)
    p_select.add_argument("--tau", type=float, default=None)
    p_select.add_argument("--top-k", dest="top_k", type=int, default=None)
    p_select.add_argument("--n-trees", dest="n_trees", type=int, default=None)
    p_select.add_argument("--max-depth", dest="max_depth", type=int, default=None)
    p_select.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p_select.add_argument(
        "--min-samples-leaf", dest="min_samples_leaf", type=int, default=None
    )
    p_select.set_defaults(func=cmd_select)

    p_train = sub.add_parser("meta-train", help="split, scale, and meta-train")
    _add_common(p_train)
    p_train.add_argument("--input", required=True, help="dataset file (.csv or .bin)")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--alpha", type=float, default=None)
    p_train.add_argument("--beta", type=float, default=None)
    p_train.add_argument("--iterations", type=int, default=None)
    p_train.add_argument("--tasks-per-batch", dest="tasks_per_batch", type=int, default=None)
    p_train.add_argument(
        "--samples-per-task", dest="samples_per_task", type=int, default=None
    )
    p_train.add_argument("--support-size", dest="support_size", type=int, default=None)
    p_train.add_argument("--query-size", dest="query_size", type=int, default=None)
    p_train.add_argument("--inner-steps", dest="inner_steps", type=int, default=None)
    p_train.add_argument(
        "--first-order",
        dest="first_order",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p_train.add_argument("--train-fraction", dest="train_fraction", type=float, default=None)
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")
    p_train.set_defaults(func=cmd_meta_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on a test pool")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="test pool file (.csv or .bin)")
    p_eval.add_argument("--threshold", type=float, default=0.5)
    p_eval.add_argument("--episodes", type=int, default=None)
    p_eval.add_argument("--alpha", type=float, default=None)
    p_eval.add_argument("--support-size", dest="support_size", type=int, default=None)
    p_eval.add_argument("--query-size", dest="query_size", type=int, default=None)
    p_eval.add_argument(
        "--samples-per-task", dest="samples_per_task", type=int, default=None
    )
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError, BadMagic, TruncatedFile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MelemadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
