"""Command-line driver: synth, select, meta-train, evaluate.

One JSON config file plus flag overrides. Each config section holds the
fields of the library types it builds, so every default lives on those
types, and each override flag's argparse dest is the config key it sets.
Every stage checks every section, and loads only the modules its command
runs: the schema's types come from config, and a command imports its stage
modules (cfsgb, gbdt, maml, metrics) when it runs.

Seeds: synth uses --seed as given, select draws no random numbers, and
evaluate reuses the checkpoint's seed. Only meta-train derives seeds, for
its split and its meta-training, from the top-level seed hashed with the
stage name (derive_seed).

Each stage (cmd_*) takes the flags, the resolved config (synth has none)
and the output directory, and returns its outputs, {file name: saver},
and its summary line. main makes the directory before the work and writes
the outputs after it (_commit): none is renamed until all are written, so
a stage that fails replaces none of them and removes the directories it
made. It exits 0 on success, 1 on runtime failure, 2 on validation failure
(among them an input path that is not a regular file, an output directory
that is a file or lies under one, an unknown config key, a config value of
the wrong type, a float that is not finite, or an architecture or train
fraction that differs from the checkpoint's).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

from . import dataset
from .errors import ValidationError, check_fields, not_utf8

# the keys outside the sections, with their types and defaults
_TOP_LEVEL = {"seed": (int, 0), "output_dir": (str | None, None)}
# fields the CLI sets (the per-stage seeds, the input width), never the config
_DERIVED = frozenset({"seed", "input_dim"})


def _fields(*classes) -> dict[str, object]:
    return {
        name: hint
        for t in classes
        for name, hint in typing.get_type_hints(t).items()
        if name not in _DERIVED
    }


@functools.cache
def _sections() -> dict[str, dict[str, object]]:
    """Each section's keys with their annotations: the fields of the types
    it builds, and for selection the keyword arguments tau and top_k of
    cfsgb.run_cfsgb (test_cli checks both). A key left out takes the
    default its type declares. Built on first use, from config, so that no
    stage loads another stage's modules to check its section."""
    from . import config

    return {
        "chunking": _fields(config.ChunkSpec),
        "gbdt": _fields(config.GbdtConfig),
        "selection": {"tau": float | None, "top_k": int | None},
        "split": _fields(dataset.SplitSpec),
        "maml": _fields(config.MamlConfig, config.MlpArchitecture),
    }


def derive_seed(seed: int, stage: str) -> int:
    """Stable per-stage seed: sha256 of "<seed>:<stage>" truncated to 32 bits."""
    # here, not at the top: hashlib maps libcrypto, and numpy.random loads it
    # in every stage but select, which this import keeps it out of
    import hashlib

    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def load_config(path: str | None) -> dict:
    """The config file (none: an empty one) as a dict with every top-level
    key and every section present. An unknown top-level key, or a section
    that is not a JSON object, raises ValidationError; _resolve_config
    checks the keys and values inside the sections."""
    user: dict = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise not_utf8(f"config {path}", exc) from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ValidationError(f"config {path} must be a JSON object")
    sections = _sections()
    unknown = set(user) - set(_TOP_LEVEL) - set(sections)
    if unknown:
        raise ValidationError(
            f"config {path} has unknown key(s) {sorted(unknown)}; "
            f"it accepts {sorted([*_TOP_LEVEL, *sections])}"
        )
    cfg = {key: user.get(key, default) for key, (_, default) in _TOP_LEVEL.items()}
    for name in sections:
        section = user.get(name, {})
        if not isinstance(section, dict):
            raise ValidationError(f"config {path}: section {name!r} must be a JSON object")
        cfg[name] = dict(section)
    return cfg


def _resolve_config(args: argparse.Namespace) -> dict:
    """The config file, then the config key each given flag names: its dest
    is "section.key", or a top-level key. Every key must be known, every
    value must fit the type of the field it sets, and the seed must be
    non-negative."""
    cfg = load_config(args.config)
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is not None and (section or key in _TOP_LEVEL):
            (cfg[section] if section else cfg)[key] = value
    top_level = {key: hint for key, (hint, _) in _TOP_LEVEL.items()}
    check_fields("config", {key: cfg[key] for key in top_level}, top_level)
    for name, hints in _sections().items():
        check_fields(f"config section {name!r}", cfg[name], hints)
    if cfg["seed"] < 0:
        raise ValidationError(f"config key 'seed' must be non-negative, got {cfg['seed']}")
    return cfg


def _build(cls, section: dict, **derived):
    """cls from the section's keys that are its fields, plus derived fields."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in {**section, **derived}.items() if k in names})


def _check_matches(where: str, section: str, built, stored,
                   skip: tuple[str, ...] = ()) -> None:
    """Raise ValidationError naming the first field outside skip in which
    built, from the config, differs from stored, a checkpoint's: 'seed' for
    the derived seed, '<section>.<field>' for any other."""
    for key, value in asdict(stored).items():
        if key not in skip and getattr(built, key) != value:
            name = key if key == "seed" else f"{section}.{key}"
            raise ValidationError(
                f"{where}: config key {name!r} differs from the "
                f"checkpoint's ({getattr(built, key)!r}, stored {value!r})"
            )


def _check_input_dim(where: str, width: int, stored) -> None:
    # no config key sets the input width: the input does, and must fit stored
    if width != stored.input_dim:
        raise ValidationError(f"{where}: the input has {width} features, "
                              f"the checkpoint's model takes {stored.input_dim}")


@contextlib.contextmanager
def _out_dir(output_dir: str | None):
    """The output directory, made with its missing parents before the
    stage's work starts; if the work fails, the directories made here that
    are still empty are removed again. A path that is a file, or lies under
    one, raises ValidationError."""
    path = Path(output_dir or ".")
    made = [d for d in (path, *path.parents) if not d.exists()]
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValidationError(f"output directory {path} is a file or lies under one") from None
    try:
        yield path
    except BaseException:
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def _commit(out: Path, outputs: dict) -> None:
    """Run each saver(tmp_path), in order, then rename every temp file over
    its target: none is renamed until all are written.

    Each temp file sits next to its target under a per-process name, and
    every one is removed if a saver or a rename fails.
    """
    tmp = {name: out / f"{name}.{os.getpid()}.tmp" for name in outputs}
    try:
        for name, saver in outputs.items():
            saver(tmp[name])
        for name in outputs:
            os.replace(tmp[name], out / name)
    except BaseException:
        for path in tmp.values():
            path.unlink(missing_ok=True)
        raise


def _load_dataset(path: str, label_column: str) -> dataset.LabeledDataset:
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return dataset.load_csv(p, label_column)
    return dataset.load_binary(p)


def cmd_synth(args: argparse.Namespace, cfg: None, out: Path) -> tuple[dict, str]:
    ds, informative = dataset.synthesize(_build(dataset.SyntheticSpec, vars(args)))
    name = f"synthetic.{args.format}"
    save = dataset.save_csv if args.format == "csv" else dataset.save_binary
    truth = json.dumps({"informative_indices": [int(i) for i in informative]},
                       sort_keys=True)
    outputs = {
        name: lambda p: save(ds, p),
        "informative.json": lambda p: p.write_text(truth + "\n", encoding="utf-8"),
    }
    return outputs, f"wrote {out / name} ({ds.n} rows, {ds.m} features) and informative.json"


def cmd_select(args: argparse.Namespace, cfg: dict, out: Path) -> tuple[dict, str]:
    from . import cfsgb, gbdt

    chunk_spec = _build(cfsgb.ChunkSpec, cfg["chunking"])
    gbdt_cfg = _build(gbdt.GbdtConfig, cfg["gbdt"])
    # both are read a chunk at a time: a .bin input as it is, a CSV from
    # its float64 spill, an unnamed file in out that vanishes when closed
    if Path(args.input).suffix.lower() == ".csv":
        source = dataset.spill_csv(args.input, args.label_column, out)
    else:
        source = dataset.BinaryRows(args.input)
    with source as ds:
        selected, projected, report = cfsgb.run_cfsgb(ds, chunk_spec, gbdt_cfg,
                                                      **cfg["selection"])
    tau = selected.threshold_used
    report_json = json.dumps({**asdict(report), "tau": tau}, sort_keys=True, indent=2)
    outputs = {
        "selected_features.json": lambda p: cfsgb.save_selection(selected, p),
        "projected.bin": lambda p: dataset.save_binary(projected, p),
        "cfsgb_report.json": lambda p: p.write_text(report_json + "\n", encoding="utf-8"),
    }
    return outputs, f"selected {selected.r}/{ds.m} features across {report.k} chunks (tau={tau:g})"


def cmd_meta_train(args: argparse.Namespace, cfg: dict, out: Path) -> tuple[dict, str]:
    from . import maml

    seed = cfg["seed"]
    split_spec = _build(dataset.SplitSpec, cfg["split"], seed=derive_seed(seed, "split"))
    maml_cfg = _build(maml.MamlConfig, cfg["maml"], seed=derive_seed(seed, "meta-train"))
    initial = None
    start_iteration = 0
    if args.resume:
        where = f"--resume {args.resume}"
        initial, ckpt_cfg, start_iteration, train_fraction = maml.load_checkpoint(args.resume)
        # a resume starts from the checkpoint's float32 parameters with a fresh
        # Adam state, on the checkpoint run's split: only its length may differ
        # (the split's seed derives from the seed checked here)
        _check_matches(where, "maml", maml_cfg, ckpt_cfg, skip=("outer_iterations",))
        _check_matches(where, "split", split_spec, dataset.SplitSpec(train_fraction),
                       skip=("seed",))
    # the loaded dataset is not kept: meta-training reads only the split pools
    train_pool, test_pool = dataset.stratified_split(
        _load_dataset(args.input, args.label_column), split_spec
    )
    arch = _build(maml.MlpArchitecture, cfg["maml"], input_dim=train_pool.m)
    if initial is not None:
        _check_input_dim(where, arch.input_dim, initial.arch)
        _check_matches(where, "maml", arch, initial.arch)
    scaler = dataset.fit_scaler(train_pool)
    train_pool = dataset.apply_scaler(train_pool, scaler)
    test_pool = dataset.apply_scaler(test_pool, scaler)

    params, log = maml.meta_train(train_pool, maml_cfg, arch=arch, initial=initial,
                                  start_iteration=start_iteration)
    final_iteration = start_iteration + maml_cfg.outer_iterations
    outputs = {
        "scaler.json": lambda p: dataset.save_scaler(scaler, p),
        "test_pool.bin": lambda p: dataset.save_binary(test_pool, p),
        "checkpoint.ckpt": lambda p: maml.save_checkpoint(p, params, maml_cfg, final_iteration,
                                                          split_spec.train_fraction),
        "train_log.csv": lambda p: log.save_csv(p),
    }
    last_loss = log.meta_loss[-1] if log.meta_loss else float("nan")
    return outputs, (
        f"meta-trained to iteration {final_iteration} (last meta-loss {last_loss:.4f}); "
        f"wrote checkpoint.ckpt, train_log.csv, scaler.json, test_pool.bin"
    )


def cmd_evaluate(args: argparse.Namespace, cfg: dict, out: Path) -> tuple[dict, str]:
    from . import maml, metrics

    # before anything is adapted: compute_report checks it only at the end
    metrics.check_threshold(args.threshold)
    params, ckpt_cfg, _, _ = maml.load_checkpoint(args.checkpoint)
    # the checkpoint's config (seed included), then the config file's maml
    # keys, then flags
    maml_cfg = _build(maml.MamlConfig, {**asdict(ckpt_cfg), **cfg["maml"]})
    # the checkpoint fixes the architecture: a key the config sets must match
    arch = _build(maml.MlpArchitecture, {**asdict(params.arch), **cfg["maml"]})
    _check_matches(f"--checkpoint {args.checkpoint}", "maml", arch, params.arch)
    test_pool = _load_dataset(args.data, args.label_column)
    _check_input_dim(f"--data {args.data}", test_pool.m, params.arch)

    probs, labels = maml.meta_evaluate(params, test_pool, maml_cfg, episodes=args.episodes)
    report = metrics.compute_report(probs, labels, threshold=args.threshold)
    outputs = {
        "metrics_report.json":
            lambda p: p.write_text(metrics.report_to_json(report), encoding="utf-8"),
        "roc.csv": lambda p: metrics.save_roc_csv(report, p),
    }
    return outputs, (
        f"accuracy={report.accuracy:.4f} precision={report.precision:.4f} "
        f"recall={report.recall:.4f} f1={report.f1:.4f} "
        f"mcc={report.mcc:.4f} auc={report.auc:.4f}"
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out-dir", dest="output_dir", help="output directory")
    parser.add_argument(
        "--threads",
        type=int,
        help="accepted and ignored: no stage runs a thread pool",
    )
    parser.add_argument("--label-column", default="label")


def _add_episode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", dest="maml.alpha", type=float)
    parser.add_argument("--samples-per-task", dest="maml.samples_per_task", type=int)
    parser.add_argument("--support-size", dest="maml.support_size", type=int)
    parser.add_argument("--query-size", dest="maml.query_size", type=int)


def build_parser() -> argparse.ArgumentParser:
    """Each flag that overrides a config key has that key as its dest:
    "section.key", or a top-level key."""
    parser = argparse.ArgumentParser(prog="melemad")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--m", type=int, required=True)
    p_synth.add_argument("--informative", type=int, required=True)
    p_synth.add_argument("--noise-sigma", type=float, default=0.5)
    p_synth.add_argument("--balance", dest="class_balance", type=float, default=0.5)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--format", choices=("csv", "bin"), default="csv")
    p_synth.add_argument("--out-dir", dest="output_dir")
    p_synth.set_defaults(func=cmd_synth)

    p_select = sub.add_parser("select", help="chunk-wise feature selection")
    _add_common(p_select)
    p_select.add_argument("--input", required=True, help="dataset file (.csv or .bin)")
    p_select.add_argument("--p", dest="chunking.p", type=float)
    p_select.add_argument("--q", dest="chunking.q", type=float)
    p_select.add_argument("--tau", dest="selection.tau", type=float)
    p_select.add_argument("--top-k", dest="selection.top_k", type=int)
    p_select.add_argument("--n-trees", dest="gbdt.n_trees", type=int)
    p_select.add_argument("--max-depth", dest="gbdt.max_depth", type=int)
    p_select.add_argument("--learning-rate", dest="gbdt.learning_rate", type=float)
    p_select.add_argument("--min-samples-leaf", dest="gbdt.min_samples_leaf", type=int)
    p_select.set_defaults(func=cmd_select)

    p_train = sub.add_parser("meta-train", help="split, scale, and meta-train")
    _add_common(p_train)
    _add_episode_flags(p_train)
    p_train.add_argument("--input", required=True, help="dataset file (.csv or .bin)")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--beta", dest="maml.beta", type=float)
    p_train.add_argument("--iterations", dest="maml.outer_iterations", type=int)
    p_train.add_argument("--tasks-per-batch", dest="maml.tasks_per_meta_batch", type=int)
    p_train.add_argument("--inner-steps", dest="maml.inner_steps", type=int)
    p_train.add_argument(
        "--first-order", dest="maml.first_order", action=argparse.BooleanOptionalAction
    )
    p_train.add_argument("--train-fraction", dest="split.train_fraction", type=float)
    p_train.add_argument(
        "--resume",
        help="checkpoint whose float32 parameters to start from (with a fresh Adam state)",
    )
    p_train.set_defaults(func=cmd_meta_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on a test pool")
    _add_common(p_eval)
    _add_episode_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="test pool file (.csv or .bin)")
    p_eval.add_argument("--threshold", type=float, default=0.5)
    p_eval.add_argument("--episodes", type=int)
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the flags that name a file a stage reads
        for flag in ("input", "data", "checkpoint", "resume", "config"):
            path = getattr(args, flag, None)
            if path is not None and not Path(path).is_file():
                raise ValidationError(f"--{flag} {path} is missing or not a regular file")
        # synth takes no config, so it loads no melemad.config
        cfg = None if args.command == "synth" else _resolve_config(args)
        with _out_dir(args.output_dir if cfg is None else cfg["output_dir"]) as out:
            outputs, summary = args.func(args, cfg, out)
            _commit(out, outputs)
        print(summary)
        return 0
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure is a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
