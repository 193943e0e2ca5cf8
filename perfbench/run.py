"""Pipeline benchmark for melemad: synth -> select -> meta-train -> evaluate.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every stage runs as its own child process through the real CLI, from the
checkout's own ``src``, with ``--threads 1`` and one BLAS thread. Wall time
and peak RSS of each stage come from the child's rusage (``os.wait4``).

Host speed drifts by up to a third within seconds on a shared machine, and
every stage of a run drifts with it. So while a stage runs, a thread of the
benchmark times a short fixed interpreter loop every PROBE_EVERY_S, and each
stage's wall time is scaled by PROBE_NOMINAL_S over the median probe time
during it (a short stage also uses the probes just before it). The gated timings are these scaled seconds: wall seconds on a host
where the probe takes PROBE_NOMINAL_S. A change to melemad moves them; a
change in host speed mostly does not. Raw wall seconds and probe times are in
the detail line.

The measured loop repeats rounds until ``--seconds`` have passed (at least
twice). A round runs the pipeline once (``evaluate`` EVAL_REPEATS times,
``meta-train`` as often as the workload says) and then the set-up once more (write the config and run ``synth``), so set-up
samples are spread over the run like the stage samples. Every output of every
round is checked, and the output digests must be identical across rounds.
A failed stage or check is counted and the loop goes on with the next round.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run, in
which each stage runs under ``perfbench/traced_cli.py`` so that calls into the
layers (``melemad.gbdt.train``, ``melemad.maml.backward``, ...) are timed from
outside the program. Traced and untraced pipelines alternate; their
pipeline-time ratio is the tracing overhead. Metric names and units are read
from BENCHMARK.json.

Any failure makes the result ``"correct": false`` and the exit code 1. A
directory without ``src/melemad`` exits 2 without a result.

Not covered: ``--threads`` above 1 and ``first_order=False``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0
MIN_REPS = 2
EVAL_REPEATS = 2
# host-speed probes (see HostSpeed): period, the fewest a stage is scaled by,
# and the median probe time on the host the bounds were set on
PROBE_EVERY_S = 0.1
MIN_PROBES = 9
PROBE_NOMINAL_S = 0.0015
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "mcc", "auc")


@dataclass(frozen=True)
class Workload:
    synth: list[str]
    data_file: str
    config: dict
    evaluate: list[str]
    recall_floor: float
    auc_floor: float
    notes: str
    # untraced meta-train runs per pipeline; more where the stage is short
    meta_train_repeats: int = 1


# Why each workload exists is stated in BENCHMARK.json. Selection uses
# --top-k everywhere, which caps the meta-train input width for every seed.
# GBDT learning rate 0.5 spreads the few trees over more features, so the
# planted features are found on almost every seed.
WORKLOADS = {
    "select-wide": Workload(
        synth=["--n", "2000", "--m", "200", "--informative", "10", "--format", "bin"],
        data_file="synthetic.bin",
        config={
            "gbdt": {"n_trees": 6, "learning_rate": 0.5},
            "selection": {"top_k": 40},
            "maml": {"outer_iterations": 100},
        },
        evaluate=[],
        recall_floor=0.7,
        auc_floor=0.95,
        notes="default chunking: 6 chunks of 400 rows, each trained twice under --top-k",
        meta_train_repeats=2,
    ),
    "maml-episodic": Workload(
        synth=["--n", "8000", "--m", "20", "--informative", "10",
               "--noise-sigma", "16", "--format", "bin"],
        data_file="synthetic.bin",
        config={
            "chunking": {"p": 0.5, "q": 0.0},
            "gbdt": {"n_trees": 10},
            "selection": {"top_k": 15},
            "maml": {"outer_iterations": 400},
        },
        evaluate=[],
        recall_floor=0.7,
        auc_floor=0.9,
        notes="meta-train at the CLI default tasks (100/50/50, 4 per batch), 400 iterations",
    ),
    "maml-paper-tall": Workload(
        synth=["--n", "15000", "--m", "40", "--informative", "10", "--format", "csv"],
        data_file="synthetic.csv",
        config={
            "chunking": {"p": 0.5, "q": 0.0},
            "gbdt": {"n_trees": 4, "max_depth": 4, "learning_rate": 0.5},
            "selection": {"top_k": 15},
            "maml": {"outer_iterations": 8, "beta": 0.01, "samples_per_task": 10000,
                     "support_size": 5000, "query_size": 5000},
        },
        evaluate=["--samples-per-task", "1000", "--support-size", "500",
                  "--query-size", "500"],
        recall_floor=0.7,
        auc_floor=0.95,
        notes=(
            "evaluate passes 1000/500/500 episodes: the checkpoint's 10000-row task "
            "exceeds the 3000-row test pool, and evaluate exits 2 with PoolTooSmall "
            "without these flags"
        ),
    ),
}

# outputs whose bytes must not change between repetitions of one seed
DIGESTED = (
    "selected_features.json", "projected.bin", "scaler.json", "test_pool.bin",
    "checkpoint.ckpt", "metrics_report.json", "roc.csv",
)
# counts from the traced run that must repeat exactly
EXACT_COUNTS = (
    "gbdt.train_calls", "gbdt.internal_nodes", "cfsgb.trainings_per_chunk",
    "maml.sample_task_calls", "maml.passes_per_episode", "maml.scored_fraction",
)


class CheckFailed(Exception):
    pass


@dataclass
class StageRun:
    wall_s: float
    rss_mb: float
    ref_s: float

    @property
    def scaled_s(self) -> float:
        return self.wall_s * PROBE_NOMINAL_S / self.ref_s


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


# ---------------------------------------------------------------- processes


def run_child(argv: list[str], cwd: Path, env: dict, log_prefix: Path,
              deadline: float) -> tuple[float, float, int]:
    """Run argv to completion; returns (wall s, peak RSS MB, exit code).

    The child is killed if it is still running at the monotonic deadline."""
    with open(f"{log_prefix}.out", "wb") as out, open(f"{log_prefix}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class HostSpeed:
    """Times a short fixed interpreter loop every PROBE_EVERY_S while a stage
    runs, from a thread of this process, which is otherwise blocked in wait4.
    The probes measure the host, not melemad: their median over a stage is
    that stage's reference time."""

    def __init__(self):
        self.probes: list[float] = []
        self.running = threading.Event()
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self) -> None:
        while True:
            self.running.wait()
            t0 = time.perf_counter()
            total = 0
            for i in range(20_000):
                total += i * i
            self.probes.append(time.perf_counter() - t0)
            time.sleep(PROBE_EVERY_S)

    def median_since(self, first: int) -> float:
        """Median of the probes from index first on, or of the last MIN_PROBES
        if fewer were taken since (a short stage borrows from the ones before)."""
        recent = self.probes[first:]
        if len(recent) < MIN_PROBES:
            recent = self.probes[-MIN_PROBES:]
        if not recent:
            raise CheckFailed("no host-speed probe was taken")
        return statistics.median(recent)


def stderr_tail(log_prefix: Path) -> str:
    text = Path(f"{log_prefix}.err").read_text(encoding="utf-8", errors="replace")
    return text.strip().splitlines()[-1] if text.strip() else "(no stderr)"


# ------------------------------------------------------------ output checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path: Path):
    if not path.is_file():
        raise CheckFailed(f"{path.name} missing")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckFailed(f"{path.name} does not parse: {exc}") from None


def read_bin_header(path: Path) -> tuple[int, int]:
    """(n, m) of a melemad binary dataset, after checking its size."""
    if not path.is_file():
        raise CheckFailed(f"{path.name} missing")
    size = path.stat().st_size
    with path.open("rb") as fh:
        head = fh.read(16)
    if len(head) < 16 or head[:4] != b"MLMD":
        raise CheckFailed(f"{path.name}: bad header")
    _, n, m = struct.unpack("<III", head[4:16])
    if n < 1 or m < 1 or size != 16 + 4 * n * m + n:
        raise CheckFailed(f"{path.name}: size {size} does not match n={n} m={m}")
    return n, m


def read_csv_rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise CheckFailed(f"{path.name} missing")
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise CheckFailed(f"{path.name}: empty or ragged")
    return rows


def check_synth(out: Path, wl: Workload) -> dict:
    data = out / wl.data_file
    n = int(wl.synth[wl.synth.index("--n") + 1])
    m = int(wl.synth[wl.synth.index("--m") + 1])
    if wl.data_file.endswith(".bin"):
        if read_bin_header(data) != (n, m):
            raise CheckFailed(f"{data.name}: wrong shape")
    else:
        with data.open(encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            lines = 1 + sum(1 for _ in fh)
        if len(header) != m + 1 or header[-1] != "label" or lines != n + 1:
            raise CheckFailed(f"{data.name}: expected {n} rows of {m} features")
    informative = read_json(out / "informative.json")["informative_indices"]
    k = int(wl.synth[wl.synth.index("--informative") + 1])
    if sorted(set(informative)) != informative or len(informative) != k:
        raise CheckFailed("informative.json: indices not sorted, unique and complete")
    return {"n": n, "m": m, "informative": informative,
            "digests": {wl.data_file: sha256(data),
                        "informative.json": sha256(out / "informative.json")}}


def check_select(out: Path, data: dict) -> dict:
    selected = read_json(out / "selected_features.json")["global_indices"]
    if not selected or sorted(set(selected)) != selected or not (
            0 <= selected[0] and selected[-1] < data["m"]):
        raise CheckFailed("selected_features.json: indices not sorted, unique, in range")
    if read_bin_header(out / "projected.bin") != (data["n"], len(selected)):
        raise CheckFailed("projected.bin: shape does not match the selection")
    report = read_json(out / "cfsgb_report.json")
    if report["r"] != len(selected):
        raise CheckFailed("cfsgb_report.json: r does not match the selection")
    return {"selected": selected}


def check_meta_train(out: Path, data: dict, r: int, iterations: int) -> None:
    blob = (out / "checkpoint.ckpt").read_bytes() if (out / "checkpoint.ckpt").is_file() else b""
    split = blob.find(b"\n")
    if split < 0:
        raise CheckFailed("checkpoint.ckpt missing or without header")
    try:
        arch = json.loads(blob[:split])["architecture"]
    except (json.JSONDecodeError, KeyError) as exc:
        raise CheckFailed(f"checkpoint.ckpt header: {exc}") from None
    dims = [arch["input_dim"], *arch["hidden_dims"], 1]
    params = sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))
    if arch["input_dim"] != r or len(blob) - split - 1 != 4 * params:
        raise CheckFailed("checkpoint.ckpt: payload does not match its architecture")
    n_test, m_test = read_bin_header(out / "test_pool.bin")
    if m_test != r or not 0 < n_test < data["n"]:
        raise CheckFailed("test_pool.bin: wrong shape")
    read_json(out / "scaler.json")
    log = read_csv_rows(out / "train_log.csv")
    if log[0] != ["iteration", "meta_loss", "query_accuracy", "seconds"] or (
            len(log) - 1 != iterations):
        raise CheckFailed("train_log.csv: wrong header or row count")
    losses = [float(row[1]) for row in log[1:]]
    if not all(0.0 <= x < 20.0 for x in losses):
        raise CheckFailed("train_log.csv: meta-loss not finite and non-negative")


def check_evaluate(out: Path, wl: Workload, data: dict, selected: list[int]) -> dict:
    report = read_json(out / "metrics_report.json")
    for name in METRIC_NAMES:
        value = report.get(name)
        low = -1.0 if name == "mcc" else 0.0
        if not isinstance(value, (int, float)) or not low <= value <= 1.0:
            raise CheckFailed(f"metrics_report.json: {name}={value!r} missing or out of range")
    roc = read_csv_rows(out / "roc.csv")
    points = [(float(a), float(b)) for a, b in roc[1:]]
    if points[0] != (0.0, 0.0) or points[-1] != (1.0, 1.0) or any(
            b[0] < a[0] or b[1] < a[1] for a, b in zip(points, points[1:])):
        raise CheckFailed("roc.csv: not a monotone curve from (0,0) to (1,1)")
    recall = len(set(selected) & set(data["informative"])) / len(data["informative"])
    if recall < wl.recall_floor:
        raise CheckFailed(f"planted_recall {recall} below floor {wl.recall_floor}")
    if report["auc"] < wl.auc_floor:
        raise CheckFailed(f"auc {report['auc']} below floor {wl.auc_floor}")
    return {"auc": float(report["auc"]), "mcc": float(report["mcc"]),
            "planted_recall": recall}


def rep_digests(out: Path) -> dict:
    digests = {name: sha256(out / name) for name in DIGESTED}
    # timing fields are left out: seconds_per_stage and the seconds column
    report = read_json(out / "cfsgb_report.json")
    report.pop("seconds_per_stage", None)
    digests["cfsgb_report.json[-seconds_per_stage]"] = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()
    rows = read_csv_rows(out / "train_log.csv")
    digests["train_log.csv[-seconds]"] = hashlib.sha256(
        "\n".join(",".join(r[:3]) for r in rows).encode()).hexdigest()
    return digests


# ------------------------------------------------------------------ harness


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.work = root / ".bench_work" / f"{workload}-trace{int(trace)}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
        self.ledger = Ledger()
        self.stage_argv: dict[str, list[str]] = {}
        self.digests: dict[str, str] | None = None
        self.host = HostSpeed()

    def stage(self, name: str, argv: list[str], out: Path, traced: bool) -> StageRun:
        if traced:
            cli = [sys.executable, str(HERE / "traced_cli.py"), str(out / f"{name}.spans.json")]
        else:
            cli = [sys.executable, "-m", "melemad.cli"]
        full = cli + argv
        self.stage_argv.setdefault(f"{name}{' (traced)' if traced else ''}", full)
        self.ledger.attempted += 1
        first = len(self.host.probes)
        self.host.running.set()
        try:
            wall, rss, code = run_child(full, self.root, self.env, out / name, self.deadline)
        finally:
            self.host.running.clear()
        if code != 0:
            raise CheckFailed(f"{name} exited {code}: {stderr_tail(out / name)}")
        return StageRun(wall, rss, self.host.median_since(first))

    def synth_argv(self, out: Path) -> list[str]:
        return ["synth", *self.wl.synth, "--seed", str(self.seed), "--out-dir", str(out)]

    def setup(self, out: Path) -> tuple[StageRun, dict]:
        """Write the config and synthesize the data into out; returns the
        set-up time and the checked facts about the data."""
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        (out / "config.json").write_text(
            json.dumps({"seed": self.seed, **self.wl.config}, indent=2) + "\n",
            encoding="utf-8")
        config_s = time.perf_counter() - t0
        run = self.stage("synth", self.synth_argv(out), out, traced=False)
        run.wall_s += config_s
        return run, check_synth(out, self.wl)

    def pipeline(self, data_dir: Path, data: dict, out: Path, traced: bool) -> dict:
        out.mkdir(parents=True)
        config = str(data_dir / "config.json")
        if traced:
            # the traced pipeline also synthesizes, so dataset.synthesize and
            # dataset.save are measured; its data must equal the set-up data
            self.stage("synth", self.synth_argv(out), out, traced=True)
            if check_synth(out, self.wl)["digests"] != data["digests"]:
                raise CheckFailed("traced synth output differs from set-up output")
        common = ["--config", config, "--out-dir", str(out), "--threads", "1"]
        runs = {"select": [self.stage("select", ["select", "--input",
                                                 str(data_dir / self.wl.data_file), *common],
                                      out, traced)]}
        selected = check_select(out, data)["selected"]
        iterations = self.wl.config.get("maml", {}).get("outer_iterations", 1000)
        runs["meta_train"] = []
        for _ in range(1 if traced else self.wl.meta_train_repeats):
            runs["meta_train"].append(self.stage(
                "meta_train", ["meta-train", "--input", str(out / "projected.bin"), *common],
                out, traced))
            check_meta_train(out, data, len(selected), iterations)
        runs["evaluate"] = []
        # evaluate is short and mostly interpreter start-up, so the untraced
        # pipeline runs it several times to give its median more samples
        for _ in range(1 if traced else EVAL_REPEATS):
            for name in ("metrics_report.json", "roc.csv"):
                (out / name).unlink(missing_ok=True)
            runs["evaluate"].append(self.stage(
                "evaluate", ["evaluate", "--checkpoint", str(out / "checkpoint.ckpt"),
                             "--data", str(out / "test_pool.bin"), *common,
                             *self.wl.evaluate], out, traced))
            quality = check_evaluate(out, self.wl, data, selected)
            self.check_digests({**data["digests"], **rep_digests(out)})
        return {"runs": runs, "quality": quality, "dir": out}

    def check_digests(self, digests: dict) -> None:
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in digests if digests[k] != self.digests[k])
            raise CheckFailed(f"outputs differ between rounds: {changed}")

    def keep_going(self, rounds: int, last_s: float) -> bool:
        """Start another round only if it should end within --seconds
        (after the first MIN_REPS) and well within the hard limit."""
        now = time.monotonic()
        if now + 1.5 * last_s > self.deadline:
            return False
        return rounds < MIN_REPS or now - self.loop_start + last_s <= self.seconds

    def measure(self) -> tuple[dict, dict]:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        data_dir = self.work / "data"
        first, data = self.setup(data_dir)
        setups = [first]
        self.loop_start = time.monotonic()
        plain: list[dict] = []
        traced: list[dict] = []
        rounds, last_s = 0, 0.0
        while self.keep_going(rounds, last_s):
            t0 = time.monotonic()
            out = self.work / f"round{rounds}"
            try:
                plain.append(self.pipeline(data_dir, data, out / "plain", traced=False))
                if self.trace:
                    trep = self.pipeline(data_dir, data, out / "traced", traced=True)
                    trep["spans"] = {
                        s: json.loads((trep["dir"] / f"{s}.spans.json").read_text())
                        for s in ("synth", "select", "meta_train", "evaluate")}
                    traced.append(trep)
                else:
                    run, facts = self.setup(out / "setup")
                    if facts["digests"] != data["digests"]:
                        raise CheckFailed("synth output differs between set-ups")
                    setups.append(run)
            except (CheckFailed, KeyError, ValueError, IndexError) as exc:
                self.ledger.fail(f"round {rounds}: {type(exc).__name__}: {exc}")
            if rounds:
                shutil.rmtree(self.work / f"round{rounds - 1}")
            rounds += 1
            last_s = time.monotonic() - t0
        if self.ledger.failed:
            return {}, {}
        if len(plain) < MIN_REPS:
            raise CheckFailed(f"only {len(plain)} pipeline(s) fit in the time limit")
        if self.trace:
            return self.layer_metrics(plain, traced)
        return self.end_to_end(setups, plain)

    def end_to_end(self, setups: list[StageRun], reps: list[dict]) -> tuple[dict, dict]:
        samples = {"setup_s": setups}
        values, detail = {}, {}
        for stage in ("select", "meta_train", "evaluate"):
            runs = [s for r in reps for s in r["runs"][stage]]
            samples[f"{stage}_s"] = runs
            values[f"{stage}_rss_mb"] = statistics.median(s.rss_mb for s in runs)
            detail[f"{stage}_rss_mb"] = summarize([s.rss_mb for s in runs])
        for name, runs in samples.items():
            values[name] = statistics.median(s.scaled_s for s in runs)
            detail[name] = summarize([s.scaled_s for s in runs])
            detail[f"{name}.wall"] = summarize([s.wall_s for s in runs])
        values["pipeline_s"] = statistics.median(pipeline_s(r) for r in reps)
        detail["pipeline_s"] = summarize([pipeline_s(r) for r in reps])
        detail["ref_s"] = summarize([s.ref_s for runs in samples.values() for s in runs])
        # the output digests are equal across rounds, so the quality is too
        values.update(reps[0]["quality"])
        return values, detail

    def layer_metrics(self, plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
        per_rep = [layer_values(t) for t in traced]
        for name in EXACT_COUNTS:
            values = {v[name] for v in per_rep}
            if len(values) != 1:
                raise CheckFailed(f"{name} differs between traced pipelines: {values}")
        for t in traced:
            for s, record in t["spans"].items():
                if not Path(record["melemad_file"]).is_relative_to(self.root / "src"):
                    raise CheckFailed(f"{s} imported melemad from {record['melemad_file']}")
        values = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
        values["trace.overhead_ratio"] = (statistics.median(pipeline_s(t) for t in traced)
                                          / statistics.median(pipeline_s(r) for r in plain))
        last = traced[-1]
        tree = self.work / "trace.json"
        tree.write_text(json.dumps(last["spans"]), encoding="utf-8")
        detail = {"span_tree": str(tree.relative_to(self.root)),
                  "self_s": self_times(last["spans"]),
                  "stage_s": {s: runs[0].wall_s for s, runs in last["runs"].items()},
                  "traced_pipelines": len(traced), "untraced_pipelines": len(plain)}
        return values, detail


def pipeline_s(rep: dict) -> float:
    """Probe-scaled select + meta-train + evaluate time of one pipeline,
    each stage at the median of its runs in that pipeline."""
    return sum(statistics.median(r.scaled_s for r in runs) for runs in rep["runs"].values())


def summarize(values: list[float]) -> dict:
    """Median and the highest sample, with the sample count (too few samples
    for a percentile with ten samples beyond it)."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values),
            "samples": values}


# ------------------------------------------------------------------- traces


def walk(spans: list[list]):
    """Yield (name, duration, self time, root name, attrs) for each span."""
    child_s = [0.0] * len(spans)
    roots = [""] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        roots[i] = name if parent < 0 else roots[parent]
        if parent >= 0:
            child_s[parent] += end - start
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        yield name, end - start, end - start - child_s[i], roots[i], attrs or {}


def self_times(stage_spans: dict) -> dict:
    totals: dict[str, float] = {}
    for record in stage_spans.values():
        for name, _, self_s, _, _ in walk(record["spans"]):
            totals[name] = totals.get(name, 0.0) + self_s
    return dict(sorted(totals.items()))


def layer_values(rep: dict) -> dict:
    """Per-layer values of one traced repetition of the pipeline."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attr: dict[str, float] = {}
    for record in rep["spans"].values():
        for name, dur, own, root, attrs in walk(record["spans"]):
            key = f"{root}>{name}" if name in ("maml.sample_task", "maml.backward",
                                              "maml.forward") else name
            total[key] = total.get(key, 0.0) + dur
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own
            for a, v in attrs.items():
                attr[f"{key}.{a}"] = attr.get(f"{key}.{a}", 0) + v
    t = lambda k: total.get(k, 0.0)  # noqa: E731
    n = lambda k: calls.get(k, 0)  # noqa: E731
    train = "maml.meta_train"
    load_s = t("dataset.load_csv") + t("dataset.load_binary")
    load_b = attr.get("dataset.load_csv.bytes", 0) + attr.get("dataset.load_binary.bytes", 0)
    fwd, bwd, smp = (f"{train}>maml.{x}" for x in ("forward", "backward", "sample_task"))
    gbdt_s = t("gbdt.train")
    select_s = rep["runs"]["select"][0].wall_s
    return {
        "dataset.load_s": load_s,
        "dataset.load_mb_per_s": load_b / 1e6 / load_s,
        "dataset.save_s": t("dataset.save_binary") + t("dataset.save_csv"),
        "dataset.split_scale_s": (t("dataset.stratified_split") + t("dataset.fit_scaler")
                                  + t("dataset.apply_scaler")),
        "dataset.synthesize_s": t("dataset.synthesize"),
        "dataset.load_share_of_select": select_load_s(rep) / select_s,
        "gbdt.train_calls": n("gbdt.train"),
        "gbdt.train_s": gbdt_s,
        "gbdt.train_s_per_call": gbdt_s / n("gbdt.train"),
        "gbdt.internal_nodes": attr["gbdt.train.internal_nodes"],
        "gbdt.cells_per_s": attr["gbdt.train.cells"] / gbdt_s,
        "gbdt.share_of_select": gbdt_s / select_s,
        "cfsgb.chunks": attr["cfsgb.run_cfsgb.chunks"],
        "cfsgb.trainings_per_chunk": n("gbdt.train") / attr["cfsgb.run_cfsgb.chunks"],
        "cfsgb.run_s": t("cfsgb.run_cfsgb"),
        "cfsgb.top_k_s": t("cfsgb.threshold_for_top_k"),
        "cfsgb.self_s": self_s.get("cfsgb.run_cfsgb", 0.0)
        + self_s.get("cfsgb.threshold_for_top_k", 0.0),
        "cfsgb.selected_r": attr["cfsgb.run_cfsgb.selected_r"],
        "maml.meta_train_s": t(train),
        "maml.iter_ms": 1000.0 * t(train) / attr[f"{train}.iterations"],
        "maml.sample_task_calls": n(smp),
        "maml.sample_task_s": t(smp),
        "maml.sample_task_share": t(smp) / t(train),
        "maml.backward_calls": n(bwd),
        "maml.backward_s": t(bwd),
        "maml.forward_calls": n(fwd),
        "maml.forward_s": t(fwd),
        "maml.fwd_bwd_share": (t(bwd) + t(fwd)) / t(train),
        "maml.passes_per_episode": (n(bwd) + n(fwd)) / n(smp),
        "maml.self_s": self_s[train],
        "maml.self_share": self_s[train] / t(train),
        "maml.rows_per_s": (attr[f"{bwd}.rows"] + attr[f"{fwd}.rows"]) / t(train),
        "maml.meta_evaluate_s": t("maml.meta_evaluate"),
        "maml.inner_adapt_calls": n("maml.inner_adapt"),
        "maml.scored_fraction": (attr["maml.meta_evaluate.scored_rows"]
                                 / attr["maml.meta_evaluate.pool_rows"]),
        "metrics.compute_report_s": t("metrics.compute_report"),
        "metrics.scored_rows": attr["metrics.compute_report.scored_rows"],
        "cli.import_s": statistics.median(r["import_s"] for r in rep["spans"].values()),
    }


def select_load_s(rep: dict) -> float:
    return sum(dur for name, dur, _, _, _ in walk(rep["spans"]["select"]["spans"])
               if name in ("dataset.load_csv", "dataset.load_binary"))


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json.

    Which end-to-end metric each per-layer group should move, and where:
    - dataset: select_s and select_rss_mb on maml-paper-tall (CSV ingest),
      meta_train_s through split and scale, setup_s through synthesize and save.
    - gbdt, cfsgb: select_s, mostly on select-wide.
    - maml at meta-train: meta_train_s; sample_task mostly on maml-episodic,
      backward and forward mostly on maml-paper-tall.
    - maml at evaluation, metrics: evaluate_s.
    - cli.import_s: the floor under every stage's wall time.
    """
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# -------------------------------------------------------------- environment


def environment(root: Path, bench: Bench) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "melemad").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "probe_nominal_s": PROBE_NOMINAL_S,
        "env": {k: bench.env[k] for k in BLAS_ENV},
        "workload": bench.name,
        "seed": bench.seed,
        "seconds": bench.seconds,
        "trace": int(bench.trace),
        "notes": bench.wl.notes,
        "stage_argv": bench.stage_argv,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("need --seed >= 0 and --seconds in [1, 120]")

    root = Path.cwd().resolve()
    if not (root / "src" / "melemad" / "cli.py").is_file():
        print(f"error: {root} holds no melemad source tree (src/melemad)", file=sys.stderr)
        return 2

    units = metric_units("per_layer" if args.trace else "end_to_end")
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    values, detail = {}, {}
    try:
        values, detail = bench.measure()
    except CheckFailed as exc:
        bench.ledger.fail(str(exc))
    except (OSError, KeyError, ValueError, ZeroDivisionError,
            subprocess.SubprocessError) as exc:
        traceback.print_exc()
        bench.ledger.fail(f"{type(exc).__name__}: {exc}")
    ok = bench.ledger.failed == 0
    attempted = max(bench.ledger.attempted, 1)
    if not args.trace:
        values["stage_success_ratio"] = (attempted - bench.ledger.failed) / attempted
    missing = sorted(set(units) - set(values))
    if ok and missing:
        bench.ledger.fail(f"metrics not measured: {missing}")
        ok = False
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}

    record = {"environment": environment(root, bench), "digests": bench.digests,
              "detail": detail, "errors": bench.ledger.errors}
    bench.work.mkdir(parents=True, exist_ok=True)
    (bench.work / "result.json").write_text(json.dumps(record, indent=2) + "\n",
                                            encoding="utf-8")
    for name, digest in sorted((bench.digests or {}).items()):
        print(f"sha256 {digest}  {name}")
    for error in bench.ledger.errors:
        print(f"FAILED: {error}")
    print("detail: " + json.dumps({k: record[k] for k in ("environment", "detail")}))
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": bench.ledger.failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
