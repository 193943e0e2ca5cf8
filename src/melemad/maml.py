"""Meta-learned MLP binary classifier.

Inner loop: plain gradient descent on support-set BCE at rate alpha.
Outer loop: Adam step at rate beta on the mean query loss across a batch of
episodes. The default meta-gradient is first-order (query gradient at the
adapted parameters); the second-order path, which differentiates through the
inner update with Hessian-vector products taken by central differences of
the analytic gradient, sits behind first_order=False and is intended for
small-model verification.

All parameter vectors are immutable snapshots; every update returns a new
vector. ModelParams, forward and backward take an optional leading episode
axis, so one inner loop (_descend) adapts a stack of episodes per
forward/backward call; inner_adapt adapts a stack of one. Meta-training
stacks a meta-batch's episodes (at most _STACK_CELLS rows x widest hidden
layer x episodes per stack) and reduces the meta-gradient, loss and accuracy
in episode order from zeros, so results are byte-identical at any stack
size. A NaN or Inf meta-loss or meta-gradient raises Diverged.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .dataset import LabeledDataset
from .errors import (
    DimensionMismatch,
    Diverged,
    LengthMismatch,
    PoolTooSmall,
    SingleClassPool,
    ValidationError,
)

PROB_EPS = 1e-7

# rows x widest hidden layer x episodes in one stacked forward/backward pass;
# bounds the activation arrays, so a paper-scale task runs one episode a stack
_STACK_CELLS = 1 << 16

# stream tags for deriving independent rng seeds from one root seed
_STREAM_INIT = 0
_STREAM_TASK = 1
_STREAM_DROPOUT = 2
_STREAM_EVAL = 3


def _rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(p) for p in parts]))


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class MlpArchitecture:
    """Input layer, ReLU hidden stack (dropout after the first hidden layer
    only), single sigmoid output."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 32, 16)
    dropout_rate: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ValidationError("layer widths must be positive")
        if not self.hidden_dims:
            raise ValidationError("need at least one hidden layer")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError("dropout_rate must be in [0, 1)")

    @property
    def layer_sizes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, 1]
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    @property
    def param_count(self) -> int:
        return sum((fi + 1) * fo for fi, fo in self.layer_sizes)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """One flat parameter vector (P,), or a stack of T of them (T, P)."""

    values: np.ndarray
    arch: MlpArchitecture

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 2:
            vals = vals.ravel()
        if vals.shape[-1] != self.arch.param_count:
            raise DimensionMismatch(
                f"expected {self.arch.param_count} parameters, got {vals.shape[-1]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("parameters contain NaN or Inf")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _trusted(cls, values: np.ndarray, arch: MlpArchitecture) -> "ModelParams":
        """Wrap values the inner loop derived itself, without copy or checks;
        meta_train checks each iteration's result instead."""
        params = object.__new__(cls)
        object.__setattr__(params, "values", values)
        object.__setattr__(params, "arch", arch)
        return params

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views into the flat vector, layer-major; a stack gives
        (T, fan_in, fan_out) and (T, fan_out)."""
        lead = self.values.shape[:-1]
        out = []
        offset = 0
        for fan_in, fan_out in self.arch.layer_sizes:
            W = self.values[..., offset : offset + fan_in * fan_out]
            offset += fan_in * fan_out
            b = self.values[..., offset : offset + fan_out]
            offset += fan_out
            out.append((W.reshape(*lead, fan_in, fan_out), b))
        return out


@dataclass(frozen=True)
class Episode:
    support: LabeledDataset
    query: LabeledDataset
    task_index: int


@dataclass(frozen=True)
class MamlConfig:
    alpha: float = 1e-4
    beta: float = 1e-3
    outer_iterations: int = 1000
    tasks_per_meta_batch: int = 4
    samples_per_task: int = 100
    support_size: int = 50
    query_size: int = 50
    inner_steps: int = 1
    first_order: bool = True
    dropout_in_adapt: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError("learning rates must be non-negative")
        if self.outer_iterations < 0:
            raise ValidationError("outer_iterations must be >= 0")
        if self.tasks_per_meta_batch < 1:
            raise ValidationError("tasks_per_meta_batch must be >= 1")
        if self.inner_steps < 1:
            raise ValidationError("inner_steps must be >= 1")
        if min(self.samples_per_task, self.support_size, self.query_size) < 1:
            raise ValidationError("task and set sizes must be >= 1")
        if self.support_size + self.query_size > self.samples_per_task:
            raise ValidationError("support_size + query_size exceeds samples_per_task")


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size))


@dataclass
class TrainLog:
    iterations: list[int] = field(default_factory=list)
    meta_loss: list[float] = field(default_factory=list)
    query_accuracy: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def append(self, iteration: int, loss: float, accuracy: float, secs: float) -> None:
        self.iterations.append(iteration)
        self.meta_loss.append(loss)
        self.query_accuracy.append(accuracy)
        self.seconds.append(secs)

    def save_csv(self, path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "meta_loss", "query_accuracy", "seconds"])
            for row in zip(self.iterations, self.meta_loss, self.query_accuracy, self.seconds):
                writer.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])


def init_params(arch: MlpArchitecture, seed: int) -> ModelParams:
    """Scaled-uniform weights, bound sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = _rng(seed, _STREAM_INIT)
    pieces = []
    for fan_in, fan_out in arch.layer_sizes:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        pieces.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        pieces.append(np.zeros(fan_out))
    return ModelParams(np.concatenate(pieces), arch)


def dropout_mask(arch: MlpArchitecture, n_rows: int, seed: int) -> np.ndarray | None:
    """Inverted-scaling keep mask for the first hidden layer, or None if the
    architecture has no dropout."""
    if arch.dropout_rate == 0.0:
        return None
    rng = _rng(seed, _STREAM_DROPOUT)
    keep = rng.random((n_rows, arch.hidden_dims[0])) >= arch.dropout_rate
    return keep.astype(np.float64) / (1.0 - arch.dropout_rate)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_pass(params: ModelParams, X: np.ndarray, mask: np.ndarray | None):
    """Returns (layer inputs, pre-activations, raw probs, clamped probs)."""
    layers = params.layers()
    inputs = [X]
    pre = []
    a = X
    for i, (W, b) in enumerate(layers[:-1]):
        z = a @ W + b[..., None, :]
        pre.append(z)
        a = np.maximum(z, 0.0)
        if i == 0 and mask is not None:
            a = a * mask
        inputs.append(a)
    W_out, b_out = layers[-1]
    z_out = (a @ W_out + b_out[..., None, :])[..., 0]
    p_raw = _sigmoid(z_out)
    return inputs, pre, p_raw, np.clip(p_raw, PROB_EPS, 1.0 - PROB_EPS)


def _check_input(params: ModelParams, X) -> np.ndarray:
    """X is (n, m) for one parameter vector, (T, n, m) for a stack of T."""
    X = np.asarray(X, dtype=np.float64)
    lead = params.values.shape[:-1]
    if X.ndim != len(lead) + 2 or X.shape[:-2] != lead or X.shape[-1] != params.arch.input_dim:
        raise DimensionMismatch(
            f"expected {params.arch.input_dim} input columns and leading shape {lead}, "
            f"got shape {X.shape}"
        )
    return X


def forward(
    params: ModelParams,
    X: np.ndarray,
    training: bool = False,
    dropout_seed: int = 0,
) -> np.ndarray:
    """Per-row probability in (0,1), clamped at 1e-7 from either end; (n,)
    for one parameter vector, (T, n) for a stack.

    Dropout fires only when training=True and the architecture has a nonzero
    rate (every episode of a stack then gets the same mask); inference is
    deterministic.
    """
    X = _check_input(params, X)
    mask = dropout_mask(params.arch, X.shape[-2], dropout_seed) if training else None
    return _forward_pass(params, X, mask)[3]


def bce_loss(probs, labels) -> float:
    probs = np.asarray(probs, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if probs.shape[0] != labels.shape[0]:
        raise LengthMismatch(f"{probs.shape[0]} probs vs {labels.shape[0]} labels")
    return float(-np.mean(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)))


def backward(
    params: ModelParams,
    X: np.ndarray,
    labels,
    dropout_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Exact gradient of mean BCE over the forward pass, flat layout; for a
    stack, one gradient per episode (T, P), each over its own rows.

    Pass the same mask the paired forward used; rows where the output clamp
    is active contribute zero gradient, matching the clamped loss exactly.
    """
    X = _check_input(params, X)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim == 2:
        y = y.ravel()
    if y.shape != X.shape[:-1]:
        raise LengthMismatch(f"{X.shape[:-1]} rows vs {y.shape} labels")
    inputs, pre, p_raw, p = _forward_pass(params, X, dropout_mask)
    n = X.shape[-2]

    layers = params.layers()
    grads = [None] * len(layers)
    interior = (p_raw > PROB_EPS) & (p_raw < 1.0 - PROB_EPS)
    d = (np.where(interior, p - y, 0.0) / n)[..., None]

    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        grads[i] = (np.swapaxes(inputs[i], -1, -2) @ d, d.sum(axis=-2))
        if i == 0:
            break
        da = d @ np.swapaxes(W, -1, -2)
        if i == 1 and dropout_mask is not None:
            da = da * dropout_mask
        d = da * (pre[i - 1] > 0)

    lead = X.shape[:-2]
    return np.concatenate(
        [part for gw, gb in grads for part in (gw.reshape(*lead, -1), gb)], axis=-1
    )


def inner_adapt(
    theta: ModelParams,
    support: LabeledDataset,
    alpha: float,
    inner_steps: int = 1,
    dropout_seed: int | None = None,
) -> ModelParams:
    """Task adaptation: inner_steps gradient-descent steps on support BCE.

    dropout_seed None disables dropout during adaptation; otherwise each step
    draws its own mask from the seed. The input theta is never modified.
    """
    path, _ = _descend(
        ModelParams._trusted(theta.values[None], theta.arch),
        support.features[None],
        support.labels[None],
        alpha,
        inner_steps,
        None if dropout_seed is None else [dropout_seed],
    )
    return ModelParams(path[-1][0], theta.arch)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """np.stack, but a stack of one is a view: at paper scale a copy of each
    episode's rows and dropout mask would only raise peak memory."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _descend(
    theta: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    inner_steps: int,
    dropout_seeds: list[int] | None,
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """The one inner loop, behind inner_adapt and the meta-gradient: adapts a
    stack of T episodes at once (theta (T, P), supports X (T, n, m), labels
    (T, n)); episode t draws step s's dropout mask from dropout_seeds[t] + s.

    Returns the parameter stack before each step followed by the adapted
    stack (inner_steps + 1 arrays), and the (T, n, h0) mask of each step.
    """
    arch = theta.arch
    path = [theta.values]
    masks: list[np.ndarray | None] = []
    for step in range(inner_steps):
        mask = None
        if dropout_seeds is not None and arch.dropout_rate > 0.0:
            mask = _stack(
                [dropout_mask(arch, X.shape[1], int(seed) + step) for seed in dropout_seeds]
            )
        grad = backward(ModelParams._trusted(path[-1], arch), X, y, mask)
        masks.append(mask)
        path.append(path[-1] - alpha * grad)
    return path, masks


def _stratified_take(avail_pos: int, avail_neg: int, take: int) -> tuple[int, int]:
    """Split `take` between classes proportionally; keep both classes when
    feasible."""
    total = avail_pos + avail_neg
    take_pos = _half_up(take * avail_pos / total)
    take_pos = min(max(take_pos, take - avail_neg), avail_pos)
    if take >= 2:
        if avail_pos >= 1 and take_pos == 0 and take - 1 <= avail_neg:
            take_pos = 1
        if avail_neg >= 1 and take - take_pos == 0 and take - 1 <= avail_pos:
            take_pos = take - 1
    return take_pos, take - take_pos


def sample_task(
    pool: LabeledDataset,
    cfg: MamlConfig,
    task_seed: int,
    task_index: int = 0,
) -> Episode:
    """Draw one episode: samples_per_task rows without replacement, stratified
    to the pool ratio, split disjointly into support and query."""
    if pool.n < cfg.samples_per_task:
        raise PoolTooSmall(f"pool has {pool.n} rows, task needs {cfg.samples_per_task}")
    neg, pos = pool.class_rows
    if pos.size == 0 or neg.size == 0:
        raise SingleClassPool("episode sampling needs both classes in the pool")

    rng = _rng(task_seed, _STREAM_TASK)
    task_pos, task_neg = _stratified_take(pos.size, neg.size, cfg.samples_per_task)
    pos_pick = rng.permutation(pos)[:task_pos]
    neg_pick = rng.permutation(neg)[:task_neg]

    sup_pos, sup_neg = _stratified_take(task_pos, task_neg, cfg.support_size)
    qry_pos, qry_neg = _stratified_take(task_pos - sup_pos, task_neg - sup_neg, cfg.query_size)

    support_rows = np.concatenate([pos_pick[:sup_pos], neg_pick[:sup_neg]])
    query_rows = np.concatenate(
        [pos_pick[sup_pos : sup_pos + qry_pos], neg_pick[sup_neg : sup_neg + qry_neg]]
    )
    support_rows = rng.permutation(support_rows)
    query_rows = rng.permutation(query_rows)
    return Episode(
        support=pool.select_rows(support_rows),
        query=pool.select_rows(query_rows),
        task_index=task_index,
    )


def _hvp(
    params: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    mask: np.ndarray | None,
    vec: np.ndarray,
) -> np.ndarray:
    """Hessian-vector product of each stacked episode's support loss via
    central differences of the analytic gradient.

    Each episode's step comes from its own 1-D norm: the axis= form of
    np.linalg.norm sums in another order and would change the bits.
    """
    norms = [float(np.linalg.norm(v)) for v in vec]
    r = np.array(
        [
            1e-6 * (1.0 + float(np.abs(p).max())) / norm if norm else 1.0
            for p, norm in zip(params.values, norms)
        ]
    )[:, None]
    g_plus = backward(ModelParams._trusted(params.values + r * vec, params.arch), X, y, mask)
    g_minus = backward(ModelParams._trusted(params.values - r * vec, params.arch), X, y, mask)
    out = (g_plus - g_minus) / (2.0 * r)
    out[np.array(norms) == 0.0] = 0.0
    return out


def _adam_update(
    values: np.ndarray, grad: np.ndarray, state: AdamState, lr: float
) -> tuple[np.ndarray, AdamState]:
    step = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**step)
    v_hat = v / (1.0 - state.beta2**step)
    new_values = values - lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    new_state = AdamState(
        m=m, v=v, step=step, beta1=state.beta1, beta2=state.beta2, epsilon=state.epsilon
    )
    return new_values, new_state


def _meta_batch(theta: ModelParams, episodes: list[Episode], cfg: MamlConfig):
    """Meta-gradient, meta-loss and query accuracy of a meta-batch, scored a
    stack of episodes at a time and reduced in episode order from zeros, so
    the result does not depend on the stack size. The episodes must share
    their support and query sizes.
    """
    sizes = {(ep.support.n, ep.query.n) for ep in episodes}
    if len(sizes) != 1:
        raise LengthMismatch(f"episodes of one meta-batch differ in size: {sorted(sizes)}")
    (n_support, n_query), = sizes
    per_stack = max(1, _STACK_CELLS // (max(n_support, n_query) * max(theta.arch.hidden_dims)))

    meta_grad = np.zeros_like(theta.values)
    meta_loss = 0.0
    correct = 0
    for start in range(0, len(episodes), per_stack):
        grads, probs, labels = _score_stack(theta, episodes[start : start + per_stack], cfg)
        for t in range(len(grads)):
            meta_grad += grads[t]
            meta_loss += bce_loss(probs[t], labels[t])
            correct += int(np.sum((probs[t] >= 0.5) == (labels[t] == 1)))
    t = len(episodes)
    return meta_grad / t, meta_loss / t, correct / (t * n_query)


def _score_stack(theta: ModelParams, stack: list[Episode], cfg: MamlConfig):
    """Adapt theta to each episode of the stack; returns each episode's
    meta-gradient (T, P), query probabilities (T, n) and query labels."""
    arch = theta.arch
    dropout_seeds = None
    if cfg.dropout_in_adapt and arch.dropout_rate > 0.0:
        dropout_seeds = [
            int(_rng(cfg.seed, _STREAM_DROPOUT, ep.task_index).integers(0, 2**31))
            for ep in stack
        ]
    Xs = _stack([ep.support.features for ep in stack])
    ys = _stack([ep.support.labels for ep in stack])
    Xq = _stack([ep.query.features for ep in stack])
    yq = _stack([ep.query.labels for ep in stack])

    # the second-order path needs every step of the inner trajectory
    thetas = np.broadcast_to(theta.values, (len(stack), theta.values.shape[0]))
    path, masks = _descend(
        ModelParams._trusted(thetas, arch), Xs, ys, cfg.alpha, cfg.inner_steps, dropout_seeds
    )
    adapted = ModelParams._trusted(path[-1], arch)
    probs = forward(adapted, Xq, training=False)
    grad = backward(adapted, Xq, yq)
    if not cfg.first_order:
        for step in range(cfg.inner_steps - 1, -1, -1):
            step_params = ModelParams._trusted(path[step], arch)
            grad = grad - cfg.alpha * _hvp(step_params, Xs, ys, masks[step], grad)
    return grad, probs, yq


def meta_train(
    train_pool: LabeledDataset,
    cfg: MamlConfig,
    arch: MlpArchitecture | None = None,
    initial: ModelParams | None = None,
    start_iteration: int = 0,
) -> tuple[ModelParams, TrainLog]:
    """Run cfg.outer_iterations meta-steps with freshly sampled episodes.

    Episode seeds derive from (seed, absolute iteration, slot), so a resumed
    run continues the same episode stream it would have seen uninterrupted.
    Raises Diverged, naming the iteration, when its meta-loss or
    meta-gradient is NaN or Inf.
    """
    if arch is None:
        arch = MlpArchitecture(input_dim=train_pool.m)
    theta = initial if initial is not None else init_params(arch, cfg.seed)
    adam = AdamState.zeros(theta.values.shape[0])
    log = TrainLog()
    batch = cfg.tasks_per_meta_batch
    for it in range(start_iteration, start_iteration + cfg.outer_iterations):
        t0 = time.perf_counter()
        episodes = [
            sample_task(
                train_pool,
                cfg,
                task_seed=int(_rng(cfg.seed, _STREAM_TASK, it, j).integers(0, 2**31)),
                task_index=it * batch + j,
            )
            for j in range(batch)
        ]
        meta_grad, meta_loss, accuracy = _meta_batch(theta, episodes, cfg)
        if not (math.isfinite(meta_loss) and np.all(np.isfinite(meta_grad))):
            raise Diverged(
                f"meta-training diverged at iteration {it}: "
                "the meta-loss or the meta-gradient is NaN or Inf"
            )
        new_values, adam = _adam_update(theta.values, meta_grad, adam, cfg.beta)
        theta = ModelParams(new_values, theta.arch)
        log.append(it, meta_loss, accuracy, time.perf_counter() - t0)
    return theta, log


def meta_evaluate(
    theta: ModelParams,
    test_pool: LabeledDataset,
    cfg: MamlConfig,
    episodes: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Adapt per evaluation episode and predict its query set; returns the
    concatenated query probabilities and ground-truth labels."""
    if episodes is None:
        episodes = max(1, math.ceil(test_pool.n / cfg.samples_per_task))
    probs_parts = []
    label_parts = []
    for j in range(episodes):
        ep = sample_task(
            test_pool,
            cfg,
            task_seed=int(_rng(cfg.seed, _STREAM_EVAL, j).integers(0, 2**31)),
            task_index=j,
        )
        dropout_seed = None
        if cfg.dropout_in_adapt and theta.arch.dropout_rate > 0.0:
            dropout_seed = int(_rng(cfg.seed, _STREAM_EVAL, j, 1).integers(0, 2**31))
        adapted = inner_adapt(theta, ep.support, cfg.alpha, cfg.inner_steps, dropout_seed)
        probs_parts.append(forward(adapted, ep.query.features, training=False))
        label_parts.append(ep.query.labels)
    return np.concatenate(probs_parts), np.concatenate(label_parts)


def save_checkpoint(path, params: ModelParams, cfg: MamlConfig, iteration: int) -> None:
    """Single-line JSON header, newline, then the flat parameters as
    little-endian float32."""
    header = {
        "architecture": {
            "input_dim": params.arch.input_dim,
            "hidden_dims": list(params.arch.hidden_dims),
            "dropout_rate": params.arch.dropout_rate,
        },
        "config": asdict(cfg),
        "seed": cfg.seed,
        "iteration": iteration,
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.values.astype("<f4").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, MamlConfig, int]:
    blob = Path(path).read_bytes()
    split = blob.find(b"\n")
    if split < 0:
        raise ValidationError(f"{path}: missing checkpoint header")
    header = json.loads(blob[:split].decode("utf-8"))
    arch = MlpArchitecture(
        input_dim=header["architecture"]["input_dim"],
        hidden_dims=tuple(header["architecture"]["hidden_dims"]),
        dropout_rate=header["architecture"]["dropout_rate"],
    )
    values = np.frombuffer(blob, dtype="<f4", offset=split + 1).astype(np.float64)
    cfg = MamlConfig(**header["config"])
    return ModelParams(values, arch), cfg, int(header["iteration"])
