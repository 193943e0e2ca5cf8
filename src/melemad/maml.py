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
axis. An Episode holds row indices into its pool. Meta-training and
evaluation share one engine (_adapted_stacks): it gathers a stack of
episodes' rows into (T, n, m) arrays, at most _STACK_CELLS rows x widest
hidden layer x episodes at a time, and adapts them with inner_adapt, the one
inner loop. Meta-training adds one query pass a stack: forward given labels
returns the query probabilities and gradients from the same pass. It adds
the gradients and the losses (bce_loss, one per episode of the stack) to the
meta-gradient and meta-loss in episode order from zeros. Evaluation adds the
query forward pass. Both are byte-identical to one episode at a time, at any
stack size. A NaN or Inf meta-loss, meta-gradient or evaluation probability
raises Diverged; an evaluation with more than SATURATION_LIMIT of its query
probabilities clamped to the bounds raises Saturated.

Randomness comes from generators keyed by the root seed, a stream tag and
the draw's coordinates (_rng), never from a generator built only to draw
another seed. An episode draws its rows from one generator, keyed by
(iteration, slot) in meta-training and by its number in evaluation, taking
each class's rows with rng.choice, so it costs its own rows, not its
pool's. Inner step s of an episode draws its dropout mask from a generator
keyed by (stream, episode index, s), in training and evaluation alike
(_mask_key), so a mask does not depend on the stack size, on how often an
episode is scored, or on where a run was resumed.

Each pass writes its per-layer pre-activations, activations and deltas into
float64 scratch buffers kept between calls (_scratch), with the same ufunc
and matmul calls, so the bits do not change; a stack's gathered rows and
dropout masks live there too. At paper scale these arrays are megabytes
each; allocated afresh, the allocator hands them back to the OS
after every pass and the next pass page-faults them in again, which cost
more time than the arithmetic. The scratch pins one pass's activations
(each buffer at its largest pass so far) between calls and is not
thread-safe: passes must run on one thread. Every array a caller keeps
(forward's probabilities, backward's gradient, adapted parameters) is fresh;
the layer inputs and pre-activations _forward_pass also returns live in the
scratch and are overwritten by the next pass.
"""
from __future__ import annotations

import csv
import json
import math
import time
import typing
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .dataset import LabeledDataset, _half_up
from .errors import (
    DimensionMismatch,
    Diverged,
    LengthMismatch,
    PoolTooSmall,
    Saturated,
    SingleClassPool,
    ValidationError,
    check_fields,
)
from .gbdt import _sigmoid

PROB_EPS = 1e-7
# evaluation fails when more than this fraction of its query probabilities
# is clamped to PROB_EPS or 1 - PROB_EPS
SATURATION_LIMIT = 0.5

# Adam moment decay rates and denominator guard
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8

# rows x widest hidden layer x episodes in one stack, in meta-training and
# evaluation alike; bounds the gathered rows, masks and activation arrays, so
# a paper-scale task runs one episode a stack
_STACK_CELLS = 1 << 14

# one float64 buffer per tag, grown to the largest pass it has served
_SCRATCH: dict[str, np.ndarray] = {}

# stream tags, second in every generator key after the root seed; the keys
# of one tag share one length, since SeedSequence zero-pads keys shorter
# than four words ([s, 3, j] draws what [s, 3, j, 0] draws)
_STREAM_INIT = 0  # (seed, INIT): initial weights
_STREAM_TASK = 1  # (seed, TASK, iteration, slot): a meta-train episode's rows
_STREAM_DROPOUT = 2  # (seed, DROPOUT, TASK or EVAL, episode, step): a mask
_STREAM_EVAL = 3  # (seed, EVAL, episode): an evaluation episode's rows


def _rng(*key: int) -> np.random.Generator:
    """The generator keyed by key. SeedSequence copies a uint32 array as its
    words but converts a list one int at a time, for the same state; a value
    that does not fit one word (2**32 or more, or negative) goes to it as a
    list, to be split into words or rejected there."""
    key = [int(k) for k in key]
    try:
        words = np.array(key, dtype=np.uint32)
    except OverflowError:
        words = key
    return np.random.default_rng(np.random.SeedSequence(words))


def _mask_key(seed: int, stream: int, episode: int) -> tuple[int, ...]:
    """The dropout key of an episode of a stream (_STREAM_TASK or
    _STREAM_EVAL); inner step s draws its mask from the key plus s."""
    return (seed, _STREAM_DROPOUT, stream, episode)


@dataclass(frozen=True)
class MlpArchitecture:
    """Input layer, ReLU hidden stack (dropout after the first hidden layer
    only), single sigmoid output."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 32, 16)
    dropout_rate: float = 0.2

    def __post_init__(self):
        check_fields("MlpArchitecture", asdict(self), typing.get_type_hints(MlpArchitecture))
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
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
    """Row indices into the pool it was drawn from; task_index keys its masks."""

    support: np.ndarray
    query: np.ndarray
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
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

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


def dropout_mask(arch: MlpArchitecture, n_rows: int, keys: list[tuple[int, ...]],
                 step: int) -> np.ndarray | None:
    """Inverted-scaling keep masks for the first hidden layer of a stack of
    episodes at inner step `step`, (len(keys), n_rows, h0), episode t's drawn
    from the generator keyed keys[t] + (step,); None if the architecture has
    no dropout. The masks are step's scratch buffer, valid until the next
    call for the same step."""
    if arch.dropout_rate == 0.0:
        return None
    mask = _scratch(f"mask{step}", (len(keys), n_rows, arch.hidden_dims[0]))
    for t, key in enumerate(keys):
        _rng(*key, step).random(out=mask[t])
    np.greater_equal(mask, arch.dropout_rate, out=mask)
    return np.divide(mask, 1.0 - arch.dropout_rate, out=mask)


def _scratch(tag: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of `shape` in tag's
    buffer, valid until the next call with the same tag."""
    size = math.prod(shape)
    buf = _SCRATCH.get(tag)
    if buf is None or buf.size < size:
        buf = _SCRATCH[tag] = np.empty(size)
    return buf[:size].reshape(shape)


def _forward_pass(params: ModelParams, X: np.ndarray, mask: np.ndarray | None):
    """Returns (layer inputs, pre-activations, raw probs, clamped probs);
    the hidden layers' inputs and pre-activations are scratch views."""
    layers = params.layers()
    inputs = [X]
    pre = []
    a = X
    for i, (W, b) in enumerate(layers[:-1]):
        shape = (*a.shape[:-1], W.shape[-1])
        z = np.matmul(a, W, out=_scratch(f"z{i}", shape))
        np.add(z, b[..., None, :], out=z)
        pre.append(z)
        a = np.maximum(z, 0.0, out=_scratch(f"a{i}", shape))
        if i == 0 and mask is not None:
            np.multiply(a, mask, out=a)
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


def forward(params: ModelParams, X: np.ndarray, labels=None):
    """Per-row inference probability in (0,1), clamped at 1e-7 from either
    end, without dropout; (n,) for one parameter vector, (T, n) for a stack.
    Given labels, returns (probs, backward's gradient at those labels) from
    the one pass."""
    X = _check_input(params, X)
    if labels is None:
        return _forward_pass(params, X, None)[3]
    return _probs_and_grad(params, X, labels, None)


def bce_loss(probs, labels):
    """Mean BCE over the last axis: a float for one set of rows (n,), one
    loss per episode (T,) for a stack (T, n). Each row of a stack reduces as
    it would alone, so the losses are the per-episode losses bit for bit."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise LengthMismatch(f"{probs.shape} probs vs {labels.shape} labels")
    loss = -np.mean(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs), axis=-1)
    return float(loss) if loss.ndim == 0 else loss


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
    return _probs_and_grad(params, _check_input(params, X), labels, dropout_mask)[1]


def _probs_and_grad(params: ModelParams, X: np.ndarray, labels,
                    mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass over checked rows X and its backpropagation: the
    clamped probabilities and the gradient of their mean BCE at labels."""
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim == 2:
        y = y.ravel()
    if y.shape != X.shape[:-1]:
        raise LengthMismatch(f"{X.shape[:-1]} rows vs {y.shape} labels")
    inputs, pre, p_raw, p = _forward_pass(params, X, mask)
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
        z = pre[i - 1]
        d = np.matmul(d, np.swapaxes(W, -1, -2), out=_scratch(f"d{i - 1}", z.shape))
        if i == 1 and mask is not None:
            np.multiply(d, mask, out=d)
        # the ReLU gate as 1.0/0.0, written over the pre-activations that
        # this pass reads for the last time here
        np.multiply(d, np.greater(z, 0.0, out=z), out=d)

    lead = X.shape[:-2]
    return p, np.concatenate(
        [part for gw, gb in grads for part in (gw.reshape(*lead, -1), gb)], axis=-1
    )


def inner_adapt(
    theta: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    inner_steps: int,
    dropout_keys: list[tuple[int, ...]],
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """The one inner loop: inner_steps gradient-descent steps on support BCE
    for a stack of T episodes at once (theta (T, P), supports X (T, n, m),
    labels (T, n)). Episode t draws step s's mask from dropout_keys[t] +
    (s,), so a mask is a pure function of its episode and step; an
    architecture without dropout draws none. theta is never modified.

    Returns the parameter stack before each step followed by the adapted
    stack (inner_steps + 1 arrays), and each step's (T, n, h0) mask, a
    scratch view (dropout_mask), or None.
    """
    arch = theta.arch
    path = [theta.values]
    masks: list[np.ndarray | None] = []
    for step in range(inner_steps):
        mask = dropout_mask(arch, X.shape[1], dropout_keys, step)
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
    rng: np.random.Generator,
    task_index: int = 0,
) -> Episode:
    """Draw one episode's row indices from rng: samples_per_task rows
    without replacement, stratified to the pool ratio, split disjointly into
    support and query. Each class's rows come from rng.choice over the
    class's row count, which draws O(rows taken) random numbers, not one per
    row of the pool."""
    if pool.n < cfg.samples_per_task:
        raise PoolTooSmall(f"pool has {pool.n} rows, task needs {cfg.samples_per_task}")
    neg, pos = pool.class_rows
    if pos.size == 0 or neg.size == 0:
        raise SingleClassPool("episode sampling needs both classes in the pool")

    task_pos, task_neg = _stratified_take(pos.size, neg.size, cfg.samples_per_task)
    pos_pick = pos[rng.choice(pos.size, task_pos, replace=False)]
    neg_pick = neg[rng.choice(neg.size, task_neg, replace=False)]

    sup_pos, sup_neg = _stratified_take(task_pos, task_neg, cfg.support_size)
    qry_pos, qry_neg = _stratified_take(task_pos - sup_pos, task_neg - sup_neg, cfg.query_size)

    support = np.concatenate([pos_pick[:sup_pos], neg_pick[:sup_neg]])
    query = np.concatenate(
        [pos_pick[sup_pos : sup_pos + qry_pos], neg_pick[sup_neg : sup_neg + qry_neg]]
    )
    return Episode(rng.permutation(support), rng.permutation(query), task_index)


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
    m = _ADAM_BETA1 * state.m + (1.0 - _ADAM_BETA1) * grad
    v = _ADAM_BETA2 * state.v + (1.0 - _ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - _ADAM_BETA1**step)
    v_hat = v / (1.0 - _ADAM_BETA2**step)
    new_values = values - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPSILON)
    return new_values, AdamState(m=m, v=v, step=step)


def _adapted_stacks(theta: ModelParams, pool: LabeledDataset, episodes: list[Episode],
                    cfg: MamlConfig, stream: int):
    """Adapt theta to episodes drawn from pool, a stack at a time: as many
    episodes as keep cfg's larger set size x widest hidden layer x episodes
    within _STACK_CELLS. Episode masks are keyed in stream (_mask_key).

    Yields each stack's episodes, inner path and masks (inner_adapt), and its
    support and query rows (T, n, m) and labels (T, n). The rows and masks
    are scratch views, valid until the next stack; mode="clip" lets take
    write the rows straight into the scratch instead of buffering them (the
    indices are in range).
    """
    arch = theta.arch
    per_stack = max(1, _STACK_CELLS // (max(cfg.support_size, cfg.query_size)
                                        * max(arch.hidden_dims)))
    for start in range(0, len(episodes), per_stack):
        stack = episodes[start : start + per_stack]
        support = np.stack([ep.support for ep in stack])
        query = np.stack([ep.query for ep in stack])
        Xs = np.take(pool.features, support, axis=0, mode="clip",
                     out=_scratch("support", (*support.shape, pool.m)))
        Xq = np.take(pool.features, query, axis=0, mode="clip",
                     out=_scratch("query", (*query.shape, pool.m)))
        ys, yq = pool.labels[support], pool.labels[query]
        thetas = np.broadcast_to(theta.values, (len(stack), theta.values.shape[0]))
        keys = [_mask_key(cfg.seed, stream, ep.task_index) for ep in stack]
        path, masks = inner_adapt(
            ModelParams._trusted(thetas, arch), Xs, ys, cfg.alpha, cfg.inner_steps, keys
        )
        yield stack, path, masks, (Xs, ys), (Xq, yq)


def _meta_batch(theta: ModelParams, pool: LabeledDataset, episodes: list[Episode],
                cfg: MamlConfig):
    """Meta-gradient, meta-loss and query accuracy of a meta-batch drawn from
    pool, reduced in episode order from zeros, so the result does not depend
    on the stack size."""
    arch = theta.arch
    meta_grad = np.zeros_like(theta.values)
    meta_loss = 0.0
    correct = 0
    stacks = _adapted_stacks(theta, pool, episodes, cfg, _STREAM_TASK)
    for _, path, masks, (Xs, ys), (Xq, yq) in stacks:
        probs, grads = forward(ModelParams._trusted(path[-1], arch), Xq, yq)
        if not cfg.first_order:
            # the second-order path needs every step of the inner trajectory
            for step in range(cfg.inner_steps - 1, -1, -1):
                step_params = ModelParams._trusted(path[step], arch)
                grads = grads - cfg.alpha * _hvp(step_params, Xs, ys, masks[step], grads)
        for grad, loss in zip(grads, bce_loss(probs, yq).tolist()):
            meta_grad += grad
            meta_loss += loss
        correct += int(np.count_nonzero((probs >= 0.5) == (yq == 1)))
    t = len(episodes)
    return meta_grad / t, meta_loss / t, correct / (t * cfg.query_size)


def meta_train(
    train_pool: LabeledDataset,
    cfg: MamlConfig,
    arch: MlpArchitecture | None = None,
    initial: ModelParams | None = None,
    start_iteration: int = 0,
) -> tuple[ModelParams, TrainLog]:
    """Run cfg.outer_iterations meta-steps with freshly sampled episodes.

    Episode j of iteration it draws its rows from the generator keyed
    (seed, _STREAM_TASK, it, j) and its dropout masks from its task_index
    it * tasks_per_meta_batch + j, with it absolute, so a resumed run samples
    the episodes it would have seen uninterrupted.
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
                train_pool, cfg, _rng(cfg.seed, _STREAM_TASK, it, j), task_index=it * batch + j
            )
            for j in range(batch)
        ]
        meta_grad, meta_loss, accuracy = _meta_batch(theta, train_pool, episodes, cfg)
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
    """Adapt theta to each evaluation episode and predict its query set, a
    stack of episodes at a time; returns the concatenated query probabilities
    and ground-truth labels, in episode order. Episode j draws its rows from
    the generator keyed (seed, _STREAM_EVAL, j). Raises Diverged, naming the
    episode, when one of its query probabilities is NaN or Inf, and
    Saturated when more than SATURATION_LIMIT of all of them are clamped."""
    if episodes is None:
        episodes = max(1, math.ceil(test_pool.n / cfg.samples_per_task))
    drawn = [sample_task(test_pool, cfg, _rng(cfg.seed, _STREAM_EVAL, j), task_index=j)
             for j in range(episodes)]
    probs_parts = []
    label_parts = []
    stacks = _adapted_stacks(theta, test_pool, drawn, cfg, _STREAM_EVAL)
    for stack, path, _, _, (Xq, yq) in stacks:
        probs = forward(ModelParams._trusted(path[-1], theta.arch), Xq)
        finite = np.isfinite(probs).all(axis=1)
        if not finite.all():
            episode = stack[int(np.argmin(finite))].task_index
            raise Diverged(f"evaluation diverged at episode {episode}: "
                           "its query probabilities are NaN or Inf")
        probs_parts.append(probs.ravel())
        label_parts.append(yq.ravel())
    probs = np.concatenate(probs_parts)
    clamped = np.count_nonzero((probs == PROB_EPS) | (probs == 1.0 - PROB_EPS))
    if clamped > SATURATION_LIMIT * probs.size:
        raise Saturated(f"evaluation saturated: {clamped} of {probs.size} query "
                        f"probabilities are clamped to {PROB_EPS} or 1 - {PROB_EPS}")
    return probs, np.concatenate(label_parts)


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
        "iteration": iteration,
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.values.astype("<f4").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, dict, int]:
    """The parameters, the stored config as a dict (for the caller to check
    before building a MamlConfig from it) and the iteration. A header that is
    not a JSON object holding the keys save_checkpoint writes, an architecture
    value that does not fit its field's type, or a payload that does not hold
    the architecture's parameters, raises ValidationError.
    """
    blob = Path(path).read_bytes()
    split = blob.find(b"\n")
    if split < 0:
        raise ValidationError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(blob[:split].decode("utf-8"))
        architecture = dict(header["architecture"])
        check_fields(f"checkpoint {path} architecture", architecture,
                     typing.get_type_hints(MlpArchitecture))
        arch = MlpArchitecture(**architecture)
        config, iteration = dict(header["config"]), header["iteration"]
        check_fields(f"checkpoint {path}", {"iteration": iteration}, {"iteration": int})
    except KeyError as exc:
        raise ValidationError(f"{path}: checkpoint header has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed checkpoint header: {exc}") from None
    if iteration < 0:
        raise ValidationError(f"{path}: checkpoint iteration {iteration} is negative")
    payload = len(blob) - split - 1
    if payload != 4 * arch.param_count:
        raise ValidationError(
            f"{path}: checkpoint payload is {payload} bytes, "
            f"its architecture needs {4 * arch.param_count}"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=split + 1).astype(np.float64)
    return ModelParams(values, arch), config, iteration
