"""Meta-learned MLP binary classifier.

Inner loop: plain gradient descent on support-set BCE at rate alpha
(inner_adapt, the one inner loop). Outer loop: an Adam step at rate beta on
the mean query loss of a meta-batch of episodes. The default meta-gradient
is first-order (the query gradient at the adapted parameters);
first_order=False differentiates through the inner update, with exact
Hessian-vector products by complex step (_hvp), for small-model
verification.

Shapes: ModelParams, forward and backward take an optional leading episode
axis, parameters (P,) with rows (n, m) or a stack (T, P) with rows
(T, n, m). Parameter vectors are immutable snapshots: every update returns
a new one. An Episode holds row indices into its pool. meta_train and
meta_evaluate adapt their episodes a stack at a time (_adapted_stacks, cut
by dataset._blocks); their results do not depend on the stack size.

Keys: every random draw is a draw of a key (dataset._key) of the root
seed, a stream tag and the draw's coordinates, counter-based: draw i of a
key is a hash of the key and i (dataset._draws). An episode's rows are keyed
by (iteration, slot) in meta-training and by its number in evaluation;
inner step s's dropout mask by (stream, episode index, s) (_mask_key). So
no draw depends on the stack size, on how often an episode is scored, or on
where a run was resumed.

Failures: a NaN or Inf meta-loss, meta-gradient or evaluation probability
raises Diverged; a meta-training iteration or an evaluation with more than
SATURATION_LIMIT of its query probabilities clamped to the bounds raises
Saturated.

Scratch: passes work in buffers kept between calls, one per tag and dtype
(_scratch), so passes must run on one thread. Every array a caller keeps
(probabilities, gradients, adapted parameters) is fresh; _forward_pass's
layer inputs and dropout_mask's masks are scratch, valid until the next
pass. test_maml holds the arguments that the stacked, one-buffer passes are
bit for bit the per-episode, separate-buffer ones.

Imports: the output layer's logistic function is dataset._sigmoid, which
gbdt's boosting shares, so maml does not import gbdt. MamlConfig and
MlpArchitecture are defined in config, with the rest of the config schema.
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

from .config import MamlConfig, MlpArchitecture
from .dataset import (LabeledDataset, _blocks, _draws, _half_up, _key, _least_draw, _sigmoid,
                      _smallest, _uniforms)
from .errors import Diverged, Saturated, ValidationError, check_fields

PROB_EPS = 1e-7
# a meta-training iteration or an evaluation fails when more than this
# fraction of its query probabilities is clamped to PROB_EPS or 1 - PROB_EPS
SATURATION_LIMIT = 0.5

# Adam moment decay rates and denominator guard
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8

# rows x widest hidden layer x episodes in one stack, in meta-training and
# evaluation alike; bounds the gathered rows, masks and activation arrays, so
# a paper-scale task runs one episode a stack
_STACK_CELLS = 1 << 14

# one buffer per (tag, dtype), grown to the largest pass it has served
_SCRATCH: dict[tuple[str, np.dtype], np.ndarray] = {}
# cells of dropout_mask's uint64 draw buffer, which a block of rows fills
_DRAW_CELLS = 1 << 13
# _hvp's imaginary step; the product's truncation error is of order its square
_HVP_STEP = 1e-20

# stream tags, second in every key after the root seed; the keys of one tag
# share one length, so no key drawn from is another's prefix
_STREAM_INIT = 0  # (seed, INIT): initial weights
_STREAM_TASK = 1  # (seed, TASK, iteration, slot): a meta-train episode's rows
_STREAM_DROPOUT = 2  # (seed, DROPOUT, TASK or EVAL, episode, step): a mask
_STREAM_EVAL = 3  # (seed, EVAL, episode): an evaluation episode's rows


def _mask_key(seed: int, stream: int, episode: int) -> tuple[int, ...]:
    """The dropout key of an episode of a stream (_STREAM_TASK or
    _STREAM_EVAL); inner step s draws its mask from the key plus s."""
    return (seed, _STREAM_DROPOUT, stream, episode)


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
            raise ValidationError(
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
    """Scaled-uniform weights, bound sqrt(6 / (fan_in + fan_out)); zero biases.
    The weights, layer after layer, are the uniforms of the key (seed,
    _STREAM_INIT), each mapped to [-bound, bound) as numpy's uniform maps it."""
    u = _uniforms(_key(seed, _STREAM_INIT), sum(fi * fo for fi, fo in arch.layer_sizes))
    pieces = []
    start = 0
    for fan_in, fan_out in arch.layer_sizes:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        pieces.append(-bound + 2.0 * bound * u[start : start + fan_in * fan_out])
        pieces.append(np.zeros(fan_out))
        start += fan_in * fan_out
    return ModelParams(np.concatenate(pieces), arch)


def dropout_mask(arch: MlpArchitecture, n_rows: int, keys: list[tuple[int, ...]],
                 step: int) -> np.ndarray | None:
    """Keep masks for the first hidden layer of a stack of episodes at inner
    step `step`: bool (len(keys), n_rows, h0), True where a unit is kept;
    None if the architecture has no dropout. Unit u of row r of episode t
    is kept where draw r * h0 + u of the key keys[t] + (step,) has a uniform
    of at least dropout_rate. The draws are hashed a block of rows at a time
    into one small uint64 buffer, so a step's mask can be drawn again from
    its keys, whatever the block. The masks are one scratch buffer, valid
    until the next call."""
    if arch.dropout_rate == 0.0:
        return None
    h0 = arch.hidden_dims[0]
    keep = _scratch("keep", (len(keys), n_rows, h0), bool)
    blocks = _blocks(n_rows, h0, _DRAW_CELLS)
    draws = _scratch("draws", (blocks[0].stop * h0 if blocks else 0,), np.uint64)
    least = _least_draw(arch.dropout_rate)
    for t, key in enumerate(keys):
        mask_key = _key(*key, step)
        for rows in blocks:
            size = (rows.stop - rows.start) * h0
            block = _draws(mask_key, size, rows.start * h0, draws[:size])
            np.greater_equal(block.reshape(-1, h0), least, out=keep[t, rows])
    return keep


def _scratch(tag: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialised C-contiguous array of `shape` and `dtype` in the
    buffer kept under (tag, dtype), valid until the next call with the same
    tag and dtype. So a complex pass neither evicts nor reuses a real one."""
    key = (tag, np.dtype(dtype))
    size = math.prod(shape)
    buf = _SCRATCH.get(key)
    if buf is None or buf.size < size:
        buf = _SCRATCH[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _forward_pass(params: ModelParams, X: np.ndarray, keep: np.ndarray | None):
    """One pass over checked rows X, with dropout where a keep mask is given.
    Returns params' layers, the layer inputs and the raw and clamped probs.
    Each hidden layer's activations are one scratch buffer (a{i}): the bias
    add, the ReLU and the dropout run in place in it, in the parameters'
    dtype."""
    layers = params.layers()
    inputs = [X]
    a = X
    for i, (W, b) in enumerate(layers[:-1]):
        a = np.matmul(a, W, out=_scratch(f"a{i}", (*a.shape[:-1], W.shape[-1]), W.dtype))
        np.add(a, b[..., None, :], out=a)
        np.maximum(a, 0.0, out=a)
        if i == 0 and keep is not None:
            np.multiply(a, keep, out=a)
            np.multiply(a, 1.0 / (1.0 - params.arch.dropout_rate), out=a)
        inputs.append(a)
    W_out, b_out = layers[-1]
    z_out = (a @ W_out + b_out[..., None, :])[..., 0]
    p_raw = _sigmoid(z_out)
    return layers, inputs, p_raw, np.clip(p_raw, PROB_EPS, 1.0 - PROB_EPS)


def _check_input(params: ModelParams, X) -> np.ndarray:
    """X is (n, m) for one parameter vector, (T, n, m) for a stack of T."""
    X = np.asarray(X, dtype=np.float64)
    lead = params.values.shape[:-1]
    if X.ndim != len(lead) + 2 or X.shape[:-2] != lead or X.shape[-1] != params.arch.input_dim:
        raise ValidationError(
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
        raise ValidationError(f"{probs.shape} probs vs {labels.shape} labels")
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

    dropout_mask is the bool keep mask (dropout_mask) the paired forward
    used, or None; rows where the output clamp is active contribute zero
    gradient, matching the clamped loss exactly.
    """
    if dropout_mask is not None and dropout_mask.dtype != bool:
        raise ValidationError(f"dropout_mask must be a bool keep mask, got {dropout_mask.dtype}")
    return _probs_and_grad(params, _check_input(params, X), labels, dropout_mask)[1]


def _probs_and_grad(params: ModelParams, X: np.ndarray, labels,
                    keep: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass over checked rows X and its backpropagation: the
    clamped probabilities and the gradient of their mean BCE at labels. Each
    layer's weight and bias gradients are written into their views of the
    one (..., P) output. Layer i's delta is written over its activations
    once the weight gradient above it has read them, so a pass holds one
    buffer per hidden layer."""
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim == 2:
        y = y.ravel()
    if y.shape != X.shape[:-1]:
        raise ValidationError(f"{X.shape[:-1]} rows vs {y.shape} labels")
    layers, inputs, p_raw, p = _forward_pass(params, X, keep)
    n = X.shape[-2]

    grad = np.empty((*X.shape[:-2], params.arch.param_count), params.values.dtype)
    grad_layers = ModelParams._trusted(grad, params.arch).layers()
    interior = (p_raw > PROB_EPS) & (p_raw < 1.0 - PROB_EPS)
    d = (np.where(interior, p - y, 0.0) / n)[..., None]

    for i in range(len(layers) - 1, -1, -1):
        grad_W, grad_b = grad_layers[i]
        np.matmul(np.swapaxes(inputs[i], -1, -2), d, out=grad_W)
        np.sum(d, axis=-2, out=grad_b)
        if i == 0:
            break
        # the ReLU gate of the layer below, taken from its activations,
        # which its delta then overwrites; a dropped unit's activation is 0
        # (or NaN), so its gate is False and the gate applies the keep mask
        a = inputs[i]
        gate = np.greater(a, 0.0, out=_scratch("gate", a.shape, bool))
        d = np.matmul(d, np.swapaxes(layers[i][0], -1, -2), out=a)
        if i == 1 and keep is not None:
            np.multiply(d, 1.0 / (1.0 - params.arch.dropout_rate), out=d)
        np.multiply(d, gate, out=d)
    return p, grad


def inner_adapt(
    theta: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    inner_steps: int,
    dropout_keys: list[tuple[int, ...]],
) -> list[np.ndarray]:
    """The one inner loop: inner_steps gradient-descent steps on support BCE
    for a stack of T episodes at once (theta (T, P), supports X (T, n, m),
    labels (T, n)). Episode t draws step s's mask from dropout_keys[t] +
    (s,) (dropout_mask), so a mask is a pure function of its episode and
    step and can be drawn again; an architecture without dropout draws none.
    theta is never modified.

    Returns the parameter stack before each step followed by the adapted
    stack: inner_steps + 1 arrays.
    """
    arch = theta.arch
    path = [theta.values]
    for step in range(inner_steps):
        keep = dropout_mask(arch, X.shape[1], dropout_keys, step)
        grad = backward(ModelParams._trusted(path[-1], arch), X, y, keep)
        path.append(path[-1] - alpha * grad)
    return path


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


def sample_task(pool: LabeledDataset, cfg: MamlConfig, key: int, task_index: int = 0) -> Episode:
    """Draw one episode's row indices from the draws of key: samples_per_task
    rows without replacement, stratified to the pool ratio, split disjointly
    into support and query. Draw i keys the i-th row of the label-0 rows
    followed by the label-1 rows; each class's picks are its rows with the
    smallest keys, in key order, and its first picks are its support (picks
    beyond the support and query would go unused, so none is taken). The
    next support_size + query_size draws shuffle the support, then the
    query."""
    if pool.n < cfg.samples_per_task:
        raise ValidationError(f"pool has {pool.n} rows, task needs {cfg.samples_per_task}")
    neg, pos = pool.class_rows
    if pos.size == 0 or neg.size == 0:
        raise ValidationError("episode sampling needs both classes in the pool")

    task_pos, task_neg = _stratified_take(pos.size, neg.size, cfg.samples_per_task)
    sup_pos, sup_neg = _stratified_take(task_pos, task_neg, cfg.support_size)
    qry_pos, qry_neg = _stratified_take(task_pos - sup_pos, task_neg - sup_neg, cfg.query_size)

    n = pool.n
    draws = _draws(key, n + cfg.support_size + cfg.query_size)
    neg_pick = neg[_smallest(draws[: neg.size], sup_neg + qry_neg)]
    pos_pick = pos[_smallest(draws[neg.size : n], sup_pos + qry_pos)]
    support = np.concatenate([pos_pick[:sup_pos], neg_pick[:sup_neg]])
    query = np.concatenate([pos_pick[sup_pos:], neg_pick[sup_neg:]])
    shuffle = draws[n:]
    return Episode(support[shuffle[: support.size].argsort()],
                   query[shuffle[support.size :].argsort()], task_index)


def _hvp(
    params: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    keep: np.ndarray | None,
    vec: np.ndarray,
) -> np.ndarray:
    """Hessian-vector product of each stacked episode's support loss under
    the step's keep mask (or None), by complex step (Squire & Trapp 1998):
    the imaginary part of one gradient pass at params + i*h*vec, over h. Its
    truncation error is of relative order h**2, far below rounding, and no
    difference of two gradients is taken, so the product is exact to
    rounding; a zero vec gives exact zeros.

    numpy orders complex numbers by their real parts first, so the ReLU
    (np.maximum), its gate (a > 0), the output clamp and its interior test
    follow the primal pass, and the product is that of the piecewise-smooth
    loss on the primal's piece; only where a real part is exactly 0 does the
    imaginary part break the tie.
    """
    values = params.values + (1j * _HVP_STEP) * vec
    return backward(ModelParams._trusted(values, params.arch), X, y, keep).imag / _HVP_STEP


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


def _gather(features: np.ndarray, rows: np.ndarray, tag: str) -> np.ndarray:
    """features[rows] in tag's float64 scratch. mode="clip" lets take write
    straight into the scratch instead of buffering (the indices are in
    range). A float32 pool (a binary file's matrix) is gathered in float32
    and widened exactly, so only the stack's rows are converted."""
    out = _scratch(tag, (*rows.shape, features.shape[1]))
    if features.dtype == out.dtype:
        return np.take(features, rows, axis=0, mode="clip", out=out)
    out[...] = features[rows]
    return out


def _adapted_stacks(theta: ModelParams, pool: LabeledDataset, episodes: list[Episode],
                    cfg: MamlConfig, stream: int):
    """Adapt theta to episodes drawn from pool, a stack at a time: as many
    episodes as keep cfg's larger set size x widest hidden layer x episodes
    within _STACK_CELLS. Episode masks are keyed in stream (_mask_key).

    Yields each stack's episodes, inner path (inner_adapt), mask keys (step
    s's masks are dropout_mask(arch, n, keys, s) again), and its support and
    query rows (T, n, m) and labels (T, n). The rows are float64 scratch
    views (_gather), valid until the next stack.
    """
    arch = theta.arch
    width = max(cfg.support_size, cfg.query_size) * max(arch.hidden_dims)
    for part in _blocks(len(episodes), width, _STACK_CELLS):
        stack = episodes[part]
        support = np.stack([ep.support for ep in stack])
        query = np.stack([ep.query for ep in stack])
        Xs = _gather(pool.features, support, "support")
        Xq = _gather(pool.features, query, "query")
        ys, yq = pool.labels[support], pool.labels[query]
        thetas = np.broadcast_to(theta.values, (len(stack), theta.values.shape[0]))
        keys = [_mask_key(cfg.seed, stream, ep.task_index) for ep in stack]
        path = inner_adapt(
            ModelParams._trusted(thetas, arch), Xs, ys, cfg.alpha, cfg.inner_steps, keys
        )
        yield stack, path, keys, (Xs, ys), (Xq, yq)


def _meta_batch(theta: ModelParams, pool: LabeledDataset, episodes: list[Episode],
                cfg: MamlConfig):
    """Meta-gradient, meta-loss, query accuracy and the number of clamped
    query probabilities of a meta-batch drawn from pool, reduced in episode
    order from zeros, so the result does not depend on the stack size."""
    arch = theta.arch
    meta_grad = np.zeros_like(theta.values)
    meta_loss = 0.0
    correct = clamped = 0
    stacks = _adapted_stacks(theta, pool, episodes, cfg, _STREAM_TASK)
    for _, path, keys, (Xs, ys), (Xq, yq) in stacks:
        probs, grads = forward(ModelParams._trusted(path[-1], arch), Xq, yq)
        if not cfg.first_order:
            # the second-order path needs every step of the inner trajectory
            for step in range(cfg.inner_steps - 1, -1, -1):
                keep = dropout_mask(arch, Xs.shape[1], keys, step)
                step_params = ModelParams._trusted(path[step], arch)
                grads = grads - cfg.alpha * _hvp(step_params, Xs, ys, keep, grads)
        for grad, loss in zip(grads, bce_loss(probs, yq).tolist()):
            meta_grad += grad
            meta_loss += loss
        correct += int(np.count_nonzero((probs >= 0.5) == (yq == 1)))
        clamped += _clamped(probs)
    t = len(episodes)
    return meta_grad / t, meta_loss / t, correct / (t * cfg.query_size), clamped


def meta_train(
    train_pool: LabeledDataset,
    cfg: MamlConfig,
    arch: MlpArchitecture | None = None,
    initial: ModelParams | None = None,
    start_iteration: int = 0,
) -> tuple[ModelParams, TrainLog]:
    """Run cfg.outer_iterations meta-steps with freshly sampled episodes.

    Episode j of iteration it draws its rows from the key
    (seed, _STREAM_TASK, it, j) and its dropout masks from its task_index
    it * tasks_per_meta_batch + j, with it absolute, so a resumed run samples
    the episodes it would have seen uninterrupted.
    Raises Diverged, naming the iteration, when its meta-loss or
    meta-gradient is NaN or Inf, and else Saturated when more than
    SATURATION_LIMIT of its query probabilities are clamped.
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
                train_pool, cfg, _key(cfg.seed, _STREAM_TASK, it, j), task_index=it * batch + j
            )
            for j in range(batch)
        ]
        meta_grad, meta_loss, accuracy, clamped = _meta_batch(theta, train_pool, episodes, cfg)
        if not (math.isfinite(meta_loss) and np.all(np.isfinite(meta_grad))):
            raise Diverged(
                f"meta-training diverged at iteration {it}: "
                "the meta-loss or the meta-gradient is NaN or Inf"
            )
        _check_saturation(f"meta-training saturated at iteration {it}", clamped,
                          batch * cfg.query_size)
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
    the key (seed, _STREAM_EVAL, j). Raises Diverged, naming the
    episode, when one of its query probabilities is NaN or Inf, and
    Saturated when more than SATURATION_LIMIT of all of them are clamped."""
    if episodes is None:
        episodes = max(1, math.ceil(test_pool.n / cfg.samples_per_task))
    if episodes < 1:
        raise ValidationError(f"episodes must be >= 1, got {episodes}")
    drawn = [sample_task(test_pool, cfg, _key(cfg.seed, _STREAM_EVAL, j), task_index=j)
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
    _check_saturation("evaluation saturated", _clamped(probs), probs.size)
    return probs, np.concatenate(label_parts)


def _clamped(probs: np.ndarray) -> int:
    """How many of probs sit at a clamp bound, PROB_EPS or 1 - PROB_EPS."""
    return int(np.count_nonzero((probs == PROB_EPS) | (probs == 1.0 - PROB_EPS)))


def _check_saturation(what: str, clamped: int, total: int) -> None:
    if clamped > SATURATION_LIMIT * total:
        raise Saturated(f"{what}: {clamped} of {total} query probabilities "
                        f"are clamped to {PROB_EPS} or 1 - {PROB_EPS}")


def save_checkpoint(path, params: ModelParams, cfg: MamlConfig, iteration: int,
                    train_fraction: float) -> None:
    """Single-line JSON header, newline, then the flat parameters as
    little-endian float32. The header holds the split's train_fraction too,
    so a resumed run can check that it splits its input as this one did."""
    header = {
        "architecture": asdict(params.arch),
        "config": asdict(cfg),
        "iteration": iteration,
        "split": {"train_fraction": train_fraction},
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.values.astype("<f4").tobytes())


def _header_section(header: dict, key: str, hints: dict, path) -> dict:
    """header[key] as a dict holding every key of hints, each of its type; a
    missing key raises KeyError naming it."""
    values = dict(header[key])
    check_fields(f"checkpoint {path} {key}", values, hints)
    missing = sorted(set(hints) - set(values))
    if missing:
        raise KeyError(f"{key}.{missing[0]}")
    return values


def load_checkpoint(path) -> tuple[ModelParams, MamlConfig, int, float]:
    """The parameters, the stored config, the iteration and the split's
    train_fraction. A header that is not a JSON object holding the keys
    save_checkpoint writes, an architecture or config value that does not
    fit its field's type or range, a train_fraction that is not a finite
    float, or a payload that does not hold the architecture's parameters,
    raises ValidationError.
    """
    blob = Path(path).read_bytes()
    split = blob.find(b"\n")
    if split < 0:
        raise ValidationError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(blob[:split].decode("utf-8"))
        arch = MlpArchitecture(**_header_section(
            header, "architecture", typing.get_type_hints(MlpArchitecture), path))
        config = _header_section(header, "config", typing.get_type_hints(MamlConfig), path)
        train_fraction = _header_section(
            header, "split", {"train_fraction": float}, path)["train_fraction"]
        iteration = header["iteration"]
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
    return ModelParams(values, arch), MamlConfig(**config), iteration, train_fraction
