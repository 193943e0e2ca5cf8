"""The config schema's types: chunking, GBDT, MAML and MLP settings.

Every CLI stage checks every section of its config file against the fields
of these types, so they live apart from the code that runs them: this module
imports only errors, and a stage that checks the maml section loads neither
numpy nor maml. Each type keeps its import path through the module that
uses it: cfsgb.ChunkSpec, gbdt.GbdtConfig, maml.MamlConfig and
maml.MlpArchitecture. SplitSpec and SyntheticSpec live in dataset.
"""
from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass

from .errors import ValidationError, check_fields


@dataclass(frozen=True)
class ChunkSpec:
    p: float = 0.2
    q: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValidationError("chunk fraction p must be in (0, 1]")
        if not 0.0 <= self.q < 1.0:
            raise ValidationError("overlap fraction q must be in [0, 1)")


@dataclass(frozen=True)
class GbdtConfig:
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 5

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValidationError("learning_rate must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")


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
        for name in ("alpha", "beta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and non-negative")
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
