"""Exception types raised across the pipeline.

Each class corresponds to one contract violation; callers that want to catch
"anything this library raises" can catch MelemadError. check_fields is the one
key-and-type check that config files and checkpoint headers go through.
"""
import math
import types
import typing


class MelemadError(Exception):
    """Base class for all library errors."""


class ValidationError(MelemadError):
    """A config or argument violates a documented invariant."""


def _is_a(value, hint) -> bool:
    """Whether a config value fits a field annotation. A bool is not an int,
    an int is a float, a float field takes only a finite value, and a tuple
    field takes a list."""
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return isinstance(value, int) or math.isfinite(value)
    if isinstance(hint, types.UnionType):
        return any(_is_a(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_is_a(v, item) for v in value)
    return isinstance(value, hint)


def check_fields(where: str, values: dict, hints: dict) -> None:
    """Raise ValidationError unless every key of values is one of hints and
    its value fits that key's annotation."""
    unknown = set(values) - set(hints)
    if unknown:
        raise ValidationError(
            f"{where} has unknown key(s) {sorted(unknown)}; it accepts {sorted(hints)}"
        )
    for key, value in values.items():
        hint = hints[key]
        if not _is_a(value, hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ValidationError(f"{where} key {key!r} must be {name}, got {value!r}")


# dataset ingestion / persistence

class MissingLabelColumn(ValidationError):
    pass


class NonNumericCell(ValidationError):
    def __init__(self, row: int, col: int, value: str = ""):
        self.row = row
        self.col = col
        super().__init__(f"non-numeric cell at row {row}, column {col}: {value!r}")


class NonBinaryLabel(ValidationError):
    def __init__(self, row: int, value: str = ""):
        self.row = row
        super().__init__(f"label at row {row} is not 0/1: {value!r}")


class RaggedRow(ValidationError):
    def __init__(self, row: int, expected: int, got: int):
        self.row = row
        super().__init__(f"row {row} has {got} cells, expected {expected}")


class BadMagic(ValidationError):
    pass


class DimensionOverflow(MelemadError):
    pass


class TruncatedFile(ValidationError):
    pass


# shape / size mismatches

class DimensionMismatch(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class ClassTooSmall(ValidationError):
    pass


# chunking and selection

class DegenerateStride(ValidationError):
    pass


class ChunkLargerThanData(ValidationError):
    pass


class EmptySelection(MelemadError):
    pass


# episodic sampling

class PoolTooSmall(ValidationError):
    pass


class SingleClassPool(ValidationError):
    pass


# meta-training

class Diverged(MelemadError):
    """A meta-iteration produced a NaN or Inf meta-loss or meta-gradient, or
    an evaluation episode a NaN or Inf query probability."""


class Saturated(MelemadError):
    """Most of a meta-training iteration's or an evaluation's query
    probabilities sit at the clamp bounds."""


# metrics

class EmptyConfusion(ValidationError):
    pass


class SingleClass(ValidationError):
    pass
