"""Exception types raised across the pipeline.

Each class corresponds to one contract violation; callers that want to catch
"anything this library raises" can catch MelemadError.
"""


class MelemadError(Exception):
    """Base class for all library errors."""


class ValidationError(MelemadError):
    """A config or argument violates a documented invariant."""


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


class BadMagic(MelemadError):
    pass


class DimensionOverflow(MelemadError):
    pass


class TruncatedFile(MelemadError):
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


class IndexOutOfRange(ValidationError):
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
    """A meta-iteration produced a NaN or Inf meta-loss or meta-gradient."""


# metrics

class EmptyConfusion(ValidationError):
    pass


class SingleClass(ValidationError):
    pass
