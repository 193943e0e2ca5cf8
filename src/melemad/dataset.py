"""Labeled feature matrices: loading, persistence, scaling, splitting, synthesis.

Datasets are immutable after construction (the backing arrays are marked
read-only). The constructor copies and validates its input; a row or column
subset of a dataset (select_rows, select_columns) and a scaled dataset
(apply_scaler) are already valid, so each is built from its freshly computed
matrix, or for a slice of rows from views of the parent's arrays, without a
second copy or a re-scan. load_csv parses a CSV with numpy's
C reader into one float64 matrix and validates it with array operations;
where that reader could disagree with the per-cell reader, the per-cell
reader parses the file and names the row and column at fault. load_binary
converts its float32 body into the float64 matrix a block of rows at a time,
and save_binary its matrix into the float32 body. synthesize wraps the matrix
it generates without a copy, checked for finite values a block of rows at a
time.
"""
from __future__ import annotations

import csv
import json
import math
import os
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    ClassTooSmall,
    DimensionMismatch,
    DimensionOverflow,
    MissingLabelColumn,
    NonBinaryLabel,
    NonNumericCell,
    RaggedRow,
    TruncatedFile,
    ValidationError,
)

_MAGIC = b"MLMD"
_BINARY_VERSION = 1
_U32_MAX = 2**32 - 1
# cells save_csv and load_binary convert per block of rows, which bounds
# their temporaries (Python floats, float32 cells) next to the matrix
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix (n rows, m columns) plus one binary label per row."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str] | None = None

    def __post_init__(self):
        # copy so the read-only flag below never leaks onto caller arrays
        feats = np.array(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-D, got ndim={feats.ndim}")
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValidationError(f"need n >= 1 and m >= 1, got shape {feats.shape}")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValidationError(
                f"labels length {labs.shape} does not match {feats.shape[0]} rows"
            )
        if not np.all(np.isfinite(feats)):
            raise ValidationError("features contain NaN or Inf")
        if not np.isin(labs, (0, 1)).all():
            raise ValidationError("labels must all be 0 or 1")
        if self.feature_names is not None and len(self.feature_names) != feats.shape[1]:
            raise ValidationError("feature_names length does not match column count")
        labs = labs.astype(np.uint8)
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @classmethod
    def _trusted(cls, features, labels, feature_names) -> "LabeledDataset":
        """Wrap arrays already known to be valid, without copy or checks."""
        ds = object.__new__(cls)
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(ds, "features", features)
        object.__setattr__(ds, "labels", labels)
        object.__setattr__(ds, "feature_names", feature_names)
        return ds

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    @cached_property
    def class_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of label 0 and of label 1, in row order."""
        rows = (np.flatnonzero(self.labels == 0), np.flatnonzero(self.labels == 1))
        for r in rows:
            r.setflags(write=False)
        return rows

    def select_rows(self, indices) -> "LabeledDataset":
        """The given rows; a slice gives read-only views, not copies."""
        idx = indices if isinstance(indices, slice) else np.asarray(indices)
        feats, labs = self.features[idx], self.labels[idx]
        if feats.ndim != 2 or feats.shape[0] == 0:
            # the validating constructor rejects an empty or mis-shaped subset
            return LabeledDataset(feats, labs, self.feature_names)
        return LabeledDataset._trusted(feats, labs, self.feature_names)

    def select_columns(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices)
        feats = self.features[:, idx]
        if feats.ndim != 2 or feats.shape[1] == 0:
            # the validating constructor rejects an empty or mis-shaped subset
            return LabeledDataset(feats, self.labels)
        names = None
        if self.feature_names is not None:
            names = [self.feature_names[int(j)] for j in idx]
        return LabeledDataset._trusted(feats, self.labels, names)


@dataclass(frozen=True)
class ScalerParams:
    """Per-column min/max fitted on one dataset."""

    per_column_min: np.ndarray
    per_column_max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.per_column_min, dtype=np.float64)
        hi = np.asarray(self.per_column_max, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("min/max must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("scaler min/max contain NaN or Inf")
        if np.any(lo > hi):
            raise ValidationError("per-column min exceeds max")
        object.__setattr__(self, "per_column_min", lo)
        object.__setattr__(self, "per_column_max", hi)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError("train_fraction must be strictly between 0 and 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    m: int
    informative: int
    noise_sigma: float = 0.5
    class_balance: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError("need n >= 1 and m >= 1")
        if not 0 <= self.informative <= self.m:
            raise ValidationError("informative must be in [0, m]")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        if not 0.0 < self.class_balance < 1.0:
            raise ValidationError("class_balance must be strictly between 0 and 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(row, col, text) from None
    if not math.isfinite(value):
        raise NonNumericCell(row, col, text)
    return value


def _read_header(reader, path: Path, label_column) -> tuple[list[str], int]:
    """The stripped header names and the label column's index."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path} is empty") from None
    header = [h.strip() for h in header]
    if isinstance(label_column, int):
        if not 0 <= label_column < len(header):
            raise MissingLabelColumn(f"column index {label_column} out of range")
        return header, label_column
    try:
        return header, header.index(label_column)
    except ValueError:
        raise MissingLabelColumn(f"no column named {label_column!r} in {header}") from None


def load_csv(path, label_column="label") -> LabeledDataset:
    """Read a headered CSV, pulling the label column out of the feature matrix.

    label_column may be a header name or a 0-based column index. The data
    rows are parsed by numpy's C reader straight into one float64 matrix.
    Wherever that reader could disagree with the per-cell reader (a blank
    line, a cell it rejects, a non-finite value, a label other than 0 or 1),
    the per-cell reader parses the file instead, so every error names the
    row and column at fault and every accepted file loads to the same
    dataset.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header, label_idx = _read_header(reader, path, label_column)
        header_lines = reader.line_num
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    # np.loadtxt skips one line of header, so a header with a quoted newline
    # goes to the per-cell reader, as does a file with no feature column
    if header_lines == 1 and feature_names:
        ds = _load_csv_matrix(path, label_idx, feature_names)
        if ds is not None:
            return ds
    return _load_csv_cells(path, label_column)


def _load_csv_matrix(path: Path, label_idx: int, feature_names: list[str]):
    """The dataset from np.loadtxt, or None where it may differ from what
    _load_csv_cells gives: a row count or width other than the file's, a
    non-finite value, or a label other than 0 or 1."""
    try:
        with warnings.catch_warnings():
            # a file without data rows warns; the per-cell reader names it
            warnings.simplefilter("error", UserWarning)
            data = np.loadtxt(
                path,
                delimiter=",",
                skiprows=1,
                comments=None,
                quotechar='"',
                ndmin=2,
                dtype=np.float64,
                encoding="utf-8",
            )
        # csv.reader makes a record of every line after the header, a blank
        # one too; np.loadtxt skips blank lines, so the counts must match
        with path.open(newline="", encoding="utf-8") as fh:
            records = sum(1 for _ in fh) - 1
    except (ValueError, UserWarning):
        return None
    if data.shape != (records, len(feature_names) + 1) or records < 1:
        return None
    labels = data[:, label_idx]
    if not np.isfinite(data).all() or not ((labels == 0.0) | (labels == 1.0)).all():
        return None
    labels = labels.astype(np.uint8)
    # a C-contiguous matrix, as the per-cell reader builds
    features = np.delete(data, label_idx, axis=1)
    return LabeledDataset._trusted(features, labels, feature_names)


def _load_csv_cells(path: Path, label_column) -> LabeledDataset:
    """Parse one cell at a time, raising on the first row or cell at fault."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header, label_idx = _read_header(reader, path, label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        rows: list[list[float]] = []
        labels: list[int] = []
        for row_no, cells in enumerate(reader):
            if len(cells) != len(header):
                raise RaggedRow(row_no, len(header), len(cells))
            label_text = cells[label_idx].strip()
            if label_text not in ("0", "1"):
                # accept float spellings of 0/1 but nothing else
                try:
                    label_val = float(label_text)
                except ValueError:
                    raise NonBinaryLabel(row_no, label_text) from None
                if label_val not in (0.0, 1.0):
                    raise NonBinaryLabel(row_no, label_text)
            else:
                label_val = float(label_text)
            labels.append(int(label_val))
            rows.append(
                [
                    _parse_cell(cells[j].strip(), row_no, j)
                    for j in range(len(header))
                    if j != label_idx
                ]
            )

    if not rows:
        raise ValidationError(f"{path} has a header but no data rows")
    return LabeledDataset(rows, np.array(labels), feature_names)


def save_csv(ds: LabeledDataset, path, label_column: str = "label") -> None:
    """Write a CSV that load_csv reads back to an identical dataset.

    Floats use repr (shortest round trip), so reload is exact.
    """
    path = Path(path)
    names = ds.feature_names or [f"f{j}" for j in range(ds.m)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([*names, label_column])
        # a float's repr holds no comma, quote or line break, so the data
        # rows are the bytes csv.writer would write, at a fraction of its cost
        rows = max(1, _BLOCK_CELLS // ds.m)
        for start in range(0, ds.n, rows):
            block = slice(start, start + rows)
            fh.writelines(
                ",".join(map(repr, row)) + f",{label}\r\n"
                for row, label in zip(ds.features[block].tolist(), ds.labels[block].tolist())
            )


def save_binary(ds: LabeledDataset, path) -> None:
    """Fixed binary layout: 16-byte header, float32 LE row-major matrix, label bytes."""
    if ds.n > _U32_MAX or ds.m > _U32_MAX:
        raise DimensionOverflow(f"n={ds.n}, m={ds.m} exceed the u32 header fields")
    path = Path(path)
    header = _MAGIC + struct.pack("<III", _BINARY_VERSION, ds.n, ds.m)
    # a block of rows at a time: the whole body as float32 and then as bytes
    # held the matrix's size again next to it
    rows = max(1, _BLOCK_CELLS // ds.m)
    block = np.empty((min(rows, ds.n), ds.m), dtype="<f4")
    with path.open("wb") as fh:
        fh.write(header)
        for start in range(0, ds.n, rows):
            part = block[: min(rows, ds.n - start)]
            part[...] = ds.features[start : start + part.shape[0]]
            fh.write(part)
        fh.write(ds.labels.astype(np.uint8).tobytes())


def load_binary(path) -> LabeledDataset:
    """Read the save_binary layout. The float32 body is checked and converted
    into the float64 matrix a block of rows at a time, so nothing the size of
    the body is held next to it."""
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise TruncatedFile(f"{path}: shorter than the 16-byte header")
        if head[:4] != _MAGIC:
            raise BadMagic(f"{path}: bad magic {head[:4]!r}")
        version, n, m = struct.unpack("<III", head[4:16])
        if version != _BINARY_VERSION:
            raise BadMagic(f"{path}: unsupported version {version}")
        if n < 1 or m < 1:
            raise TruncatedFile(f"{path}: header claims empty dataset n={n}, m={m}")
        expected = 16 + 4 * n * m + n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise TruncatedFile(f"{path}: expected {expected} bytes, found {size}")
        feats = np.empty((n, m))
        rows = max(1, _BLOCK_CELLS // m)
        block = np.empty((min(rows, n), m), dtype="<f4")
        for start in range(0, n, rows):
            part = block[: min(rows, n - start)]
            _read_exactly(fh, part, path)
            _check_finite(part)
            feats[start : start + part.shape[0]] = part
        labels = np.empty(n, dtype=np.uint8)
        _read_exactly(fh, labels, path)
    if not (labels <= 1).all():
        raise ValidationError("labels must all be 0 or 1")
    return LabeledDataset._trusted(feats, labels, None)


def _check_finite(features: np.ndarray) -> None:
    """The constructor's finiteness check, made a block of rows at a time, so
    its mask is a block's, not the matrix's."""
    rows = max(1, _BLOCK_CELLS // features.shape[1])
    for start in range(0, features.shape[0], rows):
        if not np.isfinite(features[start : start + rows]).all():
            raise ValidationError("features contain NaN or Inf")


def _read_exactly(fh, out: np.ndarray, path: Path) -> None:
    # the file can shrink between the size check and the read
    if fh.readinto(out) != out.nbytes:
        raise TruncatedFile(f"{path}: ended before its {out.nbytes}-byte block")


def fit_scaler(ds: LabeledDataset) -> ScalerParams:
    return ScalerParams(ds.features.min(axis=0), ds.features.max(axis=0))


def apply_scaler(ds: LabeledDataset, sp: ScalerParams) -> LabeledDataset:
    """Map each column to [0,1]; constant columns go to 0.0, out-of-range clips."""
    if sp.per_column_min.shape[0] != ds.m:
        raise DimensionMismatch(
            f"scaler has {sp.per_column_min.shape[0]} columns, dataset has {ds.m}"
        )
    span = sp.per_column_max - sp.per_column_min
    safe_span = np.where(span > 0, span, 1.0)
    scaled = (ds.features - sp.per_column_min) / safe_span
    scaled = np.where(span > 0, scaled, 0.0)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return LabeledDataset._trusted(scaled, ds.labels, ds.feature_names)


def save_scaler(sp: ScalerParams, path) -> None:
    payload = {
        "min": [float(v) for v in sp.per_column_min],
        "max": [float(v) for v in sp.per_column_max],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _train_count(total: int, fraction: float) -> int:
    # keep at least one sample on each side when possible
    count = _half_up(total * fraction)
    if total >= 2:
        count = min(max(count, 1), total - 1)
    return count


def stratified_split(ds: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded train/test partition; per-class proportions within one sample of
    train_fraction when stratified."""
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        train_parts = []
        test_parts = []
        for cls in (0, 1):
            cls_idx = np.flatnonzero(ds.labels == cls)
            if cls_idx.size == 0:
                continue
            if cls_idx.size < 2:
                raise ClassTooSmall(
                    f"class {cls} has {cls_idx.size} sample(s); need >= 2 to stratify"
                )
            perm = rng.permutation(cls_idx)
            k = _train_count(cls_idx.size, spec.train_fraction)
            train_parts.append(perm[:k])
            test_parts.append(perm[k:])
        train_idx = np.sort(np.concatenate(train_parts))
        test_idx = np.sort(np.concatenate(test_parts))
    else:
        perm = rng.permutation(ds.n)
        k = _train_count(ds.n, spec.train_fraction)
        train_idx = np.sort(perm[:k])
        test_idx = np.sort(perm[k:])
    return ds.select_rows(train_idx), ds.select_rows(test_idx)


def synthesize(spec: SyntheticSpec) -> tuple[LabeledDataset, np.ndarray]:
    """Generate a dataset whose labels depend only on a known informative subset.

    Labels threshold a linear logit over the informative columns plus Gaussian
    noise (sd = noise_sigma); the threshold is placed so that exactly
    round(n * class_balance) rows are positive. Returns the dataset and the
    sorted ground-truth informative column indices.
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n, spec.m))
    informative = np.sort(rng.choice(spec.m, size=spec.informative, replace=False))

    signs = rng.choice((-1.0, 1.0), size=spec.informative)
    weights = signs * rng.uniform(1.0, 3.0, size=spec.informative)
    if spec.informative:
        # shift informative columns into two clusters aligned with the weight
        # signs, so the logit is bimodal and the class boundary sits in its
        # low-density valley instead of at the Gaussian peak
        cluster = rng.choice((-1.0, 1.0), size=spec.n)
        offsets = signs * rng.uniform(1.0, 2.0, size=spec.informative)
        shifted = X[:, informative] + cluster[:, None] * offsets[None, :]
        X[:, informative] = shifted
        logit = shifted @ weights
    else:
        logit = np.zeros(spec.n)
    logit = logit + spec.noise_sigma * rng.standard_normal(spec.n)

    n_pos = _half_up(spec.n * spec.class_balance)
    n_pos = min(max(n_pos, 0), spec.n)
    labels = np.zeros(spec.n, dtype=np.uint8)
    if n_pos > 0:
        # rank by logit with a random key breaking exact ties deterministically
        order = np.lexsort((rng.random(spec.n), logit))
        labels[order[spec.n - n_pos:]] = 1
    # X is this function's own, so it is wrapped, not copied
    _check_finite(X)
    return LabeledDataset._trusted(X, labels, None), informative.astype(np.int64)
