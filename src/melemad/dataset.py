"""Labeled feature matrices: loading, persistence, scaling, splitting, synthesis.

A dataset is a matrix (n rows, m columns) and one 0/1 label per row, both
read-only. The matrix is float32 when it comes from a binary file
(load_binary keeps the file's stored values, at half the bytes) or from
apply_scaler (scaled in float64 and rounded once), and float64 otherwise
(load_csv, synthesize, the public constructor); select_rows,
select_columns and stratified_split keep their source's dtype, and
save_binary writes float32 either way. Every dataset passes one check,
LabeledDataset._wrap: a 2-D matrix with n, m >= 1, one label per row, finite
values (a block of rows at a time) and labels 0 or 1. _wrap takes the arrays
it is given without a copy; the public constructor copies its input first,
so the read-only flag never reaches the caller's arrays. A slice of rows is
a view of its parent's arrays.

A binary file can also be read without holding its matrix: BinaryRows reads
the rows a slice asks for, and a column projection a block of rows at a
time; load_binary is its read of every row. A CSV is parsed once, a block of
rows at a time, into a spill: an unnamed temporary file in save_binary's
layout with a float64 body, which spill_csv returns open as a BinaryRows,
so a CSV is read as a binary file is; load_csv is its read of every row.
stratified_split reads either source a block of rows at a time into its
two pools. Each block loop here, as in gbdt and maml, cuts its range with
_blocks.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
import struct
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import MelemadError, ValidationError, not_utf8

_MAGIC = b"MLMD"
_BINARY_VERSION = 1
_U32_MAX = 2**32 - 1
# cells per block of rows in this module's loops (_blocks)
_BLOCK_CELLS = 1 << 16


def _blocks(count: int, width: int, cells: int) -> list[slice]:
    """range(count) cut into consecutive slices of max(1, cells // width)
    items, the last trimmed: the one blocking rule of dataset, gbdt and
    maml, whose loops over items (rows, columns, episodes) of width cells
    hold about cells cells of temporaries. The first slice is the longest."""
    step = _step(width, cells)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _step(width: int, cells: int) -> int:
    """Items of width cells to a block of about cells cells: _blocks' step,
    and the rows of a CSV block, whose count is not known ahead."""
    return max(1, cells // width)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix (n rows, m columns) plus one binary label per row."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # copies, so the read-only flags _wrap sets never reach caller arrays
        ds = self._wrap(np.array(self.features, dtype=np.float64), np.array(self.labels))
        object.__setattr__(self, "features", ds.features)
        object.__setattr__(self, "labels", ds.labels)

    @classmethod
    def _wrap(cls, features: np.ndarray, labels: np.ndarray,
              finite: bool = False) -> "LabeledDataset":
        """Check float32 or float64 features and their labels and wrap them
        read-only, without a copy. Finiteness is checked a block of rows at
        a time, so the check's mask is a block's, not the matrix's; finite
        says the values were checked already (a spill's, as they were
        parsed)."""
        if features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got ndim={features.ndim}")
        _check_shape(features.shape)
        n, m = features.shape
        if labels.ndim != 1 or labels.shape[0] != n:
            raise ValidationError(f"labels length {labels.shape} does not match {n} rows")
        if not finite:
            for rows in _blocks(n, m, _BLOCK_CELLS):
                if not np.isfinite(features[rows]).all():
                    raise ValidationError("features contain NaN or Inf")
        _check_labels(labels)
        labels = labels.astype(np.uint8, copy=False)
        features.setflags(write=False)
        labels.setflags(write=False)
        ds = object.__new__(cls)
        object.__setattr__(ds, "features", features)
        object.__setattr__(ds, "labels", labels)
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
        return LabeledDataset._wrap(self.features[idx], self.labels[idx])

    def select_columns(self, indices) -> "LabeledDataset":
        return LabeledDataset._wrap(self.features[:, np.asarray(indices)], self.labels)


def _check_shape(shape: tuple[int, int]) -> None:
    if shape[0] < 1 or shape[1] < 1:
        raise ValidationError(f"need n >= 1 and m >= 1, got shape {shape}")


def _check_labels(labels: np.ndarray) -> None:
    if not ((labels == 0) | (labels == 1)).all():
        raise ValidationError("labels must all be 0 or 1")


@dataclass(frozen=True)
class ScalerParams:
    """Per-column min/max fitted on one dataset; each column's span max - min
    must be finite, since apply_scaler divides by it."""

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
        # apply_scaler divides by the span, which must not overflow
        with np.errstate(over="ignore"):
            wide = np.flatnonzero(~np.isfinite(hi - lo))
        if wide.size:
            raise ValidationError(
                f"scaler span max - min overflows to Inf in column {int(wide[0])}"
            )
        object.__setattr__(self, "per_column_min", lo)
        object.__setattr__(self, "per_column_max", hi)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
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
        if not 0 <= self.noise_sigma < math.inf:
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 < self.class_balance < 1.0:
            raise ValidationError("class_balance must be strictly between 0 and 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def _to_float(text: str) -> float:
    """float(text), or NaN where float() cannot read it."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_cell(text: str, row: int, col: int) -> float:
    value = _to_float(text)
    if not math.isfinite(value):
        raise ValidationError(f"non-numeric cell at row {row}, column {col}: {text!r}")
    return value


def _read_header(reader, path: Path, label_column: str) -> tuple[int, int]:
    """The header's width and the index of the column named label_column."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValidationError(f"{path} is empty") from None
    if label_column not in header:
        raise ValidationError(f"no column named {label_column!r} in {header}")
    return len(header), header.index(label_column)


def spill_csv(path, label_column="label", spill_dir=None) -> BinaryRows:
    """The dataset in a headered CSV, parsed once a block of rows at a time
    into a spill: an unnamed temporary file in spill_dir (None: the default
    temporary directory), in save_binary's layout with a float64 body. It is
    returned open, as a BinaryRows to read its rows as they are asked for;
    the file vanishes when it is closed, and when the process ends. The
    column whose stripped header name is label_column holds the labels;
    every other column is a feature.

    The file is UTF-8 text with at least one data row and one feature
    column, and every data row the header's width. Each stripped feature
    cell is a finite number that Python's float() reads, and each label cell
    one that reads as 0 or 1. A file that breaks a rule raises
    ValidationError, and a bad row or cell is named by its row (and column).

    The file is opened once: csv.reader reads the header and np.loadtxt the
    lines after it, a block at a time (_spill_lines). Where numpy's matrix
    may differ from the per-cell reader's, the per-cell reader parses the
    file again from its first data row, into the same spill, and names the
    fault (_spill_cells).
    """
    path = Path(path)
    spill = tempfile.TemporaryFile(dir=spill_dir)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            width, label_idx = _read_header(csv.reader(fh), path, label_column)
            labels = _spill_lines(fh, label_idx, width, spill)
            if labels is None:
                fh.seek(0)
                reader = csv.reader(fh)
                _read_header(reader, path, label_column)
                labels = _spill_cells(reader, label_idx, width, spill, path)
        spill.write(labels)
        spill.seek(0)
        spill.write(_header(len(labels), width - 1))
        spill.seek(0)
        return BinaryRows(path, _spill=spill)
    except UnicodeDecodeError as exc:
        spill.close()
        raise not_utf8(str(path), exc) from None
    except BaseException:
        spill.close()
        raise


def load_csv(path, label_column="label") -> LabeledDataset:
    """The dataset in a headered CSV (spill_csv's rules): its spill, in the
    default temporary directory, read back whole into one float64 matrix."""
    with spill_csv(path, label_column) as source:
        return source.select_rows(slice(0, source.n))


def _spill_lines(lines, label_idx: int, width: int, spill):
    """Parse lines, an iterator over a CSV's text-mode lines after its
    header, with one np.loadtxt a block of lines at a time, and append each
    block's float64 features to spill after its header; return the labels.
    Return None where the outcome may differ from _spill_cells': no lines,
    a block with an odd count of quote characters (it may end inside a
    quoted field), a block numpy rejects or that is not valid UTF-8, or one
    whose matrix has other than one row per line (csv.reader makes a record
    of a blank line, which np.loadtxt skips) or the header's width, or that
    _wrap rejects."""
    columns = np.delete(np.arange(width), label_idx)
    step = _step(width, _BLOCK_CELLS)
    labels = bytearray()
    handed = quotes = 0

    def block(first):
        # a block's lines, counted as numpy reads them: no list of them is held
        nonlocal handed, quotes
        for line in itertools.chain([first], itertools.islice(lines, step - 1)):
            handed += 1
            quotes += line.count('"')
            yield line

    spill.seek(16)
    with warnings.catch_warnings():
        # a block without data rows warns; the per-cell reader names it
        warnings.simplefilter("error", UserWarning)
        while True:
            try:
                # numpy is not handed an empty block, which would warn
                first = next(lines, None)
                if first is None:
                    return labels or None
                handed = quotes = 0
                data = np.loadtxt(block(first), delimiter=",", comments=None, quotechar='"',
                                  ndmin=2, dtype=np.float64)
                if quotes % 2 or data.shape != (handed, width):
                    return None
                ds = LabeledDataset._wrap(data.take(columns, axis=1), data[:, label_idx])
            # a UnicodeDecodeError, raised as the lines are read, is a ValueError
            except (ValueError, UserWarning, ValidationError):
                return None
            spill.write(ds.features)
            labels += ds.labels.tobytes()


def _spill_cells(reader, label_idx: int, width: int, spill, path: Path) -> bytearray:
    """Parse the records of reader, a csv.reader after the header, one cell
    at a time into spill after its header, a block of rows at a time, and
    return the labels; raise on the first row or cell at fault."""
    step = _step(width, _BLOCK_CELLS)
    labels = bytearray()
    rows: list[list[float]] = []
    spill.seek(16)
    for row_no, cells in enumerate(reader):
        if len(cells) != width:
            raise ValidationError(f"row {row_no} has {len(cells)} cells, expected {width}")
        label_text = cells[label_idx].strip()
        label = _to_float(label_text)
        if label not in (0.0, 1.0):
            raise ValidationError(f"label at row {row_no} is not 0/1: {label_text!r}")
        labels.append(int(label))
        rows.append(
            [_parse_cell(cells[j].strip(), row_no, j) for j in range(width) if j != label_idx]
        )
        if len(rows) == step:
            spill.write(np.array(rows, dtype=np.float64))
            rows.clear()
    spill.write(np.array(rows, dtype=np.float64))
    if not labels:
        raise ValidationError(f"{path} has a header but no data rows")
    _check_shape((len(labels), width - 1))
    return labels


def save_csv(ds: LabeledDataset, path) -> None:
    """Write a CSV that load_csv reads back to an identical dataset: a header
    f0..f{m-1},label, then one row of repr floats (shortest round trip) and
    the label per sample."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([*(f"f{j}" for j in range(ds.m)), "label"])
        # a float's repr holds no comma, quote or line break, so the data
        # rows are the bytes csv.writer would write, at a fraction of its cost
        for rows in _blocks(ds.n, ds.m, _BLOCK_CELLS):
            fh.writelines(
                ",".join(map(repr, row)) + f",{label}\r\n"
                for row, label in zip(ds.features[rows].tolist(), ds.labels[rows].tolist())
            )


def _header(n: int, m: int) -> bytes:
    """The 16-byte header of save_binary's layout."""
    if n > _U32_MAX or m > _U32_MAX:
        raise MelemadError(f"n={n}, m={m} exceed the u32 header fields")
    return _MAGIC + struct.pack("<III", _BINARY_VERSION, n, m)


def save_binary(ds: LabeledDataset, path) -> None:
    """Fixed binary layout: 16-byte header, float32 LE row-major matrix, label bytes."""
    header = _header(ds.n, ds.m)
    path = Path(path)
    # a block of rows at a time: the whole body as float32 and then as bytes
    # held the matrix's size again next to it
    blocks = _blocks(ds.n, ds.m, _BLOCK_CELLS)
    block = np.empty((blocks[0].stop, ds.m), dtype="<f4")
    with path.open("wb") as fh:
        fh.write(header)
        for rows in blocks:
            part = block[: rows.stop - rows.start]
            part[...] = ds.features[rows]
            fh.write(part)
        fh.write(ds.labels.astype(np.uint8).tobytes())


class BinaryRows:
    """A save_binary file, open to read its rows as they are asked for:
    n, m, labels, select_rows of a contiguous slice (one seek and one
    readinto) and select_columns (a second pass, a block of rows at a
    time). The header, the file's size and the labels are checked when it
    is opened; each read's rows pass _wrap. Use it as a context manager,
    which closes the file. The file at path has a float32 body; only
    spill_csv's _spill, read in its place, has a float64 one."""

    def __init__(self, path, _spill=None):
        self.path = Path(path)
        self._spilled = _spill is not None
        self._dtype = np.dtype("<f8" if self._spilled else "<f4")
        # unbuffered: a buffer's read-ahead could serve bytes the file has
        # since lost
        self._fh = _spill if self._spilled else self.path.open("rb", buffering=0)
        try:
            head = self._fh.read(16)
            if len(head) < 16:
                raise ValidationError(f"{self.path}: shorter than the 16-byte header")
            if head[:4] != _MAGIC:
                raise ValidationError(f"{self.path}: bad magic {head[:4]!r}")
            version, n, m = struct.unpack("<III", head[4:16])
            if version != _BINARY_VERSION:
                raise ValidationError(f"{self.path}: unsupported version {version}")
            if n < 1 or m < 1:
                raise ValidationError(f"{self.path}: header claims empty dataset n={n}, m={m}")
            self.n, self.m = n, m
            expected = 16 + self._dtype.itemsize * n * m + n
            size = os.fstat(self._fh.fileno()).st_size
            if size != expected:
                raise ValidationError(f"{self.path}: expected {expected} bytes, found {size}")
            self.labels = np.empty(n, dtype=np.uint8)
            self._read(n, self.labels)
            _check_labels(self.labels)
            self.labels.setflags(write=False)
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "BinaryRows":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _read(self, row: int, out: np.ndarray) -> None:
        """Fill out from the file's bytes from row's first cell on (row n:
        the labels). One readinto fills it unless the file has shrunk since
        it was opened, or out exceeds what one read(2) returns (2 GiB)."""
        self._fh.seek(16 + self._dtype.itemsize * self.m * row)
        buf = out.reshape(-1).view(np.uint8)
        done = 0
        while done < buf.size and (got := self._fh.readinto(buf[done:])):
            done += got
        if done != buf.size:
            raise ValidationError(f"{self.path}: ended before its {out.nbytes}-byte block")

    def select_rows(self, rows: slice) -> LabeledDataset:
        start, stop, step = rows.indices(self.n)
        if step != 1:
            raise ValidationError(f"rows are read as one contiguous range, got step {step}")
        feats = np.empty((max(0, stop - start), self.m), dtype=self._dtype)
        self._read(start, feats)
        return LabeledDataset._wrap(feats, self.labels[start:stop], self._spilled)

    def select_columns(self, indices) -> LabeledDataset:
        columns = np.arange(self.m)[np.asarray(indices)]
        out = np.empty((self.n, columns.shape[0]), dtype=self._dtype)
        blocks = _blocks(self.n, self.m, _BLOCK_CELLS)
        block = np.empty((blocks[0].stop, self.m), dtype=self._dtype)
        for rows in blocks:
            part = block[: rows.stop - rows.start]
            self._read(rows.start, part)
            out[rows] = part[:, columns]
        return LabeledDataset._wrap(out, self.labels, self._spilled)


def load_binary(path) -> LabeledDataset:
    """Read the save_binary layout: BinaryRows' read of every row. The
    dataset's matrix is the file's little-endian float32 body, read in one
    readinto and checked a block of rows at a time, so nothing the size of
    the body is held next to it."""
    with BinaryRows(path) as source:
        return source.select_rows(slice(0, source.n))


def fit_scaler(ds: LabeledDataset) -> ScalerParams:
    return ScalerParams(ds.features.min(axis=0), ds.features.max(axis=0))


def apply_scaler(ds: LabeledDataset, sp: ScalerParams) -> LabeledDataset:
    """Map each column to [0,1]; constant columns go to 0.0, out-of-range clips.

    Each cell is (x - min) / span in float64, clipped, then rounded once to
    the float32 of the result: the value a float32 pass gathers and
    save_binary writes. The float64 work is a block of rows at a time, so
    only the float32 result is held beside ds."""
    if sp.per_column_min.shape[0] != ds.m:
        raise ValidationError(
            f"scaler has {sp.per_column_min.shape[0]} columns, dataset has {ds.m}"
        )
    span = sp.per_column_max - sp.per_column_min
    divisor = np.where(span > 0, span, 1.0)
    constant = span == 0
    scaled = np.empty((ds.n, ds.m), dtype=np.float32)
    blocks = _blocks(ds.n, ds.m, _BLOCK_CELLS)
    work = np.empty((blocks[0].stop, ds.m))
    for rows in blocks:
        part = work[: rows.stop - rows.start]
        # the float64 min promotes a float32 dataset's rows, exactly
        np.subtract(ds.features[rows], sp.per_column_min, out=part)
        part /= divisor
        part[:, constant] = 0.0
        np.clip(part, 0.0, 1.0, out=part)
        scaled[rows] = part
    # a finite value, less a finite min, over a positive span, clips finite
    return LabeledDataset._wrap(scaled, ds.labels, finite=True)


def save_scaler(sp: ScalerParams, path) -> None:
    payload = {
        "min": [float(v) for v in sp.per_column_min],
        "max": [float(v) for v in sp.per_column_max],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function of gbdt's boosting and maml's output layer, in
    z's dtype: maml's complex-step Hessian-vector product runs it on
    complex128. It lives here because both modules import dataset."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# The counter-based generator of synthesize, stratified_split, maml and
# cli.derive_seed (Salmon et al., SC 2011), with SplitMix64's gamma and
# finalizer (Steele, Lea & Flood, OOPSLA 2014). Draw i of a key is the
# finalizer of key + (i + 1) * gamma mod 2**64, so a draw is a function of
# its key and its number alone. numpy's uint64 arithmetic wraps mod 2**64 as it should.
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_U64 = 2**64 - 1
# the finalizer's rounds: z ^= z >> shift, then z *= the multiplier, if any
_ROUNDS = ((30, np.uint64(_MIX[0])), (27, np.uint64(_MIX[1])), (31, None))
# draws hashed at a time, by _draws and by maml's dropout masks; _draws'
# counters (i + 1) * gamma of draws i = 0, 1, ... of key 0 and its shift
# buffer, kept between calls, hold as many cells
_DRAW_BLOCK = 1 << 13
_COUNTERS = _SHIFTS = np.zeros(0, np.uint64)
# Every key's layout. A stream tag comes second, after the root seed, and
# the keys of one tag share one length, so no key drawn from is another's
# prefix. Two layouts carry no tag: (split seed, class) keys a class's rows
# in stratified_split, and (seed, a stage name's UTF-8 bytes) a stage's seed
# in cli.derive_seed.
_STREAM_INIT = 0  # (seed, INIT): maml's initial weights
_STREAM_TASK = 1  # (seed, TASK, iteration, slot): a meta-train episode's rows
_STREAM_DROPOUT = 2  # (seed, DROPOUT, TASK or EVAL, episode, step): a mask
_STREAM_EVAL = 3  # (seed, EVAL, episode): an evaluation episode's rows
_STREAM_SYNTH = 4  # (seed, SYNTH, part): one of synthesize's quantities


def _mix(z: int) -> int:
    """SplitMix64's finalizer of z, a Python int below 2**64."""
    z = ((z ^ (z >> 30)) * _MIX[0]) & _U64
    z = ((z ^ (z >> 27)) * _MIX[1]) & _U64
    return z ^ (z >> 31)


def _key(*coords: int) -> int:
    """The 64-bit key of coords, (seed, stream tag, coordinates...), each a
    non-negative int: a hash chain from 0 in which the key of coords + (c,)
    is draw c of the key of coords. A coordinate of 2**64 or more is
    absorbed a 64-bit word at a time, low word first."""
    key = 0
    for c in map(int, coords):
        if c < 0:
            raise ValidationError(f"a key coordinate must be non-negative, got {c}")
        key = _mix((key + ((c & _U64) + 1) * _GAMMA) & _U64)
        while c := c >> 64:
            key = _mix((key + ((c & _U64) + 1) * _GAMMA) & _U64)
    return key


def _draws(key: int, count: int, start: int = 0, out=None) -> np.ndarray:
    """Draws start, ..., start + count - 1 of key as uint64, in out (a
    uint64 array of count cells) or a new array, hashed _DRAW_BLOCK at a
    time: the same draws whatever the block."""
    global _COUNTERS, _SHIFTS
    if _COUNTERS.size < min(count, _DRAW_BLOCK):
        _COUNTERS = np.arange(1, _DRAW_BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        _SHIFTS = np.empty(_DRAW_BLOCK, np.uint64)
    z = np.empty(count, np.uint64) if out is None else out
    for block in _blocks(count, 1, _DRAW_BLOCK):
        part = z[block]
        shifts = _SHIFTS[: part.size]
        offset = (key + (start + block.start) * _GAMMA) & _U64
        np.add(_COUNTERS[: part.size], np.uint64(offset), out=part)
        for shift, mult in _ROUNDS:
            np.right_shift(part, shift, out=shifts)
            np.bitwise_xor(part, shifts, out=part)
            if mult is not None:
                np.multiply(part, mult, out=part)
    return z


def _uniforms(key: int, count: int, start: int = 0) -> np.ndarray:
    """Draws start, ..., start + count - 1 of key as float64 uniforms in
    [0, 1), each built from its top 53 bits as numpy builds its doubles."""
    return (_draws(key, count, start) >> np.uint64(11)) * 2.0**-53


def _normals(key: int, count: int, start: int = 0) -> np.ndarray:
    """Standard normals start, ..., start + count - 1 of key, by pairwise
    Box-Muller (Box & Muller, 1958): uniforms 2i and 2i + 1 give normals
    2i and 2i + 1 as r cos(t) and r sin(t), with r = sqrt(-2 ln(1 - u_2i))
    and t = 2 pi u_2i+1. 1 - u is in (0, 1], so the log never sees 0."""
    first = start & ~1
    u = _uniforms(key, ((start + count + 1) & ~1) - first, first)
    r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    t = 2.0 * math.pi * u[1::2]
    np.multiply(r, np.cos(t), out=u[0::2])
    np.multiply(r, np.sin(t), out=u[1::2])
    return u[start - first : start - first + count]


def _smallest(keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest of keys, distinct draws, smallest first.
    They are nearly always among the keys below twice the k-th smallest's
    expected value, about 2k of them, which one comparison finds and a short
    argsort orders; else argpartition finds them."""
    if 2 * k < keys.size:
        near = (keys < np.uint64((2 * k << 64) // keys.size)).nonzero()[0]
        if near.size >= k:
            return near[keys[near].argsort()[:k]]
    part = np.argpartition(keys, k)[:k] if k < keys.size else np.arange(keys.size)
    return part[keys[part].argsort()]


def _least_draw(p: float) -> np.uint64:
    """The least draw whose uniform is at least p, for 0 <= p < 1: a draw
    is at least it exactly where its uniform is at least p."""
    return np.uint64(math.ceil(p * 2**53) << 11)


def _train_count(total: int, fraction: float) -> int:
    # keep at least one sample on each side when possible
    count = _half_up(total * fraction)
    if total >= 2:
        count = min(max(count, 1), total - 1)
    return count


def stratified_split(source, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded train/test partition; per-class proportions within one sample of
    train_fraction. Class c's i-th row is keyed by draw i of the key
    (seed, c), and its rows with the smallest keys train.

    source is a LabeledDataset or a BinaryRows: it is used through n, m,
    labels and select_rows of a slice. The partition comes from the labels;
    both pools, in row order and in the source's dtype, are then filled in
    one pass over its rows, a block at a time, so no more than a block is
    held beside them."""
    train = np.zeros(source.n, dtype=bool)
    for cls in (0, 1):
        cls_idx = np.flatnonzero(source.labels == cls)
        if cls_idx.size == 0:
            continue
        if cls_idx.size < 2:
            raise ValidationError(
                f"class {cls} has {cls_idx.size} sample(s); need >= 2 to stratify"
            )
        k = _train_count(cls_idx.size, spec.train_fraction)
        order = np.argpartition(_draws(_key(spec.seed, cls), cls_idx.size), k)
        train[cls_idx[order[:k]]] = True
    sides = (train, ~train)
    pools: list[np.ndarray] = []
    filled = [0, 0]
    for rows in _blocks(source.n, source.m, _BLOCK_CELLS):
        block = source.select_rows(rows).features
        if not pools:
            pools = [np.empty((int(side.sum()), source.m), block.dtype) for side in sides]
        for i, side in enumerate(sides):
            part = block[side[rows]]
            pools[i][filled[i] : filled[i] + part.shape[0]] = part
            filled[i] += part.shape[0]
    # every block passed select_rows' check
    return tuple(LabeledDataset._wrap(pool, source.labels[side], finite=True)
                 for pool, side in zip(pools, sides))


def synthesize(spec: SyntheticSpec) -> tuple[LabeledDataset, np.ndarray]:
    """Generate a dataset whose labels depend only on a known informative subset.

    Labels threshold a linear logit over the informative columns plus Gaussian
    noise (sd = noise_sigma); the threshold is placed so that exactly
    round(n * class_balance) rows are positive. Returns the dataset and the
    sorted ground-truth informative column indices.

    Each quantity is drawn from its own key (seed, _STREAM_SYNTH, part), a
    sign from a draw's top bit; the normals are the same whatever the block.
    """
    keys = [_key(spec.seed, _STREAM_SYNTH, part) for part in range(8)]

    def draw_signs(part: int, count: int) -> np.ndarray:
        return np.where(_draws(keys[part], count) >> np.uint64(63), 1.0, -1.0)

    X = np.empty((spec.n, spec.m))
    for rows in _blocks(spec.n, spec.m, _BLOCK_CELLS):
        X[rows] = _normals(keys[0], X[rows].size, rows.start * spec.m).reshape(-1, spec.m)
    informative = np.sort(_smallest(_draws(keys[1], spec.m), spec.informative))

    signs = draw_signs(2, spec.informative)
    weights = signs * (1.0 + 2.0 * _uniforms(keys[3], spec.informative))
    if spec.informative:
        # shift informative columns into two clusters aligned with the weight
        # signs, so the logit is bimodal and the class boundary sits in its
        # low-density valley instead of at the Gaussian peak
        cluster = draw_signs(4, spec.n)
        offsets = signs * (1.0 + _uniforms(keys[5], spec.informative))
        shifted = X[:, informative] + cluster[:, None] * offsets[None, :]
        X[:, informative] = shifted
        logit = shifted @ weights
    else:
        logit = np.zeros(spec.n)
    logit = logit + spec.noise_sigma * _normals(keys[6], spec.n)

    n_pos = _half_up(spec.n * spec.class_balance)
    n_pos = min(max(n_pos, 0), spec.n)
    labels = np.zeros(spec.n, dtype=np.uint8)
    if n_pos > 0:
        # rank by logit with a draw breaking exact ties deterministically
        order = np.lexsort((_draws(keys[7], spec.n), logit))
        labels[order[spec.n - n_pos:]] = 1
    # X is this function's own, so it is wrapped, not copied
    return LabeledDataset._wrap(X, labels), informative.astype(np.int64)
