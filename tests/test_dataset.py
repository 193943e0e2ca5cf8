import csv
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from melemad import dataset
from melemad.errors import (
    BadMagic,
    ClassTooSmall,
    DimensionMismatch,
    MissingLabelColumn,
    NonBinaryLabel,
    NonNumericCell,
    RaggedRow,
    TruncatedFile,
    ValidationError,
)


def make_ds(features, labels, names=None):
    return dataset.LabeledDataset(np.asarray(features, dtype=float), np.asarray(labels), names)


def traced_peak(fn, *args):
    """fn's result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestLabeledDataset:
    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            make_ds([[1.0, 2.0]], [0, 1])  # label length mismatch
        with pytest.raises(ValidationError):
            make_ds([[1.0, np.nan]], [0])
        with pytest.raises(ValidationError):
            make_ds([[1.0]], [2])
        with pytest.raises(ValidationError):
            dataset.LabeledDataset(np.zeros((0, 3)), np.zeros(0))

    def test_immutable_and_copies_input(self):
        X = np.array([[1.0, 2.0]])
        ds = make_ds(X, [1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
        X[0, 0] = 9.0  # caller's array stays writeable
        assert ds.features[0, 0] == 1.0


class TestSelectRows:
    def make(self):
        rng = np.random.default_rng(5)
        return make_ds(rng.normal(size=(8, 3)), [0, 1, 1, 0, 1, 0, 0, 1], ["a", "b", "c"])

    def test_gathers_rows_in_order(self):
        ds = self.make()
        sub = ds.select_rows([6, 1, 1, 3])
        np.testing.assert_array_equal(sub.features, ds.features[[6, 1, 1, 3]])
        np.testing.assert_array_equal(sub.labels, [0, 1, 1, 0])
        assert sub.labels.dtype == np.uint8 and sub.features.dtype == np.float64
        assert sub.feature_names == ["a", "b", "c"]

    def test_arrays_read_only(self):
        sub = self.make().select_rows(np.array([2, 0]))
        with pytest.raises(ValueError):
            sub.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            sub.labels[0] = 0

    def test_slice_gives_read_only_views(self):
        ds = self.make()
        sub = ds.select_rows(slice(2, 6))
        np.testing.assert_array_equal(sub.features, ds.features[2:6])
        np.testing.assert_array_equal(sub.labels, [1, 0, 1, 0])
        assert np.shares_memory(sub.features, ds.features)
        assert np.shares_memory(sub.labels, ds.labels)
        assert sub.feature_names == ["a", "b", "c"]
        with pytest.raises(ValueError):
            sub.features[0, 0] = 1.0
        with pytest.raises(ValidationError):
            ds.select_rows(slice(3, 3))

    def test_empty_and_2d_indices_rejected(self):
        ds = self.make()
        with pytest.raises(ValidationError):
            ds.select_rows(np.array([], dtype=int))
        with pytest.raises(ValidationError):
            ds.select_rows(np.zeros(8, dtype=bool))
        with pytest.raises(ValidationError):
            ds.select_rows(np.array([[0, 1], [2, 3]]))

    def test_class_rows(self):
        ds = self.make()
        neg, pos = ds.class_rows
        np.testing.assert_array_equal(neg, [0, 3, 5, 6])
        np.testing.assert_array_equal(pos, [1, 2, 4, 7])
        assert ds.class_rows is ds.class_rows  # computed once per dataset
        with pytest.raises(ValueError):
            pos[0] = 0


class TestSelectColumns:
    def make(self):
        rng = np.random.default_rng(6)
        return make_ds(rng.normal(size=(5, 4)), [0, 1, 1, 0, 1], ["a", "b", "c", "d"])

    def test_gathers_columns_in_order(self):
        ds = self.make()
        sub = ds.select_columns([3, 1])
        np.testing.assert_array_equal(sub.features, ds.features[:, [3, 1]])
        assert sub.labels is ds.labels
        assert sub.feature_names == ["d", "b"]

    def test_arrays_read_only(self):
        sub = self.make().select_columns(np.array([0, 2]))
        with pytest.raises(ValueError):
            sub.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            sub.labels[0] = 0

    def test_empty_and_2d_indices_rejected(self):
        ds = self.make()
        with pytest.raises(ValidationError):
            ds.select_columns(np.array([], dtype=int))
        with pytest.raises(ValidationError):
            ds.select_columns(np.zeros(4, dtype=bool))
        with pytest.raises(ValidationError):
            ds.select_columns(np.array([[0, 1], [2, 3]]))


class TestCsv:
    def test_three_row_example(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n1,2,0\n3,4,1\n5,6,0\n")
        ds = dataset.load_csv(path)
        assert (ds.n, ds.m) == (3, 2)
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.feature_names == ["f1", "f2"]
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_label_by_index(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,7\n1,8\n")
        ds = dataset.load_csv(path, label_column=0)
        assert ds.labels.tolist() == [0, 1]
        assert ds.features.ravel().tolist() == [7, 8]

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2\n1,2\n")
        with pytest.raises(MissingLabelColumn):
            dataset.load_csv(path, label_column="label")

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\n1,2\n")
        with pytest.raises(NonBinaryLabel):
            dataset.load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n1,abc,0\n")
        with pytest.raises(NonNumericCell) as err:
            dataset.load_csv(path)
        assert err.value.col == 1

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n1,2,0\n1,0\n")
        with pytest.raises(RaggedRow):
            dataset.load_csv(path)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = make_ds(rng.standard_normal((17, 4)) * 1e3, rng.integers(0, 2, 17))
        path = tmp_path / "rt.csv"
        dataset.save_csv(ds, path)
        # through numpy's reader, then through the per-cell reader alone
        for name, stub in (("_load_csv_cells", refuse), ("_load_csv_matrix", lambda *a: None)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset, name, stub)
                back = dataset.load_csv(path)
            assert back.features.tobytes() == ds.features.tobytes(), name
            np.testing.assert_array_equal(back.labels, ds.labels)
            assert back.feature_names == ["f0", "f1", "f2", "f3"]


def reference_save_csv(ds, path, label_column="label"):
    """The csv.writer-per-row writer that save_csv replaced."""
    names = ds.feature_names or [f"f{j}" for j in range(ds.m)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [label_column])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.features[i]] + [int(ds.labels[i])])


class TestSaveCsvMatchesReference:
    @pytest.mark.parametrize(
        "features, labels, names, label_column",
        [
            pytest.param(
                [[1.5, -2.0], [0.1, 3.0]], [0, 1], ["a,b", 'say "hi"'], "label", id="quoted-header"
            ),
            pytest.param([[1.0, 2.0]], [1], ["two\nlines", " pad "], "label", id="newline-header"),
            pytest.param(
                [[1e-300, -1.25e22], [-7.5e-8, 6.02e23], [1e16, -1e-5]],
                [1, 0, 1],
                None,
                "label",
                id="exponent-negative",
            ),
            pytest.param([[-0.0, 0.0], [0.0, -0.0]], [0, 1], None, "label", id="negative-zero"),
            pytest.param([[0.1], [0.2], [1 / 3]], [1, 0, 0], None, "label", id="one-column"),
            pytest.param([[4.0, 5.0], [6.0, 7.0]], [0, 1], ["x", "y"], "class, y", id="label-name"),
        ],
    )
    def test_bytes_equal_reference(self, tmp_path, features, labels, names, label_column):
        ds = make_ds(features, labels, names)
        dataset.save_csv(ds, tmp_path / "new.csv", label_column)
        reference_save_csv(ds, tmp_path / "ref.csv", label_column)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("block_cells", [1, 7 * 6, 1 << 16])
    def test_random_matrix_bytes_equal_reference(self, tmp_path, monkeypatch, block_cells):
        # blocks of one row, of six rows with a remainder of four, and of all
        rng = np.random.default_rng(3)
        features = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-20, 20, (40, 7))
        ds = make_ds(features, rng.integers(0, 2, 40))
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block_cells)
        dataset.save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def refuse(*args):
    raise AssertionError("the per-cell reader ran")


def reference_load_csv(path, label_column="label"):
    """The per-cell CSV reader that load_csv must agree with, byte for byte
    and error for error."""

    def parse_cell(text, row, col):
        try:
            value = float(text)
        except ValueError:
            raise NonNumericCell(row, col, text) from None
        if not math.isfinite(value):
            raise NonNumericCell(row, col, text)
        return value

    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if isinstance(label_column, int):
            if not 0 <= label_column < len(header):
                raise MissingLabelColumn(f"column index {label_column} out of range")
            label_idx = label_column
        else:
            try:
                label_idx = header.index(label_column)
            except ValueError:
                raise MissingLabelColumn(
                    f"no column named {label_column!r} in {header}"
                ) from None

        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        rows = []
        labels = []
        for row_no, cells in enumerate(reader):
            if len(cells) != len(header):
                raise RaggedRow(row_no, len(header), len(cells))
            label_text = cells[label_idx].strip()
            if label_text not in ("0", "1"):
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
                    parse_cell(cells[j].strip(), row_no, j)
                    for j in range(len(header))
                    if j != label_idx
                ]
            )

    if not rows:
        raise ValidationError(f"{path} has a header but no data rows")
    return dataset.LabeledDataset(rows, np.array(labels), feature_names)


def load_outcome(loader, path, label_column):
    """Everything a reader's result shows: the arrays' bytes, dtypes, layout
    and names, or the exception's type and message."""
    try:
        ds = loader(path, label_column)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(
        (a.dtype, a.shape, a.tobytes(), a.flags.c_contiguous, a.flags.writeable)
        for a in (ds.features, ds.labels)
    ) + (ds.feature_names,)


def assert_matches_reference(path, label_column="label"):
    """load_csv against reference_load_csv; True when the per-cell reader ran."""
    cells = dataset._load_csv_cells
    calls = []

    def counted(*args):
        calls.append(args)
        return cells(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_load_csv_cells", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            actual = load_outcome(dataset.load_csv, path, label_column)
    assert [str(w.message) for w in caught] == []
    assert actual == load_outcome(reference_load_csv, path, label_column)
    return bool(calls)


# name: (file contents, label_column, whether the per-cell reader runs;
# None where it depends on the numpy version)
CSV_CASES = {
    "plain": ("f1,f2,label\n1,2,0\n3,4,1\n", "label", False),
    "no trailing newline": ("f1,label\n1,0\n2,1", "label", False),
    "crlf": ("f1,label\r\n1,0\r\n2,1\r\n", "label", False),
    "bare cr": ("f1,label\r1,0\r2,1\r", "label", None),
    "quoted cells": ('f1,f2,label\n"1.5","-2",0\n"3e2",4,"1"\n', "label", False),
    "quote then text": ('f1,label\n"1"2,0\n', "label", None),
    "padded cells": ("f1,f2,label\n  1.5 ,\t-2\t, 0 \n3,4 ,1\n", "label", False),
    "no-break space padding": ("f1,label\n\xa01.5,1\n", "label", None),
    "label spellings": ("f1,label\n1,1.0\n2,+1\n3,1e0\n4,-0\n5,0.0\n6,0\n", "label", False),
    "label by index": ("a,b\n0,7\n1,8\n", 0, False),
    "label in the middle": ("f1,label,f2\n1,0,2\n3,1,4\n", "label", False),
    "label in the middle by index": ("f1,label,f2\n1,0,2\n3,1,4\n", 1, False),
    "byte order mark": ("\ufefff1,label\n1,0\n", "label", False),
    "blank line": ("f1,label\n1,0\n\n2,1\n", "label", True),
    "blank last line": ("f1,label\n1,0\n2,1\n\n", "label", True),
    "blank line, no trailing newline": ("f1,label\n1,0\n\n2,1", "label", True),
    "blank crlf line": ("f1,label\r\n1,0\r\n\r\n2,1\r\n", "label", True),
    "bare cr inside a line, then a blank line": ("f1,label\n1,0\r2,1\n\n", "label", True),
    "whitespace-only line": ("f1,label\n1,0\n \t\n", "label", True),
    "Infinity": ("f1,label\nInfinity,0\n", "label", True),
    "-inf": ("f1,label\n1,0\n-inf,1\n", "label", True),
    "nan": ("f1,label\nnan,0\n", "label", True),
    "1e400": ("f1,label\n1e400,1\n", "label", True),
    "nan label": ("f1,label\n1,nan\n", "label", True),
    "underscore in a cell": ("f1,label\n1_0,0\n", "label", True),
    "underscore in a label": ("f1,label\n5,1_0\n", "label", True),
    "trailing comma": ("f1,label\n1,0,\n", "label", True),
    "space before a quote": ('f1,label\n "1",0\n', "label", True),
    "empty cell": ("f1,f2,label\n1,,0\n", "label", True),
    "non-numeric cell": ("f1,f2,label\n1,2,0\n3,x7,1\n", "label", True),
    "ragged row": ("f1,f2,label\n1,2,0\n3,4\n", "label", True),
    "label 2": ("f1,label\n1,0\n3,2\n", "label", True),
    "arabic-indic digit": ("f1,label\n\u0661,0\n", "label", True),
    "quoted newline in a cell": ('f1,label\n"1\n",0\n2,1\n', "label", True),
    "quoted newline in the header": ('"f\n1",label\n1,0\n', "label", True),
    # np.loadtxt reads the header's second line as the data row 1,0
    "header line that reads as data": ('"f\n"1",0\n2,1\n', "0", True),
    "label column only": ("label\n0\n1\n", "label", True),
    "header only": ("f1,label\n", "label", True),
    "header only, no newline": ("f1,label", "label", True),
    "empty file": ("", "label", False),
    "missing label column": ("f1,f2\n1,2\n", "label", False),
    "label index out of range": ("a,b\n0,1\n", 5, False),
    # past the first read buffer, so the header decodes
    "invalid utf-8": (b"f1,label\n" + b"1,0\n" * 3000 + b"\xff,1\n", "label", True),
}


class TestCsvMatchesReference:
    @pytest.mark.parametrize("case", CSV_CASES)
    def test_edge_case(self, tmp_path, case):
        text, label_column, per_cell = CSV_CASES[case]
        path = tmp_path / "d.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8", newline="")
        ran = assert_matches_reference(path, label_column)
        if per_cell is not None:
            assert ran == per_cell

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_spellings(self, tmp_path_factory, data):
        text, label_column = data.draw(csv_files())
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_matches_reference(path, label_column)


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.7976931348623157e308]),
)
CELL_SPELLINGS = [repr, "{:.17g}".format, "{:e}".format, "{:.3f}".format, "{:+.6g}".format]
LABEL_SPELLINGS = {
    0: ["0", "0.0", "-0", "+0", "0e5", "0.", ".0"],
    1: ["1", "1.0", "+1", "1e0", "1.", "10e-1", "0.1e1"],
}
FAULTS = ["", "nan", "-Infinity", "1e400", "1_0", "abc", "2", '"1', '1"', ' "1"', "1,"]


@st.composite
def csv_files(draw):
    """A headered CSV of random values in random spellings, some padded or
    quoted; now and then a faulty cell, a blank line or a short row."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    label_at = draw(st.integers(0, m))
    header = [f"f{j}" for j in range(m)]
    header.insert(label_at, "label")
    lines = [",".join(header)]
    for _ in range(n):
        cells = [draw(st.sampled_from(CELL_SPELLINGS))(draw(FLOATS)) for _ in range(m)]
        cells.insert(label_at, draw(st.sampled_from(LABEL_SPELLINGS[draw(st.integers(0, 1))])))
        for j, cell in enumerate(cells):
            pad = draw(st.sampled_from(["", " ", "\t", "  "]))
            cell = pad + cell + draw(st.sampled_from(["", " ", "\t"]))
            cells[j] = f'"{cell}"' if draw(st.integers(0, 4)) == 0 else cell
        lines.append(",".join(cells))
    fault = draw(st.integers(0, 3))
    if fault == 1:
        row = draw(st.integers(1, n))
        cells = lines[row].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(FAULTS))
        lines[row] = ",".join(cells)
    elif fault == 2:
        lines.insert(draw(st.integers(1, n + 1)), "")
    elif fault == 3:
        row = draw(st.integers(1, n))
        lines[row] = lines[row].rpartition(",")[0]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    label_column = draw(st.sampled_from(["label", label_at]))
    return text, label_column


class TestBinary:
    def test_round_trip_identity_at_float32(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = make_ds(rng.standard_normal((10, 3)), rng.integers(0, 2, 10))
        path = tmp_path / "d.bin"
        dataset.save_binary(ds, path)
        back = dataset.load_binary(path)
        np.testing.assert_array_equal(
            back.features.astype(np.float32), ds.features.astype(np.float32)
        )
        np.testing.assert_array_equal(back.labels, ds.labels)
        # a second trip through the format is bit-exact
        path2 = tmp_path / "d2.bin"
        dataset.save_binary(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(BadMagic):
            dataset.load_binary(path)

    def test_truncated_payload(self, tmp_path):
        ds = make_ds(np.ones((10, 2)), np.zeros(10, dtype=int))
        path = tmp_path / "d.bin"
        dataset.save_binary(ds, path)
        blob = path.read_bytes()
        # drop one row worth of floats plus its label byte
        path.write_bytes(blob[: 16 + 4 * 9 * 2] + blob[16 + 4 * 10 * 2 : -1])
        with pytest.raises(TruncatedFile):
            dataset.load_binary(path)

    def test_header_shorter_than_16_bytes(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"MLMD\x01")
        with pytest.raises(TruncatedFile):
            dataset.load_binary(path)

    def saved(self, tmp_path, n=10, m=3):
        rng = np.random.default_rng(2)
        ds = make_ds(rng.standard_normal((n, m)), rng.integers(0, 2, n))
        path = tmp_path / "d.bin"
        dataset.save_binary(ds, path)
        return ds, path

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda b: b[:-1], TruncatedFile, "expected 146 bytes, found 145"),
            (lambda b: b + b"\0", TruncatedFile, "expected 146 bytes, found 147"),
            (lambda b: b[:15], TruncatedFile, "shorter than the 16-byte header"),
            (lambda b: b"MLMX" + b[4:], BadMagic, "bad magic b'MLMX'"),
            (lambda b: b[:4] + (2).to_bytes(4, "little") + b[8:], BadMagic,
             "unsupported version 2"),
            (lambda b: b[:8] + bytes(4) + b[12:], TruncatedFile,
             "header claims empty dataset n=0, m=3"),
        ],
        ids=["one-byte-short", "one-byte-extra", "short-header", "bad-magic", "bad-version",
             "empty"],
    )
    def test_malformed_file_named(self, tmp_path, edit, error, message):
        _, path = self.saved(tmp_path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(error) as err:
            dataset.load_binary(path)
        assert str(err.value) == f"{path}: {message}"

    def test_file_shrinking_after_the_size_check(self, tmp_path, monkeypatch):
        _, path = self.saved(tmp_path)
        full = path.stat()
        path.write_bytes(path.read_bytes()[:-4])
        monkeypatch.setattr(dataset.os, "fstat", lambda fd: full)
        with pytest.raises(TruncatedFile, match="ended before its 10-byte block"):
            dataset.load_binary(path)

    @pytest.mark.parametrize("block_cells", [1, 4, 9, 1 << 16])
    def test_block_reads_load_the_float32_values(self, tmp_path, monkeypatch, block_cells):
        # blocks of one row, of one row (4 // 3), of three rows with a
        # remainder of one, and of the whole body
        ds, path = self.saved(tmp_path)
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block_cells)
        back = dataset.load_binary(path)
        assert back.features.dtype == np.float64 and back.features.flags.c_contiguous
        assert back.features.tobytes() == ds.features.astype("<f4").astype(np.float64).tobytes()
        assert back.labels.dtype == np.uint8
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert not back.features.flags.writeable and not back.labels.flags.writeable
        dataset.save_binary(back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("block_cells", [1, 4, 9, 1 << 16])
    def test_block_writes_match_one_float32_body(self, tmp_path, monkeypatch, block_cells):
        # a row view and a column subset, written a block of rows at a time,
        # hold the bytes of the whole matrix converted at once
        rng = np.random.default_rng(3)
        ds = make_ds(rng.standard_normal((11, 4)) * 1e30, rng.integers(0, 2, 11))
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block_cells)
        for part in (ds.select_rows(slice(2, 9)), ds.select_columns([3, 0, 2])):
            path = tmp_path / "part.bin"
            dataset.save_binary(part, path)
            body = part.features.astype("<f4").tobytes(order="C")
            assert path.read_bytes()[16:] == body + part.labels.tobytes()

    def test_save_holds_one_block_next_to_the_matrix(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = make_ds(rng.standard_normal((4000, 100)), rng.integers(0, 2, 4000))
        _, peak = traced_peak(dataset.save_binary, ds, tmp_path / "d.bin")
        # the whole float32 body and its bytes copy held 0.5 + 0.5 x the matrix
        assert peak <= 0.1 * ds.features.nbytes

    @pytest.mark.parametrize(
        "offset, value, message",
        [(16 + 4 * 5, np.float32(np.nan).tobytes(), "features contain NaN or Inf"),
         (16 + 4 * 30 + 2, b"\x02", "labels must all be 0 or 1")],
    )
    def test_invalid_values_rejected(self, tmp_path, offset, value, message):
        _, path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + len(value)] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match=message):
            dataset.load_binary(path)


class TestScaler:
    def test_fit_basic(self):
        ds = make_ds([[0.0], [5.0], [10.0]], [0, 1, 0])
        sp = dataset.fit_scaler(ds)
        assert sp.per_column_min[0] == 0 and sp.per_column_max[0] == 10

    def test_fit_constant_and_single_row(self):
        sp = dataset.fit_scaler(make_ds([[7.0], [7.0], [7.0]], [0, 1, 0]))
        assert sp.per_column_min[0] == sp.per_column_max[0] == 7
        sp1 = dataset.fit_scaler(make_ds([[3.0, -2.0]], [1]))
        assert sp1.per_column_min.tolist() == [3.0, -2.0]
        assert sp1.per_column_max.tolist() == [3.0, -2.0]

    def test_apply_maps_to_unit_interval(self):
        ds = make_ds([[0.0], [5.0], [10.0]], [0, 1, 0])
        out = dataset.apply_scaler(ds, dataset.fit_scaler(ds))
        assert out.features.ravel().tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        ds = make_ds([[7.0], [7.0]], [0, 1])
        out = dataset.apply_scaler(ds, dataset.fit_scaler(ds))
        assert out.features.ravel().tolist() == [0.0, 0.0]

    def test_out_of_range_clips(self):
        train = make_ds([[0.0], [10.0]], [0, 1])
        sp = dataset.fit_scaler(train)
        out = dataset.apply_scaler(make_ds([[12.0], [-3.0]], [0, 1]), sp)
        assert out.features.ravel().tolist() == [1.0, 0.0]

    def test_result_read_only(self):
        ds = make_ds([[0.0, 1.0], [5.0, 3.0]], [0, 1])
        out = dataset.apply_scaler(ds, dataset.fit_scaler(ds))
        with pytest.raises(ValueError):
            out.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            out.labels[0] = 1

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValidationError):
            dataset.ScalerParams(np.array([-np.inf]), np.array([1.0]))
        with pytest.raises(ValidationError):
            dataset.ScalerParams(np.array([0.0]), np.array([np.nan]))

    def test_dimension_mismatch(self):
        sp = dataset.fit_scaler(make_ds([[1.0, 2.0]], [0]))
        with pytest.raises(DimensionMismatch):
            dataset.apply_scaler(make_ds([[1.0]], [0]), sp)

    def test_persistence_round_trip(self, tmp_path):
        sp = dataset.ScalerParams(np.array([0.0, -1.0]), np.array([2.0, 4.0]))
        path = tmp_path / "scaler.json"
        dataset.save_scaler(sp, path)
        back = json.loads(path.read_text(encoding="utf-8"))
        np.testing.assert_array_equal(back["min"], sp.per_column_min)
        np.testing.assert_array_equal(back["max"], sp.per_column_max)

    @given(
        st.integers(2, 40),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_idempotent_on_scaled_data(self, n, m, seed):
        rng = np.random.default_rng(seed)
        ds = make_ds(rng.uniform(-100, 100, (n, m)), rng.integers(0, 2, n))
        scaled = dataset.apply_scaler(ds, dataset.fit_scaler(ds))
        again = dataset.apply_scaler(scaled, dataset.fit_scaler(scaled))
        np.testing.assert_allclose(again.features, scaled.features, atol=1e-9)


class TestSplit:
    def test_even_split_exact(self):
        rng = np.random.default_rng(2)
        labels = np.array([0] * 50 + [1] * 50)
        ds = make_ds(rng.standard_normal((100, 2)), labels)
        train, test = dataset.stratified_split(ds, dataset.SplitSpec(0.8, True, 3))
        assert train.n == 80 and test.n == 20
        assert int(train.labels.sum()) == 40

    def test_rounding_within_one_sample(self):
        # 50 negatives, 49 positives at 0.8: per-class train counts 40 and 39
        rng = np.random.default_rng(3)
        labels = np.array([0] * 50 + [1] * 49)
        ds = make_ds(rng.standard_normal((99, 2)), labels)
        train, _ = dataset.stratified_split(ds, dataset.SplitSpec(0.8, True, 0))
        neg = int((train.labels == 0).sum())
        pos = int((train.labels == 1).sum())
        assert (neg, pos) == (40, 39)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(4)
        ds = make_ds(rng.standard_normal((60, 3)), rng.integers(0, 2, 60))
        spec = dataset.SplitSpec(0.7, True, 11)
        a_train, a_test = dataset.stratified_split(ds, spec)
        b_train, b_test = dataset.stratified_split(ds, spec)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.features, b_test.features)

    def test_class_too_small(self):
        ds = make_ds([[1.0], [2.0], [3.0]], [0, 0, 1])
        with pytest.raises(ClassTooSmall):
            dataset.stratified_split(ds, dataset.SplitSpec(0.5, True, 0))

    def test_fraction_bounds(self):
        with pytest.raises(ValidationError):
            dataset.SplitSpec(train_fraction=1.0)
        with pytest.raises(ValidationError):
            dataset.SplitSpec(train_fraction=0.0)

    @given(
        st.integers(4, 120),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_conserves_totals(self, n, fraction, seed, stratified):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        if stratified:
            labels[:2] = 0
            labels[2:4] = 1
        ds = make_ds(rng.standard_normal((n, 2)), labels)
        train, test = dataset.stratified_split(
            ds, dataset.SplitSpec(fraction, stratified, seed)
        )
        assert train.n + test.n == n
        assert int(train.labels.sum()) + int(test.labels.sum()) == int(ds.labels.sum())


class TestSynthesize:
    def test_deterministic_bytes(self, tmp_path):
        spec = dataset.SyntheticSpec(n=100, m=8, informative=3, seed=5)
        a, inf_a = dataset.synthesize(spec)
        b, inf_b = dataset.synthesize(spec)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        np.testing.assert_array_equal(inf_a, inf_b)

    def test_class_balance_honored(self):
        for balance in (0.3, 0.5, 0.7):
            ds, _ = dataset.synthesize(
                dataset.SyntheticSpec(n=500, m=5, informative=2, class_balance=balance, seed=1)
            )
            assert abs(ds.labels.mean() - balance) <= 0.02

    def test_no_informative_means_labels_independent(self):
        ds, inf = dataset.synthesize(
            dataset.SyntheticSpec(n=2000, m=20, informative=0, seed=9, noise_sigma=1.0)
        )
        assert inf.size == 0
        y = ds.labels.astype(float) - ds.labels.mean()
        for j in range(ds.m):
            x = ds.features[:, j] - ds.features[:, j].mean()
            corr = float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))
            assert abs(corr) < 0.1

    def test_single_informative_no_noise_is_separable(self):
        ds, inf = dataset.synthesize(
            dataset.SyntheticSpec(n=300, m=4, informative=1, noise_sigma=0.0, seed=2)
        )
        col = ds.features[:, inf[0]]
        order = np.argsort(col)
        sorted_labels = ds.labels[order]
        changes = int(np.sum(np.diff(sorted_labels.astype(int)) != 0))
        assert changes == 1  # one clean threshold on that column

    def test_holds_one_copy_of_its_matrix(self):
        spec = dataset.SyntheticSpec(n=4000, m=500, informative=10, seed=6)
        (ds, _), peak = traced_peak(dataset.synthesize, spec)
        assert not ds.features.flags.writeable and ds.features.flags.c_contiguous
        # a copy into the constructor and its n x m finiteness mask held 2.1 x
        assert peak <= 1.3 * ds.features.nbytes

    @pytest.mark.parametrize("row", [0, 5, 10])
    def test_finiteness_checked_in_every_block(self, monkeypatch, row):
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", 6)  # two rows of three a block
        X = np.zeros((11, 3))
        dataset._check_finite(X)
        X[row, 1] = np.inf
        with pytest.raises(ValidationError, match="features contain NaN or Inf"):
            dataset._check_finite(X)

    def test_informative_bounds_validated(self):
        with pytest.raises(ValidationError):
            dataset.SyntheticSpec(n=10, m=5, informative=6)
