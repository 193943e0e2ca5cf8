import csv
import json
import math
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from melemad import dataset
from melemad.errors import MelemadError, ValidationError

from oracles import (box_muller, draws as oracle_draws, inclusion_chi_square, key_of,
                     min_max_scaled)


def make_ds(features, labels):
    return dataset.LabeledDataset(np.asarray(features, dtype=float), np.asarray(labels))


def traced_peak(fn, *args):
    """fn's result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def check_blocks(count, width, cells):
    """_blocks' slices cover range(count) once, in order, each holding at
    most max(1, cells // width) items and all but the last exactly that many."""
    step = max(1, cells // width)
    blocks = dataset._blocks(count, width, cells)
    assert [i for b in blocks for i in range(count)[b]] == list(range(count))
    sizes = [b.stop - b.start for b in blocks]
    assert all(b.step is None and 0 <= b.start < b.stop <= count for b in blocks)
    assert all(size <= step for size in sizes)
    assert all(size == step for size in sizes[:-1])
    return blocks


class TestBlocks:
    @pytest.mark.parametrize("count, width, cells, expected", [
        (3, 4, 20, [(0, 3)]),
        (5, 4, 20, [(0, 5)]),
        (12, 4, 20, [(0, 5), (5, 10), (10, 12)]),
        (3, 30, 20, [(0, 1), (1, 2), (2, 3)]),
        (0, 4, 20, []),
    ], ids=["below one step", "one step", "above one step", "width above cells", "empty"])
    def test_cuts_the_range_into_steps(self, count, width, cells, expected):
        blocks = check_blocks(count, width, cells)
        assert [(b.start, b.stop) for b in blocks] == expected

    @given(st.integers(0, 300), st.integers(1, 60), st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_covers_the_range_once_in_order(self, count, width, cells):
        check_blocks(count, width, cells)


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
        y = np.array([1], dtype=np.uint8)
        ds = dataset.LabeledDataset(X, y)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 0
        # the caller's arrays, uint8 labels too, stay writeable and apart
        X[0, 0] = 9.0
        y[0] = 0
        assert ds.features[0, 0] == 1.0 and ds.labels[0] == 1
        assert not np.shares_memory(ds.labels, y)

    def test_holds_one_copy_of_its_input(self):
        rng = np.random.default_rng(7)
        X, y = rng.standard_normal((4000, 500)), rng.integers(0, 2, 4000)
        ds, peak = traced_peak(dataset.LabeledDataset, X, y)
        # the copy and an n x m finiteness mask held 1.125 x the matrix
        assert peak <= 1.05 * ds.features.nbytes


class TestSelectRows:
    def make(self):
        rng = np.random.default_rng(5)
        return make_ds(rng.normal(size=(8, 3)), [0, 1, 1, 0, 1, 0, 0, 1])

    def test_gathers_rows_in_order(self):
        ds = self.make()
        sub = ds.select_rows([6, 1, 1, 3])
        np.testing.assert_array_equal(sub.features, ds.features[[6, 1, 1, 3]])
        np.testing.assert_array_equal(sub.labels, [0, 1, 1, 0])
        assert sub.labels.dtype == np.uint8 and sub.features.dtype == np.float64

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
        with pytest.raises(ValueError):
            sub.features[0, 0] = 1.0
        with pytest.raises(ValidationError, match=r"^need n >= 1 and m >= 1, got shape \(0, 3\)$"):
            ds.select_rows(slice(3, 3))

    def test_empty_and_2d_indices_rejected(self):
        ds = self.make()
        empty = r"^need n >= 1 and m >= 1, got shape \(0, 3\)$"
        with pytest.raises(ValidationError, match=empty):
            ds.select_rows(np.array([], dtype=int))
        with pytest.raises(ValidationError, match=empty):
            ds.select_rows(np.zeros(8, dtype=bool))
        with pytest.raises(ValidationError, match="^features must be 2-D, got ndim=3$"):
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
        return make_ds(rng.normal(size=(5, 4)), [0, 1, 1, 0, 1])

    def test_gathers_columns_in_order(self):
        ds = self.make()
        sub = ds.select_columns([3, 1])
        np.testing.assert_array_equal(sub.features, ds.features[:, [3, 1]])
        assert sub.labels is ds.labels
        masked = ds.select_columns([False, True, False, True])
        np.testing.assert_array_equal(masked.features, ds.features[:, [1, 3]])

    def test_arrays_read_only(self):
        sub = self.make().select_columns(np.array([0, 2]))
        with pytest.raises(ValueError):
            sub.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            sub.labels[0] = 0

    def test_empty_and_2d_indices_rejected(self):
        ds = self.make()
        empty = r"^need n >= 1 and m >= 1, got shape \(5, 0\)$"
        with pytest.raises(ValidationError, match=empty):
            ds.select_columns(np.array([], dtype=int))
        with pytest.raises(ValidationError, match=empty):
            ds.select_columns(np.zeros(4, dtype=bool))
        with pytest.raises(ValidationError, match="^features must be 2-D, got ndim=3$"):
            ds.select_columns(np.array([[0, 1], [2, 3]]))


class TestCsv:
    def test_three_row_example(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n1,2,0\n3,4,1\n5,6,0\n")
        ds = dataset.load_csv(path)
        assert (ds.n, ds.m) == (3, 2)
        assert ds.labels.tolist() == [0, 1, 0]
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2\n1,2\n")
        with pytest.raises(ValidationError, match=r"no column named 'label' in \['f1', 'f2'\]"):
            dataset.load_csv(path, label_column="label")

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\n1,2\n")
        with pytest.raises(ValidationError, match="label at row 0 is not 0/1: '2'"):
            dataset.load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n1,abc,0\n")
        with pytest.raises(ValidationError,
                           match="non-numeric cell at row 0, column 1: 'abc'"):
            dataset.load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n1,2,0\n1,0\n")
        with pytest.raises(ValidationError, match="row 1 has 2 cells, expected 3"):
            dataset.load_csv(path)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = make_ds(rng.standard_normal((17, 4)) * 1e3, rng.integers(0, 2, 17))
        path = tmp_path / "rt.csv"
        dataset.save_csv(ds, path)
        # through numpy's reader, then through the per-cell reader alone
        for name, stub in (("_spill_cells", refuse), ("_spill_lines", lambda *a: None)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset, name, stub)
                back = dataset.load_csv(path)
            assert back.features.tobytes() == ds.features.tobytes(), name
            np.testing.assert_array_equal(back.labels, ds.labels)


    @pytest.mark.parametrize("label_at", [0, 3, 7], ids=["first", "middle", "last"])
    def test_compacted_a_block_at_a_time(self, tmp_path, monkeypatch, label_at):
        # 64-cell blocks: 8 rows of the 8-column file a block, 13 blocks
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", 64)
        rng = np.random.default_rng(label_at)
        ds = make_ds(rng.standard_normal((100, 7)), rng.integers(0, 2, 100))
        lines = []
        for row, label in zip([[f"f{j}" for j in range(7)], *ds.features.tolist()],
                              ["label", *ds.labels.tolist()]):
            cells = [str(v) if isinstance(v, str) else repr(v) for v in row]
            lines.append(",".join([*cells[:label_at], str(label), *cells[label_at:]]))
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_spill_cells", refuse)
            loaded = dataset.load_csv(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_spill_lines", lambda *a: None)
            cells = dataset.load_csv(path)
        assert loaded.features.flags.c_contiguous and loaded.features.dtype == np.float64
        assert loaded.features.tobytes() == ds.features.tobytes() == cells.features.tobytes()
        assert loaded.labels.tobytes() == ds.labels.tobytes() == cells.labels.tobytes()

    def test_opens_a_well_formed_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n1,2,0\n3,4,1\n")
        opened, open_path = [], Path.open

        def counted(self, *args, **kwargs):
            opened.append(self)
            return open_path(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counted)
        monkeypatch.setattr(dataset, "_spill_cells", refuse)
        ds = dataset.load_csv(path)
        assert ds.features.tolist() == [[1, 2], [3, 4]] and ds.labels.tolist() == [0, 1]
        assert opened == [path]

    def test_load_holds_one_copy_of_the_matrix(self, tmp_path):
        rng = np.random.default_rng(9)
        ds = make_ds(rng.standard_normal((15000, 40)), rng.integers(0, 2, 15000))
        path = tmp_path / "d.csv"
        dataset.save_csv(ds, path)
        loaded, peak = traced_peak(dataset.load_csv, path)
        assert loaded.features.tobytes() == ds.features.tobytes()
        # the matrix read back from the spill, and before it one block's
        # parse: about 1.014x (np.loadtxt of the whole file peaked at 1.22x)
        assert peak <= 1.05 * ds.features.nbytes

    def test_spill_is_unnamed_and_closed_on_failure(self, tmp_path, monkeypatch):
        spills, temporary = [], dataset.tempfile.TemporaryFile

        def recorded(*args, **kwargs):
            spills.append(temporary(*args, **kwargs))
            return spills[-1]

        monkeypatch.setattr(dataset.tempfile, "TemporaryFile", recorded)
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n1,2,0\n3,4,1\n")
        with dataset.spill_csv(path, "label", spill_dir) as source:
            assert list(spill_dir.iterdir()) == []
            assert source.select_rows(slice(1, 2)).features.tolist() == [[3, 4]]
        path.write_text("f1,f2,label\n1,2,0\n3,x,1\n")
        with pytest.raises(ValidationError, match="^non-numeric cell at row 1, column 1: 'x'$"):
            dataset.spill_csv(path, "label", spill_dir)
        assert list(spill_dir.iterdir()) == []
        assert len(spills) == 2 and all(spill.closed for spill in spills)

    def test_finiteness_checked_a_block_at_a_time(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(10)
        ds = make_ds(rng.standard_normal((3000, 40)), rng.integers(0, 2, 3000))
        path = tmp_path / "d.csv"
        dataset.save_csv(ds, path)
        isfinite, cells = np.isfinite, []

        def counted(x, *args, **kwargs):
            cells.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        loaded = dataset.load_csv(path)
        assert loaded.features.tobytes() == ds.features.tobytes()
        # each feature cell once, in blocks; a mask over the loaded matrix
        # held 3000 x 41 cells
        assert sum(cells) == ds.features.size
        assert max(cells) <= dataset._BLOCK_CELLS


class TestCountLines:
    # each line ending text-mode iteration knows, a quoted newline, a blank
    # line, and files with and without a final ending
    CONTENTS = {
        "lf": b"f1,label\n1,0\n2,1\n",
        "crlf": b"f1,label\r\n1,0\r\n2,1\r\n",
        "bare cr": b"f1,label\r1,0\r2,1\r",
        "mixed": b"f1,label\r\n1,0\r2,1\n\r\n3,0\r\r",
        "quoted newline": b'f1,label\n"1\n2",0\n"3\r\n4",1\n',
        "no final newline": b"f1,label\n1,0\n2,1",
        "no final newline after cr": b"f1,label\r1,0\r\n2,1",
        "utf-8": "f1,label,\u00e9\n1,0,\u2028\n".encode("utf-8"),
        "empty": b"",
        "one ending": b"\n",
    }

    @pytest.mark.parametrize("block_bytes", [1, 2, 3, 5, 1 << 16])
    @pytest.mark.parametrize("content", CONTENTS.values(), ids=CONTENTS.keys())
    def test_counts_the_text_mode_lines(self, tmp_path, monkeypatch, content, block_bytes):
        # numpy's rows are the text-mode lines after the header however the
        # file decodes: chunks of 1 and 3 bytes split the header's \r\n
        # between two chunks ("f1,", "lab", "el\r", "\n1,"); 2 and 5 split
        # others, and 1, 2 and 3 split the UTF-8 sequences
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        with path.open(newline="", encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        expected = load_outcome(reference_load_csv, path, "label")
        open_path, spill_lines = Path.open, dataset._spill_lines
        handed, parsed = [], []

        def chunked(self, *args, **kwargs):
            fh = open_path(self, *args, **kwargs)
            fh._CHUNK_SIZE = block_bytes
            return fh

        def counted(rest, label_idx, width, spill):
            def each():
                for line in rest:
                    handed.append(line)
                    yield line

            parsed.append(spill_lines(each(), label_idx, width, spill))
            return parsed[-1]

        monkeypatch.setattr(Path, "open", chunked)
        monkeypatch.setattr(dataset, "_spill_lines", counted)
        assert load_outcome(dataset.load_csv, path, "label") == expected
        # the labels numpy's blocks gave: one a line
        if parsed and parsed[0] is not None:
            assert len(parsed[0]) == len(handed) == lines - 1


def reference_save_csv(ds, path):
    """The csv.writer-per-row writer that save_csv replaced."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(ds.m)] + ["label"])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.features[i]] + [int(ds.labels[i])])


class TestSaveCsvMatchesReference:
    @pytest.mark.parametrize(
        "features, labels",
        [
            pytest.param([[1.5, -2.0], [0.1, 3.0]], [0, 1], id="quoted-header"),
            pytest.param([[1.0, 2.0]], [1], id="newline-header"),
            pytest.param(
                [[1e-300, -1.25e22], [-7.5e-8, 6.02e23], [1e16, -1e-5]],
                [1, 0, 1],
                id="exponent-negative",
            ),
            pytest.param([[-0.0, 0.0], [0.0, -0.0]], [0, 1], id="negative-zero"),
            pytest.param([[0.1], [0.2], [1 / 3]], [1, 0, 0], id="one-column"),
            pytest.param([[4.0, 5.0], [6.0, 7.0]], [0, 1], id="label-name"),
        ],
    )
    def test_bytes_equal_reference(self, tmp_path, features, labels):
        ds = make_ds(features, labels)
        dataset.save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "ref.csv")
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
        message = f"non-numeric cell at row {row}, column {col}: {text!r}"
        try:
            value = float(text)
        except ValueError:
            raise ValidationError(message) from None
        if not math.isfinite(value):
            raise ValidationError(message)
        return value

    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValidationError(f"no column named {label_column!r} in {header}") from None

        rows = []
        labels = []
        for row_no, cells in enumerate(reader):
            if len(cells) != len(header):
                raise ValidationError(
                    f"row {row_no} has {len(cells)} cells, expected {len(header)}"
                )
            label_text = cells[label_idx].strip()
            if label_text not in ("0", "1"):
                message = f"label at row {row_no} is not 0/1: {label_text!r}"
                try:
                    label_val = float(label_text)
                except ValueError:
                    raise ValidationError(message) from None
                if label_val not in (0.0, 1.0):
                    raise ValidationError(message)
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
    return dataset.LabeledDataset(rows, np.array(labels))


def load_outcome(loader, path, label_column):
    """Everything a reader's result shows: the arrays' bytes, dtypes and
    layout, or the exception's type and message."""
    try:
        ds = loader(path, label_column)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(
        (a.dtype, a.shape, a.tobytes(), a.flags.c_contiguous, a.flags.writeable)
        for a in (ds.features, ds.labels)
    )


def assert_matches_reference(path, label_column="label", expected=None):
    """load_csv against reference_load_csv, or against the expected outcome
    where one is given; True when the per-cell reader ran."""
    cells = dataset._spill_cells
    calls = []

    def counted(*args):
        calls.append(args)
        return cells(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_spill_cells", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            actual = load_outcome(dataset.load_csv, path, label_column)
    assert [str(w.message) for w in caught] == []
    assert actual == (expected or load_outcome(reference_load_csv, path, label_column))
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
    "label in the middle": ("f1,label,f2\n1,0,2\n3,1,4\n", "label", False),
    "byte order mark": ("\ufefff1,label\n1,0\n", "label", False),
    "blank line": ("f1,label\n1,0\n\n2,1\n", "label", True),
    "blank last line": ("f1,label\n1,0\n2,1\n\n", "label", True),
    "blank line, no trailing newline": ("f1,label\n1,0\n\n2,1", "label", True),
    "blank crlf line": ("f1,label\r\n1,0\r\n\r\n2,1\r\n", "label", True),
    "bare cr inside a line, then a blank line": ("f1,label\n1,0\r2,1\n\n", "label", True),
    "mixed line endings": ("f1,label\r\n1,0\r2,1\n3,0\r\n4,1", "label", None),
    "line separator in a cell": ("f1,label\n1\u2028,0\n2,1\n", "label", None),
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
    # csv.reader reads the header from the same handle, so numpy starts
    # after it, however many lines the header spans
    "quoted newline in the header": ('"f\n1",label\n1,0\n', "label", False),
    "header line that reads as data": ('"f\n"1",0\n2,1\n', "0", False),
    "label column only": ("label\n0\n1\n", "label", True),
    "header only": ("f1,label\n", "label", True),
    "header only, no newline": ("f1,label", "label", True),
    "empty file": ("", "label", False),
    "missing label column": ("f1,f2\n1,2\n", "label", False),
    # past the first read buffer, so the header decodes
    "invalid utf-8": (b"f1,label\n" + b"1,0\n" * 3000 + b"\xff,1\n", "label", True),
    # numpy skips the blank line and meets the bad byte; the per-cell reader
    # names the blank line first
    "blank line, then invalid utf-8": (
        b"f1,label\n1,0\n\n" + b"1,0\n" * 3000 + b"\xff,1\n", "label", True
    ),
}
# outcomes that differ from reference_load_csv's on purpose: load_csv names
# a file that is not UTF-8, where the reference raises UnicodeDecodeError
NOT_REFERENCE = {
    "invalid utf-8": "{path} is not UTF-8 text: invalid start byte b'\\xff'",
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
        expected = None
        if case in NOT_REFERENCE:
            expected = (ValidationError, NOT_REFERENCE[case].format(path=path))
        ran = assert_matches_reference(path, label_column, expected)
        if per_cell is not None:
            assert ran == per_cell

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_spellings(self, tmp_path_factory, data):
        text = data.draw(csv_files())
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_matches_reference(path)


def lines_per_block(mp, path, lines):
    """Patch _BLOCK_CELLS so that a block of the CSV at path holds lines
    lines: lines times its header's width."""
    with path.open(newline="", encoding="utf-8", errors="replace") as fh:
        width = len(next(csv.reader(fh), []))
    mp.setattr(dataset, "_BLOCK_CELLS", lines * max(width, 1))


# name: (file contents, lines a block, whether the per-cell reader runs)
BLOCK_CASES = {
    "quoted line break across blocks": ('f1,label\n1,0\n"2\n",1\n3,0\n', 2, True),
    "quoted line break inside a block": ('f1,label\n1,0\n"2\n",1\n3,0\n', 3, True),
    # numpy reads the first block's open quote to the block's end, and the
    # second block's quotes as a quoted cell: both parse, two rows of [1, 0]
    # and [1, 0]; csv.reader reads one row of three cells
    "quote opened at a block's end": ('f1,label\n1,"0\n"1",0\n', 1, True),
    "blank line first in a block": ("f1,label\n1,0\n2,1\n\n3,0\n", 2, True),
    "blank line last in a block": ("f1,label\n1,0\n\n2,1\n", 2, True),
    "blank line alone in a block": ("f1,label\n1,0\n\n2,1\n", 1, True),
    "error in a later block": (
        "f1,f2,label\n" + "1,2,0\n3,4,1\n" * 3 + "5,6,0\n7,x,1\n", 2, True
    ),
    "rows a multiple of the block": ("f1,label\n" + "1,0\n2,1\n3,0\n" * 2, 3, False),
    "one row a block": ("f1,label\n" + "1,0\n2,1\n3,0\n" * 2, 1, False),
}


class TestCsvInBlocks:
    """load_csv with blocks of one to three lines, against reference_load_csv."""

    @pytest.mark.parametrize("lines", [1, 2, 3])
    @pytest.mark.parametrize("case", CSV_CASES)
    def test_edge_case(self, tmp_path, monkeypatch, case, lines):
        text, label_column, _ = CSV_CASES[case]
        path = tmp_path / "d.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8", newline="")
        expected = None
        if case in NOT_REFERENCE:
            expected = (ValidationError, NOT_REFERENCE[case].format(path=path))
        lines_per_block(monkeypatch, path, lines)
        assert_matches_reference(path, label_column, expected)

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_block_boundary(self, tmp_path, monkeypatch, case):
        text, lines, per_cell = BLOCK_CASES[case]
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        lines_per_block(monkeypatch, path, lines)
        assert assert_matches_reference(path) == per_cell

    def test_later_block_error_counts_earlier_rows(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text(BLOCK_CASES["error in a later block"][0])
        lines_per_block(monkeypatch, path, 2)
        with pytest.raises(ValidationError, match="^non-numeric cell at row 7, column 1: 'x'$"):
            dataset.load_csv(path)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_spellings(self, tmp_path_factory, data):
        text = data.draw(csv_files())
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.MonkeyPatch.context() as mp:
            lines_per_block(mp, path, data.draw(st.integers(1, 3)))
            assert_matches_reference(path)


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
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


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
        with pytest.raises(ValidationError, match="bad magic b'NOPE'"):
            dataset.load_binary(path)

    def test_truncated_payload(self, tmp_path):
        ds = make_ds(np.ones((10, 2)), np.zeros(10, dtype=int))
        path = tmp_path / "d.bin"
        dataset.save_binary(ds, path)
        blob = path.read_bytes()
        # drop one row worth of floats plus its label byte
        path.write_bytes(blob[: 16 + 4 * 9 * 2] + blob[16 + 4 * 10 * 2 : -1])
        with pytest.raises(ValidationError, match="expected 106 bytes, found 97"):
            dataset.load_binary(path)

    def test_header_shorter_than_16_bytes(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"MLMD\x01")
        with pytest.raises(ValidationError, match="shorter than the 16-byte header"):
            dataset.load_binary(path)

    def saved(self, tmp_path, n=10, m=3):
        rng = np.random.default_rng(2)
        ds = make_ds(rng.standard_normal((n, m)), rng.integers(0, 2, n))
        path = tmp_path / "d.bin"
        dataset.save_binary(ds, path)
        return ds, path

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b[:-1], "expected 146 bytes, found 145"),
            (lambda b: b + b"\0", "expected 146 bytes, found 147"),
            (lambda b: b[:15], "shorter than the 16-byte header"),
            (lambda b: b"MLMX" + b[4:], "bad magic b'MLMX'"),
            (lambda b: b[:4] + (2).to_bytes(4, "little") + b[8:], "unsupported version 2"),
            (lambda b: b[:8] + bytes(4) + b[12:], "header claims empty dataset n=0, m=3"),
        ],
        ids=["one-byte-short", "one-byte-extra", "short-header", "bad-magic", "bad-version",
             "empty"],
    )
    def test_malformed_file_named(self, tmp_path, edit, message):
        _, path = self.saved(tmp_path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValidationError) as err:
            dataset.load_binary(path)
        assert str(err.value) == f"{path}: {message}"

    def test_file_shrinking_after_the_size_check(self, tmp_path, monkeypatch):
        _, path = self.saved(tmp_path)
        full = path.stat()
        path.write_bytes(path.read_bytes()[:-4])
        monkeypatch.setattr(dataset.os, "fstat", lambda fd: full)
        with pytest.raises(ValidationError, match="ended before its 10-byte block"):
            dataset.load_binary(path)

    def test_float64_body_rejected(self, tmp_path):
        # load_csv's spill layout, a float64 body, read only through the spill
        ds, path = self.saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:16] + ds.features.astype("<f8").tobytes() + blob[-10:])
        with pytest.raises(ValidationError, match=f"^{path}: expected 146 bytes, found 266$"):
            dataset.load_binary(path)

    @pytest.mark.parametrize("block_cells", [1, 4, 9, 1 << 16])
    def test_loads_the_float32_body(self, tmp_path, monkeypatch, block_cells):
        # checked in blocks of one row, of one row (4 // 3), of three rows
        # with a remainder of one, and of the whole body
        ds, path = self.saved(tmp_path)
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block_cells)
        back = dataset.load_binary(path)
        assert back.features.dtype == np.float32 and back.features.flags.c_contiguous
        assert back.features.tobytes() == ds.features.astype("<f4").tobytes()
        assert back.labels.dtype == np.uint8
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert not back.features.flags.writeable and not back.labels.flags.writeable
        # rows, columns and saving keep the float32 values
        dataset.save_binary(back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
        for part in (back.select_rows([7, 2]), back.select_rows(slice(3, 9)),
                     back.select_columns([2, 0])):
            assert part.features.dtype == np.float32

    def test_load_holds_the_float32_body_alone(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = make_ds(rng.standard_normal((4000, 100)), rng.integers(0, 2, 4000))
        path = tmp_path / "d.bin"
        dataset.save_binary(ds, path)
        back, peak = traced_peak(dataset.load_binary, path)
        # a float64 matrix would be twice the body
        assert back.features.nbytes == 4 * 4000 * 100
        assert peak <= 1.1 * back.features.nbytes

    @pytest.mark.parametrize("n, m", [(2**32, 3), (3, 2**32)])
    def test_dimension_overflow_writes_no_file(self, tmp_path, n, m):
        # a stand-in: a real dataset this large does not fit in memory
        path = tmp_path / "d.bin"
        with pytest.raises(MelemadError, match=f"n={n}, m={m} exceed the u32 header") as err:
            dataset.save_binary(SimpleNamespace(n=n, m=m), path)
        # a runtime failure (exit 1), not bad input (exit 2)
        assert not isinstance(err.value, ValidationError)
        assert not path.exists()

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
        # a value off the fitted constant too, on either side
        other = make_ds([[9.0], [-3.0], [7.5]], [0, 1, 0])
        out = dataset.apply_scaler(other, dataset.fit_scaler(ds))
        assert out.features.ravel().tolist() == [0.0, 0.0, 0.0]

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

    def test_overflowing_span_rejected_naming_the_column(self):
        ds = make_ds([[-1e308], [1e308], [-1e308], [1e308]], [0, 1, 0, 1])
        with pytest.raises(ValidationError, match="overflows to Inf in column 0$"):
            dataset.fit_scaler(ds)
        # a loaded scaler too
        with pytest.raises(ValidationError, match="overflows to Inf in column 1$"):
            dataset.ScalerParams(np.array([0.0, -1e308]), np.array([1.0, 1e308]))
        # the widest finite span is accepted and scales as before, to the
        # float32 rounding of the float64 quotient
        sp = dataset.fit_scaler(make_ds([[-1e308], [7e307], [0.0]], [0, 1, 0]))
        out = dataset.apply_scaler(make_ds([[0.0]], [1]), sp)
        expected = min_max_scaled([[0.0]], sp.per_column_min, sp.per_column_max)
        assert out.features.tobytes() == expected.tobytes()
        assert expected.tobytes() == np.array([[1e308 / (7e307 + 1e308)]], np.float32).tobytes()

    def test_apply_holds_one_copy_of_the_matrix(self):
        rng = np.random.default_rng(11)
        pool = make_ds(rng.standard_normal((12000, 15)), rng.integers(0, 2, 12000))
        sp = dataset.fit_scaler(pool.select_rows(slice(0, 6000)))
        out, peak = traced_peak(dataset.apply_scaler, pool, sp)
        assert out.features.tobytes() == min_max_scaled(
            pool.features, sp.per_column_min, sp.per_column_max).tobytes()
        # a quotient and a np.where copy beside the difference held 2.05x
        assert peak <= 1.3 * pool.features.nbytes

    @given(st.integers(1, 40), st.integers(1, 5), st.sampled_from([np.float32, np.float64]),
           st.integers(1, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_oracle_byte_for_byte(self, n, m, dtype, cells, seed):
        # float32 or float64 rows, a constant column, values beyond the
        # fitted range on both sides, any block width: each cell is the
        # float32 rounding of the float64 formula
        rng = np.random.default_rng(seed)
        fit = rng.uniform(-50, 50, (n, m)).astype(dtype)
        fit[:, 0] = fit[0, 0]
        rows = (rng.uniform(-100, 100, (n + 3, m)) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
        source = dataset.LabeledDataset._wrap(rows, rng.integers(0, 2, n + 3))
        sp = dataset.fit_scaler(dataset.LabeledDataset._wrap(fit, rng.integers(0, 2, n)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_BLOCK_CELLS", cells)
            out = dataset.apply_scaler(source, sp)
        expected = min_max_scaled(rows, sp.per_column_min, sp.per_column_max)
        assert out.features.dtype == np.float32
        assert out.features.tobytes() == expected.tobytes()
        assert not out.features[:, 0].any()
        assert out.labels.tobytes() == source.labels.tobytes()

    def test_dimension_mismatch(self):
        sp = dataset.fit_scaler(make_ds([[1.0, 2.0]], [0]))
        with pytest.raises(ValidationError, match="scaler has 2 columns, dataset has 1"):
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


class TestCounterDraws:
    """The counter-based generator against a pure-Python SplitMix64."""

    def test_known_answer(self):
        # SplitMix64's first outputs from state 0: the draws of key 0
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert oracle_draws(0, 3) == expected
        assert dataset._draws(0, 3).tolist() == expected
        assert dataset._key(0) == expected[0]

    @pytest.mark.parametrize("block", [1, 7, 1 << 12])
    @pytest.mark.parametrize("key", [0, 1, 2**64 - 1, key_of(5, 1, 2, 3)],
                             ids=["0", "1", "max", "chained"])
    @pytest.mark.parametrize("start,count", [(0, 0), (0, 1), (3, 9), (2**40, 5), (1, 4099)])
    def test_draws_match_the_oracle(self, monkeypatch, block, key, start, count):
        monkeypatch.setattr(dataset, "_DRAW_BLOCK", block)
        drawn = dataset._draws(key, count, start)
        assert drawn.dtype == np.uint64
        assert drawn.tolist() == oracle_draws(key, count, start)
        out = np.empty(count, np.uint64)
        assert dataset._draws(key, count, start, out=out) is out
        assert out.tolist() == drawn.tolist()

    def test_uniforms_are_the_top_53_bits(self):
        key = key_of(9, 0)
        expected = [(bits >> 11) * 2.0**-53 for bits in oracle_draws(key, 1000)]
        uniforms = dataset._uniforms(key, 1000)
        assert uniforms.dtype == np.float64 and uniforms.tolist() == expected
        assert 0.0 <= uniforms.min() and uniforms.max() < 1.0

    @pytest.mark.parametrize("start,count", [(0, 0), (1, 0), (0, 1), (1, 1), (0, 7), (3, 8),
                                             (2**40 + 1, 6), (5, 4099)])
    def test_normals_match_the_box_muller_oracle(self, start, count):
        # not bit for bit: np.log, np.cos and np.sin may differ from libm in
        # their last bit or two (2 ulp at most here)
        key = key_of(9, 1)
        normals = dataset._normals(key, count, start)
        assert normals.dtype == np.float64 and normals.shape == (count,)
        np.testing.assert_allclose(normals, box_muller(key, count, start), rtol=1e-14)

    def test_normals_moments_and_tails(self):
        # the mean, the variance, the share beyond 3 and the correlation of
        # each pair's two normals, each within 5 standard errors
        n = 1 << 20
        z = dataset._normals(key_of(4, 2), n)
        tail = math.erfc(3 / math.sqrt(2))
        assert abs(z.mean()) <= 5 / math.sqrt(n)
        assert abs(z.var() - 1) <= 5 * math.sqrt(2 / n)
        assert abs((np.abs(z) > 3).mean() - tail) <= 5 * math.sqrt(tail * (1 - tail) / n)
        assert abs(np.corrcoef(z[0::2], z[1::2])[0, 1]) <= 5 / math.sqrt(n / 2)

    @pytest.mark.parametrize("p", [0.0, 2**-60, 0.2, 0.5, 0.7, 1 - 2**-53])
    def test_least_draw_is_the_uniform_threshold(self, p):
        least = int(dataset._least_draw(p))
        assert (least >> 11) * 2.0**-53 >= p
        if least:
            assert ((least - 1) >> 11) * 2.0**-53 < p
        bits = np.array([0, max(least - 1, 0), least, least + 1, 2**64 - 1], np.uint64)
        assert (bits >= dataset._least_draw(p)).tolist() == [
            (int(b) >> 11) * 2.0**-53 >= p for b in bits]

    @pytest.mark.parametrize("coords", [(0,), (3, 1, 0, 7), (2**32, 2), (2**64,), (2**64 + 5, 1),
                                        (2**130 - 1, 0, 2**63)])
    def test_key_matches_the_oracle(self, coords):
        assert dataset._key(*coords) == key_of(*coords)
        assert dataset._key(*coords) < 2**64

    def test_key_takes_numpy_ints_and_rejects_negatives(self):
        assert dataset._key(np.int64(7), np.uint32(2)) == dataset._key(7, 2)
        with pytest.raises(ValidationError, match="non-negative, got -1"):
            dataset._key(3, -1)


class TestSplit:
    def test_per_row_inclusion_within_chi_square(self):
        # each class's train rows over many split seeds: every row trains
        # about as often as the class's train share says
        labels = np.array([0] * 37 + [1] * 23)
        ds = make_ds(np.arange(60.0)[:, None], labels)
        trials = 600
        hits = np.zeros(60)
        for seed in range(trials):
            train, _ = dataset.stratified_split(ds, dataset.SplitSpec(0.7, seed))
            hits[train.features[:, 0].astype(int)] += 1
        for cls, k in ((0, 26), (1, 16)):
            rows = np.flatnonzero(labels == cls)
            assert hits[rows].sum() == trials * k
            stat, low, high = inclusion_chi_square(hits[rows], trials, k)
            assert low <= stat <= high, (cls, stat)

    def test_even_split_exact(self):
        rng = np.random.default_rng(2)
        labels = np.array([0] * 50 + [1] * 50)
        ds = make_ds(rng.standard_normal((100, 2)), labels)
        train, test = dataset.stratified_split(ds, dataset.SplitSpec(0.8, 3))
        assert train.n == 80 and test.n == 20
        assert int(train.labels.sum()) == 40

    def test_rounding_within_one_sample(self):
        # 50 negatives, 49 positives at 0.8: per-class train counts 40 and 39
        rng = np.random.default_rng(3)
        labels = np.array([0] * 50 + [1] * 49)
        ds = make_ds(rng.standard_normal((99, 2)), labels)
        train, _ = dataset.stratified_split(ds, dataset.SplitSpec(0.8, 0))
        neg = int((train.labels == 0).sum())
        pos = int((train.labels == 1).sum())
        assert (neg, pos) == (40, 39)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(4)
        ds = make_ds(rng.standard_normal((60, 3)), rng.integers(0, 2, 60))
        spec = dataset.SplitSpec(0.7, 11)
        a_train, a_test = dataset.stratified_split(ds, spec)
        b_train, b_test = dataset.stratified_split(ds, spec)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.features, b_test.features)

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_splits_that_class(self, label):
        # the absent class contributes no rows to either side
        ds = make_ds(np.arange(10.0)[:, None], [label] * 10)
        train, test = dataset.stratified_split(ds, dataset.SplitSpec(0.8, 5))
        assert (train.n, test.n) == (8, 2)
        assert set(train.labels) | set(test.labels) == {label}
        rows = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert sorted(rows) == list(range(10))

    def test_class_too_small(self):
        ds = make_ds([[1.0], [2.0], [3.0]], [0, 0, 1])
        with pytest.raises(ValidationError,
                           match=r"class 1 has 1 sample\(s\); need >= 2 to stratify"):
            dataset.stratified_split(ds, dataset.SplitSpec(0.5, 0))

    def test_fraction_bounds(self):
        with pytest.raises(ValidationError):
            dataset.SplitSpec(train_fraction=1.0)
        with pytest.raises(ValidationError):
            dataset.SplitSpec(train_fraction=0.0)

    @given(
        st.integers(4, 120),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_conserves_totals(self, n, fraction, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        labels[:2] = 0
        labels[2:4] = 1
        ds = make_ds(rng.standard_normal((n, 2)), labels)
        train, test = dataset.stratified_split(ds, dataset.SplitSpec(fraction, seed))
        assert train.n + test.n == n
        assert int(train.labels.sum()) + int(test.labels.sum()) == int(ds.labels.sum())


    @pytest.mark.parametrize("cells", [1, 7 * 5, 64 * 5, 1 << 16])
    def test_a_source_read_in_blocks_fills_the_pools_of_its_loaded_dataset(self, tmp_path,
                                                                           cells):
        # a .bin file's pools are float32 and its CSV's float64, each the
        # rows that indexing the loaded dataset with the partition gives,
        # whatever the block of rows
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 2, 200)
        narrow = dataset.LabeledDataset._wrap(
            rng.standard_normal((200, 5)).astype(np.float32), labels)
        dataset.save_binary(narrow, tmp_path / "d.bin")
        dataset.save_csv(dataset.LabeledDataset(narrow.features, labels), tmp_path / "d.csv")
        spec = dataset.SplitSpec(0.7, 9)
        rows = dataset.LabeledDataset(np.arange(200.0)[:, None], labels)
        train_rows, test_rows = (part.features[:, 0].astype(int)
                                 for part in dataset.stratified_split(rows, spec))
        assert np.array_equal(np.sort(np.concatenate([train_rows, test_rows])), np.arange(200))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_BLOCK_CELLS", cells)
            with dataset.BinaryRows(tmp_path / "d.bin") as source:
                from_bin = dataset.stratified_split(source, spec)
            with dataset.spill_csv(tmp_path / "d.csv") as source:
                from_csv = dataset.stratified_split(source, spec)
        for pools, loaded in ((from_bin, narrow),
                              (from_csv, dataset.load_csv(tmp_path / "d.csv"))):
            for pool, idx in zip(pools, (train_rows, test_rows)):
                assert pool.features.dtype == loaded.features.dtype
                assert pool.features.tobytes() == loaded.features[idx].tobytes()
                assert pool.labels.tobytes() == labels[idx].astype(np.uint8).tobytes()
                assert not pool.features.flags.writeable

    def test_split_and_scale_hold_the_pools_and_one_scaled_copy(self, tmp_path):
        # split from a .bin file and scale both pools: the float32 pools,
        # then each pool's float32 scaled copy beside them, and a block; the
        # loaded matrix, its indexed copies and float64 pools held 2.63x
        n, m = 100_000, 40
        rng = np.random.default_rng(12)
        dataset.save_binary(dataset.LabeledDataset._wrap(
            rng.standard_normal((n, m)).astype(np.float32), rng.integers(0, 2, n)),
            tmp_path / "d.bin")

        def split_and_scale():
            with dataset.BinaryRows(tmp_path / "d.bin") as source:
                train, test = dataset.stratified_split(source, dataset.SplitSpec(0.8, 1))
            scaler = dataset.fit_scaler(train)
            train = dataset.apply_scaler(train, scaler)
            return train, dataset.apply_scaler(test, scaler)

        (train, test), peak = traced_peak(split_and_scale)
        assert train.features.dtype == test.features.dtype == np.float32
        assert (train.n, test.n) == (80_000, 20_000)
        assert peak <= 2.0 * n * m * 4


class TestSynthesize:
    def test_deterministic_bytes(self, tmp_path):
        spec = dataset.SyntheticSpec(n=100, m=8, informative=3, seed=5)
        a, inf_a = dataset.synthesize(spec)
        b, inf_b = dataset.synthesize(spec)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        np.testing.assert_array_equal(inf_a, inf_b)

    @pytest.mark.parametrize("cells,draw_block", [(1, 1), (7, 5), (33, 4096), (1 << 20, 3)])
    def test_identical_whatever_the_blocks(self, monkeypatch, cells, draw_block):
        # 9 columns: blocks of 1 and 3 rows start at odd cells
        spec = dataset.SyntheticSpec(n=37, m=9, informative=4, seed=12)
        ds, inf = dataset.synthesize(spec)
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(dataset, "_DRAW_BLOCK", draw_block)
        again, inf_again = dataset.synthesize(spec)
        assert again.features.tobytes() == ds.features.tobytes()
        assert again.labels.tobytes() == ds.labels.tobytes()
        assert inf_again.tolist() == inf.tolist()

    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_draws_from_the_synth_keys(self, k):
        # the informative columns are the k with the smallest draws of the key
        # (seed, 4, 1), distinct, sorted and in range; the other columns are
        # the Box-Muller normals of the key (seed, 4, 0)
        ds, inf = dataset.synthesize(dataset.SyntheticSpec(n=40, m=6, informative=k, seed=3))
        assert inf.dtype == np.int64
        assert inf.tolist() == sorted(np.argsort(oracle_draws(key_of(3, 4, 1), 6))[:k].tolist())
        assert len(set(inf.tolist())) == k and all(0 <= i < 6 for i in inf)
        plain = np.ones(6, dtype=bool)
        plain[inf] = False
        normals = np.reshape(box_muller(key_of(3, 4, 0), 40 * 6), (40, 6))
        np.testing.assert_allclose(ds.features[:, plain], normals[:, plain], rtol=1e-14)

    def test_equal_logits_ranked_by_the_tie_break_draws(self):
        # no informative column and no noise: every logit is 0, so the
        # positives are the rows with the largest draws of the key (seed, 4, 7)
        ds, _ = dataset.synthesize(dataset.SyntheticSpec(n=50, m=2, informative=0,
                                                         noise_sigma=0.0, class_balance=0.3,
                                                         seed=8))
        top = np.argsort(oracle_draws(key_of(8, 4, 7), 50))[-15:]
        assert np.flatnonzero(ds.labels).tolist() == sorted(top.tolist())

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
        X, y = np.zeros((11, 3)), np.zeros(11)
        dataset.LabeledDataset(X, y)
        X[row, 1] = np.inf
        with pytest.raises(ValidationError, match="features contain NaN or Inf"):
            dataset.LabeledDataset(X, y)
        with pytest.raises(ValidationError, match="features contain NaN or Inf"):
            dataset.LabeledDataset._wrap(X, y)

    def test_informative_bounds_validated(self):
        with pytest.raises(ValidationError):
            dataset.SyntheticSpec(n=10, m=5, informative=6)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_noise_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValidationError, match="noise_sigma must be finite and >= 0"):
            dataset.SyntheticSpec(n=10, m=5, informative=2, noise_sigma=sigma)
