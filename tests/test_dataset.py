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
        back = dataset.load_csv(path)
        np.testing.assert_allclose(back.features, ds.features, atol=1e-6)
        np.testing.assert_array_equal(back.labels, ds.labels)


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

    def test_dimension_mismatch(self):
        sp = dataset.fit_scaler(make_ds([[1.0, 2.0]], [0]))
        with pytest.raises(DimensionMismatch):
            dataset.apply_scaler(make_ds([[1.0]], [0]), sp)

    def test_persistence_round_trip(self, tmp_path):
        sp = dataset.ScalerParams(np.array([0.0, -1.0]), np.array([2.0, 4.0]))
        path = tmp_path / "scaler.json"
        dataset.save_scaler(sp, path)
        back = dataset.load_scaler(path)
        np.testing.assert_array_equal(back.per_column_min, sp.per_column_min)
        np.testing.assert_array_equal(back.per_column_max, sp.per_column_max)

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

    def test_informative_bounds_validated(self):
        with pytest.raises(ValidationError):
            dataset.SyntheticSpec(n=10, m=5, informative=6)
