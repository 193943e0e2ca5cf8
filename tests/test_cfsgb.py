import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from melemad import cfsgb, cli, dataset, gbdt
from melemad.errors import EmptySelection, ValidationError

FAST_GBDT = gbdt.GbdtConfig(n_trees=10, max_depth=2, min_samples_leaf=2)


def synth(n, m, informative, seed, noise=0.3):
    ds, info = dataset.synthesize(
        dataset.SyntheticSpec(n=n, m=m, informative=informative, noise_sigma=noise, seed=seed)
    )
    return ds, info


class TestMakeChunks:
    def test_hand_enumerated_overlap(self):
        # n=10, p=0.4 -> l=4; q=0.5 -> overlap 2, stride 2
        chunks = cfsgb.make_chunks(10, cfsgb.ChunkSpec(p=0.4, q=0.5))
        assert [(c.start, c.stop) for c in chunks] == [(0, 4), (2, 6), (4, 8), (6, 10)]
        assert [c.index for c in chunks] == [0, 1, 2, 3]

    def test_no_overlap_disjoint(self):
        chunks = cfsgb.make_chunks(10, cfsgb.ChunkSpec(p=0.3, q=0.0))
        assert [(c.start, c.stop) for c in chunks] == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert len(chunks) == -(-10 // 3)  # ceil(n/l)

    def test_count_matches_floor_formula_when_divisible(self):
        # l = 20 divides n = 100 exactly: k = floor(n/l) = 5
        chunks = cfsgb.make_chunks(100, cfsgb.ChunkSpec(p=0.20, q=0.0))
        assert len(chunks) == 5
        assert chunks[0].size == 20

    def test_degenerate_stride(self):
        # l=4, q=0.9 -> overlap rounds to 4, stride 0
        with pytest.raises(ValidationError, match="overlap q=0.9 leaves stride 0 at l=4"):
            cfsgb.make_chunks(10, cfsgb.ChunkSpec(p=0.4, q=0.9))

    def test_single_chunk_at_p_one(self):
        chunks = cfsgb.make_chunks(25, cfsgb.ChunkSpec(p=1.0, q=0.0))
        assert [(c.start, c.stop) for c in chunks] == [(0, 25)]

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError, match="n must be >= 1"):
            cfsgb.make_chunks(0, cfsgb.ChunkSpec(p=0.5, q=0.0))

    @given(st.integers(1, 500), st.floats(0.0, 1.0, exclude_min=True))
    @settings(max_examples=300, deadline=None)
    def test_no_chunk_longer_than_the_data(self, n, p):
        # p <= 1, so the chunk length round(p*n) never exceeds n
        try:
            chunks = cfsgb.make_chunks(n, cfsgb.ChunkSpec(p=p, q=0.0))
        except ValidationError as err:
            assert "rounds to zero" in str(err)
            return
        assert chunks[0].size == dataset._half_up(p * n)
        assert all(c.size <= n for c in chunks)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            cfsgb.ChunkSpec(p=0.0)
        with pytest.raises(ValidationError):
            cfsgb.ChunkSpec(q=1.0)

    @given(
        st.integers(1, 500),
        st.floats(0.02, 1.0),
        st.floats(0.0, 0.95),
    )
    @settings(max_examples=300, deadline=None)
    def test_coverage_and_overlap_structure(self, n, p, q):
        try:
            chunks = cfsgb.make_chunks(n, cfsgb.ChunkSpec(p=p, q=q))
        except ValidationError:
            return
        cover = np.zeros(n, bool)
        for c in chunks:
            assert 0 <= c.start < c.stop <= n
            cover[c.start : c.stop] = True
        assert cover.all()
        # all but the final chunk share one stride
        if len(chunks) > 2:
            strides = {b.start - a.start for a, b in zip(chunks[:-2], chunks[1:-1])}
            assert len(strides) == 1


class TestThresholdSelect:
    def test_filter_arithmetic(self):
        picked = cfsgb.threshold_select(np.array([0.5, 0.3, 0.2, 0.0, 0.0]), 0.25)
        assert picked.tolist() == [0, 1]

    def test_tau_zero_keeps_only_positive(self):
        picked = cfsgb.threshold_select(np.array([0.4, 0.0, 0.6]), 0.0)
        assert picked.tolist() == [0, 2]

    def test_inclusive_comparison(self):
        picked = cfsgb.threshold_select(np.array([0.25, 0.24]), 0.25)
        assert picked.tolist() == [0]


class TestSelectChunkFeatures:
    def test_constant_label_chunk_selects_nothing(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 4))
        labels = np.zeros(60, dtype=int)
        labels[30:] = X[30:, 0] > 0
        ds = dataset.LabeledDataset(X, labels)
        selected, _, _ = cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(p=0.5, q=0.0), FAST_GBDT, 0.0)
        # at tau 0 a chunk keeps every feature with positive importance
        constant, mixed = selected.per_chunk
        assert constant.indices.size == 0 and constant.scores.size == 0
        assert 0 in mixed.indices

    def test_informative_feature_found(self):
        ds, info = synth(300, 6, 1, seed=3, noise=0.0)
        selected, _, _ = cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(p=1.0, q=0.0), FAST_GBDT, 0.1)
        assert info[0] in selected.per_chunk[0].indices


class TestAggregateProject:
    """run_cfsgb's union of the per-chunk selections, and its projection."""

    def test_union(self):
        ds, _ = synth(300, 12, 3, seed=11)
        selected, _, report = cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(p=0.4, q=0.3), FAST_GBDT, 0.01)
        assert report.k > 1
        per_chunk = np.concatenate([sel.indices for sel in selected.per_chunk])
        np.testing.assert_array_equal(selected.global_indices, np.unique(per_chunk))

    def test_all_empty(self):
        # one label everywhere: no feature splits in any chunk, so every
        # chunk selects nothing even at tau 0 or top_k 1, and nothing is
        # projected
        X = np.random.default_rng(2).standard_normal((120, 5))
        ds = dataset.LabeledDataset(X, np.ones(120, dtype=int))
        for kwargs in ({"tau": 0.0}, {"top_k": 1}):
            with pytest.raises(EmptySelection):
                cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(p=0.3, q=0.2), FAST_GBDT, **kwargs)

    def test_single_chunk_identity(self):
        ds, _ = synth(250, 10, 3, seed=9)
        selected, _, _ = cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(p=1.0, q=0.0), FAST_GBDT, 0.01)
        (only,) = selected.per_chunk
        np.testing.assert_array_equal(selected.global_indices, only.indices)

    def test_projection_basic(self):
        ds, _ = synth(300, 12, 3, seed=10)
        selected, projected, _ = cfsgb.run_cfsgb(
            ds, cfsgb.ChunkSpec(p=0.5, q=0.2), FAST_GBDT, 0.01
        )
        assert 0 < selected.r < ds.m
        assert (projected.n, projected.m) == (ds.n, selected.r)
        np.testing.assert_array_equal(projected.features, ds.features[:, selected.global_indices])
        np.testing.assert_array_equal(projected.labels, ds.labels)

    def test_projection_all_indices_identity(self):
        # tau 0 keeps every feature that splits in some chunk; here all do
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 3))
        ds = dataset.LabeledDataset(X, (X.sum(axis=1) > 0).astype(int))
        selected, projected, _ = cfsgb.run_cfsgb(
            ds, cfsgb.ChunkSpec(p=1.0, q=0.0), FAST_GBDT, 0.0
        )
        assert selected.global_indices.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(projected.features, ds.features)

    def test_empty_selection_rejected(self):
        # top_k keeps at least one feature whenever any feature splits; a
        # fixed tau can exclude them all, and that raises naming the tau
        ds, _ = synth(200, 8, 2, seed=8)
        spec = cfsgb.ChunkSpec(p=0.5, q=0.0)
        selected, projected, _ = cfsgb.run_cfsgb(ds, spec, FAST_GBDT, top_k=1)
        assert selected.r >= 1 and projected.m == selected.r
        with pytest.raises(EmptySelection, match="threshold 1.5 excluded every feature"):
            cfsgb.run_cfsgb(ds, spec, FAST_GBDT, tau=1.5)


class TestRunCfsgb:
    def test_recovers_planted_features(self):
        ds, info = synth(600, 30, 4, seed=7)
        selected, projected, report = cfsgb.run_cfsgb(
            ds, cfsgb.ChunkSpec(p=0.4, q=0.2), FAST_GBDT, tau=0.01
        )
        hits = set(info.tolist()) & set(selected.global_indices.tolist())
        assert len(hits) >= 3
        assert projected.m == selected.r
        assert report.k == len(report.chunk_sizes)

    def test_huge_tau_raises_empty_selection(self):
        ds, _ = synth(200, 8, 2, seed=8)
        with pytest.raises(EmptySelection):
            cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(p=0.5, q=0.0), FAST_GBDT, tau=2.0)

    def test_single_chunk_reduces_to_plain_selection(self):
        ds, _ = synth(250, 10, 3, seed=9)
        tau = 0.05
        selected, _, report = cfsgb.run_cfsgb(
            ds, cfsgb.ChunkSpec(p=1.0, q=0.0), FAST_GBDT, tau
        )
        assert report.k == 1
        direct = cfsgb.threshold_select(gbdt.feature_importance(gbdt.train(ds, FAST_GBDT)), tau)
        np.testing.assert_array_equal(selected.global_indices, direct)

    def test_threshold_monotonicity(self):
        ds, _ = synth(300, 12, 3, seed=10)
        spec = cfsgb.ChunkSpec(p=0.5, q=0.2)
        low, _, _ = cfsgb.run_cfsgb(ds, spec, FAST_GBDT, tau=0.001)
        high, _, _ = cfsgb.run_cfsgb(ds, spec, FAST_GBDT, tau=0.05)
        assert set(high.global_indices.tolist()) <= set(low.global_indices.tolist())

    def test_union_dominates_per_chunk(self):
        ds, _ = synth(300, 12, 3, seed=11)
        selected, _, _ = cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(p=0.4, q=0.3), FAST_GBDT, 0.01)
        union = set(selected.global_indices.tolist())
        for sel in selected.per_chunk:
            assert set(sel.indices.tolist()) <= union
            assert np.all(sel.scores >= selected.threshold_used)

    def test_rerun_byte_identical(self, tmp_path):
        ds, _ = synth(400, 15, 3, seed=12)
        spec = cfsgb.ChunkSpec(p=0.3, q=0.2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cfsgb.save_selection(cfsgb.run_cfsgb(ds, spec, FAST_GBDT, 0.01)[0], a)
        cfsgb.save_selection(cfsgb.run_cfsgb(ds, spec, FAST_GBDT, 0.01)[0], b)
        assert a.read_bytes() == b.read_bytes()


def chunk_importances(ds, spec):
    return [
        gbdt.feature_importance(gbdt.train(ds.select_rows(slice(c.start, c.stop)), FAST_GBDT))
        for c in cfsgb.make_chunks(ds.n, spec)
    ]


class TestThresholdForTopK:
    def test_k_equals_m(self):
        ds, _ = synth(300, 6, 3, seed=13, noise=0.0)
        imps = chunk_importances(ds, cfsgb.ChunkSpec(p=0.5, q=0.0))
        tau = cfsgb.threshold_for_top_k(imps, 6)
        stat = np.max(np.stack(imps), axis=0)
        if np.all(stat > 0):
            assert tau == 0.0 or tau == pytest.approx(stat.min())
        else:
            assert tau == pytest.approx(stat[stat > 0].min()) or tau == 0.0

    def test_k_one_is_largest_statistic(self):
        ds, _ = synth(300, 6, 2, seed=14, noise=0.0)
        imps = chunk_importances(ds, cfsgb.ChunkSpec(p=0.5, q=0.0))
        tau = cfsgb.threshold_for_top_k(imps, 1)
        assert tau == pytest.approx(float(np.max(np.stack(imps))))

    def test_self_consistency(self):
        ds, _ = synth(400, 20, 5, seed=15)
        spec = cfsgb.ChunkSpec(p=0.4, q=0.2)
        imps = chunk_importances(ds, spec)
        selectable = int(np.sum(np.max(np.stack(imps), axis=0) > 0))
        for k in (3, 8, 12):
            tau = cfsgb.threshold_for_top_k(imps, k)
            selected, _, _ = cfsgb.run_cfsgb(ds, spec, FAST_GBDT, tau)
            # the guarantee caps at the number of features that ever split
            assert selected.r >= min(k, selectable)
            # top_k takes tau from the same single training pass, and wins
            # over a tau that would select nothing
            by_k, _, _ = cfsgb.run_cfsgb(ds, spec, FAST_GBDT, tau=2.0, top_k=k)
            assert by_k.threshold_used == tau
            np.testing.assert_array_equal(by_k.global_indices, selected.global_indices)

    def test_k_out_of_range_rejected(self):
        ds, _ = synth(200, 8, 2, seed=17)
        spec = cfsgb.ChunkSpec(p=0.5, q=0.0)
        imps = chunk_importances(ds, spec)
        for k in (0, 9):
            with pytest.raises(ValidationError):
                cfsgb.threshold_for_top_k(imps, k)
            with pytest.raises(ValidationError):
                cfsgb.run_cfsgb(ds, spec, FAST_GBDT, top_k=k)
        with pytest.raises(ValidationError):
            cfsgb.run_cfsgb(ds, spec, FAST_GBDT)


class TestSelectionPersistence:
    def test_round_trip(self, tmp_path):
        ds, _ = synth(200, 8, 2, seed=16)
        selected, _, _ = cfsgb.run_cfsgb(ds, cfsgb.ChunkSpec(p=0.5, q=0.0), FAST_GBDT, 0.01)
        path = tmp_path / "sel.json"
        cfsgb.save_selection(selected, path)
        back = json.loads(path.read_text(encoding="utf-8"))
        np.testing.assert_array_equal(back["global_indices"], selected.global_indices)
        assert back["threshold"] == selected.threshold_used
        assert len(back["per_chunk"]) == len(selected.per_chunk)
        for x, y in zip(back["per_chunk"], selected.per_chunk):
            assert x["chunk"] == y.chunk_index
            np.testing.assert_array_equal(x["indices"], y.indices)
            np.testing.assert_allclose(x["scores"], y.scores)


def saved_bin(tmp_path, n, m, seed):
    ds, _ = synth(n, m, 3, seed)
    path = tmp_path / "d.bin"
    dataset.save_binary(ds, path)
    return path


def selection_bytes(selected, projected, report):
    per_chunk = [(sel.chunk_index, sel.indices.tobytes(), sel.scores.tobytes())
                 for sel in selected.per_chunk]
    return (selected.global_indices.tobytes(), per_chunk, repr(selected.threshold_used),
            projected.features.dtype, projected.features.tobytes(), projected.labels.tobytes(),
            report)


class TestBinaryRows:
    """run_cfsgb on a binary file read a chunk at a time."""

    @pytest.mark.parametrize("n, p, q, block_cells, sizes", [
        (200, 0.25, 0.0, 1 << 16, [50] * 4),
        (200, 0.2, 0.2, 7, [40] * 6),
        (200, 1.0, 0.2, 1 << 16, [200]),
        (103, 0.25, 0.0, 50, [26, 26, 26, 25]),
    ], ids=["q=0", "q>0", "p=1", "short last chunk"])
    def test_selects_as_the_loaded_dataset(self, tmp_path, monkeypatch, n, p, q, block_cells,
                                           sizes):
        # nine columns: 7 cells project one row a block, 50 cells five rows
        # a block with a remainder of three
        path = saved_bin(tmp_path, n, 9, seed=n)
        spec = cfsgb.ChunkSpec(p=p, q=q)
        assert [c.size for c in cfsgb.make_chunks(n, spec)] == sizes
        expected = cfsgb.run_cfsgb(dataset.load_binary(path), spec, FAST_GBDT, top_k=4)
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block_cells)
        with dataset.BinaryRows(path) as source:
            got = cfsgb.run_cfsgb(source, spec, FAST_GBDT, top_k=4)
        assert selection_bytes(*got) == selection_bytes(*expected)

    def test_holds_a_chunk_not_the_matrix(self, tmp_path):
        n, m = 10000, 500
        path = saved_bin(tmp_path, n, m, seed=21)

        def select():
            with dataset.BinaryRows(path) as source:
                return cfsgb.run_cfsgb(source, cfsgb.ChunkSpec(), gbdt.GbdtConfig(n_trees=1),
                                       top_k=10)

        tracemalloc.start()
        try:
            _, projected, report = select()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.chunk_sizes == [2000] * 6 and projected.n == n
        # the loaded float32 matrix alone is 1.0x; a chunk of it is 0.2x
        assert peak <= 0.9 * 4 * n * m

    def test_csv_holds_a_chunk_not_the_matrix(self, tmp_path):
        # a CSV select reads its chunks from a float64 spill, as a .bin
        # select reads them from the file
        n, m = 4000, 250
        ds, _ = synth(n, m, 3, seed=22)
        path = tmp_path / "d.csv"
        dataset.save_csv(ds, path)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = cli.main(["select", "--input", str(path), "--out-dir", str(out),
                             "--n-trees", "1", "--top-k", "10"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        report = json.loads((out / "cfsgb_report.json").read_text())
        assert report["chunk_sizes"] == [800] * 6
        # the loaded float64 matrix alone is 1.0x; a chunk of it is 0.2x
        assert peak <= 0.9 * 8 * n * m

    def test_file_truncated_after_it_was_opened(self, tmp_path):
        path = saved_bin(tmp_path, 100, 9, seed=3)
        with dataset.BinaryRows(path) as source:
            path.write_bytes(path.read_bytes()[: 16 + 4 * 9 * 60])
            assert source.select_rows(slice(10, 60)).n == 50
            with pytest.raises(ValidationError,
                               match=f"ended before its {4 * 9 * 50}-byte block"):
                source.select_rows(slice(50, 100))
            with pytest.raises(ValidationError,
                               match=f"ended before its {4 * 9 * 100}-byte block"):
                source.select_columns([0, 3])

    def test_rows_are_one_contiguous_range(self, tmp_path):
        with dataset.BinaryRows(saved_bin(tmp_path, 20, 3, seed=4)) as source:
            with pytest.raises(ValidationError, match="got step 2"):
                source.select_rows(slice(0, 10, 2))
