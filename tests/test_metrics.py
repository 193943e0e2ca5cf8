import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from melemad import metrics
from melemad.errors import ValidationError

from oracles import brute_scalars, mann_whitney


# independent oracle: a plain-python recount (oracles holds the shared ones)

def brute_confusion(probs, labels, threshold):
    tp = tn = fp = fn = 0
    for p, y in zip(probs, labels):
        pred = p >= threshold
        if pred and y == 1:
            tp += 1
        elif pred and y == 0:
            fp += 1
        elif not pred and y == 1:
            fn += 1
        else:
            tn += 1
    return tp, tn, fp, fn


class TestConfusion:
    def test_basic(self):
        cm = metrics.confusion([0.9, 0.2], [1, 0], 0.5)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 0, 0)

    def test_threshold_zero_all_positive(self):
        cm = metrics.confusion([0.0, 0.3, 0.9], [0, 0, 1], 0.0)
        assert cm.fp == 2 and cm.tp == 1 and cm.tn == 0

    def test_threshold_one_all_negative(self):
        cm = metrics.confusion([0.4, 0.99], [1, 0], 1.0)
        assert cm.tp == 0 and cm.fn == 1 and cm.tn == 1

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="1 probs vs 2 labels"):
            metrics.confusion([0.5], [1, 0], 0.5)


class TestScalarMetrics:
    def test_perfect_classifier(self):
        cm = metrics.ConfusionMatrix(tp=50, tn=50, fp=0, fn=0)
        assert metrics.scalar_metrics(cm) == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_hand_worked_values(self):
        # tp=40 tn=40 fp=10 fn=10: every rate 0.8, mcc = 1500/2500
        cm = metrics.ConfusionMatrix(tp=40, tn=40, fp=10, fn=10)
        acc, prec, rec, f1, mcc = metrics.scalar_metrics(cm)
        assert acc == prec == rec == pytest.approx(0.8)
        assert f1 == pytest.approx(0.8)
        assert mcc == pytest.approx(0.6)

    def test_zero_denominator_conventions(self):
        acc, prec, rec, f1, mcc = metrics.scalar_metrics(
            metrics.ConfusionMatrix(tp=0, tn=5, fp=0, fn=5)
        )
        assert prec == 0.0 and f1 == 0.0 and mcc == 0.0
        assert rec == 0.0

    def test_empty_confusion(self):
        with pytest.raises(ValidationError, match="confusion matrix has zero samples"):
            metrics.scalar_metrics(metrics.ConfusionMatrix(0, 0, 0, 0))

    @given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, tp, tn, fp, fn):
        if tp + tn + fp + fn == 0:
            return
        got = metrics.scalar_metrics(metrics.ConfusionMatrix(tp, tn, fp, fn))
        expected = brute_scalars(tp, tn, fp, fn)
        assert got == pytest.approx(expected, abs=1e-12)


class TestRoc:
    def test_hand_enumerated_curve(self):
        roc = metrics.roc_curve([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0])
        expected = [(0, 0), (0, 0.5), (0.5, 0.5), (0.5, 1), (1, 1)]
        np.testing.assert_allclose(roc, expected)
        assert metrics.auc(roc) == pytest.approx(0.75)

    def test_perfect_separation_passes_through_corner(self):
        roc = metrics.roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert any(np.allclose(pt, (0.0, 1.0)) for pt in roc)
        assert metrics.auc(roc) == pytest.approx(1.0)

    def test_all_scores_tied(self):
        roc = metrics.roc_curve([0.5, 0.5, 0.5], [1, 0, 1])
        np.testing.assert_allclose(roc, [(0, 0), (1, 1)])
        assert metrics.auc(roc) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="ROC needs both classes present"):
            metrics.roc_curve([0.1, 0.9], [1, 1])

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        probs = rng.random(4000)
        labels = rng.integers(0, 2, 4000)
        value = metrics.auc(metrics.roc_curve(probs, labels))
        assert abs(value - 0.5) < 0.05

    def test_curve_monotone_and_anchored(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 2, n)
            labels[0], labels[1] = 0, 1
            probs = np.round(rng.random(n), 1)  # force ties
            roc = metrics.roc_curve(probs, labels)
            assert tuple(roc[0]) == (0.0, 0.0) and tuple(roc[-1]) == (1.0, 1.0)
            assert np.all(np.diff(roc[:, 0]) >= 0) and np.all(np.diff(roc[:, 1]) >= 0)


class TestAucEquivalence:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_trapezoid_equals_pairwise_statistic(self, seed, with_ties):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 14))
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        probs = rng.random(n)
        if with_ties:
            probs = np.round(probs, 1)
        got = metrics.auc(metrics.roc_curve(probs, labels))
        assert got == pytest.approx(mann_whitney(probs, labels), abs=1e-9)


class TestLabelSwapAntisymmetry:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_negating_scores_and_labels_preserves_acc_and_mcc(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        probs = rng.random(n)
        base = metrics.scalar_metrics(metrics.confusion(probs, labels, 0.5))
        # prob >= t maps to (1 - prob) <= 1 - t; use a strict mirror threshold
        # epsilon below to keep boundary samples on the same side
        flipped = metrics.scalar_metrics(
            metrics.confusion(1.0 - probs + 1e-12, 1 - labels, 0.5 + 1e-12)
        )
        assert flipped[0] == pytest.approx(base[0], abs=1e-9)  # accuracy
        assert flipped[4] == pytest.approx(base[4], abs=1e-9)  # mcc

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_label_swap_negates_mcc(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        probs = rng.random(n)
        mcc = metrics.scalar_metrics(metrics.confusion(probs, labels, 0.5))[4]
        swapped = metrics.scalar_metrics(metrics.confusion(probs, 1 - labels, 0.5))[4]
        assert swapped == pytest.approx(-mcc, abs=1e-9)


class TestReport:
    def test_report_ranges_and_schema(self):
        rng = np.random.default_rng(3)
        probs = rng.random(50)
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        report = metrics.compute_report(probs, labels)
        for value in (report.accuracy, report.precision, report.recall, report.f1, report.auc):
            assert 0.0 <= value <= 1.0
        assert -1.0 <= report.mcc <= 1.0
        assert report.confusion.total == 50
        text = metrics.report_to_json(report)
        for key in ("accuracy", "precision", "recall", "f1", "mcc", "auc", "confusion"):
            assert f'"{key}"' in text

    def test_roc_csv(self, tmp_path):
        report = metrics.compute_report([0.9, 0.1], [1, 0])
        path = tmp_path / "roc.csv"
        metrics.save_roc_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr"
        assert lines[1].startswith("0.0,")
        assert lines[-1] == "1.0,1.0"

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 2.0])
    def test_rejects_a_threshold_outside_the_unit_interval(self, threshold):
        with pytest.raises(ValidationError, match="threshold must be in"):
            metrics.compute_report([0.4, 0.6], [0, 1], threshold)
