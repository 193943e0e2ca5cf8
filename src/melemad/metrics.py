"""Binary-classification metrics from confusion counts, plus ROC/AUC.

Zero-denominator conventions: precision, recall, F1 and MCC all return 0.0
when their denominator vanishes, so a report is always fully populated.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    mcc: float
    auc: float
    confusion: ConfusionMatrix
    roc_points: np.ndarray  # (k, 2) columns fpr, tpr


def _check_lengths(probs, labels):
    probs = np.asarray(probs, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if probs.shape[0] != labels.shape[0]:
        raise ValidationError(f"{probs.shape[0]} probs vs {labels.shape[0]} labels")
    return probs, labels


def confusion(probs, labels, threshold: float = 0.5) -> ConfusionMatrix:
    """Tally counts with 'predicted positive' meaning prob >= threshold."""
    probs, labels = _check_lengths(probs, labels)
    pred = probs >= threshold
    actual = labels == 1
    tp = int(np.sum(pred & actual))
    tn = int(np.sum(~pred & ~actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def scalar_metrics(cm: ConfusionMatrix) -> tuple[float, float, float, float, float]:
    """(accuracy, precision, recall, f1, mcc) from raw counts."""
    if cm.total < 1:
        raise ValidationError("confusion matrix has zero samples")
    tp, tn, fp, fn = cm.tp, cm.tn, cm.fp, cm.fn
    accuracy = (tp + tn) / cm.total
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(denom) if denom > 0 else 0.0
    return accuracy, precision, recall, f1, mcc


def roc_curve(probs, labels) -> np.ndarray:
    """(fpr, tpr) points at every distinct score, descending, ties grouped.

    Starts at (0,0) and ends at (1,1); grouped ties are what make the
    trapezoidal area equal the pairwise ranking statistic exactly.
    """
    probs, labels = _check_lengths(probs, labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("ROC needs both classes present")

    order = np.argsort(-probs, kind="stable")
    sorted_scores = probs[order]
    sorted_pos = (labels[order] == 1).astype(np.int64)

    cum_tp = np.cumsum(sorted_pos)
    cum_fp = np.cumsum(1 - sorted_pos)
    # keep only the last index of each tied score block
    last_of_block = np.flatnonzero(np.diff(sorted_scores) != 0)
    block_ends = np.concatenate([last_of_block, [probs.shape[0] - 1]])

    fpr = np.concatenate([[0.0], cum_fp[block_ends] / n_neg])
    tpr = np.concatenate([[0.0], cum_tp[block_ends] / n_pos])
    return np.column_stack([fpr, tpr])


def auc(roc: np.ndarray) -> float:
    """Trapezoidal area under an (fpr, tpr) curve."""
    roc = np.asarray(roc, dtype=np.float64)
    return float(np.trapezoid(roc[:, 1], roc[:, 0]))


def check_threshold(threshold: float) -> None:
    """Raise ValidationError unless threshold is in [0, 1]; NaN is not."""
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must be in [0, 1], got {threshold}")


def compute_report(probs, labels, threshold: float = 0.5) -> MetricsReport:
    check_threshold(threshold)
    cm = confusion(probs, labels, threshold)
    accuracy, precision, recall, f1, mcc = scalar_metrics(cm)
    roc = roc_curve(probs, labels)
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        mcc=mcc,
        auc=auc(roc),
        confusion=cm,
        roc_points=roc,
    )


def report_to_json(report: MetricsReport) -> str:
    payload = asdict(report)
    del payload["roc_points"]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save_roc_csv(report: MetricsReport, path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in report.roc_points:
            writer.writerow([repr(float(fpr)), repr(float(tpr))])
