"""Chunk-wise feature selection driven by gradient-boosting importance.

The dataset is cut into row chunks of size p with overlap q, a GBDT is
trained per chunk, features whose normalized importance clears the
threshold in any chunk are kept, and the dataset is projected onto their
union. The threshold is either a fixed tau or derived from a top-k target;
both select from the same single training pass over the chunks. Chunks are
trained one after another and reduced in chunk order. The data may be a
loaded dataset or a BinaryRows, of a binary file or of a CSV's spill
(dataset.spill_csv), which holds one chunk at a time: selection reads its
rows only through select_rows and select_columns.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gbdt
from .config import ChunkSpec
from .dataset import BinaryRows, LabeledDataset, _half_up
from .errors import EmptySelection, ValidationError


@dataclass(frozen=True)
class Chunk:
    index: int
    start: int
    stop: int  # exclusive

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ChunkSelection:
    chunk_index: int
    indices: np.ndarray
    scores: np.ndarray  # importance of each selected index in this chunk


@dataclass(frozen=True)
class SelectedFeatureSet:
    global_indices: np.ndarray
    per_chunk: list[ChunkSelection]
    threshold_used: float

    @property
    def r(self) -> int:
        return self.global_indices.shape[0]


@dataclass
class CfsgbReport:
    k: int
    chunk_sizes: list[int]
    chunk_selected_counts: list[int]
    r: int


def make_chunks(n: int, spec: ChunkSpec) -> list[Chunk]:
    """Chunk rows [0, n) into length-l windows, l = round(p*n), stepping by
    l - round(q*l); the last window stops at n. Every row is covered, and
    there is always at least one chunk."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    l = _half_up(spec.p * n)
    if l < 1:
        raise ValidationError(f"chunk size p={spec.p} rounds to zero samples at n={n}")

    overlap = _half_up(spec.q * l)
    stride = l - overlap
    if stride < 1:
        raise ValidationError(f"overlap q={spec.q} leaves stride {stride} at l={l}")
    chunks = []
    start = 0
    index = 0
    while True:
        stop = min(start + l, n)
        chunks.append(Chunk(index, start, stop))
        if stop == n:
            return chunks
        start += stride
        index += 1


def threshold_select(importances: np.ndarray, tau: float) -> np.ndarray:
    """Indices whose importance clears tau (inclusive); zero scores never pass."""
    imp = np.asarray(importances)
    return np.flatnonzero((imp >= tau) & (imp > 0))


def run_cfsgb(
    ds: LabeledDataset | BinaryRows,
    spec: ChunkSpec,
    cfg: gbdt.GbdtConfig,
    tau: float | None = None,
    top_k: int | None = None,
) -> tuple[SelectedFeatureSet, LabeledDataset, CfsgbReport]:
    """Full selection pass: chunk, score, threshold, union, project.

    Each chunk is trained once. With top_k set, tau is taken from those same
    importances by threshold_for_top_k, and any tau given is ignored.

    ds is used through n, m, select_rows of a chunk's slice and
    select_columns only, so a LabeledDataset and a BinaryRows take this one
    path: from a BinaryRows, each chunk is read, checked and trained, then
    dropped, and the projection is a second pass over the file.
    """
    if top_k is None and tau is None:
        raise ValidationError("selection needs either tau or top_k")
    if top_k is not None and not 1 <= top_k <= ds.m:
        raise ValidationError(f"top_k must be in [1, {ds.m}]")
    chunks = make_chunks(ds.n, spec)
    importances = [
        gbdt.feature_importance(gbdt.train(ds.select_rows(slice(c.start, c.stop)), cfg))
        for c in chunks
    ]
    if top_k is not None:
        tau = threshold_for_top_k(importances, top_k)
    per_chunk = []
    for chunk, imp in zip(chunks, importances):
        idx = threshold_select(imp, tau)
        per_chunk.append(ChunkSelection(chunk.index, idx, imp[idx]))
    # a mask, not np.unique, whose first call imports numpy.ma
    chosen = np.zeros(ds.m, dtype=bool)
    for sel in per_chunk:
        chosen[sel.indices] = True
    union = np.flatnonzero(chosen)
    if union.size == 0:
        raise EmptySelection(f"threshold {tau} excluded every feature in every chunk")
    selected = SelectedFeatureSet(union, per_chunk, tau)
    projected = ds.select_columns(union)
    report = CfsgbReport(
        k=len(chunks),
        chunk_sizes=[c.size for c in chunks],
        chunk_selected_counts=[sel.indices.shape[0] for sel in per_chunk],
        r=selected.r,
    )
    return selected, projected, report


def threshold_for_top_k(importances: list[np.ndarray], k_features: int) -> float:
    """Largest tau keeping at least k_features in the union of the per-chunk
    selections made from these importances.

    A feature joins the union if any chunk clears tau, so the governing
    statistic is its maximum importance across chunks; tau is the k-th
    largest of those maxima. If fewer than k_features ever split, falls back
    to the smallest positive maximum (selecting everything selectable).
    """
    stat = np.max(np.stack(importances), axis=0)
    if not 1 <= k_features <= stat.shape[0]:
        raise ValidationError(f"k_features must be in [1, {stat.shape[0]}]")
    ranked = np.sort(stat)[::-1]
    value = ranked[k_features - 1]
    if value > 0:
        return float(value)
    positive = stat[stat > 0]
    return float(positive.min()) if positive.size else 0.0


def save_selection(selected: SelectedFeatureSet, path) -> None:
    payload = {
        "threshold": selected.threshold_used,
        "global_indices": [int(i) for i in selected.global_indices],
        "per_chunk": [
            {
                "chunk": sel.chunk_index,
                "indices": [int(i) for i in sel.indices],
                "scores": [float(s) for s in sel.scores],
            }
            for sel in selected.per_chunk
        ],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")

