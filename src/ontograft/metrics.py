"""Multi-label precision/recall/F1 and ROC-AUC under the four averaging
schemes (samples, micro, macro, weighted) from arrays of truth and scores,
and the report files.  ``binarize`` is the one acceptance rule.

Zero-division convention throughout: a precision, recall, or F1 whose
denominator is 0 evaluates to 0.  Per-class AUC is undefined for single-class
columns; those are excluded from macro/weighted averages and counted
(``roc_auc_detail``, ``MetricReport.auc_excluded``).

AUC is the Mann-Whitney statistic, from the midrank sum of each slice's
positives, for every column (macro, weighted), row (samples) or the
flattened matrix (micro) at once.  Equal scores form a tie run and share
the mean of its ranks, so a tie counts half; -0.0 ties with 0.0.  NaN
equals nothing: NaN scores rank after the slice's finite ones in input
order, each a run of its own, so the AUC stays a number.

Each axis sorts its scores once, and each finite positive's tie run is
found by bisection in its slice's sorted scores, so only the positives are
ranked.  Midranks are integers or halves, so every rank sum below 2**52 is
exact in float64 whatever the summation order, and the AUCs equal those of
a per-element loop bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ._io import atomic_write_text
from .dataset import LabelIndex

AVERAGINGS = ("samples", "micro", "macro", "weighted")


class MetricsError(Exception):
    pass


def binarize(y_score: np.ndarray, threshold: float) -> np.ndarray:
    """Elementwise score >= threshold (ties count as positive)."""
    return (np.asarray(y_score) >= threshold).astype(np.int8)


def _prf_from_counts(tp, fp, fn):
    tp = np.asarray(tp, dtype=np.float64)
    fp = np.asarray(fp, dtype=np.float64)
    fn = np.asarray(fn, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(
            precision + recall > 0,
            2 * precision * recall / (precision + recall),
            0.0,
        )
    return precision, recall, f1


def _confusion(t: np.ndarray, p: np.ndarray, axis: int | None):
    """(true positives, false positives, false negatives) of boolean truth
    and prediction, summed along axis (None: the whole matrix)."""
    return (t & p).sum(axis=axis), (~t & p).sum(axis=axis), (t & ~p).sum(axis=axis)


def _check_shapes(y_true: np.ndarray, y_other: np.ndarray):
    y_true = np.asarray(y_true)
    y_other = np.asarray(y_other)
    if y_true.ndim != 2 or y_true.shape != y_other.shape:
        raise MetricsError(
            f"shape mismatch: {y_true.shape} vs {y_other.shape} (need equal 2-D)"
        )
    if y_true.size == 0:
        raise MetricsError(f"empty {y_true.shape} matrix: need at least one row and one label")
    return y_true, y_other


# Which axis each averaging scores along: one F1 and AUC per column for
# macro and weighted, one per row for samples, one over the flattened matrix
# for micro.
_AXIS = {"micro": None, "samples": 1, "macro": 0, "weighted": 0}


def _left_fold_mean(values: np.ndarray) -> float:
    # Sequential sum, not numpy's pairwise reduction: output must equal a
    # plain per-definition loop bit for bit.
    return sum(values.tolist()) / values.size


def _average_prf(support: np.ndarray, averaging: str, prec, rec, f1):
    """(precision, recall, f1) averaged from the values along the
    averaging's axis; ``support`` is each column's positive count."""
    if averaging == "micro":
        return float(prec), float(rec), float(f1)
    if averaging == "weighted":
        weights = support.astype(np.float64)
        total = weights.sum()
        if total == 0:
            return 0.0, 0.0, 0.0
        return tuple(float(sum((v * weights).tolist()) / total) for v in (prec, rec, f1))
    # macro: per column, samples: per row, then their mean
    return _left_fold_mean(prec), _left_fold_mean(rec), _left_fold_mean(f1)


def prf(
    y_true: np.ndarray, y_pred: np.ndarray, averaging: str
) -> tuple[float, float, float]:
    """(precision, recall, f1) under the requested averaging scheme."""
    y_true, y_pred = _check_shapes(y_true, y_pred)
    if averaging not in AVERAGINGS:
        raise MetricsError(f"unknown averaging {averaging!r}")
    t = y_true.astype(bool)
    values = _prf_from_counts(*_confusion(t, y_pred.astype(bool), _AXIS[averaging]))
    return _average_prf(t.sum(axis=0), averaging, *values)


def _count_leading(ordered, base, n, value, below) -> np.ndarray:
    """For each probe, how many leading entries of its slice (the n entries
    of the flat sorted ``ordered`` from ``base``) satisfy below(entry,
    value): a bisection over all probes at once, one gather per round.
    NaN sorts last and fails both ``<`` and ``<=``."""
    count = np.zeros(value.shape, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        probe = count + step
        hit = (probe <= n) & below(ordered[base + np.minimum(probe, n) - 1], value)
        count = np.where(hit, probe, count)
        step >>= 1
    return count


def _rank_sums(finite_pos: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per slice, the midrank sum of the finite positives: each one's tie
    run [left, right) found by bisection in its slice's sorted scores, so
    that only the positives are ranked."""
    m, n = s.shape
    ordered = np.sort(s, axis=-1).reshape(-1)
    rows, cols = np.nonzero(finite_pos)
    value = s[rows, cols]
    base = rows * n
    twice_midrank = (
        _count_leading(ordered, base, n, value, np.less)
        + _count_leading(ordered, base, n, value, np.less_equal)
        + 1
    )
    return np.bincount(rows, weights=twice_midrank, minlength=m) / 2.0


def _binary_aucs(t: np.ndarray, s: np.ndarray, axis: int | None):
    """Mann-Whitney AUC, ties counted half, of every slice along axis (None:
    the flattened matrix, as a 1-element array), and which of them are
    defined (both classes present)."""
    if axis is None:
        t, s = t.reshape(1, -1), s.reshape(1, -1)
    elif axis == 0:
        t, s = t.T, np.ascontiguousarray(s.T)
    n_pos = t.sum(axis=-1)
    n_neg = t.shape[-1] - n_pos
    nan = np.isnan(s)
    rank_sum = _rank_sums(t & ~nan, s)
    nan_pos = t & nan
    if nan_pos.any():
        # NaN ranks after the slice's finite scores, in input order
        place = np.cumsum(nan, axis=-1)
        rank_sum += np.where(nan_pos, t.shape[-1] - place[:, -1:] + place, 0).sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return auc, (n_pos > 0) & (n_neg > 0)


def _average_auc(support: np.ndarray, averaging: str, auc: np.ndarray, defined: np.ndarray):
    """(average of the defined AUCs, number of undefined ones excluded);
    ``support`` is each column's positive count."""
    excluded = int(defined.size - defined.sum())
    valid = auc[defined]
    if valid.size == 0:
        return 0.0, excluded
    if averaging == "weighted":
        weights = support[defined].astype(np.float64)
        return float(sum((valid * weights).tolist()) / weights.sum()), excluded
    return float(np.mean(valid)), excluded


def roc_auc_detail(
    y_true: np.ndarray, y_score: np.ndarray, averaging: str
) -> tuple[float, int]:
    """(auc, number of undefined columns/rows excluded)."""
    y_true, y_score = _check_shapes(y_true, y_score)
    if averaging not in AVERAGINGS:
        raise MetricsError(f"unknown averaging {averaging!r}")
    t = y_true.astype(bool)
    aucs = _binary_aucs(t, y_score.astype(np.float64), _AXIS[averaging])
    return _average_auc(t.sum(axis=0), averaging, *aucs)


@dataclass
class MetricReport:
    """averaging -> {f1, precision, recall, roc_auc}, plus AUC exclusion
    counts per averaging."""

    threshold: float
    values: dict[str, dict[str, float]] = field(default_factory=dict)
    auc_excluded: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "threshold": self.threshold,
            "metrics": self.values,
            "auc_excluded_columns": self.auc_excluded,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def compute_report(
    y_true: np.ndarray, y_score: np.ndarray, threshold: float = 0.5
) -> MetricReport:
    y_true, y_score = _check_shapes(y_true, y_score)
    t = y_true.astype(bool)
    p = binarize(y_score, threshold).astype(bool)
    s = y_score.astype(np.float64)
    support = t.sum(axis=0)
    # one count and one ranking per axis: macro and weighted share the columns'
    per_axis = {
        axis: (_prf_from_counts(*_confusion(t, p, axis)), _binary_aucs(t, s, axis))
        for axis in (None, 1, 0)
    }
    report = MetricReport(threshold=threshold)
    for averaging in AVERAGINGS:
        values, aucs = per_axis[_AXIS[averaging]]
        precision, recall, f1 = _average_prf(support, averaging, *values)
        auc, excluded = _average_auc(support, averaging, *aucs)
        report.values[averaging] = {
            "f1": f1,
            "precision": precision,
            "recall": recall,
            "roc_auc": auc,
        }
        report.auc_excluded[averaging] = excluded
    return report


def per_class_f1_rows(
    y_true: np.ndarray, y_pred: np.ndarray, labels: LabelIndex
) -> list[tuple[str, int, float]]:
    y_true, y_pred = _check_shapes(y_true, y_pred)
    if len(labels) != y_true.shape[1]:
        raise MetricsError(f"{len(labels)} labels for {y_true.shape[1]} columns")
    t = y_true.astype(bool)
    _, _, f1 = _prf_from_counts(*_confusion(t, y_pred.astype(bool), 0))
    support = t.sum(axis=0)
    return [
        (cid, int(support[j]), float(f1[j])) for j, cid in enumerate(labels)
    ]


def per_molecule_f1_rows(y_true: np.ndarray, y_pred: np.ndarray) -> list[tuple[int, float]]:
    y_true, y_pred = _check_shapes(y_true, y_pred)
    _, _, f1 = _prf_from_counts(*_confusion(y_true.astype(bool), y_pred.astype(bool), 1))
    return [(i, float(f1[i])) for i in range(y_true.shape[0])]


def write_report(report: MetricReport, class_rows, molecule_rows, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "report.json"), report.to_json())
    lines = ["class_id,support,f1"]
    lines += [f"{cid},{support},{f1:.10g}" for cid, support, f1 in class_rows]
    atomic_write_text(os.path.join(out_dir, "per_class_f1.csv"), "\n".join(lines) + "\n")
    lines = ["row_index,f1"]
    lines += [f"{idx},{f1:.10g}" for idx, f1 in molecule_rows]
    atomic_write_text(os.path.join(out_dir, "per_molecule_f1.csv"), "\n".join(lines) + "\n")
