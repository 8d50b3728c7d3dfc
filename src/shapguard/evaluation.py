"""Detection metrics, robustness metrics, and attribution rank analysis.

Positive class = adversarial throughout. Threshold metrics come straight
from confusion counts; ROC AUC is trapezoidal over the score sweep and
average precision is the step sum AP = sum_n (R_n - R_{n-1}) * P_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    """Counts with adversarial as the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float | None
    average_precision: float | None
    specificity: float
    npv: float
    fpr: float
    fnr: float
    counts: ConfusionCounts

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "roc_auc": self.roc_auc,
            "average_precision": self.average_precision,
            "specificity": self.specificity,
            "npv": self.npv,
            "fpr": self.fpr,
            "fnr": self.fnr,
            "tp": self.counts.tp,
            "tn": self.counts.tn,
            "fp": self.counts.fp,
            "fn": self.counts.fn,
        }


@dataclass
class RobustnessReport:
    ca: float
    aa: float
    asr: float

    def to_dict(self) -> dict:
        return {"ca": self.ca, "aa": self.aa, "asr": self.asr}


@dataclass
class RankTable:
    """Per-feature mean |SHAP|, ranks per condition, shifts per attack."""

    feature_names: tuple[str, ...]
    values: dict[str, np.ndarray]        # condition -> mean |SHAP|
    values_norm: dict[str, np.ndarray]   # condition -> value / max(value)
    ranks: dict[str, np.ndarray]         # condition -> 1..M
    shifts: dict[str, np.ndarray]        # attack -> |rank_clean - rank_attack|
    clean_condition: str = "clean"

    def conditions(self) -> list[str]:
        return list(self.values.keys())

    def rows(self) -> list[dict]:
        """Table rows sorted by clean rank (most important first)."""
        conds = self.conditions()
        attacks = [c for c in conds if c != self.clean_condition]
        order = np.argsort(self.ranks[self.clean_condition])
        out = []
        for j in order:
            row: dict = {"feature": self.feature_names[j], "index": int(j)}
            for c in conds:
                row[f"shap_{c}"] = float(self.values[c][j])
            for c in conds:
                row[f"shap_norm_{c}"] = float(self.values_norm[c][j])
            for c in conds:
                row[f"rank_{c}"] = int(self.ranks[c][j])
            for c in attacks:
                row[f"shift_{c}"] = int(self.shifts[c][j])
            out.append(row)
        return out


def confusion(
    true_labels: Sequence[int] | np.ndarray, predicted_labels: Sequence[int] | np.ndarray
) -> ConfusionCounts:
    """Counts by definition; labels are clean=0, adversarial=1."""
    t = np.asarray(true_labels)
    p = np.asarray(predicted_labels)
    if t.size == 0:
        raise ValueError("empty inputs")
    if t.shape != p.shape:
        raise ValueError(f"label length mismatch: {t.shape} vs {p.shape}")
    if not (np.isin(t, (0, 1)).all() and np.isin(p, (0, 1)).all()):
        raise ValueError("labels must be 0 (clean) or 1 (adversarial)")
    return ConfusionCounts(
        tp=int(np.sum((t == 1) & (p == 1))),
        tn=int(np.sum((t == 0) & (p == 0))),
        fp=int(np.sum((t == 0) & (p == 1))),
        fn=int(np.sum((t == 1) & (p == 0))),
    )


def _score_sweep(scores: np.ndarray, truths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) at each distinct descending score threshold."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = truths[order]
    cut = np.append(np.flatnonzero(np.diff(s)), s.size - 1)
    tp = np.cumsum(t)[cut]
    fp = (cut + 1) - tp
    return tp.astype(np.float64), fp.astype(np.float64)


def roc_auc(scores: np.ndarray, truths: np.ndarray) -> float | None:
    """Trapezoidal area under TPR(FPR); None if truths are single-class."""
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths)
    pos = int(truths.sum())
    neg = truths.size - pos
    if pos == 0 or neg == 0:
        return None
    tp, fp = _score_sweep(scores, truths)
    tpr = np.concatenate(([0.0], tp / pos))
    fpr = np.concatenate(([0.0], fp / neg))
    return float(np.trapezoid(tpr, fpr))


def average_precision(scores: np.ndarray, truths: np.ndarray) -> float | None:
    """AP = sum_n (R_n - R_{n-1}) * P_n over descending score thresholds."""
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths)
    pos = int(truths.sum())
    if pos == 0 or pos == truths.size:
        return None
    tp, fp = _score_sweep(scores, truths)
    recall = tp / pos
    precision = tp / (tp + fp)
    prev = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev) * precision))


def classification_metrics(
    counts: ConfusionCounts,
    scores: np.ndarray | None = None,
    truths: np.ndarray | None = None,
) -> MetricsReport:
    """Threshold metrics from counts plus score-based AUC/AP when given.

    Zero-denominator conventions: precision = 0 when tp+fp = 0, recall = 0
    when tp+fn = 0, f1 = 0 when precision+recall = 0 (and likewise 0 for
    the other ratios). AUC/AP are None for single-class truths.
    """
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    if counts.total == 0:
        raise ValueError("empty confusion counts")

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    auc = ap = None
    if scores is not None and truths is not None:
        scores = np.asarray(scores, dtype=np.float64)
        truths = np.asarray(truths)
        if scores.shape != truths.shape:
            raise ValueError("scores/truths length mismatch")
        auc = roc_auc(scores, truths)
        ap = average_precision(scores, truths)
    return MetricsReport(
        accuracy=(tp + tn) / counts.total,
        precision=precision,
        recall=recall,
        f1=(
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        ),
        roc_auc=auc,
        average_precision=ap,
        specificity=ratio(tn, tn + fp),
        npv=ratio(tn, tn + fn),
        fpr=ratio(fp, fp + tn),
        fnr=ratio(fn, fn + tp),
        counts=counts,
    )


def robustness_metrics(
    clean_results: Sequence[bool] | np.ndarray,
    adv_results: Sequence[bool] | np.ndarray,
) -> RobustnessReport:
    """CA/AA from correctness flags; ASR = misclassified adv / total adv."""
    clean = np.asarray(clean_results, dtype=bool)
    adv = np.asarray(adv_results, dtype=bool)
    if clean.size == 0 or adv.size == 0:
        raise ValueError("empty correctness flags")
    return RobustnessReport(
        ca=float(np.count_nonzero(clean) / clean.size),
        aa=float(np.count_nonzero(adv) / adv.size),
        asr=float(np.count_nonzero(~adv) / adv.size),
    )


def importance(Z: np.ndarray) -> np.ndarray:
    """Per-feature mean |SHAP| over a fingerprint matrix."""
    mat = np.asarray(Z, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError("need a non-empty fingerprint matrix")
    return np.abs(mat).mean(axis=0)


def rank_features(importance_vec: np.ndarray) -> np.ndarray:
    """Descending-importance ranks 1..M, ties broken by feature index."""
    imp = np.asarray(importance_vec, dtype=np.float64)
    if imp.ndim != 1:
        raise ValueError("importance must be a vector")
    order = np.lexsort((np.arange(imp.size), -imp))
    ranks = np.empty(imp.size, dtype=np.int64)
    ranks[order] = np.arange(1, imp.size + 1)
    return ranks


def rank_shift(clean_ranks: np.ndarray, attack_ranks: np.ndarray) -> np.ndarray:
    c = np.asarray(clean_ranks)
    a = np.asarray(attack_ranks)
    if c.shape != a.shape:
        raise ValueError("rank vectors must have equal length")
    return np.abs(c - a)


def build_rank_table(
    feature_names: Sequence[str],
    importance_by_condition: dict[str, np.ndarray],
    clean_condition: str = "clean",
) -> RankTable:
    if clean_condition not in importance_by_condition:
        raise ValueError(f"missing clean condition {clean_condition!r}")
    values = {c: np.asarray(v, dtype=np.float64) for c, v in importance_by_condition.items()}
    m = len(feature_names)
    for c, v in values.items():
        if v.shape != (m,):
            raise ValueError(f"condition {c!r} importance length != {m}")
    values_norm = {
        c: (v / v.max() if v.max() > 0 else v.copy()) for c, v in values.items()
    }
    ranks = {c: rank_features(v) for c, v in values.items()}
    shifts = {
        c: rank_shift(ranks[clean_condition], ranks[c])
        for c in values
        if c != clean_condition
    }
    return RankTable(
        feature_names=tuple(feature_names),
        values=values,
        values_norm=values_norm,
        ranks=ranks,
        shifts=shifts,
        clean_condition=clean_condition,
    )


def error_distribution_report(
    errors_clean: np.ndarray,
    errors_adv: np.ndarray,
    tau: float,
    bins: int = 50,
) -> dict:
    """Histogram over the pooled range plus per-group summary stats."""
    clean = np.asarray(errors_clean, dtype=np.float64)
    adv = np.asarray(errors_adv, dtype=np.float64)
    if clean.size == 0 or adv.size == 0:
        raise ValueError("both error groups must be non-empty")
    pooled = np.concatenate([clean, adv])
    lo, hi = float(pooled.min()), float(pooled.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    clean_counts, _ = np.histogram(clean, bins=edges)
    adv_counts, _ = np.histogram(adv, bins=edges)

    def summarize(e: np.ndarray) -> dict:
        return {
            "count": int(e.size),
            "mean": float(e.mean()),
            "median": float(np.median(e)),
            "fraction_above_tau": float(np.count_nonzero(e > tau) / e.size),
        }

    return {
        "tau": float(tau),
        "bin_edges": edges.tolist(),
        "clean_counts": clean_counts.tolist(),
        "adv_counts": adv_counts.tolist(),
        "clean": summarize(clean),
        "adv": summarize(adv),
    }
