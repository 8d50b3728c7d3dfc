"""Detection report with its score distribution, ROC/AP and attribution
rank analysis.

Positive class = adversarial throughout. Threshold metrics come straight
from one set of confusion counts; ROC AUC is trapezoidal over the score
sweep and average precision is the step sum AP = sum_n (R_n - R_{n-1}) * P_n.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


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


def detection_report(
    errors_clean: np.ndarray, errors_adv: np.ndarray, tau: float
) -> dict:
    """The report of a detector on clean and adversarial scores, in report
    order: accuracy ... fnr, the counts tp, tn, fp, fn, then ca, aa, asr,
    then the score distribution: 51 bin edges over the range of all scores
    (widened by 0.5 each side when every score is equal), the clean and
    adversarial counts per bin, and each group's mean and median.

    A score above tau is flagged adversarial. The scores are thresholded
    and counted once; every rate is a ratio of those counts. ca (clean
    accuracy), aa (adversarial accuracy) and asr (attack success rate) are
    specificity, recall and fnr under their robustness names. Precision is 0
    when nothing is flagged, npv 0 when everything is, and f1 0 when
    precision + recall = 0. AUC/AP rank all the scores, clean first.
    """
    clean = np.asarray(errors_clean, dtype=np.float64)
    adv = np.asarray(errors_adv, dtype=np.float64)
    if clean.ndim != 1 or adv.ndim != 1 or clean.size == 0 or adv.size == 0:
        raise ValueError("need non-empty vectors of clean and adversarial scores")
    fp = int(np.count_nonzero(clean > tau))
    tp = int(np.count_nonzero(adv > tau))
    tn, fn = clean.size - fp, adv.size - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn)
    specificity = tn / (tn + fp)
    fnr = fn / (fn + tp)
    scores = np.concatenate([clean, adv])
    truths = np.concatenate([np.zeros(clean.size, int), np.ones(adv.size, int)])
    lo, hi = float(scores.min()), float(scores.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, 51)
    return {
        "accuracy": (tp + tn) / (tp + tn + fp + fn),
        "precision": precision,
        "recall": recall,
        "f1": (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        ),
        "roc_auc": roc_auc(scores, truths),
        "average_precision": average_precision(scores, truths),
        "specificity": specificity,
        "npv": tn / (tn + fn) if tn + fn else 0.0,
        "fpr": fp / (fp + tn),
        "fnr": fnr,
        "tp": tp,
        "tn": tn,
        "fp": fp,
        "fn": fn,
        "ca": specificity,
        "aa": recall,
        "asr": fnr,
        "bin_edges": edges.tolist(),
        "clean_counts": np.histogram(clean, bins=edges)[0].tolist(),
        "adv_counts": np.histogram(adv, bins=edges)[0].tolist(),
        "clean": {"mean": float(clean.mean()), "median": float(np.median(clean))},
        "adv": {"mean": float(adv.mean()), "median": float(np.median(adv))},
    }


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
) -> list[dict]:
    """Rank table rows, most important clean feature first: per feature its
    mean |SHAP| per condition, that value over the condition's largest, its
    rank 1..M per condition and, per attack, |rank_clean - rank_attack|."""
    if "clean" not in importance_by_condition:
        raise ValueError("missing clean condition 'clean'")
    values = {c: np.asarray(v, dtype=np.float64) for c, v in importance_by_condition.items()}
    m = len(feature_names)
    for c, v in values.items():
        if v.shape != (m,):
            raise ValueError(f"condition {c!r} importance length != {m}")
    values_norm = {c: (v / v.max() if v.max() > 0 else v) for c, v in values.items()}
    ranks = {c: rank_features(v) for c, v in values.items()}
    shifts = {c: rank_shift(ranks["clean"], r) for c, r in ranks.items() if c != "clean"}
    rows = []
    for j in np.argsort(ranks["clean"]):
        row: dict = {"feature": feature_names[j], "index": int(j)}
        row.update((f"shap_{c}", float(v[j])) for c, v in values.items())
        row.update((f"shap_norm_{c}", float(v[j])) for c, v in values_norm.items())
        row.update((f"rank_{c}", int(r[j])) for c, r in ranks.items())
        row.update((f"shift_{c}", int(d[j])) for c, d in shifts.items())
        rows.append(row)
    return rows
