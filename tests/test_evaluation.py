import numpy as np
import pytest

from shapguard import evaluation
from shapguard.evaluation import ConfusionCounts


def _brute_force_ap(scores, truths):
    """Exhaustive threshold-sweep oracle for average precision."""
    scores = np.asarray(scores, float)
    truths = np.asarray(truths, int)
    thresholds = sorted(set(scores), reverse=True)
    ap, r_prev = 0.0, 0.0
    for t in thresholds:
        pred = scores >= t
        tp = int(np.sum(pred & (truths == 1)))
        fp = int(np.sum(pred & (truths == 0)))
        recall = tp / truths.sum()
        precision = tp / (tp + fp)
        ap += (recall - r_prev) * precision
        r_prev = recall
    return ap


def _brute_force_auc(scores, truths):
    """Pairwise-comparison oracle for ROC AUC (ties count half)."""
    pos = scores[truths == 1]
    neg = scores[truths == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# confusion


def test_confusion_enumeration():
    counts = evaluation.confusion([1, 1, 0, 0], [1, 0, 0, 1])
    assert (counts.tp, counts.fn, counts.tn, counts.fp) == (1, 1, 1, 1)


def test_confusion_all_correct():
    counts = evaluation.confusion([1, 0, 1], [1, 0, 1])
    assert counts.fp == counts.fn == 0


def test_confusion_empty_and_mismatch():
    with pytest.raises(ValueError):
        evaluation.confusion([], [])
    with pytest.raises(ValueError):
        evaluation.confusion([1, 0], [1])
    with pytest.raises(ValueError):
        evaluation.confusion([2, 0], [1, 0])


# ---------------------------------------------------------------------------
# classification metrics


def test_metrics_zero_denominator_conventions():
    report = evaluation.classification_metrics(ConfusionCounts(tp=0, tn=5, fp=0, fn=0))
    assert report["precision"] == 0.0 and report["recall"] == 0.0 and report["f1"] == 0.0


def test_metrics_identities():
    report = evaluation.classification_metrics(ConfusionCounts(tp=7, tn=11, fp=3, fn=2))
    assert report["fpr"] + report["specificity"] == pytest.approx(1.0, abs=1e-12)
    assert report["fnr"] + report["recall"] == pytest.approx(1.0, abs=1e-12)
    p, r = report["precision"], report["recall"]
    assert report["f1"] == pytest.approx(2 * p * r / (p + r), abs=1e-12)
    assert report["accuracy"] == pytest.approx(18 / 23, abs=1e-12)


def test_metrics_perfect_separation_scores():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    truths = np.array([1, 1, 0, 0])
    counts = evaluation.confusion(truths, (scores > 0.5).astype(int))
    report = evaluation.classification_metrics(counts, scores, truths)
    assert report["roc_auc"] == 1.0
    assert report["average_precision"] == 1.0


def test_metrics_single_class_truths_leave_auc_undefined():
    scores = np.array([0.9, 0.1])
    truths = np.array([1, 1])
    counts = ConfusionCounts(tp=2, tn=0, fp=0, fn=0)
    report = evaluation.classification_metrics(counts, scores, truths)
    assert report["roc_auc"] is None and report["average_precision"] is None
    assert report["accuracy"] == 1.0


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.uniform(0, 1, 40)
    truths = rng.integers(0, 2, 40)
    if truths.sum() in (0, 40):
        truths[0] = 1 - truths[0]
    a = evaluation.roc_auc(scores, truths)
    b = evaluation.roc_auc(np.exp(5 * scores) + 3, truths)
    assert a == pytest.approx(b, abs=1e-12)


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(4, 15))
        scores = rng.integers(0, 5, n).astype(float)  # heavy ties
        truths = rng.integers(0, 2, n)
        if truths.sum() in (0, n):
            truths[0] = 1 - truths[0]
        assert evaluation.roc_auc(scores, truths) == pytest.approx(
            _brute_force_auc(scores, truths), abs=1e-12
        )


def test_ap_matches_exhaustive_oracle_small_sets():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        scores = np.round(rng.uniform(0, 1, n), 2)  # induce some ties
        truths = rng.integers(0, 2, n)
        if truths.sum() in (0, n):
            truths[0] = 1 - truths[0]
        assert evaluation.average_precision(scores, truths) == pytest.approx(
            _brute_force_ap(scores, truths), abs=1e-12
        )


# ---------------------------------------------------------------------------
# published detection-metric rows as oracles


def test_published_shap_fgsm_detection_row():
    counts = ConfusionCounts(tp=9948, tn=9955, fp=45, fn=52)
    report = evaluation.classification_metrics(counts)
    tol = 5e-5 + 1e-9
    assert abs(report["accuracy"] - 0.9952) <= tol
    assert abs(report["precision"] - 0.9955) <= tol
    assert abs(report["recall"] - 0.9948) <= tol
    assert abs(report["f1"] - 0.9951) <= tol
    assert abs(report["fpr"] - 0.0045) <= tol
    assert abs(report["fnr"] - 0.0052) <= tol


def test_published_adversarially_trained_deepfool_row():
    counts = ConfusionCounts(tp=6649, tn=9735, fp=265, fn=3351)
    report = evaluation.classification_metrics(counts)
    assert report["recall"] == pytest.approx(0.6649, abs=1e-12)
    assert report["fnr"] == pytest.approx(0.3351, abs=1e-12)


# ---------------------------------------------------------------------------
# robustness metrics vs published rows


def test_published_shap_fgsm_robustness_row():
    clean = [True] * 9955 + [False] * 45
    adv = [True] * 9948 + [False] * 52
    report = evaluation.robustness_metrics(clean, adv)
    assert report["ca"] == 0.9955
    assert report["aa"] == 0.9948
    assert report["asr"] == 0.0052


def test_published_shap_pgd_row_perfect_detection():
    report = evaluation.robustness_metrics([True] * 9955 + [False] * 45, [True] * 10000)
    assert report["aa"] == 1.0 and report["asr"] == 0.0


def test_robustness_asr_complement_and_sum():
    report = evaluation.robustness_metrics([True, False], [False, False, False])
    assert report["asr"] == 1.0
    assert report["aa"] + report["asr"] == pytest.approx(1.0, abs=1e-12)


def test_robustness_empty_rejected():
    with pytest.raises(ValueError):
        evaluation.robustness_metrics([], [True])


# ---------------------------------------------------------------------------
# importance and ranks


def test_importance_absolute_value_and_mean():
    assert evaluation.importance(np.array([[0.5, -0.5]])).tolist() == [0.5, 0.5]
    assert evaluation.importance(np.array([[1, 0], [0, 1]])).tolist() == [0.5, 0.5]
    assert evaluation.importance(np.array([[0, 0], [0, 0]])).tolist() == [0.0, 0.0]


def test_rank_features_sorting_and_ties():
    assert evaluation.rank_features(np.array([0.2, 0.9, 0.5])).tolist() == [3, 1, 2]
    assert evaluation.rank_features(np.array([0.5, 0.5])).tolist() == [1, 2]


def test_rank_features_always_a_permutation():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = int(rng.integers(1, 40))
        imp = np.round(rng.uniform(0, 1, m), 1)  # ties likely
        ranks = evaluation.rank_features(imp)
        assert sorted(ranks.tolist()) == list(range(1, m + 1))


def test_rank_shift_definition():
    assert evaluation.rank_shift(np.array([2]), np.array([11])).tolist() == [9]
    assert evaluation.rank_shift(np.array([33]), np.array([2])).tolist() == [31]
    assert evaluation.rank_shift(np.arange(5), np.arange(5)).tolist() == [0] * 5


def test_build_rank_table_normalization_and_rows():
    rows = evaluation.build_rank_table(
        ("a", "b", "c"),
        {"clean": np.array([1.0, 4.0, 2.0]), "fgsm": np.array([2.0, 1.0, 4.0])},
    )
    by_index = sorted(rows, key=lambda row: row["index"])
    assert [row["rank_clean"] for row in by_index] == [3, 1, 2]
    assert [row["rank_fgsm"] for row in by_index] == [2, 3, 1]
    assert [row["shift_fgsm"] for row in by_index] == [1, 2, 1]
    assert [row["shap_norm_clean"] for row in by_index] == [0.25, 1.0, 0.5]
    assert rows[0]["feature"] == "b"  # sorted by clean rank
    assert rows[0]["rank_clean"] == 1 and rows[0]["shift_fgsm"] == 2


# ---------------------------------------------------------------------------
# error distribution report


def test_error_distribution_separation():
    report = evaluation.error_distribution_report(
        np.array([0.1, 0.2, 0.3]), np.array([2.0, 3.0]), tau=1.0
    )
    assert report["clean"]["fraction_above_tau"] == 0.0
    assert report["adv"]["fraction_above_tau"] == 1.0
    assert sum(report["clean_counts"]) == 3
    assert sum(report["adv_counts"]) == 2


def test_error_distribution_tau_at_percentile():
    rng = np.random.default_rng(2)
    clean = rng.gamma(2.0, 1.0, 1000)
    tau = float(np.percentile(clean, 99))
    report = evaluation.error_distribution_report(clean, clean + 10, tau)
    assert report["clean"]["fraction_above_tau"] == pytest.approx(0.01, abs=1e-3)


def test_error_distribution_degenerate_single_value():
    report = evaluation.error_distribution_report(np.array([0.5]), np.array([0.5]), tau=1.0)
    occupied = [c + a for c, a in zip(report["clean_counts"], report["adv_counts"]) if c + a > 0]
    assert len(occupied) == 1
