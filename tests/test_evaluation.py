import numpy as np
import pytest

from shapguard import evaluation


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


def _scores(below, above, tau=0.5):
    """Scores with ``below`` entries at or under tau and ``above`` over it."""
    return np.repeat([tau, tau + 1.0], [below, above])


# ---------------------------------------------------------------------------
# confusion counts


def test_confusion_enumeration():
    report = evaluation.detection_report([0.1, 0.9], [0.9, 0.1], 0.5)
    assert (report["tp"], report["fn"], report["tn"], report["fp"]) == (1, 1, 1, 1)


def test_confusion_all_correct():
    """A score equal to tau is clean: only a score above it is flagged."""
    report = evaluation.detection_report([0.5, 0.2], [0.6, 3.0, 0.51], 0.5)
    assert report["fp"] == report["fn"] == 0
    assert (report["tn"], report["tp"]) == (2, 3)


def test_confusion_empty_and_mismatch():
    with pytest.raises(ValueError):
        evaluation.detection_report([], [1.0], 0.5)
    with pytest.raises(ValueError):
        evaluation.detection_report([[0.1, 0.2]], [1.0], 0.5)


# ---------------------------------------------------------------------------
# the detection report


def test_metrics_zero_denominator_conventions():
    nothing_flagged = evaluation.detection_report(_scores(5, 0), _scores(3, 0), 0.5)
    assert nothing_flagged["tp"] == nothing_flagged["fp"] == 0
    assert nothing_flagged["precision"] == 0.0
    assert nothing_flagged["recall"] == 0.0 and nothing_flagged["f1"] == 0.0
    everything_flagged = evaluation.detection_report(_scores(0, 4), _scores(0, 2), 0.5)
    assert everything_flagged["tn"] == everything_flagged["fn"] == 0
    assert everything_flagged["npv"] == 0.0


def test_metrics_identities():
    report = evaluation.detection_report(_scores(11, 3), _scores(2, 7), 0.5)
    assert (report["tp"], report["tn"], report["fp"], report["fn"]) == (7, 11, 3, 2)
    assert report["precision"] == pytest.approx(7 / 10, abs=1e-12)
    assert report["recall"] == pytest.approx(7 / 9, abs=1e-12)
    assert report["specificity"] == pytest.approx(11 / 14, abs=1e-12)
    assert report["npv"] == pytest.approx(11 / 13, abs=1e-12)
    assert report["fpr"] + report["specificity"] == pytest.approx(1.0, abs=1e-12)
    assert report["fnr"] + report["recall"] == pytest.approx(1.0, abs=1e-12)
    p, r = report["precision"], report["recall"]
    assert report["f1"] == pytest.approx(2 * p * r / (p + r), abs=1e-12)
    assert report["accuracy"] == pytest.approx(18 / 23, abs=1e-12)
    assert (report["ca"], report["aa"], report["asr"]) == (
        report["specificity"], report["recall"], report["fnr"]
    )
    nothing_flagged = evaluation.detection_report(_scores(5, 0), _scores(3, 0), 0.5)
    for case in (report, nothing_flagged):
        assert case["aa"] + case["asr"] == pytest.approx(1.0, abs=1e-12)
    assert list(report) == [
        "accuracy", "precision", "recall", "f1", "roc_auc", "average_precision",
        "specificity", "npv", "fpr", "fnr", "tp", "tn", "fp", "fn", "ca", "aa", "asr",
        "bin_edges", "clean_counts", "adv_counts", "clean", "adv",
    ]
    assert list(report["clean"]) == list(report["adv"]) == ["mean", "median"]


def test_metrics_perfect_separation_scores():
    report = evaluation.detection_report([0.2, 0.1], [0.9, 0.8], 0.5)
    assert report["roc_auc"] == 1.0
    assert report["average_precision"] == 1.0


def test_metrics_single_class_truths_leave_auc_undefined():
    scores = np.array([0.9, 0.1])
    for truths in ([1, 1], [0, 0]):
        assert evaluation.roc_auc(scores, np.array(truths)) is None
        assert evaluation.average_precision(scores, np.array(truths)) is None


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
# published rows as oracles: score vectors that reproduce the published
# counts (tau 0.5; a clean score above it is a false positive, an
# adversarial one at or under it a miss)


def test_published_shap_fgsm_detection_row():
    report = evaluation.detection_report(_scores(9955, 45), _scores(52, 9948), 0.5)
    assert (report["tp"], report["tn"], report["fp"], report["fn"]) == (9948, 9955, 45, 52)
    tol = 5e-5 + 1e-9
    assert abs(report["accuracy"] - 0.9952) <= tol
    assert abs(report["precision"] - 0.9955) <= tol
    assert abs(report["recall"] - 0.9948) <= tol
    assert abs(report["f1"] - 0.9951) <= tol
    assert abs(report["fpr"] - 0.0045) <= tol
    assert abs(report["fnr"] - 0.0052) <= tol


def test_published_adversarially_trained_deepfool_row():
    report = evaluation.detection_report(_scores(9735, 265), _scores(3351, 6649), 0.5)
    assert report["recall"] == pytest.approx(0.6649, abs=1e-12)
    assert report["fnr"] == pytest.approx(0.3351, abs=1e-12)


def test_published_shap_fgsm_robustness_row():
    report = evaluation.detection_report(_scores(9955, 45), _scores(52, 9948), 0.5)
    assert report["ca"] == 0.9955
    assert report["aa"] == 0.9948
    assert report["asr"] == 0.0052


def test_published_shap_pgd_row_perfect_detection():
    report = evaluation.detection_report(_scores(9955, 45), _scores(0, 10000), 0.5)
    assert report["aa"] == 1.0 and report["asr"] == 0.0


def test_robustness_asr_complement_and_sum():
    report = evaluation.detection_report([0.1, 0.9], [0.1, 0.2, 0.3], 0.5)
    assert report["asr"] == 1.0
    assert report["aa"] + report["asr"] == pytest.approx(1.0, abs=1e-12)


def test_robustness_empty_rejected():
    with pytest.raises(ValueError):
        evaluation.detection_report([0.1], [], 0.5)


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
# the report's score distribution


def test_detection_report_distribution_counts_every_score():
    report = evaluation.detection_report(np.array([0.1, 0.2, 0.3]), np.array([2.0, 3.0]), 1.0)
    assert len(report["bin_edges"]) == 51
    assert len(report["clean_counts"]) == len(report["adv_counts"]) == 50
    assert (report["bin_edges"][0], report["bin_edges"][-1]) == (0.1, 3.0)
    assert sum(report["clean_counts"]) == report["tn"] + report["fp"] == 3
    assert sum(report["adv_counts"]) == report["tp"] + report["fn"] == 2
    assert (report["fpr"], report["recall"]) == (0.0, 1.0)
    assert report["clean"] == {"mean": pytest.approx(0.2), "median": 0.2}
    assert report["adv"] == {"mean": 2.5, "median": 2.5}


def test_detection_report_fpr_at_a_percentile_tau():
    rng = np.random.default_rng(2)
    clean = rng.gamma(2.0, 1.0, 1000)
    tau = float(np.percentile(clean, 99))
    report = evaluation.detection_report(clean, clean + 10, tau)
    assert report["fpr"] == pytest.approx(0.01, abs=1e-3)


def test_detection_report_equal_scores_occupy_one_bin():
    report = evaluation.detection_report(np.array([0.5]), np.array([0.5]), 1.0)
    assert (report["bin_edges"][0], report["bin_edges"][-1]) == (0.0, 1.0)
    occupied = [c + a for c, a in zip(report["clean_counts"], report["adv_counts"]) if c + a > 0]
    assert occupied == [2]
