import math

import pytest
from hypothesis import given, settings, strategies as st

from medcorpus.metrics import (
    ClassMetrics,
    ScoredPredictions,
    UndefinedMetricError,
    auroc,
    load_classification_predictions,
    multilabel_report,
    ner_token_report,
    prf,
    render_report_tsv,
    tag_class,
    write_report,
)


def brute_auroc(scores, truths):
    """Independent oracle: count positive-negative pairs, ties worth 1/2."""
    pos = [s for s, t in zip(scores, truths) if t]
    neg = [s for s, t in zip(scores, truths) if not t]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


# --- auroc ------------------------------------------------------------------


def test_auroc_perfect_separation():
    assert auroc([0.9, 0.4, 0.6, 0.2], [1, 0, 1, 0]) == 1.0


def test_auroc_one_positive_moved_below_negatives():
    assert auroc([0.1, 0.4, 0.6, 0.2], [1, 0, 1, 0]) == 0.5


def test_auroc_all_ties():
    assert auroc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5


def test_auroc_mixed():
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_single_class_raises():
    with pytest.raises(UndefinedMetricError):
        auroc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedMetricError):
        auroc([0.1, 0.2], [0, 0])


def test_auroc_length_mismatch():
    with pytest.raises(ValueError):
        auroc([0.1], [1, 0])


_instance = st.lists(
    st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0]), st.booleans()),
    min_size=2,
    max_size=60,
).filter(lambda rows: len({t for _, t in rows}) == 2)


@settings(max_examples=200, deadline=None)
@given(_instance)
def test_auroc_matches_brute_force(rows):
    scores = [s for s, _ in rows]
    truths = [t for _, t in rows]
    assert abs(auroc(scores, truths) - brute_auroc(scores, truths)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(12))), st.integers(min_value=1, max_value=11))
def test_auroc_complement_for_tie_free_scores(order, n_pos):
    scores = [float(x) for x in order]
    truths = [i < n_pos for i in range(12)]
    a = auroc(scores, truths)
    b = auroc([-s for s in scores], truths)
    assert abs(a + b - 1.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(_instance)
def test_auroc_monotone_transform_invariant(rows):
    scores = [s for s, _ in rows]
    truths = [t for _, t in rows]
    cubed = [s * s * s for s in scores]  # strictly monotone, preserves ties
    affine = [2.0 * s + 1.0 for s in scores]
    base = auroc(scores, truths)
    assert auroc(cubed, truths) == pytest.approx(base, abs=1e-12)
    assert auroc(affine, truths) == pytest.approx(base, abs=1e-12)


# --- prf --------------------------------------------------------------------


def test_prf_perfect():
    assert prf([True, False, True], [True, False, True]) == (1.0, 1.0, 1.0)


def test_prf_hand_count():
    # TP=2, FP=1, FN=1
    preds = [True, True, True, False]
    truth = [True, True, False, True]
    p, r, f = prf(preds, truth)
    assert p == pytest.approx(2 / 3, abs=1e-15)
    assert r == pytest.approx(2 / 3, abs=1e-15)
    assert f == pytest.approx(2 / 3, abs=1e-15)


def test_prf_zero_conventions():
    assert prf([False, False], [True, True]) == (0.0, 0.0, 0.0)  # nothing predicted
    assert prf([True, True], [False, False]) == (0.0, 0.0, 0.0)  # nothing true
    assert prf([False], [False]) == (0.0, 0.0, 0.0)


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40))
def test_prf_f1_between_p_and_r(rows):
    p, r, f = prf([a for a, _ in rows], [b for _, b in rows])
    if p > 0 and r > 0:
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
        assert f == pytest.approx(2 * p * r / (p + r), abs=1e-12)
    assert 0.0 <= f <= 1.0


# --- multilabel report ------------------------------------------------------


def two_class_predictions():
    return ScoredPredictions(
        classes=["A", "B"],
        scores={"A": [0.9, 0.4, 0.6, 0.2], "B": [0.8, 0.7, 0.2, 0.1]},
        truths={"A": [True, False, True, False], "B": [False, True, False, True]},
    )


def test_multilabel_hand_fixture():
    report = multilabel_report(two_class_predictions())
    a, b = report.per_class["A"], report.per_class["B"]
    assert a.auroc == pytest.approx(100.0, abs=1e-12)
    assert a.precision == a.recall == a.f1 == pytest.approx(100.0, abs=1e-12)
    assert a.support == 2
    assert b.auroc == pytest.approx(25.0, abs=1e-12)
    assert b.precision == pytest.approx(50.0, abs=1e-12)
    assert b.recall == pytest.approx(50.0, abs=1e-12)
    assert b.f1 == pytest.approx(50.0, abs=1e-12)
    assert report.macro.auroc == pytest.approx(62.5, abs=1e-12)
    assert report.macro.f1 == pytest.approx(75.0, abs=1e-12)
    assert report.excluded == {}


def test_multilabel_macro_mean_of_equals():
    preds = ScoredPredictions(
        classes=["A", "B"],
        scores={"A": [0.9, 0.1], "B": [0.9, 0.1]},
        truths={"A": [True, False], "B": [True, False]},
    )
    report = multilabel_report(preds)
    assert report.macro.auroc == report.per_class["A"].auroc == 100.0


def test_multilabel_zero_row_convention():
    preds = ScoredPredictions(
        classes=["A", "C"],
        scores={"A": [0.9, 0.1], "C": [0.2, 0.3]},
        truths={"A": [True, False], "C": [False, False]},
    )
    report = multilabel_report(preds)
    c = report.per_class["C"]
    assert (c.auroc, c.f1, c.precision, c.recall) == (0.0, 0.0, 0.0, 0.0)
    assert c.support == 0
    # macro averages only the defined class
    assert report.macro.auroc == 100.0
    assert report.excluded["auroc"] == ["C"]
    assert report.excluded["precision"] == ["C"]
    assert report.excluded["recall"] == ["C"]
    assert report.excluded["f1"] == ["C"]


def test_multilabel_partial_definition():
    # truths exist but nothing predicted: recall defined (0), precision not
    preds = ScoredPredictions(
        classes=["D"], scores={"D": [0.1, 0.2]}, truths={"D": [True, True]}
    )
    report = multilabel_report(preds)
    d = report.per_class["D"]
    assert d.recall == 0.0
    assert d.precision == 0.0  # rendered 0, but excluded from macro
    assert report.excluded["precision"] == ["D"]
    assert "recall" not in report.excluded
    assert d.f1 == 0.0
    assert "f1" not in report.excluded  # partially defined renders as real 0


def test_multilabel_threshold_inclusive():
    preds = ScoredPredictions(
        classes=["A"], scores={"A": [0.5, 0.49]}, truths={"A": [True, False]}
    )
    report = multilabel_report(preds, threshold=0.5)
    assert report.per_class["A"].precision == 100.0
    assert report.per_class["A"].recall == 100.0


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_multilabel_report_refuses_a_non_finite_threshold(threshold):
    # every score compares false against NaN, so each prediction was negative
    preds = ScoredPredictions(classes=["A"], scores={"A": [0.5]}, truths={"A": [True]})
    with pytest.raises(ValueError, match="threshold must be a finite number"):
        multilabel_report(preds, threshold=threshold)


# --- NER token report -------------------------------------------------------


def test_tag_class_collapse():
    assert tag_class("B-DRUG") == "DRUG"
    assert tag_class("I-DRUG") == "DRUG"
    assert tag_class("O") is None
    assert tag_class("DRUG") == "DRUG"


def test_ner_perfect_predictions():
    gold = [["B-X", "I-X", "O", "B-Y"]]
    report = ner_token_report(gold, gold)
    assert report.classes == ["X", "Y"]
    for cls in report.classes:
        m = report.per_class[cls]
        assert (m.f1, m.precision, m.recall) == (100.0, 100.0, 100.0)
    assert report.micro.f1 == 100.0
    assert report.macro.auroc is None  # no scores given


def test_ner_half_recall_hand_count():
    gold = [["B-X", "O", "I-X", "O"]]
    pred = [["B-X", "O", "O", "O"]]
    report = ner_token_report(gold, pred)
    x = report.per_class["X"]
    assert x.precision == 100.0
    assert x.recall == 50.0
    assert x.f1 == pytest.approx(200 / 3, abs=1e-12)
    assert x.support == 2


def test_ner_bio_prefixes_share_class():
    gold = [["B-X", "I-X"]]
    pred = [["I-X", "B-X"]]  # class level identical
    report = ner_token_report(gold, pred)
    assert report.per_class["X"].f1 == 100.0


def test_ner_micro_is_global_accuracy_on_confusion_only_fixture():
    # predictions only confuse classes, never invent or drop entities
    gold = [["B-X", "B-Y", "B-X", "O", "B-Z"]]
    pred = [["B-X", "B-X", "B-X", "O", "B-Y"]]
    report = ner_token_report(gold, pred)
    correct = 3  # positions 0 and 2 as X... plus none else; recount below
    # gold classes: X,Y,X,-,Z; pred: X,X,X,-,Y; matches at 0 and 2
    correct = 2
    non_o = 4
    micro = report.micro
    assert micro.precision == pytest.approx(100.0 * correct / non_o, abs=1e-12)
    assert micro.recall == pytest.approx(100.0 * correct / non_o, abs=1e-12)
    assert micro.f1 == pytest.approx(100.0 * correct / non_o, abs=1e-12)


def test_ner_micro_counts_summed_not_averaged():
    gold = [["B-X", "O"], ["B-Y", "B-Y", "B-Y", "B-Y"]]
    pred = [["B-X", "O"], ["O", "O", "O", "O"]]
    report = ner_token_report(gold, pred)
    # totals: tp=1 (X), fp=0, fn=4 (Y)
    assert report.micro.recall == pytest.approx(100.0 / 5, abs=1e-12)
    assert report.micro.precision == 100.0
    # macro averages per-class recalls (100 and 0) instead
    assert report.macro.recall == pytest.approx(50.0, abs=1e-12)


def test_ner_absent_class_zero_row():
    gold = [["B-X", "O"]]
    pred = [["B-X", "O"]]
    report = ner_token_report(gold, pred, labels=["X", "GHOST"])
    ghost = report.per_class["GHOST"]
    assert (ghost.f1, ghost.precision, ghost.recall, ghost.support) == (0.0, 0.0, 0.0, 0)
    assert report.excluded["f1"] == ["GHOST"]
    assert report.macro.f1 == 100.0


def test_ner_length_mismatch_errors():
    with pytest.raises(ValueError):
        ner_token_report([["B-X"]], [["B-X", "O"]])
    with pytest.raises(ValueError):
        ner_token_report([["B-X"], ["O"]], [["B-X"]])


def test_ner_token_scores_checked_per_document():
    # 4 score maps for 4 tokens in all, but 3 for the first document and 1 for the second
    gold = [["B-X", "O"], ["B-X", "O"]]
    scores = [[{"X": 0.9}, {"X": 0.1}, {"X": 0.8}], [{"X": 0.2}]]
    with pytest.raises(ValueError, match="document 0"):
        ner_token_report(gold, gold, token_scores=scores)
    with pytest.raises(ValueError, match="different document counts"):
        ner_token_report(gold, gold, token_scores=scores[:1])


def test_ner_token_scores_enable_auroc():
    gold = [["B-X", "O", "B-X", "O"]]
    pred = [["B-X", "O", "B-X", "O"]]
    scores = [[{"X": 0.9}, {"X": 0.1}, {"X": 0.8}, {"X": 0.2}]]
    report = ner_token_report(gold, pred, token_scores=scores)
    assert report.per_class["X"].auroc == pytest.approx(100.0, abs=1e-12)
    assert report.macro.auroc == pytest.approx(100.0, abs=1e-12)


def test_repeated_label_is_an_error():
    with pytest.raises(ValueError, match="'X' is given twice"):
        ner_token_report([["B-X", "O", "B-Y", "B-Y"]], [["B-X", "O", "O", "B-Y"]], ["X", "X", "Y"])
    with pytest.raises(ValueError, match="'A' is given twice"):
        ScoredPredictions(["A", "A"], {"A": [0.5]}, {"A": [True]})
    with pytest.raises(ValueError, match="'A' is given twice"):
        load_classification_predictions([("d1", {"A"})], [], labels=["A", "B", "A"])


# --- rendering and IO -------------------------------------------------------


def test_render_tsv_layout():
    report = multilabel_report(two_class_predictions())
    tsv = render_report_tsv(report)
    lines = tsv.strip().split("\n")
    assert lines[0] == "Class\tAUROC\tF1\tPrecision\tRecall"
    assert lines[1] == "A\t100.00\t100.00\t100.00\t100.00"
    assert lines[2] == "B\t25.00\t50.00\t50.00\t50.00"
    assert lines[3] == "Macro\t62.50\t75.00\t75.00\t75.00"
    assert len(lines) == 4  # no Global row for document-level reports


def test_render_tsv_ner_global_row_and_blank_auroc():
    gold = [["B-X", "O"]]
    report = ner_token_report(gold, gold)
    lines = render_report_tsv(report).strip().split("\n")
    assert lines[-1].startswith("Global\t\t100.00")  # blank AUROC column


def test_render_two_decimal_rounding():
    gold = [["B-X", "O", "I-X", "O"]]
    pred = [["B-X", "O", "O", "O"]]
    report = ner_token_report(gold, pred)
    tsv = render_report_tsv(report)
    assert "\t66.67\t" in tsv  # 200/3 rendered at two decimals


def test_write_report_files(tmp_path):
    report = multilabel_report(two_class_predictions())
    jp, tp = tmp_path / "r.json", tmp_path / "r.tsv"
    write_report(report, jp, tp)
    import json

    obj = json.loads(jp.read_text())
    assert obj["per_class"]["B"]["auroc"] == pytest.approx(25.0)
    assert obj["macro"]["f1"] == pytest.approx(75.0)
    assert tp.read_text().startswith("Class\t")


def test_load_classification_predictions_join():
    gold = [("d1", {"A"}), ("d2", {"B"}), ("d3", {"A", "B"})]
    rows = [("d1", {"A": 0.9, "B": 0.2}), ("d3", {"A": 0.7})]
    preds = load_classification_predictions(gold, rows)
    assert preds.classes == ["A", "B"]
    assert preds.scores["A"] == [0.9, 0.0, 0.7]  # d2 missing: zero scores
    assert preds.truths["B"] == [False, True, True]


def test_load_classification_predictions_unknown_id():
    with pytest.raises(ValueError):
        load_classification_predictions([("d1", {"A"})], [("zz", {})])


def test_scored_predictions_length_validation():
    with pytest.raises(ValueError):
        ScoredPredictions(classes=["A"], scores={"A": [0.1]}, truths={"A": [True, False]})
