"""The metrics of ``medcorpus.metrics`` against the code they replaced.

The report reference mapped undefined values to 0.0 in several places and
patched the hard-tag NER rows afterwards. It is that code unchanged:
``prf``, ``multilabel_report`` and ``ner_token_report`` with their helpers.
Both must give the same JSON and TSV report, byte for byte, and the same
``prf`` triple.

The AUROC reference ranked the scores with numpy. It is that code
unchanged, and the pure-Python ``auroc`` must return the same float, bit
for bit, and raise the same error.
"""

import math
from typing import Iterable, Mapping, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from medcorpus import metrics
from medcorpus.corpus import json_text
from medcorpus.metrics import (
    ClassMetrics,
    MetricReport,
    ScoredPredictions,
    UndefinedMetricError,
    auroc,
    render_report_tsv,
    tag_class,
)


# --- reference: AUROC ranks from numpy --------------------------------------


def reference_auroc(scores: Sequence[float], truths: Sequence[bool]) -> float:
    """Probability that a random positive outranks a random negative,
    counting exact score ties as one half. Rank-based; identical to
    brute-force pair counting up to exact float arithmetic."""
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truths, dtype=bool)
    if s.shape != t.shape or s.ndim != 1:
        raise ValueError("scores and truths must be parallel 1-d sequences")
    n_pos = int(t.sum())
    n_neg = int(t.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC undefined: truth has a single class")
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(t.size, dtype=float)
    sorted_scores = s[order]
    i = 0
    while i < t.size:
        j = i
        while j + 1 < t.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    rank_sum = float(ranks[t].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


# --- reference: per-place zero conventions and the hard-tag fixup ----------


def reference_prf(
    predictions: Sequence[bool], truths: Sequence[bool]
) -> tuple[float, float, float]:
    """Precision, recall, F1 from parallel boolean vectors.

    Zero denominators yield 0.0, matching the report convention.
    """
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths must be parallel")
    counts = _confusion(predictions, truths)
    return tuple(0.0 if v is None else v / 100.0 for v in _class_prf(*counts))


def _confusion(predictions: Iterable[bool], truths: Iterable[bool]) -> tuple[int, int, int]:
    """True positive, false positive and false negative counts."""
    tp = fp = fn = 0
    for p, t in zip(predictions, truths):
        if p and t:
            tp += 1
        elif p:
            fp += 1
        elif t:
            fn += 1
    return tp, fp, fn


def _class_prf(tp: int, fp: int, fn: int) -> tuple[float | None, float | None, float | None]:
    """Percent-scaled precision, recall and F1 of one report class.

    A zero denominator gives None, so the class drops out of that macro
    mean. F1 is None only when precision and recall both are; it is 0.0
    when just one is undefined or both are zero.
    """
    precision = tp / (tp + fp) * 100.0 if tp + fp else None
    recall = tp / (tp + fn) * 100.0 if tp + fn else None
    f1: float | None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    elif precision is None and recall is None:
        f1 = None
    else:
        f1 = 0.0
    return precision, recall, f1


def _macro(values: Mapping[str, float | None]) -> tuple[float, list[str]]:
    """Mean over classes where the metric is defined; returns the excluded."""
    defined = [v for v in values.values() if v is not None]
    excluded = sorted(c for c, v in values.items() if v is None)
    if not defined:
        return 0.0, excluded
    return sum(defined) / len(defined), excluded


def _summarize(
    values: Mapping[str, tuple[float | None, float | None, float | None, float | None]],
    supports: Mapping[str, int],
    macro_support: int,
) -> tuple[dict[str, ClassMetrics], ClassMetrics, dict[str, list[str]]]:
    """Report rows from per-class (auroc, precision, recall, f1), None where
    undefined. A class row shows an undefined value as 0.0; each macro mean
    skips the classes where its metric is undefined, and ``excluded`` lists
    them per metric."""
    per_class = {
        cls: ClassMetrics(
            auroc=0.0 if area is None else area,
            f1=0.0 if f1 is None else f1,
            precision=0.0 if precision is None else precision,
            recall=0.0 if recall is None else recall,
            support=supports[cls],
        )
        for cls, (area, precision, recall, f1) in values.items()
    }
    means: dict[str, float] = {}
    excluded: dict[str, list[str]] = {}
    for i, key in enumerate(("auroc", "precision", "recall", "f1")):
        means[key], ex = _macro({cls: v[i] for cls, v in values.items()})
        if ex:
            excluded[key] = ex
    return per_class, ClassMetrics(support=macro_support, **means), excluded


def reference_multilabel_report(
    predictions: ScoredPredictions, threshold: float = 0.5
) -> MetricReport:
    """Per-class AUROC plus thresholded precision/recall/F1.

    A score at or above the threshold counts as a predicted positive.
    """
    values = {}
    supports = {}
    for cls in predictions.classes:
        scores = predictions.scores[cls]
        truths = predictions.truths[cls]
        try:
            area: float | None = auroc(scores, truths) * 100.0
        except UndefinedMetricError:
            area = None
        values[cls] = (area, *_class_prf(*_confusion((s >= threshold for s in scores), truths)))
        supports[cls] = sum(truths)
    per_class, macro, excluded = _summarize(values, supports, sum(supports.values()))
    return MetricReport(list(predictions.classes), per_class, macro, None, excluded)


def reference_ner_token_report(
    gold_tags: Sequence[Sequence[str]],
    pred_tags: Sequence[Sequence[str]],
    labels: Sequence[str] | None = None,
    token_scores: Sequence[Sequence[Mapping[str, float]]] | None = None,
) -> MetricReport:
    """Token-level metrics after collapsing BIO prefixes; O tokens are not a
    class. ``micro`` aggregates counts over all classes ("global" row).
    With ``token_scores`` a per-class AUROC over tokens is added."""
    if len(gold_tags) != len(pred_tags):
        raise ValueError("gold and predictions have different document counts")
    flat_gold: list[str | None] = []
    flat_pred: list[str | None] = []
    for doc_idx, (g, p) in enumerate(zip(gold_tags, pred_tags)):
        if len(g) != len(p):
            raise ValueError(f"tag length mismatch in document {doc_idx}")
        flat_gold.extend(tag_class(t) for t in g)
        flat_pred.extend(tag_class(t) for t in p)
    flat_scores: list[Mapping[str, float]] | None = None
    if token_scores is not None:
        flat_scores = [sc for doc in token_scores for sc in doc]
        if len(flat_scores) != len(flat_gold):
            raise ValueError("token_scores do not align with the tag sequences")
    observed = sorted(
        {c for c in flat_gold if c is not None} | {c for c in flat_pred if c is not None}
    )
    classes = list(labels) if labels is not None else observed
    values = {}
    supports = {}
    total_tp = total_fp = total_fn = 0
    for cls in classes:
        tp, fp, fn = _confusion((p == cls for p in flat_pred), (g == cls for g in flat_gold))
        total_tp, total_fp, total_fn = total_tp + tp, total_fp + fp, total_fn + fn
        area: float | None = None
        if flat_scores is not None:
            truths = [g == cls for g in flat_gold]
            scores = [sc.get(cls, 0.0) for sc in flat_scores]
            try:
                area = auroc(scores, truths) * 100.0
            except UndefinedMetricError:
                area = None
        values[cls] = (area, *_class_prf(tp, fp, fn))
        supports[cls] = sum(1 for g in flat_gold if g == cls)
    micro_p, micro_r, micro_f = (
        0.0 if v is None else v for v in _class_prf(total_tp, total_fp, total_fn)
    )
    micro = ClassMetrics(
        auroc=None,
        f1=micro_f,
        precision=micro_p,
        recall=micro_r,
        support=sum(1 for g in flat_gold if g is not None),
    )
    per_class, macro, excluded = _summarize(values, supports, micro.support)
    if flat_scores is None:
        # hard tags carry no scores: AUROC is absent rather than undefined
        excluded.pop("auroc", None)
        for row in (*per_class.values(), macro):
            row.auroc = None
    return MetricReport(classes, per_class, macro, micro, excluded)


# --- comparison ------------------------------------------------------------


def assert_same_report(got: MetricReport, want: MetricReport) -> None:
    assert json_text(got.to_obj()) == json_text(want.to_obj())
    assert render_report_tsv(got) == render_report_tsv(want)


# "O" is a label too: a bare "O" tag is no class, but "B-O" is class "O"
_LABELS = ["A", "B", "X", "Y", "O", "GHOST"]
_THRESHOLD = 0.5
_SCORES = st.sampled_from([0.0, 0.25, _THRESHOLD, 0.75, 1.0])


@st.composite
def _scored_predictions(draw) -> ScoredPredictions:
    n = draw(st.integers(min_value=0, max_value=8))
    classes = draw(st.lists(st.sampled_from(_LABELS), unique=True, max_size=4))
    scores = {c: draw(st.lists(_SCORES, min_size=n, max_size=n)) for c in classes}
    # few instances, so single-class truth vectors come often
    truths = {c: draw(st.lists(st.booleans(), min_size=n, max_size=n)) for c in classes}
    return ScoredPredictions(classes, scores, truths)


@settings(max_examples=600, deadline=None)
@given(_scored_predictions())
def test_multilabel_report_matches_reference(preds):
    assert_same_report(
        metrics.multilabel_report(preds, _THRESHOLD),
        reference_multilabel_report(preds, _THRESHOLD),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=8))
def test_prf_matches_reference(rows):
    preds = [p for p, _ in rows]
    truths = [t for _, t in rows]
    assert metrics.prf(preds, truths) == reference_prf(preds, truths)


_TAGS = st.sampled_from(["O", "B-X", "I-X", "B-Y", "I-Y", "B-O", "X", "A"])


@st.composite
def _ner_input(draw):
    lengths = draw(st.lists(st.integers(min_value=0, max_value=5), max_size=4))
    gold = [draw(st.lists(_TAGS, min_size=n, max_size=n)) for n in lengths]
    if draw(st.booleans()):
        gold = [["O"] * n for n in lengths]
    pred = [draw(st.lists(_TAGS, min_size=n, max_size=n)) for n in lengths]
    labels = draw(st.none() | st.lists(st.sampled_from(_LABELS), unique=True, max_size=4))
    token_scores = None
    if draw(st.booleans()):
        token_scores = [
            [draw(st.dictionaries(st.sampled_from(_LABELS), _SCORES, max_size=3)) for _ in range(n)]
            for n in lengths
        ]
    return gold, pred, labels, token_scores


@settings(max_examples=800, deadline=None)
@given(_ner_input())
def test_ner_token_report_matches_reference(case):
    gold, pred, labels, token_scores = case
    assert_same_report(
        metrics.ner_token_report(gold, pred, labels, token_scores),
        reference_ner_token_report(gold, pred, labels, token_scores),
    )


def test_ner_empty_input_matches_reference():
    for labels in (None, [], ["X", "O"]):
        for token_scores in (None, []):
            assert_same_report(
                metrics.ner_token_report([], [], labels, token_scores),
                reference_ner_token_report([], [], labels, token_scores),
            )


# --- AUROC ------------------------------------------------------------------


def _auroc_outcome(fn, scores, truths):
    """The value ``fn`` returns, or the type of the error it raises."""
    try:
        return fn(scores, truths)
    except ValueError as exc:
        return type(exc)


def assert_same_auroc(scores, truths):
    got = _auroc_outcome(auroc, scores, truths)
    assert got == _auroc_outcome(reference_auroc, scores, truths)
    assert isinstance(got, float) or got in (ValueError, UndefinedMetricError)


# few distinct values, so most inputs hold exact ties; NaN equals nothing
# and ranks last, in input order
_TIED_SCORES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 1.0, math.inf, math.nan])
_ANY_SCORES = st.floats(allow_nan=True, allow_infinity=True)
_SCORE_LISTS = st.one_of(
    st.lists(_TIED_SCORES, max_size=40),
    st.lists(_ANY_SCORES, max_size=40),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=40),
    st.lists(st.booleans(), max_size=40),
)


@st.composite
def _auroc_input(draw):
    scores = draw(_SCORE_LISTS)
    # mostly parallel; otherwise one longer or shorter truth vector
    n = len(scores) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    n = max(n, 0)
    truths = draw(st.lists(st.booleans() | st.integers(0, 1), min_size=n, max_size=n))
    return scores, truths


@settings(max_examples=1000, deadline=None)
@given(_auroc_input())
def test_auroc_matches_reference(case):
    scores, truths = case
    assert_same_auroc(scores, truths)


@settings(max_examples=300, deadline=None)
@given(_auroc_input())
def test_auroc_matches_reference_on_numpy_arrays(case):
    scores, truths = case
    assert_same_auroc(np.asarray(scores), np.asarray(truths, dtype=bool))


def test_auroc_matches_reference_on_edge_cases():
    for scores, truths in [
        ([0.3] * 6, [1, 0, 1, 0, 0, 1]),  # all tied
        ([0.1, 0.1, 0.9, 0.9], [0, 1, 0, 1]),
        ([True, False, True], [True, False, False]),
        ([2, 1, 2, 0], [1, 0, 0, 1]),
        ([math.nan, 0.5, math.nan, 0.5], [1, 0, 0, 1]),
        ([math.nan] * 3, [1, 0, 1]),
        ([], []),  # single class: neither positives nor negatives
        ([0.1, 0.2], [1, 1]),
        ([0.1, 0.2], [0, 0]),
        ([0.1], [1, 0]),  # not parallel
        ([0.1, 0.2], [1]),
    ]:
        assert_same_auroc(scores, truths)
        assert_same_auroc(np.asarray(scores, dtype=float), np.asarray(truths, dtype=bool))
