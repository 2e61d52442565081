"""Evaluation metrics for multi-label classification and token-level NER.

One rule covers every undefined value, and :func:`_row` alone applies it:
a zero denominator, or AUROC over a single-class truth vector, leaves a
metric undefined; F1 is undefined only when precision and recall both are,
and 0.0 when just one is undefined or both are zero. A row shows an
undefined value as 0.0, each macro mean skips the classes where its metric
is undefined, and ``excluded`` names them. AUROC is absent, not undefined,
when the input has no scores (hard-tag NER): None in every row, excluded
nowhere. Reports carry percent-scaled values, rendered with two decimals.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .corpus import write_artifacts


class UndefinedMetricError(ValueError):
    """The metric has no value on this input (for example single-class AUROC)."""


def auroc(scores: Sequence[float], truths: Sequence[bool]) -> float:
    """Probability that a random positive outranks a random negative,
    counting exact score ties as one half. Rank-based; identical to
    brute-force pair counting up to exact float arithmetic."""
    s = [float(x) for x in scores]
    t = [bool(x) for x in truths]
    if len(s) != len(t):
        raise ValueError("scores and truths must be parallel 1-d sequences")
    n_pos = sum(t)
    n_neg = len(t) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC undefined: truth has a single class")
    pairs = list(zip(s, t))
    # by score, ties in input order; NaN equals nothing, so each NaN ranks on
    # its own, after every number
    ranked = sorted((pair for pair in pairs if pair[0] == pair[0]), key=itemgetter(0))
    ranked += (pair for pair in pairs if pair[0] != pair[0])
    # the tied scores at positions start .. k - 1 share the mean rank
    # (start + k + 1) / 2; ranks are half-integers, so the sum is exact
    rank_sum = 0.0
    start = positives = 0
    for k, (score, truth) in enumerate(ranked):
        if score != ranked[start][0]:
            rank_sum += (start + k + 1) / 2.0 * positives
            start, positives = k, 0
        positives += truth
    rank_sum += (start + len(ranked) + 1) / 2.0 * positives
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def prf(predictions: Sequence[bool], truths: Sequence[bool]) -> tuple[float, float, float]:
    """Precision, recall, F1 from parallel boolean vectors.

    Zero denominators yield 0.0, matching the report convention.
    """
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths must be parallel")
    row, _ = _row(None, *_confusion(predictions, truths), 0, scored=False)
    return row.precision / 100.0, row.recall / 100.0, row.f1 / 100.0


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


def _area(scores: Sequence[float], truths: Sequence[bool]) -> float | None:
    """Percent-scaled AUROC, None where it is undefined."""
    try:
        return auroc(scores, truths) * 100.0
    except UndefinedMetricError:
        return None


@dataclass
class ClassMetrics:
    """Percent-scaled metric row. ``auroc`` is None where no score-based
    metric exists (hard-tag NER input)."""

    auroc: float | None
    f1: float
    precision: float
    recall: float
    support: int


_METRICS = ("auroc", "f1", "precision", "recall")


def _row(
    area: float | None, tp: int, fp: int, fn: int, support: int, scored: bool = True
) -> tuple[ClassMetrics, dict[str, float | None]]:
    """The report row of one class and its percent-scaled metrics, each
    None where undefined (see the module docstring). ``area`` is the AUROC;
    without ``scored`` it is absent and not among the metrics."""
    precision = tp / (tp + fp) * 100.0 if tp + fp else None
    recall = tp / (tp + fn) * 100.0 if tp + fn else None
    if precision is None and recall is None:
        f1 = None
    elif precision and recall:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    metrics = {"f1": f1, "precision": precision, "recall": recall}
    if scored:
        metrics["auroc"] = area
    shown = {key: 0.0 if value is None else value for key, value in metrics.items()}
    return ClassMetrics(auroc=shown.pop("auroc", None), support=support, **shown), metrics


@dataclass
class MetricReport:
    classes: list[str]
    per_class: dict[str, ClassMetrics]
    macro: ClassMetrics
    micro: ClassMetrics | None = None
    excluded: dict[str, list[str]] = field(default_factory=dict)

    def to_obj(self) -> dict:
        obj = asdict(self)
        if self.micro is None:
            del obj["micro"]
        return obj


def _report(
    results: Mapping[str, tuple[ClassMetrics, dict[str, float | None]]],
    scored: bool,
    macro_support: int,
    micro: ClassMetrics | None = None,
) -> MetricReport:
    """The report over the :func:`_row` results of its classes: each macro
    mean skips the classes where its metric is undefined and ``excluded``
    names them. Without ``scored`` the input has no scores, and the macro
    AUROC is absent."""
    means: dict[str, float | None] = {"auroc": None}
    excluded: dict[str, list[str]] = {}
    for key in _METRICS if scored else _METRICS[1:]:
        defined = [m[key] for _, m in results.values() if m[key] is not None]
        means[key] = sum(defined) / len(defined) if defined else 0.0
        if len(defined) < len(results):
            excluded[key] = sorted(cls for cls, (_, m) in results.items() if m[key] is None)
    per_class = {cls: row for cls, (row, _) in results.items()}
    macro = ClassMetrics(**means, support=macro_support)
    return MetricReport(list(per_class), per_class, macro, micro, excluded)


def check_labels(labels: Iterable[str]) -> None:
    """A label given twice is a ``ValueError``: it would repeat a report row."""
    repeated = [label for label, n in Counter(labels).items() if n > 1]
    if repeated:
        raise ValueError(f"label {repeated[0]!r} is given twice")


@dataclass
class ScoredPredictions:
    """Per-class parallel score/truth vectors over the same instances."""

    classes: list[str]
    scores: dict[str, list[float]]
    truths: dict[str, list[bool]]

    def __post_init__(self) -> None:
        check_labels(self.classes)
        for cls in self.classes:
            if len(self.scores[cls]) != len(self.truths[cls]):
                raise ValueError(f"scores and truths differ in length for {cls!r}")


def multilabel_report(
    predictions: ScoredPredictions, threshold: float = 0.5
) -> MetricReport:
    """Per-class AUROC plus thresholded precision/recall/F1.

    A score at or above the threshold counts as a predicted positive. A
    threshold that is not a finite number is a ``ValueError``.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be a finite number, not {threshold!r}")
    results = {}
    for cls in predictions.classes:
        scores = predictions.scores[cls]
        truths = predictions.truths[cls]
        tp, fp, fn = _confusion((s >= threshold for s in scores), truths)
        results[cls] = _row(_area(scores, truths), tp, fp, fn, tp + fn)
    return _report(results, True, sum(row.support for row, _ in results.values()))


def tag_class(tag: str) -> str | None:
    """Strip the BIO prefix: B-X and I-X map to X, O maps to None. A bare
    tag without a prefix is taken as its own class."""
    if tag == "O":
        return None
    if tag.startswith("B-") or tag.startswith("I-"):
        return tag[2:]
    return tag


def ner_token_report(
    gold_tags: Sequence[Sequence[str]],
    pred_tags: Sequence[Sequence[str]],
    labels: Sequence[str] | None = None,
    token_scores: Sequence[Sequence[Mapping[str, float]]] | None = None,
) -> MetricReport:
    """Token-level metrics after collapsing BIO prefixes; O tokens are not a
    class. ``micro`` aggregates counts over all classes ("global" row).
    With ``token_scores``, one score map per token of each document, a
    per-class AUROC over tokens is added. A label given twice is a
    ``ValueError``."""
    if len(gold_tags) != len(pred_tags):
        raise ValueError(
            "gold and predictions have different document counts: "
            f"{len(gold_tags)} gold, {len(pred_tags)} predicted"
        )
    if token_scores is not None and len(token_scores) != len(gold_tags):
        raise ValueError("token_scores and gold have different document counts")
    flat_gold: list[str | None] = []
    flat_pred: list[str | None] = []
    for doc_idx, (g, p) in enumerate(zip(gold_tags, pred_tags)):
        if len(g) != len(p):
            raise ValueError(f"tag length mismatch in document {doc_idx}")
        if token_scores is not None and len(token_scores[doc_idx]) != len(g):
            raise ValueError(f"token_scores do not align with the tags of document {doc_idx}")
        flat_gold.extend(map(tag_class, g))
        flat_pred.extend(map(tag_class, p))
    flat_scores: list[Mapping[str, float]] | None = None
    if token_scores is not None:
        flat_scores = [sc for doc in token_scores for sc in doc]
    # one count table of (gold class, predicted class) pairs; None is O
    pairs = Counter(zip(flat_gold, flat_pred))
    tp, fp, fn = Counter(), Counter(), Counter()
    for (g, p), n in pairs.items():
        if g == p:
            tp[g] += n
        else:
            fp[p] += n
            fn[g] += n
    observed = {c for pair in pairs for c in pair} - {None}
    classes = list(labels) if labels is not None else sorted(observed)
    check_labels(classes)
    scored = flat_scores is not None
    results = {}
    for cls in classes:
        area = None
        if scored:
            area = _area([sc.get(cls, 0.0) for sc in flat_scores], [g == cls for g in flat_gold])
        results[cls] = _row(area, tp[cls], fp[cls], fn[cls], tp[cls] + fn[cls], scored)
    support = sum(n for (g, _), n in pairs.items() if g is not None)
    totals = (sum(c[cls] for cls in classes) for c in (tp, fp, fn))
    micro, _ = _row(None, *totals, support, scored=False)
    return _report(results, scored, support, micro)


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.2f}"


def render_report_tsv(report: MetricReport) -> str:
    """Tab-separated table: Class, AUROC, F1, Precision, Recall. Percent
    values with two decimals; a Macro row and, when present, a Global row."""
    rows = [(cls, report.per_class[cls]) for cls in report.classes]
    rows.append(("Macro", report.macro))
    if report.micro is not None:
        rows.append(("Global", report.micro))
    lines = ["Class\tAUROC\tF1\tPrecision\tRecall"]
    lines += [
        f"{name}\t{_fmt(m.auroc)}\t{_fmt(m.f1)}\t{_fmt(m.precision)}\t{_fmt(m.recall)}"
        for name, m in rows
    ]
    return "\n".join(lines) + "\n"


def write_report(report: MetricReport, json_path=None, tsv_path=None) -> None:
    write_artifacts((json_path, report.to_obj()), (tsv_path, render_report_tsv(report)))


def _is_score_map(obj: object) -> bool:
    # a score converts to a finite float; JSON's NaN, Infinity and true load
    # as a float or a bool, and none of them ranks
    return isinstance(obj, Mapping) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
        for v in obj.values()
    )


def prediction_scores(row: object) -> tuple[str, Mapping[str, float]]:
    """The id and the score map of one classification prediction row: an
    object with a string ``id`` and a ``scores`` object of finite numbers. A
    row of another shape is a ``ValueError``."""
    doc_id = row.get("id") if isinstance(row, Mapping) else None
    if not isinstance(doc_id, str):
        raise ValueError("prediction row is not an object with a string 'id'")
    if not _is_score_map(row.get("scores")):
        raise ValueError(
            f"prediction row {doc_id!r} without a 'scores' object of finite numbers"
        )
    return doc_id, row["scores"]


def ner_prediction(row: object) -> tuple[list[str], list[Mapping[str, float]] | None]:
    """The tags and, when given, the per-token score maps of one NER
    prediction row: an object with a ``tags`` list of strings and an
    optional ``scores`` list of objects of finite numbers, one per tag. A row
    of another shape is a ``ValueError``."""
    tags = row.get("tags") if isinstance(row, Mapping) else None
    if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
        raise ValueError("NER prediction row without a 'tags' list of strings")
    scores = row.get("scores")
    if scores is not None and not (
        isinstance(scores, list) and all(_is_score_map(sc) for sc in scores)
    ):
        raise ValueError("NER prediction 'scores' must be a list of objects of finite numbers")
    if scores is not None and len(scores) != len(tags):
        raise ValueError(f"NER prediction has {len(tags)} tags but {len(scores)} score maps")
    return tags, scores


def load_classification_predictions(
    gold_examples: Iterable[tuple[str, set[str]]],
    predictions: Iterable[tuple[str, Mapping[str, float]]],
    labels: Sequence[str] | None = None,
) -> ScoredPredictions:
    """Join gold ``(id, label set)`` pairs with prediction ``(id, score
    map)`` pairs, as :func:`prediction_scores` reads them, by document id.
    Instances without a prediction score 0.0 for every class.
    """
    gold = {doc_id: label_set for doc_id, label_set in gold_examples}
    scores_by_id = dict(predictions)
    unknown = set(scores_by_id) - set(gold)
    if unknown:
        raise ValueError(f"predictions for unknown ids: {sorted(unknown)[:5]}")
    if labels is None:
        observed: set[str] = set()
        for label_set in gold.values():
            observed |= label_set
        for sc in scores_by_id.values():
            observed |= set(sc)
        labels = sorted(observed)
    ordered_ids = list(gold)
    return ScoredPredictions(
        classes=list(labels),
        scores={
            cls: [float(scores_by_id.get(i, {}).get(cls, 0.0)) for i in ordered_ids]
            for cls in labels
        },
        truths={cls: [cls in gold[i] for i in ordered_ids] for cls in labels},
    )
