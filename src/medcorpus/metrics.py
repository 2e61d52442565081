"""Evaluation metrics for multi-label classification and token-level NER.

Conventions: every zero-denominator metric is reported as 0.0 and the
class is excluded from the corresponding macro mean; AUROC over a
single-class truth vector is undefined in the same way. Reports carry
percent-scaled values and are rendered with two decimals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import write_json, write_text


class UndefinedMetricError(ValueError):
    """The metric has no value on this input (for example single-class AUROC)."""


def auroc(scores: Sequence[float], truths: Sequence[bool]) -> float:
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


def prf(predictions: Sequence[bool], truths: Sequence[bool]) -> tuple[float, float, float]:
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


@dataclass
class ClassMetrics:
    """Percent-scaled metric row. ``auroc`` is None where no score-based
    metric exists (hard-tag NER input)."""

    auroc: float | None
    f1: float
    precision: float
    recall: float
    support: int


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


@dataclass
class ScoredPredictions:
    """Per-class parallel score/truth vectors over the same instances."""

    classes: list[str]
    scores: dict[str, list[float]]
    truths: dict[str, list[bool]]

    def __post_init__(self) -> None:
        for cls in self.classes:
            if len(self.scores[cls]) != len(self.truths[cls]):
                raise ValueError(f"scores and truths differ in length for {cls!r}")


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


def multilabel_report(
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
    if json_path is not None:
        write_json(json_path, report.to_obj())
    if tsv_path is not None:
        write_text(tsv_path, [render_report_tsv(report)])


def _is_score_map(obj: object) -> bool:
    return isinstance(obj, Mapping) and all(isinstance(v, (int, float)) for v in obj.values())


def prediction_scores(row: object) -> tuple[str, Mapping[str, float]]:
    """The id and the score map of one classification prediction row: an
    object with a string ``id`` and a ``scores`` object of numbers. A row of
    another shape is a ``ValueError``."""
    doc_id = row.get("id") if isinstance(row, Mapping) else None
    if not isinstance(doc_id, str):
        raise ValueError("prediction row is not an object with a string 'id'")
    if not _is_score_map(row.get("scores")):
        raise ValueError(f"prediction row {doc_id!r} without a 'scores' object of numbers")
    return doc_id, row["scores"]


def ner_prediction(row: object) -> tuple[list[str], list[Mapping[str, float]] | None]:
    """The tags and, when given, the per-token score maps of one NER
    prediction row: an object with a ``tags`` list and an optional
    ``scores`` list of objects of numbers. A row of another shape is a
    ``ValueError``."""
    tags = row.get("tags") if isinstance(row, Mapping) else None
    if not isinstance(tags, list):
        raise ValueError("NER prediction row without 'tags' list")
    scores = row.get("scores")
    if scores is not None and not (
        isinstance(scores, list) and all(_is_score_map(sc) for sc in scores)
    ):
        raise ValueError("NER prediction 'scores' must be a list of objects of numbers")
    return [str(t) for t in tags], scores


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
