"""Benchmark dataset construction from coded clinical documents.

A task is built in three moves: attach billing codes to documents as
labels, stratify into fixed-size train/validation/test splits with an
iterative rarest-label-first procedure, and keep only labels with enough
test-set support. Because label selection and the realized split depend
on each other, the builder iterates the two to a fixed point.
"""

from __future__ import annotations

import csv
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date as _date
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Document, open_text, read_jsonl, write_jsonl, write_text

SYSTEM_ICD10 = "icd10"
SYSTEM_OPS = "ops"

POLICY_DATE_MATCHED = "date-matched"
POLICY_PATIENT_ALL = "patient-all"

_ICD_RE = re.compile(r"^[A-Z]\d{2}")
_OPS_RE = re.compile(r"^\d-\d")
# what load_conll reads as a field or line break
_CONLL_BREAKS = re.compile(r"[\t\n\r]")


class EmptyTaskError(ValueError):
    """No label survives the test support threshold."""


class InfeasibleSplitError(ValueError):
    pass


@dataclass(frozen=True)
class CodeRecord:
    patient_ref: str
    code: str
    system: str
    code_date: _date

    def __post_init__(self) -> None:
        if not self.patient_ref:
            raise ValueError("patient_ref must be non-empty")
        if self.system == SYSTEM_ICD10:
            if not _ICD_RE.match(self.code):
                raise ValueError(f"code {self.code!r} does not look like ICD-10")
        elif self.system == SYSTEM_OPS:
            if not _OPS_RE.match(self.code):
                raise ValueError(f"code {self.code!r} does not look like OPS")
        else:
            raise ValueError(f"unknown code system {self.system!r}")


_CODE_COLUMNS = ("patient_ref", "code", "system", "date")


def load_code_records(path: str | Path) -> list[CodeRecord]:
    """Read a codes CSV (UTF-8 with an optional byte order mark) whose header
    names the columns patient_ref, code, system and date, in any order. A
    row of another shape is a ``ValueError`` that names the file and line."""
    records: list[CodeRecord] = []
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or not set(_CODE_COLUMNS).issubset(reader.fieldnames):
                raise ValueError(f"the header must name the columns {list(_CODE_COLUMNS)}")
            for row in reader:
                values = [row[key] for key in _CODE_COLUMNS]
                if None in values:
                    raise ValueError("row has fewer fields than the header")
                records.append(CodeRecord(*values[:3], _date.fromisoformat(values[3])))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return records


@dataclass
class LabeledExample:
    doc_id: str
    text: str
    labels: set[str]
    patient_ref: str | None = None

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError(f"example {self.doc_id!r} has an empty label set")


@dataclass
class TokenLabeledExample:
    doc_id: str
    tokens: list[str]
    tags: list[str]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.tags):
            raise ValueError(f"example {self.doc_id!r}: tokens and tags differ in length")
        if not self.tokens:
            raise ValueError(f"example {self.doc_id!r} is empty")


def _check_tag(prev: str | None, tag: str) -> None:
    """Reject a tag that is not O, B-X or I-X, and an I-X that does not
    continue a B-X or I-X run from ``prev``, the tag before it (None at the
    start of a document)."""
    if tag.startswith("I-"):
        cls = tag[2:]
        if prev not in (f"B-{cls}", f"I-{cls}"):
            raise ValueError(f"dangling {tag} after {prev}")
    elif tag != "O" and not tag.startswith("B-"):
        raise ValueError(f"malformed tag {tag!r}")


def validate_bio(tags: Sequence[str]) -> None:
    """Reject tag sequences that are not BIO (see :func:`_check_tag`)."""
    for prev, tag in zip([None, *tags], tags):
        _check_tag(prev, tag)


def icd_category(code: str) -> str:
    """Truncate an ICD-10 code to its three-character category."""
    return code[:3]


def assign_codes(
    docs: Sequence[Document],
    codes: Sequence[CodeRecord],
    policy: str = POLICY_DATE_MATCHED,
    chapter_filter: str | None = None,
    icd_as_category: bool = True,
) -> tuple[list[LabeledExample], int]:
    """Turn documents plus code records into labeled examples.

    date-matched takes only codes of the same patient dated exactly like
    the document; patient-all takes every code of the patient. The chapter
    filter keeps codes with the given prefix ("5-" selects the surgery
    chapter). Documents ending up with no labels are dropped; the count of
    dropped documents is returned alongside the examples.
    """
    if policy not in (POLICY_DATE_MATCHED, POLICY_PATIENT_ALL):
        raise ValueError(f"unknown assignment policy {policy!r}")
    by_patient: dict[str, list[CodeRecord]] = {}
    for rec in codes:
        by_patient.setdefault(rec.patient_ref, []).append(rec)
    examples: list[LabeledExample] = []
    n_dropped = 0
    for doc in docs:
        if not doc.patient_ref:
            raise ValueError(f"document {doc.id!r} has no patient_ref")
        if policy == POLICY_DATE_MATCHED and doc.doc_date is None:
            raise ValueError(f"document {doc.id!r} has no date but policy is date-matched")
        labels: set[str] = set()
        for rec in by_patient.get(doc.patient_ref, ()):
            if policy == POLICY_DATE_MATCHED and rec.code_date != doc.doc_date:
                continue
            label = rec.code
            if icd_as_category and rec.system == SYSTEM_ICD10:
                label = icd_category(label)
            if chapter_filter is not None and not label.startswith(chapter_filter):
                continue
            labels.add(label)
        if labels:
            examples.append(LabeledExample(doc.id, doc.text, labels, doc.patient_ref))
        else:
            n_dropped += 1
    return examples, n_dropped


@dataclass(frozen=True)
class SplitSpec:
    n_train: int = 1000
    n_valid: int = 500
    n_test: int = 500
    seed: int = 0
    min_test_support: int = 10

    def __post_init__(self) -> None:
        if min(self.n_train, self.n_valid, self.n_test) < 0:
            raise ValueError("split sizes must be >= 0")
        if self.min_test_support < 0:
            raise ValueError("min_test_support must be >= 0")

    @property
    def total(self) -> int:
        return self.n_train + self.n_valid + self.n_test


@dataclass
class Split:
    train: list[LabeledExample]
    valid: list[LabeledExample]
    test: list[LabeledExample]
    rest: list[LabeledExample] = field(default_factory=list)


def stratified_split(
    examples: Sequence[LabeledExample],
    spec: SplitSpec,
    group_by_patient: bool = True,
) -> Split:
    """Iterative multi-label stratification into exact split sizes.

    Examples sharing a patient_ref move as one group when grouping is on.
    The label with the fewest remaining examples is placed first; each
    group goes to the split with the greatest remaining demand for that
    label, ties broken by remaining capacity and then by a seeded draw.
    Everything beyond the requested sizes lands in ``rest``.
    """
    n = len(examples)
    if n < spec.total:
        raise InfeasibleSplitError(f"need {spec.total} examples, have {n}")
    rng = random.Random(spec.seed)

    groups: list[list[int]] = []
    if group_by_patient:
        by_patient: dict[str, int] = {}
        for i, ex in enumerate(examples):
            if ex.patient_ref is None:
                groups.append([i])
            elif ex.patient_ref in by_patient:
                groups[by_patient[ex.patient_ref]].append(i)
            else:
                by_patient[ex.patient_ref] = len(groups)
                groups.append([i])
    else:
        groups = [[i] for i in range(n)]

    capacities = [spec.n_train, spec.n_valid, spec.n_test, n - spec.total]
    label_total = Counter()
    for ex in examples:
        label_total.update(ex.labels)
    demand = [
        {lab: cnt * capacities[s] / n for lab, cnt in label_total.items()}
        for s in range(4)
    ]
    assignment: list[int | None] = [None] * len(groups)
    unassigned = set(range(len(groups)))

    while unassigned:
        counts: Counter = Counter()
        for gi in unassigned:
            for i in groups[gi]:
                counts.update(examples[i].labels)
        target_label = min(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
        batch = sorted(
            gi
            for gi in unassigned
            if any(target_label in examples[i].labels for i in groups[gi])
        )
        rng.shuffle(batch)
        for gi in batch:
            size = len(groups[gi])
            eligible = [s for s in range(4) if capacities[s] >= size]
            if not eligible:
                raise InfeasibleSplitError(
                    f"no split can hold a patient group of size {size}"
                )
            best_demand = max(demand[s][target_label] for s in eligible)
            tied = [s for s in eligible if demand[s][target_label] == best_demand]
            if len(tied) > 1:
                best_cap = max(capacities[s] for s in tied)
                tied = [s for s in tied if capacities[s] == best_cap]
            chosen = tied[0] if len(tied) == 1 else rng.choice(tied)
            assignment[gi] = chosen
            capacities[chosen] -= size
            for i in groups[gi]:
                for lab in examples[i].labels:
                    demand[chosen][lab] -= 1
            unassigned.discard(gi)

    buckets: list[list[int]] = [[], [], [], []]
    for gi, dest in enumerate(assignment):
        assert dest is not None
        buckets[dest].extend(groups[gi])
    parts = [[examples[i] for i in sorted(bucket)] for bucket in buckets]
    return Split(parts[0], parts[1], parts[2], parts[3])


def select_labels(
    all_examples: Sequence[LabeledExample],
    test_examples: Sequence[LabeledExample],
    min_test_support: int,
) -> list[str]:
    """Labels ordered by global frequency (descending, ties alphabetical),
    restricted to those with enough test-set examples. An empty selection
    is an error: the task would have nothing to predict."""
    global_counts = Counter()
    for ex in all_examples:
        global_counts.update(ex.labels)
    test_counts = Counter()
    for ex in test_examples:
        test_counts.update(ex.labels)
    selected = [
        lab
        for lab, _ in sorted(global_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if test_counts[lab] >= min_test_support
    ]
    if not selected:
        raise EmptyTaskError(
            f"no label reaches test support {min_test_support}"
        )
    return selected


@dataclass
class TaskBundle:
    labels: list[str]
    split: Split
    n_dropped_empty: int
    n_iterations: int


_MAX_FIXED_POINT_ITERATIONS = 10


def build_task(
    examples: Sequence[LabeledExample],
    spec: SplitSpec,
    group_by_patient: bool = True,
) -> TaskBundle:
    """Split, select labels on the realized test set, and iterate.

    Examples left without any selected label cannot stay in the task; they
    are removed from the pool and the split is redrawn until no example is
    lost (at most 10 rounds). The final examples carry only selected labels.
    """
    pool = list(examples)
    n_dropped = 0
    for iteration in range(1, _MAX_FIXED_POINT_ITERATIONS + 1):
        split = stratified_split(pool, spec, group_by_patient)
        selected = select_labels(pool, split.test, spec.min_test_support)
        keep = set(selected)
        survivors = [ex for ex in pool if ex.labels & keep]
        if len(survivors) == len(pool):
            restricted = Split(
                [_restrict(ex, keep) for ex in split.train],
                [_restrict(ex, keep) for ex in split.valid],
                [_restrict(ex, keep) for ex in split.test],
                [_restrict(ex, keep) for ex in split.rest],
            )
            return TaskBundle(selected, restricted, n_dropped, iteration)
        n_dropped += len(pool) - len(survivors)
        pool = survivors
    raise InfeasibleSplitError(
        f"label selection did not stabilize in {_MAX_FIXED_POINT_ITERATIONS} iterations"
    )


def _restrict(ex: LabeledExample, keep: set[str]) -> LabeledExample:
    return LabeledExample(ex.doc_id, ex.text, ex.labels & keep, ex.patient_ref)


# --- exports ---------------------------------------------------------------


def write_examples_jsonl(path: str | Path, examples: Iterable[LabeledExample]) -> None:
    """One row per example with its id, text and sorted labels; the patient
    reference stays out of the exported splits."""
    write_jsonl(
        path, ({"id": ex.doc_id, "text": ex.text, "labels": sorted(ex.labels)} for ex in examples)
    )


def _example_from_obj(obj: object) -> LabeledExample:
    if not isinstance(obj, dict):
        raise ValueError("row is not a JSON object")
    for key in ("id", "text"):
        if not isinstance(obj.get(key), str):
            raise ValueError(f"missing or non-string {key!r} field")
    labels = obj.get("labels")
    if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
        raise ValueError("'labels' must be a list of strings")
    patient_ref = obj.get("patient_ref")
    if patient_ref is not None and not isinstance(patient_ref, str):
        raise ValueError("'patient_ref' must be a string")
    return LabeledExample(obj["id"], obj["text"], set(labels), patient_ref)


def load_examples_jsonl(path: str | Path) -> list[LabeledExample]:
    """Examples as :func:`write_examples_jsonl` writes them; a row of another
    shape is a ``ValueError`` that names the file and the line."""
    return read_jsonl(path, _example_from_obj)


def write_conll(path: str | Path, examples: Iterable[TokenLabeledExample]) -> None:
    """Token TAB tag lines, blank line between documents. Exported tag
    sequences must be valid BIO; a TAB, LF or CR in a token or tag, or a byte
    order mark opening the file, is a ``ValueError`` naming document and token."""

    def lines():
        for i, ex in enumerate(examples):
            validate_bio(ex.tags)
            if i:
                yield "\n"
            for j, (token, tag) in enumerate(zip(ex.tokens, ex.tags)):
                if _CONLL_BREAKS.search(token + tag) or (i == j == 0 and token[:1] == "\ufeff"):
                    raise ValueError(
                        f"example {ex.doc_id!r}: token {token!r} tagged {tag!r} is no CoNLL line"
                    )
                yield f"{token}\t{tag}\n"

    write_text(path, lines())


def load_conll(path: str | Path) -> list[TokenLabeledExample]:
    """Documents as :func:`write_conll` writes them; a line that is not
    token TAB tag, or whose tag breaks the document's BIO sequence, is a
    ``ValueError`` that names the file and the line."""
    examples: list[TokenLabeledExample] = []
    tokens: list[str] = []
    tags: list[str] = []
    with open_text(path) as fh:
        for n, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                if tokens:
                    examples.append(
                        TokenLabeledExample(f"doc-{len(examples)}", tokens, tags)
                    )
                    tokens, tags = [], []
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {n}: expected token TAB tag, got {line!r}")
            try:
                _check_tag(tags[-1] if tags else None, parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}: line {n}: {exc}") from None
            tokens.append(parts[0])
            tags.append(parts[1])
    if tokens:
        examples.append(TokenLabeledExample(f"doc-{len(examples)}", tokens, tags))
    return examples


def label_distribution(split: Split, labels: Sequence[str]) -> list[tuple[str, int, int, int]]:
    rows = []
    counters = [Counter(), Counter(), Counter()]
    for counter, part in zip(counters, (split.train, split.valid, split.test)):
        for ex in part:
            counter.update(ex.labels)
    for lab in labels:
        rows.append((lab, counters[0][lab], counters[1][lab], counters[2][lab]))
    return rows


def write_split(split: Split, out_dir: str | Path) -> None:
    """Write train/valid/test JSONL into ``out_dir``, made if missing."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_examples_jsonl(out / "train.jsonl", split.train)
    write_examples_jsonl(out / "valid.jsonl", split.valid)
    write_examples_jsonl(out / "test.jsonl", split.test)


def export_task(bundle: TaskBundle, out_dir: str | Path) -> None:
    """Write the split JSONL, labels.txt, and distribution.tsv."""
    write_split(bundle.split, out_dir)
    out = Path(out_dir)
    write_text(out / "labels.txt", (lab + "\n" for lab in bundle.labels))
    rows = label_distribution(bundle.split, bundle.labels)
    write_text(
        out / "distribution.tsv",
        ("\t".join(map(str, row)) + "\n" for row in [("Class", "Train", "Valid", "Test"), *rows]),
    )
