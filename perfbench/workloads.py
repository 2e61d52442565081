"""The benchmark's workloads: seeded inputs, the CLI calls of one job, and
the checks on what a job wrote.

Inputs are generated with ``medcorpus.synth`` and written here, so the
program under test only ever sees files. The same seed gives byte-identical
input files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
# sha256 of every artifact of each workload at the default seed
DIGESTS = Path(__file__).resolve().parent / "digests.json"

THRESHOLD = 0.75

# pipeline-mixed: radiology reports with planted near-duplicates plus PII notes
MIXED_RADIOLOGY_DOCS = 6000
MIXED_DUP_RATE = 0.19
MIXED_PII_DOCS = 600
# pipeline-pii-gaz20k: PII notes against a large gazetteer
GAZ_PII_DOCS = 700
# one planted name per note (the generator's default is two): with two, the
# number of notes dedup removes, and with it the text left to anonymize,
# varies by a tenth between seeds; with one it stays the same to within 1%
GAZ_NAMES_PER_DOC = 1
GAZ_DATES_PER_DOC = 2
GAZ_ENTRIES = 20000
# vocab-eval-radiology
VOCAB_TRAIN_DOCS = 1000
VOCAB_HELDOUT_DOCS = 1500
VOCAB_SIZE = 200
VOCAB_MIN_WORD_FREQ = 20
BENCH_PATIENTS = 1000
BENCH_DOCS_PER_PATIENT = 3
BENCH_SIZES = (1500, 600, 600)
# with 20 codes every label reaches test support, so no document is dropped
# and all patient groups keep their size: the exact split sizes are feasible
BENCH_CODES = 20


def _sub_seed(seed: int, k: int) -> int:
    return seed * 100 + k


def _doc_obj(doc) -> dict:
    # written here rather than by medcorpus, so that the input bytes stay the
    # same when the program's own writer changes
    obj = {"id": doc.id, "source": doc.source, "text": doc.text}
    if doc.doc_date is not None:
        obj["date"] = doc.doc_date.isoformat()
    if doc.patient_ref is not None:
        obj["patient_ref"] = doc.patient_ref
    return obj


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_pipeline_config(inputs: Path, data_file: str, gazetteer_file: str) -> None:
    config = {
        "inputs": [{"path": data_file}],
        "dedup": {"threshold": THRESHOLD},
        "anonymize": {"gazetteer": gazetteer_file},
    }
    (inputs / "pipeline.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def filler_gazetteer(planted: list[str], n_entries: int, seed: int, avoid: set[str]) -> list[str]:
    """The planted name parts plus seeded capitalised filler entries that
    never occur as a word in ``avoid``."""
    rng = random.Random(seed)
    entries = set(planted)
    letters = "abcdefghijklmnopqrstuvwxyzäöü"
    while len(entries) < n_entries:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(5, 10))).capitalize()
        if word not in avoid:
            entries.add(word)
    return sorted(entries)


def _words(texts) -> set[str]:
    return {w.strip(".,;:") for t in texts for w in t.split()}


@dataclass
class Step:
    """One CLI invocation of a job, with an optional untimed preparation."""

    argv: list[str]
    prepare: Callable[[], None] | None = None


class Workload:
    name = ""
    # the kind of calibration piece that scales this workload's job times
    calibration = "interpreter"

    def sizes(self) -> dict:
        raise NotImplementedError

    def generate(self, seed: int, inputs: Path) -> dict:
        """Write the inputs; return facts the checks need."""
        raise NotImplementedError

    def steps(self, inputs: Path, out: Path, facts: dict) -> list[Step]:
        raise NotImplementedError

    def check(self, inputs: Path, out: Path, facts: dict) -> list[str]:
        """Semantic checks that hold on any seed; returns failure messages."""
        raise NotImplementedError


def _check_anonymization(out: Path) -> list[str]:
    report = _read_json(out / "anonymization_report.json")
    if report.get("passed") is not True:
        return [f"anonymization self-verify failed: {len(report.get('residuals', {}))} residual docs"]
    return []


class PipelineMixed(Workload):
    name = "pipeline-mixed"

    def sizes(self) -> dict:
        return {
            "radiology_docs": MIXED_RADIOLOGY_DOCS,
            "dup_rate": MIXED_DUP_RATE,
            "pii_docs": MIXED_PII_DOCS,
            "threshold": THRESHOLD,
        }

    def generate(self, seed: int, inputs: Path) -> dict:
        from medcorpus import synth

        rad = synth.radiology_corpus(MIXED_RADIOLOGY_DOCS, MIXED_DUP_RATE, _sub_seed(seed, 1))
        pii = synth.pii_corpus(MIXED_PII_DOCS, _sub_seed(seed, 2))
        _write_jsonl(inputs / "corpus.jsonl", [_doc_obj(d) for d in rad.documents + pii.documents])
        (inputs / "names.txt").write_text("\n".join(pii.names) + "\n", encoding="utf-8")
        _write_pipeline_config(inputs, "corpus.jsonl", "names.txt")
        return {"planted_radiology_duplicates": len(rad.duplicate_ids)}

    def steps(self, inputs: Path, out: Path, facts: dict) -> list[Step]:
        return [Step(["pipeline", "--config", str(inputs / "pipeline.json"), "--out-dir", str(out)])]

    def check(self, inputs: Path, out: Path, facts: dict) -> list[str]:
        failures = _check_anonymization(out)
        removed = _read_json(out / "dedup_report.json")["radiology-report"]["n_removed"]
        planted = facts["planted_radiology_duplicates"]
        if removed != planted:
            failures.append(f"radiology dedup removed {removed}, planted {planted}")
        return failures


class PipelinePiiGaz20k(Workload):
    name = "pipeline-pii-gaz20k"
    # scanning with the 20k-entry alternation regex dominates
    calibration = "large-regex"

    def sizes(self) -> dict:
        return {
            "pii_docs": GAZ_PII_DOCS,
            "names_per_doc": GAZ_NAMES_PER_DOC,
            "dates_per_doc": GAZ_DATES_PER_DOC,
            "gazetteer_entries": GAZ_ENTRIES,
            "threshold": THRESHOLD,
        }

    def generate(self, seed: int, inputs: Path) -> dict:
        from medcorpus import synth

        pii = synth.pii_corpus(
            GAZ_PII_DOCS, _sub_seed(seed, 1),
            names_per_doc=GAZ_NAMES_PER_DOC, dates_per_doc=GAZ_DATES_PER_DOC,
        )
        _write_jsonl(inputs / "corpus.jsonl", [_doc_obj(d) for d in pii.documents])
        avoid = _words(d.text for d in pii.documents)
        entries = filler_gazetteer(pii.names, GAZ_ENTRIES, _sub_seed(seed, 2), avoid)
        (inputs / "names.txt").write_text("\n".join(entries) + "\n", encoding="utf-8")
        _write_pipeline_config(inputs, "corpus.jsonl", "names.txt")
        return {}

    def steps(self, inputs: Path, out: Path, facts: dict) -> list[Step]:
        return [Step(["pipeline", "--config", str(inputs / "pipeline.json"), "--out-dir", str(out)])]

    def check(self, inputs: Path, out: Path, facts: dict) -> list[str]:
        return _check_anonymization(out)


def write_scores(out: Path, seed: int) -> None:
    """Seeded classifier scores for the test split: a noisy copy of the gold
    labels, so every metric has a defined, non-trivial value."""
    rng = random.Random(_sub_seed(seed, 9))
    labels = [l for l in (out / "task" / "labels.txt").read_text(encoding="utf-8").split("\n") if l]
    rows = []
    for ex in _read_jsonl(out / "task" / "test.jsonl"):
        gold = set(ex["labels"])
        scores = {lab: round(0.35 * (lab in gold) + 0.65 * rng.random(), 6) for lab in labels}
        rows.append({"id": ex["id"], "scores": scores})
    _write_jsonl(out / "scores.jsonl", rows)


class VocabEvalRadiology(Workload):
    name = "vocab-eval-radiology"

    def sizes(self) -> dict:
        return {
            "train_docs": VOCAB_TRAIN_DOCS,
            "heldout_docs": VOCAB_HELDOUT_DOCS,
            "vocab_size": VOCAB_SIZE,
            "min_word_freq": VOCAB_MIN_WORD_FREQ,
            "bench_patients": BENCH_PATIENTS,
            "bench_docs_per_patient": BENCH_DOCS_PER_PATIENT,
            "bench_sizes": list(BENCH_SIZES),
            "bench_codes": BENCH_CODES,
        }

    def generate(self, seed: int, inputs: Path) -> dict:
        from medcorpus import synth

        rad = synth.radiology_corpus(VOCAB_TRAIN_DOCS + VOCAB_HELDOUT_DOCS, 0.0, _sub_seed(seed, 1))
        docs = [_doc_obj(d) for d in rad.documents]
        _write_jsonl(inputs / "train.jsonl", docs[:VOCAB_TRAIN_DOCS])
        _write_jsonl(inputs / "heldout.jsonl", docs[VOCAB_TRAIN_DOCS:])
        coded = synth.benchmark_corpus(
            BENCH_PATIENTS, BENCH_DOCS_PER_PATIENT, _sub_seed(seed, 2), n_codes=BENCH_CODES
        )
        _write_jsonl(inputs / "coded_docs.jsonl", [_doc_obj(d) for d in coded.documents])
        with open(inputs / "codes.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, ["patient_ref", "code", "system", "date"], lineterminator="\n")
            writer.writeheader()
            writer.writerows(coded.code_rows)
        return {"seed": seed, "patient_of": {d.id: d.patient_ref for d in coded.documents}}

    def steps(self, inputs: Path, out: Path, facts: dict) -> list[Step]:
        task = out / "task"
        return [
            Step([
                "vocab", "build", str(inputs / "train.jsonl"), "--out", str(out / "vocab.txt"),
                "--vocab-size", str(VOCAB_SIZE), "--min-word-freq", str(VOCAB_MIN_WORD_FREQ),
            ]),
            Step([
                "fertility", str(inputs / "heldout.jsonl"), "--vocab", str(out / "vocab.txt"),
                "--out", str(out / "fertility.json"),
            ]),
            Step([
                "bench", "build", str(inputs / "coded_docs.jsonl"), str(inputs / "codes.csv"),
                "--chapter", "5-", "--sizes", *map(str, BENCH_SIZES), "--out-dir", str(task),
            ]),
            Step(
                [
                    "eval", "clf", "--gold", str(task / "test.jsonl"),
                    "--pred", str(out / "scores.jsonl"), "--labels", str(task / "labels.txt"),
                    "--report", str(out / "eval.json"), "--tsv", str(out / "eval.tsv"),
                ],
                prepare=lambda: write_scores(out, facts["seed"]),
            ),
        ]

    def check(self, inputs: Path, out: Path, facts: dict) -> list[str]:
        failures = []
        fert = _read_json(out / "fertility.json")
        if not fert["fertility"] >= 1.0 or fert["n_words"] <= 0:
            failures.append(f"implausible fertility report {fert}")
        n_tokens = len((out / "vocab.txt").read_text(encoding="utf-8").splitlines())
        if n_tokens != VOCAB_SIZE:
            failures.append(f"vocabulary has {n_tokens} tokens, asked for {VOCAB_SIZE}")
        patient_of = facts["patient_of"]
        owner: dict[str, str] = {}
        for part, size in zip(("train", "valid", "test"), BENCH_SIZES):
            rows = _read_jsonl(out / "task" / f"{part}.jsonl")
            if len(rows) != size:
                failures.append(f"{part} split has {len(rows)} examples, asked for {size}")
            for row in rows:
                patient = patient_of[row["id"]]
                if owner.setdefault(patient, part) != part:
                    failures.append(f"patient {patient} in both {owner[patient]} and {part}")
                    break
        n_labels = len((out / "task" / "labels.txt").read_text(encoding="utf-8").split())
        n_classes = len(_read_json(out / "eval.json")["classes"])
        if n_classes != n_labels:
            failures.append(f"eval report has {n_classes} classes, task has {n_labels} labels")
        return failures


WORKLOADS = {w.name: w for w in (PipelineMixed(), PipelinePiiGaz20k(), VocabEvalRadiology())}


def recorded_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}


def record_digests(name: str, digests: dict[str, str]) -> None:
    recorded = recorded_digests()
    recorded[name] = digests
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every file a job wrote, by path relative to ``out``."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
