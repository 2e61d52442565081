"""End-to-end corpus pipeline and pretraining configuration emission.

The pipeline wires ingest, clean, dedup, anonymize, and stats together,
writing every intermediate artifact plus a manifest that records stage
configs (as hashes), input and output counts, and relative file paths.
Running the same config on the same inputs twice yields byte-identical
outputs and manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import anonymize as anon
from . import corpus as corpus_mod
from . import dedup as dedup_mod

PHASE2_LR_WARNING = (
    "learning_rate is null: no reliable peak value is available for phase 2; "
    "set it explicitly before use"
)


@dataclass(frozen=True)
class PretrainConfig:
    phase: int
    seq_len: int
    learning_rate: float | None
    batch_size: int
    warmup_steps: int
    total_steps: int
    optimizer: str
    lr_schedule: str
    warning: str | None = None

    def to_obj(self) -> dict:
        obj = asdict(self)
        if self.warning is None:
            del obj["warning"]
        return obj


def emit_pretrain_config(phase: int) -> PretrainConfig:
    """Fixed two-phase schedule constants.

    Phase 2 has no trustworthy peak learning rate on record, so the field
    is an explicit null plus a warning rather than a guess.
    """
    if phase == 1:
        return PretrainConfig(
            phase=1,
            seq_len=128,
            learning_rate=6e-3,
            batch_size=65536,
            warmup_steps=2000,
            total_steps=7038,
            optimizer="LAMB",
            lr_schedule="polynomial-decay",
        )
    if phase == 2:
        return PretrainConfig(
            phase=2,
            seq_len=512,
            learning_rate=None,
            batch_size=32768,
            warmup_steps=200,
            total_steps=1563,
            optimizer="LAMB",
            lr_schedule="polynomial-decay",
            warning=PHASE2_LR_WARNING,
        )
    raise ValueError(f"unknown pretraining phase {phase}")


# --- pipeline --------------------------------------------------------------


@dataclass
class StageRecord:
    name: str
    config_hash: str
    inputs: list[str]
    outputs: list[str]
    n_in: int
    n_out: int
    details: dict = field(default_factory=dict)


@dataclass
class PipelineManifest:
    stages: list[StageRecord] = field(default_factory=list)


def _config_hash(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()


# the type of the value each key of each config part may hold, as json.loads
# gives it: float is any number, [str] an array of strings; any other key is
# an error, and a null value counts as leaving the key out
_CONFIG_TYPES = {
    "pipeline config": {
        "inputs": list, "clean": dict, "dedup": dict, "anonymize": dict, "stats": dict,
    },
    "input entry": {"path": str, "source": str},
    "clean": {"policies": dict},
    "clean policy": {
        "min_chars": int, "min_pages": int, "chars_per_page": int,
        "stopword_sentence_filter": bool, "stopword_list": [str],
    },
    "dedup": {"threshold": float, "mode": str, "comparison": str, "max_doc_words": int},
    "anonymize": {
        "gazetteer": str, "case_insensitive": bool, "name_wildcard": str, "date_wildcard": str,
    },
    "stats": {"binary_mb": bool},
}
_JSON_NAMES = {
    str: "string", int: "integer", float: "number", bool: "boolean", dict: "object", list: "array"
}


def _has_type(value, kind) -> bool:
    # types are compared exactly: to isinstance a bool is an int
    if isinstance(kind, list):
        return type(value) is list and all(_has_type(x, kind[0]) for x in value)
    return type(value) is kind or (kind is float and type(value) is int)


def _checked(obj, part: str) -> dict:
    """The non-null entries of the config part ``obj``; a non-object, an unknown
    key or a value of another type than :data:`_CONFIG_TYPES` is a ``ValueError``."""
    types = _CONFIG_TYPES[part]
    given = {k: v for k, v in corpus_mod.checked_object(obj, part, types).items() if v is not None}
    for key, value in given.items():
        kind = types[key]
        if not _has_type(value, kind):
            expected = "array of strings" if kind == [str] else _JSON_NAMES[kind]
            raise ValueError(f"{part} {key!r} must be a JSON {expected}, not {value!r}")
    return given


def run_pipeline(
    config: dict, out_dir: str | Path, config_dir: str | Path = "."
) -> tuple[PipelineManifest, anon.AnonymizationReport]:
    """Run ingest, clean, dedup, anonymize, stats on the configured inputs.

    Returns the manifest and the anonymization report, whose residuals say
    which output documents failed the re-scan.

    The whole config, including the gazetteer file, is checked, every input
    file is read and clean, dedup and anonymize all run before the output
    directory is made: an unknown key or a value of the wrong type is a
    ``ValueError``, and a stage that raises leaves no artifact. The four
    document artifacts and their reports are then written in stage order,
    each document object serialized once however many of them hold it; the
    stats artifacts and the manifest follow. Relative input paths are
    resolved against ``config_dir``; the manifest stores them as written in
    the config so that reruns into different output directories stay
    comparable.
    """
    base = Path(config_dir)
    top = _checked(config, "pipeline config")
    inputs = [_checked(entry, "input entry") for entry in top.get("inputs", [])]
    if not inputs or not all("path" in entry for entry in inputs):
        raise ValueError("pipeline config needs 'inputs', each entry with a 'path'")
    # each stage's config hash is over its section as written
    sections = {part: top.get(part, {}) for part in ("clean", "dedup", "anonymize", "stats")}
    cfg = {part: _checked(obj, part) for part, obj in sections.items()}
    policies = corpus_mod.policy_presets()
    for source, obj in cfg["clean"].get("policies", {}).items():
        # the stopword filter without a list uses the default German stopwords
        given = _checked(obj, "clean policy")
        if given.get("stopword_sentence_filter"):
            given.setdefault("stopword_list", corpus_mod.default_german_stopwords())
        policies[source] = corpus_mod.CleanPolicy(**given)
    dd_cfg = dedup_mod.DedupConfig.from_names(**cfg["dedup"])
    an_cfg = cfg["anonymize"]
    wildcards = {k: an_cfg[k] for k in ("name_wildcard", "date_wildcard") if k in an_cfg}
    gaz_file, case_insensitive = an_cfg.get("gazetteer"), an_cfg.get("case_insensitive", False)
    gazetteer = anon.Gazetteer.from_file(base / gaz_file, case_insensitive) if gaz_file else None
    mb_base = corpus_mod.MB_BINARY if cfg["stats"].get("binary_mb") else corpus_mod.MB_DECIMAL

    # ingest; an id is unique across all inputs, a repeat is a load error
    docs: list[corpus_mod.Document] = []
    load_errors: list[dict] = []
    seen_ids: set[str] = set()
    for entry in inputs:
        path = entry["path"]
        result = corpus_mod.load_documents(base / path, entry.get("source"), seen_ids)
        docs.extend(result.documents)
        load_errors.extend(
            {"path": path, "line": e.line_no, "message": e.message} for e in result.errors
        )

    cleaned, rejects = corpus_mod.clean_corpus(docs, policies)
    deduped, reports = dedup_mod.dedup_documents(cleaned, dd_cfg)
    anonymized, anon_report = anon.anonymize_corpus(deduped, gazetteer, **wildcards)

    # every document stage has run, so a stage that raises leaves no artifact, and
    # the line memo below never holds memory while dedup holds its working set
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = PipelineManifest()
    # a document a stage left unchanged is the same object in the next stage's list;
    # every list lives until the return, so an id stands for one document throughout
    lines: dict[int, str] = {}

    def line(doc: corpus_mod.Document) -> str:
        text = lines.get(id(doc))
        if text is None:
            text = lines[id(doc)] = corpus_mod.document_line(doc)
        return text

    def stage(name, cfg_obj, stage_inputs, *files, n_in, n_out, details):
        corpus_mod.write_artifacts(*((out / f, content) for f, content in files), line=line)
        manifest.stages.append(StageRecord(
            name, _config_hash(cfg_obj), stage_inputs, [f for f, _ in files], n_in, n_out, details
        ))

    stage(
        "ingest", top["inputs"], [e["path"] for e in inputs],
        ("ingested.jsonl", docs), ("load_report.json", {"errors": load_errors}),
        n_in=len(docs) + len(load_errors), n_out=len(docs), details={"n_errors": len(load_errors)},
    )
    stage(
        "clean", sections["clean"], ["ingested.jsonl"],
        ("cleaned.jsonl", cleaned), ("reject_log.json", corpus_mod.reject_log_obj(rejects)),
        n_in=len(docs), n_out=len(cleaned), details={"n_rejected": len(rejects)},
    )
    stage(
        "dedup", sections["dedup"], ["cleaned.jsonl"],
        ("deduped.jsonl", deduped),
        ("dedup_report.json", {src: r.to_obj() for src, r in reports.items()}),
        n_in=len(cleaned), n_out=len(deduped),
        details={src: r.n_removed for src, r in reports.items()},
    )
    stage(
        "anonymize", sections["anonymize"], ["deduped.jsonl"],
        ("anonymized.jsonl", anonymized), ("anonymization_report.json", anon_report.to_obj()),
        n_in=len(deduped), n_out=len(anonymized),
        details={
            "name_spans": anon_report.total_name_spans,
            "date_spans": anon_report.total_date_spans,
            "residual_documents": len(anon_report.residuals),
        },
    )
    lines.clear()

    stats = corpus_mod.compute_corpus_stats(anonymized)
    stage(
        "stats", sections["stats"], ["anonymized.jsonl"],
        ("stats.tsv", corpus_mod.stats_to_tsv(stats, mb_base)),
        ("stats.json", corpus_mod.stats_to_obj(stats, mb_base)),
        n_in=len(anonymized), n_out=len(anonymized), details={"total_words": stats.total.n_words},
    )

    corpus_mod.write_json(out / "manifest.json", asdict(manifest))
    return manifest, anon_report
