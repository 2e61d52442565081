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

    def to_obj(self) -> dict:
        return asdict(self)

    def save(self, path: str | Path) -> None:
        corpus_mod.write_json(path, self.to_obj())


def _config_hash(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()


# the keys each part of a pipeline config may hold; any other key is an error
_CONFIG_KEYS = {
    "pipeline config": {"inputs", "clean", "dedup", "anonymize", "stats"},
    "input entry": {"path", "source"},
    "clean": {"policies"},
    "clean policy": {
        "min_chars", "min_pages", "chars_per_page", "stopword_sentence_filter", "stopword_list",
    },
    "dedup": {"threshold", "mode", "comparison", "max_doc_words"},
    "anonymize": {"gazetteer", "case_insensitive", "name_wildcard", "date_wildcard"},
    "stats": {"binary_mb"},
}


def _checked(obj, part: str) -> dict:
    return corpus_mod.checked_object(obj, part, _CONFIG_KEYS[part])


def _policy_from_obj(obj: dict) -> corpus_mod.CleanPolicy:
    """The policy a config object describes; a threshold it leaves out keeps
    its :class:`~medcorpus.corpus.CleanPolicy` default."""
    thresholds = {
        key: int(value)
        for key, value in _checked(obj, "clean policy").items()
        if key in ("min_chars", "min_pages", "chars_per_page")
    }
    use_filter = bool(obj.get("stopword_sentence_filter"))
    stopwords = obj.get("stopword_list")
    if use_filter and stopwords is None:
        stopwords = corpus_mod.default_german_stopwords()
    return corpus_mod.CleanPolicy(
        stopword_sentence_filter=use_filter, stopword_list=frozenset(stopwords or ()), **thresholds
    )


def run_pipeline(
    config: dict, out_dir: str | Path, config_dir: str | Path = "."
) -> tuple[PipelineManifest, anon.AnonymizationReport]:
    """Run ingest, clean, dedup, anonymize, stats on the configured inputs.

    Returns the manifest and the anonymization report, whose residuals say
    which output documents failed the re-scan.

    The whole config, including the gazetteer file, is checked and every
    input file is read before the first artifact is written: an unknown key
    or a value of the wrong type is a ``ValueError``. Relative input paths
    are resolved against ``config_dir``; the manifest stores them as written
    in the config so that reruns into different output directories stay
    comparable.
    """
    base = Path(config_dir)
    try:
        inputs = _checked(config, "pipeline config").get("inputs")
        if not inputs:
            raise ValueError("pipeline config has no 'inputs'")
        for entry in inputs:
            if not isinstance(_checked(entry, "input entry").get("path"), str):
                raise ValueError("input entry without a 'path' string")
        clean_cfg = _checked(config.get("clean", {}), "clean")
        policies = corpus_mod.policy_presets()
        policy_objs = clean_cfg.get("policies", {})
        if not isinstance(policy_objs, dict):
            raise ValueError("clean policies must be a JSON object")
        for source, obj in policy_objs.items():
            policies[source] = _policy_from_obj(obj)
        dd_cfg_obj = _checked(config.get("dedup", {}), "dedup")
        dd_cfg = dedup_mod.DedupConfig.from_names(**dd_cfg_obj)
        an_cfg = _checked(config.get("anonymize", {}), "anonymize")
        wildcards = {k: an_cfg[k] for k in ("name_wildcard", "date_wildcard") if k in an_cfg}
        if not all(isinstance(w, str) for w in wildcards.values()):
            raise ValueError("name_wildcard and date_wildcard must be strings")
        gazetteer = None
        if an_cfg.get("gazetteer"):
            gazetteer = anon.Gazetteer.from_file(
                base / an_cfg["gazetteer"], bool(an_cfg.get("case_insensitive", False))
            )
        stats_cfg = _checked(config.get("stats", {}), "stats")
        mb_base = corpus_mod.MB_BINARY if stats_cfg.get("binary_mb") else corpus_mod.MB_DECIMAL
    except TypeError as exc:
        raise ValueError(f"bad value in pipeline config: {exc}") from None

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

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = PipelineManifest()

    def stage(name, cfg_obj, stage_inputs, docs_file, docs, report_file, report, n_in, details):
        corpus_mod.write_documents(out / docs_file, docs)
        corpus_mod.write_json(out / report_file, report)
        manifest.stages.append(
            StageRecord(
                name,
                _config_hash(cfg_obj),
                stage_inputs,
                [docs_file, report_file],
                n_in=n_in,
                n_out=len(docs),
                details=details,
            )
        )

    stage(
        "ingest", inputs, [e["path"] for e in inputs],
        "ingested.jsonl", docs, "load_report.json", {"errors": load_errors},
        n_in=len(docs) + len(load_errors), details={"n_errors": len(load_errors)},
    )

    cleaned, rejects = corpus_mod.clean_corpus(docs, policies)
    stage(
        "clean", clean_cfg, ["ingested.jsonl"],
        "cleaned.jsonl", cleaned, "reject_log.json", corpus_mod.reject_log_obj(rejects),
        n_in=len(docs), details={"n_rejected": len(rejects)},
    )

    deduped, reports = dedup_mod.dedup_documents(cleaned, dd_cfg)
    stage(
        "dedup", dd_cfg_obj, ["cleaned.jsonl"],
        "deduped.jsonl", deduped, "dedup_report.json",
        {src: r.to_obj() for src, r in reports.items()},
        n_in=len(cleaned), details={src: r.n_removed for src, r in reports.items()},
    )

    anonymized, anon_report = anon.anonymize_corpus(deduped, gazetteer, **wildcards)
    stage(
        "anonymize", an_cfg, ["deduped.jsonl"],
        "anonymized.jsonl", anonymized, "anonymization_report.json", anon_report.to_obj(),
        n_in=len(deduped),
        details={
            "name_spans": anon_report.total_name_spans,
            "date_spans": anon_report.total_date_spans,
            "residual_documents": len(anon_report.residuals),
        },
    )

    stats = corpus_mod.compute_corpus_stats(anonymized)
    corpus_mod.write_text(out / "stats.tsv", [corpus_mod.stats_to_tsv(stats, mb_base)])
    corpus_mod.write_json(out / "stats.json", corpus_mod.stats_to_obj(stats, mb_base))
    manifest.stages.append(
        StageRecord(
            "stats",
            _config_hash(stats_cfg),
            ["anonymized.jsonl"],
            ["stats.tsv", "stats.json"],
            n_in=len(anonymized),
            n_out=len(anonymized),
            details={"total_words": stats.total.n_words},
        )
    )

    manifest.save(out / "manifest.json")
    return manifest, anon_report
