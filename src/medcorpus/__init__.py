"""Clinical corpus engineering toolkit.

Cleaning, near-duplicate removal, anonymization, subword vocabulary
construction, benchmark dataset building, evaluation metrics, and a
median-pruning hyperparameter search, for German clinical text at desk
scale.

Each public name loads its module on first access (PEP 562), so importing
the package, or one layer of it, loads no other layer.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "corpus": (
        "CleanPolicy", "Document", "clean_corpus", "compute_corpus_stats", "load_documents",
        "split_sentences",
    ),
    "dedup": (
        "BowVector", "DedupConfig", "cosine_similarity", "dedup_exact", "dedup_indexed",
        "vectorize",
    ),
    "anonymize": ("Gazetteer", "anonymize_corpus"),
    "subword": ("VocabConfig", "Vocabulary", "build_vocab", "measure_fertility", "tokenize_text"),
    "metrics": ("auroc", "multilabel_report", "ner_token_report"),
    "benchmark": ("SplitSpec", "build_task", "stratified_split"),
    "hpo": ("SearchSpace", "Study", "run_study", "should_prune"),
    "pipeline": ("emit_pretrain_config", "run_pipeline"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
