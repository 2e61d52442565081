"""In-memory span tracing of the medcorpus layers, from outside the package.

A :class:`Tracer` replaces public functions at their module attributes with
wrappers that record one span per call: name, start, end and parent span.
Callers inside medcorpus look these functions up at call time
(``corpus_mod.load_documents(...)``), so the wrappers see every call the CLI
makes. Counts are taken from arguments and results at the same boundaries.
Nothing here is imported by medcorpus itself.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

# span name -> per-layer metric that sums the self time of those spans
SPAN_METRICS = {
    "cli.main": "cli.self_s",
    "pipeline.run_pipeline": "pipeline.self_s",
    "corpus.load_documents": "corpus.load_documents_s",
    "corpus.clean_corpus": "corpus.clean_corpus_s",
    "corpus.write_documents": "corpus.write_documents_s",
    "corpus.compute_corpus_stats": "corpus.compute_corpus_stats_s",
    "dedup.vectorize": "dedup.vectorize_s",
    "dedup.dedup_indexed": "dedup.dedup_indexed_s",
    "anonymize.anonymize_corpus": "anonymize.self_s",
    "anonymize.recognizer_build": "anonymize.recognizer_build_s",
    "anonymize.scan_dates": "anonymize.scan_dates_s",
    "anonymize.scan_names": "anonymize.scan_names_s",
    "anonymize.rescan": "anonymize.rescan_s",
    "anonymize.redact": "anonymize.redact_s",
    "subword.filter_rare_chars": "subword.filter_rare_chars_s",
    "subword.build_vocab": "subword.build_vocab_s",
    "subword.measure_fertility": "subword.measure_fertility_s",
    "benchmark.assign_codes": "benchmark.assign_codes_s",
    "benchmark.build_task": "benchmark.build_task_s",
    "benchmark.export_task": "benchmark.export_task_s",
    "metrics.load_classification_predictions": "metrics.load_classification_predictions_s",
    "metrics.multilabel_report": "metrics.multilabel_report_s",
}

COUNT_METRICS = (
    "corpus.docs_loaded",
    "corpus.load_errors",
    "corpus.docs_rejected",
    "corpus.docs_written",
    "dedup.docs_in",
    "dedup.pairs_examined",
    "dedup.removed",
    "anonymize.gazetteer_entries",
    "anonymize.name_spans",
    "anonymize.date_spans",
    "anonymize.residual_docs",
    "subword.vocab_tokens",
    "subword.merge_tokens",
    "subword.words_tokenized",
    "benchmark.examples",
    "benchmark.split_iterations",
    "metrics.classes",
)

# derived ratios: name -> (unit, numerator, denominator, scale)
RATIO_METRICS = {
    "dedup.verify_yield": ("ratio", "dedup.removed", "dedup.pairs_examined", 1.0),
    "subword.build_ms_per_merge_token": (
        "ms", "subword.build_vocab_s", "subword.merge_tokens", 1000.0,
    ),
    "subword.words_per_s": ("1/s", "subword.words_tokenized", "subword.measure_fertility_s", 1.0),
}

OTHER_METRICS = {"subword.fertility": "subwords/word"}

TRACE_METRICS = {
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {m: "s" for m in SPAN_METRICS.values()}
    units.update({m: "count" for m in COUNT_METRICS})
    units.update({m: spec[0] for m, spec in RATIO_METRICS.items()})
    units.update(OTHER_METRICS)
    units.update(TRACE_METRICS)
    return units


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None

    def to_obj(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Records spans and counts while its patches are installed."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.values: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # text returned by the latest redact call: a detect call on that
        # text is the self-verify rescan of the document just redacted
        self._redacted: str | None = None

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(span_id, name, self.clock(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()

    def detect_span_name(self, kind: str, text) -> str:
        if self._redacted is not None and text is self._redacted:
            return "anonymize.rescan"
        self._redacted = None
        return f"anonymize.scan_{kind}"

    def note_redacted(self, text: str) -> None:
        self._redacted = text

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name, on_result=None, prepare=None) -> None:
        """Wrap ``owner.attr``. ``name`` is a span name or a function of the
        call's arguments; ``on_result(args, kwargs, result)`` takes counts;
        ``prepare(args, kwargs)`` may return replacement arguments."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            result = tracer.call(span_name, original, args, kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.values = {}
        self._stack = []
        self._redacted = None

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset.
        Layers that did not run report zero."""
        out = {m: 0.0 for m in SPAN_METRICS.values()}
        own = self_times(self.spans)
        for s in self.spans:
            out[SPAN_METRICS[s.name]] += own[s.span_id]
        for m in COUNT_METRICS:
            out[m] = float(self.counts[m])
        for m, (_, num, den, scale) in RATIO_METRICS.items():
            out[m] = scale * out[num] / out[den] if out[den] else 0.0
        for m in OTHER_METRICS:
            out[m] = self.values.get(m, 0.0)
        return out


def _arg(args, kwargs, index: int, keyword: str):
    return args[index] if len(args) > index else kwargs[keyword]


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the public functions of each medcorpus layer module.

    ``modules`` maps layer names (cli, pipeline, corpus, dedup, anonymize,
    subword, benchmark, metrics) to the imported modules.
    """
    counts = tracer.counts
    cli = modules["cli"]
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(modules["pipeline"], "run_pipeline", "pipeline.run_pipeline")

    corpus = modules["corpus"]

    def loaded(args, kwargs, result):
        counts["corpus.docs_loaded"] += len(result.documents)
        counts["corpus.load_errors"] += len(result.errors)

    def listify_docs(args, kwargs):
        # write_documents takes any iterable; count it without consuming it
        docs = list(_arg(args, kwargs, 1, "docs"))
        counts["corpus.docs_written"] += len(docs)
        return (_arg(args, kwargs, 0, "path"), docs), {}

    tracer.patch(corpus, "load_documents", "corpus.load_documents", on_result=loaded)
    tracer.patch(
        corpus, "clean_corpus", "corpus.clean_corpus",
        on_result=lambda a, k, r: counts.update({"corpus.docs_rejected": len(r[1])}),
    )
    tracer.patch(corpus, "write_documents", "corpus.write_documents", prepare=listify_docs)
    tracer.patch(corpus, "compute_corpus_stats", "corpus.compute_corpus_stats")

    dedup = modules["dedup"]

    def deduped(args, kwargs, report):
        counts["dedup.docs_in"] += report.n_input
        counts["dedup.pairs_examined"] += report.pairs_examined
        counts["dedup.removed"] += report.n_removed

    tracer.patch(dedup, "vectorize", "dedup.vectorize")
    tracer.patch(dedup, "dedup_indexed", "dedup.dedup_indexed", on_result=deduped)

    anon = modules["anonymize"]

    def anonymized(args, kwargs, result):
        report = result[1]
        counts["anonymize.name_spans"] += report.total_name_spans
        counts["anonymize.date_spans"] += report.total_date_spans
        counts["anonymize.residual_docs"] += len(report.residuals)

    def recognizer_built(args, kwargs, result):
        counts["anonymize.gazetteer_entries"] += len(_arg(args, kwargs, 1, "gazetteer").entries)

    tracer.patch(anon, "anonymize_corpus", "anonymize.anonymize_corpus", on_result=anonymized)
    tracer.patch(
        anon.GazetteerRecognizer, "__init__", "anonymize.recognizer_build",
        on_result=recognizer_built,
    )
    tracer.patch(
        anon, "detect_dates",
        lambda a, k: tracer.detect_span_name("dates", _arg(a, k, 0, "text")),
    )
    tracer.patch(
        anon, "detect_names",
        lambda a, k: tracer.detect_span_name("names", _arg(a, k, 0, "text")),
    )
    tracer.patch(
        anon, "redact", "anonymize.redact",
        on_result=lambda a, k, r: tracer.note_redacted(r[0]),
    )

    subword = modules["subword"]

    def vocab_built(args, kwargs, vocab):
        prefix = vocab.config.continuation_prefix
        counts["subword.vocab_tokens"] += len(vocab.tokens)
        counts["subword.merge_tokens"] += sum(
            1 for t in vocab.tokens if t.startswith(prefix) and len(t) > len(prefix) + 1
        )

    def fertility_measured(args, kwargs, report):
        counts["subword.words_tokenized"] += report.n_words
        tracer.values["subword.fertility"] = report.fertility

    tracer.patch(subword, "filter_rare_chars", "subword.filter_rare_chars")
    tracer.patch(subword, "build_vocab", "subword.build_vocab", on_result=vocab_built)
    tracer.patch(
        subword, "measure_fertility", "subword.measure_fertility", on_result=fertility_measured
    )

    bench = modules["benchmark"]
    tracer.patch(
        bench, "assign_codes", "benchmark.assign_codes",
        on_result=lambda a, k, r: counts.update({"benchmark.examples": len(r[0])}),
    )
    tracer.patch(
        bench, "build_task", "benchmark.build_task",
        on_result=lambda a, k, r: counts.update({"benchmark.split_iterations": r.n_iterations}),
    )
    tracer.patch(bench, "export_task", "benchmark.export_task")

    metrics = modules["metrics"]
    tracer.patch(
        metrics, "load_classification_predictions", "metrics.load_classification_predictions"
    )
    tracer.patch(
        metrics, "multilabel_report", "metrics.multilabel_report",
        on_result=lambda a, k, r: counts.update({"metrics.classes": len(r.classes)}),
    )
