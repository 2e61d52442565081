"""Self time over nested spans, and the anonymize scan/rescan attribution."""

import pytest

import spans
from medcorpus import anonymize, benchmark, cli, corpus, dedup, metrics, pipeline, subword
from medcorpus.corpus import Document

LAYERS = {
    "cli": cli, "pipeline": pipeline, "corpus": corpus, "dedup": dedup,
    "anonymize": anonymize, "subword": subword, "benchmark": benchmark, "metrics": metrics,
}


def S(span_id, name, start, end, parent=None):
    return spans.Span(span_id, name, start, end, parent)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        S(0, "cli.main", 0.0, 10.0),
        S(1, "pipeline.run_pipeline", 1.0, 9.0, parent=0),
        S(2, "corpus.load_documents", 2.0, 3.0, parent=1),
        S(3, "anonymize.anonymize_corpus", 4.0, 8.0, parent=1),
        S(4, "anonymize.redact", 5.0, 6.5, parent=3),
    ]
    own = spans.self_times(recorded)
    assert own == pytest.approx({0: 2.0, 1: 3.0, 2: 1.0, 3: 2.5, 4: 1.5})


def test_self_time_counts_overlapping_children_once():
    recorded = [
        S(0, "cli.main", 0.0, 10.0),
        S(1, "corpus.load_documents", 1.0, 5.0, parent=0),
        S(2, "corpus.write_documents", 4.0, 6.0, parent=0),
        S(3, "corpus.clean_corpus", 9.0, 12.0, parent=0),
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_nests_spans_and_sums_self_time_per_metric():
    ticks = iter(float(t) for t in range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    class Layer:
        @staticmethod
        def outer():
            return Layer.inner() + Layer.inner()

        @staticmethod
        def inner():
            return 1

    tracer.patch(Layer, "outer", "pipeline.run_pipeline")
    tracer.patch(Layer, "inner", "corpus.load_documents")
    try:
        assert Layer.outer() == 2
    finally:
        tracer.restore()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("pipeline.run_pipeline", None),
        ("corpus.load_documents", 0),
        ("corpus.load_documents", 0),
    ]
    # outer: ticks 0..5, inner calls 1..2 and 3..4
    out = tracer.layer_metrics()
    assert out["pipeline.self_s"] == pytest.approx(3.0)
    assert out["corpus.load_documents_s"] == pytest.approx(2.0)
    assert out["dedup.dedup_indexed_s"] == 0.0
    assert out["dedup.verify_yield"] == 0.0
    assert Layer.inner() == 1 and not hasattr(Layer.inner, "__wrapped__")


def test_install_and_restore_leave_modules_untouched():
    before = {
        (name, attr): getattr(mod, attr)
        for name, mod in LAYERS.items()
        for attr in dir(mod)
        if callable(getattr(mod, attr))
    }
    init = anonymize.GazetteerRecognizer.__init__
    tracer = spans.Tracer()
    spans.install(tracer, LAYERS)
    assert cli.main is not before[("cli", "main")]
    tracer.restore()
    after = {(name, attr): getattr(LAYERS[name], attr) for name, attr in before}
    assert after == before
    assert anonymize.GazetteerRecognizer.__init__ is init


def test_detect_calls_after_redact_count_as_rescan():
    docs = [
        Document("a", "ehr", "Patient Anna Weber kam am 3.4.2021 zur Kontrolle."),
        Document("b", "ehr", "Keine Befunde."),
        Document("c", "ehr", "Termin im Oktober 1987 mit Weber."),
    ]
    gazetteer = anonymize.Gazetteer(frozenset({"Anna", "Weber"}))
    tracer = spans.Tracer()
    spans.install(tracer, LAYERS)
    try:
        _, report = anonymize.anonymize_corpus(docs, gazetteer)
    finally:
        tracer.restore()
    assert report.passed
    names = [s.name for s in tracer.spans if s.parent is not None]
    per_doc = [
        "anonymize.scan_dates", "anonymize.scan_names", "anonymize.redact",
        "anonymize.rescan", "anonymize.rescan",
    ]
    assert names == ["anonymize.recognizer_build"] + per_doc * 3
    out = tracer.layer_metrics()
    assert out["anonymize.name_spans"] == 3
    assert out["anonymize.date_spans"] == 2
    assert out["anonymize.gazetteer_entries"] == 2
    assert out["anonymize.residual_docs"] == 0


def test_rescan_needs_the_redacted_text_itself():
    tracer = spans.Tracer()
    redacted = "".join(["x ", "<NAME>"])
    tracer.note_redacted(redacted)
    assert tracer.detect_span_name("dates", redacted) == "anonymize.rescan"
    assert tracer.detect_span_name("names", redacted) == "anonymize.rescan"
    # an equal text of the next document is a scan, and ends the rescan
    assert tracer.detect_span_name("dates", "".join(["x ", "<NAME>"])) == "anonymize.scan_dates"
    assert tracer.detect_span_name("names", redacted) == "anonymize.scan_names"


def test_every_layer_metric_has_a_unit():
    units = spans.per_layer_units()
    assert set(spans.Tracer().layer_metrics()) | set(spans.TRACE_METRICS) == set(units)

