import dataclasses
import importlib.util
import math
import random
import re
import sys
import tracemalloc
import typing
from array import array
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from medcorpus import dedup
from medcorpus.corpus import Document
from medcorpus.dedup import (
    COMPARISON_INCLUSIVE,
    COMPARISON_STRICT,
    MODE_LITERAL,
    MODE_REPRESENTATIVE,
    BowVector,
    DedupConfig,
    EmptyVectorError,
    TermRows,
    cosine_similarity,
    dedup_documents,
    dedup_exact,
    dedup_indexed,
    vectorize,
)
from medcorpus.synth import bow_corpus, pii_corpus, radiology_corpus


def vec(doc_id, counts):
    return BowVector(doc_id, counts)


def doc(doc_id, text):
    return Document(id=doc_id, source="other", text=text)


# --- vectorization and cosine ----------------------------------------------


def test_vectorize_lowercases_and_splits_on_non_alnum():
    v = vectorize(doc("d", "Herz, Lunge; herz-LUNGE 12"))
    assert v.counts == {"herz": 2, "lunge": 2, "12": 1}


def test_vectorize_empty_text_raises():
    with pytest.raises(EmptyVectorError):
        vectorize(doc("d", "..."))


def test_cosine_hand_oracle_half():
    a = vec("a", {"x": 1, "y": 1})
    b = vec("b", {"x": 1, "z": 1})
    got = cosine_similarity(a, b)
    # float norms make this 1/(sqrt2*sqrt2), a hair under one half
    assert got == 1 / (math.sqrt(2) * math.sqrt(2))
    assert got == pytest.approx(0.5, abs=1e-15)


def test_cosine_hand_oracle_repeated_terms():
    # dot = 3*2 + 2*2 = 10; norms sqrt(13), sqrt(8)
    a = vec("a", {"herz": 3, "lunge": 2})
    b = vec("b", {"herz": 2, "lunge": 2})
    expected = 10 / math.sqrt(13 * 8)
    assert abs(cosine_similarity(a, b) - expected) < 1e-15


def test_cosine_identical_is_exactly_one():
    a = vec("a", {"x": 3, "y": 7, "z": 1})
    b = vec("b", {"x": 3, "y": 7, "z": 1})
    assert cosine_similarity(a, b) == 1.0


def test_cosine_disjoint_is_zero():
    assert cosine_similarity(vec("a", {"x": 1}), vec("b", {"y": 1})) == 0.0


_counts = st.dictionaries(
    st.sampled_from([f"t{i}" for i in range(8)]),
    st.integers(min_value=1, max_value=5),
    min_size=1,
    max_size=6,
)


@given(_counts, _counts)
def test_cosine_symmetric_and_bounded(ca, cb):
    a, b = vec("a", ca), vec("b", cb)
    ab = cosine_similarity(a, b)
    ba = cosine_similarity(b, a)
    assert ab == ba  # bit-identical, not approximately
    assert 0.0 <= ab <= 1.0


def test_counts_must_be_positive():
    with pytest.raises(ValueError):
        BowVector("d", {"x": 0})


# --- fixed small corpora ----------------------------------------------------


def chain_corpus():
    """sim(A,B) = sim(B,C) = 0.8, sim(A,C) = 0.4."""
    return [
        vec("A", {"x": 2, "y": 1}),
        vec("B", {"x": 1, "y": 2}),
        vec("C", {"y": 2, "z": 1}),
    ]


def test_chain_similarities():
    a, b, c = chain_corpus()
    assert cosine_similarity(a, b) == pytest.approx(0.8, abs=1e-12)
    assert cosine_similarity(b, c) == pytest.approx(0.8, abs=1e-12)
    assert cosine_similarity(a, c) == pytest.approx(0.4, abs=1e-12)


def test_representative_keep_on_chain():
    report = dedup_exact(chain_corpus(), DedupConfig())
    assert report.kept_ids == ["A", "C"]
    assert report.removed_ids() == {"B"}
    assert [(c.representative, c.members) for c in report.clusters] == [("A", ["B"])]
    assert report.n_input == 3 and report.n_kept == 2 and report.n_removed == 1


def test_literal_drop_removes_whole_component():
    cfg = DedupConfig(mode=MODE_LITERAL)
    report = dedup_exact(chain_corpus(), cfg)
    assert report.kept_ids == []
    assert report.removed_ids() == {"A", "B", "C"}
    assert [(c.representative, c.members) for c in report.clusters] == [("A", ["A", "B", "C"])]
    assert report.n_kept == 0 and report.n_removed == 3


def test_permutation_changes_kept_size_but_not_invariant():
    a, b, c = chain_corpus()
    cfg = DedupConfig()
    fwd = dedup_exact([a, b, c], cfg)
    rev = dedup_exact([b, a, c], cfg)
    assert len(fwd.kept_ids) == 2
    assert rev.kept_ids == ["B"]  # B absorbs both neighbours
    for report, vectors in ((fwd, [a, b, c]), (rev, [b, a, c])):
        by_id = {v.doc_id: v for v in vectors}
        kept = [by_id[i] for i in report.kept_ids]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert cosine_similarity(kept[i], kept[j]) <= cfg.threshold


def test_exact_boundary_pair_strict_vs_inclusive():
    # dot = 3, norms 2 and 2: similarity is exactly 0.75
    a = vec("a", {"w1": 1, "w2": 1, "w3": 1, "w4": 1})
    b = vec("b", {"w1": 1, "w2": 1, "w3": 1, "w5": 1})
    assert cosine_similarity(a, b) == 0.75
    strict = dedup_exact([a, b], DedupConfig(comparison=COMPARISON_STRICT))
    assert strict.kept_ids == ["a", "b"]
    inclusive = dedup_exact([a, b], DedupConfig(comparison=COMPARISON_INCLUSIVE))
    assert inclusive.kept_ids == ["a"]
    assert inclusive.removed_ids() == {"b"}


def test_identical_pair_at_threshold_one():
    a = vec("a", {"x": 2}), vec("b", {"x": 2})
    strict = dedup_exact(list(a), DedupConfig(threshold=1.0))
    assert strict.kept_ids == ["a", "b"]  # 1.0 > 1.0 is false
    inclusive = dedup_exact(list(a), DedupConfig(threshold=1.0, comparison=COMPARISON_INCLUSIVE))
    assert inclusive.kept_ids == ["a"]


def test_near_duplicate_radiology_style_pair():
    a = vectorize(doc("A", "herz lunge herz lunge herz"))
    b = vectorize(doc("A2", "herz lunge herz lunge"))
    c = vectorize(doc("B", "leber niere milz"))
    assert cosine_similarity(a, b) == pytest.approx(10 / math.sqrt(104), abs=1e-15)
    report = dedup_exact([a, b, c], DedupConfig())
    assert report.kept_ids == ["A", "B"]
    assert report.removed_ids() == {"A2"}


def test_max_doc_words_gate_bypasses_long_documents():
    long_counts = {f"w{i}": 1 for i in range(130)}
    a = vec("a", dict(long_counts))
    b = vec("b", dict(long_counts))
    gated = dedup_exact([a, b], DedupConfig(max_doc_words=128))
    assert gated.kept_ids == ["a", "b"]  # both too long to participate
    ungated = dedup_exact([a, b], DedupConfig(max_doc_words=None))
    assert ungated.kept_ids == ["a"]
    boundary = dedup_exact([a, b], DedupConfig(max_doc_words=130))
    assert boundary.kept_ids == ["a"]  # exactly at the limit still participates


def test_gate_counts_words_not_distinct_terms():
    # 3 distinct terms but 9 word tokens
    v = vec("a", {"x": 3, "y": 3, "z": 3})
    assert v.n_terms() == 9
    w = vec("b", {"x": 3, "y": 3, "z": 3})
    report = dedup_exact([v, w], DedupConfig(max_doc_words=8))
    assert report.kept_ids == ["a", "b"]


def test_empty_input():
    report = dedup_exact([], DedupConfig())
    assert report.n_input == 0 and report.kept_ids == [] and report.clusters == []
    report = dedup_indexed([], DedupConfig())
    assert report.n_input == 0 and report.kept_ids == []


def test_duplicate_doc_id_rejected():
    with pytest.raises(ValueError):
        dedup_exact([vec("a", {"x": 1}), vec("a", {"y": 1})], DedupConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        DedupConfig(threshold=0.0)
    with pytest.raises(ValueError):
        DedupConfig(threshold=1.5)
    with pytest.raises(ValueError):
        DedupConfig(comparison="fuzzy")
    with pytest.raises(ValueError):
        DedupConfig(mode="both")
    with pytest.raises(ValueError):
        DedupConfig(max_doc_words=0)


def test_exact_pairs_examined_full_scan():
    vs = [vec(f"d{i}", {f"t{i}": 1}) for i in range(6)]
    report = dedup_exact(vs, DedupConfig())
    # all disjoint: every kept candidate pair is checked once
    assert report.pairs_examined == 15


def longest_first(corpus):
    """The corpus with the documents of most words first: those that
    max_doc_words sets aside come first and introduce most terms."""
    docs = sorted(corpus.documents, key=lambda d: -len(dedup._tokens(d.text)))
    return dataclasses.replace(corpus, documents=docs)


# (corpus, max_doc_words, mode) -> pairs_examined of (exact, indexed); the
# exact engine verifies a representative against every earlier kept
# document and, in literal mode, every pair, the indexed engine only the
# pairs its screen passes
@pytest.mark.parametrize(
    "corpus, max_doc_words, mode, expected",
    [
        (lambda: radiology_corpus(300, 0.2, seed=1), None, MODE_REPRESENTATIVE, (33574, 60)),
        (lambda: radiology_corpus(300, 0.2, seed=1), None, MODE_LITERAL, (44850, 69)),
        (lambda: bow_corpus(200, 300, 0.15, seed=2), None, MODE_REPRESENTATIVE, (16244, 30)),
        (lambda: bow_corpus(200, 300, 0.15, seed=2), None, MODE_LITERAL, (19900, 31)),
        (lambda: radiology_corpus(300, 0.2, seed=4), 50, MODE_REPRESENTATIVE, (8896, 32)),
        (lambda: radiology_corpus(300, 0.2, seed=4), 50, MODE_LITERAL, (11781, 33)),
        (lambda: longest_first(radiology_corpus(300, 0.2, seed=4)), 50, MODE_REPRESENTATIVE,
         (9214, 32)),
        (lambda: longest_first(radiology_corpus(300, 0.2, seed=4)), 50, MODE_LITERAL, (11781, 33)),
    ],
)
def test_pairs_examined_per_engine_and_mode(corpus, max_doc_words, mode, expected):
    vectors = [vectorize(d) for d in corpus().documents]
    cfg = DedupConfig(mode=mode, max_doc_words=max_doc_words)
    exact, indexed = dedup_exact(vectors, cfg), dedup_indexed(vectors, cfg)
    assert (exact.pairs_examined, indexed.pairs_examined) == expected
    assert report_key(indexed) == report_key(exact)


def test_report_accounting_and_serialization():
    report = dedup_exact(chain_corpus(), DedupConfig())
    assert report.n_input == report.n_kept + report.n_removed
    obj = report.to_obj()
    assert obj["mode"] == MODE_REPRESENTATIVE
    assert obj["threshold"] == 0.75
    assert obj["clusters"] == [{"representative": "A", "members": ["B"]}]
    assert "kept_ids" not in obj  # ids live in the output corpus, not the report
    removed = [m for c in report.clusters for m in c.members]
    assert len(removed) == len(set(removed)) == report.n_removed


@pytest.mark.parametrize("mode", [MODE_REPRESENTATIVE, MODE_LITERAL])
@pytest.mark.parametrize("vectors", [chain_corpus(), []], ids=["clusters", "empty"])
def test_report_object_is_asdict_without_kept_ids(mode, vectors):
    report = dedup_exact(vectors, DedupConfig(mode=mode))
    assert bool(report.clusters) == bool(vectors)
    want = dataclasses.asdict(report)
    del want["kept_ids"]
    assert report.to_obj() == want


# --- engine equivalence -----------------------------------------------------

_corpus = st.lists(_counts, min_size=0, max_size=40)
_configs = st.tuples(
    st.sampled_from([0.5, 0.75, 0.9]),
    st.sampled_from([COMPARISON_STRICT, COMPARISON_INCLUSIVE]),
    st.sampled_from([MODE_REPRESENTATIVE, MODE_LITERAL]),
    st.sampled_from([None, 8]),
)


def report_key(report):
    return (
        report.kept_ids,
        [(c.representative, tuple(c.members)) for c in report.clusters],
        report.n_input,
        report.n_kept,
        report.n_removed,
    )


@settings(max_examples=150, deadline=None)
@given(_corpus, _configs)
def test_indexed_equals_exact(count_dicts, params):
    threshold, comparison, mode, max_words = params
    vectors = [vec(f"d{i}", c) for i, c in enumerate(count_dicts)]
    cfg = DedupConfig(
        threshold=threshold, comparison=comparison, mode=mode, max_doc_words=max_words
    )
    exact = dedup_exact(vectors, cfg)
    # blocks of 7 rows or more, so many blocks on small corpora
    with mock.patch.object(dedup, "SCORE_BUFFER_FLOATS", 7 * len(vectors)):
        indexed = dedup_indexed(vectors, cfg)
    assert report_key(indexed) == report_key(exact)


@settings(max_examples=60, deadline=None)
@given(_corpus)
def test_retention_invariant_post_hoc(count_dicts):
    vectors = [vec(f"d{i}", c) for i, c in enumerate(count_dicts)]
    cfg = DedupConfig()
    report = dedup_indexed(vectors, cfg)
    by_id = {v.doc_id: v for v in vectors}
    kept = [by_id[i] for i in report.kept_ids]
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            assert cosine_similarity(kept[i], kept[j]) <= cfg.threshold


def test_shared_high_frequency_term_pair_is_found():
    # both documents dominated by one very common term; candidate schemes
    # that drop frequent terms would miss this pair
    filler = [vec(f"f{i}", {"the": 1, f"u{i}": 3}) for i in range(20)]
    a = vec("a", {"the": 10, "x": 1})
    b = vec("b", {"the": 10, "y": 1})
    vectors = filler + [a, b]
    assert cosine_similarity(a, b) > 0.9
    for cfg in (DedupConfig(), DedupConfig(mode=MODE_LITERAL)):
        exact = dedup_exact(vectors, cfg)
        indexed = dedup_indexed(vectors, cfg)
        assert report_key(indexed) == report_key(exact)
        assert "b" in exact.removed_ids() or "a" in exact.removed_ids()


def pair_with_fillers(rng: random.Random, n_terms: int) -> tuple[list[BowVector], float]:
    """Two rows of ``n_terms`` terms each, 32 of them boilerplate, then 62
    short fillers that hold the boilerplate too, so that it goes to the
    dense block; and the exact cosine of the pair, which no filler comes
    near."""
    boilerplate = {f"b{k}": 1 + k % 3 for k in range(32)}
    base = {f"t{i}": rng.randint(1, 9) for i in range(n_terms - 32)}
    near = {t: c + (rng.random() < 0.05) for t, c in base.items()}
    pair = [vec("a", {**base, **boilerplate}), vec("b", {**near, **boilerplate})]
    own = [{f"u{i}.{k}": 1 + k % 5 for k in range(40)} for i in range(62)]
    fillers = [vec(f"f{i}", {**dict.fromkeys(boilerplate, 1), **u}) for i, u in enumerate(own)]
    return pair + fillers, cosine_similarity(*pair)


def test_score_margin_is_twice_gamma_of_the_terms_plus_two():
    def gamma(k):
        return k * 2.0**-24 / (1 - k * 2.0**-24)

    assert dedup._score_margin(0) == 1e-6  # 2·γ_2 is below the floor
    for terms in (95, 3032):
        assert dedup._score_margin(terms) == 2 * gamma(terms + 2)
    assert dedup._score_margin(2**24) == math.inf


@pytest.mark.parametrize("n_terms", [1000, 3000])
@pytest.mark.parametrize("comparison", [COMPARISON_STRICT, COMPARISON_INCLUSIVE])
@pytest.mark.parametrize("mode", [MODE_REPRESENTATIVE, MODE_LITERAL])
def test_indexed_keeps_long_pairs_just_above_the_threshold(n_terms, comparison, mode):
    # rows this long give the screen's float32 scores their largest error,
    # far above the 1e-9 by which each pair's cosine exceeds the threshold
    rng = random.Random(n_terms)
    for _ in range(8):
        vectors, s = pair_with_fillers(rng, n_terms)
        cfg = DedupConfig(threshold=s - 1e-9, comparison=comparison, mode=mode)
        exact = dedup_exact(vectors, cfg)
        assert exact.removed_ids() == ({"b"} if mode == MODE_REPRESENTATIVE else {"a", "b"})
        assert report_key(dedup_indexed(vectors, cfg)) == report_key(exact)


# --- rows tokenized straight from the text ----------------------------------


def three_sources(seed: int) -> list[Document]:
    """Seeded documents of three sources, interleaved, with exact copies
    and documents that have no terms."""
    rng = random.Random(seed)
    docs = (
        radiology_corpus(250, 0.2, seed=seed).documents
        + pii_corpus(120, seed=seed).documents
        + bow_corpus(150, 300, 0.15, seed=seed).documents
    )
    docs += [dataclasses.replace(d, id=f"copy-{d.id}") for d in rng.sample(docs, 12)]
    docs += [doc(f"blank-{i}", text) for i, text in enumerate(["", " -- ", "_;_", "..."])]
    rng.shuffle(docs)
    return docs


def vectors_with_terms(docs: list[Document]) -> list[BowVector]:
    vectors = []
    for d in docs:
        try:
            vectors.append(vectorize(d))
        except EmptyVectorError:
            pass
    return vectors


def per_source(docs: list[Document], cfg: DedupConfig, engine):
    """The kept documents and the per-source reports of ``engine`` on the
    vectors of each source's documents that have terms."""
    groups: dict[str, list[Document]] = {}
    for d in docs:
        groups.setdefault(d.source, []).append(d)
    reports = {s: engine(vectors_with_terms(groups[s]), cfg) for s in sorted(groups)}
    removed = {(s, i) for s, r in reports.items() for i in r.removed_ids()}
    return [d for d in docs if (d.source, d.id) not in removed], reports


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("threshold", [0.75, 1.0])
@pytest.mark.parametrize("comparison", [COMPARISON_STRICT, COMPARISON_INCLUSIVE])
@pytest.mark.parametrize("mode", [MODE_REPRESENTATIVE, MODE_LITERAL])
@pytest.mark.parametrize("max_doc_words", [None, 40])
def test_dedup_documents_equals_exact_engine_per_source(
    seed, threshold, comparison, mode, max_doc_words
):
    docs = three_sources(seed)
    cfg = DedupConfig(threshold, comparison, mode, max_doc_words)
    kept, reports = dedup_documents(docs, cfg)
    want_kept, want_reports = per_source(docs, cfg, dedup_exact)
    assert list(reports) == list(want_reports) == ["ehr", "other", "radiology-report"]
    # the engines differ in the pairs they verify alone
    screened = per_source(docs, cfg, dedup_indexed)[1]
    for source, report in reports.items():
        assert report.pairs_examined == screened[source].pairs_examined
        want = dataclasses.replace(want_reports[source], pairs_examined=report.pairs_examined)
        assert report.to_obj() == want.to_obj()
        assert report.kept_ids == want.kept_ids
    assert kept == want_kept
    assert {f"blank-{i}" for i in range(4)} <= {d.id for d in kept}


_texts = st.lists(st.text(alphabet="abcäß AB_-,.12", max_size=30), max_size=25)


@settings(max_examples=200, deadline=None)
@given(_texts)
def test_text_and_vector_feeders_build_equal_rows(texts):
    docs = [doc(f"d{i}", text) for i, text in enumerate(texts)]
    from_text = TermRows.from_documents(docs)
    vectors = vectors_with_terms(docs)
    assert_same_rows(from_text, TermRows.from_vectors(vectors))
    assert from_text.doc_ids == [v.doc_id for v in vectors]
    # ids are numbered by first sight
    first_seen = list(dict.fromkeys(from_text.ids))
    assert first_seen == list(range(len(first_seen)))
    assert list(from_text.norms) == [v.norm for v in vectors]


# --- the chunked row builder against the per-document one ------------------


def reference_rows(rows):
    """The rows of ``(doc_id, term counts)`` pairs as the builder before the
    chunked one made them, one ``Counter`` per document, kept verbatim."""
    out = TermRows([], array("q"), array("q"), array("q"), array("d"), array("q"))
    id_of = dedup._TermIds().__getitem__
    for doc_id, counts in rows:
        if not counts:
            continue
        values = counts.values()
        out.doc_ids.append(doc_id)
        out.ids.extend(map(id_of, counts))
        out.counts.extend(values)
        out.lengths.append(len(counts))
        out.norms.append(dedup._norm(counts))
        out.n_words.append(sum(values))
    return out


REFERENCE_TOKEN_RE = re.compile(r"[^\W_]+")


def reference_from_documents(docs):
    return reference_rows((d.id, Counter(REFERENCE_TOKEN_RE.findall(d.text.lower()))) for d in docs)


def assert_same_rows(got, want):
    import numpy as np

    assert got.doc_ids == want.doc_ids
    for name in ("ids", "counts", "lengths", "norms", "n_words"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


def assert_both_feeders_match_the_reference(docs):
    want = reference_from_documents(docs)
    assert_same_rows(TermRows.from_documents(docs), want)
    assert_same_rows(TermRows.from_vectors(vectors_with_terms(docs)), want)


def test_rows_of_the_mixed_pipeline_inputs_equal_the_reference():
    # the seed-0 inputs of the pipeline-mixed benchmark workload
    docs = radiology_corpus(6000, 0.19, seed=1).documents + pii_corpus(600, seed=2).documents
    for source in ("radiology-report", "ehr"):
        part = [d for d in docs if d.source == source]
        assert len(part) > 500
        assert_both_feeders_match_the_reference(part)


# the alphabet of _texts plus letters outside Latin-1, characters that
# lowercase into it (KELVIN SIGN) or out of one letter into two (İ), a
# titlecase letter, an Arabic-Indic digit, superscripts and non-word Latin-1
_wide_texts = st.lists(
    st.text(alphabet="abcäß AB_-,.12" + "łΣİ\u212aǅ٣²ª×_", max_size=30), max_size=25
)


@settings(max_examples=200, deadline=None)
@given(_wide_texts)
@example(["İstanbul ŁÓDŹ", "\u212aelvin Kelvin", "x²ª_y×z", "٣٣ a", "ǅa ǅA"])
@pytest.mark.parametrize("budget", [1, 2, 7, dedup.ROW_CHUNK_TOKENS])
def test_chunked_rows_equal_the_reference(budget, texts):
    docs = [doc(f"d{i}", text) for i, text in enumerate(texts)]
    with mock.patch.object(dedup, "ROW_CHUNK_TOKENS", budget):
        assert_both_feeders_match_the_reference(docs)


@pytest.mark.parametrize("budget", [1, 2, 7])
def test_rows_in_tiny_chunks_equal_the_reference(budget):
    docs = three_sources(0)
    with mock.patch.object(dedup, "ROW_CHUNK_TOKENS", budget):
        assert_both_feeders_match_the_reference(docs)


def test_latin1_token_class_is_the_unicode_class_below_256():
    # the byte table keeps, lowercased, exactly the bytes of the Unicode class
    unicode_class = re.compile(r"[^\W_]")
    for code in range(256):
        ch = chr(code)
        want = ord(ch.lower()) if unicode_class.fullmatch(ch) else 0x20
        assert dedup._LATIN1_TERM_BYTES[code] == want, code


def reference_tokens(text):
    return REFERENCE_TOKEN_RE.findall(text.lower())


def test_tokens_of_each_latin1_character_equal_the_reference():
    for code in range(256):
        ch = chr(code)
        for text in (ch, f"x{ch}Y", f"É{ch}ß"):
            assert dedup._tokens(text) == reference_tokens(text), code


# all of Latin-1, and characters that lowercase into it (KELVIN SIGN,
# ANGSTROM SIGN), out of one letter into two (İ), to a letter of it (ẞ to ß),
# a titlecase letter and a modifier letter (U+07F5)
_SPECIALS = "\u212a\u212bİẞǅ\u07f5"
_latin1_texts = st.text(
    alphabet=st.characters(max_codepoint=255) | st.sampled_from(_SPECIALS), max_size=40
)


@settings(max_examples=500, deadline=None)
@given(_latin1_texts)
@example("\u212aelvin \u212bngström")
@example("İSTANBUL STRAẞE ǅEMAL a\u07f5b")
@example("ÀÉÎÕÜÿµ² ×÷ ¼½¾ ª_º\xa0\x85x")
def test_tokens_equal_the_reference(text):
    assert dedup._tokens(text) == reference_tokens(text)


def test_term_rows_working_memory_grows_with_the_chunk_not_the_corpus():
    import numpy  # noqa: F401  the builder's first import of numpy is not its memory

    def transient(n_docs):
        """The tracemalloc peak of tokenizing ``n_docs`` reports less the
        bytes of the rows it returns."""
        docs = radiology_corpus(n_docs, 0.19, seed=0).documents
        tracemalloc.start()
        try:
            rows = TermRows.from_documents(docs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a numpy view's getsizeof is its header alone, so count its bytes
        arrays = (rows.ids, rows.counts, rows.lengths, rows.norms, rows.n_words)
        return peak - sys.getsizeof(rows.doc_ids) - sum(a.nbytes for a in arrays)

    # about 1.2 MiB at both sizes; counting every token at once took 5.6
    # and 19.7 MiB
    assert transient(8000) - transient(2000) < 2**20


def test_dedup_documents_memory_stays_bounded():
    docs = radiology_corpus(3000, 0.19, seed=0).documents
    import numpy  # noqa: F401  the screen's first import of numpy is not dedup's memory

    tracemalloc.start()
    try:
        dedup_documents(docs, DedupConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 19 MiB: the rows of the source, the screen's matrices and its
    # fixed 8 MiB score buffer; a vector per document took 34 MiB
    assert peak < 26 * 2**20


def radix_keys(name):
    import numpy as np

    rng = np.random.default_rng(7)
    n = 5000
    if name == "empty":
        return np.zeros(0, np.int64)
    if name == "ties":
        return rng.integers(0, 4, n)
    if name == "ties-above-2**32":
        # few high digits, few low ones: every pass has to keep the last one's order
        return rng.integers(0, 3, n) << 40 | rng.integers(0, 3, n) << 16 | rng.integers(0, 2, n)
    top = {"below-2**16": 2**16, "below-2**32": 2**32, "2**32-and-above": 2**62}[name]
    keys = rng.integers(0, top, n)
    keys[:4] = (0, top - 1, top // 2, top // 2)
    if top > 2**32:
        keys[4:8] = (2**32, 2**32 - 1, 2**16, 2**48)
    return keys


@pytest.mark.parametrize(
    "name",
    ["empty", "ties", "ties-above-2**32", "below-2**16", "below-2**32", "2**32-and-above"],
)
def test_stable_order_is_the_stable_argsort(name):
    import numpy as np

    keys = radix_keys(name)
    got = dedup._stable_order(keys)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(keys, kind="stable"))


def test_annotations_resolve_with_the_type_checking_imports(monkeypatch):
    # array and numpy are bound for type checkers alone, so that the CLI
    # starts without numpy; a copy of the module run as a checker reads it
    # must resolve every annotation of the term rows and the screen
    import numpy as np

    assert not hasattr(dedup, "np") and not hasattr(dedup, "array")
    monkeypatch.setattr(typing, "TYPE_CHECKING", True)
    spec = importlib.util.spec_from_file_location("medcorpus._dedup_typed", dedup.__file__)
    typed = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, typed)
    spec.loader.exec_module(typed)
    assert typing.get_type_hints(typed.TermRows)["ids"] is np.ndarray
    hints = typing.get_type_hints(typed._score_matrices)
    assert hints["return"] == tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]
