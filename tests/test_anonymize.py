import dataclasses
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from medcorpus import anonymize as anonymize_mod, synth
from medcorpus.anonymize import (
    _MONTH_INITIALS,
    _MONTHS,
    DATE_WILDCARD,
    KIND_DATE,
    KIND_NAME,
    NAME_WILDCARD,
    Gazetteer,
    GazetteerRecognizer,
    InvalidSpanError,
    RedactionSpan,
    anonymize_corpus,
    detect_dates,
    detect_names,
    redact,
    verify,
)
from medcorpus.corpus import Document


def surfaces(spans):
    return [s.surface for s in spans]


# --- date detection ---------------------------------------------------------


def test_numeric_date_variants():
    text = "Aufnahme 3.4.2021, Entlassung 05.11.2021, OP 2019-12-31."
    assert surfaces(detect_dates(text)) == ["3.4.2021", "05.11.2021", "2019-12-31"]


def test_two_digit_year_only_full_form():
    assert surfaces(detect_dates("Am 01.02.21.")) == ["01.02.21"]
    # one-digit day or month with a two-digit year is not accepted
    assert detect_dates("Am 1.2.21.") == []


def test_month_name_dates():
    text = "Am 3. April 2021 und im Oktober 1987."
    assert surfaces(detect_dates(text)) == ["3. April 2021", "Oktober 1987"]


def test_month_name_case_insensitive():
    assert surfaces(detect_dates("seit märz 2022")) == ["märz 2022"]


def test_month_initials_are_every_character_that_ignorecase_matches():
    initials = "".join(sorted({m[0] for m in _MONTHS.split("|")}))
    text = "".join(chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF)
    assert set(re.findall(f"[{initials}]", text, re.IGNORECASE)) == set(_MONTH_INITIALS)


def test_day_month_range_validation():
    assert detect_dates("Wert 32.01.2021 gemessen") == []
    assert detect_dates("Wert 01.13.2021 gemessen") == []
    assert surfaces(detect_dates("Am 31.12.2021 gemessen")) == ["31.12.2021"]
    # DD.MM.YY
    assert detect_dates("Wert 32.12.21 gemessen") == []
    assert detect_dates("Wert 31.13.21 gemessen") == []
    assert surfaces(detect_dates("Am 31.12.21 gemessen")) == ["31.12.21"]
    # ISO: month, then day
    assert detect_dates("Am 2021-13-01 gemessen") == []
    assert detect_dates("Am 2021-01-32 gemessen") == []
    assert surfaces(detect_dates("Am 2021-12-31 gemessen")) == ["2021-12-31"]
    # D. Monat YYYY: a 32nd day leaves only the "Monat YYYY" inside it
    assert surfaces(detect_dates("Am 32. März 2021 gemessen")) == ["März 2021"]
    assert surfaces(detect_dates("Am 31. März 2021 gemessen")) == ["31. März 2021"]


def test_digit_context_guards():
    # leading digits or dots glue the candidate into a larger number
    assert detect_dates("Nr 123.04.2021 ist keine Angabe") == []
    assert detect_dates("Kennung 01.02.2134567") == []
    # ISO inside a longer digit run is not a date
    assert detect_dates("Seriennummer 12021-03-04") == []


def test_version_numbers_not_dates():
    assert detect_dates("Software 1.2.3 und 10.4 im Einsatz") == []


def test_contained_month_span_dropped():
    spans = detect_dates("Bericht vom 12. April 2021 liegt vor")
    assert surfaces(spans) == ["12. April 2021"]
    assert len(spans) == 1


def test_date_span_offsets_are_byte_offsets():
    text = "Größe gemessen am 3.4.2021"
    span = detect_dates(text)[0]
    raw = text.encode("utf-8")
    assert raw[span.start : span.end].decode("utf-8") == "3.4.2021"
    # ö and ß take two bytes each, shifting the byte offset past the char index
    assert span.start == text.index("3.4.2021") + 2


# --- name detection ---------------------------------------------------------


def gaz(*names, ci=False):
    return Gazetteer(entries=frozenset(names), case_insensitive=ci)


def test_gazetteer_longest_match_wins():
    rec = GazetteerRecognizer(gaz("Anna", "Anna Schmidt"))
    spans = detect_names("Frau Anna Schmidt kam.", rec)
    assert surfaces(spans) == ["Anna Schmidt"]


def test_gazetteer_word_boundaries():
    rec = GazetteerRecognizer(gaz("Müller"))
    assert detect_names("Müllers Befund", rec) == []
    assert surfaces(detect_names("Herr Müller kam", rec)) == ["Müller"]


def test_gazetteer_case_sensitivity_flag():
    assert detect_names("ANNA kam", GazetteerRecognizer(gaz("Anna"))) == []
    spans = detect_names("ANNA kam", GazetteerRecognizer(gaz("Anna", ci=True)))
    assert surfaces(spans) == ["ANNA"]


def test_empty_gazetteer_rejected():
    with pytest.raises(ValueError):
        GazetteerRecognizer(Gazetteer(entries=frozenset()))


def test_empty_gazetteer_rejected_by_corpus_and_verify():
    # an empty gazetteer built in code is not "no gazetteer": it would let
    # every name through with a passing report
    empty = Gazetteer(frozenset())
    with pytest.raises(ValueError, match="^gazetteer has no entries$"):
        anonymize_corpus([Document(id="d", source="s", text="Anna kam.")], empty)
    with pytest.raises(ValueError, match="^gazetteer has no entries$"):
        verify("Anna kam.", empty)


def test_gazetteer_from_file(tmp_path):
    path = tmp_path / "names.txt"
    path.write_text("Anna\nBernd Müller\n\n", encoding="utf-8")
    g = Gazetteer.from_file(path)
    assert g.entries == frozenset({"Anna", "Bernd Müller"})


def test_gazetteer_from_file_strips_byte_order_mark(tmp_path):
    path = tmp_path / "names.txt"
    path.write_text("\ufeffAnna\nBernd\n", encoding="utf-8")
    g = Gazetteer.from_file(path)
    assert g.entries == frozenset({"Anna", "Bernd"})
    docs = [Document(id="d", source="ehr", text="Anna und Bernd kamen.")]
    out, report = anonymize_corpus(docs, g)
    assert out[0].text == "<NAME> und <NAME> kamen."


# --- redaction --------------------------------------------------------------


def test_redact_replaces_spans():
    text = "Patient Anna kam am 3.4.2021."
    rec = GazetteerRecognizer(gaz("Anna"))
    spans = detect_names(text, rec) + detect_dates(text)
    redacted, applied = redact(text, spans)
    assert redacted == "Patient <NAME> kam am <DATE>."
    assert [s.kind for s in applied] == [KIND_NAME, KIND_DATE]


def test_redact_multibyte_text():
    text = "Größenmessung durch Jürgen Weiß am 01.02.2021 durchgeführt"
    rec = GazetteerRecognizer(gaz("Jürgen Weiß"))
    spans = detect_names(text, rec) + detect_dates(text)
    redacted, _ = redact(text, spans)
    assert redacted == "Größenmessung durch <NAME> am <DATE> durchgeführt"


def test_redact_length_accounting():
    text = "Anna und Bernd am 3.4.2021"
    rec = GazetteerRecognizer(gaz("Anna", "Bernd"))
    spans = detect_names(text, rec) + detect_dates(text)
    redacted, applied = redact(text, spans)
    orig_bytes = len(text.encode("utf-8"))
    red_bytes = len(redacted.encode("utf-8"))
    delta = sum(
        len(s.replacement.encode("utf-8")) - (s.end - s.start) for s in applied
    )
    assert red_bytes == orig_bytes + delta


def test_redact_leaves_complement_bytes_unchanged():
    text = "Vor Anna nach 3.4.2021 Ende"
    rec = GazetteerRecognizer(gaz("Anna"))
    spans = detect_names(text, rec) + detect_dates(text)
    redacted, applied = redact(text, spans)
    raw = text.encode("utf-8")
    outside = []
    pos = 0
    for s in sorted(applied, key=lambda s: s.start):
        outside.append(raw[pos : s.start])
        pos = s.end
    outside.append(raw[pos:])
    joined = b"".join(outside).decode("utf-8")
    for chunk in joined.split():
        if chunk not in ("<NAME>", "<DATE>"):
            assert chunk in redacted


def test_overlapping_name_and_date_merged():
    # "April" as a surname overlaps the date "April 2021"
    text = "Termin April 2021 vereinbart"
    rec = GazetteerRecognizer(gaz("April"))
    spans = detect_names(text, rec) + detect_dates(text)
    redacted, applied = redact(text, spans)
    assert len(applied) == 1
    assert redacted == "Termin <DATE> vereinbart"  # longer date span starts the merge


def test_adjacent_spans_not_merged():
    text = "Anna Karl kamen"
    rec = GazetteerRecognizer(gaz("Anna", "Karl"))
    redacted, applied = redact(text, detect_names(text, rec))
    assert len(applied) == 2
    assert redacted == "<NAME> <NAME> kamen"


def test_invalid_span_rejected():
    text = "Grüße"
    raw = text.encode("utf-8")
    # byte 3 is inside the two-byte ü... actually ü occupies bytes 2-3
    bad = RedactionSpan(start=3, end=len(raw), kind=KIND_NAME, surface="x", replacement="y")
    with pytest.raises(InvalidSpanError):
        redact(text, [bad])
    with pytest.raises(ValueError):
        RedactionSpan(start=5, end=2, kind=KIND_NAME, surface="x", replacement="y")


def test_spans_out_of_range_rejected():
    with pytest.raises(InvalidSpanError):
        redact("ab", [RedactionSpan(0, 99, KIND_NAME, "ab", "<NAME>")])


def test_redact_without_spans_returns_the_text_itself():
    text = "Befund ohne Namen und ohne Datum."
    redacted, applied = redact(text, [])
    assert redacted is text
    assert applied == []


# --- verification and corpus-level run -------------------------------------


def test_verify_flags_unredacted_text():
    g = gaz("Anna")
    assert verify("Anna kam am 3.4.2021", g) != []
    assert verify("<NAME> kam am <DATE>", g) == []


def test_anonymize_corpus_round_trip():
    docs = [
        Document(id="d1", source="ehr", text="Anna Schmidt kam am 03.04.2021."),
        Document(id="d2", source="ehr", text="Kontrolle im März 2022 ohne Namen."),
    ]
    out, report = anonymize_corpus(docs, gaz("Anna Schmidt"))
    assert out[0].text == "<NAME> kam am <DATE>."
    assert out[1].text == "Kontrolle im <DATE> ohne Namen."
    assert report.passed
    assert report.total_name_spans == 1
    assert report.total_date_spans == 2
    assert [r.doc_id for r in report.per_document] == ["d1", "d2"]


def test_anonymize_corpus_delete_mode():
    docs = [Document(id="d", source="ehr", text="Anna kam am 3.4.2021.")]
    out, report = anonymize_corpus(docs, gaz("Anna"), name_wildcard="", date_wildcard="")
    assert out[0].text == " kam am ."
    assert report.passed


def test_anonymize_custom_wildcards():
    docs = [Document(id="d", source="ehr", text="Anna kam am 3.4.2021.")]
    out, _ = anonymize_corpus(docs, gaz("Anna"), name_wildcard="[P]", date_wildcard="[D]")
    assert out[0].text == "[P] kam am [D]."


@pytest.mark.parametrize("param", ["name_wildcard", "date_wildcard"])
def test_wildcard_that_utf8_cannot_encode_is_rejected_up_front(param):
    # no document has a span, so no redaction would ever encode the wildcard
    docs = [Document(id="d", source="ehr", text="Befund ohne Namen und ohne Datum.")]
    with pytest.raises(ValueError, match=param):
        anonymize_corpus(docs, gaz("Anna"), **{param: "\udcff"})


def test_anonymize_corpus_keeps_a_document_without_spans_as_the_same_object():
    docs = [
        Document(id="d1", source="ehr", text="Anna kam am 3.4.2021."),
        Document(id="d2", source="ehr", text="Befund ohne Namen und ohne Datum."),
    ]
    out, report = anonymize_corpus(docs, gaz("Anna"))
    assert out[0] is not docs[0]
    assert out[0] == dataclasses.replace(docs[0], text="<NAME> kam am <DATE>.")
    assert out[1] is docs[1]
    assert report.passed


def _rebuilding_redact(text, spans):
    """:func:`redact` with its output string built anew, as redaction that
    rebuilds the text even without spans returns it."""
    redacted, applied = redact(text, spans)
    return (redacted + "#")[:-1], applied


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.text(alphabet="Anna 3.4.2021 Mär ßz\n", max_size=40), max_size=4),
)
def test_anonymize_corpus_matches_redaction_that_always_rebuilds(seed, texts):
    pii = synth.pii_corpus(3, seed=seed)
    docs = pii.documents + [
        Document(id=f"t{i}", source="ehr", text=text) for i, text in enumerate(texts)
    ]
    g = Gazetteer(entries=frozenset(pii.names) | {"Anna"})
    out, report = anonymize_corpus(docs, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(anonymize_mod, "redact", _rebuilding_redact)
        ref_out, ref_report = anonymize_corpus(docs, g)
    assert out == ref_out
    assert report.to_obj() == ref_report.to_obj()
    for doc, new in zip(docs, out):
        assert (new is doc) == (new.text == doc.text)


def test_anonymize_without_gazetteer_dates_only():
    docs = [Document(id="d", source="ehr", text="Anna kam am 3.4.2021.")]
    out, report = anonymize_corpus(docs, None)
    assert out[0].text == "Anna kam am <DATE>."
    assert report.total_name_spans == 0


def test_report_serialization():
    docs = [Document(id="d", source="ehr", text="Anna kam am 3.4.2021.")]
    _, report = anonymize_corpus(docs, gaz("Anna"))
    obj = report.to_obj()
    assert obj["passed"] is True
    assert obj["total_name_spans"] == 1
    assert obj["total_date_spans"] == 1
    assert obj["per_document"][0]["id"] == "d"


def test_determinism():
    pii = synth.pii_corpus(20, seed=9)
    g = Gazetteer(entries=frozenset(pii.names))
    out1, rep1 = anonymize_corpus(pii.documents, g)
    out2, rep2 = anonymize_corpus(pii.documents, g)
    assert [d.text for d in out1] == [d.text for d in out2]
    assert rep1.to_obj() == rep2.to_obj()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_closure_on_generated_documents(seed):
    pii = synth.pii_corpus(3, seed=seed)
    g = Gazetteer(entries=frozenset(pii.names))
    out, report = anonymize_corpus(pii.documents, g)
    assert report.passed, report.residuals
    for doc in out:
        assert verify(doc.text, g) == []


def test_planted_span_counts_recovered():
    pii = synth.pii_corpus(50, seed=4)
    g = Gazetteer(entries=frozenset(pii.names))
    _, report = anonymize_corpus(pii.documents, g)
    for rec in report.per_document:
        assert rec.n_date_spans == pii.n_dates[rec.doc_id]
        # names may merge (adjacent first+last) but at least one span per name
        assert rec.n_name_spans >= 1
