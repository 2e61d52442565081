import ast
import datetime
import json
import math
import os
import re
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import medcorpus
from medcorpus.benchmark import load_code_records, load_conll
from medcorpus.corpus import (
    MB_BINARY,
    MB_DECIMAL,
    REJECT_EMPTY_AFTER_FILTER,
    REJECT_TOO_FEW_PAGES,
    REJECT_TOO_SHORT,
    CleanPolicy,
    Document,
    clean_corpus,
    clean_document,
    compute_corpus_stats,
    count_words,
    default_german_stopwords,
    document_line,
    load_documents,
    policy_presets,
    read_json,
    read_jsonl,
    read_lines,
    split_sentences,
    stats_to_obj,
    stats_to_tsv,
    write_documents,
    write_json,
    write_jsonl,
)


def make_doc(text, source="other", doc_id="d1", **kw):
    return Document(id=doc_id, source=source, text=text, **kw)


# --- sentence splitting and word counting ----------------------------------


def test_split_two_sentences_four_words():
    text = "Ab c. De f."
    assert split_sentences(text) == ["Ab c.", "De f."]
    assert count_words(text) == 4


def test_split_requires_uppercase_after_terminator():
    assert split_sentences("Wert ca. 5 mg bestimmt.") == ["Wert ca. 5 mg bestimmt."]


def test_split_requires_whitespace_before_uppercase():
    # terminator directly followed by an uppercase letter is not a boundary
    assert split_sentences("Anlage 1.B zeigt alles.") == ["Anlage 1.B zeigt alles."]


def test_split_all_terminators():
    text = "Fieber! Husten? Schnupfen; Dann Besserung."
    assert split_sentences(text) == ["Fieber!", "Husten?", "Schnupfen;", "Dann Besserung."]


def test_split_end_of_text_needs_no_following_space():
    assert split_sentences("Kein Befund.") == ["Kein Befund."]


def test_split_unterminated_tail_kept():
    assert split_sentences("Kein Befund") == ["Kein Befund"]


def test_split_empty_and_whitespace():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []


def test_count_words_collapses_whitespace():
    assert count_words("  a\t b\nc  ") == 3
    assert count_words("") == 0


@given(st.lists(st.sampled_from(["Abc def.", "Ghi jkl!", "Mno pqr?"]), min_size=1, max_size=6))
def test_resplitting_is_stable(sentences):
    text = " ".join(sentences)
    first = split_sentences(text)
    assert split_sentences(" ".join(first)) == first


def split_sentences_by_loop(text):
    """The character loop ``split_sentences`` replaced, kept as its oracle."""
    sentences = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in ".!?;":
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j == n or (j > i + 1 and text[j].isupper()):
                seg = text[start : i + 1].strip()
                if seg:
                    sentences.append(seg)
                start = j
                i = j
                continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


_SPLIT_PIECES = [
    *".!?;", ".x", "1", "42",
    " ", "  ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", "\u2028", "\u3000",
    "a", "wort", "A", "Wort", "Ä", "ẞ", "ǅ", "ß",
]


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(_SPLIT_PIECES), max_size=30).map("".join))
def test_split_sentences_matches_character_loop(text):
    assert split_sentences(text) == split_sentences_by_loop(text)


def test_regex_whitespace_is_str_isspace():
    # split_sentences lets \s decide where a terminator's whitespace run ends
    space = re.compile(r"\s")
    mismatched = [c for c in map(chr, range(0x110000)) if bool(space.match(c)) != c.isspace()]
    assert mismatched == []


# --- loading ---------------------------------------------------------------


def test_load_documents_roundtrip(tmp_path):
    path = tmp_path / "in.jsonl"
    rows = [
        {"id": "a", "source": "ehr", "text": "Text eins.", "date": "2021-03-04"},
        {"source": "ehr", "text": "Ohne id."},
        {"id": "c", "source": "wiki", "text": "Drei.", "meta": {"k": 1}},
        {
            "id": "d", "source": "wiki", "text": "Vier.",
            "meta": {"n": None, "t": True, "f": 1.5, "o": {"x": [1], "ü": "ä"}},
        },
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n\n", encoding="utf-8")
    result = load_documents(path)
    assert [d.id for d in result.documents] == ["a", "ehr:2", "c", "d"]
    assert result.documents[0].doc_date == datetime.date(2021, 3, 4)
    assert result.documents[2].metadata == {"k": "1"}  # meta values stringified
    # as JSON text, not as Python's str()
    assert result.documents[3].metadata == {
        "n": "null", "t": "true", "f": "1.5", "o": '{"x": [1], "ü": "ä"}'
    }
    assert result.errors == []

    out = tmp_path / "out.jsonl"
    write_documents(out, result.documents)
    again = load_documents(out)
    assert again.documents == result.documents


def document_to_obj(doc):
    """The object ``write_documents`` used to dump, kept as the oracle of
    :func:`document_line`."""
    obj = {"id": doc.id, "source": doc.source, "text": doc.text}
    if doc.doc_date is not None:
        obj["date"] = doc.doc_date.isoformat()
    if doc.patient_ref is not None:
        obj["patient_ref"] = doc.patient_ref
    if doc.metadata:
        obj["meta"] = doc.metadata
    return obj


_FIELD_TEXT = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028", "ä", "\U0001f600", "\U00010000"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=8,
)


_DOCUMENT = st.builds(
    Document,
    id=_FIELD_TEXT.filter(bool),
    source=_FIELD_TEXT.filter(bool),
    text=_FIELD_TEXT,
    doc_date=st.none() | st.dates(),
    patient_ref=st.none() | _FIELD_TEXT,
    metadata=st.dictionaries(_FIELD_TEXT, _FIELD_TEXT, max_size=3),
)


@settings(max_examples=500)
@given(_DOCUMENT)
def test_document_line_matches_json_dumps(doc):
    assert document_line(doc) == json.dumps(document_to_obj(doc), ensure_ascii=False) + "\n"


@settings(max_examples=300)
@given(st.lists(_DOCUMENT, max_size=4, unique_by=lambda doc: doc.id))
def test_load_documents_reads_back_what_write_documents_writes(tmp_path_factory, docs):
    path = tmp_path_factory.mktemp("docs") / "docs.jsonl"
    write_documents(path, docs)
    result = load_documents(path)
    assert result.errors == []
    assert result.documents == docs


def test_write_documents_failure_keeps_old_file(tmp_path):
    out = tmp_path / "out.jsonl"
    write_documents(out, [make_doc("alt")])
    before = out.read_bytes()

    def docs():
        yield make_doc("neu")
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError):
        write_documents(out, docs())
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_write_json_through_symlink_keeps_link(tmp_path):
    target = tmp_path / "real.json"
    target.write_text("{}\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_json(link, {"b": 1, "a": "ä"})
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == '{\n  "a": "ä",\n  "b": 1\n}\n'


def test_write_json_into_pipe_writes_without_replacing(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_json(fifo, {"a": 1})
        assert os.read(reader, 1024) == b'{\n  "a": 1\n}\n'
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def _file_writes(tree: ast.AST, corpus_names: set[str]) -> list[int]:
    """Lines that open a file for writing or call ``write_text``/``write_bytes``
    on anything but the corpus module. A mode that is not a literal counts."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            if not (isinstance(func.value, ast.Name) and func.value.id in corpus_names):
                lines.append(node.lineno)
        is_builtin = isinstance(func, ast.Name) and func.id == "open"
        if is_builtin or (isinstance(func, ast.Attribute) and func.attr == "open"):
            mode_index = 1 if is_builtin else 0  # open(path, mode) / Path.open(mode)
            mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None and len(node.args) > mode_index:
                mode = node.args[mode_index]
            if mode is not None and not (
                isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")
            ):
                lines.append(node.lineno)
    return lines


def test_only_the_corpus_module_writes_files():
    package = Path(medcorpus.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "corpus.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        corpus_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
            if alias.name == "corpus"
        }
        lines = _file_writes(tree, corpus_names)
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


def test_file_write_check_sees_each_form():
    source = """
from . import corpus as corpus_mod
open(p, "w")
open(p, mode="a", encoding="utf-8")
open(p, m)
Path(p).open("wb")
Path(p).write_text(t)
p.write_bytes(b)
open(p)
open(p, "r", encoding="utf-8")
Path(p).open()
corpus_mod.write_text(p, [t])
"""
    assert _file_writes(ast.parse(source), {"corpus_mod"}) == [3, 4, 5, 6, 7, 8]


def test_read_lines_one_rule_for_list_files(tmp_path):
    path = tmp_path / "list.txt"
    path.write_bytes("\ufeff Anna \r\n\n\tBernd\n   \nCarla".encode("utf-8"))
    assert read_lines(path) == ["Anna", "Bernd", "Carla"]


def test_read_jsonl_skips_blank_lines_and_names_a_bad_line(tmp_path):
    def objects_only(value):
        if not isinstance(value, dict):
            raise ValueError("not an object")
        return value

    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n[2]\n', encoding="utf-8")
    assert read_jsonl(path, lambda value: value) == [{"a": 1}, [2]]
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: not an object$"):
        read_jsonl(path, objects_only)
    path.write_text('{"a": 1}\n\n{"a": \n', encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: "):
        read_jsonl(path, lambda value: value)


@pytest.mark.parametrize(
    "read",
    [
        read_lines,
        read_json,
        lambda path: read_jsonl(path, lambda value: value),
        load_documents,
        load_code_records,
        load_conll,
    ],
    ids=["read_lines", "read_json", "read_jsonl", "load_documents", "load_code_records", "load_conll"],
)
def test_a_byte_that_is_not_utf8_is_an_error_naming_the_file(tmp_path, read):
    path = tmp_path / "input"
    path.write_bytes(b'{"a": 1}\n\xff\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: "):
        read(path)


def test_json_nested_past_the_recursion_limit_is_a_data_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: "):
        read_json(path)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 1: "):
        read_jsonl(path, lambda value: value)
    assert [e.line_no for e in load_documents(path, "ehr").errors] == [1]


def test_load_documents_records_errors(tmp_path):
    path = tmp_path / "in.jsonl"
    lines = [
        json.dumps({"id": "a", "source": "ehr", "text": "ok"}),
        "{not json",
        json.dumps({"source": "ehr"}),  # no text
        json.dumps({"id": "a", "source": "ehr", "text": "dup id"}),
        json.dumps({"id": "e", "source": "ehr", "text": "fine", "date": "04.03.2021"}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = load_documents(path)
    # non-ISO date on line 5 is a line error like the rest, not silently kept
    assert [d.id for d in result.documents] == ["a"]
    assert sorted(e.line_no for e in result.errors) == [2, 3, 4, 5]


# every non-object meta is a load error, falsy ones too; absent or null is none
META_ROWS = [
    {"id": "absent", "source": "ehr", "text": "t"},
    {"id": "null", "source": "ehr", "text": "t", "meta": None},
    {"id": "empty", "source": "ehr", "text": "t", "meta": {}},
    *({"id": f"bad{i}", "source": "ehr", "text": "t", "meta": v}
      for i, v in enumerate([[], 0, "", False, 0.0, [1], 1, "x", True])),
]


def test_load_documents_meta_that_is_not_an_object_is_a_load_error(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in META_ROWS), encoding="utf-8")
    result = load_documents(path)
    assert [(d.id, d.metadata) for d in result.documents] == [
        ("absent", {}), ("null", {}), ("empty", {})
    ]
    assert [(e.line_no, e.message) for e in result.errors] == [
        (line, "'meta' must be an object") for line in range(4, 13)
    ]


def test_load_documents_source_override(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps({"text": "nur text"}) + "\n", encoding="utf-8")
    assert load_documents(path).errors  # no source anywhere
    result = load_documents(path, source="webcrawl")
    assert result.documents[0].source == "webcrawl"


def test_load_documents_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "in.jsonl"
    lines = [json.dumps({"id": i, "source": "ehr", "text": "Befund."}) for i in ("a", "b")]
    path.write_bytes(("\ufeff" + "\n".join(lines) + "\n").encode("utf-8"))
    result = load_documents(path)
    assert [d.id for d in result.documents] == ["a", "b"]
    assert result.errors == []


@pytest.mark.parametrize(
    "where, row",
    [
        ("['text']", r'{"id": "a", "source": "x", "text": "Kein \ud800 Befund."}'),
        ("['id']", r'{"id": "\udc00", "source": "x", "text": "t"}'),
        ("['source']", r'{"text": "t", "source": "x\ud83d"}'),
        ("['patient_ref']", r'{"id": "a", "source": "x", "text": "t", "patient_ref": "\udfff"}'),
        ("['meta']['k']", r'{"id": "a", "source": "x", "text": "t", "meta": {"k": "\ude00v"}}'),
        (r"['meta']['\ud800']", r'{"id": "a", "source": "x", "text": "t", "meta": {"\ud800": "v"}}'),
    ],
)
def test_load_documents_unpaired_surrogate_is_a_load_error(tmp_path, where, row):
    path = tmp_path / "in.jsonl"
    paired = r'{"id": "p", "source": "x", "text": "Paar \ud83d\ude00 \\ud800 gut."}'
    path.write_text(paired + "\n" + row + "\n", encoding="utf-8")
    result = load_documents(path)
    assert [d.text for d in result.documents] == ["Paar \U0001f600 \\ud800 gut."]
    assert [(e.line_no, e.message) for e in result.errors] == [(2, f"unpaired surrogate in {where}")]


def test_json_readers_reject_an_unpaired_surrogate(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(r'{"inputs": [{"path": "c.jsonl", "source": "\ud800"}]}' "\n", encoding="utf-8")
    message = "unpaired surrogate in ['inputs'][0]['source']"
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: {message}')}$"):
        read_json(path)
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: line 1: {message}')}$"):
        read_jsonl(path, lambda value: value)
    path.write_text(r'"\udfff"', encoding="utf-8")
    with pytest.raises(ValueError, match="unpaired surrogate in the value$"):
        read_json(path)


def test_document_requires_id():
    with pytest.raises(ValueError):
        Document(id="", source="ehr", text="x")


@pytest.mark.parametrize(
    "fields, field",
    [
        ({"source": ""}, "source"),
        ({"metadata": {"k": 1}}, "metadata"),
        ({"metadata": {1: "v"}}, "metadata"),
        ({"metadata": {"k": None}}, "metadata"),
    ],
)
def test_document_rejects_what_its_line_would_not_give_back(fields, field):
    with pytest.raises(ValueError, match=field):
        Document(**{"id": "d", "source": "ehr", "text": "x", **fields})


def test_write_documents_lone_surrogate_names_the_file(tmp_path):
    out = tmp_path / "out.jsonl"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(out))}: 'utf-8' codec can't encode"):
        write_documents(out, [make_doc("a\udcffb")])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writers_refuse_a_non_finite_float_and_keep_the_old_file(tmp_path, bad):
    out = tmp_path / "out.json"
    out.write_text("old\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(out))}: Out of range float"):
        write_json(out, {"a": [1.0, bad]})
    with pytest.raises(ValueError, match="^Out of range float"):
        write_jsonl(out, [{"a": 1.0}, {"a": bad}])
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text(encoding="utf-8") == "old\n"


# --- cleaning --------------------------------------------------------------


def test_radiology_policy_min_chars_boundary():
    pol = CleanPolicy.radiology()
    short = make_doc("x" * 99)
    kept = make_doc("x" * 100)
    assert clean_document(short, pol).reason == REJECT_TOO_SHORT
    outcome = clean_document(kept, pol)
    assert outcome.document is not None and outcome.reason is None


def test_thesis_policy_page_boundary():
    pol = CleanPolicy(min_pages=15, chars_per_page=1800)
    stop = next(iter(default_german_stopwords()))
    sentence = f"Der Wert {stop} steigt an. "
    body = sentence * (15 * 1800 // len(sentence) + 1)
    assert clean_document(make_doc(body), pol).document is not None
    short = make_doc(body[: 15 * 1800 - 1])
    assert clean_document(short, pol).reason == REJECT_TOO_FEW_PAGES


def test_stopword_sentence_filter_drops_stopwordless_sentences():
    stops = frozenset({"der", "und"})
    pol = CleanPolicy(stopword_sentence_filter=True, stopword_list=stops)
    doc = make_doc("Der Patient kam. Tabelle Spalte Zeile. Befund und Verlauf gut.")
    out = clean_document(doc, pol).document
    assert out.text == "Der Patient kam. Befund und Verlauf gut."


def test_stopword_match_ignores_case_and_edge_punctuation():
    pol = CleanPolicy(stopword_sentence_filter=True, stopword_list=frozenset({"und"}))
    doc = make_doc("Herz Und. Lunge (und). Leber niere.")
    out = clean_document(doc, pol).document
    assert out.text == "Herz Und. Lunge (und)."


def test_filter_to_nothing_is_rejected():
    pol = CleanPolicy(stopword_sentence_filter=True, stopword_list=frozenset({"und"}))
    doc = make_doc("Herz Lunge. Leber Niere.")
    assert clean_document(doc, pol).reason == REJECT_EMPTY_AFTER_FILTER


def test_reject_reason_predicate_holds():
    pol = CleanPolicy(min_chars=50)
    doc = make_doc("kurz")
    outcome = clean_document(doc, pol)
    assert outcome.reason == REJECT_TOO_SHORT
    assert len(doc.text) < 50


def test_kept_document_unchanged_without_filter():
    pol = CleanPolicy(min_chars=3)
    doc = make_doc("Langer Text hier.")
    assert clean_document(doc, pol).document is doc


_clean_text = st.text(
    alphabet=st.sampled_from(list("abcdEFG .!?;und der\n")), min_size=0, max_size=200
)


@settings(max_examples=200, deadline=None)
@given(_clean_text, st.sampled_from(list(policy_presets().keys())))
def test_cleaning_is_idempotent(text, source):
    pol = policy_presets()[source]
    outcome = clean_document(make_doc(text, source=source), pol)
    if outcome.document is None:
        return
    again = clean_document(outcome.document, pol)
    assert again.document is not None
    assert again.document.text == outcome.document.text


def test_clean_corpus_routes_by_source():
    docs = [
        make_doc("x" * 99, source="radiology-report", doc_id="r1"),
        make_doc("x" * 100, source="radiology-report", doc_id="r2"),
        make_doc("frei", source="webcrawl", doc_id="w1"),
    ]
    kept, rejects = clean_corpus(docs)
    assert [d.id for d in kept] == ["r2", "w1"]
    assert [(r.doc_id, r.reason) for r in rejects] == [("r1", REJECT_TOO_SHORT)]


def test_clean_corpus_same_policy_for_each_source():
    docs = [make_doc("ab", source="wiki", doc_id="a"), make_doc("abcdef", source="ehr", doc_id="b")]
    policy = CleanPolicy(min_chars=5)
    kept, rejects = clean_corpus(docs, {"wiki": policy, "ehr": policy})
    assert [d.id for d in kept] == ["b"]
    assert rejects[0].doc_id == "a"


# --- stats -----------------------------------------------------------------


def test_stats_fixture():
    docs = [make_doc("Ab c. De f.", source="ehr")]
    stats = compute_corpus_stats(docs)
    s = stats.per_source["ehr"]
    assert (s.n_documents, s.n_sentences, s.n_words) == (1, 2, 4)
    assert s.size_bytes == len("Ab c. De f.".encode("utf-8"))


def test_stats_counts_utf8_bytes():
    stats = compute_corpus_stats([make_doc("Grüße")])
    assert stats.total.size_bytes == len("Grüße".encode("utf-8")) == 7


@given(
    st.lists(
        st.tuples(st.sampled_from(["ehr", "wiki"]), st.text(max_size=40)),
        max_size=10,
    ),
    st.lists(
        st.tuples(st.sampled_from(["ehr", "abstract"]), st.text(max_size=40)),
        max_size=10,
    ),
)
def test_stats_additivity(rows_a, rows_b):
    docs_a = [make_doc(t, source=s, doc_id=f"a{i}") for i, (s, t) in enumerate(rows_a)]
    docs_b = [make_doc(t, source=s, doc_id=f"b{i}") for i, (s, t) in enumerate(rows_b)]
    tot = compute_corpus_stats(docs_a + docs_b).total
    parts = [compute_corpus_stats(docs_a).total, compute_corpus_stats(docs_b).total]
    assert tot.n_documents == sum(p.n_documents for p in parts)
    assert tot.n_words == sum(p.n_words for p in parts)


def test_words_at_least_sentences():
    for text in ["Kein Befund.", "Eins. Zwei drei. Vier!", "Wort"]:
        assert count_words(text) >= len(split_sentences(text)) > 0


def test_stats_tsv_layout():
    docs = [
        make_doc("Ab c. De f.", source="wiki", doc_id="w"),
        make_doc("Kurz.", source="ehr", doc_id="e"),
    ]
    tsv = stats_to_tsv(compute_corpus_stats(docs))
    lines = tsv.strip().split("\n")
    assert lines[0] == "Source\tNo. Documents\tNo. Sentences\tNo. Words\tSize (MB)"
    assert lines[1].startswith("ehr\t1\t1\t1\t")
    assert lines[2].startswith("wiki\t1\t2\t4\t")
    assert lines[3].startswith("Summary\t2\t3\t5\t")


def test_mb_base_flag():
    doc = make_doc("x" * 3_000_000)
    stats = compute_corpus_stats([doc])
    assert stats_to_obj(stats, MB_DECIMAL)["total"]["size_mb"] == 3
    assert stats_to_obj(stats, MB_BINARY)["total"]["size_mb"] == 3  # 2.86 rounds to 3
    big = compute_corpus_stats([make_doc("x" * 1_500_000)])
    assert stats_to_obj(big, MB_DECIMAL)["total"]["size_mb"] == 2
    assert stats_to_obj(big, MB_BINARY)["total"]["size_mb"] == 1
