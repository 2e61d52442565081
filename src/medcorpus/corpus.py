"""Document ingestion, per-source cleaning, and corpus statistics.

Documents arrive as JSONL, one object per line, and flow through the rest of
the toolkit as :class:`Document` values. Cleaning is policy-driven so that
each source kind (radiology reports, theses, ...) can apply its own length
thresholds and the stopword sentence filter.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, replace
from datetime import date as _date
from importlib import resources
from json.encoder import encode_basestring as _json_str
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence, TextIO

# a terminator and the whitespace after it; sre's \s is str.isspace()
_TERMINATOR_RUN = re.compile(r"[.!?;]\s*")
# json.loads pairs escaped surrogates, so one left in a decoded string is unpaired
_SURROGATE = re.compile(r"[\ud800-\udfff]")

REJECT_TOO_SHORT = "too-short"
REJECT_TOO_FEW_PAGES = "too-few-pages"
REJECT_EMPTY_AFTER_FILTER = "empty-after-filter"


@dataclass
class Document:
    """One text unit with its provenance.

    ``source`` is an open set of kinds; :func:`policy_presets` covers some of
    them, and unknown kinds pass through untouched.
    """

    id: str
    source: str
    text: str
    doc_date: _date | None = None
    patient_ref: str | None = None
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        if not self.source:
            raise ValueError("document source must be non-empty")
        if self.metadata:
            for key, value in self.metadata.items():
                if not (isinstance(key, str) and isinstance(value, str)):
                    raise ValueError(f"document metadata must map strings to strings: {key!r}")


@dataclass
class LoadError:
    line_no: int
    message: str


@dataclass
class LoadResult:
    documents: list[Document]
    errors: list[LoadError]


def _document_from_obj(obj: object, source: str | None, line_no: int) -> Document:
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    text = obj.get("text")
    if not isinstance(text, str):
        raise ValueError("missing or non-string 'text' field")
    src = obj.get("source", source)
    if not isinstance(src, str) or not src:
        raise ValueError("missing 'source' field and no default source given")
    doc_id = obj.get("id")
    if doc_id is None:
        doc_id = f"{src}:{line_no}"
    elif not isinstance(doc_id, str) or not doc_id:
        raise ValueError("'id' must be a non-empty string")
    doc_date = None
    raw_date = obj.get("date")
    if raw_date is not None:
        if not isinstance(raw_date, str):
            raise ValueError("'date' must be an ISO-8601 string")
        try:
            doc_date = _date.fromisoformat(raw_date)
        except ValueError as exc:
            raise ValueError(f"bad 'date' value {raw_date!r}: {exc}") from None
    patient_ref = obj.get("patient_ref")
    if patient_ref is not None and not isinstance(patient_ref, str):
        raise ValueError("'patient_ref' must be a string")
    meta = obj.get("meta") or {}
    if not isinstance(meta, dict):
        raise ValueError("'meta' must be an object")
    metadata = {str(k): str(v) for k, v in meta.items()}
    return Document(doc_id, src, text, doc_date, patient_ref, metadata)


def load_documents(
    path: str | Path, source: str | None = None, seen_ids: set[str] | None = None
) -> LoadResult:
    """Read a JSONL corpus file.

    The file is UTF-8, optionally with a byte order mark. Malformed lines,
    among them a line whose strings hold an unpaired surrogate, are
    reported in the result, never dropped silently. ``source``
    supplies the source kind for lines that do not carry one. Ids are taken
    from the file or synthesized as ``<source>:<line-number>``; a repeated
    id is an error for the later line. To apply that rule across several
    files, pass the same ``seen_ids`` set to each call; it is updated with
    the ids loaded.
    """
    documents: list[Document] = []
    errors: list[LoadError] = []
    if seen_ids is None:
        seen_ids = set()
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = _document_from_obj(_loads(line), source, line_no)
            except (ValueError, RecursionError) as exc:
                errors.append(LoadError(line_no, str(exc)))
                continue
            if doc.id in seen_ids:
                errors.append(LoadError(line_no, f"duplicate document id {doc.id!r}"))
                continue
            seen_ids.add(doc.id)
            documents.append(doc)
    return LoadResult(documents, errors)


def document_line(doc: Document) -> str:
    """The JSONL line of ``doc``, newline included: the keys ``id``,
    ``source``, ``text`` and, when set, ``date``, ``patient_ref`` and
    ``meta``, as ``json.dumps(..., ensure_ascii=False)`` writes them."""
    line = (
        f'{{"id": {_json_str(doc.id)}, "source": {_json_str(doc.source)}, '
        f'"text": {_json_str(doc.text)}'
    )
    if doc.doc_date is not None:
        line += f', "date": "{doc.doc_date.isoformat()}"'
    if doc.patient_ref is not None:
        line += f', "patient_ref": {_json_str(doc.patient_ref)}'
    if doc.metadata:
        line += f', "meta": {json.dumps(doc.metadata, ensure_ascii=False)}'
    return line + "}\n"


# --- the file layer: every artifact write and list or JSONL read -----------


def _surrogate_path(value) -> list | None:
    """The keys and indices down to the first string in the decoded JSON
    ``value``, key or value, that holds a surrogate; None if none does."""
    if isinstance(value, str):
        return [] if _SURROGATE.search(value) else None
    if isinstance(value, list):
        value = dict(enumerate(value))
    if not isinstance(value, dict):
        return None  # a number, a boolean or null
    for key, child in value.items():
        if isinstance(key, str) and _SURROGATE.search(key):
            return [key]
        below = _surrogate_path(child)
        if below is not None:
            return [key, *below]
    return None


def _loads(text: str):
    """``json.loads(text)`` for an input file: a string holding an unpaired
    surrogate, which no UTF-8 artifact can hold, is a ``ValueError`` that
    says where it is."""
    value = json.loads(text)
    # only a \u escape makes a surrogate; "\\" alone is a memchr, far cheaper
    # than the two-character search on non-ASCII text
    if "\\" in text and "\\u" in text:
        path = _surrogate_path(value)
        if path is not None:
            where = "".join(f"[{key!r}]" for key in path) or "the value"
            raise ValueError(f"unpaired surrogate in {where}")
    return value


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open an input file for reading: UTF-8, optionally with a byte order
    mark. A byte that is not UTF-8 raises a ``ValueError`` that names the
    file."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to a temp file next to ``path``, then rename it over
    ``path``, so a reader never sees a half-written artifact and a failure
    part-way leaves the old file as it was. ``chunks`` is consumed lazily.
    A chunk that UTF-8 cannot encode, such as one holding a lone surrogate,
    raises a ``ValueError`` that names the file."""
    path = Path(path)
    if path.exists() and not path.is_file():
        # a pipe or device such as /dev/stdout can be written but not replaced
        _write_utf8(path, chunks, path)
        return
    target = path.resolve()  # through a symlink, replace the file it points to
    tmp = target.with_name(target.name + ".tmp")
    try:
        _write_utf8(tmp, chunks, path)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_utf8(dest: Path, chunks: Iterable[str], path: Path) -> None:
    try:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except UnicodeEncodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    """One compact JSON value per line, non-ASCII characters unescaped."""
    write_text(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def write_documents(path: str | Path, docs: Iterable[Document]) -> None:
    """One :func:`document_line` per document, in ``docs`` order."""
    write_text(path, map(document_line, docs))


def json_text(obj) -> str:
    """The JSON artifact format: sorted keys, two-space indent, non-ASCII
    characters unescaped, trailing newline."""
    return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` in :func:`json_text` format."""
    write_text(path, [json_text(obj)])


def read_lines(path: str | Path) -> list[str]:
    """The entries of a list file: UTF-8 with an optional byte order mark,
    one entry per line, surrounding whitespace stripped, blank lines
    skipped."""
    with open_text(path) as fh:
        return [entry for entry in (line.strip() for line in fh) if entry]


def read_json(path: str | Path):
    """One JSON document; a parse error names the file."""
    with open_text(path) as fh:
        try:
            return _loads(fh.read())
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def checked_object(obj: object, part: str, keys: Collection[str]) -> dict:
    """``obj`` if it is a JSON object holding only ``keys``; otherwise a
    ``ValueError`` that names ``part`` and the first unknown key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{part} must be a JSON object, not {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {part}; known: {sorted(keys)}")
    return obj


def read_jsonl(path: str | Path, parse: Callable[[object], object]) -> list:
    """``parse`` of the JSON value on each non-blank line. A malformed line,
    or a value ``parse`` rejects with a ``ValueError``, raises a
    ``ValueError`` that names the file and the line number."""
    rows = []
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rows.append(parse(_loads(line)))
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"{path}: line {line_no}: {exc}") from None
    return rows


# --- sentence and word segmentation ---------------------------------------


def split_sentences(text: str) -> list[str]:
    """Split on ``. ! ? ;`` followed by whitespace and an uppercase letter,
    or by end of text. No abbreviation handling, by design: the rule is
    cheap, deterministic, and stable under re-splitting of its own output.
    """
    sentences: list[str] = []
    start = 0
    n = len(text)
    for run in _TERMINATOR_RUN.finditer(text):
        end = run.end()
        # the run ends the text, or it took whitespace and an uppercase letter follows
        if end == n or (end > run.start() + 1 and text[end].isupper()):
            seg = text[start : run.start() + 1].strip()
            if seg:
                sentences.append(seg)
            start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def count_words(text: str) -> int:
    """A word is a maximal run of non-whitespace characters."""
    return len(text.split())


# --- cleaning --------------------------------------------------------------


def default_german_stopwords() -> frozenset[str]:
    data = resources.files("medcorpus").joinpath("data/stopwords_de.txt").read_text("utf-8")
    return frozenset(w for w in data.split() if w)


@dataclass(frozen=True)
class CleanPolicy:
    """Thresholds and filters applied per document before anything else.

    A page is a fixed character budget, not a layout page. The stopword
    sentence filter deletes every sentence that contains no stopword at all
    and re-joins the remainder; length thresholds are then checked on the
    filtered text so that cleaning is idempotent. ``stopword_list`` may be
    given as any collection of strings; it is kept as a frozenset.
    """

    min_chars: int = 0
    min_pages: int = 0
    chars_per_page: int = 1800
    stopword_sentence_filter: bool = False
    stopword_list: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "stopword_list", frozenset(self.stopword_list))
        if self.min_chars < 0 or self.min_pages < 0:
            raise ValueError("thresholds must be >= 0")
        if self.chars_per_page <= 0:
            raise ValueError("chars_per_page must be positive")
        if self.stopword_sentence_filter and not self.stopword_list:
            raise ValueError("stopword filter enabled but stopword_list is empty")

    @classmethod
    def radiology(cls) -> "CleanPolicy":
        return cls(min_chars=100)

    @classmethod
    def thesis(cls) -> "CleanPolicy":
        return cls(
            min_pages=15,
            stopword_sentence_filter=True,
            stopword_list=default_german_stopwords(),
        )


def policy_presets() -> dict[str, CleanPolicy]:
    return {"radiology-report": CleanPolicy.radiology(), "thesis": CleanPolicy.thesis()}


@dataclass
class CleanOutcome:
    kept: bool
    document: Document | None
    reason: str | None


def _sentence_has_stopword(sentence: str, stopwords: frozenset[str]) -> bool:
    for token in sentence.split():
        start, end = 0, len(token)
        while start < end and not token[start].isalnum():
            start += 1
        while end > start and not token[end - 1].isalnum():
            end -= 1
        word = token[start:end]
        if word.lower() in stopwords:
            return True
    return False


def clean_document(doc: Document, policy: CleanPolicy) -> CleanOutcome:
    """Apply one policy to one document.

    Rejection reasons, in check order: empty-after-filter, too-short,
    too-few-pages. The text is only rewritten when the sentence filter
    actually removed something.
    """
    text = doc.text
    if policy.stopword_sentence_filter:
        sentences = split_sentences(text)
        kept_sentences = [s for s in sentences if _sentence_has_stopword(s, policy.stopword_list)]
        if not kept_sentences:
            return CleanOutcome(False, None, REJECT_EMPTY_AFTER_FILTER)
        if len(kept_sentences) != len(sentences):
            text = " ".join(kept_sentences)
    if len(text) < policy.min_chars:
        return CleanOutcome(False, None, REJECT_TOO_SHORT)
    if len(text) < policy.min_pages * policy.chars_per_page:
        return CleanOutcome(False, None, REJECT_TOO_FEW_PAGES)
    if text is doc.text:
        return CleanOutcome(True, doc, None)
    return CleanOutcome(True, replace(doc, text=text), None)


@dataclass
class RejectRecord:
    doc_id: str
    source: str
    reason: str


def reject_log_obj(rejects: Iterable[RejectRecord]) -> dict:
    return {"rejects": [{"id": r.doc_id, "source": r.source, "reason": r.reason} for r in rejects]}


def clean_corpus(
    docs: Sequence[Document],
    policies: Mapping[str, CleanPolicy] | None = None,
) -> tuple[list[Document], list[RejectRecord]]:
    """Clean a corpus, choosing the policy by source kind.

    ``policies`` maps a source to its policy (unknown sources get a
    permissive default); None means the presets. Rejected documents land in
    the reject log with their reason.
    """
    if policies is None:
        policies = policy_presets()
    permissive = CleanPolicy()
    kept: list[Document] = []
    rejects: list[RejectRecord] = []
    for doc in docs:
        outcome = clean_document(doc, policies.get(doc.source, permissive))
        if outcome.kept:
            assert outcome.document is not None
            kept.append(outcome.document)
        else:
            assert outcome.reason is not None
            rejects.append(RejectRecord(doc.id, doc.source, outcome.reason))
    return kept, rejects


# --- statistics ------------------------------------------------------------


@dataclass
class SourceStats:
    n_documents: int = 0
    n_sentences: int = 0
    n_words: int = 0
    size_bytes: int = 0

    def add_document(self, doc: Document) -> None:
        self.n_documents += 1
        self.n_sentences += len(split_sentences(doc.text))
        self.n_words += count_words(doc.text)
        self.size_bytes += len(doc.text.encode("utf-8"))


@dataclass
class CorpusStats:
    per_source: dict[str, SourceStats]

    @property
    def total(self) -> SourceStats:
        """The field-by-field sum over all sources."""
        return SourceStats(*map(sum, zip(*map(astuple, self.per_source.values()))))


def compute_corpus_stats(docs: Iterable[Document]) -> CorpusStats:
    per_source: dict[str, SourceStats] = {}
    for doc in docs:
        per_source.setdefault(doc.source, SourceStats()).add_document(doc)
    return CorpusStats(per_source)


MB_DECIMAL = 1_000_000
MB_BINARY = 1 << 20


def _size_mb(size_bytes: int, mb_base: int) -> int:
    return round(size_bytes / mb_base)


def stats_to_tsv(stats: CorpusStats, mb_base: int = MB_DECIMAL) -> str:
    """Render the per-source table plus a Summary row.

    Size (MB) is bytes divided by ``mb_base`` (decimal megabytes by default,
    pass MB_BINARY for mebibytes), rounded to an integer.
    """
    rows = [*sorted(stats.per_source.items()), ("Summary", stats.total)]
    lines = ["Source\tNo. Documents\tNo. Sentences\tNo. Words\tSize (MB)"]
    lines += [
        f"{name}\t{s.n_documents}\t{s.n_sentences}\t{s.n_words}\t{_size_mb(s.size_bytes, mb_base)}"
        for name, s in rows
    ]
    return "\n".join(lines) + "\n"


def stats_to_obj(stats: CorpusStats, mb_base: int = MB_DECIMAL) -> dict:
    def one(s: SourceStats) -> dict:
        return {**asdict(s), "size_mb": _size_mb(s.size_bytes, mb_base)}

    return {
        "per_source": {src: one(s) for src, s in stats.per_source.items()},
        "total": one(stats.total),
    }
