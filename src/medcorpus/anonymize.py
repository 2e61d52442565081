"""Rule-based de-identification: gazetteer names and German date formats.

Spans carry byte offsets into the UTF-8 encoding of the original text and
must fall on character boundaries. Detection matches on characters and
converts only the match endpoints to byte offsets, once per scan, in one
span builder. The date forms are one table: each row a pattern and the
groups of its day and month, which one range check reads. The scans skip
to where a match can start instead of trying every position: the numeric
date patterns begin with a digit and check what precedes it after that
digit, and a text without two adjacent digits holds no date. A Latin-1
text without 0-9 holds no digit at all, since ``\\d`` matches no other
Latin-1 character, so it is passed over without a regex scan. In
case-sensitive mode the name scan begins with an entry's first character.
In both modes it reads the entries only where the text begins with the
first ``HEAD_CHARS`` characters of one of them, or with all of a shorter
one. One detection pass lists the detectors; the scan and the re-scan of
the redacted output both run it, in full, on every document.

Redaction splices replacement strings over the spans and leaves every byte
outside them untouched, which makes the length accounting and the closure
check (re-detect on the output) mechanically verifiable.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace as _dc_replace
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .corpus import Document, read_lines

KIND_NAME = "name"
KIND_DATE = "date"

NAME_WILDCARD = "<NAME>"
DATE_WILDCARD = "<DATE>"


class InvalidSpanError(ValueError):
    pass


@dataclass(frozen=True)
class RedactionSpan:
    """Byte range [start, end) in the UTF-8 text, with its surface form."""

    start: int
    end: int
    kind: str
    surface: str
    replacement: str

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise InvalidSpanError(f"bad span bounds [{self.start}, {self.end})")
        if self.kind not in (KIND_NAME, KIND_DATE):
            raise InvalidSpanError(f"unknown span kind {self.kind!r}")


@dataclass(frozen=True)
class Gazetteer:
    """Known person names, one entry per matchable surface form."""

    entries: frozenset[str]
    case_insensitive: bool = False

    @classmethod
    def from_file(cls, path, case_insensitive: bool = False) -> "Gazetteer":
        """The entries of the list file ``path``. A file without entries is a
        ``ValueError`` that names it: it would turn name redaction off."""
        entries = frozenset(read_lines(path))
        if not entries:
            raise ValueError(f"{path}: gazetteer has no entries")
        return cls(entries, case_insensitive)


def _byte_offsets(text: str, positions: Sequence[int]) -> list[int]:
    """UTF-8 byte offsets of the sorted character ``positions`` in ``text``."""
    if text.isascii():
        return list(positions)
    offsets = []
    prev = total = 0
    for pos in positions:
        total += len(text[prev:pos].encode("utf-8"))
        offsets.append(total)
        prev = pos
    return offsets


def _spans(
    text: str, ranges: Sequence[tuple[int, int]], kind: str, wildcard: str
) -> list[RedactionSpan]:
    """Spans of the character ``ranges`` of ``text``, in their order; each
    distinct endpoint is converted to a byte offset once."""
    if not ranges:
        return []
    points = sorted({p for r in ranges for p in r})
    byte_at = dict(zip(points, _byte_offsets(text, points)))
    return [RedactionSpan(byte_at[s], byte_at[e], kind, text[s:e], wildcard) for s, e in ranges]


def _drop_contained(spans: list[RedactionSpan]) -> list[RedactionSpan]:
    """Keep only maximal spans: drop any span nested inside another."""
    spans = sorted(spans, key=lambda s: (s.start, -s.end))
    out: list[RedactionSpan] = []
    max_end = -1
    for span in spans:
        if span.end <= max_end:
            continue
        out.append(span)
        max_end = span.end
    return out


_BOUNDARY = re.compile(r"\b")
# How many leading characters of each entry the name scan's head set keeps.
# At 4, on 6,000 radiology reports and 600 PII notes with 38 entries, a scan
# tries 2,400 candidates, one per name found (19,087 without heads, 5,364 at
# 3), and its time stays flat from 20k to 100k entries, which hold most
# 3-letter heads. The price is memory: the set and its strings took 3.2 MiB
# at 20k entries and 9.5 MiB at 100k (1.3 and 3.3 MiB at 3).
HEAD_CHARS = 4

# Lowercase letters whose full uppercase spans several characters yet is
# shared with another lowercase letter; re.IGNORECASE treats each pair as one.
_SHARED_MULTI_UPPER = {"\u1fd3": "\u0390", "\u1fe3": "\u03b0", "\ufb06": "\ufb05"}


def _fold_char(ch: str) -> str:
    """One-character case fold under which two characters are equal exactly
    when ``re.IGNORECASE`` matches one against the other.

    ``re`` lowercases to the first character of the full lowercase mapping
    ("İ" -> "i") and treats lowercase letters with the same uppercase as equal
    ("ſ" and "s", "ı" and "i", "ς" and "σ").
    """
    lower = ch.lower()[0]
    upper = lower.upper()
    return upper if len(upper) == 1 else _SHARED_MULTI_UPPER.get(lower, lower)


class _FoldTable(dict):
    """``str.translate`` table that folds each code point on first use."""

    def __missing__(self, code: int) -> int:
        folded = self[code] = ord(_fold_char(chr(code)))
        return folded


class GazetteerRecognizer:
    """Longest-match gazetteer scan on word boundaries.

    Finds the same spans as ``finditer`` over ``\\b(?:e1|e2|...)\\b`` with
    the entries alternated longest-first, but at a cost per document that does
    not depend on the number of entries. One small regex yields candidate
    starts: a word boundary followed by an entry's first character and one of
    its second characters. From each candidate the scan extends the slice
    from word boundary to word boundary while some entry extends it, keeps
    the longest slice that is an entry, and resumes after it. One bisection
    of the sorted entries answers both questions for a slice, since every
    entry that extends it follows it directly in sorted order. A candidate
    is passed over unless the text there begins with a head: an entry's
    first ``HEAD_CHARS`` characters, or all of a shorter entry. Building the
    recognizer costs one sort of the entries and keeps one list of them and
    one set of their heads, so its memory grows in proportion to the number
    of entries. In case-insensitive mode text and entries are compared after
    a length-preserving per-character fold that agrees with
    ``re.IGNORECASE``, and the heads are cut after that fold.
    """

    def __init__(self, gazetteer: Gazetteer, wildcard: str = NAME_WILDCARD) -> None:
        if not gazetteer.entries:
            raise ValueError("gazetteer has no entries")
        if "" in gazetteer.entries:
            raise ValueError("gazetteer has an empty entry")
        self.gazetteer = gazetteer
        self.wildcard = wildcard
        self._fold = _FoldTable() if gazetteer.case_insensitive else None
        entries = gazetteer.entries
        if self._fold is not None:
            entries = {self._key(e) for e in entries}
        self._sorted = sorted(entries)
        self._heads = set(map(itemgetter(slice(HEAD_CHARS)), self._sorted))
        self._head_lengths = sorted(set(map(len, self._heads)))
        seconds: dict[str, set[str]] = {}
        for head in {h[:2] for h in self._heads}:
            seconds.setdefault(head[0], set()).add(head[1:])
        branches = [
            (re.escape(first), "" if "" in nexts else "[%s]" % re.escape("".join(sorted(nexts))))
            for first, nexts in sorted(seconds.items())
        ]
        if self._fold is None:
            # Each branch is led by its first character F, so the regex engine
            # skips to the characters that start an entry; the lookbehind puts
            # the word boundary before F.
            self._starts = re.compile(
                "|".join(rf"{f}(?<=\b{f})" + (f"(?={s})" if s else "") for f, s in branches)
            )
        else:
            # IGNORECASE turns that skip off for cased characters, and trying
            # every branch at every position is slower than testing \b first.
            self._starts = re.compile(
                r"\b(?=%s)" % "|".join(f + s for f, s in branches), re.IGNORECASE
            )

    def _key(self, text: str) -> str:
        return text if self._fold is None else text.translate(self._fold)

    def _match_end(self, text: str, keys: str, start: int) -> int | None:
        """End of the longest entry at ``start`` that ends on a word boundary."""
        entries = self._sorted
        best = None
        pos = start + 1
        while pos <= len(text) and (m := _BOUNDARY.search(text, pos)) is not None:
            end = m.start()
            piece = keys[start:end]
            # piece is an entry if it sits just before i, and the entries that
            # extend it, if any, begin at i
            i = bisect_right(entries, piece)
            if i and entries[i - 1] == piece:
                best = end
            if i == len(entries) or not entries[i].startswith(piece):
                break
            pos = end + 1
        return best

    def detect(self, text: str) -> list[RedactionSpan]:
        keys = self._key(text)
        heads, head_lengths = self._heads, self._head_lengths
        ranges: list[tuple[int, int]] = []
        resume = 0
        for m in self._starts.finditer(text):
            start = m.start()
            if start < resume:
                continue
            for k in head_lengths:
                if keys[start : start + k] in heads:
                    break
            else:
                continue  # no entry starts here
            end = self._match_end(text, keys, start)
            if end is not None:
                ranges.append((start, end))
                resume = end
        return _spans(text, ranges, KIND_NAME, self.wildcard)


def detect_names(text: str, recognizer: GazetteerRecognizer) -> list[RedactionSpan]:
    """The recognizer's spans, ascending and disjoint."""
    return recognizer.detect(text)


_MONTHS = (
    "Januar|Februar|März|April|Mai|Juni|Juli|August|September|Oktober|November|Dezember"
)

# Numeric day.month.year; two-digit years only in the full DD.MM.YY form.
# The digit-led forms open with ``\d`` so that the regex engine skips to
# digits; the lookbehind that a match start needs follows that first digit,
# and ``(?:(?<=[0-3])\d)?`` is ``[0-3]?\d`` read from its first digit.
_DAY = r"(\d(?<![\d.]\d)(?:(?<=[0-3])\d)?)"
# IGNORECASE turns off sre's skip to a first character when that character is
# cased, so "Monat YYYY" opens with a case-sensitive class of every character
# that IGNORECASE matches to a month's initial (U+017F is the long s), checks
# the word boundary before it, and reads the rest of a month with that initial.
_MONTH_INITIALS = "JjFfMmAaSs\u017fOoNnDd"


def _month_tails() -> str:
    tails: dict[str, list[str]] = {}
    for month in _MONTHS.split("|"):
        tails.setdefault(month[0].lower(), []).append(month[1:])
    return "|".join(f"(?<={i})(?:{'|'.join(rest)})" for i, rest in tails.items())


# a month name, read from its initial
_MONTH_WORD = r"((?-i:[%s])(?<=\b.)(?:%s))" % (_MONTH_INITIALS, _month_tails())
# One row per date form (D.M.YYYY, DD.MM.YY, YYYY-MM-DD, D. Monat YYYY and
# Monat YYYY): its pattern, the group of its day and the group of its month,
# 0 where the form has none. A day must read 1-31 and a month 1-12.
_DATE_FORMS = (
    (re.compile(_DAY + r"\.([01]?\d)\.(\d{4})(?!\d)"), 1, 2),
    (re.compile(r"(\d(?<![\d.]\d)\d)\.(\d{2})\.(\d{2})(?!\d)"), 1, 2),
    (re.compile(r"(\d(?<!\d\d)\d{3})-(\d{2})-(\d{2})(?!\d)"), 3, 2),
    (re.compile(_DAY + r"\.\s*(%s)\s+(\d{4})(?!\d)" % _MONTHS, re.IGNORECASE), 1, 0),
    (re.compile(_MONTH_WORD + r"\s+(\d{4})(?!\d)", re.IGNORECASE), 0, 0),
)
# Every date holds two adjacent digits.
_DIGIT_PAIR = re.compile(r"\d\d")


def _has_no_digit(text: str) -> bool:
    """True only if ``text`` holds no character that ``\\d`` matches: it holds
    none of 0-9 and encodes as Latin-1, in which ``\\d`` matches nothing else
    (the first other character it matches is U+0660). ``False`` decides
    nothing."""
    for d in "0123456789":
        if d in text:
            return False
    try:
        text.encode("latin-1")
    except UnicodeEncodeError:
        return False
    return True


def detect_dates(text: str, wildcard: str = DATE_WILDCARD) -> list[RedactionSpan]:
    """Find German-format dates.

    Covered: D.M.YYYY and DD.MM.YYYY, DD.MM.YY, "D. Monat YYYY",
    "Monat YYYY", and ISO YYYY-MM-DD. Day and month values are range
    checked, so "12.34" or a 34th month never match.
    """
    if _has_no_digit(text) or _DIGIT_PAIR.search(text) is None:
        return []
    ranges = [
        m.span()
        for pattern, day, month in _DATE_FORMS
        for m in pattern.finditer(text)
        if (not day or 1 <= int(m[day]) <= 31) and (not month or 1 <= int(m[month]) <= 12)
    ]
    # maximal spans, so their starts, and with them their ends, strictly increase
    return _drop_contained(_spans(text, ranges, KIND_DATE, wildcard))


def _merge_spans(spans: Sequence[RedactionSpan]) -> list[RedactionSpan]:
    """Union overlapping spans; the earlier-starting span decides kind and
    replacement. Adjacent but non-overlapping spans stay separate."""
    if not spans:
        return []
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    merged = [ordered[0]]
    for span in ordered[1:]:
        last = merged[-1]
        if span.start < last.end:
            if span.end > last.end:
                merged[-1] = _dc_replace(last, end=span.end, surface="")
        else:
            merged.append(span)
    return merged


def redact(text: str, spans: Sequence[RedactionSpan]) -> tuple[str, list[RedactionSpan]]:
    """Replace each merged span with its replacement string.

    Returns the redacted text and the merged spans that were applied, with
    surfaces re-read from the original text. Spans must lie inside the text
    and on character boundaries. Without spans the text is returned itself,
    not a copy, so a caller can tell an unchanged text by identity.
    """
    if not spans:
        return text, []
    data = text.encode("utf-8")

    def boundary(pos: int) -> bool:
        return pos == len(data) or (data[pos] & 0xC0) != 0x80

    merged = _merge_spans(spans)
    applied: list[RedactionSpan] = []
    parts: list[bytes] = []
    cursor = 0
    for span in merged:
        if span.end > len(data):
            raise InvalidSpanError(f"span [{span.start}, {span.end}) outside text")
        if not boundary(span.start) or not boundary(span.end):
            raise InvalidSpanError(
                f"span [{span.start}, {span.end}) does not fall on character boundaries"
            )
        if span.start < cursor:
            raise InvalidSpanError("overlapping spans survived merging")
        surface = data[span.start : span.end].decode("utf-8")
        applied.append(RedactionSpan(span.start, span.end, span.kind, surface, span.replacement))
        parts.append(data[cursor : span.start])
        parts.append(span.replacement.encode("utf-8"))
        cursor = span.end
    parts.append(data[cursor:])
    return b"".join(parts).decode("utf-8"), applied


def _detect(
    text: str, recognizer: GazetteerRecognizer | None, date_wildcard: str = DATE_WILDCARD
) -> tuple[list[RedactionSpan], list[RedactionSpan]]:
    """The date spans and the name spans of ``text``: every detector, run
    once. Without a recognizer there are no name spans."""
    dates = detect_dates(text, date_wildcard)
    return dates, [] if recognizer is None else detect_names(text, recognizer)


def _residual_scan(text: str, recognizer: GazetteerRecognizer | None) -> list[RedactionSpan]:
    dates, names = _detect(text, recognizer)
    return sorted(dates + names, key=lambda s: (s.start, s.end))


def verify(redacted: str, gazetteer: Gazetteer | None) -> list[RedactionSpan]:
    """Re-run detection on redacted text; any hit is a residual. Without a
    gazetteer only dates are detected; one without entries is a
    ``ValueError``."""
    recognizer = None if gazetteer is None else GazetteerRecognizer(gazetteer)
    return _residual_scan(redacted, recognizer)


@dataclass
class DocumentRedaction:
    doc_id: str
    n_name_spans: int
    n_date_spans: int


@dataclass
class AnonymizationReport:
    per_document: list[DocumentRedaction] = field(default_factory=list)
    residuals: dict[str, list[RedactionSpan]] = field(default_factory=dict)

    @property
    def total_name_spans(self) -> int:
        return sum(d.n_name_spans for d in self.per_document)

    @property
    def total_date_spans(self) -> int:
        return sum(d.n_date_spans for d in self.per_document)

    @property
    def passed(self) -> bool:
        return not self.residuals

    def to_obj(self) -> dict:
        return {
            "total_name_spans": self.total_name_spans,
            "total_date_spans": self.total_date_spans,
            "passed": self.passed,
            "per_document": [
                {"id": d.doc_id, "n_name_spans": d.n_name_spans, "n_date_spans": d.n_date_spans}
                for d in self.per_document
            ],
            "residuals": {
                doc_id: [
                    {"start": s.start, "end": s.end, "kind": s.kind, "surface": s.surface}
                    for s in spans
                ]
                for doc_id, spans in self.residuals.items()
            },
        }


def check_wildcards(wildcards: Mapping[str, str]) -> None:
    """A wildcard that UTF-8 cannot encode, such as one holding a lone
    surrogate, is a ``ValueError`` that names it by its key in
    ``wildcards``."""
    for name, wildcard in wildcards.items():
        try:
            wildcard.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"{name} {wildcard!r} is not UTF-8 text: {exc.reason}") from None


def anonymize_corpus(
    docs: Iterable[Document],
    gazetteer: Gazetteer | None,
    name_wildcard: str = NAME_WILDCARD,
    date_wildcard: str = DATE_WILDCARD,
) -> tuple[list[Document], AnonymizationReport]:
    """Redact names and dates across a corpus.

    Empty wildcards delete the matched surfaces; a wildcard that UTF-8
    cannot encode is a ``ValueError`` raised before any redaction. Every
    output document is re-scanned and hits are recorded as residuals. A
    document without spans comes out as the input object itself, every
    other one as a new object. Without a gazetteer only dates are redacted;
    a gazetteer without entries is a ``ValueError``, not a silent pass.
    """
    check_wildcards({"name_wildcard": name_wildcard, "date_wildcard": date_wildcard})
    recognizer = None if gazetteer is None else GazetteerRecognizer(gazetteer, name_wildcard)
    out_docs: list[Document] = []
    report = AnonymizationReport()
    for doc in docs:
        dates, names = _detect(doc.text, recognizer, date_wildcard)
        new_text, _ = redact(doc.text, dates + names)
        out_docs.append(doc if new_text is doc.text else _dc_replace(doc, text=new_text))
        report.per_document.append(DocumentRedaction(doc.id, len(names), len(dates)))
        residual = _residual_scan(new_text, recognizer)
        if residual:
            report.residuals[doc.id] = residual
    return out_docs, report
