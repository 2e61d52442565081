"""``detect_dates`` against the date scan it replaced, whose patterns open
with a lookbehind or an optional digit, so the regex engine tries each of
them at every position.

The reference below keeps those five patterns and the body of
``detect_dates`` unchanged, so a difference in the digit-led patterns or in
the pre-checks that skip texts without a digit or a digit pair shows up as
a span difference.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from medcorpus.anonymize import (
    DATE_WILDCARD,
    KIND_DATE,
    RedactionSpan,
    _byte_offsets,
    _drop_contained,
    detect_dates,
)


# --- reference: the position-by-position date scan -------------------------

_MONTHS = (
    "Januar|Februar|März|April|Mai|Juni|Juli|August|September|Oktober|November|Dezember"
)

# Numeric day.month.year; two-digit years only in the full DD.MM.YY form.
_D_M_YYYY = re.compile(r"(?<![\d.])([0-3]?\d)\.([01]?\d)\.(\d{4})(?!\d)")
_DD_MM_YY = re.compile(r"(?<![\d.])(\d{2})\.(\d{2})\.(\d{2})(?!\d)")
_ISO = re.compile(r"(?<!\d)(\d{4})-(\d{2})-(\d{2})(?!\d)")
_D_MONTH_YYYY = re.compile(
    r"(?<![\d.])([0-3]?\d)\.\s*(%s)\s+(\d{4})(?!\d)" % _MONTHS, re.IGNORECASE
)
_MONTH_YYYY = re.compile(r"\b(%s)\s+(\d{4})(?!\d)" % _MONTHS, re.IGNORECASE)


def _valid_day(s: str) -> bool:
    return 1 <= int(s) <= 31


def _valid_month(s: str) -> bool:
    return 1 <= int(s) <= 12


def reference_detect_dates(text: str, wildcard: str = DATE_WILDCARD) -> list[RedactionSpan]:
    found: list[re.Match] = []
    add = found.append

    for m in _D_M_YYYY.finditer(text):
        if _valid_day(m.group(1)) and _valid_month(m.group(2)):
            add(m)
    for m in _DD_MM_YY.finditer(text):
        if _valid_day(m.group(1)) and _valid_month(m.group(2)):
            add(m)
    for m in _ISO.finditer(text):
        if _valid_month(m.group(2)) and _valid_day(m.group(3)):
            add(m)
    for m in _D_MONTH_YYYY.finditer(text):
        if _valid_day(m.group(1)):
            add(m)
    for m in _MONTH_YYYY.finditer(text):
        add(m)
    points = sorted({p for m in found for p in m.span()})
    byte_at = dict(zip(points, _byte_offsets(text, points)))
    raw = [
        RedactionSpan(byte_at[m.start()], byte_at[m.end()], KIND_DATE, m.group(0), wildcard)
        for m in found
    ]
    return sorted(_drop_contained(raw), key=lambda s: (s.start, s.end))


# --- differential test ------------------------------------------------------

# not Latin-1, and each holds one date written in Arabic-Indic digits
ONLY_NON_ASCII_DIGITS = [
    "\u0663.\u0664.\u0662\u0660\u0662\u0660 \u4e2d",
    "\u0662\u0660\u0662\u0660-\u0660\u0663-\u0661\u0662 \u4e2d",
]

DIGITS = ["0", "1", "2", "3", "9", "12", "31", "2020"]
SEPARATORS = [".", "-", ". "]
SPACES = [" ", "\n", "\u00a0"]
# mixed case; the long s (U+017F) and the Kelvin sign (U+212A) fold under
# IGNORECASE to "s" and "k"
MONTHS = [
    "März", "MÄRZ", "märz", "Mai", "mai", "Augu\u017ft", "o\u212atober", "Oktober",
    "DEZEMBER", "juli", "Januar",
]
# non-ASCII digits that \d matches but [0-3] does not, a non-ASCII letter and
# the underscore, which \b counts as a word character
OTHER = ["\u0663", "\u0661\u0662", "ä", "_"]
PIECES = DIGITS + SEPARATORS + SPACES + MONTHS + OTHER

# Uniform pieces seldom line up into a date, so half the draws are date-shaped
# runs: three numbers, or a number, a month and a number, with separators.
_number = st.sampled_from(["1", "3", "9", "01", "12", "31", "2020", "\u0661\u0662"])
_date_shaped = st.tuples(
    _number,
    st.sampled_from(SEPARATORS),
    st.one_of(_number, st.sampled_from(MONTHS)),
    st.sampled_from(SEPARATORS + SPACES),
    _number,
).map("".join)
texts = st.lists(st.one_of(st.sampled_from(PIECES), _date_shaped), max_size=10).map("".join)


@settings(max_examples=2500, deadline=None)
@given(texts)
def test_detect_dates_matches_reference(text):
    assert detect_dates(text) == reference_detect_dates(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "Befund ohne Datum, Größe normal.",
        "Läsion 1 cm, Segment 4 und 7.",
        "Kontrolle am 12.3. und 04.11.",
        "Am 3. März war alles gut.",
        "3.4.2021 Erstbefund",
        "12.03.21: Kontrolle",
        "2019-12-31 Verlauf",
        "März 2020",
        "1.2.2020",
        "\u0661\u0662.\u0663.2020 und 31.12.2020",
        *ONLY_NON_ASCII_DIGITS,
        "112.3.2020 .1.3.2020 112.03.21 .12.03.21 12020-12-31 \u0663 1.3.2020",
    ],
    ids=[
        "empty", "no-digits", "no-digit-pair", "pair-no-year", "day-month-no-year",
        "d-m-yyyy-at-0", "dd-mm-yy-at-0", "iso-at-0", "month-yyyy-at-0", "whole-text",
        "non-ascii-digits", "only-non-ascii-digits", "only-non-ascii-digits-iso",
        "digit-or-dot-before",
    ],
)
def test_detect_dates_matches_reference_on_fixed_cases(text):
    assert detect_dates(text) == reference_detect_dates(text)
    if not re.search(r"\d\d", text):
        assert detect_dates(text) == []


# --- the gate for texts without a digit ---------------------------------------

ALL_DIGITS = re.findall(r"\d", "".join(map(chr, range(0x110000))))


def test_latin1_digits_are_ascii_digits():
    # the gate rests on this: in Latin-1, \d matches only 0-9
    assert [d for d in ALL_DIGITS if d <= "\xff"] == list("0123456789")
    assert min(d for d in ALL_DIGITS if d > "9") == "\u0660"


@pytest.mark.parametrize("text", ONLY_NON_ASCII_DIGITS)
def test_non_ascii_digits_alone_give_a_date(text):
    assert [s.surface for s in detect_dates(text)] == [text.split()[0]]


def test_detect_dates_matches_reference_for_every_digit():
    # each digit twice, and as day, month and year: a date unless its value is 0
    for d in ALL_DIGITS:
        for text in (d + d, f"{d}.{d}.{d * 4}", f"am {d}.{d}.{d * 4} \u4e2d"):
            assert detect_dates(text) == reference_detect_dates(text), text
        assert len(detect_dates(f"{d}.{d}.{d * 4}")) == (int(d) > 0), d


_LATIN1_WITHOUT_DIGITS = st.characters(max_codepoint=0xFF, blacklist_characters="0123456789")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.text(_LATIN1_WITHOUT_DIGITS), st.sampled_from(MONTHS[:4]))).map("".join))
def test_latin1_text_without_digits_holds_no_date(text):
    assert detect_dates(text) == []
