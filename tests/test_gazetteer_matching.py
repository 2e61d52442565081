"""GazetteerRecognizer against the alternation-regex recognizer it replaced,
the case fold against re.IGNORECASE, and byte offsets against str.encode."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from medcorpus.anonymize import (
    HEAD_CHARS,
    KIND_NAME,
    NAME_WILDCARD,
    Gazetteer,
    GazetteerRecognizer,
    RedactionSpan,
    _drop_contained,
    _fold_char,
    detect_dates,
    detect_names,
)


# --- oracle: the regex recognizer, kept verbatim ---------------------------


def _byte_offsets(text: str) -> list[int]:
    offs = [0]
    total = 0
    for ch in text:
        total += len(ch.encode("utf-8"))
        offs.append(total)
    return offs


class RegexGazetteerRecognizer:
    """Longest-match gazetteer scan on word boundaries.

    Entries are alternated longest-first so that "Anna Schmidt" wins over
    "Anna" at the same position; nested matches are discarded afterwards.
    """

    def __init__(self, gazetteer: Gazetteer, wildcard: str = NAME_WILDCARD) -> None:
        if not gazetteer.entries:
            raise ValueError("gazetteer has no entries")
        self.gazetteer = gazetteer
        self.wildcard = wildcard
        ordered = sorted(gazetteer.entries, key=lambda e: (-len(e), e))
        pattern = r"\b(?:%s)\b" % "|".join(re.escape(e) for e in ordered)
        flags = re.IGNORECASE if gazetteer.case_insensitive else 0
        self._pattern = re.compile(pattern, flags)

    def detect(self, text: str) -> list[RedactionSpan]:
        offs = _byte_offsets(text)
        spans = [
            RedactionSpan(
                offs[m.start()], offs[m.end()], KIND_NAME, m.group(0), self.wildcard
            )
            for m in self._pattern.finditer(text)
        ]
        return _drop_contained(spans)


def assert_same_spans(entries, text, ci):
    g = Gazetteer(entries=frozenset(entries), case_insensitive=ci)
    assert GazetteerRecognizer(g).detect(text) == RegexGazetteerRecognizer(g).detect(text)


# --- differential test ------------------------------------------------------

# Case-fold look-alikes (ß/ẞ, ſ/s, ı/İ/i, ς/σ/Σ, K/k/Kelvin sign), umlauts,
# and 2-, 3- and 4-byte characters.
SPECIAL = "ßẞſsSıİiIςσΣkKKäÄöÖüÜé中𝔘"
PIECES = [
    "Anna", "Schmidt", "Müller", "Weiß", "Jürgen", "Özdemir", "Dr.", "-Meyer",
    "A", "ß", "ſ", "ı", "İ", "K", "ς", "中文", "𝔘𝔫", "x_y", "Σ",
]
SEPARATORS = ["", " ", "  ", "-", ".", ", ", "\n", "_", "'", "(", ")"]


def _variant(piece: str, how: int) -> str:
    return [piece, piece.upper(), piece.lower(), piece.swapcase(), piece.casefold()][how]


@st.composite
def gazetteer_and_text(draw):
    word = st.text(alphabet=SPECIAL + "abAB .-", min_size=1, max_size=5)
    compound = st.lists(st.sampled_from(PIECES), min_size=1, max_size=3).flatmap(
        lambda parts: st.sampled_from([" ", "", "-"]).map(lambda sep: sep.join(parts))
    )
    entries = draw(st.lists(st.one_of(compound, word), min_size=1, max_size=8))
    ci = draw(st.booleans())
    chunk = st.one_of(
        st.tuples(st.sampled_from(entries), st.integers(0, 4)).map(lambda t: _variant(*t)),
        st.sampled_from(PIECES),
        st.text(alphabet=SPECIAL + "ab .-_", max_size=4),
    )
    chunks = draw(st.lists(st.tuples(chunk, st.sampled_from(SEPARATORS)), max_size=12))
    text = "".join(c + sep for c, sep in chunks)
    return entries, text, ci


@settings(max_examples=400, deadline=None)
@given(gazetteer_and_text())
def test_detect_matches_regex_oracle(case):
    assert_same_spans(*case)


@pytest.mark.parametrize("ci", [False, True])
@pytest.mark.parametrize(
    "entries, text",
    [
        (["Anna", "Anna Schmidt"], "Anna Schmidt, Anna und Anna Schmidtke"),
        (["Anna", "Karl"], "AnnaKarl Anna Karl Anna-Karl Anna.Karl"),
        (["Dr. Müller", "-Meyer", "Müller"], "Dr. Müller, Dr. Müllers, Hans-Meyer, -Meyer"),
        (["A", "ß", "中"], "A ß ẞ AA 中 中文 Aß a"),
        (["Weiß", "Jürgen Weiß", "ſusi", "ıda", "Kai", "ςσ"],
         "JÜRGEN WEISS jürgen weiß Jürgen Weiẞ SUSI susi IDA ida İDA KAİ ΣΣ σς"),
        (["x_y", "Anna"], "x_y x_yAnna _Anna Anna_"),
        (["𝔘𝔫", "é"], "𝔘𝔫 é𝔘𝔫 éé é"),
    ],
)
def test_detect_matches_regex_oracle_on_fixed_cases(entries, text, ci):
    assert_same_spans(entries, text, ci)


def _shared_prefix_entries(n: int, rng: random.Random) -> list[str]:
    """``n`` entries grown from a few stems, so that many extend one another
    and sorted neighbours often share all but their last characters."""
    entries = {"Ann", "Anna", "Annabel", "Anna-Lena", "Anna Maria", "Anna Mar"}
    stems = ["Ann", "Mar", "Sch", "Mül", "Wei", "Jür", "Öz", "ſu", "K"]
    tails = [
        "a", "e", "el", "ie", "ß", "ı", "İ", "-Lena", " Maria", " Mar", "mann", "er", "S", ".",
    ]
    while len(entries) < n:
        entry = rng.choice(stems)
        for _ in range(rng.randint(0, 3)):
            entry += rng.choice(tails)
        entries.add(entry)
    return sorted(entries)


@pytest.mark.parametrize("ci", [False, True])
def test_detect_matches_regex_oracle_on_many_shared_prefixes(ci):
    # the hypothesis test draws few entries; here the entry just after a
    # slice in sorted order often shares a prefix with it without extending it
    rng = random.Random(13)
    entries = _shared_prefix_entries(2000, rng)
    chunks = []
    for _ in range(1500):
        entry = rng.choice(entries)
        chunk = rng.choice([
            entry,
            entry[: rng.randint(1, len(entry))],
            entry + rng.choice(["a", "l", "-", " M", " Maria", "ß", "er"]),
            _variant(entry, rng.randint(0, 4)),
        ])
        chunks.append(chunk + rng.choice(SEPARATORS))
    assert_same_spans(entries, "".join(chunks), ci)


# The scan tries an entry only where the text starts with the first
# HEAD_CHARS folded characters of some entry, or with all of a shorter one.
STEM = "Annabelle-Marie"[: HEAD_CHARS + 2]
GROWN = [STEM[:n] for n in range(1, len(STEM) + 1)]


@pytest.mark.parametrize("ci", [False, True])
@pytest.mark.parametrize("entries", [GROWN, GROWN[::2], GROWN[1::2], GROWN[-1:], GROWN[:1]])
def test_head_filter_on_entries_of_every_length(entries, ci):
    # every prefix of the stem and every one-character extension of it, as
    # written and in other case, each on word boundaries and inside words
    words = [STEM[:n] + tail for n in range(len(STEM) + 1) for tail in ("", "x", "a")]
    words += [_variant(w, how) for w in words for how in (1, 2, 3)]
    text = " ".join(words) + " " + "-".join(words) + " " + "".join(words)
    assert_same_spans(entries, text, ci)


@pytest.mark.parametrize("ci", [False, True])
@pytest.mark.parametrize("n", range(1, HEAD_CHARS + 2))
def test_head_filter_near_the_end_of_the_text(n, ci):
    # the last candidate has fewer than HEAD_CHARS characters left
    for tail in (STEM[:n], STEM[:n].upper(), STEM[: n - 1] + "x"):
        for text in (tail, "Befund " + tail, "Anna " + tail, STEM + " " + tail):
            assert_same_spans(GROWN, text, ci)
            assert_same_spans(GROWN[n - 1 :], text, ci)


@pytest.mark.parametrize("ci", [False, True])
@pytest.mark.parametrize(
    "entries, text",
    [
        # ß and ẞ fold alike; neither folds to "ss"
        (["Weiß", "Weißmann", "Groß"], "WEIẞ Weiẞmann weiss GROẞ Groß Gross groß Weißm"),
        (["ẞen", "ßa", "ß"], "ßen ẞEN ßa ẞa ß ẞ ssa ßx"),
        # the long s folds to s, the Kelvin sign to k, so their heads do too
        (["ſusi", "Susann", "ſtefanie"], "Susi SUSI ſuſi Stefanie ſTEFANIE Susanne ſusann"),
        (["\u212aai", "Karl", "\u212arista"], "Kai kai KAI \u212aarl karl Krista \u212aRISTA Kaiser"),
        (["İda", "ıda", "Iris"], "İda ida IDA ıda iris İris IRIS Idaho"),
    ],
    ids=["sharp-s", "sharp-s-short", "long-s", "kelvin", "dotted-i"],
)
def test_head_filter_on_fold_look_alikes(entries, text, ci):
    assert_same_spans(entries, text, ci)


def test_empty_entry_rejected():
    with pytest.raises(ValueError):
        GazetteerRecognizer(Gazetteer(entries=frozenset({"Anna", ""})))


# --- case fold --------------------------------------------------------------

FOLD_CHARS = "ßẞſsSıİiIςσΣkKKµμΜäÄöÖüÜaA1_ ΐΐΰΰﬅﬆ"


def _re_equal(a: str, b: str) -> bool:
    return re.fullmatch(re.escape(a), b, re.IGNORECASE) is not None


@pytest.mark.parametrize("a", FOLD_CHARS)
def test_fold_agrees_with_ignorecase(a):
    for b in FOLD_CHARS:
        assert (_fold_char(a) == _fold_char(b)) == _re_equal(a, b), (a, b)


def test_fold_agrees_with_ignorecase_across_scripts():
    # Latin, Greek, Cyrillic, their extended blocks, letterlike symbols and
    # the Latin ligatures: every character matches exactly its fold class.
    codes = [
        *range(0x0000, 0x0530),
        *range(0x1E00, 0x2000),
        *range(0x2100, 0x2150),
        *range(0xFB00, 0xFB07),
    ]
    universe = "".join(map(chr, codes))
    classes: dict[str, set[str]] = {}
    for b in universe:
        classes.setdefault(_fold_char(b), set()).add(b)
    for a in universe:
        matched = {m.group() for m in re.finditer(re.escape(a), universe, re.IGNORECASE)}
        assert matched == classes[_fold_char(a)], a


# --- byte offsets -----------------------------------------------------------

DATES = ["3.4.2021", "05.11.2021", "01.02.21", "2019-12-31", "3. März 2021", "Oktober 1987"]
NAMES = ["Anna", "Jürgen Weiß", "Özdemir", "中文", "𝔘𝔫"]
FILLER = ["Größe", "kam", "am", "und", "中", "𝔘", "é", "Befund", "x"]


def assert_offsets_match_characters(text, spans):
    char_at = {len(text[:i].encode("utf-8")): i for i in range(len(text) + 1)}
    for span in spans:
        i, j = char_at[span.start], char_at[span.end]
        assert text[i:j] == span.surface


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(DATES + NAMES + FILLER), st.sampled_from([" ", ", ", ". "])),
        max_size=15,
    )
)
def test_span_offsets_are_utf8_offsets_of_their_characters(chunks):
    rec = GazetteerRecognizer(Gazetteer(entries=frozenset(NAMES)))
    text = "".join(c + sep for c, sep in chunks)
    for t in (text, text.encode("ascii", "ignore").decode("ascii")):
        dates, names = detect_dates(t), detect_names(t, rec)
        assert_offsets_match_characters(t, dates + names)
        if t == text:
            assert bool(dates) == any(c in DATES for c, _ in chunks)
            assert len(names) == sum(c in NAMES for c, _ in chunks)
