import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from medcorpus import subword, synth
from medcorpus.subword import (
    SPECIAL_TOKENS,
    UNK_TOKEN,
    VocabConfig,
    Vocabulary,
    build_vocab,
    extract_words,
    filter_rare_chars,
    measure_fertility,
    tokenize_text,
    tokenize_word,
)


def hand_vocab(*extra):
    tokens = list(SPECIAL_TOKENS) + list(extra)
    return Vocabulary(tokens, VocabConfig())


# --- word extraction --------------------------------------------------------


def test_extract_words_splits_edge_punctuation():
    assert extract_words("Lunge.") == ["Lunge", "."]
    assert extract_words("(Herz)") == ["(", "Herz", ")"]
    assert extract_words("((a))") == ["(", "(", "a", ")", ")"]


def test_extract_words_keeps_interior_punctuation():
    assert extract_words("z.B. ca.") == ["z.B", ".", "ca", "."]
    assert extract_words("O2-Gabe") == ["O2-Gabe"]


def test_extract_words_pure_punctuation_run():
    assert extract_words("--- a") == ["-", "-", "-", "a"]


def test_extract_words_empty():
    assert extract_words("") == []
    assert extract_words("   ") == []


def reference_extract_words(text: str) -> list[str]:
    """The per-character loop that ``extract_words`` replaced."""
    words: list[str] = []
    for run in text.split():
        start, end = 0, len(run)
        lead_stop = start
        while lead_stop < end and not run[lead_stop].isalnum():
            lead_stop += 1
        trail_start = end
        while trail_start > lead_stop and not run[trail_start - 1].isalnum():
            trail_start -= 1
        words.extend(run[i] for i in range(start, lead_stop))
        if lead_stop < trail_start:
            words.append(run[lead_stop:trail_start])
        words.extend(run[i] for i in range(trail_start, end))
    return words


# punctuation, the underscore, CJK, non-ASCII digits and numerals (Arabic-
# Indic, superscript, Roman), a combining mark, and whitespace that str.split
# splits on: space, tab, newline, no-break space, ideographic space, the file,
# group and record separators and the line separator
WORD_CHARS = (
    "aZäß.,;:-()/_'中文\u0663\u00b2\u216b\u0301"
    " \t\n\u00a0\u3000\x1c\x1d\x1e\u2028"
)


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=WORD_CHARS, max_size=30))
def test_extract_words_matches_reference(text):
    assert extract_words(text) == reference_extract_words(text)


# --- rare character filter --------------------------------------------------


def test_filter_rare_chars_boundary():
    # '✚' twice, '%' three times, everything else frequent
    texts = ["aaa bbb ✚ % aaa", "bbb ✚ % % aaa bbb"]
    filtered, removed = filter_rare_chars(texts, min_char_freq=3)
    assert removed == {"✚"}
    assert all("✚" not in t for t in filtered)
    assert any("%" in t for t in filtered)


def test_filter_rare_chars_identity_when_all_frequent():
    texts = ["abc abc abc"]
    filtered, removed = filter_rare_chars(texts)
    assert filtered == texts
    assert removed == set()


def test_filter_rejects_negative_floor():
    with pytest.raises(ValueError, match="min_char_freq"):
        filter_rare_chars(["abc"], min_char_freq=-1)


def test_filter_counts_across_whole_corpus():
    # 'q' appears once per text but 3 times corpus-wide: kept
    texts = ["q aaa", "q aaa", "q aaa"]
    _, removed = filter_rare_chars(texts, min_char_freq=3)
    assert "q" not in removed


def test_filter_never_removes_whitespace():
    # space, tab and newline each occur fewer than 3 times but stay
    text = "aaa bbb\tccc\nddd eee"
    filtered, removed = filter_rare_chars([text], min_char_freq=3)
    assert removed == set()
    assert filtered == [text]


# --- vocabulary construction ------------------------------------------------


def test_build_vocab_hand_traced_merge_sequence():
    corpus = ["abc " * 25 + "abd " * 10]
    vocab = build_vocab(corpus, VocabConfig(min_word_freq=20, vocab_size=50))
    assert vocab.tokens == [
        "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]",
        "a", "b", "c", "d",
        "##a", "##b", "##c", "##d",
        "abc",   # the only word at or above the floor
        "##bd",  # continuation merge from the rare word "abd"
    ]
    assert tokenize_word("abc", vocab) == [vocab.token_id("abc")]
    assert tokenize_word("abd", vocab) == [vocab.token_id("a"), vocab.token_id("##bd")]
    assert tokenize_word("abe", vocab) == [vocab.unk_id]


def test_whole_word_frequency_boundary():
    corpus = ["tief " * 20 + "rare " * 19]
    vocab = build_vocab(corpus, VocabConfig(min_word_freq=20, vocab_size=100))
    assert "tief" in vocab.tokens
    assert "rare" not in vocab.tokens


def test_no_rare_word_enters_through_merges():
    # "geheim" occurs 19 times; merges must not manufacture it as a token
    corpus = ["geheim " * 19 + "offen " * 25]
    vocab = build_vocab(corpus, VocabConfig(min_word_freq=20, vocab_size=500))
    assert "offen" in vocab.tokens
    assert "geheim" not in vocab.tokens
    ids = tokenize_word("geheim", vocab)
    assert len(ids) >= 2  # first char plus continuations, never one piece


def test_whole_words_ranked_by_frequency_under_capacity():
    corpus = ["w1 " * 30 + "w2 " * 25 + "w3 " * 22]
    # alphabet is {1,2,3,w}: floor = 5 + 8 = 13; two extra slots
    vocab = build_vocab(corpus, VocabConfig(min_word_freq=20, vocab_size=15))
    assert "w1" in vocab.tokens and "w2" in vocab.tokens
    assert "w3" not in vocab.tokens


def test_merge_tie_breaks_lexicographically():
    corpus = ["wxyz " * 5 + "wxyq " * 3]
    vocab = build_vocab(corpus, VocabConfig(min_word_freq=20, vocab_size=60))
    # (##x,##y) ties (w,##x) at count 8 and wins lexicographically
    assert "##xy" in vocab.tokens
    assert tokenize_word("wxyz", vocab) == [
        vocab.token_id("w"), vocab.token_id("##xy"), vocab.token_id("##z"),
    ]


def test_singleton_pairs_never_merge():
    corpus = ["qr mm mm mm mm"]
    vocab = build_vocab(corpus, VocabConfig(min_word_freq=20, vocab_size=60))
    assert "##r" in vocab.tokens  # alphabet continuation, always present
    merge_products = [t for t in vocab.tokens if t.startswith("##") and len(t) > 3]
    assert "##m" in vocab.tokens
    assert all(t != "##qr" for t in vocab.tokens)
    # "mm" has the pair (m,##m) with weight 4 but the merge product is
    # word-initial, so the only multi-char tokens would be continuations
    assert merge_products == []


def test_vocab_size_floor_enforced():
    with pytest.raises(ValueError):
        build_vocab(["abcdefgh " * 5], VocabConfig(vocab_size=10))


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocab([""], VocabConfig())


def test_vocab_determinism_and_save_roundtrip(tmp_path):
    corpus = synth.morpheme_domain_texts(seed=3, n_texts=30)
    cfg = VocabConfig(min_word_freq=5, vocab_size=400)
    v1 = build_vocab(corpus, cfg)
    v2 = build_vocab(list(corpus), cfg)
    assert v1.tokens == v2.tokens
    p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    v1.save(p1)
    v2.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = Vocabulary.load(p1)
    assert loaded.tokens == v1.tokens


_small_corpus = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=5), min_size=1, max_size=30
).map(lambda ws: [" ".join(ws)])


@settings(max_examples=60, deadline=None)
@given(_small_corpus, st.integers(min_value=1, max_value=6))
def test_vocab_token_kinds_invariant(corpus, floor):
    cfg = VocabConfig(min_word_freq=floor, vocab_size=200)
    vocab = build_vocab(corpus, cfg)
    specials = set(cfg.special_tokens)
    first = vocab.tokens[: len(cfg.special_tokens)]
    assert first == list(cfg.special_tokens)
    for tok in vocab.tokens:
        if tok in specials:
            continue
        if len(tok) == 1:
            continue  # alphabet char
        if tok.startswith(cfg.continuation_prefix):
            continue  # continuation piece
        assert vocab.word_freqs.get(tok, 0) >= floor, tok


# --- tokenization -----------------------------------------------------------


def test_vocabulary_requires_unknown_token():
    with pytest.raises(ValueError, match=re.escape(UNK_TOKEN)):
        Vocabulary(["a", "b"], VocabConfig())


@pytest.mark.parametrize(
    "tokens, bad",
    [
        (["[UNK]", "", "c"], ""),
        (["[UNK]", " a"], " a"),
        (["[UNK]", "a\t"], "a\t"),
        (["[UNK]", "x\ny"], "x\ny"),
        (["[UNK]", "x\ry"], "x\ry"),
        (["[UNK]", "\u3000"], "\u3000"),
        (["\ufeffa", "[UNK]"], "\ufeffa"),
    ],
)
def test_vocabulary_rejects_tokens_a_list_file_would_change(tokens, bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        Vocabulary(tokens, VocabConfig())


def test_vocabulary_accepts_what_a_list_file_keeps(tmp_path):
    # inner whitespace other than a line break, and a byte order mark that
    # does not open the file, read back as written
    tokens = ["[UNK]", "a b", "a\tb", "a\u2028b", "\ufeff", "a\x0bb"]
    Vocabulary(tokens, VocabConfig()).save(tmp_path / "vocab.txt")
    assert Vocabulary.load(tmp_path / "vocab.txt").tokens == tokens


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.text(min_size=0, max_size=6)
        | st.sampled_from(["", " ", "\n", "\r", "\ufeff", "\ufeffa", "a b", "\u2029"]),
        max_size=6,
        unique=True,
    ).map(lambda ts: ts + [UNK_TOKEN] if UNK_TOKEN not in ts else ts)
)
def test_every_accepted_vocabulary_reads_back_as_saved(tmp_path_factory, tokens):
    try:
        vocab = Vocabulary(tokens, VocabConfig())
    except ValueError:
        return
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    vocab.save(path)
    assert Vocabulary.load(path).tokens == tokens


def test_greedy_longest_match_picks_longest_pieces():
    vocab = hand_vocab("a", "b", "c", "d", "ab", "##cd")
    ids = tokenize_word("abcd", vocab)
    assert [vocab.tokens[i] for i in ids] == ["ab", "##cd"]


def test_unknown_character_falls_back_to_unk():
    vocab = hand_vocab("a", "##b")
    assert tokenize_word("aXb", vocab) == [vocab.unk_id]


def test_greedy_dead_end_is_single_unk():
    # "ab" matches greedily but "##c" is missing: whole word becomes [UNK]
    vocab = hand_vocab("a", "ab", "##b")
    assert tokenize_word("abc", vocab) == [vocab.unk_id]


def test_whole_word_hit_is_one_token():
    vocab = hand_vocab("herz")
    assert tokenize_word("herz", vocab) == [vocab.token_id("herz")]


def test_tokenize_empty_word_rejected():
    with pytest.raises(ValueError):
        tokenize_word("", hand_vocab("a"))


def test_tokenize_text_parallel_lists():
    vocab = hand_vocab("ab", "##c", ".", "x")
    words, ids = tokenize_text("abc x.", vocab)
    assert words == ["abc", "x", "."]
    assert [[vocab.tokens[i] for i in seq] for seq in ids] == [["ab", "##c"], ["x"], ["."]]


def test_each_distinct_word_is_segmented_once_per_vocabulary(monkeypatch):
    calls = Counter()
    segment = subword._Segments.__missing__

    def counting(self, word):
        calls[self is first.segments, word] += 1
        return segment(self, word)

    monkeypatch.setattr(subword._Segments, "__missing__", counting)
    first = hand_vocab("herz", "##en", "a", "##b")
    second = hand_vocab("herz", "##en", "a", "##b")
    text = "herz herzen zeh herz herzen ab."
    distinct = set(extract_words(text))
    for vocab in (first, second, first):
        tokenize_text(text, vocab)
        measure_fertility([("d", text), ("e", "ab herz")], vocab, per_document=True)
        assert tokenize_word("herzen", vocab) == [vocab.token_id("herz"), vocab.token_id("##en")]
    assert calls == Counter({(mine, w): 1 for mine in (True, False) for w in distinct})


def test_tokenize_results_cannot_change_the_memo():
    vocab = hand_vocab("ab", "##c")
    _, ids = tokenize_text("abc", vocab)
    assert ids == [(vocab.token_id("ab"), vocab.token_id("##c"))]
    tokenize_word("abc", vocab).append(vocab.unk_id)
    assert tokenize_word("abc", vocab) == list(ids[0])


@settings(max_examples=60, deadline=None)
@given(_small_corpus, st.text(alphabet="abcd", min_size=1, max_size=8))
def test_round_trip_reconstruction(corpus, word):
    vocab = build_vocab(corpus, VocabConfig(min_word_freq=3, vocab_size=200))
    ids = tokenize_word(word, vocab)
    if ids == [vocab.unk_id]:
        return
    pieces = [vocab.tokens[i] for i in ids]
    rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
    assert rebuilt == word
    assert all(p.startswith("##") for p in pieces[1:])
    assert not pieces[0].startswith("##")


# --- fertility --------------------------------------------------------------


def test_fertility_one_on_whole_word_corpus():
    corpus = ["herz lunge " * 20]
    vocab = build_vocab(corpus, VocabConfig(min_word_freq=20, vocab_size=100))
    report = measure_fertility([("d", "herz lunge herz")], vocab)
    assert report.fertility == 1.0
    assert report.n_words == 3 and report.n_subwords == 3


def test_fertility_one_two_three_gives_two():
    vocab = hand_vocab("a", "b", "d", "##c", "##e", "##f")
    report = measure_fertility([("d", "a bc def")], vocab)
    assert (report.n_words, report.n_subwords) == (3, 6)
    assert report.fertility == 2.0


def test_forced_two_subword_corpus():
    vocab = hand_vocab("x", "##y")
    report = measure_fertility([("d", "xy xy xy xy")], vocab)
    assert report.fertility == 2.0


def test_unk_counts_as_single_subword():
    vocab = hand_vocab("a")
    report = measure_fertility([("d", "zzz zzz")], vocab)
    assert report.n_words == 2 and report.n_subwords == 2
    assert report.fertility == 1.0


def test_fertility_per_document_breakdown():
    vocab = hand_vocab("x", "##y", "xy")
    report = measure_fertility(
        [("a", "xy xy"), ("b", "x")], vocab, per_document=True
    )
    assert [d.doc_id for d in report.per_document] == ["a", "b"]
    assert report.per_document[0].n_subwords == 2  # whole-word hits
    assert report.fertility == 3 / 3


def test_fertility_requires_words():
    with pytest.raises(ValueError):
        measure_fertility([("d", "   ")], hand_vocab("a"))


@settings(max_examples=40, deadline=None)
@given(_small_corpus, st.lists(st.text(alphabet="abcd", min_size=1, max_size=6), min_size=1, max_size=10))
def test_fertility_lower_bound_and_monotonicity(corpus, eval_words):
    vocab = build_vocab(corpus, VocabConfig(min_word_freq=4, vocab_size=200))
    base = measure_fertility([("d", " ".join(eval_words))], vocab)
    assert base.fertility >= 1.0
    # text-wide monotonicity under vocab growth does not hold (an unknown
    # word is floored at one subword, and greedy matching can realign a
    # neighbour), but adding a word as a whole token must collapse that
    # word itself to a single piece
    w = eval_words[0]
    if w in vocab.tokens:
        return
    extended = Vocabulary(vocab.tokens + [w], vocab.config, vocab.word_freqs)
    assert tokenize_word(w, extended) == [extended.token_id(w)]
    assert len(tokenize_word(w, extended)) <= len(tokenize_word(w, vocab))


def test_in_domain_vocab_has_lower_fertility():
    clinical_train = synth.morpheme_domain_texts(seed=1, n_texts=150, domain="clinical")
    news_train = synth.morpheme_domain_texts(seed=2, n_texts=150, domain="news")
    held_out = synth.morpheme_domain_texts(seed=99, n_texts=40, domain="clinical")
    cfg = VocabConfig(min_word_freq=10, vocab_size=600)
    in_domain = build_vocab(clinical_train, cfg)
    out_domain = build_vocab(news_train, cfg)
    items = [(f"d{i}", t) for i, t in enumerate(held_out)]
    f_in = measure_fertility(items, in_domain).fertility
    f_out = measure_fertility(items, out_domain).fertility
    assert f_in < f_out


def test_fertility_report_serialization():
    vocab = hand_vocab("x", "##y")
    report = measure_fertility([("d", "xy")], vocab, per_document=True)
    obj = report.to_obj()
    assert obj["fertility"] == 2.0
    assert obj["per_document"][0]["id"] == "d"
