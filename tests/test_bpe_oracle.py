"""The incremental BPE merge loop of ``build_vocab`` against the loop it
replaced, which recounts every pair and rewrites every word on each merge,
and the memoized segmenter of a ``Vocabulary`` against the per-call
``tokenize_word`` loop it replaced.

The merge reference below is that loop unchanged, with its own copy of the
merge rule, so a change to either one shows up as a token-file difference.
The segmentation reference is the old loop unchanged too, with the longest
piece length computed as the old ``Vocabulary`` did.
"""

import functools
import tempfile
from collections import Counter
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from medcorpus import synth
from medcorpus.subword import (
    _MIN_PAIR_FREQ,
    CONTINUATION_PREFIX,
    SPECIAL_TOKENS,
    VocabConfig,
    Vocabulary,
    UNK_TOKEN,
    build_vocab,
    extract_words,
    filter_rare_chars,
    measure_fertility,
    tokenize_text,
    tokenize_word,
)


# --- reference: full recount after every merge -----------------------------


def _merge_step(
    words: dict[str, list[str]], weights: dict[str, int]
) -> tuple[str, str] | None:
    pair_counts: Counter[tuple[str, str]] = Counter()
    for w, symbols in words.items():
        if len(symbols) < 2:
            continue
        weight = weights[w]
        for a, b in zip(symbols, symbols[1:]):
            pair_counts[(a, b)] += weight
    if not pair_counts:
        return None
    best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if best[1] < _MIN_PAIR_FREQ:
        return None
    return best[0]


def _apply_merge(symbols: list[str], pair: tuple[str, str], merged: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def oracle_build_vocab(texts: Sequence[str], config: VocabConfig = VocabConfig()) -> Vocabulary:
    """Train a vocabulary on pre-filtered corpus texts.

    Determinism: ties in word frequency and in pair counts break
    lexicographically, so the same corpus always yields the same token
    file byte for byte. Word-initial merges are carried out in symbol
    space but never added as tokens: a whole-word surface below the
    frequency floor must not enter the vocabulary (the floor exists to
    keep rare strings such as patient names out), so the only token kinds
    are specials, single characters, continuations, and frequent words.
    """
    word_freqs = Counter()
    for text in texts:
        word_freqs.update(extract_words(text))
    if not word_freqs:
        raise ValueError("corpus has no words")
    prefix = CONTINUATION_PREFIX
    alphabet = sorted({ch for w in word_freqs for ch in w})
    floor = len(SPECIAL_TOKENS) + 2 * len(alphabet)
    if config.vocab_size < floor:
        raise ValueError(
            f"vocab_size {config.vocab_size} cannot hold {len(SPECIAL_TOKENS)} "
            f"specials plus alphabet of {len(alphabet)} (needs >= {floor})"
        )
    tokens: list[str] = list(SPECIAL_TOKENS)
    tokens.extend(alphabet)
    tokens.extend(prefix + ch for ch in alphabet)
    token_set = set(tokens)

    whole_words: set[str] = set()
    for word, freq in sorted(word_freqs.items(), key=lambda kv: (-kv[1], kv[0])):
        if freq < config.min_word_freq:
            break
        whole_words.add(word)
        if word not in token_set and len(tokens) < config.vocab_size:
            tokens.append(word)
            token_set.add(word)

    symbolized = {
        w: [w[0]] + [prefix + ch for ch in w[1:]]
        for w in word_freqs
        if w not in whole_words and len(w) > 1
    }
    weights = {w: word_freqs[w] for w in symbolized}
    while len(tokens) < config.vocab_size:
        pair = _merge_step(symbolized, weights)
        if pair is None:
            break
        a, b = pair
        merged = a + b[len(prefix) :] if b.startswith(prefix) else a + b
        for w in symbolized:
            symbolized[w] = _apply_merge(symbolized[w], pair, merged)
        if merged in token_set:
            continue
        if not merged.startswith(prefix):
            # word-initial products stay merge symbols: a multi-char token
            # without the continuation prefix must be a whole word above the
            # frequency floor, and those were all added up front
            continue
        tokens.append(merged)
        token_set.add(merged)

    return Vocabulary(tokens, config, dict(word_freqs))


# --- reference: greedy segmentation on every call --------------------------


def longest_piece(vocab: Vocabulary) -> int:
    prefix = CONTINUATION_PREFIX
    return max(
        (len(t) - (len(prefix) if t.startswith(prefix) else 0) for t in vocab.tokens),
        default=0,
    )


def oracle_tokenize_word(word: str, vocab: Vocabulary, max_piece: int) -> list[int]:
    """Greedy longest-prefix segmentation; unmatched words collapse to a
    single unknown id."""
    if not word:
        raise ValueError("cannot tokenize an empty word")
    prefix = CONTINUATION_PREFIX
    ids: list[int] = []
    pos = 0
    while pos < len(word):
        longest = min(len(word) - pos, max_piece)
        match = None
        for length in range(longest, 0, -1):
            piece = word[pos : pos + length]
            if pos > 0:
                piece = prefix + piece
            tok_id = vocab.token_id(piece)
            if tok_id is not None:
                match = (tok_id, length)
                break
        if match is None:
            return [vocab.unk_id]
        ids.append(match[0])
        pos += match[1]
    return ids


# --- differential tests -----------------------------------------------------


def assert_same_token_file(texts, config):
    with tempfile.TemporaryDirectory() as tmp:
        fast, slow = Path(tmp) / "fast.txt", Path(tmp) / "slow.txt"
        build_vocab(texts, config).save(fast)
        oracle_build_vocab(texts, config).save(slow)
        assert fast.read_bytes() == slow.read_bytes()


# few letters make many equal pair counts, so the tie-break decides often;
# the last two alphabets are not ASCII
_ALPHABETS = ["ab", "abc", "xyz", "aä", "äöß"]


@st.composite
def _corpora(draw):
    letters = draw(st.sampled_from(_ALPHABETS))
    word = st.text(alphabet=letters, min_size=1, max_size=8)
    # runs such as "aaaa" and "abab", where merging left to right without
    # overlap differs from other merge orders
    run = st.builds(
        lambda unit, n: unit * n, st.text(alphabet=letters, min_size=1, max_size=2), st.integers(2, 5)
    )
    texts = draw(st.lists(st.lists(word | run, min_size=1, max_size=25), min_size=1, max_size=3))
    return [" ".join(words) for words in texts]


@settings(max_examples=300, deadline=None)
@given(_corpora(), st.integers(0, 3), st.integers(0, 40) | st.just(1_000))
def test_build_vocab_matches_full_recount(texts, min_word_freq, extra):
    # from the smallest size the alphabet allows to past the last merge
    floor = len(SPECIAL_TOKENS) + 2 * len({ch for w in extract_words(" ".join(texts)) for ch in w})
    assert_same_token_file(texts, VocabConfig(min_word_freq=min_word_freq, vocab_size=floor + extra))


@pytest.mark.parametrize("vocab_size", [200, 500])
def test_build_vocab_matches_full_recount_on_radiology_reports(vocab_size):
    texts = [d.text for d in synth.radiology_corpus(300, dup_rate=0.1, seed=5).documents]
    assert_same_token_file(texts, VocabConfig(min_word_freq=20, vocab_size=vocab_size))


def test_fertility_sums_per_word_segmentation():
    train = [d.text for d in synth.radiology_corpus(200, dup_rate=0.1, seed=5).documents]
    vocab = build_vocab(train, VocabConfig(min_word_freq=20, vocab_size=300))
    # a second corpus repeats words across documents and holds unseen ones
    items = [(d.id, d.text) for d in synth.radiology_corpus(60, dup_rate=0.2, seed=6).documents]
    report = measure_fertility(items, vocab, per_document=True)
    expected = [sum(len(tokenize_word(w, vocab)) for w in extract_words(text)) for _, text in items]
    assert [d.doc_id for d in report.per_document] == [doc_id for doc_id, _ in items]
    assert [d.n_subwords for d in report.per_document] == expected
    assert report.n_subwords == sum(expected)
    assert report.n_words == sum(len(extract_words(text)) for _, text in items)


# --- segmentation -----------------------------------------------------------


@functools.cache
def _radiology_vocabularies() -> tuple[dict[int, Vocabulary], list[str]]:
    """Vocabularies of 200 and 3,000 tokens whose memos hold every held-out
    word, and the held-out words."""
    docs = synth.radiology_corpus(1300, dup_rate=0.1, seed=5).documents
    train, _ = filter_rare_chars([d.text for d in docs[:1000]])
    held_out = [(d.id, d.text) for d in docs[1000:]]
    vocabs = {}
    for size in (200, 3000):
        vocabs[size] = build_vocab(train, VocabConfig(min_word_freq=20, vocab_size=size))
        measure_fertility(held_out, vocabs[size])
    return vocabs, sorted({w for _, text in held_out for w in extract_words(text)})


# glyphs that no report holds: a word with one has no segmentation
_UNSEEN = "€ж☃"


def _word_strategy() -> st.SearchStrategy[str]:
    words = _radiology_vocabularies()[1]
    letters = sorted({ch for w in words for ch in w})
    return (
        st.sampled_from(words)
        | st.text(alphabet=letters, min_size=1, max_size=24)
        | st.lists(st.sampled_from(words), min_size=2, max_size=3).map("".join)
        | st.text(alphabet=letters + list(_UNSEEN), min_size=1, max_size=12)
    )


_words = st.deferred(_word_strategy)


def assert_segments_as_oracle(vocab: Vocabulary, words: list[str]) -> None:
    """Each word segments as the oracle does, on a fresh memo and on the
    vocabulary's own, warmed one."""
    longest = longest_piece(vocab)
    fresh = Vocabulary(vocab.tokens, vocab.config)
    for w in words:
        expected = oracle_tokenize_word(w, vocab, longest)
        assert tokenize_word(w, fresh) == expected
        assert tokenize_word(w, vocab) == expected
        assert vocab.segments[w] == tuple(expected)
        if any(ch in _UNSEEN for ch in w):
            assert expected == [vocab.token_id(UNK_TOKEN)]


@pytest.mark.parametrize("size", [200, 3000])
def test_held_out_words_segment_as_the_per_call_loop(size):
    vocabs, words = _radiology_vocabularies()
    vocab = vocabs[size]
    longest = longest_piece(vocab)
    # pieced words, and unknown ones with a glyph no report holds
    unknown = [w[:1] + _UNSEEN[i % 3] + w[1:] for i, w in enumerate(words[::40])]
    assert any(len(oracle_tokenize_word(w, vocab, longest)) > 1 for w in words)
    assert_segments_as_oracle(vocab, words + unknown)


@pytest.mark.parametrize("size", [200, 3000])
@settings(max_examples=300, deadline=None)
@given(word=_words)
def test_segmentation_matches_the_per_call_loop(size, word):
    assert_segments_as_oracle(_radiology_vocabularies()[0][size], [word])


@pytest.mark.parametrize("size", [200, 3000])
@settings(max_examples=100, deadline=None)
@given(words=st.lists(_words, min_size=1, max_size=12))
def test_tokenize_text_matches_the_per_call_loop(size, words):
    vocab = _radiology_vocabularies()[0][size]
    longest = longest_piece(vocab)
    text = " ".join(words)
    for memo in (Vocabulary(vocab.tokens, vocab.config), vocab):
        got_words, ids = tokenize_text(text, memo)
        expected = [tuple(oracle_tokenize_word(w, vocab, longest)) for w in got_words]
        assert ids == expected


# --- segmentation on hand-made vocabularies ---------------------------------
#
# Tokens that hold the continuation prefix themselves ("#", "##", "###",
# "##a", "##ab") can match at the start of a word as written and after it
# as a continuation, and a continuation token may be longer than any other
# piece, so that as written it is longer than any slice the loop probes.

_HASH_VOCABS = {
    "hashes": ["#", "##", "###", "##a", "##ab", "a", "b", "##b"],
    "hashes without ##": ["#", "###", "##ab", "a", "##b"],
    "long continuation": ["#", "a", "b", "##a", "##b", "##", "##abababab", "##ab"],
}
_HASH_WORDS = ["##ab", "##", "###", "#a", "a##b"]


def assert_hand_vocab_segments_as_oracle(tokens: list[str], words: list[str]) -> None:
    vocab = Vocabulary(list(SPECIAL_TOKENS) + tokens, VocabConfig())
    longest = longest_piece(vocab)
    expected = {w: tuple(oracle_tokenize_word(w, vocab, longest)) for w in words}
    fresh = Vocabulary(vocab.tokens, vocab.config)
    assert {w: fresh.segments[w] for w in words} == expected
    # the same memo again, warm now, in the other order
    assert {w: fresh.segments[w] for w in reversed(words)} == expected
    for w in words:
        assert tokenize_word(w, Vocabulary(vocab.tokens, vocab.config)) == list(expected[w])


@pytest.mark.parametrize("name", sorted(_HASH_VOCABS))
def test_hash_words_segment_as_the_per_call_loop(name):
    tokens = _HASH_VOCABS[name]
    long_words = ["##abababab", "aabababab", "a##abababab", "##ababababab", "#" * 12]
    assert_hand_vocab_segments_as_oracle(tokens, _HASH_WORDS + long_words)


def test_a_token_longer_than_every_probed_slice_is_never_matched_as_written():
    vocab = Vocabulary(list(SPECIAL_TOKENS) + _HASH_VOCABS["long continuation"], VocabConfig())
    assert longest_piece(vocab) == len("abababab")
    # as written the token is 10 characters long: the word is 4 pieces
    assert vocab.segments["##abababab"] == (vocab.token_id("##ab"),) * 4
    # after the first character it is one piece of 8
    assert vocab.segments["aabababab"] == (vocab.token_id("a"), vocab.token_id("##abababab"))


@pytest.mark.parametrize("name", sorted(_HASH_VOCABS))
@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.text(alphabet="#ab[]UNK", min_size=1, max_size=14), min_size=1, max_size=6))
def test_any_word_segments_as_the_per_call_loop(name, words):
    assert_hand_vocab_segments_as_oracle(_HASH_VOCABS[name], words)
