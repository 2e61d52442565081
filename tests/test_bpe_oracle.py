"""The incremental BPE merge loop of ``build_vocab`` against the loop it
replaced, which recounts every pair and rewrites every word on each merge.

The reference below is that loop unchanged, with its own copy of the merge
rule, so a change to either one shows up as a token-file difference.
"""

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
    build_vocab,
    extract_words,
    measure_fertility,
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
