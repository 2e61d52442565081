"""Frequency-thresholded subword vocabulary, greedy tokenizer, fertility.

The vocabulary is built in four layers: special tokens, the corpus
alphabet (each character both as a word-initial token and as a
continuation), whole words at or above the word-frequency floor, and
pair merges trained on the remaining words. Tokenization is greedy
longest-prefix matching with a continuation prefix; a word that cannot
be segmented becomes a single unknown token.

Fertility is subword count divided by word count; lower is better and
1.0 means every word is a single token.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

from .corpus import read_lines, write_text

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
UNK_TOKEN = "[UNK]"
CONTINUATION_PREFIX = "##"

Pair = tuple[str, str]

# A pair seen only once is no evidence for a reusable piece.
_MIN_PAIR_FREQ = 2


@dataclass(frozen=True)
class VocabConfig:
    min_word_freq: int = 20
    vocab_size: int = 30_000
    # fixed for every vocabulary; readable here for code that holds a config
    special_tokens: ClassVar[tuple[str, ...]] = SPECIAL_TOKENS
    continuation_prefix: ClassVar[str] = CONTINUATION_PREFIX

    def __post_init__(self) -> None:
        if self.min_word_freq < 0:
            raise ValueError("min_word_freq must be >= 0")
        if self.vocab_size <= len(SPECIAL_TOKENS):
            raise ValueError("vocab_size must exceed the number of special tokens")


# A word from its first to its last alphanumeric character, or one other
# non-space character. ``[^\W_]`` is ``str.isalnum`` and ``\S`` is
# ``not str.isspace``, the characters ``str.split`` splits on.
_WORD = re.compile(r"[^\W_](?:\S*[^\W_])?|\S")


def extract_words(text: str) -> list[str]:
    """Whitespace tokens with leading and trailing punctuation split off as
    separate one-character words, so "Lunge." counts as two words. Interior
    punctuation stays attached."""
    return _WORD.findall(text)


def filter_rare_chars(
    texts: Sequence[str], min_char_freq: int = 3
) -> tuple[list[str], set[str]]:
    """Delete every character whose total corpus count is below the floor.

    A count equal to the floor survives. Whitespace is exempt: deleting a
    rare separator would merge unrelated words, and the rule targets stray
    glyphs, not document structure. Returns the filtered texts and the set
    of removed characters.
    """
    if min_char_freq < 0:
        raise ValueError("min_char_freq must be >= 0")
    char_counts: Counter[str] = Counter()
    for text in texts:
        char_counts.update(text)
    removed = {
        ch for ch, c in char_counts.items() if c < min_char_freq and not ch.isspace()
    }
    if not removed:
        return list(texts), removed
    table = str.maketrans({ch: None for ch in removed})
    return [t.translate(table) for t in texts], removed


def _lengths_by_first_char(pieces: Iterable[str]) -> dict[str, list[int]]:
    """Character -> lengths of the pieces that start with it, longest first."""
    lengths: defaultdict[str, set[int]] = defaultdict(set)
    for piece in pieces:
        lengths[piece[0]].add(len(piece))
    return {ch: sorted(ls, reverse=True) for ch, ls in lengths.items()}


class _Segments(dict):
    """Word -> subword ids by greedy longest-prefix matching, a word that
    cannot be segmented being the unknown id alone. Each word is segmented on
    first use, so the memo grows with the distinct words segmented.

    A word's first piece is a token as written, no longer than the longest
    piece; each later piece is a continuation token without its prefix. At
    each position only the lengths of the pieces that start with the next
    character and fit in the rest of the word are probed."""

    def __init__(self, ids: dict[str, int]) -> None:
        self._unk = (ids[UNK_TOKEN],)
        longest = max(len(t.removeprefix(CONTINUATION_PREFIX)) for t in ids)
        continuation = {
            t.removeprefix(CONTINUATION_PREFIX): i
            for t, i in ids.items()
            if t.startswith(CONTINUATION_PREFIX) and t != CONTINUATION_PREFIX
        }
        self._initial = ids, _lengths_by_first_char(t for t in ids if len(t) <= longest)
        self._continuation = continuation, _lengths_by_first_char(continuation)

    def __missing__(self, word: str) -> tuple[int, ...]:
        if not word:
            raise ValueError("cannot tokenize an empty word")
        pieces: list[int] = []
        pos = 0
        ids, lengths = self._initial
        while pos < len(word):
            rest = len(word) - pos
            for length in lengths.get(word[pos], ()):
                if length > rest:
                    continue
                tok_id = ids.get(word[pos : pos + length])
                if tok_id is not None:
                    pieces.append(tok_id)
                    pos += length
                    break
            else:
                self[word] = self._unk
                return self._unk
            ids, lengths = self._continuation
        self[word] = segment = tuple(pieces)
        return segment


@dataclass
class Vocabulary:
    """Token list where index equals id, plus the word-frequency audit map."""

    tokens: list[str]
    config: VocabConfig
    word_freqs: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        for i, tok in enumerate(self.tokens):
            # what ``save`` writes ``load`` must read back: a list file is
            # split at line breaks, each line stripped, a blank one skipped
            # and a byte order mark that opens the file dropped
            changed = not tok or tok != tok.strip() or "\n" in tok or "\r" in tok
            if changed or (i == 0 and tok[0] == "\ufeff"):
                raise ValueError(f"vocabulary token {tok!r} would not read back from a list file")
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        if UNK_TOKEN not in self._ids:
            raise ValueError(f"vocabulary has no {UNK_TOKEN} token")
        self.segments = _Segments(self._ids)  # word -> tuple of subword ids

    def __len__(self) -> int:
        return len(self.tokens)

    def token_id(self, token: str) -> int | None:
        return self._ids.get(token)

    @property
    def unk_id(self) -> int:
        return self._ids[UNK_TOKEN]

    def save(self, path: str | Path) -> None:
        write_text(path, (tok + "\n" for tok in self.tokens))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """The token list of a list file; a list that is not a vocabulary is
        a ``ValueError`` that names the file."""
        tokens = read_lines(path)
        try:
            return cls(tokens, VocabConfig())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _pair_heap(counts: dict[Pair, int]) -> list[tuple[int, Pair]]:
    heap = [(-count, pair) for pair, count in counts.items() if count >= _MIN_PAIR_FREQ]
    heapq.heapify(heap)
    return heap


def _apply_merge(symbols: list[str], pair: Pair, merged: str) -> list[str]:
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


def build_vocab(texts: Sequence[str], config: VocabConfig = VocabConfig()) -> Vocabulary:
    """Train a vocabulary on pre-filtered corpus texts.

    Determinism: ties in word frequency and in pair counts break
    lexicographically, so the same corpus always yields the same token
    file byte for byte. Word-initial merges are carried out in symbol
    space but never added as tokens: a whole-word surface below the
    frequency floor must not enter the vocabulary (the floor exists to
    keep rare strings such as patient names out), so the only token kinds
    are specials, single characters, continuations, and frequent words.

    Each merge step takes the pair with the highest frequency-weighted
    count and merges it left to right, without overlap, in every word that
    holds it: the merge order is that of a full recount after every step.
    The pair counts are kept up to date from the words a merge changed, so
    the work per merge scales with the words that hold the pair, not with
    the corpus.
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

    # one shared string per continuation symbol, not one per occurrence
    continuation = {ch: prefix + ch for ch in alphabet}
    pieced = [w for w in word_freqs if w not in whole_words and len(w) > 1]
    symbols = [[w[0], *(continuation[ch] for ch in w[1:])] for w in pieced]
    weights = [word_freqs[w] for w in pieced]
    counts: dict[Pair, int] = {}
    # pair -> ids of the words that hold it. An id may be stale or repeated
    # (a word left without the pair is skipped below), but never missing.
    holders: defaultdict[Pair, list[int]] = defaultdict(list)
    for wid, syms in enumerate(symbols):
        for pair in zip(syms, syms[1:]):
            counts[pair] = counts.get(pair, 0) + weights[wid]
            holders[pair].append(wid)
    heap = _pair_heap(counts)
    while len(tokens) < config.vocab_size:
        # entries whose count is no longer live are skipped; every live
        # count >= _MIN_PAIR_FREQ has an entry, so the first live one is the
        # most frequent pair, ties broken lexicographically
        while heap and counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        pair = heapq.heappop(heap)[1]
        a, b = pair
        merged = a + b[len(prefix) :] if b.startswith(prefix) else a + b
        delta: dict[Pair, int] = {}
        for wid in holders.pop(pair):
            old = symbols[wid]
            new = _apply_merge(old, pair, merged)
            if len(new) == len(old):
                continue
            weight = weights[wid]
            for p in zip(old, old[1:]):
                delta[p] = delta.get(p, 0) - weight
            for p in zip(new, new[1:]):
                delta[p] = delta.get(p, 0) + weight
                if merged in p:  # any other pair of the word was indexed before
                    holders[p].append(wid)
            symbols[wid] = new
        for p, d in delta.items():
            if not d:
                continue
            count = counts.get(p, 0) + d
            if count:
                counts[p] = count
            else:
                del counts[p]
            if count >= _MIN_PAIR_FREQ:
                heapq.heappush(heap, (-count, p))
        if len(heap) > 2 * len(counts):
            heap = _pair_heap(counts)
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


def tokenize_word(word: str, vocab: Vocabulary) -> list[int]:
    """The subword ids of one word, as a new list."""
    return list(vocab.segments[word])


def tokenize_text(text: str, vocab: Vocabulary) -> tuple[list[str], list[tuple[int, ...]]]:
    words = extract_words(text)
    return words, [vocab.segments[w] for w in words]


@dataclass
class DocumentFertility:
    doc_id: str
    n_words: int
    n_subwords: int

    @property
    def fertility(self) -> float:
        return self.n_subwords / self.n_words


@dataclass
class FertilityReport:
    n_words: int
    n_subwords: int
    per_document: list[DocumentFertility] | None = None

    @property
    def fertility(self) -> float:
        return self.n_subwords / self.n_words

    def to_obj(self) -> dict:
        obj = {
            "n_words": self.n_words,
            "n_subwords": self.n_subwords,
            "fertility": self.fertility,
        }
        if self.per_document is not None:
            obj["per_document"] = [
                {
                    "id": d.doc_id,
                    "n_words": d.n_words,
                    "n_subwords": d.n_subwords,
                    "fertility": d.fertility,
                }
                for d in self.per_document
            ]
        return obj


def measure_fertility(
    items: Iterable[tuple[str, str]], vocab: Vocabulary, per_document: bool = False
) -> FertilityReport:
    """Average subwords per word over (doc_id, text) pairs.

    An unknown word counts as one subword, so fertility is always >= 1.
    A corpus without a single word has no fertility and raises.
    """
    total_words = 0
    total_subwords = 0
    breakdown: list[DocumentFertility] | None = [] if per_document else None
    segments = vocab.segments
    for doc_id, text in items:
        words = extract_words(text)
        n_sub = sum(map(len, map(segments.__getitem__, words)))
        total_words += len(words)
        total_subwords += n_sub
        if breakdown is not None and words:
            breakdown.append(DocumentFertility(doc_id, len(words), n_sub))
    if total_words == 0:
        raise ValueError("fertility undefined: corpus contains no words")
    return FertilityReport(total_words, total_subwords, breakdown)
