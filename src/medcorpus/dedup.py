"""Near-duplicate removal over bag-of-words cosine similarity.

Both engines work on :class:`TermRows`, the bag-of-words rows of a
document sequence as flat arrays of term ids and counts. They produce
identical results and differ only in their candidate source, the earlier
documents each document is verified against; the walk of each mode, every
similarity decision and the report are shared:

* :func:`dedup_exact` offers every earlier document. Quadratic, trivially
  auditable, the reference that the tests hold the indexed engine to.
* :func:`dedup_indexed` screens all pairs on blocked float32 scores
  (dense BLAS products for common terms, an inverted index for rare ones,
  each block of documents against itself and the documents before it) and
  offers only the pairs whose score is within a margin of the threshold
  that bounds its rounding error. A pair it skips cannot exceed the
  threshold, so the keep set, the removal set, and the clusters are
  identical; only ``pairs_examined`` may differ. :func:`dedup_documents`,
  which the CLI and the pipeline call, tokenizes each source straight into
  its rows and runs this engine.

Candidate generation never filters terms by document frequency. Dropping
high-frequency terms from the index looks attractive but is unsound: two
documents whose overlap consists only of such terms can still exceed the
threshold, and they would never meet as candidates.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .corpus import Document

if TYPE_CHECKING:  # annotations only: the first dedup imports both
    from array import array

    import numpy as np

COMPARISON_STRICT = "strict-greater"
COMPARISON_INCLUSIVE = "greater-or-equal"

MODE_REPRESENTATIVE = "representative-keep"
MODE_LITERAL = "literal-drop"

# the names users write for these settings, on the command line and in
# pipeline configs
MODES = {"representative": MODE_REPRESENTATIVE, "literal": MODE_LITERAL}
COMPARISONS = {"strict": COMPARISON_STRICT, "inclusive": COMPARISON_INCLUSIVE}

# float32 scores in the screen's buffer (4 MiB). Blocks of max(1, budget //
# n) of the n rows that take part are each scored against the columns up to
# their own end, the lower triangle of the pair matrix, so the buffer never
# holds more than the budget, or one row of n scores once n exceeds it.
SCORE_BUFFER_FLOATS = 1 << 20

# Tokens that TermRows counts at a time, in whole documents, so that the
# builder's working memory (about 1.2 MiB on radiology reports) stays fixed
# however long the source. Chunks 8 times larger counted about 4 % faster
# but left more freed memory in the allocator, which raised the process's
# peak in the screen.
ROW_CHUNK_TOKENS = 1 << 13

_TOKEN_RE = re.compile(r"[^\W_]+")
# A byte table over Latin-1: each byte of that class, which below 256 is
# str.isalnum(), to its lowercase, every other byte to a space. Every Latin-1
# character lowercases to one Latin-1 character of the same class, so
# splitting the translation on whitespace gives the class's runs of the
# lowercased text.
_LATIN1_TERM_BYTES = bytes(ord(c.lower()) if c.isalnum() else 0x20 for c in map(chr, range(256)))


class EmptyVectorError(ValueError):
    """Raised when a document yields no terms under the analyzer."""


@dataclass
class BowVector:
    """Sparse term-count vector for one document.

    ``counts`` holds strictly positive counts only, so ``norm``, the
    Euclidean norm of the counts computed here, is positive.
    """

    doc_id: str
    counts: dict[str, int]
    norm: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.counts:
            raise EmptyVectorError(f"document {self.doc_id!r} has an empty term vector")
        if min(self.counts.values()) <= 0:
            raise ValueError("bag-of-words counts must be positive")
        self.norm = _norm(self.counts)

    def n_terms(self) -> int:
        """Total number of analyzed term occurrences."""
        return sum(self.counts.values())


def _norm(counts: dict[str, int]) -> float:
    """The Euclidean norm of term counts, from their exact sum of squares."""
    values = counts.values()
    return math.sqrt(sum(map(mul, values, values)))


def vectorize(doc: Document) -> BowVector:
    """Build the term-count vector of a document.

    The analyzer lowercases and splits on non-alphanumeric runs.
    Documents with no alphanumeric content cannot be compared and raise
    :class:`EmptyVectorError`.
    """
    # Counter keeps first-occurrence order, which every row's term ids follow
    return BowVector(doc.id, Counter(_tokens(doc.text)))


def _tokens(text: str) -> list[str]:
    """The analyzer's terms of ``text`` in order: its lowercased runs of
    letters and digits, ``_TOKEN_RE.findall(text.lower())``.

    Latin-1 text, nearly all German text, is lowercased and split in one
    pass: its bytes go through :data:`_LATIN1_TERM_BYTES` and the result is
    split on the spaces, with no regex scan. Any other text is that
    expression itself."""
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError:
        return _TOKEN_RE.findall(text.lower())
    return data.translate(_LATIN1_TERM_BYTES).decode("latin-1").split()


class _TermIds(dict):
    # a term seen for the first time gets the next id
    def __missing__(self, term: str) -> int:
        self[term] = i = len(self)
        return i


@dataclass
class TermRows:
    """The bag-of-words rows of a document sequence as flat numpy arrays,
    one row per document with terms, in input order. ``ids`` and ``counts``
    hold the rows one after another, each in its own first-occurrence term
    order, with ids numbered by first sight over the documents the rows were
    built from; ``lengths`` holds each row's number of terms, ``norms`` the
    Euclidean norm of its counts and ``n_words`` its number of term
    occurrences. The builder's arrays are views of the stdlib arrays it grew,
    not copies."""

    doc_ids: list[str]
    ids: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray
    norms: np.ndarray
    n_words: np.ndarray

    @classmethod
    def _from_terms(cls, rows: Iterable[tuple[str, Iterable[str]]]) -> "TermRows":
        """The rows of ``(doc_id, terms)`` pairs, as the two feeders below
        give them; a document without terms gets no row. Term ids stream
        into one array, which is counted a chunk of whole documents at a
        time, once it holds :data:`ROW_CHUNK_TOKENS` tokens."""
        from array import array  # loaded by the first dedup, not at CLI start-up

        doc_ids: list[str] = []
        built = tuple(array(t) for t in "qqqdq")  # ids, counts, lengths, norms, n_words
        term_ids = _TermIds()
        id_of = term_ids.__getitem__
        chunk, words = array("q"), array("q")
        for doc_id, terms in rows:
            before = len(chunk)
            chunk.extend(map(id_of, terms))
            if len(chunk) > before:
                doc_ids.append(doc_id)
                words.append(len(chunk) - before)
                if len(chunk) >= ROW_CHUNK_TOKENS:
                    cls._count_chunk(chunk, words, len(term_ids), built)
                    chunk, words = array("q"), array("q")
        if words:
            cls._count_chunk(chunk, words, len(term_ids), built)
        import numpy as np  # after tokenization, as the first chunk's count loads it

        return cls(doc_ids, *(np.frombuffer(a, a.typecode) for a in built))

    @staticmethod
    def _count_chunk(chunk: array, words: array, n_ids: int, out: tuple[array, ...]) -> None:
        """Append to ``out``, the builder's five arrays, the rows whose term
        ids ``chunk`` holds one row after another, ``words[r]`` of them for
        row r, all below ``n_ids``.

        A stable sort of the (row, id) keys brings each term's occurrences
        in a row together, the first one ahead; each run's count goes to
        that first occurrence, and the first occurrences, read in chunk
        order, are the rows in their first-occurrence term order. Norms come
        from exact integer sums of squared counts, as :func:`_norm`'s do."""
        import numpy as np  # as the screen does: other commands start without it

        ids = np.frombuffer(chunk, np.int64)
        rows = np.repeat(np.arange(len(words)), np.frombuffer(words, np.int64))
        keys = rows * n_ids + ids
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        run_starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        del keys
        counts = np.zeros(len(ids), np.int64)
        counts[order[run_starts]] = np.diff(run_starts, append=len(ids))
        first = counts > 0
        counts = counts[first]
        lengths = np.bincount(rows[first], minlength=len(words))
        squares = np.add.reduceat(counts * counts, np.cumsum(lengths) - lengths)
        *row_arrays, n_words = out
        for dst, src in zip(row_arrays, (ids[first], counts, lengths, np.sqrt(squares))):
            dst.frombytes(src.data.cast("B"))  # frombytes takes byte buffers alone
        n_words.extend(words)

    @classmethod
    def from_documents(cls, docs: Iterable[Document]) -> "TermRows":
        """Tokenize the documents straight into rows, as :func:`vectorize`
        would, without keeping a vector per document."""
        return cls._from_terms((doc.id, _tokens(doc.text)) for doc in docs)

    @classmethod
    def from_vectors(cls, vectors: Iterable[BowVector]) -> "TermRows":
        # each term repeated by its count, in the vector's term order
        return cls._from_terms(
            (v.doc_id, chain.from_iterable(map(repeat, v.counts, v.counts.values())))
            for v in vectors
        )

    def take(self, keep: np.ndarray) -> "TermRows":
        """The rows where the boolean mask ``keep`` is set, in order, with
        their term ids as they are."""
        entries = keep.repeat(self.lengths)
        return TermRows(
            list(compress(self.doc_ids, keep.tolist())),
            self.ids[entries],
            self.counts[entries],
            self.lengths[keep],
            self.norms[keep],
            self.n_words[keep],
        )


def _cosine(rows: TermRows) -> Callable[[int, int], float]:
    """The exact cosine of two rows, bit-identical to
    :func:`cosine_similarity` of their vectors: the dot of integer counts
    is exact, here in Python ints and there in float64, whatever the order
    of its terms, and the product of the two norms commutes. A row's
    ``{term id: count}`` map is built when the row is first verified, of
    Python ints read through memoryviews of the rows."""
    starts = [0, *rows.lengths.cumsum().tolist()]
    ids, counts, norms = rows.ids.data, rows.counts.data, rows.norms.data
    maps: dict[int, dict[int, int]] = {}

    def counts_of(i: int) -> dict[int, int]:
        m = maps.get(i)
        if m is None:
            lo, hi = starts[i], starts[i + 1]
            m = maps[i] = dict(zip(ids[lo:hi], counts[lo:hi]))
        return m

    def cosine(i: int, j: int) -> float:
        a, b = counts_of(i), counts_of(j)
        dot = sum([count * b[t] for t, count in a.items() if t in b])
        return min(1.0, dot / (norms[i] * norms[j]))

    return cosine


def cosine_similarity(a: BowVector, b: BowVector) -> float:
    """Exact cosine of two count vectors, symmetric by construction.

    Iteration order is canonicalized on (len, doc_id) so that swapping the
    arguments cannot change the floating point result.
    """
    if (len(a.counts), a.doc_id) > (len(b.counts), b.doc_id):
        a, b = b, a
    other = b.counts
    dot = 0.0
    for term, count in a.counts.items():
        c = other.get(term)
        if c is not None:
            dot += count * c
    return min(1.0, dot / (a.norm * b.norm))


@dataclass(frozen=True)
class DedupConfig:
    threshold: float = 0.75
    comparison: str = COMPARISON_STRICT
    mode: str = MODE_REPRESENTATIVE
    max_doc_words: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must be in (0, 1]")
        if self.comparison not in (COMPARISON_STRICT, COMPARISON_INCLUSIVE):
            raise ValueError(f"unknown comparison {self.comparison!r}")
        if self.mode not in (MODE_REPRESENTATIVE, MODE_LITERAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_doc_words is not None and self.max_doc_words <= 0:
            raise ValueError("max_doc_words must be positive or None")

    @classmethod
    def from_names(
        cls,
        # the field defaults above, bound while the class body runs
        threshold: float = threshold,
        mode: str = "representative",
        comparison: str = "strict",
        max_doc_words: int | None = max_doc_words,
    ) -> "DedupConfig":
        """Build a config from the user-facing names in :data:`MODES` and
        :data:`COMPARISONS`. The CLI and the pipeline pass only the settings
        a user gave; the others take these defaults."""
        if mode not in MODES:
            raise ValueError(f"unknown dedup mode {mode!r}; expected one of {sorted(MODES)}")
        if comparison not in COMPARISONS:
            raise ValueError(
                f"unknown dedup comparison {comparison!r}; expected one of {sorted(COMPARISONS)}"
            )
        return cls(float(threshold), COMPARISONS[comparison], MODES[mode], max_doc_words)

    def exceeds(self) -> Callable[[float], bool]:
        t = self.threshold
        if self.comparison == COMPARISON_STRICT:
            return lambda sim: sim > t
        return lambda sim: sim >= t


@dataclass
class Cluster:
    representative: str
    members: list[str]


@dataclass
class DedupReport:
    """Outcome of one dedup run. ``n_input == n_kept + n_removed`` always.

    In representative-keep mode, cluster members are the removed documents
    assigned to a kept representative. In literal-drop mode whole similarity
    components are removed; the representative is merely the earliest member
    and appears in its own member list.
    """

    mode: str
    threshold: float
    comparison: str
    n_input: int
    n_kept: int
    n_removed: int
    clusters: list[Cluster]
    pairs_examined: int
    kept_ids: list[str] = field(default_factory=list)

    def removed_ids(self) -> set[str]:
        return {m for c in self.clusters for m in c.members}

    def to_obj(self) -> dict:
        """The report's JSON object: ``asdict`` of it without ``kept_ids``,
        whose ids live in the output corpus. Built from the instance dicts,
        as ``asdict`` deep-copies every cluster; the member lists are the
        report's own."""
        obj = {**vars(self), "clusters": [dict(vars(c)) for c in self.clusters]}
        del obj["kept_ids"]
        return obj


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


# Both walks take ``candidates(i)``, the earlier rows of ``i`` worth
# verifying, in ascending order, and return the clusters and the number of
# pairs verified.
_Candidates = Callable[[int], Iterable[int]]


def _representative_walk(
    rows: TermRows, cfg: DedupConfig, candidates: _Candidates
) -> tuple[list[Cluster], int]:
    """Greedy scan in input order: a row joins the first kept candidate it
    exceeds the threshold with, and is kept if there is none."""
    exceeds = cfg.exceeds()
    cosine = _cosine(rows)
    kept: set[int] = set()
    members: dict[int, list[int]] = {}
    pairs_examined = 0
    for i in range(len(rows.doc_ids)):
        for j in candidates(i):
            if j in kept:
                pairs_examined += 1
                if exceeds(cosine(i, j)):
                    members.setdefault(j, []).append(i)
                    break
        else:
            kept.add(i)
    ids = rows.doc_ids
    clusters = [Cluster(ids[j], [ids[m] for m in members[j]]) for j in sorted(members)]
    return clusters, pairs_examined


def _literal_drop(
    rows: TermRows, cfg: DedupConfig, candidates: _Candidates
) -> tuple[list[Cluster], int]:
    """Remove every row with at least one neighbor over the threshold;
    clusters are connected components of the neighbor graph."""
    exceeds = cfg.exceeds()
    cosine = _cosine(rows)
    uf = _UnionFind(len(rows.doc_ids))
    removed: set[int] = set()
    pairs_examined = 0
    for i in range(len(rows.doc_ids)):
        for j in candidates(i):
            pairs_examined += 1
            if exceeds(cosine(j, i)):
                removed.update((i, j))
                uf.union(i, j)
    # ascending members, so the components come out by their earliest member
    components: dict[int, list[int]] = {}
    for i in sorted(removed):
        components.setdefault(uf.find(i), []).append(i)
    ids = rows.doc_ids
    clusters = [Cluster(ids[comp[0]], [ids[m] for m in comp]) for comp in components.values()]
    return clusters, pairs_examined


def _dedup(
    data: TermRows | Sequence[BowVector],
    cfg: DedupConfig,
    screen: Callable[[TermRows], _Candidates],
) -> DedupReport:
    """Run the mode's walk on the candidates that ``screen`` returns; the
    engines differ only in their screen. Both take the rows of a source or
    its vectors. When ``max_doc_words`` is set, the rows with more words
    are set aside first: the screen and the walk see only the rows that
    take part, and the report counts the others as kept."""
    rows = data if isinstance(data, TermRows) else TermRows.from_vectors(data)
    seen: set[str] = set()
    for doc_id in rows.doc_ids:
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r} in dedup input")
        seen.add(doc_id)
    limit = cfg.max_doc_words
    taking = rows if limit is None else rows.take(rows.n_words <= limit)
    walk = _representative_walk if cfg.mode == MODE_REPRESENTATIVE else _literal_drop
    clusters, pairs_examined = walk(taking, cfg, screen(taking))
    removed = {m for c in clusters for m in c.members}
    return DedupReport(
        mode=cfg.mode,
        threshold=cfg.threshold,
        comparison=cfg.comparison,
        n_input=len(rows.doc_ids),
        n_kept=len(rows.doc_ids) - len(removed),
        n_removed=len(removed),
        clusters=clusters,
        pairs_examined=pairs_examined,
        kept_ids=[doc_id for doc_id in rows.doc_ids if doc_id not in removed],
    )


def dedup_exact(
    vectors: TermRows | Sequence[BowVector], cfg: DedupConfig = DedupConfig()
) -> DedupReport:
    """Reference engine: every pair of participating documents is compared."""
    # every earlier row: candidates(i) is range(i)
    return _dedup(vectors, cfg, lambda rows: range)


def _score_matrices(bow: TermRows) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """The unit-normalised rows, split by document frequency: a dense block
    of the common terms (None when there are none) and the entries of the
    rest, the rare entries, as three arrays: row, term id and weight. The
    weights are computed in float64 and rounded once to float32, the dtype
    of the dense block and of the rare weights.

    Term ids are the rows' own, numbered by first sight over the documents
    the rows were built from, whether or not :meth:`TermRows.take` set some
    aside since. The rare entries are in row order and every row keeps its
    own term order, so the dense column order and the order in which the
    screen sums a pair's shared rare terms depend only on the input."""
    import numpy as np  # the screen alone needs numpy; other commands start without it

    n = len(bow.doc_ids)
    ids, lengths = bow.ids, bow.lengths
    weights = bow.counts.astype(float)
    weights *= np.repeat(1.0 / bow.norms, lengths)
    weights = weights.astype(np.float32)
    rows = np.repeat(np.arange(n, dtype=np.int32), lengths)

    df = np.bincount(ids)
    dense_cols = np.nonzero(df >= max(64, n // 64))[0]
    # keep the dense side bounded; overflow terms fall back to the rare side
    max_dense = max(8, 64_000_000 // n)
    if len(dense_cols) > max_dense:
        order = np.argsort(df[dense_cols])[::-1]
        dense_cols = dense_cols[order[:max_dense]]
    dense_pos = np.full(len(df), -1, dtype=np.int32)
    dense_pos[dense_cols] = np.arange(len(dense_cols))
    pos = dense_pos[ids]
    in_dense = pos >= 0

    dense = None
    if len(dense_cols):
        dense = np.zeros((n, len(dense_cols)), np.float32)
        dense[rows[in_dense], pos[in_dense]] = weights[in_dense]
    rest = ~in_dense
    return dense, rows[rest], ids[rest], weights[rest]


def _score_margin(terms: int) -> float:
    """How far below the threshold the screen keeps a pair: 2·γ_{m+2}, at
    least 1e-6, where m = ``terms`` is the number of dense columns plus the
    term count of the longest participant row, u = 2⁻²⁴ is float32's unit
    roundoff and γ_k = k·u / (1 − k·u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 3).

    Proof that γ_{m+2} bounds the float32 error of any pair's score. Let
    x and y be the float64 unit weights of the two rows and s = Σ x_k·y_k
    their exact dot, over the D dense columns and the r shared rare
    terms; r is at most either row's term count, so D + r ≤ m. Each
    product x_k·y_k meets at most m + 2 roundings of relative size at
    most u: the rounding of x_k and of y_k to float32, the product's
    own, and at most D + r − 1 ≤ m − 1 additions. BLAS sums the D dense
    products in some order, where each product passes through at most
    D − 1 additions (fewer with fused multiply-adds), and ``np.add.at``
    then adds the r rare products one at a time; without dense columns
    the first of them is added to an exact zero. By Higham's Lemma 3.1
    the computed score is Σ x_k·y_k·(1 + θ_k) with |θ_k| ≤ γ_{m+2}. Every
    weight is positive, so the score's error is at most γ_{m+2}·s, and
    s ≤ 1 up to float64 rounding by Cauchy–Schwarz, as x and y are unit
    vectors.

    The second γ_{m+2}, at least 2u, is spare: it covers the float64
    rounding of the weights (about 1e-16) and the rounding of the cutoff
    to float32 in the comparisons (u/2 at most), with room left. So a pair
    whose exact cosine reaches the threshold scores at least threshold −
    margin, and the screen keeps it. When k·u reaches 1, γ_k is not
    defined and the margin is infinite: every pair goes to verification."""
    k = (terms + 2) * 2.0**-24  # (m + 2)·u
    return max(1e-6, 2 * k / (1 - k)) if k < 1 else math.inf


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative integer keys, by
    stable passes over their 16-bit digits from the lowest up: one pass
    when every key is below 2**16, one more per 16 bits the largest key
    holds above that. numpy sorts 16-bit keys by radix, in linear time."""
    import numpy as np

    top = int(keys.max()) if len(keys) else 0
    # the cast to uint16 keeps the low 16 bits of each key
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    return order


def _near_threshold_pairs(bow: TermRows, cfg: DedupConfig) -> dict[int, list[int]]:
    """Map each row to the earlier rows whose approximate cosine reaches
    threshold - margin, in ascending order.

    Scores are float32, within half of :func:`_score_margin` of the exact
    cosine. They are computed in row blocks, each against the columns
    before the block's end only, since a pair is screened from its later
    member. Terms are split by document frequency: common terms form a
    dense row-normalized matrix whose block products go through BLAS, and
    rare terms go into an inverted index. Each rare entry of a row adds its
    product with every earlier posting of its term to the pair's dense
    score, in the row's term order, before thresholding. The split drops
    nothing, so every pair is screened on its full approximate score;
    without it a boilerplate term's postings would hold nearly every row,
    and its contributions would grow with the square of the corpus."""
    import numpy as np

    n = len(bow.doc_ids)
    if n == 0:
        return {}
    dense, rows, ids, weights = _score_matrices(bow)

    # The inverted index. Postings are the rare entries grouped by term, in
    # row order within a term, as the sort is stable. Entry e meets the
    # earlier[e] postings of its term before its own, from first[e] on:
    # the earlier rows that hold the term. Row and entry indices fit in 32
    # bits; only sums of contributions need 64.
    postings = _stable_order(ids)
    post_rows, post_weights = rows[postings], weights[postings]
    df = np.bincount(ids)
    first = (np.cumsum(df) - df)[ids]
    earlier = np.empty(len(postings), dtype=np.int32)
    earlier[postings] = np.arange(len(postings))
    earlier -= first
    # the contributions of the entries before each entry, and where each
    # entry's postings start less that count
    ahead = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(earlier, out=ahead[1:])
    offset = first - ahead[:-1]
    del postings, first, ids  # the index is built

    longest = int(bow.lengths.max())
    cutoff = cfg.threshold - _score_margin((0 if dense is None else dense.shape[1]) + longest)
    block = min(n, max(1, SCORE_BUFFER_FLOATS // n))
    buf = np.empty(block * n, np.float32)
    out: dict[int, list[int]] = {}
    for start in range(0, n, block):
        stop = min(start + block, n)
        size = (stop - start) * stop
        flat = buf[:size]
        scores = flat.reshape(stop - start, stop)
        if dense is not None:
            np.dot(dense[start:stop], dense[:stop].T, out=scores)
        else:
            scores.fill(0.0)
        # add the block's rare contributions in entry order, in runs of at
        # most one score row, which stay in cache; an entry has fewer than
        # `stop`, so each run takes one entry at least. np.add.at on the
        # flat block takes numpy's one-dimensional fast path.
        # keys of the rows' own type, so the search does not convert them
        lo, hi = np.searchsorted(rows, np.array((start, stop), rows.dtype))
        while lo < hi:
            end = min(hi, int(np.searchsorted(ahead, ahead[lo] + stop, "right")) - 1)
            take = earlier[lo:end]
            post = np.repeat(offset[lo:end], take)
            post += np.arange(ahead[lo], ahead[end])
            at = np.repeat((rows[lo:end] - start) * stop, take)
            at += post_rows[post]
            contrib = post_weights[post]
            contrib *= np.repeat(weights[lo:end], take)
            np.add.at(flat, at, contrib)
            lo = end
        # drop each pair with itself and the pairs a later block owns; -inf,
        # not 0, because a threshold within the margin gives a cutoff <= 0
        for r in range(stop - start):
            scores[r, start + r :] = -np.inf
        for r in np.flatnonzero(scores.max(axis=1) >= cutoff).tolist():
            out[start + r] = np.flatnonzero(scores[r] >= cutoff).tolist()
    return out


def dedup_indexed(
    vectors: TermRows | Sequence[BowVector], cfg: DedupConfig = DedupConfig()
) -> DedupReport:
    """Accelerated engine with output identical to :func:`dedup_exact`.

    Pairs whose approximate score cannot reach the threshold are skipped;
    the remainder are verified with the exact scalar cosine, in the same
    order the exact engine would have used.
    """

    def screened(rows: TermRows) -> _Candidates:
        pairs = _near_threshold_pairs(rows, cfg)
        return lambda i: pairs.get(i, ())

    return _dedup(vectors, cfg, screened)


def dedup_documents(
    docs: Sequence[Document], cfg: DedupConfig
) -> tuple[list[Document], dict[str, DedupReport]]:
    """Near-duplicate removal within each source, as both front ends run it.

    Each source's documents go through :func:`dedup_indexed` on their own,
    so documents of different sources never remove each other. Documents
    without analyzable terms cannot be compared and are kept. Returns the
    kept documents in input order and one report per source, in sorted
    source order.
    """
    groups: dict[str, list[Document]] = {}
    for doc in docs:
        groups.setdefault(doc.source, []).append(doc)
    removed: set[tuple[str, str]] = set()
    reports: dict[str, DedupReport] = {}
    for source in sorted(groups):
        # tokenize one source at a time, so only its rows are held
        reports[source] = dedup_indexed(TermRows.from_documents(groups[source]), cfg)
        removed.update((source, doc_id) for doc_id in reports[source].removed_ids())
    return [d for d in docs if (d.source, d.id) not in removed], reports
