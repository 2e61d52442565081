"""Near-duplicate removal over bag-of-words cosine similarity.

Two engines produce identical results:

* :func:`dedup_exact` compares every incoming document against every kept
  document. Quadratic, trivially auditable, the reference that the tests
  hold the indexed engine to.
* :func:`dedup_indexed` screens all pairs on blocked approximate scores
  (dense BLAS products for common terms, a sparse product for rare ones)
  and only verifies pairs whose approximate score is within a safety
  margin of the threshold. Every decision is made by the same
  :func:`cosine_similarity` call on the same operands as the exact
  engine, so the keep set, the removal set, and the clusters are
  identical; only ``pairs_examined`` may differ. :func:`dedup_documents`,
  which the CLI and the pipeline call, runs this engine.

Candidate generation never filters terms by document frequency. Dropping
high-frequency terms from the index looks attractive but is unsound: two
documents whose overlap consists only of such terms can still exceed the
threshold, and they would never meet as candidates.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse

from .corpus import Document

COMPARISON_STRICT = "strict-greater"
COMPARISON_INCLUSIVE = "greater-or-equal"

MODE_REPRESENTATIVE = "representative-keep"
MODE_LITERAL = "literal-drop"

# the names users write for these settings, on the command line and in
# pipeline configs
MODES = {"representative": MODE_REPRESENTATIVE, "literal": MODE_LITERAL}
COMPARISONS = {"strict": COMPARISON_STRICT, "inclusive": COMPARISON_INCLUSIVE}

# Sparse scores are float64 dot products of unit vectors; their error is
# orders of magnitude below this margin, so a pair skipped here can never
# exceed the threshold under exact verification.
_SCORE_MARGIN = 1e-6

# Participant rows scored per screening block: the score buffer holds
# BLOCK_ROWS x n floats.
BLOCK_ROWS = 512

_TOKEN_RE = re.compile(r"[^\W_]+")


class EmptyVectorError(ValueError):
    """Raised when a document yields no terms under the analyzer."""


@dataclass
class BowVector:
    """Sparse term-count vector for one document.

    ``counts`` holds strictly positive counts only and ``norm`` caches the
    Euclidean norm of the counts.
    """

    doc_id: str
    counts: dict[str, int]
    norm: float

    def __post_init__(self) -> None:
        if not self.counts:
            raise EmptyVectorError(f"document {self.doc_id!r} has an empty term vector")
        if any(c <= 0 for c in self.counts.values()):
            raise ValueError("bag-of-words counts must be positive")
        sq = sum(c * c for c in self.counts.values())
        if abs(self.norm * self.norm - sq) > 1e-9 * sq:
            raise ValueError("cached norm is inconsistent with counts")

    @classmethod
    def from_counts(cls, doc_id: str, counts: dict[str, int]) -> "BowVector":
        return cls(doc_id, counts, math.sqrt(sum(c * c for c in counts.values())))

    def n_terms(self) -> int:
        """Total number of analyzed term occurrences."""
        return sum(self.counts.values())


def vectorize(doc: Document) -> BowVector:
    """Build the term-count vector of a document.

    The analyzer lowercases and splits on non-alphanumeric runs.
    Documents with no alphanumeric content cannot be compared and raise
    :class:`EmptyVectorError`.
    """
    counts: dict[str, int] = {}
    for tok in _TOKEN_RE.findall(doc.text.lower()):
        counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        raise EmptyVectorError(f"document {doc.id!r} has no analyzable terms")
    return BowVector.from_counts(doc.id, counts)


def cosine_similarity(a: BowVector, b: BowVector) -> float:
    """Exact cosine of two count vectors, symmetric by construction.

    Iteration order is canonicalized on (len, doc_id) so that swapping the
    arguments cannot change the floating point result.
    """
    if a.norm <= 0.0 or b.norm <= 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vectors")
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
        removed: set[str] = set()
        for cluster in self.clusters:
            removed.update(cluster.members)
        return removed

    def to_obj(self) -> dict:
        obj = asdict(self)
        del obj["kept_ids"]
        return obj


def _validate_vectors(vectors: Sequence[BowVector]) -> None:
    seen: set[str] = set()
    for v in vectors:
        if v.doc_id in seen:
            raise ValueError(f"duplicate doc_id {v.doc_id!r} in dedup input")
        seen.add(v.doc_id)
        if v.norm <= 0.0:
            raise ValueError(f"zero-norm vector for {v.doc_id!r}")


def _split_participants(
    vectors: Sequence[BowVector], cfg: DedupConfig
) -> tuple[list[int], set[int]]:
    """Long documents bypass dedup entirely when max_doc_words is set."""
    if cfg.max_doc_words is None:
        return list(range(len(vectors))), set()
    participants = []
    bypassed = set()
    for i, v in enumerate(vectors):
        if v.n_terms() <= cfg.max_doc_words:
            participants.append(i)
        else:
            bypassed.add(i)
    return participants, bypassed


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


def _finish_report(
    vectors: Sequence[BowVector],
    cfg: DedupConfig,
    kept_indices: list[int],
    clusters: list[Cluster],
    pairs_examined: int,
) -> DedupReport:
    n_removed = sum(len(c.members) for c in clusters)
    return DedupReport(
        mode=cfg.mode,
        threshold=cfg.threshold,
        comparison=cfg.comparison,
        n_input=len(vectors),
        n_kept=len(vectors) - n_removed,
        n_removed=n_removed,
        clusters=clusters,
        pairs_examined=pairs_examined,
        kept_ids=[vectors[i].doc_id for i in sorted(kept_indices)],
    )


def _representative_walk(
    vectors: Sequence[BowVector],
    cfg: DedupConfig,
    participants: list[int],
    bypassed: set[int],
    candidates_for: Callable[[int], Iterable[int]] | None,
) -> DedupReport:
    """Shared greedy scan. ``candidates_for`` yields the kept indices worth
    verifying for one incoming index, already restricted to earlier docs;
    None means verify against every kept document (the exact engine)."""
    exceeds = cfg.exceeds()
    kept: list[int] = []
    keep_order: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    pairs_examined = 0
    for i in participants:
        if candidates_for is None:
            check = kept
        else:
            check = sorted(
                (j for j in candidates_for(i) if j in keep_order),
                key=keep_order.__getitem__,
            )
        target = None
        for j in check:
            pairs_examined += 1
            if exceeds(cosine_similarity(vectors[i], vectors[j])):
                target = j
                break
        if target is None:
            keep_order[i] = len(kept)
            kept.append(i)
        else:
            members.setdefault(target, []).append(i)
    clusters = [
        Cluster(vectors[j].doc_id, [vectors[m].doc_id for m in members[j]])
        for j in kept
        if j in members
    ]
    kept_indices = kept + sorted(bypassed)
    return _finish_report(vectors, cfg, kept_indices, clusters, pairs_examined)


def _literal_drop(
    vectors: Sequence[BowVector],
    cfg: DedupConfig,
    participants: list[int],
    bypassed: set[int],
    pairs: Iterable[tuple[int, int]],
) -> DedupReport:
    """Remove every participant with at least one neighbor over the
    threshold; clusters are connected components of the neighbor graph."""
    exceeds = cfg.exceeds()
    uf = _UnionFind(len(vectors))
    removed: set[int] = set()
    pairs_examined = 0
    for i, j in pairs:
        pairs_examined += 1
        if exceeds(cosine_similarity(vectors[i], vectors[j])):
            removed.add(i)
            removed.add(j)
            uf.union(i, j)
    components: dict[int, list[int]] = {}
    for i in sorted(removed):
        components.setdefault(uf.find(i), []).append(i)
    clusters = [
        Cluster(vectors[comp[0]].doc_id, [vectors[m].doc_id for m in comp])
        for _, comp in sorted(components.items(), key=lambda kv: kv[1][0])
    ]
    kept_indices = [i for i in participants if i not in removed] + sorted(bypassed)
    return _finish_report(vectors, cfg, kept_indices, clusters, pairs_examined)


def dedup_exact(vectors: Sequence[BowVector], cfg: DedupConfig = DedupConfig()) -> DedupReport:
    """Reference engine: every pair of participating documents is compared."""
    _validate_vectors(vectors)
    participants, bypassed = _split_participants(vectors, cfg)
    if cfg.mode == MODE_REPRESENTATIVE:
        return _representative_walk(vectors, cfg, participants, bypassed, None)
    pairs = (
        (participants[a], participants[b])
        for a in range(len(participants))
        for b in range(a + 1, len(participants))
    )
    return _literal_drop(vectors, cfg, participants, bypassed, pairs)


def _near_threshold_pairs(
    vectors: Sequence[BowVector],
    participants: list[int],
    cfg: DedupConfig,
) -> dict[int, list[int]]:
    """Map each participant to the earlier participants whose approximate
    cosine reaches threshold - margin.

    Scores are computed blockwise. Terms are split by document frequency:
    common terms form a dense row-normalized matrix whose block products
    go through BLAS, rare terms stay in a CSR remainder, and the partial
    scores are summed before thresholding. The split drops nothing, so
    every pair is screened on its full approximate score; without it the
    sparse product degenerates on corpora where boilerplate terms make
    nearly all pairs overlap."""
    n = len(participants)
    if n == 0:
        return {}
    term_col: dict[str, int] = {}
    df: list[int] = []
    for idx in participants:
        for term in vectors[idx].counts:
            col = term_col.get(term)
            if col is None:
                term_col[term] = len(df)
                df.append(1)
            else:
                df[col] += 1
    if not term_col:
        return {}

    df_arr = np.asarray(df)
    dense_cols = np.nonzero(df_arr >= max(64, n // 64))[0]
    # keep the dense side bounded; overflow terms fall back to the CSR path
    max_dense = max(8, 64_000_000 // n)
    if len(dense_cols) > max_dense:
        order = np.argsort(df_arr[dense_cols])[::-1]
        dense_cols = dense_cols[order[:max_dense]]
    dense_pos = {int(c): k for k, c in enumerate(dense_cols.tolist())}

    dense = np.zeros((n, len(dense_pos))) if dense_pos else None
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for row, idx in enumerate(participants):
        v = vectors[idx]
        inv = 1.0 / v.norm
        for term, count in v.counts.items():
            pos = dense_pos.get(term_col[term])
            if pos is not None:
                dense[row, pos] = count * inv
            else:
                indices.append(term_col[term])
                data.append(count * inv)
        indptr.append(len(indices))
    remainder = sparse.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int32), np.asarray(indptr, dtype=np.int64)),
        shape=(n, len(term_col)),
    )
    remainder_t = remainder.T.tocsr()

    cutoff = cfg.threshold - _SCORE_MARGIN
    out: dict[int, list[int]] = {}
    scores_buf = np.empty((min(BLOCK_ROWS, n), n))
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        scores = scores_buf[: stop - start]
        if dense is not None:
            np.dot(dense[start:stop], dense.T, out=scores)
        else:
            scores.fill(0.0)
        sub = (remainder[start:stop] @ remainder_t).tocoo()
        if sub.nnz:
            scores[sub.row, sub.col] += sub.data
        rows, cols = np.nonzero(scores >= cutoff)
        lower = cols < rows + start
        for r, c in zip((rows[lower] + start).tolist(), cols[lower].tolist()):
            out.setdefault(participants[r], []).append(participants[c])
    for lst in out.values():
        lst.sort()
    return out


def dedup_indexed(vectors: Sequence[BowVector], cfg: DedupConfig = DedupConfig()) -> DedupReport:
    """Accelerated engine with output identical to :func:`dedup_exact`.

    Pairs whose approximate score cannot reach the threshold are skipped;
    the remainder are verified with the exact scalar cosine, in the same
    order the exact engine would have used.
    """
    _validate_vectors(vectors)
    participants, bypassed = _split_participants(vectors, cfg)
    candidates = _near_threshold_pairs(vectors, participants, cfg)
    if cfg.mode == MODE_REPRESENTATIVE:
        return _representative_walk(
            vectors, cfg, participants, bypassed, lambda i: candidates.get(i, ())
        )
    pairs = [(j, i) for i in participants for j in candidates.get(i, ())]
    return _literal_drop(vectors, cfg, participants, bypassed, pairs)


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
    kept: set[tuple[str, str]] = set()
    reports: dict[str, DedupReport] = {}
    for source in sorted(groups):
        # vectorize one source at a time, so only its vectors are held
        vectors = []
        for doc in groups[source]:
            try:
                vectors.append(vectorize(doc))
            except EmptyVectorError:
                kept.add((source, doc.id))
        reports[source] = dedup_indexed(vectors, cfg)
        kept.update((source, doc_id) for doc_id in reports[source].kept_ids)
    return [d for d in docs if (d.source, d.id) in kept], reports
