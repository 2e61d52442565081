"""The lower-triangle screen of ``dedup._near_threshold_pairs``, which adds
rare-term scores from an inverted index on numpy alone, against an older
screen, which scores every row block against all columns and adds the
scipy sparse product through its COO coordinates.

The reference below is that function, in float64, with the margin below
the threshold as an argument. The screen scores in float32 within its own
margin, so a pair whose score lies within float32 rounding of a cutoff may
land on either side of it. The screen's map must lie between the reference
maps at half and at twice the screen's margin, key by key and list by list,
with its keys and lists in ascending order.
"""

import random
from collections import Counter
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from medcorpus import dedup
from medcorpus.dedup import (
    BowVector,
    DedupConfig,
    TermRows,
    _near_threshold_pairs,
    vectorize,
)
from medcorpus.synth import pii_corpus, radiology_corpus


# --- reference: full-width blocks with a COO scatter -----------------------

# the reference's own block size, in rows
BLOCK_ROWS = 512


def reference_near_threshold_pairs(
    vectors: Sequence[BowVector],
    participants: list[int],
    cfg: DedupConfig,
    margin: float,
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

    cutoff = cfg.threshold - margin
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


# --- differential tests -----------------------------------------------------


def assert_same_screen(
    vectors: list[BowVector], cfg: DedupConfig, block_rows: int | None = None
) -> dict[int, list[int]]:
    """Bracket the screen, the new one in blocks of ``block_rows`` rows,
    through its score buffer budget, or under the module's budget, between
    the reference maps at half and twice the margin it used. The screen
    runs on the rows that take part and its row indices are mapped back to
    those of ``vectors``."""
    rows = TermRows.from_vectors(vectors)
    keep = rows.n_words <= (np.inf if cfg.max_doc_words is None else cfg.max_doc_words)
    participants = np.flatnonzero(keep).tolist()
    budget = dedup.SCORE_BUFFER_FLOATS if block_rows is None else block_rows * len(participants)
    margins = []

    def recorded(terms: int, margin=dedup._score_margin) -> float:
        margins.append(margin(terms))
        return margins[-1]

    with (
        mock.patch.object(dedup, "SCORE_BUFFER_FLOATS", budget),
        mock.patch.object(dedup, "_score_margin", recorded),
    ):
        taken = _near_threshold_pairs(rows.take(keep), cfg)
    got = {participants[i]: [participants[j] for j in js] for i, js in taken.items()}
    if not participants:
        assert got == {}
        return got
    (margin,) = margins
    inner = reference_near_threshold_pairs(vectors, participants, cfg, margin / 2)
    outer = reference_near_threshold_pairs(vectors, participants, cfg, 2 * margin)
    assert list(got) == sorted(got)
    for i, js in got.items():
        assert js == sorted(js)
        assert set(js) <= set(outer.get(i, ()))
    for i, js in inner.items():
        assert set(js) <= set(got.get(i, ()))
    return got


def vectors_of(docs) -> list[BowVector]:
    return [vectorize(d) for d in docs]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_screen_matches_reference_on_radiology_reports(seed):
    assert_same_screen(vectors_of(radiology_corpus(2000, 0.19, seed=seed).documents), DedupConfig())


def test_screen_matches_reference_on_boilerplate_notes():
    notes = pii_corpus(700, seed=0, names_per_doc=1).documents
    assert_same_screen(vectors_of(notes), DedupConfig())


@pytest.mark.parametrize(
    "cfg",
    [DedupConfig(threshold=1.0), DedupConfig(threshold=1e-7), DedupConfig(max_doc_words=40)],
    ids=["threshold-1", "threshold-1e-7", "max-doc-words"],
)
@pytest.mark.parametrize("block_rows", [7, None])
def test_screen_matches_reference_at_edge_settings(cfg, block_rows):
    # below a threshold of the margin every earlier participant is a
    # candidate, so a pair with itself or a later one would show up
    vectors = vectors_of(radiology_corpus(300, 0.19, seed=3).documents)
    assert_same_screen(vectors, cfg, block_rows)


@pytest.mark.parametrize("cfg", [DedupConfig(), DedupConfig(threshold=1e-7)])
def test_screen_matches_reference_when_the_budget_is_below_one_row(cfg):
    # a budget below the 300 columns of a row still scores one row a block
    vectors = vectors_of(radiology_corpus(300, 0.19, seed=3).documents)
    with mock.patch.object(dedup, "SCORE_BUFFER_FLOATS", 299):
        assert_same_screen(vectors, cfg)


_counts = st.dictionaries(
    st.sampled_from([f"t{i}" for i in range(12)]),
    st.integers(min_value=1, max_value=5),
    min_size=1,
    max_size=6,
)
# A term in each of 64 or more documents goes to the dense block, so the
# larger corpora score their boilerplate term through BLAS and the rest
# through the sparse product.
_with_boilerplate = st.builds(lambda b, c: {"b": b, **c}, st.integers(1, 5), _counts)
_corpora = st.lists(_counts, max_size=30) | st.lists(_with_boilerplate, min_size=64, max_size=90)


@settings(max_examples=200, deadline=None)
@given(
    _corpora,
    st.sampled_from([1, 3, 7]),
    st.sampled_from([1e-7, 0.5, 0.75, 1.0]),
    st.sampled_from([None, 8]),
)
def test_screen_matches_reference_on_small_blocks(count_dicts, block_rows, threshold, max_words):
    vectors = [BowVector(f"d{i}", c) for i, c in enumerate(count_dicts)]
    cfg = DedupConfig(threshold=threshold, max_doc_words=max_words)
    assert_same_screen(vectors, cfg, block_rows)


# --- edges of the rare-term index --------------------------------------------


def rare_entry_rows(vectors: list[BowVector]) -> list[int]:
    """The row of each rare entry, in the screen's row order."""
    rows = TermRows.from_vectors(vectors)
    return dedup._score_matrices(rows)[1].tolist()


def rare_contributions(vectors: list[BowVector]) -> list[int]:
    """Per row, the rare-term products the screen adds: for each of the
    row's rare terms, one per earlier row that holds the term."""
    bow = TermRows.from_vectors(vectors)
    _, rows, ids, _ = dedup._score_matrices(bow)
    seen: Counter = Counter()
    per_row = [0] * len(vectors)
    for row, term in zip(rows.tolist(), ids.tolist()):
        per_row[row] += seen[term]
        seen[term] += 1
    return per_row


def test_take_gives_the_rows_of_the_taken_vectors_alone_up_to_term_ids():
    # max_doc_words sets rows aside, some of which see terms first; the
    # taken rows keep their term ids, which relabelled by first sight are
    # the ids of the taken vectors' own rows
    vectors = vectors_of(radiology_corpus(300, 0.19, seed=3).documents)
    rows = TermRows.from_vectors(vectors)
    keep = rows.n_words <= 40
    assert 0 < keep.sum() < len(vectors)
    got = rows.take(keep)
    want = TermRows.from_vectors([v for v, k in zip(vectors, keep.tolist()) if k])
    assert got.doc_ids == want.doc_ids
    labels: dict[int, int] = {}
    relabelled = [labels.setdefault(t, len(labels)) for t in got.ids.tolist()]
    assert relabelled == want.ids.tolist() != got.ids.tolist()
    for name in ("counts", "lengths", "norms", "n_words"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


def test_screen_matches_reference_without_rare_entries():
    # each term is in all 80 documents, so every term goes to the dense block
    rng = random.Random(5)
    vectors = [BowVector(f"d{i}", {t: rng.randint(1, 3) for t in "abcd"}) for i in range(80)]
    assert rare_entry_rows(vectors) == []
    for threshold in (0.75, 0.99, 1.0):
        assert assert_same_screen(vectors, DedupConfig(threshold=threshold))


@pytest.mark.parametrize("threshold", [0.5, 0.9])
def test_screen_matches_reference_on_a_block_without_rare_entries(threshold):
    # "b" is in all 80 documents and goes to the dense block. The last block
    # of 8 holds it alone, after blocks whose rows all have rare terms.
    rng = random.Random(6)
    rare = [f"r{i}" for i in range(10)]
    vectors = [
        BowVector(f"d{i}", {"b": rng.randint(1, 4), **dict.fromkeys(rng.sample(rare, 3), 1)})
        for i in range(72)
    ]
    vectors += [BowVector(f"e{i}", {"b": i + 1}) for i in range(8)]
    assert set(rare_entry_rows(vectors)) == set(range(72))
    got = assert_same_screen(vectors, DedupConfig(threshold=threshold), block_rows=8)
    assert got[79][-7:] == list(range(72, 79))


@pytest.mark.parametrize("counts", [{"a": 1}, {"a": 2, "b": 1, "c": 1}])
@pytest.mark.parametrize("threshold", [1e-7, 1.0])
def test_screen_matches_reference_on_one_document(counts, threshold):
    assert assert_same_screen([BowVector("d0", counts)], DedupConfig(threshold=threshold)) == {}


@pytest.mark.parametrize(
    "make_vectors",
    [
        lambda: vectors_of(radiology_corpus(600, 0.19, seed=4).documents),
        # ten rare terms shared by every document
        lambda: [
            BowVector(f"d{i}", {f"r{k}": 1 + (i * k) % 3 for k in range(10)}) for i in range(40)
        ],
    ],
    ids=["radiology", "shared-rare-terms"],
)
def test_screen_matches_reference_when_runs_split_blocks_and_rows(make_vectors):
    # a run adds at most one score row of contributions, as many as the
    # block has columns; these corpora overflow that in a block and in a row
    vectors = make_vectors()
    block = 16
    per_row = rare_contributions(vectors)
    n = len(vectors)
    ends = [min(start + block, n) for start in range(0, n, block)]
    assert any(sum(per_row[stop - block : stop]) > stop for stop in ends[:-1])
    assert any(per_row[row] > ends[row // block] for row in range(n))
    for threshold in (0.75, 0.3):
        assert assert_same_screen(vectors, DedupConfig(threshold=threshold), block)
