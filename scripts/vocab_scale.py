#!/usr/bin/env python3
"""Measure how vocabulary training and segmentation time grow with the
vocabulary size.

Generates radiology reports, drops rare characters as ``vocab build`` does,
then trains one vocabulary per size with the default word-frequency floor.
For each size it prints the tokens reached, the word-counting pass over the
texts, the merge training (the whole build minus that pass) and the whole
``build_vocab`` call, in seconds. It then times, in seconds, three passes
over as many held-out reports, generated from the next seed, each on a fresh
copy of the vocabulary so that each starts with an empty memo: segmenting
the distinct held-out words alone, without extracting them from the texts,
``measure_fertility`` and ``tokenize_text``.
"""

import argparse
import time
from collections import Counter

from medcorpus.subword import (
    VocabConfig,
    Vocabulary,
    build_vocab,
    extract_words,
    filter_rare_chars,
    measure_fertility,
    tokenize_text,
)
from medcorpus.synth import radiology_corpus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-docs", type=int, default=2000)
    ap.add_argument("--sizes", type=int, nargs="+", default=[1_000, 3_000])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    texts, _ = filter_rare_chars(
        [d.text for d in radiology_corpus(args.n_docs, dup_rate=0.1, seed=args.seed).documents]
    )
    held_out = [
        (d.id, d.text)
        for d in radiology_corpus(args.n_docs, dup_rate=0.1, seed=args.seed + 1).documents
    ]
    held_out_words = sorted({w for _, text in held_out for w in extract_words(text)})
    t0 = time.perf_counter()
    word_freqs = Counter()
    for text in texts:
        word_freqs.update(extract_words(text))
    count_s = time.perf_counter() - t0

    print(f"documents {len(texts)}, words {word_freqs.total()} ({len(word_freqs)} distinct)")
    print(
        f"{'size':>7} {'tokens':>7} {'count':>8} {'merge':>8} {'build':>8} "
        f"{'segment':>8} {'fertility':>9} {'tokenize':>8}"
    )
    for size in args.sizes:
        t0 = time.perf_counter()
        vocab = build_vocab(texts, VocabConfig(vocab_size=size))
        build_s = time.perf_counter() - t0
        segments = Vocabulary(vocab.tokens, vocab.config).segments
        t0 = time.perf_counter()
        for word in held_out_words:
            segments[word]
        segment_s = time.perf_counter() - t0
        fresh = Vocabulary(vocab.tokens, vocab.config)
        t0 = time.perf_counter()
        measure_fertility(held_out, fresh)
        fertility_s = time.perf_counter() - t0
        fresh = Vocabulary(vocab.tokens, vocab.config)
        t0 = time.perf_counter()
        for _, text in held_out:
            tokenize_text(text, fresh)
        tokenize_s = time.perf_counter() - t0
        print(
            f"{size:>7} {len(vocab):>7} {count_s:>8.3f} {build_s - count_s:>8.3f} "
            f"{build_s:>8.3f} {segment_s:>8.3f} {fertility_s:>9.3f} {tokenize_s:>8.3f}"
        )


if __name__ == "__main__":
    main()
