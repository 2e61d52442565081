#!/usr/bin/env python3
"""Measure how anonymization time grows with the gazetteer size.

Generates PII notes with planted names, then anonymizes them with the
planted name parts alone and with the parts padded by seeded filler
entries that never occur in the text. For each size it prints the
recognizer build, the name scan over the input, the name rescan over the
redacted output, the date scan over the input, and the whole
``anonymize_corpus`` call, in seconds, and the peak memory that
``tracemalloc`` sees during a second, untimed recognizer build, in MiB.
"""

import argparse
import random
import time
import tracemalloc

from medcorpus.anonymize import (
    Gazetteer,
    GazetteerRecognizer,
    anonymize_corpus,
    detect_dates,
    detect_names,
)
from medcorpus.synth import pii_corpus


def filler_entries(planted: list[str], n_entries: int, seed: int, avoid: set[str]) -> list[str]:
    rng = random.Random(seed)
    entries = set(planted)
    letters = "abcdefghijklmnopqrstuvwxyzäöü"
    while len(entries) < n_entries:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(5, 10))).capitalize()
        if word not in avoid:
            entries.add(word)
    return sorted(entries)


def build_peak_mib(gazetteer: Gazetteer) -> float:
    tracemalloc.start()
    try:
        GazetteerRecognizer(gazetteer)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-docs", type=int, default=1000)
    ap.add_argument("--sizes", type=int, nargs="+", default=[2_000, 20_000, 100_000])
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    pii = pii_corpus(args.n_docs, seed=args.seed)
    words = {w.strip(".,;:") for d in pii.documents for w in d.text.split()}
    sizes = [len(pii.names)] + [n for n in args.sizes if n > len(pii.names)]

    print(f"documents {len(pii.documents)}, planted name parts {len(pii.names)}")
    print(
        f"{'entries':>8} {'build':>8} {'peak MiB':>8} {'scan':>8} {'rescan':>8} {'dates':>8} "
        f"{'anonymize':>10} {'vs first':>9}"
    )
    # compile the date patterns before the first timed call
    anonymize_corpus(pii.documents[:10], Gazetteer(frozenset(pii.names)))
    first = None
    for size in sizes:
        gazetteer = Gazetteer(frozenset(filler_entries(pii.names, size, args.seed, words)))
        t0 = time.perf_counter()
        recognizer = GazetteerRecognizer(gazetteer)
        t1 = time.perf_counter()
        for doc in pii.documents:
            detect_names(doc.text, recognizer)
        t2 = time.perf_counter()
        out, report = anonymize_corpus(pii.documents, gazetteer)
        t3 = time.perf_counter()
        for doc in out:
            detect_names(doc.text, recognizer)
        t4 = time.perf_counter()
        for doc in pii.documents:
            detect_dates(doc.text)
        t5 = time.perf_counter()
        if not report.passed:
            raise SystemExit(f"{size} entries: {len(report.residuals)} documents with residuals")
        peak = build_peak_mib(gazetteer)
        total = t3 - t2
        first = first or total
        print(
            f"{size:>8} {t1 - t0:>8.3f} {peak:>8.2f} {t2 - t1:>8.3f} {t4 - t3:>8.3f} "
            f"{t5 - t4:>8.3f} {total:>10.3f} {total / first:>8.2f}x"
        )


if __name__ == "__main__":
    main()
