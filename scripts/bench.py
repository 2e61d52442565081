#!/usr/bin/env python3
"""Time dedup, vocab training and anonymization at scale into one JSON record.

- dedup, first, on ``radiology_corpus(n, 0.19, seed=11)`` at 20k and 50k
  reports, each run in a fresh process: generation, ``dedup_documents``,
  the removed count and rate, and peak RSS;
- vocab at sizes 1k and 3k on 2k radiology reports: the tokens reached,
  word counting, merging (the build minus counting) and ``build_vocab``;
  then, from an empty memo each, on 2k held-out reports: segmenting their
  distinct words, ``measure_fertility`` and ``tokenize_text``;
- gazetteer on 1k PII notes with the planted name parts, alone and padded
  by filler to 2k, 20k and 100k entries: the recognizer build and its
  ``tracemalloc`` peak, the name scan, ``anonymize_corpus`` and its ratio
  to the first size's, the rescan of its output and the date scan.

Each time is the median of 3 ``time.perf_counter`` runs. The script exits
1 when a removal rate is more than 0.02 from the planted rate, a vocabulary
falls short of its size or an anonymized output fails its rescan.
"""

import argparse
import os
import platform
import random
import resource
import statistics
import time
import tracemalloc
from collections import Counter
from importlib.metadata import version
from multiprocessing import get_context
from typing import NamedTuple

from medcorpus.anonymize import Gazetteer, GazetteerRecognizer, anonymize_corpus
from medcorpus.anonymize import detect_dates, detect_names
from medcorpus.corpus import write_json
from medcorpus.dedup import DedupConfig, dedup_documents
from medcorpus.subword import VocabConfig, Vocabulary, build_vocab, extract_words
from medcorpus.subword import filter_rare_chars, measure_fertility, tokenize_text
from medcorpus.synth import pii_corpus, radiology_corpus

PLANTED_RATE = 0.19
RATE_TOLERANCE = 0.02  # the acceptance test's bound on the recovered rate
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Scale(NamedTuple):
    reps: int
    dedup_docs: tuple[int, ...]
    vocab_docs: int
    vocab_sizes: tuple[int, ...]
    pii_docs: int
    gazetteer_sizes: tuple[int, ...]


FULL = Scale(3, (20_000, 50_000), 2_000, (1_000, 3_000), 1_000, (2_000, 20_000, 100_000))
QUICK = Scale(1, (500,), 50, (300,), 50, (500,))


def timed(reps: int, run, fresh=None):
    """The median seconds of ``reps`` calls of ``run`` and the last call's
    result. With ``fresh``, each call gets a new ``fresh()``, made untimed."""
    times, out = [], None
    for _ in range(reps):
        arg = fresh() if fresh else None
        out = None  # free the last result before the next call
        t0 = time.perf_counter()
        out = run(arg) if fresh else run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def each(fn, texts, *args) -> None:
    for text in texts:
        fn(text, *args)


def dedup_run(n: int) -> dict:
    generate_s, planted = timed(1, lambda: radiology_corpus(n, PLANTED_RATE, seed=11))
    dedup_s, (_, reports) = timed(1, lambda: dedup_documents(planted.documents, DedupConfig()))
    (report,) = reports.values()  # the corpus has one source
    return {
        "generate_s": generate_s,
        "dedup_s": dedup_s,
        "removed": report.n_removed,
        "rate": report.n_removed / report.n_input,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
    }


def dedup_probe(scale: Scale) -> tuple[dict, dict]:
    # Each run in a fresh process, as a CLI run is, so that its peak is its own. In one
    # process, memory the allocator kept from the 20k runs raised the 50k peak by 6-12 %.
    with get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        runs = {n: pool.map(dedup_run, [n] * scale.reps, chunksize=1) for n in scale.dedup_docs}
    rows = {n: {k: statistics.median(r[k] for r in rs) for k in rs[0]} for n, rs in runs.items()}
    return {"planted_rate": PLANTED_RATE}, rows


def vocab_probe(scale: Scale) -> tuple[dict, dict]:
    train, held_out = (radiology_corpus(scale.vocab_docs, 0.1, seed=s).documents for s in (1, 2))
    texts, _ = filter_rare_chars([d.text for d in train])
    pairs = [(d.id, d.text) for d in held_out]
    words = sorted({w for _, text in pairs for w in extract_words(text)})

    def count() -> Counter:
        freqs = Counter()
        for text in texts:
            freqs.update(extract_words(text))
        return freqs

    reps = scale.reps
    count_s, freqs = timed(reps, count)
    rows = {}
    for size in scale.vocab_sizes:
        build_s, vocab = timed(reps, lambda: build_vocab(texts, VocabConfig(vocab_size=size)))

        def cold(run) -> float:
            return timed(reps, run, lambda: Vocabulary(vocab.tokens, vocab.config))[0]

        rows[size] = {
            "tokens": len(vocab),
            "count_s": count_s,
            "merge_s": build_s - count_s,
            "build_s": build_s,
            "segment_s": cold(lambda v: each(v.segments.__getitem__, words)),
            "fertility_s": cold(lambda v: measure_fertility(pairs, v)),
            "tokenize_s": cold(lambda v: each(tokenize_text, (t for _, t in pairs), v)),
        }
    return {"docs": len(texts), "words": freqs.total(), "distinct_words": len(freqs)}, rows


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
    GazetteerRecognizer(gazetteer)
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return peak


def gazetteer_probe(scale: Scale) -> tuple[dict, dict]:
    pii = pii_corpus(scale.pii_docs, seed=11)
    texts = [d.text for d in pii.documents]
    words = {w.strip(".,;:") for text in texts for w in text.split()}
    sizes = [len(pii.names)] + [n for n in scale.gazetteer_sizes if n > len(pii.names)]
    # compile the date patterns before the first timed call
    anonymize_corpus(pii.documents[:10], Gazetteer(frozenset(pii.names)))
    reps, rows, first = scale.reps, {}, None
    for size in sizes:
        gazetteer = Gazetteer(frozenset(filler_entries(pii.names, size, 11, words)))
        build_s, names = timed(reps, lambda: GazetteerRecognizer(gazetteer))
        scan_s, _ = timed(reps, lambda: each(detect_names, texts, names))
        anon_s, (out, report) = timed(reps, lambda: anonymize_corpus(pii.documents, gazetteer))
        first = first or anon_s
        rows[size] = {
            "build_s": build_s,
            "build_peak_mib": build_peak_mib(gazetteer),
            "scan_s": scan_s,
            "rescan_s": timed(reps, lambda: each(detect_names, [d.text for d in out], names))[0],
            "dates_s": timed(reps, lambda: each(detect_dates, texts))[0],
            "anonymize_s": anon_s,
            "vs_first": anon_s / first,
            "residual_docs": len(report.residuals),
        }
    return {"docs": len(texts), "planted_names": len(pii.names)}, rows


# each probe, and the check that each of its rows must pass
PROBES = {
    "dedup": (dedup_probe, lambda size, row: abs(row["rate"] - PLANTED_RATE) <= RATE_TOLERANCE),
    "vocab": (vocab_probe, lambda size, row: row["tokens"] == size),
    "gazetteer": (gazetteer_probe, lambda size, row: row["residual_docs"] == 0),
}


def figure(value):
    """``value`` as the table prints it: a float to 4 significant digits."""
    return float(f"{value:.4g}") if isinstance(value, float) else value


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the JSON record to write")
    ap.add_argument("--quick", action="store_true", help="each probe once at tiny sizes")
    args = ap.parse_args()

    scale = QUICK if args.quick else FULL
    machine = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS},
    }
    record, failures = {"machine": machine, "reps": scale.reps}, []
    for name, (probe, check) in PROBES.items():
        inputs, raw = probe(scale)
        rows = {size: {k: figure(v) for k, v in row.items()} for size, row in raw.items()}
        print(name, *(f"{k}={v}" for k, v in inputs.items()), flush=True)
        for size, row in rows.items():
            print(f"{size:>9}", *(f"{k}={v}" for k, v in row.items()), flush=True)
            if not check(size, row):
                failures.append(f"{name} at {size} fails its check: {row}")
        record[name] = {**inputs, "sizes": rows}
    write_json(args.out, record)
    if failures:
        raise SystemExit("\n".join(failures))


if __name__ == "__main__":
    main()
