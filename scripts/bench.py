#!/usr/bin/env python3
"""Time dedup, vocab training and anonymization at scale into one JSON record.

- dedup, first, on ``radiology_corpus(n, 0.19, seed=11)`` at 20k and 50k
  reports, each run in a fresh process: generation, ``dedup_documents``,
  the removed count and rate, the pairs verified (``pairs_examined``), the
  margin below the threshold at which the screen kept a pair
  (``screen_margin``), and peak RSS; then the same work in its two
  steps, tokenization (``TermRows.from_documents``) and the screen with
  its verification (``dedup_indexed`` on those rows). ``dedup_s`` includes
  the first import of numpy, which the two steps do not pay again. Last,
  ``screen_traced_peak_mib``: the ``tracemalloc`` peak of one more, untimed
  ``dedup_indexed`` run on the same rows, the live memory of the screen and
  its verification, which peak RSS mixes with the allocator's layout;
- vocab at sizes 1k and 3k on 2k radiology reports: the tokens reached,
  word counting, merging (the build minus counting) and ``build_vocab``;
  then, from an empty memo each, on 2k held-out reports: segmenting their
  distinct words, ``measure_fertility`` and ``tokenize_text``;
- gazetteer on 1k PII notes with the planted name parts, alone and padded
  by filler to 2k, 20k and 100k entries: the recognizer build and its
  ``tracemalloc`` peak, the name scan, ``anonymize_corpus`` and its ratio
  to the first size's, the rescan of its output, the date scan, ``redact``
  with the spans both scans found, and the date and name scans of 1k
  radiology reports, which hold no name and no date;
- pipeline, each run in a fresh process, on ``radiology_corpus(20000, 0.19,
  seed=11)`` plus 1k PII notes and their planted names as the gazetteer:
  ``run_pipeline`` wall time, the time summed over its ``write_documents``
  calls, ``compute_corpus_stats``, the ``document_line`` call count, the
  residual documents and peak RSS. The inputs are written once, untimed;
- startup, per command group of the CLI: the median seconds that a fresh
  interpreter takes to import ``medcorpus.cli`` and the layers that the
  group's handlers import, and the medcorpus modules that import loaded.
  ``uncached_s`` runs with ``PYTHONDONTWRITEBYTECODE=1`` on a copy of the
  package without ``__pycache__``, so medcorpus compiles from source while
  the standard library reads its installed caches; ``cached_s`` reads every
  module from a ``PYTHONPYCACHEPREFIX`` tree that one untimed run filled.
  The groups and settings alternate within each round of samples.

Each time is the median of 3 ``time.perf_counter`` runs, or of 11 fresh
interpreters for startup. A fixed pure-Python piece that touches no
medcorpus code is timed 5 times before the first probe and 5 times after
each probe. Each probe records the
median of the samples just before and after it as its ``piece_s``, how
fast the host ran while it ran, so that two records can be compared probe
by probe; ``machine.piece_s`` is the median of all samples. The script exits
1 when a removal rate is more than 0.02 from the planted rate, a vocabulary
falls short of its size, an anonymized output, alone or in the pipeline,
fails its rescan, or a command group's import loads another layer.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from importlib.metadata import version
from multiprocessing import get_context
from pathlib import Path
from typing import NamedTuple

import medcorpus
from medcorpus import corpus, dedup
from medcorpus.anonymize import Gazetteer, GazetteerRecognizer, anonymize_corpus
from medcorpus.anonymize import detect_dates, detect_names, redact
from medcorpus.corpus import write_documents, write_json, write_text
from medcorpus.dedup import DedupConfig, TermRows, dedup_documents, dedup_indexed
from medcorpus.pipeline import run_pipeline
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
    pipeline_docs: tuple[int, ...]
    startup_samples: int


FULL = Scale(
    3, (20_000, 50_000), 2_000, (1_000, 3_000), 1_000, (2_000, 20_000, 100_000), (20_000,), 11
)
QUICK = Scale(1, (500,), 50, (300,), 50, (500,), (500,), 1)
PIPELINE_CONFIG = {"inputs": [{"path": "corpus.jsonl"}], "anonymize": {"gazetteer": "names.txt"}}


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


_PIECE_TEXT = " ".join(f"w{i * 7919 % 1009}" for i in range(20_000))


def speed_piece() -> int:
    """Dictionary counting and a per-character loop, in pure Python."""
    counts: dict[str, int] = {}
    for word in _PIECE_TEXT.split():
        counts[word] = counts.get(word, 0) + 1
    total = 0
    for ch in _PIECE_TEXT:
        total += ord(ch)
    return len(counts) + total


def piece_times(n: int = 5) -> list[float]:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        speed_piece()
        times.append(time.perf_counter() - t0)
    return times


def dedup_run(n: int) -> dict:
    margins = []

    def recording(terms, margin=dedup._score_margin):
        margins.append(margin(terms))
        return margins[-1]

    dedup._score_margin = recording
    generate_s, planted = timed(1, lambda: radiology_corpus(n, PLANTED_RATE, seed=11))
    docs = planted.documents
    dedup_s, (_, reports) = timed(1, lambda: dedup_documents(docs, DedupConfig()))
    # the peak of dedup_documents, read before its two steps run again
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    # the corpus has one source, so these are the steps of dedup_documents
    tokenize_s, rows = timed(1, lambda: TermRows.from_documents(docs))
    screen_verify_s, _ = timed(1, lambda: dedup_indexed(rows, DedupConfig()))
    tracemalloc.start()
    dedup_indexed(rows, DedupConfig())
    screen_traced_peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    (report,) = reports.values()
    return {
        "generate_s": generate_s,
        "dedup_s": dedup_s,
        "tokenize_s": tokenize_s,
        "screen_verify_s": screen_verify_s,
        "removed": report.n_removed,
        "rate": report.n_removed / report.n_input,
        "pairs_examined": report.pairs_examined,
        "screen_margin": margins[0],
        "peak_rss_mib": peak_rss_mib,
        "screen_traced_peak_mib": screen_traced_peak_mib,
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
    clean = [d.text for d in radiology_corpus(scale.pii_docs, 0.0, seed=3).documents]
    # the filler entries match no word of either corpus
    words = {w.strip(".,;:") for text in texts + clean for w in text.split()}
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
        spans = [detect_dates(text) + detect_names(text, names) for text in texts]

        def clean_scan() -> None:
            for text in clean:
                detect_dates(text)
                detect_names(text, names)

        rows[size] = {
            "build_s": build_s,
            "build_peak_mib": build_peak_mib(gazetteer),
            "scan_s": scan_s,
            "rescan_s": timed(reps, lambda: each(detect_names, [d.text for d in out], names))[0],
            "dates_s": timed(reps, lambda: each(detect_dates, texts))[0],
            "redact_s": timed(reps, lambda: list(map(redact, texts, spans)))[0],
            "clean_scan_s": timed(reps, clean_scan)[0],
            "anonymize_s": anon_s,
            "vs_first": anon_s / first,
            "residual_docs": len(report.residuals),
        }
    return {"docs": len(texts), "clean_docs": len(clean), "planted_names": len(pii.names)}, rows


def pipeline_run(inputs: str) -> dict:
    # the wrappers pass every argument on; the memo that run_pipeline hands
    # write_documents calls corpus.document_line, so the count sees its misses
    seconds, n_lines = Counter(), 0

    def timing(name):
        fn = getattr(corpus, name)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0

        setattr(corpus, name, wrapper)

    def counting(doc, line=corpus.document_line):
        nonlocal n_lines
        n_lines += 1
        return line(doc)

    timing("write_documents")
    timing("compute_corpus_stats")
    corpus.document_line = counting
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        _, report = run_pipeline(PIPELINE_CONFIG, out, inputs)
        wall_s = time.perf_counter() - t0
    return {
        "wall_s": wall_s,
        "write_documents_s": seconds["write_documents"],
        "stats_s": seconds["compute_corpus_stats"],
        "document_lines": n_lines,
        "residual_docs": len(report.residuals),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
    }


def pipeline_probe(scale: Scale) -> tuple[dict, dict]:
    pii = pii_corpus(scale.pii_docs, seed=11)
    rows = {}
    with tempfile.TemporaryDirectory() as inputs:
        write_text(Path(inputs) / "names.txt", ["\n".join(pii.names) + "\n"])
        for n in scale.pipeline_docs:
            planted = radiology_corpus(n, PLANTED_RATE, seed=11)
            write_documents(Path(inputs) / "corpus.jsonl", planted.documents + pii.documents)
            # a fresh process each, as a CLI run is, for the same reason as dedup_probe's
            with get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
                runs = pool.map(pipeline_run, [inputs] * scale.reps, chunksize=1)
            rows[n] = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    return {"pii_docs": len(pii.documents), "planted_names": len(pii.names)}, rows


# each command group of the CLI -> the layers that its handlers load
STARTUP_LAYERS = {
    "stats": ("corpus",),  # ingest, clean, stats
    "dedup": ("corpus", "dedup"),
    "anonymize": ("anonymize", "corpus"),
    "vocab": ("corpus", "subword"),  # vocab build, tokenize, fertility
    "bench": ("benchmark", "corpus"),
    "eval": ("benchmark", "corpus", "metrics"),
    "hpo": ("corpus", "hpo"),
    "pipeline": ("anonymize", "corpus", "dedup", "pipeline"),  # pipeline, pretrain-config
}
STARTUP_TIMER = (
    "import json, sys, time\n"
    "t = time.perf_counter()\n"
    "import medcorpus.cli\n"
    "for layer in sys.argv[1:]:\n"
    "    __import__('medcorpus.' + layer)\n"
    "seconds = time.perf_counter() - t\n"
    "print(json.dumps([seconds, sorted(m for m in sys.modules if m.startswith('medcorpus.'))]))\n"
)
BYTECODE_CACHE = {
    "uncached_s": "none for medcorpus: PYTHONDONTWRITEBYTECODE=1 on a copy without __pycache__",
    "cached_s": "every module, from a PYTHONPYCACHEPREFIX tree filled by one untimed run",
}


def startup_probe(scale: Scale) -> tuple[dict, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(medcorpus.__file__).parent
        shutil.copytree(package, Path(tmp, "src", package.name),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(Path(tmp, "src"))
        envs = {
            "uncached_s": {**env, "PYTHONDONTWRITEBYTECODE": "1"},
            "cached_s": {**env, "PYTHONPYCACHEPREFIX": str(Path(tmp, "pycache"))},
        }

        def run(setting: str, layers) -> list:
            out = subprocess.run(
                [sys.executable, "-c", STARTUP_TIMER, *layers], env=envs[setting], cwd=tmp,
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            return json.loads(out)

        run("cached_s", sorted({m for layers in STARTUP_LAYERS.values() for m in layers}))
        samples = {(group, setting): [] for group in STARTUP_LAYERS for setting in envs}
        loaded = {}
        for _ in range(scale.startup_samples):
            for group, layers in STARTUP_LAYERS.items():
                for setting in envs:
                    seconds, loaded[group] = run(setting, layers)
                    samples[group, setting].append(seconds)
    rows = {
        group: {
            **{setting: statistics.median(samples[group, setting]) for setting in envs},
            "loaded": " ".join(m.removeprefix("medcorpus.") for m in loaded[group]),
        }
        for group in STARTUP_LAYERS
    }
    return {"samples": scale.startup_samples, "bytecode_cache": BYTECODE_CACHE}, rows


# each probe, and the check that each of its rows must pass
PROBES = {
    "dedup": (dedup_probe, lambda size, row: abs(row["rate"] - PLANTED_RATE) <= RATE_TOLERANCE),
    "vocab": (vocab_probe, lambda size, row: row["tokens"] == size),
    "gazetteer": (gazetteer_probe, lambda size, row: row["residual_docs"] == 0),
    "pipeline": (pipeline_probe, lambda size, row: row["residual_docs"] == 0),
    "startup": (
        startup_probe,
        lambda group, row: row["loaded"].split() == sorted({"cli", *STARTUP_LAYERS[group]}),
    ),
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
    pieces = [piece_times()]
    for name, (probe, check) in PROBES.items():
        inputs, raw = probe(scale)
        pieces.append(piece_times())
        inputs["piece_s"] = figure(statistics.median(pieces[-2] + pieces[-1]))
        rows = {size: {k: figure(v) for k, v in row.items()} for size, row in raw.items()}
        print(name, *(f"{k}={v}" for k, v in inputs.items()), flush=True)
        for size, row in rows.items():
            print(f"{size:>9}", *(f"{k}={v}" for k, v in row.items()), flush=True)
            if not check(size, row):
                failures.append(f"{name} at {size} fails its check: {row}")
        record[name] = {**inputs, "sizes": rows}
    machine["piece_s"] = figure(statistics.median(t for times in pieces for t in times))
    write_json(args.out, record)
    if failures:
        raise SystemExit("\n".join(failures))


if __name__ == "__main__":
    main()
