#!/usr/bin/env python3
"""Measure near-duplicate removal accuracy and throughput at scale.

Generates a radiology-style corpus with a known planted duplicate rate,
runs ``dedup_documents`` on it, as the CLI and the pipeline do (tokenize,
screen, verify), and prints the recovered rate next to the wall-clock
split between generation and dedup, and the peak resident memory of the
process.
"""

import argparse
import resource
import time

from medcorpus.dedup import DedupConfig, dedup_documents
from medcorpus.synth import radiology_corpus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-docs", type=int, default=50_000)
    ap.add_argument("--dup-rate", type=float, default=0.19)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--threshold", type=float, default=DedupConfig.threshold)
    args = ap.parse_args()

    t0 = time.monotonic()
    planted = radiology_corpus(args.n_docs, args.dup_rate, seed=args.seed)
    t1 = time.monotonic()
    _, reports = dedup_documents(planted.documents, DedupConfig(threshold=args.threshold))
    t2 = time.monotonic()
    (report,) = reports.values()  # the corpus has one source

    rate = report.n_removed / report.n_input if report.n_input else 0.0
    print(f"documents     {report.n_input}")
    print(f"planted rate  {args.dup_rate:.4f}")
    print(f"removed       {report.n_removed} (rate {rate:.4f})")
    print(f"generate      {t1 - t0:6.1f}s")
    print(f"dedup         {t2 - t1:6.1f}s")
    # ru_maxrss is in KiB on Linux
    print(f"peak rss      {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:6.0f} MiB")


if __name__ == "__main__":
    main()
