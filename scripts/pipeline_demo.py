#!/usr/bin/env python3
"""Run the full corpus pipeline twice on a generated demo corpus.

Builds a synthetic corpus with planted person names, dates, and verbatim
duplicates, runs ingest through stats twice, checks the reruns are
byte-identical, and prints the per-stage document counts.
"""

import argparse
import dataclasses
import filecmp
from pathlib import Path

from medcorpus.corpus import write_documents, write_text
from medcorpus.pipeline import run_pipeline
from medcorpus.synth import pii_corpus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("pipeline-demo"))
    ap.add_argument("--n-docs", type=int, default=300)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    planted = pii_corpus(args.n_docs, seed=args.seed)
    docs = list(planted.documents)
    # verbatim copies so the dedup stage has something to remove
    for doc in docs[: args.n_docs // 10]:
        docs.append(dataclasses.replace(doc, id=doc.id + "-copy"))
    write_documents(args.out / "corpus.jsonl", docs)
    write_text(args.out / "names.txt", ["\n".join(planted.names) + "\n"])

    config = {
        "inputs": [{"path": "corpus.jsonl"}],
        "dedup": {"threshold": 0.75},
        "anonymize": {"gazetteer": "names.txt"},
    }
    manifest = None
    for run in ("run1", "run2"):
        manifest, _ = run_pipeline(config, args.out / run, args.out)
    for name in sorted(p.name for p in (args.out / "run1").iterdir()):
        if not filecmp.cmp(args.out / "run1" / name, args.out / "run2" / name, shallow=False):
            raise SystemExit(f"rerun differs: {name}")

    for stage in manifest.stages:
        print(f"{stage.name:<10} in {stage.n_in:>5}  out {stage.n_out:>5}")
    print("reruns byte-identical")


if __name__ == "__main__":
    main()
