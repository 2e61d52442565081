"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data or input error, 3 internal
error. Every subcommand is a thin wrapper over library functions. A flag
that is left out passes nothing, so every default is the library's.

Every command reads or writes through ``corpus``; each handler imports the
other layers it calls, so a command loads only those (the package's
``__init__`` loads none).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus as corpus_mod

# the names that dedup.MODES, dedup.COMPARISONS and benchmark's two
# policies accept, spelt out so that building the parser loads no layer
DEDUP_MODES = ("representative", "literal")
DEDUP_COMPARISONS = ("strict", "inclusive")
BENCH_POLICIES = ("date-matched", "patient-all")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _given(**settings) -> dict:
    """The settings whose flag was given on the command line."""
    return {key: value for key, value in settings.items() if value is not None}


def _load_docs(path: str, source: str | None = None) -> list[corpus_mod.Document]:
    result = corpus_mod.load_documents(path, source)
    if result.errors:
        first = result.errors[0]
        raise ValueError(
            f"{path}: {len(result.errors)} malformed lines "
            f"(first at line {first.line_no}: {first.message})"
        )
    return result.documents


def cmd_ingest(args) -> int:
    result = corpus_mod.load_documents(args.input, args.source)
    report = {
        "n_documents": len(result.documents),
        "n_errors": len(result.errors),
        "errors": [{"line": e.line_no, "message": e.message} for e in result.errors],
    }
    corpus_mod.write_artifacts((args.out, result.documents), (args.report, report))
    print(f"ingested {len(result.documents)} documents, {len(result.errors)} bad lines")
    return 0


def cmd_stats(args) -> int:
    docs = _load_docs(args.input, args.source)
    stats = corpus_mod.compute_corpus_stats(docs)
    mb = corpus_mod.MB_BINARY if args.binary_mb else corpus_mod.MB_DECIMAL
    corpus_mod.write_artifacts(
        (args.out or "-", corpus_mod.stats_to_tsv(stats, mb)),
        (args.json, corpus_mod.stats_to_obj(stats, mb)),
    )
    return 0


def cmd_clean(args) -> int:
    docs = _load_docs(args.input, args.source)
    kept, rejects = corpus_mod.clean_corpus(docs)
    corpus_mod.write_artifacts(
        (args.out, kept), (args.reject_log, corpus_mod.reject_log_obj(rejects))
    )
    print(f"kept {len(kept)} of {len(docs)} documents")
    return 0


def cmd_dedup(args) -> int:
    from . import dedup as dedup_mod
    docs = _load_docs(args.input, args.source)
    cfg = dedup_mod.DedupConfig.from_names(
        **_given(
            threshold=args.threshold,
            mode=args.mode,
            comparison=args.comparison,
            max_doc_words=args.max_words,
        )
    )
    kept, reports = dedup_mod.dedup_documents(docs, cfg)
    corpus_mod.write_artifacts(
        (args.out, kept), (args.report, {src: r.to_obj() for src, r in reports.items()})
    )
    n_clusters = sum(len(r.clusters) for r in reports.values())
    print(
        f"kept {len(kept)} of {len(docs)} documents "
        f"({len(docs) - len(kept)} removed, {n_clusters} clusters)"
    )
    return 0


def cmd_anonymize(args) -> int:
    from . import anonymize as anon
    anon.check_wildcards(
        _given(**{"--name-wildcard": args.name_wildcard, "--date-wildcard": args.date_wildcard})
    )
    docs = _load_docs(args.input, args.source)
    gazetteer = None
    if args.gazetteer:
        gazetteer = anon.Gazetteer.from_file(args.gazetteer, args.case_insensitive)
    out_docs, report = anon.anonymize_corpus(
        docs,
        gazetteer,
        **_given(name_wildcard=args.name_wildcard, date_wildcard=args.date_wildcard),
    )
    corpus_mod.write_artifacts((args.out, out_docs), (args.report, report.to_obj()))
    status = "clean" if report.passed else f"{len(report.residuals)} documents with residuals"
    print(
        f"redacted {report.total_name_spans} name spans and "
        f"{report.total_date_spans} date spans; verification: {status}"
    )
    return 0 if report.passed else 2


def cmd_vocab_build(args) -> int:
    from . import subword as subword_mod
    docs = _load_docs(args.input, args.source)
    texts = [d.text for d in docs]
    filtered, removed = subword_mod.filter_rare_chars(
        texts, **_given(min_char_freq=args.min_char_freq)
    )
    config = subword_mod.VocabConfig(
        **_given(min_word_freq=args.min_word_freq, vocab_size=args.vocab_size)
    )
    vocab = subword_mod.build_vocab(filtered, config)
    vocab.save(args.out)
    print(
        f"vocabulary of {len(vocab)} tokens written to {args.out} "
        f"({len(removed)} rare characters dropped)"
    )
    return 0


def cmd_tokenize(args) -> int:
    from . import subword as subword_mod
    docs = _load_docs(args.input, args.source)
    vocab = subword_mod.Vocabulary.load(args.vocab)

    def rows():
        for doc in docs:
            _, ids = subword_mod.tokenize_text(doc.text, vocab)
            flat = [i for id_list in ids for i in id_list]
            yield {"id": doc.id, "pieces": [vocab.tokens[i] for i in flat], "ids": flat}

    corpus_mod.write_jsonl(args.out, rows())
    print(f"tokenized {len(docs)} documents")
    return 0


def cmd_fertility(args) -> int:
    from . import subword as subword_mod
    docs = _load_docs(args.input, args.source)
    vocab = subword_mod.Vocabulary.load(args.vocab)
    report = subword_mod.measure_fertility(
        ((d.id, d.text) for d in docs), vocab, per_document=args.per_document
    )
    corpus_mod.write_artifacts((args.out, report.to_obj()))
    print(f"fertility {report.fertility:.4f} ({report.n_subwords}/{report.n_words})")
    return 0


def cmd_bench_build(args) -> int:
    from . import benchmark as bench
    docs = _load_docs(args.docs)
    codes = bench.load_code_records(args.codes)
    examples, n_dropped = bench.assign_codes(
        docs,
        codes,
        chapter_filter=args.chapter,
        icd_as_category=not args.full_icd_codes,
        **_given(policy=args.policy),
    )
    spec = bench.SplitSpec(
        *args.sizes or (), **_given(seed=args.seed, min_test_support=args.min_test_support)
    )
    bundle = bench.build_task(examples, spec, group_by_patient=not args.no_patient_grouping)
    bench.export_task(bundle, args.out_dir)
    print(
        f"task with {len(bundle.labels)} labels written to {args.out_dir} "
        f"({n_dropped} unlabeled documents dropped, "
        f"{bundle.n_dropped_empty} lost to label selection, "
        f"{bundle.n_iterations} split iterations)"
    )
    return 0


def cmd_bench_split(args) -> int:
    from . import benchmark as bench
    examples = bench.load_examples_jsonl(args.input)
    group = not args.no_patient_grouping
    if group and examples and all(ex.patient_ref is None for ex in examples):
        raise ValueError(
            f"{args.input}: no row has a 'patient_ref' to group by; "
            "pass --no-patient-grouping to split per example"
        )
    spec = bench.SplitSpec(*args.sizes or (), **_given(seed=args.seed))
    split = bench.stratified_split(examples, spec, group_by_patient=group)
    bench.write_split(split, args.out_dir)
    print(
        f"split {len(split.train)}/{len(split.valid)}/{len(split.test)} "
        f"written to {args.out_dir} ({len(split.rest)} left over)"
    )
    return 0


def _read_labels(path: str | None) -> list[str] | None:
    """The labels of a ``--labels`` file, None without one; a file without
    entries or a label given twice is a ``ValueError`` that names the file."""
    from . import metrics as metrics_mod
    if not path:
        return None
    labels = corpus_mod.read_lines(path)
    if not labels:
        raise ValueError(f"{path}: labels file has no entries")
    try:
        metrics_mod.check_labels(labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return labels


def cmd_eval_clf(args) -> int:
    from . import benchmark as bench
    from . import metrics as metrics_mod
    gold = bench.load_examples_jsonl(args.gold)
    preds = metrics_mod.load_classification_predictions(
        ((ex.doc_id, ex.labels) for ex in gold),
        corpus_mod.read_jsonl(args.pred, metrics_mod.prediction_scores),
        labels=_read_labels(args.labels),
    )
    report = metrics_mod.multilabel_report(preds, **_given(threshold=args.threshold))
    metrics_mod.write_report(report, args.report, args.tsv)
    m = report.macro
    undefined = len(report.excluded.get("auroc", ())) == len(report.classes)
    auroc_part = "n/a" if undefined else f"{m.auroc:.2f}"
    print(
        f"macro AUROC {auroc_part}  F1 {m.f1:.2f}  "
        f"P {m.precision:.2f}  R {m.recall:.2f} over {len(report.classes)} classes"
    )
    return 0


def cmd_eval_ner(args) -> int:
    from . import benchmark as bench
    from . import metrics as metrics_mod
    gold = bench.load_conll(args.gold)
    rows = corpus_mod.read_jsonl(args.pred, metrics_mod.ner_prediction)
    token_scores = [scores for _, scores in rows if scores is not None]
    if token_scores and len(token_scores) != len(rows):
        raise ValueError(f"{args.pred}: 'scores' given on some prediction rows but not on others")
    report = metrics_mod.ner_token_report(
        [ex.tags for ex in gold],
        [tags for tags, _ in rows],
        labels=_read_labels(args.labels),
        token_scores=token_scores or None,
    )
    metrics_mod.write_report(report, args.report, args.tsv)
    assert report.micro is not None
    print(
        f"token F1 macro {report.macro.f1:.2f}, global {report.micro.f1:.2f} "
        f"over {len(report.classes)} classes"
    )
    return 0


def cmd_hpo_run(args) -> int:
    from . import hpo as hpo_mod
    space = hpo_mod.SearchSpace.load(args.space)
    study = hpo_mod.run_study(
        space,
        hpo_mod.command_objective(args.cmd),
        study_path=args.study,
        **_given(
            n_trials=args.trials,
            n_startup_trials=args.startup_trials,
            seed=args.seed,
            n_jobs=args.jobs,
        ),
    )
    states = [t.state for t in study.trials]
    summary = {s: states.count(s) for s in sorted(set(states))}
    try:
        best = study.best_trial()
        print(
            f"best trial {best.trial_id}: value {best.final_value} "
            f"with {best.params.to_obj()} ({summary})"
        )
    except ValueError:
        print(f"no completed trials ({summary})")
        return 2
    return 0


def cmd_pretrain_config(args) -> int:
    from . import pipeline as pipeline_mod
    config = pipeline_mod.emit_pretrain_config(args.phase)
    corpus_mod.write_json(args.out or "-", config.to_obj())
    if config.warning:
        print(f"warning: {config.warning}", file=sys.stderr)
    return 0


def cmd_pipeline(args) -> int:
    from . import pipeline as pipeline_mod
    config_path = Path(args.config)
    config = corpus_mod.read_json(config_path)
    manifest, anon_report = pipeline_mod.run_pipeline(config, args.out_dir, config_path.parent)
    for stage in manifest.stages:
        print(f"{stage.name}: {stage.n_in} in, {stage.n_out} out")
    n_residual = len(anon_report.residuals)
    if n_residual:
        print(f"anonymize: {n_residual} documents with residuals", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="medcorpus", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("ingest", help="load and normalize a JSONL corpus")
    p.add_argument("input")
    p.add_argument("--source", help="source kind for lines without one")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write a load report JSON")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("stats", help="corpus statistics table")
    p.add_argument("input")
    p.add_argument("--source")
    p.add_argument("--out", help="TSV output path (default stdout)")
    p.add_argument("--json", help="also write JSON stats")
    p.add_argument("--binary-mb", action="store_true", help="use 2^20 bytes per MB")
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("clean", help="apply per-source cleaning policies")
    p.add_argument("input")
    p.add_argument("--source")
    p.add_argument("--out", required=True)
    p.add_argument("--reject-log")
    p.set_defaults(handler=cmd_clean)

    p = sub.add_parser("dedup", help="remove near-duplicate documents within each source")
    p.add_argument("input")
    p.add_argument("--source")
    p.add_argument("--threshold", type=float)
    p.add_argument("--mode", choices=DEDUP_MODES)
    p.add_argument(
        "--comparison", choices=DEDUP_COMPARISONS,
        help="strict: remove only above the threshold; inclusive: at or above",
    )
    p.add_argument(
        "--max-words", type=int,
        help="only documents of at most this many words participate; absent, all do",
    )
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(handler=cmd_dedup)

    p = sub.add_parser("anonymize", help="redact names and dates")
    p.add_argument("input")
    p.add_argument("--source")
    p.add_argument("--gazetteer", help="name list, one entry per line")
    p.add_argument("--case-insensitive", action="store_true")
    p.add_argument("--name-wildcard")
    p.add_argument("--date-wildcard")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(handler=cmd_anonymize)

    p = sub.add_parser("vocab", help="subword vocabulary operations")
    vocab_sub = p.add_subparsers(dest="vocab_command")
    pb = vocab_sub.add_parser("build", help="train a vocabulary")
    pb.add_argument("input")
    pb.add_argument("--source")
    pb.add_argument("--out", required=True)
    pb.add_argument("--vocab-size", type=int)
    pb.add_argument("--min-word-freq", type=int)
    pb.add_argument("--min-char-freq", type=int)
    pb.set_defaults(handler=cmd_vocab_build)

    p = sub.add_parser("tokenize", help="tokenize documents with a vocabulary")
    p.add_argument("input")
    p.add_argument("--source")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_tokenize)

    p = sub.add_parser("fertility", help="average subwords per word")
    p.add_argument("input")
    p.add_argument("--source")
    p.add_argument("--vocab", required=True)
    p.add_argument("--per-document", action="store_true")
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(handler=cmd_fertility)

    p = sub.add_parser("bench", help="benchmark dataset construction")
    bench_sub = p.add_subparsers(dest="bench_command")
    pb = bench_sub.add_parser("build", help="assign codes, select labels, split, export")
    pb.add_argument("docs")
    pb.add_argument("codes")
    pb.add_argument("--policy", choices=BENCH_POLICIES)
    pb.add_argument("--chapter", help="keep only codes with this prefix, e.g. 5-")
    pb.add_argument("--full-icd-codes", action="store_true",
                    help="keep full ICD codes instead of 3-character categories")
    pb.add_argument("--min-test-support", type=int)
    pb.set_defaults(handler=cmd_bench_build)
    ps = bench_sub.add_parser("split", help="stratified split of labeled examples")
    ps.add_argument("input")
    ps.set_defaults(handler=cmd_bench_split)
    for p in (pb, ps):
        p.add_argument("--sizes", type=int, nargs=3, metavar=("TRAIN", "VALID", "TEST"))
        p.add_argument("--seed", type=int)
        p.add_argument("--no-patient-grouping", action="store_true")
        p.add_argument("--out-dir", required=True)

    p = sub.add_parser("eval", help="evaluate predictions")
    eval_sub = p.add_subparsers(dest="eval_command")
    pc = eval_sub.add_parser("clf", help="multi-label classification metrics")
    pc.add_argument("--gold", required=True, help="gold examples JSONL")
    pc.add_argument("--pred", required=True, help="predictions JSONL with id and scores")
    pc.add_argument("--labels", help="label list file; default: observed labels")
    pc.add_argument("--threshold", type=float)
    pc.add_argument("--report", help="JSON report path")
    pc.add_argument("--tsv", help="TSV report path")
    pc.set_defaults(handler=cmd_eval_clf)
    pn = eval_sub.add_parser("ner", help="token-level NER metrics")
    pn.add_argument("--gold", required=True, help="gold CoNLL file")
    pn.add_argument("--pred", required=True, help="predictions JSONL with tags per document")
    pn.add_argument("--labels")
    pn.add_argument("--report")
    pn.add_argument("--tsv")
    pn.set_defaults(handler=cmd_eval_ner)

    p = sub.add_parser("hpo", help="hyperparameter optimization")
    hpo_sub = p.add_subparsers(dest="hpo_command")
    ph = hpo_sub.add_parser("run", help="run a study over an external objective command")
    ph.add_argument("--space", required=True, help="search space JSON")
    ph.add_argument("--cmd", required=True, help="objective command")
    ph.add_argument("--trials", type=int)
    ph.add_argument("--seed", type=int)
    ph.add_argument("--startup-trials", type=int)
    ph.add_argument("--study", help="study JSON path, saved after every trial")
    ph.add_argument("--jobs", type=int, help="trials run in parallel")
    ph.set_defaults(handler=cmd_hpo_run)

    p = sub.add_parser("pretrain-config", help="emit the fixed pretraining schedule")
    p.add_argument("--phase", type=int, choices=[1, 2], required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(handler=cmd_pretrain_config)

    p = sub.add_parser("pipeline", help="run ingest, clean, dedup, anonymize, stats")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.handler(args) or 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
