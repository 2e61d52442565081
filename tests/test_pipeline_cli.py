import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from medcorpus import anonymize as anonymize_mod
from medcorpus import benchmark, cli, hpo
from medcorpus import corpus as corpus_mod
from medcorpus import dedup as dedup_mod
from medcorpus.benchmark import (
    LabeledExample,
    TokenLabeledExample,
    write_conll,
    write_examples_jsonl,
)
from medcorpus.pipeline import (
    _CONFIG_TYPES,
    PHASE2_LR_WARNING,
    emit_pretrain_config,
    run_pipeline,
)
from medcorpus.subword import VocabConfig, build_vocab
from medcorpus.synth import benchmark_corpus, pii_corpus, radiology_corpus
from medcorpus.corpus import CleanPolicy, Document, write_documents
from medcorpus.dedup import DedupConfig, dedup_exact, vectorize


CLEAN_POLICY_KEYS = list(_CONFIG_TYPES["clean policy"])
DEDUP_KEYS = list(_CONFIG_TYPES["dedup"])


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


# --- pretraining config -----------------------------------------------------


def test_pretrain_phase1_constants():
    cfg = emit_pretrain_config(1)
    assert cfg.seq_len == 128
    assert cfg.learning_rate == 6e-3
    assert cfg.batch_size == 65536
    assert cfg.warmup_steps == 2000
    assert cfg.total_steps == 7038
    assert cfg.optimizer == "LAMB"
    assert cfg.lr_schedule == "polynomial-decay"
    assert cfg.warning is None
    assert "warning" not in cfg.to_obj()


def test_pretrain_phase2_constants():
    cfg = emit_pretrain_config(2)
    assert cfg.seq_len == 512
    assert cfg.learning_rate is None
    assert cfg.batch_size == 32768
    assert cfg.warmup_steps == 200
    assert cfg.total_steps == 1563
    assert cfg.optimizer == "LAMB"
    assert cfg.warning == PHASE2_LR_WARNING
    assert cfg.to_obj()["learning_rate"] is None


def test_pretrain_unknown_phase():
    with pytest.raises(ValueError):
        emit_pretrain_config(3)


# --- pipeline ---------------------------------------------------------------


def pipeline_fixture(tmp_path):
    """Corpus with a planted near-duplicate, planted PII, and a reject."""
    corpus = tmp_path / "corpus.jsonl"
    filler = " ".join(f"befund{i} unauffällig kontrolle" for i in range(12))
    rows = [
        {"id": "a1", "source": "discharge", "text": f"Patient Anna Schmidt kam am 3.4.2021. {filler}"},
        {"id": "a2", "source": "discharge", "text": f"Patient Anna Schmidt kam am 3.4.2021. {filler}"},
        {"id": "b1", "source": "discharge", "text": "Voellig anderer Brief ohne Termin und ohne Namen darin."},
        {"id": "r1", "source": "radiology-report", "text": "zu kurz"},
        {"id": "r2", "source": "radiology-report", "text": "Thorax in zwei Ebenen. " * 10},
    ]
    write_jsonl(corpus, rows)
    gaz = tmp_path / "names.txt"
    gaz.write_text("Anna Schmidt\n", encoding="utf-8")
    config = {
        "inputs": [{"path": "corpus.jsonl"}],
        "dedup": {"threshold": 0.75},
        "anonymize": {"gazetteer": "names.txt"},
        "stats": {},
    }
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config, config_path


ARTIFACTS = [
    "ingested.jsonl",
    "load_report.json",
    "cleaned.jsonl",
    "reject_log.json",
    "deduped.jsonl",
    "dedup_report.json",
    "anonymized.jsonl",
    "anonymization_report.json",
    "stats.tsv",
    "stats.json",
    "manifest.json",
]


def test_pipeline_end_to_end(tmp_path):
    config, _ = pipeline_fixture(tmp_path)
    out = tmp_path / "out"
    manifest, _ = run_pipeline(config, out, tmp_path)
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    stages = {s.name: s for s in manifest.stages}
    assert list(stages) == ["ingest", "clean", "dedup", "anonymize", "stats"]
    assert stages["ingest"].n_out == 5
    assert stages["clean"].n_out == 4  # r1 under the radiology minimum
    assert stages["dedup"].n_out == 3  # a1/a2 collapse
    assert stages["anonymize"].n_out == 3
    # stage boundaries telescope
    assert stages["clean"].n_in == stages["ingest"].n_out
    assert stages["dedup"].n_in == stages["clean"].n_out
    assert stages["anonymize"].n_in == stages["dedup"].n_out

    anonymized = (out / "anonymized.jsonl").read_text()
    assert "Anna Schmidt" not in anonymized
    assert "3.4.2021" not in anonymized
    assert "<NAME>" in anonymized and "<DATE>" in anonymized

    report = json.loads((out / "anonymization_report.json").read_text())
    assert report["passed"] is True


def test_pipeline_reruns_byte_identical(tmp_path):
    config, _ = pipeline_fixture(tmp_path)
    run_pipeline(config, tmp_path / "one", tmp_path)
    run_pipeline(config, tmp_path / "two", tmp_path)
    for name in ARTIFACTS:
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes(), name


def test_pipeline_empty_corpus(tmp_path):
    (tmp_path / "empty.jsonl").write_text("")
    config = {"inputs": [{"path": "empty.jsonl", "source": "other"}]}
    manifest, _ = run_pipeline(config, tmp_path / "out", tmp_path)
    for stage in manifest.stages:
        assert stage.n_in == 0 and stage.n_out == 0


def test_pipeline_serializes_each_document_object_once(tmp_path, monkeypatch):
    config, _ = pipeline_fixture(tmp_path)
    serialized, written = [], []
    document_line, write_documents = corpus_mod.document_line, corpus_mod.write_documents

    def counting_line(doc):
        serialized.append(doc)
        return document_line(doc)

    def recording_write(path, docs, *args, **kwargs):
        docs = list(docs)
        written.extend(docs)  # keeps every object alive, so its id stays its own
        return write_documents(path, docs, *args, **kwargs)

    monkeypatch.setattr(corpus_mod, "document_line", counting_line)
    monkeypatch.setattr(corpus_mod, "write_documents", recording_write)
    run_pipeline(config, tmp_path / "out", tmp_path)
    assert len(written) == 5 + 4 + 3 + 3
    assert len(serialized) == len({id(doc) for doc in serialized})
    assert {id(doc) for doc in serialized} == {id(doc) for doc in written}
    # a1 is the one document a stage changed: ingest's five plus its redacted copy
    assert len(serialized) == 6


def test_pipeline_stage_that_raises_leaves_no_artifact(tmp_path, monkeypatch):
    config, _ = pipeline_fixture(tmp_path)

    def failing(*args, **kwargs):
        raise RuntimeError("dedup failed")

    monkeypatch.setattr(dedup_mod, "dedup_documents", failing)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="dedup failed"):
        run_pipeline(config, out, tmp_path)
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("flag", ["--name-wildcard", "--date-wildcard"])
def test_cli_anonymize_wildcard_that_utf8_cannot_encode_names_its_flag(tmp_path, capsys, flag):
    corpus = tmp_path / "c.jsonl"
    write_jsonl(corpus, [{"id": "d", "source": "s", "text": "Anna kam am 3.4.2021."}])
    gaz = tmp_path / "names.txt"
    gaz.write_text("Anna\n", encoding="utf-8")
    out = tmp_path / "anon.jsonl"
    argv = ["anonymize", str(corpus), "--gazetteer", str(gaz), "--out", str(out), flag, "\udcff"]
    assert cli.main(argv) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_requires_inputs(tmp_path):
    with pytest.raises(ValueError):
        run_pipeline({}, tmp_path / "out", tmp_path)


def run_cli_pipeline(tmp_path, config, out_name="out"):
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / out_name
    return cli.main(["pipeline", "--config", str(config_path), "--out-dir", str(out)]), out


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


FILLER = " ".join(f"befund{i} unauffällig kontrolle" for i in range(12))


def test_pipeline_removed_document_stays_removed_across_sources(tmp_path, capsys):
    # x duplicates y within discharge; a later input reuses the id x for ehr
    write_jsonl(
        tmp_path / "discharge.jsonl",
        [{"id": "y", "text": f"Erster Brief. {FILLER}"}, {"id": "x", "text": f"Erster Brief. {FILLER}"}],
    )
    write_jsonl(tmp_path / "ehr.jsonl", [{"id": "x", "text": "Ganz anderer Eintrag ohne Befund."}])
    config = {
        "inputs": [
            {"path": "discharge.jsonl", "source": "discharge"},
            {"path": "ehr.jsonl", "source": "ehr"},
        ],
    }
    code, out = run_cli_pipeline(tmp_path, config)
    assert code == 0
    deduped = read_jsonl(out / "deduped.jsonl")
    assert ("discharge", "x") not in {(d["source"], d["id"]) for d in deduped}
    removed = json.loads((out / "dedup_report.json").read_text())["discharge"]["clusters"]
    assert removed == [{"representative": "y", "members": ["x"]}]
    stages = {s["name"]: s for s in json.loads((out / "manifest.json").read_text())["stages"]}
    assert stages["dedup"]["n_out"] == len(deduped)


def test_pipeline_id_repeated_across_files_is_a_load_error(tmp_path, capsys):
    write_jsonl(tmp_path / "one.jsonl", [{"id": "x", "text": f"Erster Brief. {FILLER}"}])
    write_jsonl(
        tmp_path / "two.jsonl",
        [{"id": "z", "text": "Noch ein Brief."}, {"id": "x", "text": f"Zweiter Brief. {FILLER}"}],
    )
    config = {
        "inputs": [
            {"path": "one.jsonl", "source": "discharge"},
            {"path": "two.jsonl", "source": "discharge"},
        ],
    }
    code, out = run_cli_pipeline(tmp_path, config)
    assert code == 0
    errors = json.loads((out / "load_report.json").read_text())["errors"]
    assert [(e["path"], e["line"]) for e in errors] == [("two.jsonl", 2)]
    assert "duplicate document id 'x'" in errors[0]["message"]
    assert [d["id"] for d in read_jsonl(out / "ingested.jsonl")] == ["x", "z"]
    assert (out / "manifest.json").exists()


def test_pipeline_readme_config_runs(tmp_path, capsys):
    config, _ = pipeline_fixture(tmp_path)
    config["clean"] = {}
    config["dedup"] = {"threshold": 0.75, "mode": "representative", "comparison": "strict"}
    code, out = run_cli_pipeline(tmp_path, config)
    assert code == 0
    report = json.loads((out / "dedup_report.json").read_text())
    assert report["discharge"]["n_removed"] == 1


@pytest.mark.parametrize(
    "change",
    [
        {"dedup": {"threshold": 1.5}},
        {"dedup": {"mode": "representative-keep"}},
        {"anonymize": {"gazetteer": "missing.txt"}},
        {"clean": {"policies": {"discharge": {"min_chars": -1}}}},
        # unknown keys: top level, input entry, section, clean policy
        {"anonymise": {}},
        {"inputs": [{"path": "corpus.jsonl", "sorce": "ehr"}]},
        {"anonymize": {"gazeteer": "names.txt"}},
        {"dedup": {"treshold": 1.5}},
        {"clean": {"policies": {"discharge": {"min_char": 5}}}},
        # values of the wrong type
        {"clean": {"policies": {"discharge": {"min_chars": [1]}}}},
        {"dedup": {"threshold": [1]}},
        {"inputs": "corpus.jsonl"},
        {"inputs": [{"source": "ehr"}]},
        {"anonymize": {"name_wildcard": 1}},
        # a string is not a flag, a list of strings or a count
        {"anonymize": {"gazetteer": "names.txt", "case_insensitive": "no"}},
        {"clean": {"policies": {"discharge": {"stopword_sentence_filter": "false"}}}},
        {"stats": {"binary_mb": "false"}},
        {
            "clean": {
                "policies": {"discharge": {"stopword_sentence_filter": True, "stopword_list": "und"}}
            }
        },
        {
            "clean": {
                "policies": {"discharge": {"stopword_sentence_filter": True, "stopword_list": [1]}}
            }
        },
        {"clean": {"policies": {"discharge": {"min_chars": "5"}}}},
        {"inputs": [{"path": "corpus.jsonl", "source": 5}]},
        # a boolean is not a number or a count, and a fraction is not a count
        {"dedup": {"threshold": True}},
        {"clean": {"policies": {"discharge": {"min_chars": 1.5}}}},
        {"clean": {"policies": {"discharge": {"min_chars": True}}}},
        {"dedup": {"max_doc_words": 2.5}},
        {"dedup": {"max_doc_words": True}},
        # removed keys: empty wildcards delete
        {"anonymize": {"delete": True}},
    ],
)
def test_pipeline_bad_config_writes_no_artifact(tmp_path, capsys, change):
    config, _ = pipeline_fixture(tmp_path)
    config.update(change)
    code, out = run_cli_pipeline(tmp_path, config)
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_pipeline_gazetteer_without_entries_writes_no_artifact(tmp_path, capsys):
    # an empty name list would turn name redaction off without a word
    config, _ = pipeline_fixture(tmp_path)
    (tmp_path / "names.txt").write_text("\n  \n\n", encoding="utf-8")
    code, out = run_cli_pipeline(tmp_path, config)
    assert code == 2
    assert "names.txt" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "with_nulls, without",
    [
        (
            {
                "inputs": [{"path": "corpus.jsonl", "source": None}],
                "clean": {"policies": {"discharge": dict.fromkeys(CLEAN_POLICY_KEYS)}},
                "dedup": dict.fromkeys(DEDUP_KEYS),
                "anonymize": {
                    "gazetteer": "names.txt",
                    **dict.fromkeys(["case_insensitive", "name_wildcard", "date_wildcard"]),
                },
                "stats": {"binary_mb": None},
            },
            {
                "inputs": [{"path": "corpus.jsonl"}],
                "clean": {"policies": {"discharge": {}}},
                "anonymize": {"gazetteer": "names.txt"},
            },
        ),
        (
            {
                "inputs": [{"path": "corpus.jsonl"}],
                **dict.fromkeys(["clean", "dedup", "anonymize", "stats"]),
            },
            {"inputs": [{"path": "corpus.jsonl"}]},
        ),
    ],
    ids=["null-keys", "null-sections"],
)
def test_pipeline_null_value_counts_as_absent_key(tmp_path, with_nulls, without):
    pipeline_fixture(tmp_path)
    run_pipeline(with_nulls, tmp_path / "nulls", tmp_path)
    run_pipeline(without, tmp_path / "absent", tmp_path)
    for name in ARTIFACTS:
        if name != "manifest.json":
            assert (tmp_path / "nulls" / name).read_bytes() == (
                tmp_path / "absent" / name
            ).read_bytes(), name


def test_pipeline_config_keys_match_what_they_configure():
    assert set(CLEAN_POLICY_KEYS) == {f.name for f in dataclasses.fields(CleanPolicy)}
    assert set(DEDUP_KEYS) == set(inspect.signature(DedupConfig.from_names).parameters)


@pytest.mark.parametrize("path", ["missing.jsonl", "."])
def test_pipeline_unreadable_input_creates_no_output_directory(tmp_path, capsys, path):
    config, _ = pipeline_fixture(tmp_path)
    config["inputs"].append({"path": path, "source": "discharge"})
    code, out = run_cli_pipeline(tmp_path, config)
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_unknown_key_is_named(tmp_path):
    config, _ = pipeline_fixture(tmp_path)
    config["anonymize"] = {"gazeteer": "names.txt"}
    with pytest.raises(ValueError, match="unknown key 'gazeteer' in anonymize"):
        run_pipeline(config, tmp_path / "out", tmp_path)


def test_cli_dedup_matches_pipeline(tmp_path, capsys):
    long_text = " ".join(f"wort{i}" for i in range(200))
    corpus = tmp_path / "c.jsonl"
    write_jsonl(
        corpus,
        [
            {"id": "d1", "source": "discharge", "text": long_text},
            {"id": "d2", "source": "discharge", "text": long_text},
            {"id": "s1", "source": "discharge", "text": "kurzer gemeinsamer text"},
            {"id": "e1", "source": "ehr", "text": "kurzer gemeinsamer text"},
            {"id": "e2", "source": "ehr", "text": long_text},
        ],
    )
    out = tmp_path / "dd.jsonl"
    report = tmp_path / "dd.json"
    assert cli.main(["dedup", str(corpus), "--out", str(out), "--report", str(report)]) == 0
    code, out_dir = run_cli_pipeline(tmp_path, {"inputs": [{"path": "c.jsonl"}]})
    assert code == 0
    cli_ids = [d["id"] for d in read_jsonl(out)]
    assert cli_ids == [d["id"] for d in read_jsonl(out_dir / "deduped.jsonl")]
    assert cli_ids == ["d1", "s1", "e1", "e2"]
    assert report.read_bytes() == (out_dir / "dedup_report.json").read_bytes()


@pytest.mark.parametrize(
    "settings",
    [
        {"dedup": {"threshold": 0.75}, "anonymize": {}, "stats": {}},
        {
            "dedup": {
                "threshold": 0.9, "mode": "literal", "comparison": "inclusive",
                "max_doc_words": 30,
            },
            "anonymize": {"case_insensitive": True, "name_wildcard": "<N>", "date_wildcard": "<D>"},
            "stats": {"binary_mb": True},
        },
    ],
    ids=["demo", "every-shared-setting"],
)
def test_cli_chain_matches_pipeline(tmp_path, capsys, settings):
    # the inputs of scripts/pipeline_demo.py --n-docs 300
    planted = pii_corpus(300, seed=7)
    docs = list(planted.documents)
    docs += [dataclasses.replace(d, id=d.id + "-copy") for d in docs[:30]]
    write_documents(tmp_path / "corpus.jsonl", docs)
    (tmp_path / "names.txt").write_text("\n".join(planted.names) + "\n", encoding="utf-8")
    config = {
        "inputs": [{"path": "corpus.jsonl"}],
        "dedup": settings["dedup"],
        "anonymize": {"gazetteer": "names.txt", **settings["anonymize"]},
        "stats": settings["stats"],
    }
    code, pipe = run_cli_pipeline(tmp_path, config)
    assert code == 0

    flags = {
        "threshold": "--threshold", "mode": "--mode", "comparison": "--comparison",
        "max_doc_words": "--max-words", "name_wildcard": "--name-wildcard",
        "date_wildcard": "--date-wildcard",
    }

    def options(section):
        out = []
        for key, value in settings[section].items():
            out += [f"--{key.replace('_', '-')}"] if value is True else [flags[key], str(value)]
        return out

    c = tmp_path / "cli"
    c.mkdir()
    steps = [
        ["ingest", str(tmp_path / "corpus.jsonl"), "--out", str(c / "ingested.jsonl"),
         "--report", str(c / "load_report.json")],
        ["clean", str(c / "ingested.jsonl"), "--out", str(c / "cleaned.jsonl"),
         "--reject-log", str(c / "reject_log.json")],
        ["dedup", str(c / "cleaned.jsonl"), *options("dedup"), "--out", str(c / "deduped.jsonl"),
         "--report", str(c / "dedup_report.json")],
        ["anonymize", str(c / "deduped.jsonl"), "--gazetteer", str(tmp_path / "names.txt"),
         *options("anonymize"), "--out", str(c / "anonymized.jsonl"),
         "--report", str(c / "anonymization_report.json")],
        ["stats", str(c / "anonymized.jsonl"), *options("stats"), "--out", str(c / "stats.tsv"),
         "--json", str(c / "stats.json")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()

    # every stage did something, so the comparison is not vacuous
    stages = {s["name"]: s for s in json.loads((pipe / "manifest.json").read_text())["stages"]}
    assert stages["dedup"]["n_out"] < stages["dedup"]["n_in"]
    assert stages["anonymize"]["details"]["name_spans"] > 0
    # the two load reports differ in shape by design
    compared = sorted(p.name for p in c.iterdir() if p.name != "load_report.json")
    assert compared == sorted(
        p.name for p in pipe.iterdir() if p.name not in ("load_report.json", "manifest.json")
    )
    for name in compared:
        assert (c / name).read_bytes() == (pipe / name).read_bytes(), name


def test_max_words_zero_is_rejected_by_cli_and_pipeline(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_jsonl(corpus, [{"id": "d1", "source": "ehr", "text": "kurzer text"}])
    assert cli.main(["dedup", str(corpus), "--max-words", "0"]) == 2
    cli_err = capsys.readouterr().err
    code, _ = run_cli_pipeline(
        tmp_path, {"inputs": [{"path": "c.jsonl"}], "dedup": {"max_doc_words": 0}}
    )
    assert code == 2
    assert cli_err == capsys.readouterr().err
    assert "max_doc_words must be positive" in cli_err


def test_pipeline_manifest_hash_tracks_config(tmp_path):
    config, _ = pipeline_fixture(tmp_path)
    first, _ = run_pipeline(config, tmp_path / "one", tmp_path)
    config["dedup"]["threshold"] = 0.9
    second, _ = run_pipeline(config, tmp_path / "two", tmp_path)
    by_name = lambda m: {s.name: s.config_hash for s in m.stages}
    assert by_name(first)["dedup"] != by_name(second)["dedup"]
    assert by_name(first)["clean"] == by_name(second)["clean"]


def _run_src_python(code, *args, cwd=None):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_loads_no_scipy():
    # scipy.sparse alone adds about a quarter second and 20 MiB to every
    # CLI start, and no command needs scipy
    proc = _run_src_python(
        "import sys, medcorpus.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy():
    # importing numpy is about half of a CLI start, and only the dedup
    # screen needs it
    proc = _run_src_python("import sys, medcorpus.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_corpus_and_no_other_layer():
    # hpo alone brings in subprocess, concurrent.futures and statistics, and
    # of the commands only hpo run needs them
    proc = _run_src_python(
        "import json, sys, medcorpus.cli; print(json.dumps(["
        "sorted(m for m in sys.modules if m.split('.')[0] == 'medcorpus'), "
        "[m for m in ('subprocess', 'concurrent.futures', 'statistics') if m in sys.modules]]))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["medcorpus", "medcorpus.cli", "medcorpus.corpus"], []]


def write_command_inputs(directory):
    """A tiny valid input for every CLI command, written to ``directory``."""
    reports = radiology_corpus(40, 0.0, seed=0).documents
    write_documents(directory / "reports.jsonl", reports)
    build_vocab([d.text for d in reports], VocabConfig(vocab_size=120)).save(directory / "vocab.txt")
    write_bench_inputs(directory)
    write_examples_jsonl(
        directory / "gold.jsonl",
        [LabeledExample("d1", "t", {"A"}), LabeledExample("d2", "t", {"B"})],
    )
    write_jsonl(
        directory / "clf.jsonl",
        [
            {"id": "d1", "scores": {"A": 0.9, "B": 0.2}},
            {"id": "d2", "scores": {"A": 0.3, "B": 0.8}},
        ],
    )
    write_conll(
        directory / "gold.conll",
        [
            TokenLabeledExample("a", ["Herr", "Meier", "kam"], ["B-PER", "I-PER", "O"]),
            TokenLabeledExample("b", ["Keine", "Namen"], ["O", "O"]),
        ],
    )
    write_jsonl(
        directory / "ner.jsonl",
        [
            {"tags": ["B-PER", "O", "O"], "scores": [{"PER": 0.9}, {"PER": 0.8}, {"PER": 0.1}]},
            {"tags": ["O", "O"], "scores": [{"PER": 0.2}, {"PER": 0.4}]},
        ],
    )
    (directory / "names.txt").write_text("Meier\n", encoding="utf-8")
    (directory / "space.json").write_text("{}", encoding="utf-8")
    config = {"inputs": [{"path": "reports.jsonl"}], "anonymize": {"gazetteer": "names.txt"}}
    (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")


def test_cli_commands_without_dedup_run_with_numpy_blocked(tmp_path):
    write_command_inputs(tmp_path)
    commands = [
        ["stats", "reports.jsonl", "--json", "stats.json"],
        ["vocab", "build", "reports.jsonl", "--vocab-size", "120", "--out", "vocab.txt"],
        ["fertility", "reports.jsonl", "--vocab", "vocab.txt", "--out", "fertility.json"],
        [
            "bench", "build", "docs.jsonl", "codes.csv", "--chapter", "5-",
            "--sizes", "60", "30", "30", "--min-test-support", "2", "--out-dir", "task",
        ],
        ["eval", "clf", "--gold", "gold.jsonl", "--pred", "clf.jsonl", "--report", "clf.json"],
        ["eval", "ner", "--gold", "gold.conll", "--pred", "ner.jsonl", "--report", "ner.json"],
    ]
    blocked = (
        "import json, sys; sys.modules['numpy'] = None; from medcorpus.cli import main; "
        "print([main(argv) for argv in json.loads(sys.argv[1])])"
    )
    proc = _run_src_python(blocked, json.dumps(commands), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([0] * len(commands)), proc.stderr
    assert json.loads((tmp_path / "clf.json").read_text())["macro"]["auroc"] == 100.0
    assert json.loads((tmp_path / "ner.json").read_text())["per_class"]["PER"]["auroc"] == 100.0


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("command_inputs")
    write_command_inputs(directory)
    return directory


_PIPELINE_LAYERS = ("anonymize", "dedup", "pipeline")


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["ingest", "reports.jsonl", "--out", "ingested.jsonl"], ()),
        (["stats", "reports.jsonl", "--out", "stats.tsv"], ()),
        (["clean", "reports.jsonl", "--out", "cleaned.jsonl"], ()),
        (["dedup", "reports.jsonl", "--out", "deduped.jsonl"], ("dedup",)),
        (
            ["anonymize", "reports.jsonl", "--gazetteer", "names.txt", "--out", "anon.jsonl"],
            ("anonymize",),
        ),
        (
            ["vocab", "build", "reports.jsonl", "--vocab-size", "120", "--out", "built.txt"],
            ("subword",),
        ),
        (["tokenize", "reports.jsonl", "--vocab", "vocab.txt", "--out", "tok.jsonl"], ("subword",)),
        (["fertility", "reports.jsonl", "--vocab", "vocab.txt"], ("subword",)),
        (
            [
                "bench", "build", "docs.jsonl", "codes.csv", "--chapter", "5-",
                "--sizes", "60", "30", "30", "--min-test-support", "2", "--out-dir", "task",
            ],
            ("benchmark",),
        ),
        (
            ["bench", "split", "gold.jsonl", "--sizes", "1", "1", "0",
             "--no-patient-grouping", "--out-dir", "parts"],
            ("benchmark",),
        ),
        (["eval", "clf", "--gold", "gold.jsonl", "--pred", "clf.jsonl"], ("benchmark", "metrics")),
        (["eval", "ner", "--gold", "gold.conll", "--pred", "ner.jsonl"], ("benchmark", "metrics")),
        (
            ["hpo", "run", "--space", "space.json", "--cmd", "sh -c 'echo final=1.0'",
             "--trials", "1"],
            ("hpo",),
        ),
        (["pretrain-config", "--phase", "1", "--out", "pretrain.json"], _PIPELINE_LAYERS),
        (["pipeline", "--config", "config.json", "--out-dir", "pipe"], _PIPELINE_LAYERS),
    ],
    ids=[
        "ingest", "stats", "clean", "dedup", "anonymize", "vocab build", "tokenize",
        "fertility", "bench build", "bench split", "eval clf", "eval ner", "hpo run",
        "pretrain-config", "pipeline",
    ],
)
def test_cli_command_loads_corpus_and_its_own_layers(command_inputs, argv, layers):
    probe = (
        "import json, sys; from medcorpus.cli import main; code = main(json.loads(sys.argv[1])); "
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'medcorpus')]))"
    )
    proc = _run_src_python(probe, json.dumps(argv), cwd=command_inputs)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert loaded == sorted(
        ["medcorpus", "medcorpus.cli", "medcorpus.corpus", *(f"medcorpus.{m}" for m in layers)]
    )


def test_cli_dedup_runs_with_scipy_blocked(tmp_path, capsys):
    # 300 reports put the boilerplate terms in the dense block and the rest
    # in the rare-term index, so both halves of the screen run
    corpus = tmp_path / "in.jsonl"
    write_documents(corpus, radiology_corpus(300, 0.19, seed=0).documents)
    assert cli.main(["dedup", str(corpus), "--report", str(tmp_path / "want.json")]) == 0
    want = capsys.readouterr().out
    assert "(0 removed" not in want
    blocked = (
        "import sys; sys.modules['scipy'] = None; from medcorpus.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    proc = _run_src_python(blocked, "dedup", str(corpus), "--report", "got.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


# --- CLI exit codes ---------------------------------------------------------


def test_cli_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 1


def test_cli_unknown_command_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_choice_names_are_the_librarys():
    assert cli.DEDUP_MODES == tuple(dedup_mod.MODES)
    assert cli.DEDUP_COMPARISONS == tuple(dedup_mod.COMPARISONS)
    assert cli.BENCH_POLICIES == (benchmark.POLICY_DATE_MATCHED, benchmark.POLICY_PATIENT_ALL)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dedup", "c.jsonl", "--mode", "fuzzy"],
         "argument --mode: invalid choice: 'fuzzy' (choose from 'representative', 'literal')"),
        (["dedup", "c.jsonl", "--comparison", "loose"],
         "argument --comparison: invalid choice: 'loose' (choose from 'strict', 'inclusive')"),
        (["bench", "build", "d.jsonl", "c.csv", "--policy", "any", "--out-dir", "task"],
         "argument --policy: invalid choice: 'any' (choose from 'date-matched', 'patient-all')"),
    ],
    ids=["mode", "comparison", "policy"],
)
def test_cli_unknown_choice_is_usage_error(capsys, argv, message):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def _split_examples(n):
    labels = "ABCD"
    return [LabeledExample(f"d{i}", "t", {labels[i % 4], labels[i % 3]}) for i in range(n)]


def _flag_default_cases():
    """(flag, the library's default as arguments, argv, input writer) for
    every flag whose default the library holds."""
    spec = benchmark.SplitSpec()

    def pii_inputs(directory):
        planted = pii_corpus(30, seed=3)
        write_documents(directory / "pii.jsonl", planted.documents)
        (directory / "names.txt").write_text("\n".join(planted.names) + "\n", encoding="utf-8")

    def split_inputs(directory):
        write_examples_jsonl(directory / "examples.jsonl", _split_examples(spec.total + 100))

    def space(directory):
        (directory / "space.json").write_text("{}", encoding="utf-8")

    anonymize = ["anonymize", "pii.jsonl", "--gazetteer", "names.txt", "--out", "out/pii.jsonl",
                 "--report", "out/report.json"]
    # trials after the startup ones are pruned when their first step is below the median
    stepped = "sh -c 'echo step=1 value=$HPO_WARMUP_STEPS; echo final=$HPO_WARMUP_STEPS'"
    return [
        ("--name-wildcard", [anonymize_mod.NAME_WILDCARD], anonymize, pii_inputs),
        ("--date-wildcard", [anonymize_mod.DATE_WILDCARD], anonymize, pii_inputs),
        (
            "--policy", [benchmark.POLICY_DATE_MATCHED],
            ["bench", "build", "docs.jsonl", "codes.csv", "--chapter", "5-", "--sizes", "60",
             "30", "30", "--min-test-support", "2", "--out-dir", "out"],
            lambda directory: write_bench_inputs(directory),  # defined further down
        ),
        (
            "--sizes", [str(spec.n_train), str(spec.n_valid), str(spec.n_test)],
            ["bench", "split", "examples.jsonl", "--no-patient-grouping", "--out-dir", "out"],
            split_inputs,
        ),
        (
            "--trials", [str(hpo.DEFAULT_N_TRIALS)],
            ["hpo", "run", "--space", "space.json", "--cmd", "sh -c 'echo final=1.0'",
             "--study", "out/study.json"],
            space,
        ),
        (
            "--startup-trials", [str(hpo.DEFAULT_N_STARTUP_TRIALS)],
            ["hpo", "run", "--space", "space.json", "--cmd", stepped, "--trials", "12",
             "--study", "out/study.json"],
            space,
        ),
    ]


@pytest.mark.parametrize(
    "flag, default, argv, write_inputs",
    [pytest.param(*case, id=case[0]) for case in _flag_default_cases()],
)
def test_cli_flag_left_out_acts_as_the_library_default(
    tmp_path, capsys, monkeypatch, flag, default, argv, write_inputs
):
    runs = {}
    for name, args in (("left-out", argv), ("given", [*argv, flag, *default])):
        directory = tmp_path / name
        (directory / "out").mkdir(parents=True)
        write_inputs(directory)
        monkeypatch.chdir(directory)
        code = cli.main(args)
        out = capsys.readouterr()
        files = {
            str(p.relative_to(directory / "out")): p.read_bytes()
            for p in sorted((directory / "out").rglob("*")) if p.is_file()
        }
        runs[name] = (code, out.out, out.err, files)
    assert runs["left-out"][0] == 0
    assert runs["left-out"][3]
    assert runs["left-out"] == runs["given"]


def test_cli_missing_required_flag_is_usage_error(capsys):
    assert cli.main(["ingest", "in.jsonl"]) == 1


def test_cli_missing_file_is_data_error(tmp_path, capsys):
    assert cli.main(["stats", str(tmp_path / "absent.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_malformed_corpus_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"text": "kein source"}\nnot json\n')
    assert cli.main(["stats", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed" in err


def test_cli_internal_error_is_exit_3(tmp_path, capsys, monkeypatch):
    ok = tmp_path / "ok.jsonl"
    write_jsonl(ok, [{"id": "d", "source": "s", "text": "hallo welt"}])

    def boom(docs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.corpus_mod, "compute_corpus_stats", boom)
    assert cli.main(["stats", str(ok)]) == 3
    assert "internal error" in capsys.readouterr().err


# --- CLI subcommand round trips ---------------------------------------------


def test_cli_ingest_reports_bad_lines(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        '{"id": "d1", "source": "s", "text": "eins"}\n'
        "broken line\n"
        '{"id": "d2", "source": "s", "text": "zwei"}\n'
    )
    out = tmp_path / "out.jsonl"
    report = tmp_path / "report.json"
    code = cli.main(["ingest", str(raw), "--out", str(out), "--report", str(report)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2
    obj = json.loads(report.read_text())
    assert obj["n_documents"] == 2
    assert obj["n_errors"] == 1
    assert obj["errors"][0]["line"] == 2


def test_cli_ingest_reports_a_falsy_non_object_meta(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    rows = [{"id": "d0", "source": "s", "text": "eins", "meta": None}]
    rows += [{"id": f"d{i}", "source": "s", "text": "zwei", "meta": v}
             for i, v in enumerate([[], 0, "", False], start=1)]
    raw.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out, report = tmp_path / "out.jsonl", tmp_path / "report.json"
    assert cli.main(["ingest", str(raw), "--out", str(out), "--report", str(report)]) == 0
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["d0"]
    obj = json.loads(report.read_text())
    assert (obj["n_documents"], obj["n_errors"]) == (1, 4)
    assert [(e["line"], e["message"]) for e in obj["errors"]] == [
        (line, "'meta' must be an object") for line in (2, 3, 4, 5)
    ]


def write_corpus_with_unpaired_surrogate(path):
    path.write_text(
        '{"id": "b", "source": "x", "text": "Ein Befund."}\n'
        r'{"id": "a", "source": "x", "text": "Kein \ud800 Befund."}' "\n",
        encoding="utf-8",
    )


SURROGATE_ERROR = "unpaired surrogate in ['text']"


def test_cli_ingest_unpaired_surrogate_is_a_bad_line(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    write_corpus_with_unpaired_surrogate(raw)
    out = tmp_path / "out.jsonl"
    report = tmp_path / "report.json"
    assert cli.main(["ingest", str(raw), "--out", str(out), "--report", str(report)]) == 0
    assert [d["id"] for d in read_jsonl(out)] == ["b"]
    assert json.loads(report.read_text())["errors"] == [{"line": 2, "message": SURROGATE_ERROR}]


def test_cli_stats_unpaired_surrogate_names_file_and_line(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    write_corpus_with_unpaired_surrogate(raw)
    assert cli.main(["stats", str(raw)]) == 2
    assert f"{raw}: 1 malformed lines (first at line 2: {SURROGATE_ERROR})" in capsys.readouterr().err


def test_pipeline_unpaired_surrogate_is_a_load_error(tmp_path, capsys):
    write_corpus_with_unpaired_surrogate(tmp_path / "c.jsonl")
    code, out = run_cli_pipeline(tmp_path, {"inputs": [{"path": "c.jsonl"}]})
    assert code == 0
    errors = json.loads((out / "load_report.json").read_text())["errors"]
    assert errors == [{"path": "c.jsonl", "line": 2, "message": SURROGATE_ERROR}]
    assert [d["id"] for d in read_jsonl(out / "anonymized.jsonl")] == ["b"]


def test_cli_stats_stdout(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_jsonl(corpus, [{"id": "d", "source": "s", "text": "Ein Satz. Noch einer."}])
    assert cli.main(["stats", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Source\t")
    assert "Summary" in out


# each stage command with every artifact flag pointed at a file; for each flag
# in turn the file becomes "-"
DASH_COMMANDS = {
    "ingest": ["ingest", "c.jsonl", "--out", "o.jsonl", "--report", "r.json"],
    "clean": ["clean", "c.jsonl", "--out", "o.jsonl", "--reject-log", "r.json"],
    "dedup": ["dedup", "c.jsonl", "--out", "o.jsonl", "--report", "r.json"],
    "anonymize": [
        "anonymize", "c.jsonl", "--gazetteer", "names.txt", "--out", "o.jsonl", "--report", "r.json",
    ],
    "stats": ["stats", "c.jsonl", "--out", "s.tsv", "--json", "s.json"],
}


@pytest.mark.parametrize(
    "command, flag",
    [(c, flag) for c, argv in DASH_COMMANDS.items() for flag in argv
     if flag in ("--out", "--report", "--reject-log", "--json")],
)
def test_cli_stage_artifact_path_dash_is_standard_output(
    tmp_path, capsys, monkeypatch, command, flag
):
    monkeypatch.chdir(tmp_path)
    write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "source": "radiology-report", "text": "Herr Meier kam am 3.4.2021. " * 8},
        {"id": "b", "source": "radiology-report", "text": "Herr Meier kam am 3.4.2021. " * 8},
        {"id": "c", "source": "radiology-report", "text": "kurz"},
    ])
    (tmp_path / "names.txt").write_text("Meier\n", encoding="utf-8")
    argv = DASH_COMMANDS[command]
    at = argv.index(flag) + 1
    assert cli.main(argv) == 0
    artifact = (tmp_path / argv[at]).read_text(encoding="utf-8")
    to_file = capsys.readouterr().out
    (tmp_path / argv[at]).unlink()
    assert cli.main([*argv[:at], "-", *argv[at + 1:]]) == 0
    to_dash = capsys.readouterr().out
    assert artifact and artifact in to_dash
    assert to_dash.replace(artifact, "", 1) == to_file
    assert not (tmp_path / "-").exists() and not (tmp_path / argv[at]).exists()


def test_cli_dash_text_that_utf8_cannot_encode_is_a_data_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_jsonl(tmp_path / "c.jsonl", [{"id": "d", "text": "x"}])
    assert cli.main(["ingest", "c.jsonl", "--source", "\udcff", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: standard output: 'utf-8' codec can't encode")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]


def test_cli_clean_writes_reject_log(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_jsonl(
        corpus,
        [
            {"id": "short", "source": "radiology-report", "text": "kurz"},
            {"id": "long", "source": "radiology-report", "text": "Befund " * 30},
        ],
    )
    out = tmp_path / "clean.jsonl"
    log = tmp_path / "rejects.json"
    assert cli.main(["clean", str(corpus), "--out", str(out), "--reject-log", str(log)]) == 0
    assert len(out.read_text().splitlines()) == 1
    rejects = json.loads(log.read_text())["rejects"]
    assert rejects[0]["id"] == "short"
    assert rejects[0]["reason"] == "too-short"


def test_cli_dedup_keeps_unvectorizable_docs(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_jsonl(
        corpus,
        [
            {"id": "a", "source": "s", "text": "alpha beta gamma delta"},
            {"id": "b", "source": "s", "text": "alpha beta gamma delta"},
            {"id": "p", "source": "s", "text": "..."},
        ],
    )
    out = tmp_path / "dd.jsonl"
    report = tmp_path / "dd.json"
    code = cli.main(
        ["dedup", str(corpus), "--out", str(out), "--report", str(report)]
    )
    assert code == 0
    kept = [json.loads(l)["id"] for l in out.read_text().splitlines()]
    assert kept == ["a", "p"]  # duplicate dropped, tokenless doc passed through
    obj = json.loads(report.read_text())
    assert obj["s"]["n_removed"] == 1


def test_cli_dedup_keeps_what_exact_engine_keeps(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    rows = [
        {"id": f"d{i}", "source": "s", "text": f"wort{i} wort{(i + 1) % 7} gemeinsam"}
        for i in range(7)
    ]
    rows.append({"id": "d0-copy", "source": "s", "text": rows[0]["text"]})
    write_jsonl(corpus, rows)
    out = tmp_path / "dd.jsonl"
    assert cli.main(["dedup", str(corpus), "--out", str(out)]) == 0
    docs = [Document(r["id"], r["source"], r["text"]) for r in rows]
    exact = dedup_exact([vectorize(d) for d in docs], DedupConfig.from_names())
    assert [d["id"] for d in read_jsonl(out)] == exact.kept_ids
    assert "d0-copy" not in exact.kept_ids


def test_cli_anonymize_residual_free_run(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_jsonl(
        corpus,
        [{"id": "d", "source": "s", "text": "Frau Meier kam am 12. April 2021 wieder."}],
    )
    gaz = tmp_path / "names.txt"
    gaz.write_text("Meier\n")
    out = tmp_path / "anon.jsonl"
    code = cli.main(
        ["anonymize", str(corpus), "--gazetteer", str(gaz), "--out", str(out)]
    )
    assert code == 0
    text = json.loads(out.read_text())["text"]
    assert text == "Frau <NAME> kam am <DATE> wieder."


def test_cli_anonymize_gazetteer_without_entries_is_an_error(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_jsonl(corpus, [{"id": "d", "source": "s", "text": "Anna kam am 3.4.2021."}])
    gaz = tmp_path / "empty.txt"
    gaz.write_text("\n\n", encoding="utf-8")
    out = tmp_path / "anon.jsonl"
    code = cli.main(["anonymize", str(corpus), "--gazetteer", str(gaz), "--out", str(out)])
    assert code == 2
    assert "empty.txt" in capsys.readouterr().err
    assert not out.exists()


def test_cli_vocab_tokenize_fertility(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_jsonl(
        corpus,
        [{"id": "d", "source": "s", "text": "herzkatheter " * 30 + "herz " * 25}],
    )
    vocab_path = tmp_path / "vocab.txt"
    code = cli.main(
        [
            "vocab", "build", str(corpus),
            "--out", str(vocab_path),
            "--vocab-size", "60",
            "--min-word-freq", "20",
        ]
    )
    assert code == 0
    assert vocab_path.exists()

    tok_out = tmp_path / "tokens.jsonl"
    code = cli.main(
        ["tokenize", str(corpus), "--vocab", str(vocab_path), "--out", str(tok_out)]
    )
    assert code == 0
    row = json.loads(tok_out.read_text())
    assert row["id"] == "d"
    assert len(row["pieces"]) == len(row["ids"])
    assert "herzkatheter" in row["pieces"] and "herz" in row["pieces"]

    fert_report = tmp_path / "fertility.json"
    code = cli.main(
        ["fertility", str(corpus), "--vocab", str(vocab_path), "--out", str(fert_report)]
    )
    assert code == 0
    obj = json.loads(fert_report.read_text())
    assert obj["fertility"] == 1.0  # both words are whole tokens
    assert "fertility 1.0000" in capsys.readouterr().out


def test_cli_tokenize_ids_match_fertility_subwords_per_document(tmp_path):
    corpus = tmp_path / "c.jsonl"
    rows = [
        {"id": "a", "source": "s", "text": "herzkatheter " * 30 + "herz " * 25},
        # words repeated within and across documents, pieced ones, and an
        # unknown one: "q" is too rare to enter the vocabulary
        {"id": "b", "source": "s", "text": "herzkatheter herzen zeh herzen quark. herz"},
        {"id": "c", "source": "s", "text": "katheter herzen quark katheter"},
    ]
    write_jsonl(corpus, rows)
    vocab_path = tmp_path / "vocab.txt"
    argv = ["vocab", "build", str(corpus), "--out", str(vocab_path)]
    assert cli.main([*argv, "--vocab-size", "60", "--min-word-freq", "20"]) == 0
    tok_out = tmp_path / "tokens.jsonl"
    assert cli.main(["tokenize", str(corpus), "--vocab", str(vocab_path), "--out", str(tok_out)]) == 0
    fert_out = tmp_path / "fertility.json"
    argv = ["fertility", str(corpus), "--vocab", str(vocab_path), "--out", str(fert_out)]
    assert cli.main([*argv, "--per-document"]) == 0
    tokenized = [json.loads(line) for line in tok_out.read_text().splitlines()]
    per_document = json.loads(fert_out.read_text())["per_document"]
    assert [row["id"] for row in tokenized] == [d["id"] for d in per_document] == ["a", "b", "c"]
    assert [len(row["ids"]) for row in tokenized] == [d["n_subwords"] for d in per_document]
    assert "[UNK]" in tokenized[2]["pieces"]
    assert any(p.startswith("##") for p in tokenized[1]["pieces"])


def write_bench_inputs(tmp_path):
    """docs.jsonl and codes.csv of 60 planted patients, two documents each."""
    planted = benchmark_corpus(n_patients=60, docs_per_patient=2, seed=5, n_codes=8)
    docs_path = tmp_path / "docs.jsonl"
    write_documents(docs_path, planted.documents)
    codes_path = tmp_path / "codes.csv"
    with open(codes_path, "w", encoding="utf-8") as fh:
        fh.write("patient_ref,code,system,date\n")
        for row in planted.code_rows:
            fh.write("{patient_ref},{code},{system},{date}\n".format(**row))
    return docs_path, codes_path


def test_cli_bench_build(tmp_path, capsys):
    docs_path, codes_path = write_bench_inputs(tmp_path)
    out_dir = tmp_path / "task"
    code = cli.main(
        [
            "bench", "build", str(docs_path), str(codes_path),
            "--chapter", "5-",
            "--sizes", "60", "30", "30",
            "--min-test-support", "2",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    labels = (out_dir / "labels.txt").read_text().splitlines()
    assert labels and all(l.startswith("5-") for l in labels)
    assert len((out_dir / "train.jsonl").read_text().splitlines()) == 60
    assert len((out_dir / "test.jsonl").read_text().splitlines()) == 30


def test_cli_bench_split(tmp_path, capsys):
    examples = [
        LabeledExample(f"d{i}", "text", {"L"}, patient_ref=f"p{i}") for i in range(10)
    ]
    path = tmp_path / "ex.jsonl"
    write_jsonl(
        path,
        [{"id": ex.doc_id, "text": ex.text, "labels": ["L"], "patient_ref": ex.patient_ref}
         for ex in examples],
    )
    out_dir = tmp_path / "split"
    code = cli.main(
        ["bench", "split", str(path), "--sizes", "6", "2", "2", "--out-dir", str(out_dir)]
    )
    assert code == 0
    assert len((out_dir / "train.jsonl").read_text().splitlines()) == 6


def test_cli_bench_split_without_patient_refs_asks_for_no_patient_grouping(tmp_path, capsys):
    # bench build exports no patient_ref, so its splits cannot be regrouped
    path = tmp_path / "train.jsonl"
    write_examples_jsonl(
        path, [LabeledExample(f"d{i}", "text", {"L"}, patient_ref=f"p{i // 2}") for i in range(10)]
    )
    out_dir = tmp_path / "split"
    argv = ["bench", "split", str(path), "--sizes", "6", "2", "2", "--out-dir", str(out_dir)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and "--no-patient-grouping" in err
    assert not out_dir.exists()
    assert cli.main([*argv, "--no-patient-grouping"]) == 0
    assert len((out_dir / "train.jsonl").read_text().splitlines()) == 6


def test_cli_eval_clf(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    write_examples_jsonl(
        gold_path,
        [
            LabeledExample("d1", "t", {"A"}),
            LabeledExample("d2", "t", {"B"}),
            LabeledExample("d3", "t", {"A"}),
            LabeledExample("d4", "t", {"B"}),
        ],
    )
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(
        pred_path,
        [
            {"id": "d1", "scores": {"A": 0.9, "B": 0.1}},
            {"id": "d2", "scores": {"A": 0.2, "B": 0.8}},
            {"id": "d3", "scores": {"A": 0.7, "B": 0.3}},
            {"id": "d4", "scores": {"A": 0.1, "B": 0.9}},
        ],
    )
    report = tmp_path / "report.json"
    tsv = tmp_path / "report.tsv"
    code = cli.main(
        [
            "eval", "clf", "--gold", str(gold_path), "--pred", str(pred_path),
            "--report", str(report), "--tsv", str(tsv),
        ]
    )
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["macro"]["auroc"] == 100.0
    assert tsv.read_text().startswith("Class\tAUROC")
    assert "macro AUROC 100.00" in capsys.readouterr().out


def test_cli_eval_clf_labels_file_with_byte_order_mark(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    write_examples_jsonl(
        gold_path, [LabeledExample("d1", "t", {"A"}), LabeledExample("d2", "t", {"B"})]
    )
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(
        pred_path,
        [{"id": "d1", "scores": {"A": 0.9, "B": 0.1}}, {"id": "d2", "scores": {"A": 0.2, "B": 0.8}}],
    )
    labels = tmp_path / "labels.txt"
    labels.write_bytes("\ufeffA\r\n\n B \n".encode("utf-8"))
    report = tmp_path / "report.json"
    code = cli.main(
        [
            "eval", "clf", "--gold", str(gold_path), "--pred", str(pred_path),
            "--labels", str(labels), "--report", str(report),
        ]
    )
    assert code == 0
    assert sorted(json.loads(report.read_text())["per_class"]) == ["A", "B"]


def test_cli_eval_clf_undefined_macro_auroc_prints_na(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    write_examples_jsonl(
        gold_path, [LabeledExample("d1", "t", {"A"}), LabeledExample("d2", "t", {"A"})]
    )
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(pred_path, [{"id": "d1", "scores": {"A": 0.9}}, {"id": "d2", "scores": {"A": 0.2}}])
    report = tmp_path / "report.json"
    code = cli.main(
        ["eval", "clf", "--gold", str(gold_path), "--pred", str(pred_path), "--report", str(report)]
    )
    assert code == 0
    assert json.loads(report.read_text())["excluded"]["auroc"] == ["A"]
    assert "macro AUROC n/a  F1 66.67" in capsys.readouterr().out


def write_repeated_labels(tmp_path):
    labels = tmp_path / "labels.txt"
    labels.write_text("X\nX\nY\n", encoding="utf-8")
    return labels


def write_empty_labels(tmp_path):
    labels = tmp_path / "labels.txt"
    labels.write_text("\n  \n\n", encoding="utf-8")
    return labels


def test_cli_eval_clf_labels_file_without_entries_names_it(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    write_examples_jsonl(
        gold_path, [LabeledExample("d1", "t", {"X"}), LabeledExample("d2", "t", {"Y"})]
    )
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(pred_path, [{"id": "d1", "scores": {"X": 0.9}}, {"id": "d2", "scores": {"Y": 0.8}}])
    labels = write_empty_labels(tmp_path)
    report = tmp_path / "report.json"
    code = cli.main(
        [
            "eval", "clf", "--gold", str(gold_path), "--pred", str(pred_path),
            "--labels", str(labels), "--report", str(report),
        ]
    )
    assert code == 2
    assert f"error: {labels}: labels file has no entries" in capsys.readouterr().err
    assert not report.exists()


def test_cli_eval_ner_labels_file_without_entries_names_it(tmp_path, capsys):
    gold_path = tmp_path / "gold.conll"
    write_conll(gold_path, [TokenLabeledExample("a", ["Herr", "Meier"], ["B-PER", "I-PER"])])
    pred_path = tmp_path / "pred.jsonl"
    # a perfect prediction, which an empty class list would score 0.00
    write_jsonl(pred_path, [{"id": "a", "tags": ["B-PER", "I-PER"]}])
    labels = write_empty_labels(tmp_path)
    report = tmp_path / "ner.json"
    code = cli.main(
        [
            "eval", "ner", "--gold", str(gold_path), "--pred", str(pred_path),
            "--labels", str(labels), "--report", str(report),
        ]
    )
    assert code == 2
    assert f"error: {labels}: labels file has no entries" in capsys.readouterr().err
    assert not report.exists()


def test_cli_eval_clf_repeated_label_names_labels_file(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    write_examples_jsonl(
        gold_path, [LabeledExample("d1", "t", {"X"}), LabeledExample("d2", "t", {"Y"})]
    )
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(pred_path, [{"id": "d1", "scores": {"X": 0.9}}, {"id": "d2", "scores": {"Y": 0.8}}])
    labels = write_repeated_labels(tmp_path)
    report = tmp_path / "report.json"
    code = cli.main(
        [
            "eval", "clf", "--gold", str(gold_path), "--pred", str(pred_path),
            "--labels", str(labels), "--report", str(report),
        ]
    )
    assert code == 2
    assert f"error: {labels}: label 'X' is given twice" in capsys.readouterr().err
    assert not report.exists()


def test_cli_eval_clf_malformed_gold_line_names_file_and_line(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text('{"id": "d1", "text": "t", "labels": ["A"]}\n{bad\n', encoding="utf-8")
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(pred_path, [{"id": "d1", "scores": {"A": 0.9}}])
    code = cli.main(["eval", "clf", "--gold", str(gold_path), "--pred", str(pred_path)])
    assert code == 2
    assert f"{gold_path}: line 2:" in capsys.readouterr().err


BAD_GOLD_ROWS = [
    {"id": "d2", "text": "t"},
    ["d2", "t", ["A"]],
    {"id": 2, "text": "t", "labels": ["A"]},
    {"id": "d2", "text": None, "labels": ["A"]},
    {"id": "d2", "text": "t", "labels": "A"},
    {"id": "d2", "text": "t", "labels": [["A"]]},
    {"id": "d2", "text": "t", "labels": []},
    {"id": "d2", "text": "t", "labels": ["A"], "patient_ref": 7},
    {"id": "d2", "text": "t", "labels": ["A\udc00"]},
]


def write_gold_with_bad_row(path, bad_row):
    """A valid row, a blank line, then ``bad_row`` on line 3."""
    good = {"id": "d1", "text": "t", "labels": ["A"], "patient_ref": "p1"}
    path.write_text(f"{json.dumps(good)}\n\n{json.dumps(bad_row)}\n", encoding="utf-8")


@pytest.mark.parametrize("bad_row", BAD_GOLD_ROWS)
def test_cli_eval_clf_gold_row_of_wrong_shape_names_file_and_line(tmp_path, capsys, bad_row):
    gold_path = tmp_path / "gold.jsonl"
    write_gold_with_bad_row(gold_path, bad_row)
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(pred_path, [{"id": "d1", "scores": {"A": 0.9}}])
    code = cli.main(["eval", "clf", "--gold", str(gold_path), "--pred", str(pred_path)])
    assert code == 2
    assert f"error: {gold_path}: line 3: " in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", BAD_GOLD_ROWS)
def test_cli_bench_split_row_of_wrong_shape_names_file_and_line(tmp_path, capsys, bad_row):
    path = tmp_path / "ex.jsonl"
    write_gold_with_bad_row(path, bad_row)
    out_dir = tmp_path / "split"
    code = cli.main(
        ["bench", "split", str(path), "--sizes", "1", "0", "0", "--out-dir", str(out_dir)]
    )
    assert code == 2
    assert f"error: {path}: line 3: " in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_eval_ner(tmp_path, capsys):
    gold_path = tmp_path / "gold.conll"
    write_conll(
        gold_path,
        [
            TokenLabeledExample("a", ["Herr", "Meier", "kam"], ["B-PER", "I-PER", "O"]),
            TokenLabeledExample("b", ["Keine", "Namen"], ["O", "O"]),
        ],
    )
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(
        pred_path,
        [
            {"id": "a", "tags": ["B-PER", "O", "O"]},
            {"id": "b", "tags": ["O", "O"]},
        ],
    )
    report = tmp_path / "ner.json"
    code = cli.main(
        ["eval", "ner", "--gold", str(gold_path), "--pred", str(pred_path), "--report", str(report)]
    )
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["per_class"]["PER"]["precision"] == 100.0
    assert obj["per_class"]["PER"]["recall"] == 50.0


def test_cli_eval_ner_repeated_label_names_labels_file(tmp_path, capsys):
    gold_path = tmp_path / "gold.conll"
    write_conll(
        gold_path, [TokenLabeledExample("a", ["w", "x", "y", "z"], ["B-X", "O", "B-Y", "B-Y"])]
    )
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(pred_path, [{"id": "a", "tags": ["B-X", "O", "O", "B-Y"]}])
    labels = write_repeated_labels(tmp_path)
    report = tmp_path / "ner.json"
    code = cli.main(
        [
            "eval", "ner", "--gold", str(gold_path), "--pred", str(pred_path),
            "--labels", str(labels), "--report", str(report),
        ]
    )
    assert code == 2
    assert f"error: {labels}: label 'X' is given twice" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("line", ["Herr\tgarbage", "Herr\t"])
def test_cli_eval_ner_gold_tag_that_is_not_bio_names_file_and_line(tmp_path, capsys, line):
    gold_path = tmp_path / "gold.conll"
    gold_path.write_text(f"Befund\tO\n{line}\n", encoding="utf-8")
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(pred_path, [{"tags": ["O", "O"]}])
    report = tmp_path / "ner.json"
    argv = ["eval", "ner", "--gold", str(gold_path), "--pred", str(pred_path)]
    assert cli.main([*argv, "--report", str(report)]) == 2
    assert f"error: {gold_path}: line 2: malformed tag " in capsys.readouterr().err
    assert not report.exists()


def test_cli_eval_ner_count_mismatch(tmp_path, capsys):
    gold_path = tmp_path / "gold.conll"
    write_conll(gold_path, [TokenLabeledExample("a", ["x"], ["O"])])
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(pred_path, [{"tags": ["O"]}, {"tags": ["O"]}])
    assert cli.main(["eval", "ner", "--gold", str(gold_path), "--pred", str(pred_path)]) == 2
    assert capsys.readouterr().err == (
        "error: gold and predictions have different document counts: 1 gold, 2 predicted\n"
    )


@pytest.mark.parametrize(
    "bad_row",
    [
        ["O"], 5, {"tags": "O"}, {"id": "a"},
        {"tags": ["O"], "scores": 5},
        {"tags": ["O"], "scores": [1]},
        {"tags": ["O"], "scores": [{"PER": None}]},
        {"tags": ["O"], "scores": [{"PER": float("nan")}]},
        {"tags": ["O"], "scores": [{"PER": float("inf")}]},
        {"tags": ["O"], "scores": [{"PER": False}]},
        # one score map per tag, and every tag a string
        {"tags": ["O"], "scores": [{}, {}]},
        {"tags": ["O"], "scores": []},
        {"tags": [None]},
        {"tags": [5]},
    ],
)
def test_cli_eval_ner_prediction_row_of_wrong_shape_names_file_and_line(
    tmp_path, capsys, bad_row
):
    gold_path = tmp_path / "gold.conll"
    write_conll(gold_path, [TokenLabeledExample("a", ["x"], ["O"])])
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text(f"\n{json.dumps(bad_row)}\n", encoding="utf-8")
    assert cli.main(["eval", "ner", "--gold", str(gold_path), "--pred", str(pred_path)]) == 2
    assert f"error: {pred_path}: line 2: " in capsys.readouterr().err


def test_cli_eval_ner_scores_on_some_rows_only_names_file(tmp_path, capsys):
    gold_path = tmp_path / "gold.conll"
    write_conll(
        gold_path,
        [TokenLabeledExample("a", ["x"], ["B-PER"]), TokenLabeledExample("b", ["y"], ["O"])],
    )
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(pred_path, [{"tags": ["B-PER"], "scores": [{"PER": 0.9}]}, {"tags": ["O"]}])
    assert cli.main(["eval", "ner", "--gold", str(gold_path), "--pred", str(pred_path)]) == 2
    assert f"error: {pred_path}: 'scores' given on some" in capsys.readouterr().err


BAD_PREDICTION_ROWS = [
    ["d1"],
    5,
    {"scores": {"A": 0.9}},
    {"id": "d1"},
    {"id": "d1", "scores": [0.9]},
    {"id": "d1", "scores": {"A": "0.9"}},
    {"id": "d1", "scores": {"A": [0.9]}},
    # scores are finite numbers; JSON's NaN and Infinity and true are not
    {"id": "d1", "scores": {"A": float("nan")}},
    {"id": "d1", "scores": {"A": float("inf")}},
    {"id": "d1", "scores": {"A": float("-inf")}},
    {"id": "d1", "scores": {"A": True}},
    {"id": "d1", "scores": {"A": 10**400}},
]


def test_cli_eval_clf_nan_score_is_a_data_error(tmp_path, capsys):
    # a NaN score once ranked after every number and gave AUROC 100
    gold_path = tmp_path / "gold.jsonl"
    write_examples_jsonl(
        gold_path, [LabeledExample("d1", "t", {"A"}), LabeledExample("d2", "t", {"B"})]
    )
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text('{"id": "d1", "scores": {"A": NaN, "B": 0.1}}\n', encoding="utf-8")
    code = cli.main(["eval", "clf", "--gold", str(gold_path), "--pred", str(pred_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {pred_path}: line 1: " in captured.err
    assert "AUROC" not in captured.out


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_cli_eval_clf_non_finite_threshold_exits_2_and_writes_no_report(
    tmp_path, capsys, threshold
):
    gold_path = tmp_path / "gold.jsonl"
    write_examples_jsonl(
        gold_path, [LabeledExample("d1", "t", {"A"}), LabeledExample("d2", "t", {"B"})]
    )
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(
        pred_path,
        [{"id": "d1", "scores": {"A": 0.9, "B": 0.1}}, {"id": "d2", "scores": {"A": 0.2, "B": 0.8}}],
    )
    report = tmp_path / "report.json"
    code = cli.main(
        ["eval", "clf", "--gold", str(gold_path), "--pred", str(pred_path),
         "--report", str(report), f"--threshold={threshold}"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error: threshold must be a finite number" in captured.err
    assert "AUROC" not in captured.out
    assert not report.exists()


@pytest.mark.parametrize("bad_row", BAD_PREDICTION_ROWS)
def test_cli_eval_clf_prediction_row_of_wrong_shape_names_file_and_line(
    tmp_path, capsys, bad_row
):
    gold_path = tmp_path / "gold.jsonl"
    write_examples_jsonl(gold_path, [LabeledExample("d1", "t", {"A"})])
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text(
        f'{json.dumps({"id": "d1", "scores": {"A": 0.9}})}\n\n{json.dumps(bad_row)}\n',
        encoding="utf-8",
    )
    report = tmp_path / "eval.json"
    code = cli.main(
        ["eval", "clf", "--gold", str(gold_path), "--pred", str(pred_path), "--report", str(report)]
    )
    assert code == 2
    assert f"error: {pred_path}: line 3: " in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("command", ["tokenize", "fertility"])
def test_cli_vocabulary_without_unknown_token_is_a_data_error(tmp_path, capsys, command):
    corpus = tmp_path / "c.jsonl"
    write_jsonl(corpus, [{"id": "d", "source": "s", "text": "xyz qq"}])
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("a\nb\n", encoding="utf-8")
    out = tmp_path / "out.json"
    assert cli.main([command, str(corpus), "--vocab", str(vocab_path), "--out", str(out)]) == 2
    assert "[UNK]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("space", [[1], {"learning_rate": 5}, {"batch_sizes": [8]}])
def test_cli_hpo_run_space_of_wrong_shape_is_a_data_error(tmp_path, capsys, space):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(space), encoding="utf-8")
    study_path = tmp_path / "study.json"
    code = cli.main(
        ["hpo", "run", "--space", str(space_path), "--cmd", "true", "--trials", "1",
         "--study", str(study_path)]
    )
    assert code == 2
    assert "search space" in capsys.readouterr().err
    assert not study_path.exists()


def test_cli_hpo_run_infinite_learning_rate_bound_names_the_space_and_runs_no_trial(
    tmp_path, capsys
):
    space_path = tmp_path / "space.json"
    # Python's json module parses the bare Infinity token
    space_path.write_text('{"learning_rate": [1e-05, Infinity]}', encoding="utf-8")
    marker = tmp_path / "ran"
    script = tmp_path / "obj.py"
    script.write_text(f"open({str(marker)!r}, 'w').close()\nprint('final=1.0')\n")
    study_path = tmp_path / "study.json"
    code = cli.main(
        ["hpo", "run", "--space", str(space_path), "--cmd", f"python3 {script}", "--trials", "2",
         "--study", str(study_path)]
    )
    assert code == 2
    assert f"error: {space_path}: learning rate range" in capsys.readouterr().err
    assert not marker.exists()
    assert not study_path.exists()


def test_cli_hpo_run_non_positive_batch_size_names_the_space_and_runs_no_trial(
    tmp_path, capsys
):
    space_path = tmp_path / "space.json"
    space_path.write_text('{"batch_size": [0, -8]}', encoding="utf-8")
    marker = tmp_path / "ran"
    script = tmp_path / "obj.py"
    script.write_text(f"open({str(marker)!r}, 'w').close()\nprint('final=1.0')\n")
    study_path = tmp_path / "study.json"
    code = cli.main(
        ["hpo", "run", "--space", str(space_path), "--cmd", f"python3 {script}", "--trials", "2",
         "--study", str(study_path)]
    )
    assert code == 2
    assert f"error: {space_path}: batch_sizes must be" in capsys.readouterr().err
    assert not marker.exists()
    assert not study_path.exists()


@pytest.mark.parametrize(
    "bad_row",
    ["p,5-100", "p,5-100,ops,2020-13-01", "p,5-100,icd10,2020-01-01", ",5-100,ops,2020-01-01"],
)
def test_cli_bench_build_codes_row_of_wrong_shape_names_file_and_line(
    tmp_path, capsys, bad_row
):
    docs_path = tmp_path / "docs.jsonl"
    write_jsonl(
        docs_path, [{"id": "d", "source": "s", "text": "t", "patient_ref": "p", "date": "2020-01-01"}]
    )
    codes_path = tmp_path / "codes.csv"
    codes_path.write_text(
        f"patient_ref,code,system,date\np,5-100,ops,2020-01-01\n\n{bad_row}\n", encoding="utf-8"
    )
    out_dir = tmp_path / "task"
    code = cli.main(
        ["bench", "build", str(docs_path), str(codes_path), "--out-dir", str(out_dir)]
    )
    assert code == 2
    assert f"error: {codes_path}: line 4: " in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_hpo_run(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text(
        json.dumps({"learning_rate": [1e-5, 1e-3], "batch_size": [8, 16], "warmup_steps": [0, 100]})
    )
    script = tmp_path / "obj.py"
    script.write_text(
        "import argparse\n"
        "p = argparse.ArgumentParser()\n"
        "p.add_argument('--learning-rate', type=float)\n"
        "p.add_argument('--batch-size', type=int)\n"
        "p.add_argument('--warmup-steps', type=int)\n"
        "a = p.parse_args()\n"
        "print(f'step=1 value={a.warmup_steps / 200}', flush=True)\n"
        "print(f'final={a.warmup_steps / 100}', flush=True)\n"
    )
    study_path = tmp_path / "study.json"
    code = cli.main(
        [
            "hpo", "run",
            "--space", str(space_path),
            "--cmd", f"python3 {script}",
            "--trials", "4",
            "--startup-trials", "2",
            "--study", str(study_path),
        ]
    )
    assert code == 0
    study = json.loads(study_path.read_text())
    assert len(study["trials"]) == 4
    assert "best trial" in capsys.readouterr().out


def hpo_run_argv(tmp_path):
    space_path = tmp_path / "space.json"
    space_path.write_text("{}")
    script = tmp_path / "obj.py"
    script.write_text("print('final=1.0')\n")
    return ["hpo", "run", "--space", str(space_path), "--cmd", f"python3 {script}", "--trials", "1"]


@pytest.mark.parametrize(
    "output, error",
    [
        ("final=nan", "final value nan is not finite"),
        ("step=1 value=inf\nfinal=1.0", "step 1 value inf is not finite"),
    ],
)
def test_cli_hpo_run_non_finite_value_fails_the_trial(tmp_path, capsys, output, error):
    argv = hpo_run_argv(tmp_path)
    (tmp_path / "obj.py").write_text(f"print({output!r})\n")
    study_path = tmp_path / "study.json"
    assert cli.main([*argv[:-1], "2", "--study", str(study_path)]) == 2
    assert capsys.readouterr().out.startswith("no completed trials ({'failed': 2})")
    trials = json.loads(study_path.read_text())["trials"]
    assert [t["error"] for t in trials] == [f"ValueError: trial {i}: {error}" for i in range(2)]


def test_cli_hpo_run_jobs_zero_is_a_data_error(tmp_path, capsys):
    assert cli.main(hpo_run_argv(tmp_path) + ["--jobs", "0"]) == 2
    assert "n_jobs must be >= 1" in capsys.readouterr().err


def test_cli_jobs_before_the_command_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["--jobs", "2"] + hpo_run_argv(tmp_path)) == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_pretrain_config(tmp_path, capsys):
    out = tmp_path / "phase1.json"
    assert cli.main(["pretrain-config", "--phase", "1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["total_steps"] == 7038
    assert capsys.readouterr().err == ""

    assert cli.main(["pretrain-config", "--phase", "2"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["learning_rate"] is None
    assert "warning" in captured.err


def test_cli_pipeline_runs_twice_identically(tmp_path, capsys):
    _, config_path = pipeline_fixture(tmp_path)
    for name in ("one", "two"):
        code = cli.main(
            ["pipeline", "--config", str(config_path), "--out-dir", str(tmp_path / name)]
        )
        assert code == 0
    assert (tmp_path / "one" / "manifest.json").read_bytes() == (
        tmp_path / "two" / "manifest.json"
    ).read_bytes()
    out = capsys.readouterr().out
    assert "ingest:" in out and "stats:" in out


def test_cli_pipeline_residuals_exit_2(tmp_path, capsys):
    _, config_path = pipeline_fixture(tmp_path)
    # the wildcard <NAME> itself matches the entry NAME, so the rescan fails
    (tmp_path / "names.txt").write_text("Anna Schmidt\nNAME\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = cli.main(["pipeline", "--config", str(config_path), "--out-dir", str(out_dir)])
    assert code == 2
    report = json.loads((out_dir / "anonymization_report.json").read_text())
    assert report["passed"] is False
    n_residual = len(report["residuals"])
    assert n_residual > 0
    assert f"anonymize: {n_residual} documents with residuals" in capsys.readouterr().err
