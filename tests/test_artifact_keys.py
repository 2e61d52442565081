"""The exact key set of each report artifact whose JSON is built from its
dataclass fields, read back from the files the program writes."""

import json

import pytest

from medcorpus.hpo import Params, Study, Trial
from medcorpus.metrics import ScoredPredictions, multilabel_report, ner_token_report, write_report
from medcorpus.pipeline import emit_pretrain_config, run_pipeline

METRIC_ROW = {"auroc", "f1", "precision", "recall", "support"}
STATS_ROW = {"n_documents", "n_sentences", "n_words", "size_bytes", "size_mb"}
PRETRAIN = {
    "phase", "seq_len", "learning_rate", "batch_size", "warmup_steps", "total_steps",
    "optimizer", "lr_schedule",
}


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    text = "Befund der Lunge ohne Auffälligkeit und ohne Erguss heute. " * 3
    rows = [
        {"id": "a", "source": "wiki", "text": text},
        {"id": "b", "source": "wiki", "text": text},
        {"id": "c", "source": "ehr", "text": "Ein ganz anderer Text über das Herz."},
    ]
    (base / "c.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    run_pipeline({"inputs": [{"path": "c.jsonl"}]}, base / "out", base)
    return base / "out"


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_manifest_stage_keys(pipeline_out):
    manifest = read(pipeline_out / "manifest.json")
    assert set(manifest) == {"stages"}
    assert [s["name"] for s in manifest["stages"]] == [
        "ingest", "clean", "dedup", "anonymize", "stats",
    ]
    for stage in manifest["stages"]:
        assert set(stage) == {
            "name", "config_hash", "inputs", "outputs", "n_in", "n_out", "details",
        }


def test_dedup_report_keys_have_no_kept_ids(pipeline_out):
    reports = read(pipeline_out / "dedup_report.json")
    assert set(reports) == {"wiki", "ehr"}
    for report in reports.values():
        assert set(report) == {
            "mode", "threshold", "comparison", "n_input", "n_kept", "n_removed",
            "clusters", "pairs_examined",
        }
    assert reports["wiki"]["clusters"] == [{"representative": "a", "members": ["b"]}]


def test_stats_row_keys(pipeline_out):
    stats = read(pipeline_out / "stats.json")
    assert set(stats) == {"per_source", "total"}
    assert set(stats["per_source"]) == {"wiki", "ehr"}
    for row in [*stats["per_source"].values(), stats["total"]]:
        assert set(row) == STATS_ROW


def test_metric_report_keys_with_and_without_micro(tmp_path):
    clf = multilabel_report(
        ScoredPredictions(["A"], {"A": [0.9, 0.1]}, {"A": [True, False]})
    )
    ner = ner_token_report([["B-PER", "O"]], [["B-PER", "O"]])
    for report, keys in [
        (clf, {"classes", "per_class", "macro", "excluded"}),
        (ner, {"classes", "per_class", "macro", "excluded", "micro"}),
    ]:
        path = tmp_path / "report.json"
        write_report(report, json_path=path)
        obj = read(path)
        assert set(obj) == keys
        rows = [*obj["per_class"].values(), obj["macro"]] + ([obj["micro"]] if "micro" in obj else [])
        assert all(set(row) == METRIC_ROW for row in rows)


def test_pretrain_config_keys_with_and_without_warning():
    assert set(emit_pretrain_config(1).to_obj()) == PRETRAIN
    assert set(emit_pretrain_config(2).to_obj()) == PRETRAIN | {"warning"}


def test_params_keys_in_a_saved_study(tmp_path):
    params = Params(1e-4, 16, 10)
    assert params.to_obj() == {"learning_rate": 1e-4, "batch_size": 16, "warmup_steps": 10}
    study = Study(n_trials=1, trials=[Trial(0, params)])
    study.save(tmp_path / "study.json")
    assert read(tmp_path / "study.json")["trials"][0]["params"] == params.to_obj()
