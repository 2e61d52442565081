"""Each script under scripts/ runs to completion at a tiny size.

The scripts call the library directly, so a change to an API they use
shows up here rather than on the next manual run.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [a.format(tmp=tmp_path / "out") for a in args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("pipeline_demo.py", ["--n-docs", "40", "--out", "{tmp}"], r"^reruns byte-identical$"),
        ("fertility_domains.py", ["--n-texts", "20"], r"^clinical\s+vocab\s+\d+\s+fertility"),
    ],
    ids=["pipeline_demo", "fertility_domains"],
)
def test_script_runs(tmp_path, script, args, expected):
    stdout = run_script(tmp_path, script, args)
    assert re.search(expected, stdout, re.MULTILINE), stdout


def test_bench_quick_writes_the_record(tmp_path):
    stdout = run_script(tmp_path, "bench.py", ["--quick", "--out", "{tmp}"])
    record = json.loads((tmp_path / "out").read_text(encoding="utf-8"))
    assert sorted(record) == [
        "dedup", "gazetteer", "machine", "pipeline", "reps", "startup", "vocab"
    ]
    assert sorted(record["machine"]) == ["blas_threads", "cpu_count", "numpy", "piece_s", "python"]
    assert record["machine"]["piece_s"] > 0
    assert record["reps"] == 1
    # each probe's inputs, then the figures of each of its sizes
    probes = {
        "dedup": (
            "planted_rate",
            "dedup_s generate_s pairs_examined peak_rss_mib rate removed rows_mib"
            " screen_margin screen_traced_peak_mib screen_verify_s tokenize_s",
        ),
        "vocab": (
            "distinct_words docs words",
            "build_s count_s fertility_s merge_s segment_s tokenize_s tokens",
        ),
        "gazetteer": (
            "clean_docs docs planted_names",
            "anonymize_s build_peak_mib build_s clean_scan_s dates_s redact_s rescan_s"
            " residual_docs scan_s vs_first",
        ),
        "pipeline": (
            "pii_docs planted_names",
            "document_lines peak_rss_mib residual_docs stats_s wall_s write_documents_s",
        ),
        "startup": ("bytecode_cache samples", "cached_s loaded uncached_s"),
    }
    for name, (inputs, figures) in probes.items():
        # the host's speed around the probe, beside its inputs
        assert sorted(record[name]) == sorted(inputs.split() + ["piece_s", "sizes"])
        assert record[name]["piece_s"] > 0
        assert record[name]["sizes"], name
        for size, row in record[name]["sizes"].items():
            assert sorted(row) == figures.split(), (name, size)
            assert f"{size:>9} " in stdout
    for row in record["dedup"]["sizes"].values():
        assert abs(row["rate"] - record["dedup"]["planted_rate"]) <= 0.02
        assert 0 < row["rows_mib"] < row["peak_rss_mib"]
        assert 0 < row["tokenize_s"] and 0 < row["screen_verify_s"]
        assert row["pairs_examined"] >= row["removed"]
        assert 1e-6 <= row["screen_margin"] < 1e-4
    for size, row in record["vocab"]["sizes"].items():
        assert row["tokens"] == int(size)
    gazetteer = record["gazetteer"]
    assert list(gazetteer["sizes"])[0] == str(gazetteer["planted_names"])
    assert all(row["residual_docs"] == 0 for row in gazetteer["sizes"].values())
    for row in record["pipeline"]["sizes"].values():
        assert row["residual_docs"] == 0
        assert 0 < row["write_documents_s"] < row["wall_s"]
        assert 0 < row["stats_s"] < row["wall_s"]
        assert row["document_lines"] > 0
        assert row["peak_rss_mib"] > 0
    startup = record["startup"]
    assert startup["samples"] == 1
    assert sorted(startup["bytecode_cache"]) == ["cached_s", "uncached_s"]
    # one row per command group, each loading the CLI, corpus and its own layers
    assert sorted(startup["sizes"]) == [
        "anonymize", "bench", "dedup", "eval", "hpo", "pipeline", "stats", "vocab"
    ]
    assert startup["sizes"]["stats"]["loaded"] == "cli corpus"
    assert startup["sizes"]["pipeline"]["loaded"] == "anonymize cli corpus dedup pipeline"
    for row in startup["sizes"].values():
        assert 0 < row["cached_s"] and 0 < row["uncached_s"]
