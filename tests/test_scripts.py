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
    assert sorted(record) == ["dedup", "gazetteer", "machine", "reps", "vocab"]
    assert sorted(record["machine"]) == ["blas_threads", "cpu_count", "numpy", "python"]
    assert record["reps"] == 1
    # each probe's inputs, then the figures of each of its sizes
    probes = {
        "dedup": ("planted_rate", "dedup_s generate_s peak_rss_mib rate removed"),
        "vocab": (
            "distinct_words docs words",
            "build_s count_s fertility_s merge_s segment_s tokenize_s tokens",
        ),
        "gazetteer": (
            "docs planted_names",
            "anonymize_s build_peak_mib build_s dates_s rescan_s residual_docs scan_s vs_first",
        ),
    }
    for name, (inputs, figures) in probes.items():
        assert sorted(record[name]) == sorted(inputs.split() + ["sizes"])
        assert record[name]["sizes"], name
        for size, row in record[name]["sizes"].items():
            assert sorted(row) == figures.split(), (name, size)
            assert f"{int(size):>9} " in stdout
    for row in record["dedup"]["sizes"].values():
        assert abs(row["rate"] - record["dedup"]["planted_rate"]) <= 0.02
        assert row["peak_rss_mib"] > 0
    for size, row in record["vocab"]["sizes"].items():
        assert row["tokens"] == int(size)
    gazetteer = record["gazetteer"]
    assert list(gazetteer["sizes"])[0] == str(gazetteer["planted_names"])
    assert all(row["residual_docs"] == 0 for row in gazetteer["sizes"].values())
