"""Each script under scripts/ runs to completion at a tiny size.

The scripts call the library directly, so a change to an API they use
shows up here rather than on the next manual run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("dedup_scale.py", ["--n-docs", "500"], r"^removed\s+\d+ \(rate 0\.\d{4}\)$"),
        ("gazetteer_scale.py", ["--n-docs", "50", "--sizes", "500"], r"^\s+500\s+\d"),
        ("pipeline_demo.py", ["--n-docs", "40", "--out", "{tmp}"], r"^reruns byte-identical$"),
        ("fertility_domains.py", ["--n-texts", "20"], r"^clinical\s+vocab\s+\d+\s+fertility"),
        ("vocab_scale.py", ["--n-docs", "50", "--sizes", "300"], r"^\s+300\s+300(\s+\d+\.\d{3}){6}$"),
    ],
    ids=["dedup_scale", "gazetteer_scale", "pipeline_demo", "fertility_domains", "vocab_scale"],
)
def test_script_runs(tmp_path, script, args, expected):
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
    assert re.search(expected, proc.stdout, re.MULTILINE), proc.stdout
