"""The package namespace: each public name loads its module on first access."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import medcorpus

PUBLIC = [name for name in medcorpus.__all__ if name != "__version__"]


def run_fresh(code):
    """The JSON that ``code`` prints last, run in a fresh interpreter on src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'medcorpus')"


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_the_object_its_module_defines(name):
    value = getattr(medcorpus, name)
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("medcorpus.")
    assert getattr(module, name) is value


def test_dir_lists_every_public_name():
    assert set(medcorpus.__all__) <= set(dir(medcorpus))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'medcorpus' has no attribute 'nope'"):
        medcorpus.nope
    assert not hasattr(medcorpus, "run_pipelines")


def test_package_import_loads_no_layer():
    assert run_fresh(f"import json, sys, medcorpus; print(json.dumps({LOADED}))") == ["medcorpus"]


def test_name_import_loads_its_module_and_what_that_imports():
    loaded = run_fresh(
        "import json, sys\n"
        "from medcorpus import run_pipeline\n"
        "import medcorpus.pipeline\n"
        f"print(json.dumps([run_pipeline is medcorpus.pipeline.run_pipeline, {LOADED}]))"
    )
    assert loaded == [
        True,
        ["medcorpus", "medcorpus.anonymize", "medcorpus.corpus", "medcorpus.dedup",
         "medcorpus.pipeline"],
    ]


def test_star_import_binds_every_public_name():
    missing = run_fresh(
        "import json\n"
        "from medcorpus import *\n"
        "import medcorpus\n"
        "print(json.dumps(sorted(n for n in medcorpus.__all__ if n not in globals())))"
    )
    assert missing == []


def test_layer_names_import_the_submodules():
    # the import that perfbench's worker makes
    layers = ["anonymize", "benchmark", "cli", "corpus", "dedup", "metrics", "pipeline", "subword"]
    names = run_fresh(
        "import json, types\n"
        f"from medcorpus import {', '.join(layers)}\n"
        f"print(json.dumps([m.__name__ for m in ({', '.join(layers)}) "
        "if isinstance(m, types.ModuleType)]))"
    )
    assert names == [f"medcorpus.{layer}" for layer in layers]
    assert isinstance(medcorpus.corpus, types.ModuleType)
