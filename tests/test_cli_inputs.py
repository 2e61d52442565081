"""Every CLI command that reads a JSON, JSONL, CSV or list file exits 0, 1 or
2 on a malformed input file, never 3 (internal error), and a run that fails
leaves none of its artifacts behind."""

import contextlib
import copy
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from medcorpus import cli
from medcorpus.subword import SPECIAL_TOKENS


def jsonl(*rows):
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)


_DOCS = jsonl(
    *(
        {"id": f"d{i}", "source": "ehr", "text": f"Befund {i} der Lunge ohne Erguss.",
         "patient_ref": f"p{i}", "date": "2020-01-01"}
        for i in range(8)
    )
)
_CODES = "patient_ref,code,system,date\n" + "".join(
    f"p{i},5-100,ops,2020-01-01\np{i},I21.0,icd10,2020-01-01\n" for i in range(8)
)
_VOCAB = "".join(tok + "\n" for tok in [*SPECIAL_TOKENS, "a", "b", "##a", "##b", "ab"])
_OBJECTIVE = shlex.join([sys.executable, "-c", "print('final=1.0')"])

# name -> (input files: name -> (kind, valid content), arguments, outputs);
# each input file is corrupted in turn while the others stay valid
COMMANDS = {
    "eval clf": (
        {
            "gold.jsonl": ("jsonl", jsonl({"id": "d1", "text": "t", "labels": ["A"]},
                                          {"id": "d2", "text": "t", "labels": ["B"]})),
            "pred.jsonl": ("jsonl", jsonl({"id": "d1", "scores": {"A": 0.9, "B": 0.1}},
                                          {"id": "d2", "scores": {"A": 0.2, "B": 0.8}})),
            "labels.txt": ("lines", "A\nB\n"),
        },
        "eval clf --gold gold.jsonl --pred pred.jsonl --labels labels.txt"
        " --report r.json --tsv r.tsv",
        ["r.json", "r.tsv"],
    ),
    "eval ner": (
        {
            "gold.conll": ("lines", "Herr\tO\nMeier\tB-PER\n\nkam\tO\n"),
            "pred.jsonl": ("jsonl", jsonl(
                {"tags": ["O", "B-PER"], "scores": [{"PER": 0.1}, {"PER": 0.8}]},
                {"tags": ["O"], "scores": [{"PER": 0.3}]},
            )),
            "labels.txt": ("lines", "PER\n"),
        },
        "eval ner --gold gold.conll --pred pred.jsonl --labels labels.txt"
        " --report r.json --tsv r.tsv",
        ["r.json", "r.tsv"],
    ),
    "bench build": (
        {"docs.jsonl": ("jsonl", _DOCS), "codes.csv": ("lines", _CODES)},
        "bench build docs.jsonl codes.csv --sizes 4 2 2 --min-test-support 1 --out-dir task",
        ["task"],
    ),
    "bench split": (
        {
            "ex.jsonl": ("jsonl", jsonl(*(
                {"id": f"d{i}", "text": "t", "labels": ["L"], "patient_ref": f"p{i}"}
                for i in range(6)
            ))),
        },
        "bench split ex.jsonl --sizes 2 2 2 --out-dir parts",
        ["parts"],
    ),
    "tokenize": (
        {"c.jsonl": ("jsonl", jsonl({"id": "d", "source": "s", "text": "ab ba xy"})),
         "vocab.txt": ("lines", _VOCAB)},
        "tokenize c.jsonl --vocab vocab.txt --out tok.jsonl",
        ["tok.jsonl"],
    ),
    "fertility": (
        {"c.jsonl": ("jsonl", jsonl({"id": "d", "source": "s", "text": "ab ba xy"})),
         "vocab.txt": ("lines", _VOCAB)},
        "fertility c.jsonl --vocab vocab.txt --per-document --out f.json",
        ["f.json"],
    ),
    "hpo run": (
        {
            "space.json": ("json", json.dumps(
                {"learning_rate": [1e-5, 1e-4], "batch_size": [8, 16], "warmup_steps": [0, 10]}
            )),
        },
        f"hpo run --space space.json --cmd {shlex.quote(_OBJECTIVE)} --trials 1 --study study.json",
        ["study.json"],
    ),
    "pipeline": (
        {
            "config.json": ("json", json.dumps({
                "inputs": [{"path": "c.jsonl", "source": "ehr"}],
                "clean": {"policies": {"ehr": {"min_chars": 1, "stopword_sentence_filter": False}}},
                "dedup": {"threshold": 0.75, "mode": "representative", "comparison": "strict",
                          "max_doc_words": 100},
                "anonymize": {"gazetteer": "names.txt", "case_insensitive": False,
                              "name_wildcard": "<N>", "date_wildcard": "<D>"},
                "stats": {"binary_mb": False},
            })),
        },
        "pipeline --config config.json --out-dir out",
        ["out"],
    ),
}
# files every run needs besides the corrupted one
_FIXED = {"c.jsonl": _DOCS, "names.txt": "Meier\n"}

_KEYS = st.sampled_from(
    ["id", "text", "labels", "scores", "tags", "patient_ref", "source", "date", "path",
     "inputs", "learning_rate", "batch_size", "warmup_steps", "policies", "gazetteer"]
) | st.text(max_size=4)
# a string may hold an unpaired surrogate, which JSON can escape but UTF-8 cannot encode
_STRING = st.text(max_size=6) | st.tuples(
    st.text(max_size=3), st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), st.text(max_size=3)
).map("".join)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats() | _STRING,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)
_LINE = st.text(alphabet=st.sampled_from(list("aAB5-1.,\t \"#[]{}:OIU0") + ["ä", "\x00"]), max_size=16)


def _nodes(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _mutate_json(data, value):
    """``value`` with one node replaced or deleted, or one key added."""
    path = data.draw(st.sampled_from(list(_nodes(value))))
    if not path:
        return data.draw(_JSON)
    value = copy.deepcopy(value)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "delete":
        del parent[path[-1]]
    elif action == "add" and isinstance(parent, dict):
        parent[data.draw(_KEYS)] = data.draw(_JSON)
    else:
        parent[path[-1]] = data.draw(_JSON)
    return value


def _corrupt(data, kind: str, text: str) -> bytes:
    raw = text.encode("utf-8")
    how = data.draw(st.sampled_from(
        ["empty", "bom", "bytes", "truncate", "line", "deep",
         *(["json"] * 5 if kind != "lines" else [])]
    ))
    if how == "empty":
        return b""
    if how == "deep":
        return b"[" * 100_000 + b"]" * 100_000
    if how == "bom":
        return b"\xef\xbb\xbf" + raw
    if how == "bytes":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00"])) + raw[at:]
    if how == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if how == "line":
        lines = text.split("\n")
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at : at + 1] = data.draw(st.lists(_LINE, max_size=2))
        return "\n".join(lines).encode("utf-8")
    if kind == "json":
        return json.dumps(_mutate_json(data, json.loads(text))).encode("utf-8")
    rows = [json.loads(line) for line in text.splitlines()]
    at = data.draw(st.integers(0, len(rows) - 1))
    rows[at] = _mutate_json(data, rows[at])
    # an unpaired surrogate, left raw by ensure_ascii=False, becomes its JSON escape
    return jsonl(*rows).encode("utf-8", "backslashreplace")


def _write_inputs(base: Path, command: str) -> None:
    files = COMMANDS[command][0]
    for name, content in {**_FIXED, **{n: c for n, (_, c) in files.items()}}.items():
        (base / name).write_text(content, encoding="utf-8")


def _run(base: Path, command: str) -> tuple[int, str]:
    """Exit code and stderr of ``command`` on the input files in ``base``."""
    _, args, outputs = COMMANDS[command]
    argv = [str(base / a) if (base / a).exists() or a in outputs else a for a in shlex.split(args)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_input_file_is_never_an_internal_error(command, data):
    files, args, outputs = COMMANDS[command]
    target = data.draw(st.sampled_from(sorted(files)))
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        _write_inputs(base, command)
        kind, content = files[target]
        (base / target).write_bytes(_corrupt(data, kind, content))
        code, stderr = _run(base, command)
        assert code in (0, 1, 2), stderr
        # a pipeline whose output fails its re-scan exits 2 after writing it
        if code != 0 and "documents with residuals" not in stderr:
            assert not [o for o in outputs if (base / o).exists()], stderr
        assert not list(base.rglob("*.tmp"))


@pytest.mark.parametrize(
    "command, target",
    [(c, f) for c in ("bench build", "eval clf", "tokenize") for f in sorted(COMMANDS[c][0])],
)
def test_a_byte_that_is_not_utf8_names_its_file(tmp_path, command, target):
    _write_inputs(tmp_path, command)
    (tmp_path / target).write_bytes(b"\xff" + (tmp_path / target).read_bytes())
    code, stderr = _run(tmp_path, command)
    assert code == 2
    assert stderr.startswith(f"error: {tmp_path / target}: "), stderr


@pytest.mark.parametrize(
    "command, target, content, message",
    [
        ("tokenize", "vocab.txt", "a\nb\n", "vocabulary has no [UNK] token"),
        ("hpo run", "space.json", '{"batch_sizes": [8]}', "unknown key 'batch_sizes' in search space"),
        ("eval ner", "gold.conll", "Herr\tO\nAnna B-PER\n", "line 2: "),
    ],
)
def test_vocabulary_and_search_space_errors_name_their_file(
    tmp_path, command, target, content, message
):
    _write_inputs(tmp_path, command)
    (tmp_path / target).write_text(content, encoding="utf-8")
    code, stderr = _run(tmp_path, command)
    assert code == 2
    assert stderr.startswith(f"error: {tmp_path / target}: {message}"), stderr
