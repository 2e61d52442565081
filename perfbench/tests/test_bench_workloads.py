"""Determinism of the benchmark's input generators."""

import pytest

import workloads


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    one, two, other = tmp_path / "one", tmp_path / "two", tmp_path / "other"
    for d in (one, two, other):
        d.mkdir()
    facts_one = workload.generate(7, one)
    facts_two = workload.generate(7, two)
    workload.generate(8, other)
    assert facts_one == facts_two
    assert _snapshot(one) == _snapshot(two)
    differing = [n for n, data in _snapshot(one).items() if _snapshot(other)[n] != data]
    assert differing, "another seed should change the inputs"


def test_filler_gazetteer_keeps_planted_parts_and_avoids_corpus_words():
    entries = workloads.filler_gazetteer(["Anna", "Weber"], 500, seed=3, avoid={"Befund"})
    assert len(entries) == len(set(entries)) == 500
    assert {"Anna", "Weber"} <= set(entries)
    assert "Befund" not in entries
    assert all(e[0].isupper() for e in entries)
    assert entries == workloads.filler_gazetteer(["Anna", "Weber"], 500, seed=3, avoid={"Befund"})


def test_scores_are_seeded(tmp_path):
    task = tmp_path / "task"
    task.mkdir()
    (task / "labels.txt").write_text("5-100\n5-101\n", encoding="utf-8")
    (task / "test.jsonl").write_text(
        '{"id": "d1", "labels": ["5-100"], "text": "x"}\n'
        '{"id": "d2", "labels": ["5-101"], "text": "y"}\n',
        encoding="utf-8",
    )
    workloads.write_scores(tmp_path, 5)
    first = (tmp_path / "scores.jsonl").read_bytes()
    workloads.write_scores(tmp_path, 5)
    assert (tmp_path / "scores.jsonl").read_bytes() == first
    workloads.write_scores(tmp_path, 6)
    assert (tmp_path / "scores.jsonl").read_bytes() != first
