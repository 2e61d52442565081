import datetime
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from medcorpus.benchmark import (
    CodeRecord,
    EmptyTaskError,
    InfeasibleSplitError,
    LabeledExample,
    Split,
    SplitSpec,
    TokenLabeledExample,
    assign_codes,
    build_task,
    export_task,
    icd_category,
    label_distribution,
    load_code_records,
    load_conll,
    load_examples_jsonl,
    select_labels,
    stratified_split,
    validate_bio,
    write_conll,
    write_examples_jsonl,
)
from medcorpus.corpus import Document, write_jsonl

D = datetime.date


def ex(doc_id, labels, patient=None):
    return LabeledExample(doc_id, f"text {doc_id}", set(labels), patient)


# --- code records -----------------------------------------------------------


def test_code_record_validation():
    CodeRecord("p1", "I21.0", "icd10", D(2021, 1, 1))
    CodeRecord("p1", "5-511.2", "ops", D(2021, 1, 1))
    with pytest.raises(ValueError):
        CodeRecord("p1", "5-511", "icd10", D(2021, 1, 1))
    with pytest.raises(ValueError):
        CodeRecord("p1", "I21.0", "ops", D(2021, 1, 1))
    with pytest.raises(ValueError):
        CodeRecord("p1", "I21.0", "snomed", D(2021, 1, 1))
    with pytest.raises(ValueError):
        CodeRecord("", "I21.0", "icd10", D(2021, 1, 1))


def test_load_code_records_csv(tmp_path):
    path = tmp_path / "codes.csv"
    path.write_text(
        "patient_ref,code,system,date\n"
        "p1,I21.0,icd10,2021-03-04\n"
        "p2,5-511.2,ops,2020-12-31\n"
    )
    records = load_code_records(path)
    assert len(records) == 2
    assert records[0].code_date == D(2021, 3, 4)
    assert records[1].system == "ops"


def test_load_code_records_missing_column(tmp_path):
    path = tmp_path / "codes.csv"
    path.write_text("patient_ref,code,system\np1,I21.0,icd10\n")
    with pytest.raises(ValueError):
        load_code_records(path)


def test_load_code_records_short_row_names_file_and_line(tmp_path):
    path = tmp_path / "codes.csv"
    path.write_text("patient_ref,code,system,date\np1,I21.0,icd10,2021-03-04\np,5-100\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 3: "):
        load_code_records(path)


def test_load_code_records_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "codes.csv"
    path.write_text("\ufeffpatient_ref,code,system,date\np1,I21.0,icd10,2021-03-04\n")
    assert load_code_records(path)[0].patient_ref == "p1"


def test_icd_category_truncation():
    assert icd_category("I21.0") == "I21"
    assert icd_category("E11") == "E11"


# --- code assignment --------------------------------------------------------


def _assignment_fixture():
    docs = [
        Document("d1", "ops", "Bericht eins", doc_date=D(2021, 3, 4), patient_ref="p1"),
        Document("d2", "ops", "Bericht zwei", doc_date=D(2021, 5, 6), patient_ref="p1"),
        Document("d3", "ops", "Bericht drei", doc_date=D(2021, 3, 4), patient_ref="p2"),
    ]
    codes = [
        CodeRecord("p1", "I21.0", "icd10", D(2021, 3, 4)),
        CodeRecord("p1", "5-511.2", "ops", D(2021, 5, 6)),
        CodeRecord("p2", "E11.9", "icd10", D(2020, 1, 1)),
    ]
    return docs, codes


def test_assign_codes_date_matched():
    docs, codes = _assignment_fixture()
    examples, dropped = assign_codes(docs, codes, policy="date-matched")
    by_id = {e.doc_id: e.labels for e in examples}
    assert by_id == {"d1": {"I21"}, "d2": {"5-511.2"}}
    assert dropped == 1  # d3's only code is dated elsewhere


def test_assign_codes_patient_all():
    docs, codes = _assignment_fixture()
    examples, dropped = assign_codes(docs, codes, policy="patient-all")
    by_id = {e.doc_id: e.labels for e in examples}
    assert by_id["d1"] == {"I21", "5-511.2"}
    assert by_id["d2"] == {"I21", "5-511.2"}
    assert by_id["d3"] == {"E11"}
    assert dropped == 0


def test_assign_codes_patient_all_superset_of_date_matched():
    docs, codes = _assignment_fixture()
    dated, _ = assign_codes(docs, codes, policy="date-matched")
    full, _ = assign_codes(docs, codes, policy="patient-all")
    full_by_id = {e.doc_id: e.labels for e in full}
    for e in dated:
        assert e.labels <= full_by_id[e.doc_id]


def test_assign_codes_chapter_filter():
    docs, codes = _assignment_fixture()
    examples, dropped = assign_codes(
        docs, codes, policy="patient-all", chapter_filter="5-"
    )
    assert {e.doc_id for e in examples} == {"d1", "d2"}
    assert all(e.labels == {"5-511.2"} for e in examples)
    assert dropped == 1


def test_assign_codes_raw_codes_flag():
    docs, codes = _assignment_fixture()
    examples, _ = assign_codes(docs, codes, policy="date-matched", icd_as_category=False)
    assert {e.doc_id: e.labels for e in examples}["d1"] == {"I21.0"}


def test_assign_codes_missing_date_rejected_only_when_needed():
    doc = Document("d1", "ops", "Bericht", doc_date=None, patient_ref="p1")
    codes = [CodeRecord("p1", "I21.0", "icd10", D(2021, 1, 1))]
    with pytest.raises(ValueError):
        assign_codes([doc], codes, policy="date-matched")
    examples, _ = assign_codes([doc], codes, policy="patient-all")
    assert examples[0].labels == {"I21"}


def test_assign_codes_missing_patient_ref():
    doc = Document("d1", "ops", "Bericht", doc_date=D(2021, 1, 1))
    with pytest.raises(ValueError):
        assign_codes([doc], [], policy="patient-all")


def test_assign_codes_unknown_policy():
    with pytest.raises(ValueError):
        assign_codes([], [], policy="everything")


# --- stratified split -------------------------------------------------------


def test_split_exact_sizes_and_partition():
    examples = [ex(f"d{i}", [f"L{i % 4}"]) for i in range(20)]
    spec = SplitSpec(n_train=10, n_valid=5, n_test=5, seed=1)
    split = stratified_split(examples, spec, group_by_patient=False)
    assert len(split.train) == 10
    assert len(split.valid) == 5
    assert len(split.test) == 5
    assert len(split.rest) == 0
    ids = [e.doc_id for part in (split.train, split.valid, split.test) for e in part]
    assert sorted(ids) == sorted(e.doc_id for e in examples)


def test_split_overflow_goes_to_rest():
    examples = [ex(f"d{i}", ["L"]) for i in range(12)]
    spec = SplitSpec(n_train=4, n_valid=2, n_test=2, seed=0)
    split = stratified_split(examples, spec, group_by_patient=False)
    assert len(split.rest) == 4


def test_split_too_few_examples():
    with pytest.raises(InfeasibleSplitError):
        stratified_split([ex("d0", ["L"])], SplitSpec(n_train=2, n_valid=0, n_test=0))


def test_split_patient_groups_stay_together():
    examples = [ex(f"d{i}", [f"L{i % 3}"], patient=f"p{i // 2}") for i in range(12)]
    # all-even capacities: pairs cannot tile an odd-sized split
    spec = SplitSpec(n_train=6, n_valid=4, n_test=2, seed=3)
    split = stratified_split(examples, spec)
    location = {}
    for name, part in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        for e in part:
            location.setdefault(e.patient_ref, set()).add(name)
    assert all(len(splits) == 1 for splits in location.values())


def test_split_oversized_patient_group_infeasible():
    examples = [ex(f"d{i}", ["L"], patient="p0") for i in range(4)]
    spec = SplitSpec(n_train=1, n_valid=1, n_test=1, seed=0)
    with pytest.raises(InfeasibleSplitError):
        stratified_split(examples, spec)


def test_split_deterministic_for_seed():
    rng = random.Random(99)
    labels = ["A", "B", "C", "D", "E"]
    examples = [
        ex(f"d{i}", rng.sample(labels, rng.randint(1, 3)), patient=f"p{i // 2}")
        for i in range(40)
    ]
    spec = SplitSpec(n_train=20, n_valid=8, n_test=8, seed=5)
    first = stratified_split(examples, spec)
    second = stratified_split(examples, spec)
    for a, b in zip((first.train, first.valid, first.test), (second.train, second.valid, second.test)):
        assert [e.doc_id for e in a] == [e.doc_id for e in b]


def test_split_balances_a_rare_label():
    # 8 of 40 examples carry R; expect it spread roughly per split fractions
    examples = [ex(f"r{i}", ["R", "C"]) for i in range(8)]
    examples += [ex(f"c{i}", ["C"]) for i in range(32)]
    spec = SplitSpec(n_train=20, n_valid=10, n_test=10, seed=2)
    split = stratified_split(examples, spec, group_by_patient=False)
    n_r = lambda part: sum("R" in e.labels for e in part)
    assert n_r(split.train) == 4
    assert n_r(split.valid) == 2
    assert n_r(split.test) == 2


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(n_train=-1, n_valid=0, n_test=0)
    with pytest.raises(ValueError):
        SplitSpec(min_test_support=-1)


# --- label selection and task fixed point -----------------------------------


def test_select_labels_ordering_and_support():
    pool = [ex(f"a{i}", ["A"]) for i in range(5)]
    pool += [ex(f"b{i}", ["B"]) for i in range(5)]
    pool += [ex(f"c{i}", ["C"]) for i in range(2)]
    test = pool[:3] + pool[5:8] + pool[10:11]  # A:3 B:3 C:1
    assert select_labels(pool, test, min_test_support=3) == ["A", "B"]
    assert select_labels(pool, test, min_test_support=1) == ["A", "B", "C"]


def test_select_labels_empty_task():
    pool = [ex("d0", ["A"])]
    with pytest.raises(EmptyTaskError):
        select_labels(pool, [], min_test_support=1)


def test_build_task_drops_unsupported_label_and_iterates():
    examples = [ex(f"x{i}", ["X"]) for i in range(12)]
    examples += [ex("r0", ["R"]), ex("r1", ["R"])]
    spec = SplitSpec(n_train=6, n_valid=3, n_test=3, seed=0, min_test_support=2)
    bundle = build_task(examples, spec, group_by_patient=False)
    assert bundle.labels == ["X"]
    assert bundle.n_dropped_empty == 2
    assert bundle.n_iterations == 2
    assert len(bundle.split.test) == 3
    all_kept = bundle.split.train + bundle.split.valid + bundle.split.test
    assert all(e.labels == {"X"} for e in all_kept)


def test_build_task_restricts_surviving_label_sets():
    # R never reaches support but its carriers also have X, so none drop
    examples = [ex(f"x{i}", ["X"]) for i in range(10)]
    examples += [ex("m0", ["X", "R"]), ex("m1", ["X", "R"])]
    spec = SplitSpec(n_train=6, n_valid=3, n_test=3, seed=0, min_test_support=2)
    bundle = build_task(examples, spec, group_by_patient=False)
    assert bundle.labels == ["X"]
    assert bundle.n_iterations == 1
    for part in (bundle.split.train, bundle.split.valid, bundle.split.test):
        for e in part:
            assert "R" not in e.labels


def test_build_task_test_support_holds():
    rng = random.Random(11)
    labels = [f"L{i}" for i in range(6)]
    examples = [
        ex(f"d{i}", rng.sample(labels, rng.randint(1, 2))) for i in range(120)
    ]
    spec = SplitSpec(n_train=60, n_valid=30, n_test=30, seed=4, min_test_support=5)
    bundle = build_task(examples, spec, group_by_patient=False)
    from collections import Counter

    test_counts = Counter()
    for e in bundle.split.test:
        test_counts.update(e.labels)
    for lab in bundle.labels:
        assert test_counts[lab] >= 5


# --- BIO and token examples -------------------------------------------------


def test_validate_bio():
    validate_bio(["O", "B-X", "I-X", "O", "B-Y"])
    validate_bio(["B-X", "B-X", "I-X"])
    with pytest.raises(ValueError):
        validate_bio(["I-X"])
    with pytest.raises(ValueError):
        validate_bio(["B-X", "O", "I-X"])
    with pytest.raises(ValueError):
        validate_bio(["B-X", "I-Y"])
    with pytest.raises(ValueError):
        validate_bio(["X-tag"])


def test_token_example_validation():
    with pytest.raises(ValueError):
        TokenLabeledExample("d", ["a"], ["O", "O"])
    with pytest.raises(ValueError):
        TokenLabeledExample("d", [], [])


# --- serialization ----------------------------------------------------------


def test_examples_jsonl_round_trip(tmp_path):
    examples = [
        LabeledExample("d1", "Größe gemessen", {"B", "A"}, "p1"),
        LabeledExample("d2", "zwei", {"C"}, None),
    ]
    path = tmp_path / "ex.jsonl"
    write_examples_jsonl(path, examples)
    lines = path.read_text().splitlines()
    assert '"labels": ["A", "B"]' in lines[0]  # sorted on disk
    assert "Größe" in lines[0]  # not ascii-escaped
    assert "patient_ref" not in lines[0]  # exported splits carry no patient
    write_jsonl(
        path,
        [{"id": ex.doc_id, "text": ex.text, "labels": sorted(ex.labels), "patient_ref": ex.patient_ref}
         for ex in examples],
    )
    loaded = load_examples_jsonl(path)
    assert loaded[0].labels == {"A", "B"}
    assert loaded[0].patient_ref == "p1"
    assert loaded[1].patient_ref is None


def test_conll_round_trip(tmp_path):
    examples = [
        TokenLabeledExample("a", ["Herr", "Meier", "kam"], ["B-PER", "I-PER", "O"]),
        TokenLabeledExample("b", ["Befund", "ohne", "Auffälligkeit"], ["O", "O", "O"]),
    ]
    path = tmp_path / "t.conll"
    write_conll(path, examples)
    text = path.read_text()
    assert "Herr\tB-PER\n" in text
    assert "\n\n" in text  # blank line between documents
    loaded = load_conll(path)
    assert [e.tokens for e in loaded] == [e.tokens for e in examples]
    assert [e.tags for e in loaded] == [e.tags for e in examples]


# characters the file formats treat specially, beside any other non-surrogate
_SPECIAL = st.sampled_from(["\t", "\n", "\r", "\ufeff", "\x0b", "\x85", "\u2028", '"', "\\", " "])
_TEXT = st.text(_SPECIAL | st.characters(blacklist_categories=("Cs",)), max_size=5)


@st.composite
def _bio_tags(draw, n):
    tags = []
    for _ in range(n):
        kinds = ["O", "B", "I"] if tags and tags[-1] != "O" else ["O", "B"]
        kind = draw(st.sampled_from(kinds))
        if kind == "O":
            tags.append("O")
        elif kind == "B":
            tags.append("B-" + draw(st.text(st.sampled_from("PER\t\n"), max_size=3)))
        else:
            tags.append("I-" + tags[-1][2:])
    return tags


@st.composite
def _tagged_examples(draw):
    examples = []
    for i in range(draw(st.integers(0, 3))):
        tokens = draw(st.lists(_TEXT, min_size=1, max_size=4))
        examples.append(TokenLabeledExample(f"d{i}", tokens, draw(_bio_tags(len(tokens)))))
    return examples


@settings(max_examples=300)
@given(_tagged_examples())
def test_load_conll_reads_back_what_write_conll_writes(tmp_path_factory, examples):
    base = tmp_path_factory.mktemp("conll")
    expected = [(ex.tokens, ex.tags) for ex in examples]
    # the same lines written without checks: write_conll refuses exactly what
    # the reader would not give back
    raw = base / "raw.conll"
    raw.write_text(
        "\n".join("".join(f"{t}\t{g}\n" for t, g in zip(ex.tokens, ex.tags)) for ex in examples),
        encoding="utf-8",
    )
    try:
        readable = [(ex.tokens, ex.tags) for ex in load_conll(raw)] == expected
    except ValueError:
        readable = False
    path = base / "t.conll"
    if readable:
        write_conll(path, examples)
        assert path.read_bytes() == raw.read_bytes()
        assert [(ex.tokens, ex.tags) for ex in load_conll(path)] == expected
    else:
        with pytest.raises(ValueError, match=r"^example 'd\d': token .* is no CoNLL line"):
            write_conll(path, examples)
        assert not path.exists()


@pytest.mark.parametrize("token", ["a\tb", "a\nb", "a\rb", "\ufeffa"])
def test_conll_export_refuses_a_token_the_reader_would_split(tmp_path, token):
    bad = TokenLabeledExample("d1", [token, "c"], ["O", "O"])
    with pytest.raises(ValueError, match=f"^example 'd1': token {re.escape(repr(token))} "):
        write_conll(tmp_path / "t.conll", [bad])
    assert list(tmp_path.iterdir()) == []


_LABELED = st.builds(
    LabeledExample,
    doc_id=_TEXT,
    text=_TEXT,
    labels=st.sets(_TEXT, min_size=1, max_size=3),
    patient_ref=st.none() | _TEXT,
)


@settings(max_examples=300)
@given(st.lists(_LABELED, max_size=4))
def test_load_examples_reads_back_what_write_examples_writes(tmp_path_factory, examples):
    path = tmp_path_factory.mktemp("examples") / "ex.jsonl"
    write_examples_jsonl(path, examples)
    # the patient reference stays out of exported splits by design
    assert load_examples_jsonl(path) == [replace(ex, patient_ref=None) for ex in examples]


def test_examples_export_refuses_text_that_utf8_cannot_encode(tmp_path):
    path = tmp_path / "ex.jsonl"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
        write_examples_jsonl(path, [LabeledExample("d1", "Befund \udcff", {"A"})])
    assert list(tmp_path.iterdir()) == []


def test_conll_export_enforces_bio(tmp_path):
    bad = TokenLabeledExample("a", ["x"], ["I-PER"])
    with pytest.raises(ValueError):
        write_conll(tmp_path / "t.conll", [bad])


def test_conll_export_failing_part_way_keeps_old_file(tmp_path):
    path = tmp_path / "t.conll"
    write_conll(path, [TokenLabeledExample("a", ["alt"], ["O"])])
    before = path.read_bytes()
    examples = [
        TokenLabeledExample("a", ["x"], ["B-X"]),
        TokenLabeledExample("b", ["y"], ["I-Y"]),  # dangling inside tag
    ]
    with pytest.raises(ValueError):
        write_conll(path, examples)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.conll"]


def test_conll_bad_line(tmp_path):
    path = tmp_path / "t.conll"
    path.write_text("token without tag\n")
    with pytest.raises(ValueError):
        load_conll(path)


@pytest.mark.parametrize("line", ["Herr\tgarbage", "Herr\t", "Herr\tI-PER", "Herr\tPER"])
def test_load_conll_rejects_tags_that_are_not_bio(tmp_path, line):
    path = tmp_path / "t.conll"
    path.write_text(f"Befund\tO\n\nvon\tO\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 4: "):
        load_conll(path)


def test_load_conll_checks_each_document_on_its_own(tmp_path):
    # an I- tag cannot continue a run from the document before
    path = tmp_path / "t.conll"
    path.write_text("Herr\tB-PER\n\nMeier\tI-PER\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r": line 3: dangling I-PER after None"):
        load_conll(path)


def test_load_conll_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "t.conll"
    path.write_text("\ufeffHerr\tO\nMeier\tB-PER\n", encoding="utf-8")
    assert load_conll(path)[0].tokens == ["Herr", "Meier"]


def test_label_distribution_counts():
    split = Split(
        train=[ex("d1", ["A", "B"]), ex("d2", ["A"])],
        valid=[ex("d3", ["B"])],
        test=[ex("d4", ["A"])],
    )
    assert label_distribution(split, ["A", "B"]) == [("A", 2, 0, 1), ("B", 1, 1, 0)]


def test_export_task_files(tmp_path):
    examples = [ex(f"d{i}", ["A"] if i % 2 else ["A", "B"]) for i in range(20)]
    spec = SplitSpec(n_train=10, n_valid=5, n_test=5, seed=0, min_test_support=2)
    bundle = build_task(examples, spec, group_by_patient=False)
    out = tmp_path / "task"
    export_task(bundle, out)
    assert (out / "train.jsonl").exists()
    assert (out / "valid.jsonl").exists()
    assert (out / "test.jsonl").exists()
    assert (out / "labels.txt").read_text().splitlines() == bundle.labels
    dist = (out / "distribution.tsv").read_text().splitlines()
    assert dist[0] == "Class\tTrain\tValid\tTest"
    assert len(dist) == 1 + len(bundle.labels)
    assert len(load_examples_jsonl(out / "train.jsonl")) == 10
