import json
import math
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from medcorpus.hpo import (
    Params,
    SearchSpace,
    Study,
    Trial,
    TrialPruned,
    command_objective,
    run_study,
    sample_params,
    should_prune,
)

PARAMS = Params(1e-4, 16, 100)


def completed_trial(trial_id, curve):
    trial = Trial(trial_id, PARAMS)
    for step, value in enumerate(curve, start=1):
        trial.report(step, value)
    trial.state = "complete"
    trial.final_value = curve[-1]
    return trial


# --- sampling and space -----------------------------------------------------


def test_sample_params_ranges():
    space = SearchSpace(lr_low=1e-5, lr_high=1e-3, batch_sizes=(8, 32), warmup_low=10, warmup_high=20)
    rng = random.Random(0)
    for _ in range(200):
        p = sample_params(space, rng)
        assert 1e-5 <= p.learning_rate <= 1e-3
        assert p.batch_size in (8, 32)
        assert 10 <= p.warmup_steps <= 20


def test_sample_params_log_uniform():
    # log-uniform over [1e-5, 1e-1]: about half the draws land below 1e-3
    space = SearchSpace(lr_low=1e-5, lr_high=1e-1)
    rng = random.Random(1)
    draws = [sample_params(space, rng).learning_rate for _ in range(4000)]
    below_geo_mean = sum(lr < 1e-3 for lr in draws) / len(draws)
    assert 0.45 < below_geo_mean < 0.55
    # a uniform sampler would put ~99% of draws above 1e-3


def test_sample_params_deterministic():
    space = SearchSpace()
    a = [sample_params(space, random.Random(7)) for _ in range(10)]
    b = [sample_params(space, random.Random(7)) for _ in range(10)]
    assert a == b


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(lr_low=0.0)
    with pytest.raises(ValueError):
        SearchSpace(lr_low=1e-3, lr_high=1e-4)
    with pytest.raises(ValueError):
        SearchSpace(batch_sizes=())
    with pytest.raises(ValueError):
        SearchSpace(warmup_low=100, warmup_high=10)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("bound", ["lr_low", "lr_high"])
def test_search_space_refuses_a_non_finite_learning_rate_bound(bound, bad):
    # a bare Infinity or NaN in a space file parses to these
    with pytest.raises(ValueError, match="both finite"):
        SearchSpace(**{bound: bad})


@pytest.mark.parametrize("sizes", [(0,), (8, -8), (0, -8)])
def test_search_space_refuses_a_batch_size_below_one(sizes):
    with pytest.raises(ValueError, match="each at least 1"):
        SearchSpace(batch_sizes=sizes)
    with pytest.raises(ValueError, match="each at least 1"):
        SearchSpace.from_obj({"batch_size": list(sizes)})


def test_search_space_from_obj():
    space = SearchSpace.from_obj(
        {"learning_rate": [1e-5, 1e-3], "batch_size": [4, 8], "warmup_steps": [5, 50]}
    )
    assert space.lr_low == 1e-5
    assert space.lr_high == 1e-3
    assert space.batch_sizes == (4, 8)
    assert (space.warmup_low, space.warmup_high) == (5, 50)
    assert SearchSpace.from_obj({}) == SearchSpace()


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1], "search space must be a JSON object, not list"),
        ({"learning_rate": 5}, "'learning_rate' must be a [low, high] list of numbers"),
        ({"learning_rate": [1e-5]}, "'learning_rate' must be"),
        ({"learning_rate": ["1e-5", 1e-4]}, "'learning_rate' must be"),
        ({"batch_size": "16"}, "'batch_size' must be a non-empty list of integers"),
        ({"batch_size": []}, "'batch_size' must be"),
        ({"batch_size": [8, 16.5]}, "'batch_size' must be"),
        ({"batch_size": [True]}, "'batch_size' must be"),
        ({"warmup_steps": [0, 10, 20]}, "'warmup_steps' must be a [low, high] list of integers"),
        ({"warmup_steps": [0, 1.5]}, "'warmup_steps' must be"),
        ({"learning_rates": [1e-5, 1e-4]}, "unknown key 'learning_rates' in search space"),
    ],
)
def test_search_space_from_obj_rejects_wrong_shapes(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SearchSpace.from_obj(obj)


# --- trial bookkeeping ------------------------------------------------------


def test_trial_report_requires_increasing_steps():
    trial = Trial(0, PARAMS)
    trial.report(1, 0.5)
    trial.report(3, 0.6)
    with pytest.raises(ValueError):
        trial.report(3, 0.7)
    with pytest.raises(ValueError):
        trial.report(2, 0.7)


def test_trial_best_up_to():
    trial = Trial(0, PARAMS)
    trial.report(1, 0.5)
    trial.report(2, 0.9)
    trial.report(3, 0.7)
    assert trial.best_up_to(0) is None
    assert trial.best_up_to(1) == 0.5
    assert trial.best_up_to(2) == 0.9
    assert trial.best_up_to(3) == 0.9  # best so far, not latest


# --- median pruning rule ----------------------------------------------------


def five_finished_study():
    study = Study(n_startup_trials=5)
    curves = [
        [0.50, 0.60, 0.70],
        [0.40, 0.55, 0.65],
        [0.60, 0.70, 0.80],
        [0.30, 0.45, 0.55],
        [0.55, 0.65, 0.75],
    ]
    for i, curve in enumerate(curves):
        study.trials.append(completed_trial(i, curve))
    # medians of best-up-to: step1 0.50, step2 0.60, step3 0.70
    return study


def test_prune_below_median():
    study = five_finished_study()
    trial = Trial(6, PARAMS)
    trial.report(1, 0.45)
    study.trials.append(trial)
    assert should_prune(study, trial, 1)


def test_survive_at_median_then_prune():
    study = five_finished_study()
    trial = Trial(5, PARAMS)
    trial.report(1, 0.50)
    study.trials.append(trial)
    assert not should_prune(study, trial, 1)  # equality survives: strictly below only
    trial.report(2, 0.55)
    assert should_prune(study, trial, 2)


def test_survivor_above_all_medians():
    study = five_finished_study()
    trial = Trial(7, PARAMS)
    study.trials.append(trial)
    for step, value in enumerate([0.52, 0.61, 0.71], start=1):
        trial.report(step, value)
        assert not should_prune(study, trial, step)


def test_startup_guard_blocks_pruning():
    study = five_finished_study()
    study.trials[4].state = "pruned"  # only 4 completions remain
    trial = Trial(6, PARAMS)
    trial.report(1, 0.01)
    study.trials.append(trial)
    assert not should_prune(study, trial, 1)


def test_prune_requires_a_report():
    study = five_finished_study()
    trial = Trial(6, PARAMS)
    study.trials.append(trial)
    with pytest.raises(ValueError):
        should_prune(study, trial, 1)


def test_prune_skips_median_when_no_overlap():
    study = Study(n_startup_trials=2)
    for i in range(3):
        t = Trial(i, PARAMS)
        t.report(10, 0.9)  # completed trials only report late steps
        t.state = "complete"
        t.final_value = 0.9
        study.trials.append(t)
    trial = Trial(3, PARAMS)
    trial.report(1, 0.0)
    study.trials.append(trial)
    assert not should_prune(study, trial, 1)


_curve = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=3
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_curve, min_size=5, max_size=8), st.integers(min_value=1, max_value=3))
def test_dominating_trial_never_pruned(curves, step):
    study = Study(n_startup_trials=5)
    for i, curve in enumerate(curves):
        study.trials.append(completed_trial(i, curve))
    ceiling = max(t.best_up_to(step) for t in study.trials)
    trial = Trial(99, PARAMS)
    for s in range(1, step + 1):
        trial.report(s, ceiling)
    study.trials.append(trial)
    assert not should_prune(study, trial, step)


# --- study state ------------------------------------------------------------


def test_best_trial_ties_go_to_lowest_id():
    study = Study()
    study.trials.append(completed_trial(0, [0.5]))
    study.trials.append(completed_trial(1, [0.9]))
    study.trials.append(completed_trial(2, [0.9]))
    assert study.best_trial().trial_id == 1


def test_best_trial_ignores_pruned_and_failed():
    study = Study()
    high = completed_trial(0, [0.99])
    high.state = "pruned"
    study.trials.append(high)
    study.trials.append(completed_trial(1, [0.5]))
    assert study.best_trial().trial_id == 1


def test_best_trial_empty_study():
    with pytest.raises(ValueError):
        Study().best_trial()


def test_study_save_load_round_trip(tmp_path):
    study = five_finished_study()
    path = tmp_path / "study.json"
    study.save(path)
    text = path.read_text()
    assert text.endswith("\n")
    assert '"direction": "maximize"' in text
    loaded = Study.load(path)
    assert loaded.to_obj() == study.to_obj()
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.json", "study.json"]


# --- run_study --------------------------------------------------------------


def curve_objective(params, report):
    """Deterministic function of params: level set by warmup fraction."""
    level = params.warmup_steps / 1000.0
    for step in range(1, 4):
        report(step, level + step / 10.0)
    return level + 0.3


def test_run_study_deterministic(tmp_path):
    space = SearchSpace()
    a = run_study(space, curve_objective, n_trials=20, seed=3, n_startup_trials=3,
                  study_path=tmp_path / "a.json")
    b = run_study(space, curve_objective, n_trials=20, seed=3, n_startup_trials=3,
                  study_path=tmp_path / "b.json")
    assert a.to_obj() == b.to_obj()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_run_study_prunes_and_completes():
    study = run_study(SearchSpace(), curve_objective, n_trials=30, seed=0, n_startup_trials=5)
    states = [t.state for t in study.trials]
    assert states.count("complete") >= 5
    assert "pruned" in states  # low-warmup trials fall below the median
    assert states[:5].count("pruned") == 0  # startup trials always finish
    best = study.best_trial()
    assert best.final_value == max(t.final_value for t in study.completed())
    for t in study.trials:
        if t.state == "pruned":
            assert t.final_value is None


def test_run_study_saved_file_matches_final_state(tmp_path):
    path = tmp_path / "study.json"
    study = run_study(SearchSpace(), curve_objective, n_trials=8, seed=1,
                      n_startup_trials=2, study_path=path)
    assert Study.load(path).to_obj() == study.to_obj()


def test_run_study_records_failures(tmp_path):
    def flaky(params, report):
        if params.batch_size == 8:
            raise RuntimeError("boom")
        return 1.0

    path = tmp_path / "study.json"
    study = run_study(SearchSpace(batch_sizes=(8, 16)), flaky, n_trials=12, seed=0,
                      study_path=path)
    states = {t.state for t in study.trials}
    assert "failed" in states and "complete" in states
    for t in study.trials:
        assert t.error == ("RuntimeError: boom" if t.state == "failed" else None)
    saved = json.loads(path.read_text())["trials"]
    assert [t["error"] for t in saved] == [t.error for t in study.trials]


def test_study_load_rejects_other_direction(tmp_path):
    path = tmp_path / "study.json"
    five_finished_study().save(path)
    path.write_text(path.read_text().replace('"maximize"', '"minimize"'))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*'minimize'"):
        Study.load(path)


def test_run_study_rejects_bad_n_jobs():
    with pytest.raises(ValueError):
        run_study(SearchSpace(), curve_objective, n_trials=1, n_jobs=0)


def test_run_study_parallel_smoke():
    study = run_study(SearchSpace(), curve_objective, n_trials=6, seed=0,
                      n_startup_trials=6, n_jobs=2)
    assert len(study.completed()) == 6


def test_run_study_parallel_saves_only_started_trials_in_id_order(tmp_path, monkeypatch):
    snapshots = []
    monkeypatch.setattr(
        Study, "save", lambda self, path: snapshots.append([(t.trial_id, t.state) for t in self.trials])
    )

    def slow(params, report):
        time.sleep(0.002)
        return 1.0

    n_jobs, n_trials = 4, 24
    # a short switch interval makes the workers interleave as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        study = run_study(SearchSpace(), slow, n_trials=n_trials, n_startup_trials=n_trials,
                          study_path=tmp_path / "study.json", n_jobs=n_jobs)
    finally:
        sys.setswitchinterval(interval)
    assert len(snapshots) == n_trials
    for snapshot in snapshots:
        ids = [trial_id for trial_id, _ in snapshot]
        assert ids == sorted(ids)
        # the saving trial has finished; at most the other workers' trials run
        assert [state for _, state in snapshot].count("running") <= n_jobs - 1
    assert snapshots[-1] == [(i, "complete") for i in range(n_trials)]
    assert [t.trial_id for t in study.trials] == list(range(n_trials))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_study_non_finite_final_value_fails_the_trial(bad):
    values = iter([bad, 0.5])
    study = run_study(SearchSpace(), lambda params, report: next(values), n_trials=2)
    assert [t.state for t in study.trials] == ["failed", "complete"]
    assert study.trials[0].final_value is None
    assert study.trials[0].error == f"ValueError: trial 0: final value {bad} is not finite"
    assert study.best_trial().trial_id == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_study_non_finite_reported_value_fails_the_trial(bad):
    def objective(params, report):
        report(1, 0.5)
        report(2, bad)
        return 1.0

    study = run_study(SearchSpace(), objective, n_trials=1)
    (trial,) = study.trials
    assert trial.state == "failed"
    assert trial.intermediate == [(1, 0.5)]
    assert trial.error == f"ValueError: trial 0: step 2 value {bad} is not finite"
    with pytest.raises(ValueError, match="no completed trials"):
        study.best_trial()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["final value", "step 2 value"])
def test_study_load_rejects_a_non_finite_value(tmp_path, bad, where):
    # a hand-made or older study file can hold what run_study no longer writes
    study = Study(trials=[completed_trial(0, [0.1, 0.2]), completed_trial(1, [0.3, 0.4])])
    if where == "final value":
        study.trials[0].final_value = bad
    else:
        study.trials[0].intermediate[1] = (2, bad)
    path = tmp_path / "study.json"
    # save refuses such a study, so the file is written by hand, with the
    # bare NaN and Infinity tokens of Python's json module
    path.write_text(json.dumps(study.to_obj()), encoding="utf-8")
    message = f"trial 0: {where} {bad} is not finite"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {re.escape(message)}$"):
        Study.load(path)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        Trial.from_obj(study.trials[0].to_obj())
    # a finite study of the same shape loads, and its best trial is the
    # highest final value
    study.trials[0] = completed_trial(0, [0.1, 0.2])
    study.save(path)
    assert Study.load(path).best_trial().trial_id == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_study_save_of_a_non_finite_value_raises_and_writes_nothing(tmp_path, bad):
    study = Study(trials=[completed_trial(0, [0.1, 0.2])])
    study.trials[0].final_value = bad
    path = tmp_path / "study.json"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: Out of range float"):
        study.save(path)
    assert list(tmp_path.iterdir()) == []


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TRIAL = st.builds(
    Trial,
    trial_id=st.integers(0, 10**6),
    params=st.builds(Params, _FINITE, st.integers(1, 4096), st.integers(0, 10**6)),
    intermediate=st.lists(st.tuples(st.integers(0, 10**6), _FINITE), max_size=3),
    state=st.sampled_from(["running", "pruned", "complete", "failed"]),
    final_value=st.none() | _FINITE,
    error=st.none() | st.text(max_size=8),
)


@settings(max_examples=200)
@given(st.builds(
    Study, st.integers(0, 1000), st.integers(0, 10), st.integers(-(2**63), 2**63),
    st.lists(_TRIAL, max_size=3),
))
def test_study_load_reads_back_what_save_writes(tmp_path_factory, study):
    path = tmp_path_factory.mktemp("study") / "study.json"
    study.save(path)
    assert Study.load(path) == study


# --- command objective ------------------------------------------------------


def test_command_objective_round_trip(tmp_path):
    script = tmp_path / "obj.py"
    script.write_text(
        "import argparse\n"
        "p = argparse.ArgumentParser()\n"
        "p.add_argument('--learning-rate', type=float)\n"
        "p.add_argument('--batch-size', type=int)\n"
        "p.add_argument('--warmup-steps', type=int)\n"
        "a = p.parse_args()\n"
        "for i in range(1, 4):\n"
        "    print(f'step={i} value={i}.0', flush=True)\n"
        "print(f'final={a.batch_size}', flush=True)\n"
    )
    objective = command_objective(f"python3 {script}")
    seen = []
    final = objective(PARAMS, lambda s, v: seen.append((s, v)))
    assert seen == [(1, 1.0), (2, 2.0), (3, 3.0)]
    assert final == float(PARAMS.batch_size)


def test_command_objective_env_vars(tmp_path):
    script = tmp_path / "obj.py"
    script.write_text("import os\nprint('final=' + os.environ['HPO_WARMUP_STEPS'])\n")
    objective = command_objective(f"python3 {script}")
    assert objective(PARAMS, lambda s, v: None) == float(PARAMS.warmup_steps)


def test_command_objective_terminates_pruned_process(tmp_path):
    script = tmp_path / "obj.py"
    script.write_text(
        "import sys, time\n"
        "print('step=1 value=0.1', flush=True)\n"
        "time.sleep(60)\n"
        "print('final=0.5', flush=True)\n"
    )
    objective = command_objective(f"python3 {script}")

    def report(step, value):
        raise TrialPruned("stop")

    start = time.monotonic()
    with pytest.raises(TrialPruned):
        objective(PARAMS, report)
    assert time.monotonic() - start < 20


def test_command_objective_terminates_process_of_failed_trial(tmp_path):
    # a repeated step makes Trial.report raise ValueError, not TrialPruned
    marker = tmp_path / "finished"
    script = tmp_path / "obj.py"
    script.write_text(
        "import time\n"
        "print('step=1 value=0.1', flush=True)\n"
        "print('step=1 value=0.2', flush=True)\n"
        "time.sleep(2)\n"
        f"open({str(marker)!r}, 'w').close()\n"
        "print('final=0.5', flush=True)\n"
    )
    study = run_study(SearchSpace(), command_objective(f"python3 {script}"), n_trials=1, seed=0)
    assert study.trials[0].state == "failed"
    assert study.trials[0].error.startswith("ValueError: ")
    time.sleep(3)
    assert not marker.exists()


def test_command_objective_nonzero_exit(tmp_path):
    script = tmp_path / "obj.py"
    script.write_text("import sys\nprint('step=1 value=0.1')\nsys.exit(3)\n")
    with pytest.raises(RuntimeError):
        command_objective(f"python3 {script}")(PARAMS, lambda s, v: None)


def test_command_objective_failure_quotes_last_stderr_line(tmp_path):
    # more stderr than a pipe buffer holds, written before any stdout line
    script = tmp_path / "obj.py"
    script.write_text(
        "import sys\n"
        "for i in range(20000):\n"
        "    print(f'warning {i}', file=sys.stderr)\n"
        "print('step=1 value=0.1', flush=True)\n"
        "print('out of memory at step 1\\n', file=sys.stderr)\n"
        "sys.exit(1)\n"
    )
    objective = command_objective(f"python3 {script}")
    message = "objective command exited with 1: out of memory at step 1"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        objective(PARAMS, lambda s, v: None)
    study = run_study(SearchSpace(), objective, n_trials=1, seed=0)
    assert study.trials[0].state == "failed"
    assert study.trials[0].error == f"RuntimeError: {message}"


def test_command_objective_missing_final(tmp_path):
    script = tmp_path / "obj.py"
    script.write_text("print('step=1 value=0.1')\n")
    with pytest.raises(RuntimeError):
        command_objective(f"python3 {script}")(PARAMS, lambda s, v: None)
