"""Random-search hyperparameter optimization with median pruning.

A study maximizes an objective over a small space: log-uniform learning
rate, categorical batch size, uniform integer warmup steps. Trials report
intermediate values at increasing steps; once enough trials have finished,
a trial whose best value so far falls strictly below the median of the
finished trials' bests at the same step is stopped early.

The study is serialized to JSON after every trial, so an interrupted run
loses at most the trial in flight, and two runs with the same seed produce
byte-identical study files.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import re
import shlex
import statistics
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from .corpus import checked_object, read_json, write_json

STATE_RUNNING = "running"
STATE_PRUNED = "pruned"
STATE_COMPLETE = "complete"
STATE_FAILED = "failed"

DEFAULT_N_TRIALS = 100
DEFAULT_N_STARTUP_TRIALS = 5

# every study maximizes; the study file still records it
DIRECTION = "maximize"


# the keys of a search-space file and the shape of each value
_SPACE_SHAPES = {
    "learning_rate": "a [low, high] list of numbers",
    "batch_size": "a non-empty list of integers",
    "warmup_steps": "a [low, high] list of integers",
}


class TrialPruned(Exception):
    """Raised inside an objective when the engine decides to stop the trial."""


@dataclass(frozen=True)
class SearchSpace:
    lr_low: float = 1e-5
    lr_high: float = 1e-4
    batch_sizes: tuple[int, ...] = (8, 16)
    warmup_low: int = 0
    warmup_high: int = 1000

    def __post_init__(self) -> None:
        if not (0 < self.lr_low <= self.lr_high < math.inf):
            raise ValueError("learning rate range must satisfy 0 < low <= high, both finite")
        if not self.batch_sizes or min(self.batch_sizes) < 1:
            raise ValueError("batch_sizes must be non-empty, each at least 1")
        if self.warmup_low > self.warmup_high or self.warmup_low < 0:
            raise ValueError("warmup range must satisfy 0 <= low <= high")

    @classmethod
    def from_obj(cls, obj: object) -> "SearchSpace":
        """The space a search-space JSON object describes. A key it leaves
        out keeps its default; an unknown key or a value of the wrong shape
        is a ``ValueError``."""
        for key, value in checked_object(obj, "search space", _SPACE_SHAPES).items():
            kinds = (int, float) if key == "learning_rate" else int
            if not (
                isinstance(value, list)
                and (len(value) > 0 if key == "batch_size" else len(value) == 2)
                and all(isinstance(x, kinds) and not isinstance(x, bool) for x in value)
            ):
                raise ValueError(f"search space {key!r} must be {_SPACE_SHAPES[key]}, not {value!r}")
        kwargs = {}
        if "learning_rate" in obj:
            kwargs["lr_low"], kwargs["lr_high"] = (float(x) for x in obj["learning_rate"])
        if "batch_size" in obj:
            kwargs["batch_sizes"] = tuple(obj["batch_size"])
        if "warmup_steps" in obj:
            kwargs["warmup_low"], kwargs["warmup_high"] = obj["warmup_steps"]
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str | Path) -> "SearchSpace":
        """The space of a search-space JSON file; an error names the file."""
        obj = read_json(path)
        try:
            return cls.from_obj(obj)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Params:
    learning_rate: float
    batch_size: int
    warmup_steps: int

    def to_obj(self) -> dict:
        return asdict(self)


def sample_params(space: SearchSpace, rng: random.Random) -> Params:
    """Log-uniform learning rate, uniform categorical batch size, uniform
    integer warmup (inclusive bounds)."""
    lr = math.exp(rng.uniform(math.log(space.lr_low), math.log(space.lr_high)))
    batch = rng.choice(space.batch_sizes)
    warmup = rng.randint(space.warmup_low, space.warmup_high)
    return Params(lr, batch, warmup)


@dataclass
class Trial:
    trial_id: int
    params: Params
    intermediate: list[tuple[int, float]] = field(default_factory=list)
    state: str = STATE_RUNNING
    final_value: float | None = None
    # "<exception type>: <message>" of a failed trial
    error: str | None = None

    def report(self, step: int, value: float) -> None:
        if self.intermediate and step <= self.intermediate[-1][0]:
            raise ValueError(
                f"trial {self.trial_id}: step {step} not greater than previous "
                f"step {self.intermediate[-1][0]}"
            )
        _check_finite(self.trial_id, f"step {step} value", value)
        self.intermediate.append((step, value))

    def best_up_to(self, step: int) -> float | None:
        values = [v for s, v in self.intermediate if s <= step]
        return max(values) if values else None

    def to_obj(self) -> dict:
        return {
            "id": self.trial_id,
            "params": self.params.to_obj(),
            "intermediate": [[s, v] for s, v in self.intermediate],
            "state": self.state,
            "final_value": self.final_value,
            "error": self.error,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Trial":
        """The trial of a study file's entry. A NaN or infinite value, which
        ``save`` refuses but a hand-made or older study file can hold as a
        bare ``NaN`` or ``Infinity``, is a ``ValueError`` that names the
        trial."""
        params = Params(**obj["params"])
        trial = cls(obj["id"], params, [(int(s), float(v)) for s, v in obj["intermediate"]])
        trial.state = obj["state"]
        trial.final_value = obj["final_value"]
        trial.error = obj.get("error")
        for step, value in trial.intermediate:
            _check_finite(trial.trial_id, f"step {step} value", value)
        if trial.final_value is not None:
            _check_finite(trial.trial_id, "final value", trial.final_value)
        return trial


def _check_finite(trial_id: int, what: str, value: float) -> None:
    if not math.isfinite(value):  # no study can rank NaN or an infinity
        raise ValueError(f"trial {trial_id}: {what} {value} is not finite")


@dataclass
class Study:
    n_trials: int = DEFAULT_N_TRIALS
    n_startup_trials: int = DEFAULT_N_STARTUP_TRIALS
    seed: int = 0
    trials: list[Trial] = field(default_factory=list)

    def completed(self) -> list[Trial]:
        return [t for t in self.trials if t.state == STATE_COMPLETE]

    def best_trial(self) -> Trial:
        """Completed trial with the highest final value; ties go to the
        lowest trial id."""
        best: Trial | None = None
        for t in self.completed():
            assert t.final_value is not None
            if best is None or t.final_value > best.final_value:  # type: ignore[operator]
                best = t
        if best is None:
            raise ValueError("study has no completed trials")
        return best

    def to_obj(self) -> dict:
        return {
            "direction": DIRECTION,
            "n_trials": self.n_trials,
            "n_startup_trials": self.n_startup_trials,
            "seed": self.seed,
            "trials": [t.to_obj() for t in self.trials],
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_obj())

    @classmethod
    def load(cls, path: str | Path) -> "Study":
        """The study of a file that :meth:`save` wrote; an error names the file."""
        obj = read_json(path)
        if obj["direction"] != DIRECTION:
            raise ValueError(
                f"{path}: study direction {obj['direction']!r}; only {DIRECTION!r} is supported"
            )
        study = cls(obj["n_trials"], obj["n_startup_trials"], obj["seed"])
        try:
            study.trials = [Trial.from_obj(t) for t in obj["trials"]]
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return study


def should_prune(study: Study, trial: Trial, step: int) -> bool:
    """Median rule on best-so-far values.

    Never prunes while fewer than ``n_startup_trials`` trials have
    completed. Otherwise the trial is pruned iff its best value up to
    ``step`` is strictly below the median of the completed trials' best
    values up to the same step; completed trials without a report at or
    before ``step`` do not enter the median.
    """
    completed = study.completed()
    if len(completed) < study.n_startup_trials:
        return False
    current = trial.best_up_to(step)
    if current is None:
        raise ValueError(f"trial {trial.trial_id} has no report at or before step {step}")
    others = [b for t in completed if (b := t.best_up_to(step)) is not None]
    if not others:
        return False
    return current < statistics.median(others)


Objective = Callable[[Params, Callable[[int, float], None]], float]


def run_study(
    space: SearchSpace,
    objective: Objective,
    n_trials: int = DEFAULT_N_TRIALS,
    seed: int = 0,
    n_startup_trials: int = DEFAULT_N_STARTUP_TRIALS,
    study_path: str | Path | None = None,
    n_jobs: int = 1,
) -> Study:
    """Run trials with random sampling and median pruning.

    The objective receives sampled params and a ``report(step, value)``
    callback; the callback raises :class:`TrialPruned` when the trial
    should stop, and the objective's return value becomes the final value.
    Any other exception marks the trial failed, with the exception's type
    and message as its ``error``, and the study moves on; so does a
    reported or final value that is NaN or infinite. A trial joins
    ``study.trials`` when it starts, which stays in trial-id order.

    Params are sampled in trial-id order regardless of ``n_jobs``. With
    ``n_jobs`` > 1 trials run in parallel and pruning compares against
    whatever has completed at decision time, so the pruned set can differ
    from the sequential schedule; full determinism holds for n_jobs=1.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    study = Study(n_trials=n_trials, n_startup_trials=n_startup_trials, seed=seed)
    rng = random.Random(seed)
    lock = threading.Lock()

    def run_one(trial: Trial) -> None:
        with lock:
            bisect.insort(study.trials, trial, key=lambda t: t.trial_id)
        try:
            def report(step: int, value: float) -> None:
                with lock:
                    trial.report(step, value)
                    prune = should_prune(study, trial, step)
                if prune:
                    raise TrialPruned(f"trial {trial.trial_id} pruned at step {step}")

            final = float(objective(trial.params, report))
            _check_finite(trial.trial_id, "final value", final)
            with lock:
                trial.final_value = final
                trial.state = STATE_COMPLETE
        except TrialPruned:
            with lock:
                trial.state = STATE_PRUNED
        except Exception as exc:
            with lock:
                trial.state = STATE_FAILED
                trial.error = f"{type(exc).__name__}: {exc}"
        if study_path is not None:
            with lock:
                study.save(study_path)

    trials = [Trial(i, sample_params(space, rng)) for i in range(n_trials)]
    if n_jobs == 1:
        for trial in trials:
            run_one(trial)
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            list(pool.map(run_one, trials))
    return study


def _last_line(file) -> str:
    """The last non-blank line of the last 4 KiB of a binary ``file``."""
    size = file.seek(0, os.SEEK_END)
    file.seek(max(0, size - 4096))
    lines = file.read().decode("utf-8", "replace").splitlines()
    return next((line.strip() for line in reversed(lines) if line.strip()), "")


_STEP_LINE = re.compile(r"^step=(\d+)\s+value=([^\s]+)\s*$")
_FINAL_LINE = re.compile(r"^final=([^\s]+)\s*$")


def command_objective(command: str) -> Objective:
    """Wrap an external command as an objective.

    The command is run once per trial with the sampled params appended as
    ``--learning-rate``, ``--batch-size``, ``--warmup-steps`` flags and
    exported as HPO_* environment variables. It must print
    ``step=<int> value=<float>`` lines while training and a terminal
    ``final=<float>`` line, exiting 0. When the trial is pruned, or any
    other exception ends it while the output is read, the process is
    terminated. A non-zero exit raises a ``RuntimeError`` that quotes the
    last line the command wrote to stderr.
    """
    argv_base = shlex.split(command)

    def objective(params: Params, report: Callable[[int, float], None]) -> float:
        argv = argv_base + [
            "--learning-rate", repr(params.learning_rate),
            "--batch-size", str(params.batch_size),
            "--warmup-steps", str(params.warmup_steps),
        ]
        env = dict(os.environ)
        env.update(
            HPO_LEARNING_RATE=repr(params.learning_rate),
            HPO_BATCH_SIZE=str(params.batch_size),
            HPO_WARMUP_STEPS=str(params.warmup_steps),
        )
        final: float | None = None
        # stderr goes to a file: a second pipe could fill up and block the
        # command while stdout is read line by line
        with tempfile.TemporaryFile() as stderr, subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=stderr, text=True, env=env
        ) as proc:
            try:
                assert proc.stdout is not None
                for line in proc.stdout:
                    m = _STEP_LINE.match(line)
                    if m:
                        report(int(m.group(1)), float(m.group(2)))
                        continue
                    m = _FINAL_LINE.match(line)
                    if m:
                        final = float(m.group(1))
            except BaseException:
                # pruned, or the report failed: the trial is over either way;
                # leaving the with block closes the pipe and waits
                proc.terminate()
                raise
            code = proc.wait()
            if code != 0:
                raise RuntimeError(
                    f"objective command exited with {code}: {_last_line(stderr)}"
                )
        if final is None:
            raise RuntimeError("objective command printed no final= line")
        return final

    return objective
