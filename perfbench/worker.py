"""Runs one workload's jobs in a fresh process and writes their measurements.

Started by ``run.py`` once per run, so that the peak resident memory it
reports belongs to this run alone. Every job calls ``medcorpus.cli.main``
in-process, one call at a time. With ``--trace 1`` untraced and traced jobs
alternate, and the traced ones also yield per-layer metrics and spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import resource
import shutil
import sys
import time
from pathlib import Path

import calibrate
import spans
from workloads import DEFAULT_SEED, WORKLOADS, artifact_digests, record_digests, recorded_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_JOBS = 3
MIN_TRACED_PAIRS = 2


def import_layers() -> dict:
    """Import medcorpus from this checkout's ``src`` and return its layers."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import medcorpus
    from medcorpus import anonymize, benchmark, cli, corpus, dedup, metrics, pipeline, subword

    if Path(medcorpus.__file__).resolve().parent != (src / "medcorpus").resolve():
        raise SystemExit(f"medcorpus imported from {medcorpus.__file__}, not from {src}")
    return {
        "cli": cli, "pipeline": pipeline, "corpus": corpus, "dedup": dedup,
        "anonymize": anonymize, "subword": subword, "benchmark": benchmark, "metrics": metrics,
    }


class JobRunner:
    """Runs the jobs of one workload and keeps count of their operations."""

    def __init__(self, workload, work: Path, cli, expected: dict | None) -> None:
        self.workload = workload
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.facts = json.loads((self.inputs / "facts.json").read_text(encoding="utf-8"))
        self.cli = cli
        self.expected = expected
        self.first_digests: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, sampler: calibrate.SpeedSampler | None = None) -> float:
        """One job: returns the seconds spent inside CLI calls, without the
        time the sampler took."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        # each CLI call of a user starts with an empty regex cache
        re.purge()
        steps = self.workload.steps(self.inputs, self.out, self.facts)
        elapsed = 0.0
        failed = 0
        problems: list[str] = []
        for step in steps:
            if problems:
                # a later call cannot run on the outputs of a failed one
                failed += 1
                continue
            if step.prepare is not None:
                step.prepare()
            with sampler or contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    code = self.cli.main(step.argv)
                except Exception as exc:  # a raise is a failed operation, not a crash
                    code = f"{type(exc).__name__}: {exc}"
                elapsed += time.perf_counter() - start
            if code != 0:
                failed += 1
                problems.append(f"{' '.join(step.argv[:2])} returned {code}")
        if not problems:
            try:
                problems = self.workload.check(self.inputs, self.out, self.facts)
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"output check raised {type(exc).__name__}: {exc}")
            digests = artifact_digests(self.out)
            if self.first_digests is None:
                self.first_digests = digests
            elif digests != self.first_digests:
                problems.append("artifacts differ from the first job of this run")
            if self.expected is not None and digests != self.expected:
                changed = sorted(
                    k for k in set(digests) | set(self.expected)
                    if digests.get(k) != self.expected.get(k)
                )
                problems.append(f"artifacts differ from recorded digests: {changed[:5]}")
            if problems:
                # a failed output check fails every operation of the job
                failed = len(steps)
        self.attempted += len(steps)
        self.failed += failed
        self.failures.extend(problems)
        return elapsed - (sampler.inside_s if sampler else 0.0)


def expected_digests(name: str, seed: int, recording: bool) -> dict | None:
    if seed != DEFAULT_SEED or recording:
        return None
    recorded = recorded_digests()
    if name not in recorded:
        raise SystemExit(f"no recorded digests for {name}")
    return recorded[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    layers = import_layers()
    expected = expected_digests(args.workload, args.seed, args.record_digests)
    runner = JobRunner(WORKLOADS[args.workload], args.work, layers["cli"], expected)
    result: dict = {"job_s": [], "job_wall_s": [], "piece_s": [], "traced_job_wall_s": [], "layers": []}
    tracer = spans.Tracer() if args.trace else None
    trace_spans: list[list[dict]] = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        sampler = calibrate.SpeedSampler(runner.workload.calibration)
        wall = runner.run(sampler)
        result["job_wall_s"].append(wall)
        result["job_s"].append(sampler.scale(wall))
        result["piece_s"].append(sum(sampler.samples) / len(sampler.samples))
        result["piece_reference_s"] = sampler.reference_s
        if tracer is not None:
            tracer.reset()
            spans.install(tracer, layers)
            try:
                result["traced_job_wall_s"].append(runner.run())
            finally:
                tracer.restore()
            result["layers"].append(tracer.layer_metrics())
            trace_spans.append([s.to_obj() for s in tracer.spans])
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        rounds = len(result["job_s"])
        enough = rounds >= (MIN_TRACED_PAIRS if tracer is not None else MIN_JOBS)
        if enough and now - started + longest > args.seconds:
            break

    if tracer is not None:
        with open(args.work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"jobs": trace_spans}, fh)
        result["spans_file"] = str(args.work / "spans.json")
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures[:20],
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if args.record_digests:
        if runner.failures or runner.first_digests is None:
            raise SystemExit(f"{args.workload}: not recording digests of failed jobs")
        record_digests(args.workload, runner.first_digests)
    with open(args.work / "worker_result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
