"""medcorpus benchmark: seeded inputs, timed CLI jobs, output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline-mixed --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

For each workload the harness writes the inputs from the seed, measures
set-up time in fresh interpreters, then starts one worker process that runs
the workload's jobs through ``medcorpus.cli.main`` for about ``--seconds``
and checks every job's outputs. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
# the whole run must end well inside 180 seconds
RUN_DEADLINE_S = 170.0
# one core per job, as in the paper's single-core figures
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

IMPORT_TIMER = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import medcorpus.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(deadline: float) -> list[float]:
    """Seconds for a fresh interpreter to import medcorpus.cli. The first
    import writes bytecode caches and is not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        if i:
            samples.append(float(proc.stdout.strip()))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": THREAD_ENV,
        "platform": platform.platform(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_worker(name: str, work: Path, args, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--work", str(work), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.record_digests:
        cmd.append("--record-digests")
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{name}: worker did not finish before the deadline")
    if code != 0:
        raise RuntimeError(f"{name}: worker exited with {code}")
    return json.loads((work / "worker_result.json").read_text(encoding="utf-8"))


def run_workload(workload, args, deadline: float) -> dict:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    facts = workload.generate(args.seed, inputs)
    (inputs / "facts.json").write_text(json.dumps(facts, sort_keys=True), encoding="utf-8")

    setup = measure_setup(deadline)
    worker = run_worker(workload.name, work, args, deadline)
    job_q1, job_med, job_q3 = quartiles(worker["job_s"])
    ratio = worker["failed"] / worker["attempted"]
    print(
        f"{workload.name} seed {args.seed}: "
        f"job_s {job_med:.4f} s (q1 {job_q1:.4f}, q3 {job_q3:.4f}, n={len(worker['job_s'])}); "
        f"setup_s {statistics.median(setup):.4f} s (n={len(setup)}); "
        f"peak_rss_mb {worker['peak_rss_mb']:.1f} MiB; "
        f"ops_failed_ratio {ratio:g} ({worker['failed']}/{worker['attempted']})"
    )
    print(
        f"  unscaled job wall {statistics.median(worker['job_wall_s']):.4f} s; "
        f"{workload.calibration} piece {statistics.median(worker['piece_s']):.5f} s "
        f"(reference {worker['piece_reference_s']} s)"
    )
    for failure in worker["failures"]:
        print(f"  check failed: {failure}")
    if args.trace:
        metrics = trace_metrics(worker)
    else:
        metrics = {
            "job_s": job_med,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": workload.sizes(),
        "environment": environment(),
        "job_s_samples": worker["job_s"],
        "job_wall_s_samples": worker["job_wall_s"],
        "setup_s_samples": setup,
        "calibration_piece_s": worker["piece_s"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "failures": worker["failures"],
        "metrics": metrics,
    }
    if args.trace:
        result["traced_job_wall_s_samples"] = worker["traced_job_wall_s"]
        result["spans_file"] = worker["spans_file"]
    (work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"  sizes: {json.dumps(result['sizes'], sort_keys=True)}")
    print(f"  full result: {work / 'result.json'}")
    return result


def trace_metrics(worker: dict) -> dict:
    """Medians over the traced jobs of each per-layer metric, plus the
    traced and untraced job times and their difference."""
    layers = worker["layers"]
    metrics = {m: statistics.median(job[m] for job in layers) for m in layers[0]}
    metrics["trace.job_s"] = statistics.median(worker["traced_job_wall_s"])
    metrics["trace.untraced_job_s"] = statistics.median(worker["job_wall_s"])
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - metrics["trace.untraced_job_s"]
    units = spans.per_layer_units()
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6f} {units[name]}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"store the artifact digests of seed {DEFAULT_SEED} as the expected ones",
    )
    args = parser.parse_args(argv)

    if not (SRC / "medcorpus" / "cli.py").is_file():
        print(f"error: no medcorpus sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    results = []
    for workload in chosen:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            results.append(run_workload(workload, args, deadline))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    units = spans.per_layer_units() if args.trace else END_TO_END_UNITS
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    correct = failed == 0 and not any(r["failures"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
