"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload branch-scan --seed 0 --seconds 35 --trace 0

Runs from the root of a checkout and imports ``semiflow`` from its ``src``.
Every workload process is a fresh interpreter with BLAS/OpenMP pinned to one
thread and SEMIFLOW_WORKERS removed, so each job runs with ``workers=1``.

--trace 0 prints the gated end-to-end metrics:
  wall_ref_s    median over batches of the time in cli.run + cli.emit for the
                workload's job list, at the reference host speed: each batch's
                time is scaled by the reference kernel's speed during that
                batch (see reference.py; the first batch is a warm-up)
  setup_s       median over several fresh processes of the time from the
                first statement to every config parsed and validated, at the
                reference host speed (scaled by the kernel run after set-up)
  peak_rss_mb   ru_maxrss of the measuring process
  success_rate  jobs that completed and passed their output checks, over
                jobs attempted
--trace 1 prints the per-layer metrics of a traced run (see spans.py).

The last line of standard output is the result object; the line before it
holds the details: every wall_ref_s sample and its tail percentile, the raw
wall times and kernel call times behind them, report sha256 per job, failed
checks and the environment.  Seed 0 is the fixed default; seed 1
is the second seed for checking claims on unseen inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from reference import REF_CALL_S
from spans import PER_LAYER_UNITS

# fresh processes timed for setup_s, besides the measuring one
SETUP_PROCESSES = 4
# every workload process must end in time for the whole run to finish within 180 s
RUN_BUDGET_S = 170.0

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BATCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "batch.py")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")


class RunFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SEMIFLOW_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(request: dict, deadline: float) -> dict:
    """Run one workload process to completion and decode its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("time budget exhausted before a workload process could start")
    try:
        proc = subprocess.run([sys.executable, BATCH], input=json.dumps(request),
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=_child_env(), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"workload process exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RunFailed("workload process printed no result") from exc


def tail_percentile(samples: list) -> dict:
    """The highest percentile with at least ten samples at or beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 10:
        return {"percentile": None, "value": None, "samples": n}
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 10], "samples": n}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(jobs: list, seconds: float, deadline: float) -> tuple:
    request = {"mode": "setup", "jobs": jobs}
    _spawn(request, deadline)    # warm-up: byte-compiles src, fills the file cache
    setups = [_spawn(request, deadline) for _ in range(SETUP_PROCESSES)]
    result = _spawn({"mode": "measure", "jobs": jobs, "seconds": seconds}, deadline)
    setups.append(result)
    setup_raw = [s["setup_s"] for s in setups]
    setup_scaled = [s["setup_s"] * REF_CALL_S / s["setup_kernel_call_s"] for s in setups]
    walls = [sum(batch) for batch in result["job_seconds"]]
    scaled = [wall * REF_CALL_S / call_s for wall, call_s in zip(walls, result["kernel_call_s"])]
    metrics = {
        "wall_ref_s": _metric(statistics.median(scaled), "s"),
        "setup_s": _metric(statistics.median(setup_scaled), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MiB"),
        "success_rate": _metric(result["passed"] / result["attempted"], "ratio"),
    }
    details = {
        "wall_ref_s_samples": scaled,
        "wall_ref_s_tail": tail_percentile(scaled),
        "wall_s_median": statistics.median(walls),
        "wall_s_samples": walls,
        "kernel_call_s_samples": result["kernel_call_s"],
        "job_seconds_median": {job["name"]: statistics.median(times) for job, times
                               in zip(jobs, zip(*result["job_seconds"]))},
        "setup_s_samples": setup_scaled,
        "setup_s_raw_samples": setup_raw,
    }
    return result, metrics, details


def trace(workload: str, jobs: list, seed: int, seconds: float, short: bool,
          deadline: float) -> tuple:
    os.makedirs(TRACE_DIR, exist_ok=True)
    spans_path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.jsonl")
    parallel_job = workloads.jobs("branch-scan", seed, short)[0]
    result = _spawn({"mode": "trace", "jobs": jobs, "seconds": seconds,
                     "parallel_job": parallel_job, "spans_path": spans_path}, deadline)
    metrics = {name: _metric(result["metrics"].get(name, 0), unit)
               for name, unit in sorted(PER_LAYER_UNITS.items())}
    details = {"spans": os.path.relpath(spans_path, ROOT),
               "traced_batches": result["traced_batches"],
               "untraced_batches": result["untraced_batches"]}
    return result, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="toy job sizes, for testing the benchmark itself")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "semiflow", "__init__.py")):
        print(f"no semiflow sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    jobs = workloads.jobs(args.workload, args.seed, args.short)
    try:
        if args.trace:
            result, metrics, details = trace(args.workload, jobs, args.seed, args.seconds,
                                             args.short, deadline)
        else:
            result, metrics, details = measure(jobs, args.seconds, deadline)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed = result["attempted"] - result["passed"]
    details.update(workload=args.workload, seed=args.seed, jobs=len(jobs),
                   report_sha256=result["sha256"], failed_checks=result["problems"],
                   environment=result["environment"])
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
