"""One workload process: set up, then run the job batch back to back.

Reads a request as JSON on stdin and prints its result as one JSON line.
Set-up time runs from the first statement of this process (the clock read
below) to every config parsed and validated.  Each batch time sums only the
``cli.run`` and ``cli.emit`` calls; output checks run after the clock stops.
``semiflow`` is found through PYTHONPATH, which the caller points at the
checkout's ``src``.

Modes:
  setup    import and parse, then report the set-up time
  measure  untraced batches for the given seconds; the first is a warm-up.
           The reference kernel runs after each job (see reference.py)
  trace    alternate untraced and traced batches, then rerun one
           transversality job with two workers
"""

import time

_T0 = time.perf_counter()

import gc
import hashlib
import json
import os
import resource
import statistics
import sys

from semiflow import cli
from semiflow.errors import SemiflowError

import checks


def parse_all(jobs):
    """Parse and validate every job's config; a job whose config is refused
    keeps its problem and fails each time it is attempted."""
    parsed, parse_s = [], 0.0
    for job in jobs:
        start = time.perf_counter()
        try:
            cfg, problem = cli.parse_config(job["config"]), None
        except SemiflowError as exc:
            cfg, problem = None, f"{type(exc).__name__}: {exc}"
        parse_s += time.perf_counter() - start
        parsed.append((job, cfg, problem))
    return parsed, parse_s


def run_batch(parsed, tracer=None, pace=None):
    """Run every job once; returns the seconds each job spent in run+emit
    and its (emitted bytes, problems).  ``pace``, if given, runs the
    reference kernel after each job, outside the timed part."""
    run, emit = cli.run, cli.emit
    if tracer is not None:
        run, emit = tracer.wrap("cli.run", run), tracer.wrap("cli.emit", emit)
    outcomes, seconds = [], []
    for job, cfg, problem in parsed:
        if cfg is None:
            outcomes.append((None, [problem]))
            seconds.append(0.0)
            continue
        data, problems = None, []
        start = time.perf_counter()
        try:
            data = emit(run(cfg))
        except SemiflowError as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        seconds.append(time.perf_counter() - start)
        outcomes.append((data, problems))
        if pace is not None:
            pace.after_job(seconds[-1])
    return seconds, outcomes


class Ledger:
    """Checks every emitted report and keeps the pass/fail tally, the first
    failures, and the sha256 of each job's report bytes (which must repeat
    within a run)."""

    KEPT_PROBLEMS = 20

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.sha256 = {}
        self.problems = []

    def record(self, parsed, outcomes) -> int:
        report_bytes = 0
        for (job, _, _), (data, problems) in zip(parsed, outcomes):
            self.attempted += 1
            if data is not None:
                report_bytes += len(data)
                digest = hashlib.sha256(data).hexdigest()
                first = self.sha256.setdefault(job["name"], digest)
                if digest != first:
                    problems = problems + ["report bytes differ between repetitions"]
                try:
                    doc = json.loads(data)
                except ValueError as exc:
                    problems = problems + [f"report is not JSON: {exc}"]
                else:
                    problems = problems + checks.check(job["experiment"], doc, job["expect"])
            if not problems:
                self.passed += 1
            elif len(self.problems) < self.KEPT_PROBLEMS:
                self.problems.append({"job": job["name"], "problems": problems[:3]})
        return report_bytes


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "semiflow_workers_cleared": "SEMIFLOW_WORKERS" not in os.environ,
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                    and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(parsed, seconds: float) -> dict:
    import reference

    ledger = Ledger()
    start = time.perf_counter()
    ledger.record(parsed, run_batch(parsed, pace=reference.Pace())[1])     # warm-up
    batches, call_s = [], []
    while True:
        gc.collect()
        batch_start = time.perf_counter()
        pace = reference.Pace()
        job_seconds, outcomes = run_batch(parsed, pace=pace)
        ledger.record(parsed, outcomes)
        batches.append(job_seconds)
        call_s.append(pace.call_s())
        now = time.perf_counter()
        if now - start + (now - batch_start) > seconds:
            break
    return {"job_seconds": batches, "kernel_call_s": call_s, "peak_rss_mb": _peak_rss_mb(),
            "attempted": ledger.attempted, "passed": ledger.passed,
            "problems": ledger.problems, "sha256": ledger.sha256}


def _parallel_rerun(job: dict, ledger: Ledger) -> dict:
    """Run one job with one worker, then with two; compare time and bytes."""
    runs = []
    for workers in (1, 2):
        config = json.loads(job["config"])
        config["workers"] = workers
        runs.append(dict(job, name=f"{job['name']}-{workers}w", config=json.dumps(config)))
    parsed, _ = parse_all(runs)
    (one, two), outcomes = run_batch(parsed)
    ledger.record(parsed, outcomes)
    data = [out for out, _ in outcomes]
    return {"parallel.speedup_2w": one / two if two else 0.0,
            "parallel.bytes_identical_2w": int(data[0] is not None and data[0] == data[1])}


def trace(parsed, seconds: float, parallel_job: dict, spans_path: str) -> dict:
    from spans import LAYER_SPANS, Tracer

    ledger = Ledger()
    start = time.perf_counter()
    ledger.record(parsed, run_batch(parsed)[1])     # warm-up
    untraced, traced, layer_times, coverage = [], [], [], []
    while True:
        pair_start = time.perf_counter()
        gc.collect()
        job_seconds, outcomes = run_batch(parsed)
        ledger.record(parsed, outcomes)
        untraced.append(sum(job_seconds))
        gc.collect()
        tracer = Tracer()
        with tracer.patched():
            job_seconds, outcomes = run_batch(parsed, tracer)
        report_bytes = ledger.record(parsed, outcomes)
        wall = sum(job_seconds)
        traced.append(wall)
        selfs = tracer.self_times()
        layer_times.append(selfs)
        coverage.append(sum(selfs.get(name, 0.0) for name in LAYER_SPANS) / wall)
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    tracer.write(spans_path)

    metrics = {f"{name}_s": statistics.median(t.get(name, 0.0) for t in layer_times)
               for name in LAYER_SPANS}
    metrics.update(tracer.counters)
    metrics["canon.report_bytes"] = report_bytes
    branches = metrics.get("dynamics.branches", 0)
    words = metrics.get("dynamics.words_scanned", 0)
    metrics["dynamics.branch_yield"] = branches / words if words else 0.0
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.coverage"] = statistics.median(coverage)
    metrics.update(_parallel_rerun(parallel_job, ledger))
    return {"metrics": metrics, "attempted": ledger.attempted, "passed": ledger.passed,
            "problems": ledger.problems, "sha256": ledger.sha256,
            "traced_batches": len(traced), "untraced_batches": len(untraced)}


def main() -> int:
    request = json.loads(sys.stdin.read())
    parsed, parse_s = parse_all(request["jobs"])
    setup_s = time.perf_counter() - _T0
    # imported only now, so that building its arrays stays out of setup_s
    import reference
    reference.kernel()      # warm-up: first touch of the kernel's arrays
    pace = reference.Pace(share=reference.SETUP_SHARE)
    pace.after_job(setup_s)
    setup = {"setup_s": setup_s, "setup_kernel_call_s": pace.call_s()}
    mode = request["mode"]
    if mode == "setup":
        print(json.dumps(setup))
        return 0
    if mode == "measure":
        result = measure(parsed, request["seconds"])
    else:
        result = trace(parsed, request["seconds"], request["parallel_job"],
                       request["spans_path"])
        result["metrics"]["cli.parse_s"] = parse_s
    result.update(setup)
    result["environment"] = _environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
