"""Tests of the benchmark itself, on toy job sizes (``--short``).

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import batch  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def _run(*args, root=ROOT):
    return subprocess.run([sys.executable, os.path.join(root, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=root, timeout=170)


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metric_names_match_benchmark_json(workload):
    res = _result("--workload", workload, "--seed", "1", "--seconds", "1", "--short")
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert res["metrics"]["success_rate"]["value"] == 1.0


def test_per_layer_metric_names_match_benchmark_json():
    res = _result("--workload", "branch-scan", "--seconds", "1", "--short", "--trace", "1")
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


def test_workloads_in_benchmark_json():
    assert [w["name"] for w in _declared()["workloads"]] == list(workloads.WORKLOADS)


def test_counters_repeat_across_traced_runs():
    args = ("--workload", "lab-survey", "--seconds", "1", "--short", "--trace", "1")
    first, second = _result(*args), _result(*args)
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    for name in ("dynamics.words_scanned", "spectral.ulam_nnz", "dynamics.roof_crossings"):
        assert first["metrics"][name]["value"] > 0
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_corrupted_report_fails_and_lowers_success_rate():
    parsed, _ = batch.parse_all(workloads.jobs("branch-scan", 0, short=True))
    _, outcomes = batch.run_batch(parsed)
    clean = batch.Ledger()
    clean.record(parsed, outcomes)
    assert clean.passed == clean.attempted == len(parsed)

    idx = next(i for i, (job, _, _) in enumerate(parsed) if job["experiment"] == "branches")
    doc = json.loads(outcomes[idx][0])
    assert checks.check("branches", doc, {}) == []
    doc["payload"]["weight_sum"] = 0.9
    assert checks.check("branches", doc, {})
    corrupted = list(outcomes)
    corrupted[idx] = (json.dumps(doc).encode(), [])
    ledger = batch.Ledger()
    ledger.record(parsed, corrupted)
    assert ledger.passed == ledger.attempted - 1


def test_changed_bytes_between_repetitions_fail():
    parsed, _ = batch.parse_all(workloads.jobs("flow-transport", 0, short=True))
    _, outcomes = batch.run_batch(parsed)
    ledger = batch.Ledger()
    ledger.record(parsed, outcomes)
    data, problems = outcomes[0]
    changed = [(data.replace(b'"t":2.0', b'"t":2.00'), problems)] + outcomes[1:]
    ledger.record(parsed, changed)
    assert ledger.passed == ledger.attempted - 1


def _with_params(job, **params):
    config = json.loads(job["config"])
    config["params"].update(params)
    return dict(job, config=json.dumps(config))


def test_semiflow_errors_count_as_failed_jobs():
    mixing, norms, _, _, spectrum = workloads.jobs("lab-survey", 0, short=True)[:5]
    jobs = [_with_params(mixing, depth=0),              # refused by parse_config
            norms,
            _with_params(spectrum, nx=256, ns=128)]     # ResourceLimit in cli.run
    parsed, _ = batch.parse_all(jobs)
    _, outcomes = batch.run_batch(parsed)
    ledger = batch.Ledger()
    ledger.record(parsed, outcomes)
    assert (ledger.attempted, ledger.passed) == (3, 1)
    assert "ResourceLimit" in ledger.problems[1]["problems"][0]


def test_seeded_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.jobs(workload, 7) == workloads.jobs(workload, 7)
        assert workloads.jobs(workload, 7) != workloads.jobs(workload, 8)
    nominal = json.loads(workloads.jobs("branch-scan", 0)[2]["config"])
    assert nominal["ceiling"]["harmonics"] == [[1, 0.0, 0.2]]
    assert nominal["params"]["x"] == 0.3
    for seed in range(1, 20):
        cob = json.loads(workloads.jobs("flow-transport", seed)[2]["config"])["ceiling"]
        (_, c1, s1), (_, c2, s2) = cob["harmonics"]
        assert c1 == c2 == 0.0 and s1 == -s2
        assert abs(s2 / workloads.COB_PSI_AMPLITUDE - 1.0) <= workloads.JITTER


def test_reference_kernel_runs_for_its_share_of_each_job():
    pace = reference.Pace()
    pace.after_job(0.0)
    assert pace.calls == 1
    pace.after_job(1.0)
    assert pace.seconds >= reference.SHARE * 1.0
    assert pace.call_s() == pace.seconds / pace.calls
    assert reference.Pace().call_s() == reference.REF_CALL_S


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "branch-scan", "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
