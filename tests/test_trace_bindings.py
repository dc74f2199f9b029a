"""The benchmark's traced run still finds every library binding it patches.

``bench/spans.py`` replaces module attributes of the library by name
(``cli.inverse_branches``, ``transversality.branch_table``, ...) and reads
fields of their results, so a refactor that drops or renames one of them
breaks the traced benchmark run.  This runs the short job lists of the
three workloads under the tracer, checks every report against the
identities of ``bench/checks.py`` and checks that the branch, flow,
residual, eigenfunction and emit layers saw work: a shortcut that reaches a
layer without going through the binding the bench patches shows up here as
a missing span.
"""

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from semiflow import TrigPolynomial, cli, spectral  # noqa: E402


def test_traced_short_workloads_pass_their_checks():
    tracer = spans.Tracer()
    with tracer.patched():
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs(workload, 0, short=True):
                data = cli.emit(cli.run(cli.parse_config(job["config"])))
                problems = checks.check(job["experiment"], json.loads(data), job["expect"])
                assert problems == [], (job["name"], problems)
    assert tracer.counters["dynamics.words_scanned"] > 0
    assert tracer.counters["dynamics.branches"] > 0
    calls = {(name, tracer.spans[parent][0])
             for name, _, _, parent in tracer.spans if parent >= 0}
    assert ("dynamics.advance", "mixing.eigenfunction") in calls
    assert ("dynamics.advance", "spectral.build_ulam") in calls
    names = {name for name, *_ in tracer.spans}
    assert {"dynamics.inverse_branches", "canon.emit", "mixing.residual"} <= names
    # the residual counter reads the report that cocycle_residual takes first
    assert tracer.counters["mixing.tail_over_residual"] > 0


def test_traced_ulam_counters_read_the_matrix_the_eigensolve_uses():
    # the counters come from the dense view; they must describe the CSR matrix
    f = TrigPolynomial(1.0, ((1, 0.0, 0.3), (2, 0.1, 0.0)), 2)
    tracer = spans.Tracer()
    with tracer.patched():
        op = spectral.build_ulam(f, 2.0, 32, 8, 37, seed=4, mode="monte-carlo")
    csr = op.sparse
    assert tracer.counters["spectral.ulam_dim"] == csr.shape[0]
    assert tracer.counters["spectral.ulam_nnz"] == csr.nnz
    defect = float(np.max(np.abs(csr.sum(axis=0) - 1.0)))
    assert defect > 0.0
    assert tracer.counters["spectral.column_sum_defect"] == defect
