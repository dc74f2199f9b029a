"""Output checks on emitted reports, from the identities the paper gives.

``check`` takes the decoded JSON report of one job and returns the list of
violated identities; an empty list means the job passed.
"""

from __future__ import annotations

import math

# Branch weights are sums of ell^-n, which are inexact in binary for ell = 3;
# every weight identity (the branch sum, m <= m_upper <= 1, n <= 1) holds up
# to this rounding allowance, the tolerance of the branch-sum identity.
WEIGHT_SUM_TOL = 1e-10
LEADING_EIGENVALUE_TOL = 1e-8
PARTITION_DEFECT_TOL = 1e-12


def _branches(payload, expect):
    problems = []
    if not payload["rows"]:
        problems.append("no branches")
    defect = abs(payload["weight_sum"] - 1.0)
    if not defect <= WEIGHT_SUM_TOL:
        problems.append(f"branch weight sum {payload['weight_sum']!r} is not 1 within "
                        f"{WEIGHT_SUM_TOL}")
    return problems


def _spectrum(payload, expect):
    vals = [complex(re, im) for re, im in payload["eigenvalues"]]
    problems = []
    if not vals or not abs(vals[0] - 1.0) <= LEADING_EIGENVALUE_TOL:
        problems.append(f"leading Ulam eigenvalue {vals[:1]} is not 1 within "
                        f"{LEADING_EIGENVALUE_TOL}")
    if any(not abs(v) <= 1.0 + LEADING_EIGENVALUE_TOL for v in vals):
        problems.append("an Ulam eigenvalue lies outside the unit disk")
    return problems


def _transversality(payload, expect):
    problems = []
    tol = WEIGHT_SUM_TOL
    for r in payload["records"]:
        m, m_upper = r["m_value"], r["m_upper"]
        if not (0.0 <= m <= m_upper + tol and m_upper <= 1.0 + tol):
            problems.append(f"t={r['t']}: not 0 <= m_value <= m_upper <= 1 "
                            f"({m!r}, {m_upper!r})")
        if not r["n_value"] <= 1.0 + tol:
            problems.append(f"t={r['t']}: n_value {r['n_value']!r} exceeds 1")
    return problems


def _norms(payload, expect):
    problems = []
    if not payload["partition_defect"] <= PARTITION_DEFECT_TOL:
        problems.append(f"mask partition defect {payload['partition_defect']!r} exceeds "
                        f"{PARTITION_DEFECT_TOL}")
    problems += [f"{r['id']}: weak norm exceeds strong norm"
                 for r in payload["functions"] if r["weak_le_strong"] is not True]
    return problems


def _mixing(payload, expect):
    if payload["verdict"] != expect["verdict"]:
        return [f"verdict {payload['verdict']} but the ceiling is {expect['verdict']}"]
    return []


def _genericity(payload, expect):
    return [f"probe n={r['n']}: fraction {r['fraction']!r} outside its interval"
            for r in payload["records"]
            if r["kind"] == "probe" and not r["ci_low"] <= r["fraction"] <= r["ci_high"]]


def _correlations(payload, expect):
    if not payload["samples"] or any(not math.isfinite(v) for _, v, _ in payload["samples"]):
        return ["correlation curve is empty or not finite"]
    return []


_CHECKS = {
    "branches": _branches,
    "spectrum": _spectrum,
    "transversality": _transversality,
    "norms": _norms,
    "mixing": _mixing,
    "genericity": _genericity,
    "correlations": _correlations,
}


def check(experiment: str, report: dict, expect: dict) -> list:
    """Violated identities of one decoded report; empty when it passes."""
    try:
        return _CHECKS[experiment](report["payload"], expect)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed {experiment} report: {exc!r}"]
