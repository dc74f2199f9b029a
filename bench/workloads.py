"""Workload job lists, generated from a seed.

Each workload is a batch of experiment configs run back to back by one
client in a closed loop.  The seed jitters every harmonic amplitude by at
most 5 % while keeping each ceiling's mixing class (a coboundary is jittered
only through the amplitude of its potential Psi), picks the branches target
x, and picks the config ``seed``.  Seed 0 gives the nominal ceilings; any
other seed gives unseen inputs of the same size and class.

The flow-transport spectrum keeps its nominal ceiling on every seed: ARPACK's
iteration count depends on how the eigenvalue moduli near the k-th one are
spaced, and a 5 % amplitude jitter moves them enough to change the dense
eigensolve from 173 to 414 matrix-vector products (seeds 0-11), which would
swamp every other difference between runs.

Why these three workloads:

- branch-scan: inverse-branch level scans, the transversality overlap and
  sweep passes and the depth-first branch search.  Many small ceiling
  evaluations (per-call overhead).  Never touches the flow advance, Ulam,
  FFT or anisotropic norms.
- flow-transport: flow advance, Ulam assembly and eigensolve, correlation
  quadrature.  Few large ceiling evaluations (bulk throughput) and a 128 MB
  dense matrix.  Builds no branch table.
- lab-survey: all seven subcommands at moderate size on three ceilings, so
  per-job fixed costs (classify, parse, emit) and the FFT-based layers
  dominate.  A change that trades per-call set-up for bulk speed shows here.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("branch-scan", "flow-transport", "lab-survey")

WEAKLY_MIXING = "WeaklyMixing"
NOT_WEAKLY_MIXING = "NotWeaklyMixing"

# nominal ceilings: (ell, mean, harmonics [k, cos, sin], mixing class)
_CEILINGS = {
    # 1 + 0.2 sin 2 pi x
    "sin": (2, 1.0, [[1, 0.0, 0.2]], WEAKLY_MIXING),
    # 1 + 0.3 sin 2 pi x + 0.1 cos 4 pi x
    "gen": (2, 1.0, [[1, 0.0, 0.3], [2, 0.1, 0.0]], WEAKLY_MIXING),
    # 1.3 + 0.3 sin 2 pi x + 0.1 cos 4 pi x + 0.05 (cos + sin) 6 pi x
    "gen3": (3, 1.3, [[1, 0.0, 0.3], [2, 0.1, 0.0], [3, 0.05, 0.05]], WEAKLY_MIXING),
}
# coboundary 1 + a (sin 4 pi x - sin 2 pi x) = 1 + Psi(2x) - Psi(x), Psi = a sin 2 pi x
COB_PSI_AMPLITUDE = 0.05

JITTER = 0.05


class _Inputs:
    """Seeded draws shared by the jobs of one workload."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")

    def factor(self, jitter: bool = True) -> float:
        if self.seed == 0 or not jitter:
            return 1.0
        return 1.0 + self.rng.uniform(-JITTER, JITTER)

    def ceiling(self, name: str, jitter: bool = True) -> tuple:
        """(ceiling config, expected mixing verdict)."""
        if name == "cob":
            a = COB_PSI_AMPLITUDE * self.factor(jitter)
            spec = {"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, -a], [2, 0.0, a]]}
            return spec, NOT_WEAKLY_MIXING
        ell, mean, harmonics, verdict = _CEILINGS[name]
        jittered = [[k, c * self.factor(jitter), s * self.factor(jitter)]
                    for k, c, s in harmonics]
        return {"ell": ell, "mean": mean, "harmonics": jittered}, verdict

    def target_x(self) -> float:
        if self.seed == 0:
            return 0.3
        return round(self.rng.uniform(0.25, 0.35), 6)

    def config_seed(self) -> int:
        return 0 if self.seed == 0 else self.rng.randrange(2 ** 31)


def _job(inputs: _Inputs, name: str, ceiling: str, experiment: str, params: dict,
         jitter: bool = True) -> dict:
    spec, verdict = inputs.ceiling(ceiling, jitter)
    config = {"ceiling": spec, "experiment": experiment, "params": params,
              "seed": inputs.config_seed(), "workers": 1}
    return {"name": name, "experiment": experiment, "config": json.dumps(config),
            "expect": {"verdict": verdict}}


def _halves(stop: float) -> list:
    return [i / 2 for i in range(int(2 * stop) + 1)]


def jobs(workload: str, seed: int, short: bool = False) -> list:
    """The job list of a workload.  ``short`` keeps the same jobs at toy
    sizes, for testing the benchmark itself."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    inp = _Inputs(workload, seed)
    if workload == "branch-scan":
        return [
            _job(inp, "transversality-sin", "sin", "transversality",
                 {"t_values": [3.0, 4.0, 5.0] if short else [8.0, 10.0, 12.0],
                  "nx": 8 if short else 16, "ns": 8, "certified": True}),
            _job(inp, "transversality-gen3", "gen3", "transversality",
                 {"t_values": [3.0, 4.0] if short else [6.0, 8.0],
                  "nx": 8 if short else 16, "ns": 8}),
            _job(inp, "branches-sin", "sin", "branches",
                 {"t": 6.0 if short else 12.0, "x": inp.target_x(), "s": 0.0}),
        ]
    if workload == "flow-transport":
        return [
            _job(inp, "spectrum-sin", "sin", "spectrum",
                 {"t": 2.0, "nx": 32 if short else 256, "ns": 4 if short else 16,
                  "points_per_box": 16 if short else 64, "k": 8}, jitter=False),
            _job(inp, "correlations-sin", "sin", "correlations",
                 {"t_values": _halves(4.0 if short else 20.0),
                  "nx": 128 if short else 2048, "ns": 8 if short else 32}),
            _job(inp, "mixing-cob", "cob", "mixing",
                 {"eigenfunction_times": [0.7, 1.3, 5.0, 9.0]}),
        ]
    out = []
    for c in ("sin", "gen", "gen3"):
        out += [
            _job(inp, f"mixing-{c}", c, "mixing",
                 {"grid": 1024 if short else 65536, "depth": 24}),
            _job(inp, f"norms-{c}", c, "norms",
                 {"grid_n": 32 if short else 128, "num_functions": 4}),
            _job(inp, f"genericity-{c}", c, "genericity",
                 {"cluster_n_values": [4, 6] if short else [6, 8, 10], "probe": True,
                  "probe_samples": 40 if short else 400}),
            _job(inp, f"transversality-{c}", c, "transversality",
                 {"t_values": [2.0, 3.0] if short else [3.0, 4.0, 5.0], "nx": 8 if short else 16,
                  "ns": 8}),
            _job(inp, f"spectrum-{c}", c, "spectrum",
                 {"t": 1.0, "nx": 16 if short else 64, "ns": 4 if short else 8}),
            _job(inp, f"correlations-{c}", c, "correlations",
                 {"t_values": _halves(2.0 if short else 8.0), "nx": 64 if short else 512,
                  "ns": 8}),
            _job(inp, f"branches-{c}", c, "branches",
                 {"t": 3.0 if short else 6.0, "x": inp.target_x(), "s": 0.0}),
        ]
    return out
