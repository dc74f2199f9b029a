"""Reference kernel that tracks the host's speed during a measured batch.

On a shared host the speed of one vCPU drifts by 15-30 % over tens of
seconds, with the same drift for every piece of CPU-bound code that runs on
it.  A median over one run cannot average that away, because a whole run may
sit in one slow or one fast stretch.  So after every job of a measured batch
the benchmark runs this fixed kernel for a small share of the job's time,
and scales the batch's run+emit time by how long the kernel took:

    wall_ref = wall * REF_CALL_S / (mean seconds of one kernel call)

``wall_ref`` is the batch time at the reference speed, at which one kernel
call takes REF_CALL_S.  Set-up time is scaled the same way, by the kernel
run right after set-up in the same process.  The kernel uses no ``semiflow``
code, so a change to the library moves ``wall_ref`` as it moves the raw time;
only the host's drift cancels.  It mixes the kinds of work the workloads do:
interpreted Python, many small numpy calls, bulk numpy passes over a 256 KiB
array, and a matrix-vector product that streams a 4.5 MiB matrix.  It does
not track contention for memory bandwidth beyond the last-level cache, which
the 128 MB dense eigensolve of flow-transport also feels, so that workload
keeps more of the host's drift than the other two.
"""

from __future__ import annotations

import time

import numpy as np

# seconds of one kernel call at the reference speed: the median on a 2-vCPU
# Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6, OpenBLAS with one thread
REF_CALL_S = 0.004
# kernel time after each job, as a share of the job's own time (one call at least)
SHARE = 0.05
# kernel time after set-up, as a share of the set-up time
SETUP_SHARE = 0.25

_X_SMALL = np.linspace(0.0, 1.0, 400)
_X_BULK = np.linspace(0.0, 1.0, 1 << 15)
_MATRIX = np.random.default_rng(0).standard_normal((768, 768))
_VECTOR = np.ones(768)


def kernel() -> float:
    """One call of the reference kernel: a fixed amount of mixed work."""
    s, table = 0, {}
    for i in range(8000):
        s += i * i % 7
        table[i & 255] = s
    acc = float(s)
    for k in range(1, 61):
        acc += float(np.sin(2.0 * np.pi * k * _X_SMALL).sum())
    acc += float(np.sort(np.sin(7.0 * _X_BULK)).sum())
    for _ in range(2):
        acc += float((_MATRIX @ _VECTOR).sum())
    return acc


class Pace:
    """Runs the kernel after each job and keeps the calls and their time."""

    def __init__(self, share: float = SHARE):
        self.share = share
        self.calls = 0
        self.seconds = 0.0

    def after_job(self, job_seconds: float) -> None:
        budget = self.share * job_seconds
        spent = 0.0
        while True:
            start = time.perf_counter()
            kernel()
            spent += time.perf_counter() - start
            self.calls += 1
            if spent >= budget:
                break
        self.seconds += spent

    def call_s(self) -> float:
        """Mean seconds of one kernel call (REF_CALL_S if none ran)."""
        return self.seconds / self.calls if self.calls else REF_CALL_S
