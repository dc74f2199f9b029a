"""Deterministic parallel map.

Results come back in input order and every item is computed independently,
so the output never depends on the worker count.  The pool never holds more
processes than there are items or CPUs; with one worker the map runs inline,
and the pool's module (which loads multiprocessing) is never imported.
"""

from __future__ import annotations

import os


def pmap(fn, items, workers: int) -> list:
    items = list(items)
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
