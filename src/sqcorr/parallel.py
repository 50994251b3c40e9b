"""Run independent work items on every core the process may use.

Tag generation draws its pulse blocks, and the coincidence histograms bin
their anchor shares, through parallel_map. Each item's result depends on the
item alone and results come back in item order, so outputs are the same for
any core count. The count is the size of the process's CPU affinity mask
(os.cpu_count() where the platform has no affinity call); limit it by
starting the process under `taskset`, e.g. `taskset -c 0 sqcorr ...`.
"""
from __future__ import annotations

import os
import threading

if hasattr(os, "sched_getaffinity"):
    _CORES = len(os.sched_getaffinity(0))
else:
    _CORES = os.cpu_count() or 1


def shares(n: int, max_size: int, min_size: int = 1) -> list[slice]:
    """Slices that cover range(n), each at most max_size long, one per core or
    more unless that would make them shorter than min_size."""
    size = max(1, min_size, min(max_size, -(-n // _CORES)))
    return [slice(s, s + size) for s in range(0, n, size)]


def parallel_map(fn, items) -> list:
    """[fn(item) for item in items], computed on up to _CORES threads.

    The calling thread works through the items alongside _CORES - 1 helper
    threads, each taking the next unclaimed item, so no more threads are busy
    than there are cores. fn must release the GIL in its heavy numpy calls to
    gain from this, and must not touch shared state. An exception raised by fn
    stops further items from being claimed and is re-raised here (the one of
    the lowest item index) once every thread has stopped.
    """
    items = list(items)
    results = [None] * len(items)
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()
    claimed = 0

    def work() -> None:
        nonlocal claimed
        while True:
            with lock:
                if errors or claimed == len(items):
                    return
                i = claimed
                claimed += 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors.append((i, exc))
                return

    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(min(_CORES, len(items)) - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results
