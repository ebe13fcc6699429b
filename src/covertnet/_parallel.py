"""Deterministic chunk execution shared by search and simulation.

Jobs are fixed-size partitions of a work space; their boundaries never
depend on the worker count, and results are collected in job order, so a
parallel run is bit-identical to the sequential one.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Sequence

from .graph import _is_int


def run_chunks(fn: Callable, jobs: Sequence, workers: int, take: Callable | None = None) -> list:
    """Apply ``fn`` to every job, in job order, on at most ``workers`` processes.

    The results are returned as a list in job order or, given ``take``,
    handed to it one at a time in job order as they come, and not kept (the
    list returned is empty). Jobs are read from ``jobs`` one at a time as
    they are run, and a pool holds at most two a worker in flight, so with
    ``take`` and jobs formed as they are read, memory does not grow with the
    number of jobs.

    The pool never outnumbers the jobs or the machine's CPUs. Its module is
    imported only when a pool starts, so a command that runs inline never
    imports ``concurrent.futures.process`` or ``multiprocessing``.
    """
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    results: list = []
    take = results.append if take is None else take
    if workers <= 1:
        for job in jobs:
            take(fn(job))
        return results
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        try:
            for job in jobs:
                pending.append(pool.submit(fn, job))
                if len(pending) == 2 * workers:
                    take(pending.popleft().result())
            while pending:
                take(pending.popleft().result())
        finally:  # a job that failed leaves the ones queued behind it unrun
            for future in pending:
                future.cancel()
    return results
