"""Deterministic chunk execution shared by search and simulation.

Jobs are fixed-size partitions of a work space; their boundaries never
depend on the worker count, and results are collected in job order, so a
parallel run is bit-identical to the sequential one.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence


def run_chunks(fn: Callable, jobs: Sequence, workers: int) -> list:
    """Apply ``fn`` to every job, in job order, on at most ``workers`` processes.

    The pool never outnumbers the jobs or the machine's CPUs.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))
