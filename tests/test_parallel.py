import os

import pytest

import covertnet._parallel as parallel
from covertnet._parallel import run_chunks


@pytest.fixture
def pool_sizes(monkeypatch):
    """Record requested pool sizes; jobs run in this process, no pool starts."""
    sizes = []

    class PoolRecorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", PoolRecorder)
    return sizes


@pytest.mark.parametrize(
    "workers, cpus, expected",
    [(10_000, 64, 3), (10_000, 2, 2), (2, 64, 2), (3, None, None), (1, 64, None)],
)
def test_pool_capped_by_jobs_and_cpus(monkeypatch, pool_sizes, workers, cpus, expected):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run_chunks(abs, [-1, -2, -3], workers) == [1, 2, 3]
    assert pool_sizes == ([] if expected is None else [expected])


@pytest.mark.parametrize("workers", [0, -3])
def test_nonpositive_workers_rejected(pool_sizes, workers):
    ran = []
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        run_chunks(ran.append, [1, 2], workers)
    assert ran == [] and pool_sizes == []


def test_single_job_runs_inline(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert run_chunks(abs, [-5], 10_000) == [5]
    assert pool_sizes == []
