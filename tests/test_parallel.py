import collections.abc
import concurrent.futures
import os
import subprocess
import sys

import pytest

import covertnet
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

        def submit(self, fn, job):
            future = concurrent.futures.Future()
            future.set_result(fn(job))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolRecorder)
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


def test_pool_keeps_two_jobs_a_worker_in_flight(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    read = []

    class Jobs(collections.abc.Sequence):
        def __len__(self):
            return 1000

        def __getitem__(self, k):
            if k >= 1000:
                raise IndexError(k)
            read.append(k)
            return -k

    taken, ahead = [], []

    def take(result):
        taken.append(result)
        ahead.append(len(read) - result)  # jobs read but not yet taken, this one included

    assert run_chunks(abs, Jobs(), 3, take) == []
    assert taken == list(range(1000)) and pool_sizes == [3]
    assert max(ahead) == 6


def test_single_job_runs_inline(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert run_chunks(abs, [-5], 10_000) == [5]
    assert pool_sizes == []


def test_cli_import_starts_no_pool_machinery():
    code = (
        "import sys, covertnet.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(covertnet.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert done.stdout.strip() == "[]"
