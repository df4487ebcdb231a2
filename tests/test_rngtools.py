import os

import pytest

from spinsc import mtj, rngtools
from spinsc.llgs import default_device_params


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and the number
    of jobs mapped, maps in process."""
    sizes = []
    jobs = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        FakePool.jobs.append(len(jobs))
        return map(fn, jobs)


@pytest.mark.parametrize("jobs, workers, pools", [
    ([-1], 4, []), ([-1, 2], 4, [2]), ([-1, 2, -3], 2, [2]),
    ([-1, 2, -3], 1, []), ([], 3, [])])
def test_parallel_map_starts_no_idle_workers(monkeypatch, jobs, workers, pools):
    monkeypatch.setattr(rngtools, "ProcessPoolExecutor", FakePool)
    FakePool.sizes = []
    assert rngtools.parallel_map(abs, jobs, workers) == [abs(j) for j in jobs]
    assert FakePool.sizes == pools


def test_workers_capped_at_cpu_count(monkeypatch):
    """100,000 workers on 2 CPUs: the sweep cuts 2 slabs, not one per
    trial, and maps them on a pool of 2; an unknown CPU count means 1."""
    monkeypatch.setattr(rngtools, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    FakePool.sizes, FakePool.jobs = [], []
    assert rngtools.worker_count(100_000) == 2
    params = mtj.MtjParams(device=default_device_params(T=0.0), equil_steps=0)
    curve = mtj.sweep_switching_curve([1e-5, 2e-5, 3e-5, 4e-5, 5e-5], 5e-11,
                                      3, params, 2, workers=100_000)
    assert curve.p_hat.tolist() == [0.0] * 5
    assert FakePool.sizes == [2] and FakePool.jobs == [2]
    assert rngtools.parallel_map(abs, [-1, 2, -3], 100_000) == [1, 2, 3]
    assert FakePool.sizes == [2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rngtools.worker_count(4) == 1
