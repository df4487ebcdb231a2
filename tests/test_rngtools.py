import pytest

from spinsc import rngtools


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""
    sizes = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("jobs, workers, pools", [
    ([-1], 4, []), ([-1, 2], 4, [2]), ([-1, 2, -3], 2, [2]),
    ([-1, 2, -3], 1, []), ([], 3, [])])
def test_parallel_map_starts_no_idle_workers(monkeypatch, jobs, workers, pools):
    monkeypatch.setattr(rngtools, "ProcessPoolExecutor", FakePool)
    FakePool.sizes = []
    assert rngtools.parallel_map(abs, jobs, workers) == [abs(j) for j in jobs]
    assert FakePool.sizes == pools
