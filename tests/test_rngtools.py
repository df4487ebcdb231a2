import os

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from spinsc import mtj, rngtools
from spinsc.errors import DomainError, ShapeError
from spinsc.llgs import default_device_params
from spinsc.rngtools import derive_rng, derive_rngs

# integers at SeedSequence's word boundaries, and beyond 64 bits
INTS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1,
                                  2**64, 2**96 + 7]),
                 st.integers(0, 2**64 - 1), st.integers(2**64, 2**130))
TAGS = st.one_of(INTS, st.text(max_size=8))


@st.composite
def blocks(draw):
    """(n, master seed, tags): each a scalar, or an integer list of n."""
    n = draw(st.integers(1, 6))
    per_entry = st.lists(INTS, min_size=n, max_size=n)
    master = draw(st.one_of(INTS, per_entry))
    tags = draw(st.lists(st.one_of(TAGS, per_entry), max_size=6))
    return n, master, tags


def entry(arg, i):
    return arg[i] if isinstance(arg, list) else arg


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_block_derivation_matches_derive_rng(block):
    """Entry i of a block is derive_rng on entry i's names, state for state."""
    n, master, tags = block
    rngs = list(derive_rngs(master, *tags))
    assert len(rngs) == (n if any(isinstance(a, list) for a in [master, *tags])
                         else 1)
    for i, rng in enumerate(rngs):
        one = derive_rng(entry(master, i), *(entry(t, i) for t in tags))
        assert rng.bit_generator.state == one.bit_generator.state


def test_block_mixing_word_counts_keeps_each_entrys_bits():
    """int64 seed arrays as forward_rate passes them: entries below 2**32
    take one word, the rest two, and each keeps its own stream."""
    seeds = np.array([5, 2**40 + 3, 2**32 - 1, 2**32, 0, 2**63 - 1])
    rngs = derive_rngs(seeds, "rate-window")
    for seed, rng in zip(seeds, rngs):
        assert np.array_equal(rng.random(8),
                              derive_rng(int(seed), "rate-window").random(8))


@pytest.mark.parametrize("master, tags", [
    (-1, ()), ([3, -2], ("x",)), (1, ("x", [0, -5]))])
def test_block_rejects_negative_names(master, tags):
    with pytest.raises(ValueError):
        derive_rng(entry(master, -1), *(entry(t, -1) for t in tags))
    with pytest.raises(DomainError):
        derive_rngs(master, *tags)


def test_block_arrays_need_one_length():
    with pytest.raises(ShapeError):
        derive_rngs([1, 2], "x", [1, 2, 3])
    with pytest.raises(ShapeError):
        derive_rngs(np.zeros((2, 2), dtype=int))


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and the jobs
    mapped, maps in process."""
    sizes = []
    jobs = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        FakePool.jobs.append(list(jobs))
        return map(fn, jobs)


@pytest.mark.parametrize("jobs, workers, pools", [
    ([-1], 4, []), ([-1, 2], 4, [1]), ([-1, 2, -3], 2, [1]),
    ([-1, 2, -3], 1, []), ([], 3, [])])
def test_parallel_map_starts_no_idle_workers(monkeypatch, jobs, workers, pools):
    """n workers are the caller and a pool of n - 1, which maps jobs[1:]."""
    monkeypatch.setattr(rngtools, "ProcessPoolExecutor", FakePool)
    FakePool.sizes, FakePool.jobs = [], []
    assert rngtools.parallel_map(abs, jobs, workers) == [abs(j) for j in jobs]
    assert FakePool.sizes == pools
    assert FakePool.jobs == [jobs[1:]] * len(pools)


def test_workers_capped_at_cpu_count(monkeypatch):
    """100,000 workers on 2 CPUs: the sweep cuts 2 slabs, not one per
    trial, and maps the second on a pool of 1; an unknown CPU count means 1."""
    monkeypatch.setattr(rngtools, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    FakePool.sizes, FakePool.jobs = [], []
    assert rngtools.worker_count(100_000) == 2
    params = mtj.MtjParams(device=default_device_params(T=0.0), equil_steps=0)
    curve = mtj.sweep_switching_curve([1e-5, 2e-5, 3e-5, 4e-5, 5e-5], 5e-11,
                                      3, params, 2, workers=100_000)
    assert curve.p_hat.tolist() == [0.0] * 5
    assert FakePool.sizes == [1] and [len(j) for j in FakePool.jobs] == [1]
    assert rngtools.parallel_map(abs, [-1, 2, -3], 100_000) == [1, 2, 3]
    assert FakePool.sizes == [1, 1] and FakePool.jobs[1] == [2, -3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rngtools.worker_count(4) == 1


def _pid_or_raise(job):
    """(job, this process's id); a negative job raises DomainError."""
    if job < 0:
        raise DomainError(f"job {job}")
    return job, os.getpid()


def test_parallel_map_on_two_processes(monkeypatch):
    """A real pool: jobs[0] runs in the caller, the rest in one other
    process, results in job order; a DomainError from either side is
    re-raised in the caller."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    results = rngtools.parallel_map(_pid_or_raise, [3, 1, 4, 2], 2)
    assert [job for job, _ in results] == [3, 1, 4, 2]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids[1:])) == 1 and pids[1] != pids[0]
    with pytest.raises(DomainError, match="job -1"):
        rngtools.parallel_map(_pid_or_raise, [-1, 2, 3], 2)
    with pytest.raises(DomainError, match="job -3"):
        rngtools.parallel_map(_pid_or_raise, [1, 2, -3], 2)
