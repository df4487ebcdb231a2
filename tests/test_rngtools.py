import itertools
import multiprocessing
import os

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from spinsc import rngtools
from spinsc.errors import DomainError, ShapeError
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


def _allowed():
    """The CPUs this process may run on, or None where the OS cannot say."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


CALLER = os.getpid()


def _placed(job):
    """(job, this process's id, the CPU it runs on: field 39 of
    /proc/self/stat, None without one); a negative job raises DomainError,
    job 99 ends a forked worker with os._exit(3)."""
    if job < 0:
        raise DomainError(f"job {job}")
    if job == 99 and os.getpid() != CALLER:
        os._exit(3)
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except OSError:
        cpu = None
    return job, os.getpid(), cpu



def _groups(jobs, workers):
    """parallel_map of _placed over jobs, checked for what every call keeps;
    returns the groups of results, one per process, in job order."""
    allowed = _allowed()
    results = rngtools.parallel_map(_placed, jobs, workers)
    assert [job for job, _, _ in results] == jobs
    groups = [list(g) for _, g in itertools.groupby(results, lambda r: r[1])]
    # each process runs one contiguous group, and the caller runs group 0
    assert len({pid for _, pid, _ in results}) == len(groups) == min(
        rngtools.worker_count(workers), len(jobs))
    assert not groups or groups[0][0][1] == os.getpid()
    sizes = [len(g) for g in groups]
    assert max(sizes, default=0) - min(sizes, default=0) <= 1
    assert _allowed() == allowed
    assert multiprocessing.active_children() == []
    return groups


@pytest.mark.parametrize("jobs, workers, pools", [
    ([1], 4, []), ([1, 2], 4, [1]), ([1, 2, 3], 2, [2]),
    ([1, 2, 3], 1, []), ([], 3, []), (list(range(11)), 2, [6])])
def test_parallel_map_starts_no_idle_workers(jobs, workers, pools):
    """n = min(worker_count, len(jobs)) processes, the caller one of them:
    `pools` lists the sizes of the forked workers' groups on 2 or more
    CPUs; on one CPU nothing forks."""
    groups = _groups(jobs, workers)
    forked = pools if rngtools.worker_count(2) == 2 else []
    assert [len(g) for g in groups[1:]] == forked


def test_parallel_map_places_groups_on_distinct_cpus():
    """Each group starts on its own CPU of the allowed set."""
    allowed = _allowed()
    if allowed is None or len(allowed) < 2 or _placed(0)[2] is None:
        pytest.skip("needs 2 allowed CPUs and /proc/self/stat")
    for jobs in ([1, 2], list(range(7)), list(range(2 * len(allowed) + 1))):
        groups = _groups(jobs, len(allowed))
        starts = [g[0][2] for g in groups]
        assert len(set(starts)) == len(groups) and set(starts) <= allowed


def test_workers_capped_at_cpu_count(monkeypatch):
    """worker_count caps at the CPUs this process may run on: on one (as
    under `taskset -c 0`) 2 workers fork nothing.  Without the affinity
    calls the CPU count caps it, an unknown CPU count means 1, and
    parallel_map runs its groups without moving them."""
    if _allowed() is not None:
        one = {min(_allowed())}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: one)
        assert rngtools.worker_count(2) == 1
        assert len(_groups([1, 2, 3], 2)) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)))
        assert rngtools.worker_count(100_000) == 5
        assert rngtools.worker_count(3) == 3
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert rngtools.worker_count(100_000) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert len(_groups([1, 2, 3], 2)) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rngtools.worker_count(4) == 1


def test_parallel_map_on_two_processes():
    """A DomainError from either side is re-raised in the caller after every
    worker is joined; a worker that dies without replying raises
    ChildProcessError, not a hang."""
    if rngtools.worker_count(2) < 2:
        pytest.skip("needs 2 allowed CPUs")
    for jobs, match in [([-1, 2, 3], "job -1"), ([1, 2, -3], "job -3"),
                        ([-1, 2, -3], "job -1")]:
        with pytest.raises(DomainError, match=match):
            rngtools.parallel_map(_placed, jobs, 2)
        assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError, match="code 3"):
        rngtools.parallel_map(_placed, [1, 99], 2)
    assert multiprocessing.active_children() == []
