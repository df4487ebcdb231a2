"""Seed derivation helpers.

All randomness in the package flows through named substreams derived from a
single master seed, so independent workloads (trials, sweep points, frames)
produce the same aggregate results regardless of execution order.
"""

from concurrent.futures import ProcessPoolExecutor
import hashlib
import os

import numpy as np

__all__ = ["derive_rng", "derive_philox", "worker_count", "parallel_map"]


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag)
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _seedseq(master_seed: int, *tags) -> np.random.SeedSequence:
    """SeedSequence for the substream named by (master_seed, *tags).

    Tags may be strings (domain names) or integers (trial/point indices);
    strings are hashed to stable 64-bit integers.
    """
    entropy = [int(master_seed)] + [_tag_to_int(t) for t in tags]
    return np.random.SeedSequence(entropy)


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """PCG64 generator on the named substream."""
    return np.random.Generator(np.random.PCG64(_seedseq(master_seed, *tags)))


def derive_philox(master_seed: int, *tags) -> np.random.Generator:
    """Counter-based (Philox) generator, used for bitstream construction."""
    return np.random.Generator(np.random.Philox(_seedseq(master_seed, *tags)))


def worker_count(workers: int) -> int:
    """Processes worth starting for `workers` requested: at most the CPU count."""
    return min(workers, os.cpu_count() or 1)


def parallel_map(fn, jobs, workers: int = 1) -> list:
    """[fn(job) for job in jobs], on a pool of min(worker_count(workers),
    len(jobs)) processes when that exceeds 1; results come back in job order."""
    workers = min(worker_count(workers), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]
