"""Seed derivation helpers, and the worker map that runs seeded jobs.

All randomness in the package flows through named substreams derived from a
single master seed, so independent workloads (trials, sweep points, frames)
produce the same aggregate results regardless of execution order.

A substream is named by (master_seed, *tags): strings are hashed to stable
64-bit integers, and the integers' 32-bit words seed numpy's SeedSequence.
There are two entry points to that one derivation.  `derive_rng` names one
substream and builds numpy's SeedSequence for it.  `derive_rngs` names a
block of substreams (any of its arguments may be a 1-D array of integers)
and runs SeedSequence's entropy mix and `generate_state` for the whole
block in numpy uint32 arithmetic; each PCG64 is then seeded by numpy from
those words, so the block's generators are the one-item generators, bit
for bit.  The block pass has a fixed cost of a few dozen numpy calls, so
one item stays on SeedSequence: on a 2-vCPU x86-64 VM with numpy 2.4,
derive_rng took about 27 us, a one-entry block about 280 us, and a block
of 512 entries 2-4 us per entry.

`parallel_map` holds the package's one work-split rule, stated in its
docstring, and places each worker on its own CPU.  Left alone, a 2-vCPU
x86-64 VM kept a forked child on its parent's CPU, where both ran at half
speed.  There a no-op 2-job map takes about 5 ms.
"""

import hashlib
import multiprocessing
import os

import numpy as np

from .errors import DomainError, ShapeError

__all__ = ["derive_rng", "derive_rngs", "derive_philox", "worker_count",
           "parallel_map"]


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


# numpy SeedSequence's hash constants (bit_generator.pyx, pool size 4)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _hash_constants(init, mult, count):
    """The first `count` values of the hash constant init * mult**k."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count)],
                    dtype=np.uint32)


_CONSTS_B = _hash_constants(_INIT_B, _MULT_B, 9)


def _hashmix(values, consts):
    """SeedSequence's hashmix of each value in turn: value j is xored with
    consts[j] and multiplied by consts[j + 1]."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> np.uint32(16))


def _mix(x, y):
    v = _MIX_L * x - _MIX_R * y
    return v ^ (v >> np.uint32(16))


def _pcg64_words(entropy):
    """SeedSequence(entropy row).generate_state(4, np.uint64) for each row
    of the uint32 entropy words (n, L)."""
    n, length = entropy.shape
    consts = _hash_constants(_INIT_A, _MULT_A, 17 + 4 * max(0, length - 4))
    first = np.zeros((n, 4), dtype=np.uint32)
    first[:, :min(length, 4)] = entropy[:, :4]
    pool, k = _hashmix(first, consts[:5]), 4
    for src in range(4):           # every pool word into every other
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None],
                                                   consts[k:k + 4]))
        k += 3
    for col in range(4, length):   # entropy beyond the pool, into every word
        pool = _mix(pool, _hashmix(entropy[:, col, None], consts[k:k + 5]))
        k += 4
    state = _hashmix(np.tile(pool, 2), _CONSTS_B).astype(np.uint64)
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


def _int_words(values):
    """Little-endian uint32 words (n, W) of non-negative integers, and how
    many each takes (0 takes one), as SeedSequence splits an integer."""
    rest = np.asarray(values)
    if rest.dtype.kind not in "iu":        # integers beyond 64 bits
        rest = np.array(values, dtype=object)
    if (rest < 0).any():
        raise DomainError("substream names need non-negative integers")
    words, counts = [], np.ones(rest.shape, dtype=np.intp)
    while True:
        words.append((rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
        if not rest.any():
            return np.stack(words, axis=-1), counts
        counts += rest != 0


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator the state words derived for it."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def derive_rngs(master_seeds, *tags):
    """derive_rng for a block: yields, for each entry i in order,
    derive_rng(master_seeds[i], *(tag[i] for each tag)), bit for bit.  The
    master seed and any tag may be a 1-D array of integers, one per entry
    (all of one length); any other argument names the same value for every
    entry, as in derive_rng.  The whole block's state words are derived
    here; each generator is built as it is reached, so a long block holds
    32 bytes per entry, not a generator."""
    args = [master_seeds, *tags]
    n = next((len(a) for a in args if np.ndim(a)), 1)
    parts = []
    for i, arg in enumerate(args):
        if np.ndim(arg) == 0:
            arg = [int(arg) if i == 0 else _tag_to_int(arg)]
        elif np.shape(arg) != (n,):
            raise ShapeError(f"derive_rngs needs 1-D arrays of one length, got "
                             f"shapes {[np.shape(a) for a in args if np.ndim(a)]}")
        words, counts = _int_words(arg)
        parts.append((np.broadcast_to(words, (n, words.shape[-1])),
                      np.broadcast_to(counts, (n,))))
    # entry i's entropy: each argument's first counts[i] words, in order
    words = np.concatenate([w for w, _ in parts], axis=1)
    used = np.concatenate([np.arange(w.shape[1]) < c[:, None] for w, c in parts],
                          axis=1)
    lengths = used.sum(axis=1)
    state = np.empty((n, 4), dtype=np.uint64)
    for length in set(lengths.tolist()):    # np.unique would import numpy.ma
        rows = np.flatnonzero(lengths == length)
        state[rows] = _pcg64_words(words[rows][used[rows]].reshape(len(rows), -1))
    return (np.random.Generator(np.random.PCG64(_StateWords(row))) for row in state)


def _allowed_cpus() -> int:
    """The number of CPUs this process may run on, at least 1."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return cpus or 1


def worker_count(workers: int) -> int:
    """Processes worth starting for `workers` requested: at most the number
    of CPUs this process may run on."""
    return min(workers, _allowed_cpus())


def _run_group(fn, group, cpus, k, conn=None):
    """(True, [fn(a, b) for a, b in group]) or (False, the exception raised),
    after a move onto CPU k of the sorted allowed set `cpus` (None: no
    move) and back to the whole set; sent on `conn` if one is given."""
    try:
        if cpus is not None:
            os.sched_setaffinity(0, [sorted(cpus)[k]])
            os.sched_setaffinity(0, cpus)
        reply = True, [fn(a, b) for a, b in group]
    except BaseException as exc:
        reply = False, exc
    return reply if conn is None else conn.send(reply)


def parallel_map(fn, total: int, cap: int, workers: int = 1) -> list:
    """[fn(a, b) for each block a..b-1] of range(total), in block order:
    w = max(1, min(worker_count(workers), total)) workers each run
    ceil(total / (w * cap)) consecutive blocks on their own CPU, the caller
    the first group and a forked child each other; the blocks are
    contiguous, cut as they are reached, of at most `cap` items each and
    their sizes within 1.  Every child is joined before the first failure
    in block order is raised; one that dies without replying raises
    ChildProcessError.  A total past the kernels' int64 flat index
    np.arange(a, b) raises DomainError."""
    if total > np.iinfo(np.int64).max:
        raise DomainError(f"{total} items overflow a kernel's int64 flat index")
    w = max(1, min(worker_count(workers), total))
    per = -(-total // (w * cap))                # blocks per worker

    def group(k):                               # worker k's blocks
        return ((total * s // (w * per), total * (s + 1) // (w * per))
                for s in range(k * per, (k + 1) * per))
    if w < 2:
        return [fn(a, b) for a, b in group(0)]
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    fork, children, replies = multiprocessing.get_context("fork"), [], []
    try:
        for k in range(1, w):
            recv, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_run_group,
                                 args=(fn, group(k), cpus, k, send))
            child.start()
            send.close()        # so recv sees EOF if the child dies
            children.append((child, recv))
        replies.append(_run_group(fn, group(0), cpus, 0))
    finally:
        for child, recv in children:
            with recv:
                try:
                    replies.append(recv.recv())
                except EOFError:
                    child.join()
                    replies.append((False, ChildProcessError(
                        f"worker exited with code {child.exitcode} unreplied")))
            child.join()
    for ok, value in replies:
        if not ok:
            raise value
    return [result for _, group in replies for result in group]
