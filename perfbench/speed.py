"""Host-speed reference: converts measured times to a fixed reference speed.

The shared virtual machines this benchmark runs on change speed by up to
1.7x for seconds to minutes at a time, whatever runs on them, so one run
can fall wholly in a slow stretch and the next in a fast one.  A run
therefore times a fixed kernel every PERIOD_S of CPU time, inside every
process that does the work, and a time measured while the kernel took r
seconds counts as time * REFERENCE_S / r: seconds at the speed at which
the kernel takes REFERENCE_S.  The kernel is the benchmark's own code, so
a change to spinsc does not move it; a change that makes spinsc faster
shows in full.  Raw times are reported beside the converted ones.

The kernel is call-overhead-bound numpy work on tiny arrays, as most of
spinsc is.  Kernels that stream long arrays or memory slowed in slow
stretches far less than the workloads did (log-log slope of workload time
on kernel time 1.7-2.9), a pure-Python loop somewhat less (1.2-1.7); this
one tracked them best (1.0-1.3) and left the smallest spread between runs.
"""

import glob
import json
import multiprocessing.util
import os
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1          # CPU seconds of a process between kernel samples
REFERENCE_S = 0.002     # kernel time at the reference speed (about its
                        # time on a fast 2-vCPU host; it sets the scale only)

_TINY = np.ones(3)
_SQUARE = np.random.default_rng(0).random((8, 8))


def kernel():
    x = _TINY
    for _ in range(300):
        x = np.sqrt(x * _TINY + 1.0)
    kept = {}
    for i in range(100):
        v = _SQUARE @ _SQUARE[:, i % 8]
        w = np.where(v > 0.5, v, -v)
        kept[i] = np.concatenate([w, v[:2]]).max()
        np.argmax(w)
        np.tanh(v)
        np.clip(v, 0.1, 0.9)


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed_factor(kernel_times):
    """Mean of REFERENCE_S / r: the factor that takes a time measured
    alongside these kernel times to the reference speed."""
    return statistics.fmean(REFERENCE_S / r for r in kernel_times)


class Sampler:
    """Times the kernel on SIGPROF every PERIOD_S of CPU time, in this
    process and in every process it forks through multiprocessing (the
    ProcessPoolExecutor workers of `--workers 2`).  A worker writes its
    samples to `spool_dir` when it exits; `collect` reads them back.

    A sample is (perf_counter at its start, kernel seconds, seconds the
    handler took, pid).  perf_counter is CLOCK_MONOTONIC, which all
    processes share, so samples of different processes can be windowed
    together.
    """

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        os.makedirs(spool_dir, exist_ok=True)
        self.samples = []
        multiprocessing.util.register_after_fork(self, Sampler._start_in_child)
        self._start()

    def _handler(self, signum, frame):
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        r = time_kernel()
        self.samples.append((t0, r, time.perf_counter() - t0, os.getpid()))

    def _start(self):
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _start_in_child(self):
        self.samples = []
        self._start()
        multiprocessing.util.Finalize(None, self._spool, exitpriority=100)

    def _spool(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        with open(os.path.join(self.spool_dir, f"{os.getpid()}.json"), "w") as fh:
            json.dump(self.samples, fh)

    def collect(self):
        """Move the samples of exited worker processes into this one's."""
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "*.json"))):
            with open(path) as fh:
                self.samples += [tuple(s) for s in json.load(fh)]
            os.remove(path)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def at_reference(self, t0, t1):
        """Seconds of the window [t0, t1) at the reference speed.

        The handlers' own time is taken out: all of it for one process, and
        the busiest process's share when workers ran side by side (the
        busiest one is taken as the critical path).  Without a sample in the
        window the latest one before it gives the speed.
        """
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        if not inside:
            inside = [max((s for s in self.samples if s[0] < t0), default=None,
                          key=lambda s: s[0])]
            if inside[0] is None:
                raise RuntimeError("no kernel sample at or before the window")
            handler_s = 0.0
        else:
            per_pid = {}
            for s in inside:
                per_pid[s[3]] = per_pid.get(s[3], 0.0) + s[2]
            handler_s = max(per_pid.values())
        return (t1 - t0 - handler_s) * speed_factor(s[1] for s in inside)
