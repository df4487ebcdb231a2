"""Kernel throughput of two git revisions, measured side by side.

    python3 bench/kernels.py --base REV [--head REV] [--repeats 5]
                             [--only REGEX] [--out FILE]

Each revision's committed tree is unpacked with `git archive`, and every
(kernel, revision, repeat) is timed in a fresh interpreter with that
tree's `src` on the path.  The revisions alternate within each repeat,
base first on even repeats, so drift in a shared machine's speed falls on
both alike.  The JSON holds, per kernel and revision, every run, their
median, min and max and the child's peak RSS; per kernel, the ratio of
the medians and each repeat's head/base ratio of the two runs timed next
to each other, with their median, min and max; plus each tree's
`src/spinsc` line count and an `env` record of the machine, its CPU model
and numpy's SIMD extensions included.  Compare base and head within one
file, not across files.  `--only` times just the kernels whose names
match a regular expression (re.search), so the ones a change touches can
get more repeats in the same time.

Each kernel is a `name: (unit, function)` entry in KERNELS; a function
runs in the child, returns its throughput and must work in both trees.
"""

import argparse
import datetime
from functools import partial
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def switched_slab(batch):
    """LLGS trial-steps/s of one `mtj._switched` slab at T = 300 K, run
    through the calls the kernel makes (`rngtools.derive_rngs`,
    `llgs._pulse_phases`, `llgs._integrate`), so that trees whose
    `_switched` signatures differ time the same work: `batch` trials of one
    point seeded 1, from 2 degrees off -z under a 4.5e-4 A spin current
    along +z, with no equilibration or relaxation steps; the time includes
    deriving each trial's substream."""
    import numpy as np
    from spinsc import llgs, mtj
    from spinsc.rngtools import derive_rngs
    dev = mtj.default_mtj_params().device
    steps = max(2100, 400_000 // batch)
    tilt = math.radians(2.0)
    t0 = time.perf_counter()
    m0 = np.tile([math.sin(tilt), 0.0, -math.cos(tilt)], (batch, 1))
    rngs = list(derive_rngs(1, "switch-trial", np.arange(batch)))
    phases = [(0, 0.0)] + llgs._pulse_phases(steps * dev.dt, np.full(batch, 4.5e-4),
                                             0.0, dev.dt)
    llgs._integrate(m0, phases, dev, rngs)
    return batch * steps / (time.perf_counter() - t0)


def sigmoid_fit():
    """Fits/s of `mtj.fit_stochastic_sigmoid` on one fixed 15-point curve:
    currents from 1.15 to 2.05 mA, 2,000 trials a point, switch counts
    drawn at seed 1 from the logistic with a = 9e3 /A and b = 1.48 mA."""
    import numpy as np
    from spinsc import mtj
    I, n = np.linspace(1.15e-3, 2.05e-3, 15), np.full(15, 2000)
    p = 1.0 / (1.0 + np.exp(-9e3 * (I - 1.48e-3)))
    p_hat = np.random.default_rng(1).binomial(n, p) / n
    curve = mtj.SwitchingCurve(I, p_hat, n, 1.96 * np.sqrt(p_hat * (1 - p_hat) / n))
    return repeat_for_1s(1, mtj.fit_stochastic_sigmoid, curve)


def repeat_for_1s(units, fn, *args):
    """Units/s of fn(*args), each call doing `units`, called for at least 1 s."""
    calls, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < 1.0:
        fn(*args)
        calls += 1
    return calls * units / (time.perf_counter() - t0)


def polar_block(kernel, N, frames=512):
    """Frames/s of `polar.encode`, `polar.sc_decode` or
    `polar.generate_frames` on blocks of `frames` frames of the rate-1/2
    length-N code from `generate_frames` at 2 dB."""
    from spinsc import polar
    spec = polar.construct_frozen_set(N, N // 2)
    gen_args = (spec, N, ("bench",), range(frames), [2.0] * frames)
    messages, llrs, _ = polar.generate_frames(*gen_args)
    args = {"encode": (messages, spec), "sc_decode": (llrs, spec),
            "generate_frames": gen_args}[kernel]
    return repeat_for_1s(frames, getattr(polar, kernel), *args)


def stochastic_decode(window=64, frames=512):
    """Frames/s of `polar.neural_sc_decode` with a stochastic-firing 8-32-4
    net (the `train-decoder` reference shape, as the `decoder` workload
    relabels it) on the (8,4) code: blocks of `frames` frames at 3 dB from
    `generate_frames`, each decoded with its frame seed over `window`
    passes."""
    from spinsc import network, polar, training
    spec = polar.construct_frozen_set(8, 4)
    _, llrs, seeds = polar.generate_frames(spec, 8, ("bench",), range(frames),
                                           [3.0] * frames)
    model = network.NetworkModel(training.init_model([8, 32, 4], 1).layers,
                                 activation_mode=network.STOCHASTIC)
    return repeat_for_1s(frames, polar.neural_sc_decode, llrs, model, spec,
                         window, seeds)


def minibatch_step(batch=32):
    """Examples/s of `training.minibatch_step` on the 8-32-4 net (the
    `train-decoder` reference shape) with cross-entropy loss, `batch` rows
    of normal inputs and 0/1 targets per step."""
    import numpy as np
    from spinsc import training
    rng = np.random.default_rng(1)
    X, Y = rng.standard_normal((batch, 8)), rng.integers(0, 2, (batch, 4)).astype(float)
    return repeat_for_1s(batch, training.minibatch_step, training.init_model(
        [8, 32, 4], 1), X, Y, 0.5, training.LossSpec(training.CROSS_ENTROPY))


def forward_block(rows=512):
    """Examples/s of deterministic `network.forward` on the 8-32-4 net (the
    `train-decoder` reference shape), `rows` normal inputs per block."""
    import numpy as np
    from spinsc import network, training
    X = np.random.default_rng(1).standard_normal((rows, 8))
    return repeat_for_1s(rows, network.forward,
                         training.init_model([8, 32, 4], 1), X)


def derive_block(frames=512):
    """Derivations/s of `rngtools.derive_rngs` on one block of `frames`
    frames f at point 0, tags ("ber", 0, f) under master seed 1, each
    generator built, as `generate_frames` derives a `ber` block."""
    import numpy as np
    from spinsc.rngtools import derive_rngs

    def block():
        for _ in derive_rngs(1, "ber", np.zeros(frames, dtype=np.int64),
                             np.arange(frames)):
            pass
    return repeat_for_1s(frames, block)


def trajectory_csv():
    """Rows/s of `llgs.Trajectory.to_csv` on the 4,001 recorded rows of
    perfbench's seed-1 `trajectory` operation (1 ns of 0.5 mA spin current
    from 178 degrees off +z, seed 2187454767), written to a temporary file."""
    from spinsc import llgs
    tilt = math.radians(178.0)
    tr = llgs.simulate_pulse([math.sin(tilt), 0.0, math.cos(tilt)],
                             llgs.SpinCurrentPulse(5e-4, 1e-9),
                             llgs.default_device_params(), 0.0, seed=2187454767)
    with tempfile.TemporaryDirectory() as tmp:
        return repeat_for_1s(len(tr.times), tr.to_csv, os.path.join(tmp, "t.csv"))


def and_mux_table(L=10 ** 6):
    """Stream bits/s of `bitstream.and_mux_table` on the values 0.1, 0.5, 0.9
    and L-bit streams, as `sc-arith-bench` runs one seed: 27 L-bit streams
    per call, counted as the CLI kernel counts them."""
    from spinsc import bitstream
    return repeat_for_1s(27 * L, bitstream.and_mux_table, [0.1, 0.5, 0.9], L,
                         1, 2, 3)


def encode(L=10 ** 6):
    """Stream bits/s of `bitstream.encode` on one L-bit stream at p = 0.3,
    seed 1."""
    from spinsc import bitstream
    return repeat_for_1s(L, bitstream.encode, 0.3, L, 1)


def sc_arith_bench(L=10 ** 6, seeds=1, workers=1):
    """Stream bits/s of `spinsc sc-arith-bench` run through `cli.main` on a
    temporary config of `seeds` seeds, L-bit streams, the values 0.1, 0.5,
    0.9 and `workers` workers (a tree whose command ignores workers runs
    them serially): 27 L-bit streams per seed, an a, b and select stream
    for each of the 9 (p, q) cells."""
    from spinsc import cli
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "sc_arith.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"[run]\nseed = 1\nworkers = {workers}\n[scarith]\n"
                     f"length = {L}\nseeds = {seeds}\nvalues = 0.1, 0.5, 0.9\n")

        def run():
            assert cli.main(["sc-arith-bench", "--config", cfg, "--out-dir", tmp]) == 0
        return repeat_for_1s(27 * L * seeds, run)


def ber_cli(workers):
    """Frames/s of `spinsc ber` run through `cli.main` on a temporary config
    of perfbench's `ber` inputs: classical SC on the (128,64) code at 2, 3
    and 4 dB, 400 frames per point, on `workers` workers."""
    from spinsc import cli
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "ber.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"[run]\nseed = 1\nworkers = {workers}\n[code]\nn = 128\n"
                     f"k = 64\n[ber]\ndecoder = classical\nsnrs_db = 2, 3, 4\n"
                     f"min_frames = 400\n")

        def run():
            assert cli.main(["ber", "--config", cfg, "--out-dir", tmp]) == 0
        return repeat_for_1s(3 * 400, run)


def device_sweep(trials=500, workers=1):
    """Sweeps/s of `spinsc device-sweep` run through `cli.main` on the
    config of perfbench's `sweep` workload at seed 1 (its unread resistance
    keys left out): 5 currents from 1.15 to 2.05 mA x `trials` trials, a
    0.5 ns pulse, `workers` workers, the device's default dt and windows."""
    from spinsc import cli
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "device_sweep.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"[run]\nseed = 332743518\nworkers = {workers}\n[device]\n"
                     "temperature_k = 300\ntheta_sh = 0.3\n[sweep]\n"
                     "current_start_a = 1.15e-3\ncurrent_stop_a = 2.05e-3\n"
                     "points = 5\npulse_width_s = 5e-10\n"
                     f"trials_per_point = {trials}\n")

        def run():
            assert cli.main(["device-sweep", "--config", cfg, "--out-dir", tmp]) == 0
        return repeat_for_1s(1, run)


KERNELS = {f"mtj._switched B={b}": ("trial-steps/s", partial(switched_slab, b))
           for b in (1, 500, 2000, 2500, 3750)}
KERNELS.update({f"polar.{k} N={n}": ("frames/s", partial(polar_block, k, n))
                for k in ("sc_decode", "encode") for n in (128, 1024)})
KERNELS.update({f"polar.generate_frames N={n}": (
    "frames/s", partial(polar_block, "generate_frames", n)) for n in (8, 128)})
KERNELS["polar.neural_sc_decode stochastic (8,4) window=64"] = (
    "frames/s", stochastic_decode)
KERNELS["llgs.Trajectory.to_csv 4,001 rows"] = ("rows/s", trajectory_csv)
KERNELS["bitstream.and_mux_table L=1e6 V=3"] = ("stream-bits/s", and_mux_table)
KERNELS["bitstream.encode L=1e6"] = ("bits/s", encode)
KERNELS["training.minibatch_step 8-32-4 B=32"] = ("examples/s", minibatch_step)
KERNELS.update({f"network.forward 8-32-4 B={b}": (
    "examples/s", partial(forward_block, b)) for b in (512, 65536)})
KERNELS["rngtools.derive_rngs B=512"] = ("derivations/s", derive_block)
KERNELS["mtj.fit_stochastic_sigmoid 15x2000"] = ("fits/s", sigmoid_fit)
KERNELS["cli sc-arith-bench L=1e6 V=3"] = ("stream-bits/s", sc_arith_bench)
KERNELS["cli sc-arith-bench L=1e6 V=3 seeds=8 workers=2"] = (
    "stream-bits/s", partial(sc_arith_bench, seeds=8, workers=2))
KERNELS["cli device-sweep 5x500"] = ("sweeps/s", device_sweep)
KERNELS.update({f"cli ber (128,64) 3x400 workers={w}": (
    "frames/s", partial(ber_cli, w)) for w in (1, 2)})
KERNELS["cli device-sweep 5x1000 workers=2"] = ("sweeps/s",
                                                partial(device_sweep, 1000, 2))


def child(kernel):
    value = KERNELS[kernel][1]()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"value": value, "peak_rss_mb": rss_mb}))


def unpack(rev, into):
    """Commit hash of `rev`, with its tree unpacked into `into`."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(into)
    return sha


def src_loc(tree):
    pkg = os.path.join(tree, "src", "spinsc")
    return sum(sum(1 for _ in open(os.path.join(pkg, name)))
               for name in sorted(os.listdir(pkg)) if name.endswith(".py"))


def cpu_model():
    """The CPU's model name from /proc/cpuinfo, else platform.processor()."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def numpy_simd():
    """numpy's SIMD baseline and the dispatched extensions this CPU has, from
    numpy's own record, as the manifest's env block reads them: the store
    width a kernel gets.  numpy leaves an empty entry out, so each defaults
    to []."""
    import numpy as np
    record = np.show_config(mode="dicts")["SIMD Extensions"]
    return {key: list(record.get(key, [])) for key in ("baseline", "found")}


def measure(tree, kernel):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return json.loads(subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", kernel],
        env=env, check=True, stdout=subprocess.PIPE, text=True).stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="revision to compare against (required)")
    ap.add_argument("--head", default="HEAD", help="revision under test")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--only", default="", metavar="REGEX",
                    help="time only the kernels whose names match REGEX")
    ap.add_argument("--out", default=None, help="JSON file (default: stdout)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args.child)
    if not args.base or args.repeats < 5:
        ap.error("--base is required and --repeats must be at least 5")
    chosen = {k: v for k, v in KERNELS.items() if re.search(args.only, k)}
    if not chosen:
        ap.error(f"--only {args.only!r} matches no kernel")
    sides = ("base", "head")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {s: os.path.join(tmp, s) for s in sides}
        revs = {s: {"rev": unpack(getattr(args, s), trees[s]),
                    "src_loc": src_loc(trees[s])} for s in sides}
        runs = {k: {s: [] for s in sides} for k in chosen}
        for rep in range(args.repeats):
            for kernel in chosen:
                for s in (sides if rep % 2 == 0 else sides[::-1]):
                    runs[kernel][s].append(measure(trees[s], kernel))
    kernels = {}
    for k, (unit, _) in chosen.items():
        kernels[k] = {"unit": unit}
        for s in sides:
            values = [r["value"] for r in runs[k][s]]
            kernels[k][s] = {"median": statistics.median(values), "min": min(values),
                             "max": max(values), "runs": values, "peak_rss_mb":
                             max(r["peak_rss_mb"] for r in runs[k][s])}
        kernels[k]["head_over_base"] = (kernels[k]["head"]["median"]
                                        / kernels[k]["base"]["median"])
        paired = [h["value"] / b["value"] for b, h in zip(runs[k]["base"],
                                                          runs[k]["head"])]
        kernels[k]["paired_head_over_base"] = {
            "median": statistics.median(paired), "min": min(paired),
            "max": max(paired), "runs": paired}
    import numpy
    env = {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "platform": platform.platform(), "cpu_model": cpu_model(),
           "numpy_simd": numpy_simd(), "cpu_count": os.cpu_count(),
           "loadavg_at_end": os.getloadavg(), "repeats": args.repeats,
           "only": args.only}
    text = json.dumps({"env": env, "revisions": revs, "kernels": kernels},
                      indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
