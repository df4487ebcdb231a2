"""Command-line harness tying the modules into reproducible experiments.

Every run resolves its configuration (file + environment overrides),
derives all randomness from one master seed, computes all of its data,
then writes each data file atomically and a manifest from which the run
can be repeated bit-exactly with `spinsc rerun <manifest>` (wall-clock
duration aside).
"""

import argparse
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from . import bitstream, mtj, polar, training
from .config import ConfigView, load_config
from .errors import ConfigError, FitDomainError, SpinscError
from .formats import write_csv, write_json
from .network import save_model, load_model
from .rngtools import _allowed_cpus, derive_rng, parallel_map

MANIFEST_NAME = "manifest.json"


@contextmanager
def atomic_path(final_path):
    """Yield a temp path, unique to this writer and in final_path's
    directory, that is renamed onto final_path only on success."""
    tmp = f"{final_path}.{os.urandom(8).hex()}.tmp"
    try:
        yield tmp
        os.replace(tmp, final_path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _allocate(what, alloc, *args):
    """alloc(*args), whose arrays `what` sizes: numpy's ValueError beyond its
    largest array and MemoryError beyond this machine's become ConfigError."""
    try:
        return alloc(*args)
    except SpinscError:
        raise
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{what} cannot be allocated: {exc}") from None


def _check_flat(keys, *counts):
    """ConfigError naming `keys` when counts' product overflows int64, the
    flat index of the kernels that parallel_map runs."""
    if (total := math.prod(counts)) > np.iinfo(np.int64).max:
        raise ConfigError(f"{keys} = {' x '.join(map(str, counts))} = {total} "
                          f"items overflow a kernel's int64 flat index")


def _write(out_dir, name, writer):
    """Have writer(path) write out_dir/name atomically; returns name."""
    with atomic_path(os.path.join(out_dir, name)) as tmp:
        writer(tmp)
    return name


# each [device] key and the DeviceParams field it sets
_DEVICE_KEYS = {"temperature_k": "T", "alpha": "alpha", "ms_a_per_m": "Ms",
                "volume_m3": "V", "dt_s": "dt", "hk_a_per_m": "Hk",
                "hd_a_per_m": "Hd"}


def _mtj_from_config(v: ConfigView) -> mtj.MtjParams:
    """mtj.default_mtj_params() with each field its [device] key sets."""
    base = mtj.default_mtj_params()
    dev = replace(base.device, **{
        field: v.get_float("device", key, getattr(base.device, field))
        for key, field in _DEVICE_KEYS.items()})
    return replace(base, device=dev,
                   theta_sh=v.get_float("device", "theta_sh", base.theta_sh),
                   equil_steps=v.get_int("device", "equil_steps", base.equil_steps),
                   relax_time=v.get_float("device", "relax_time_s", base.relax_time))


def _code_from_config(v: ConfigView) -> polar.PolarCodeSpec:
    return polar.construct_frozen_set(
        v.get_int("code", "n"),
        v.get_int("code", "k"),
        v.get_float("code", "design_snr_db", 0.0))


def cmd_device_sweep(v, seed, workers):
    params = _mtj_from_config(v)
    currents = v.get_float_list("sweep", "currents_a", None)
    if currents is None:
        points = v.get_int("sweep", "points")
        if points < 5:      # the sweep needs 5; np.linspace raises below 0
            raise ConfigError(f"[sweep] points must be >= 5, got {points}")
        currents = _allocate(f"[sweep] points = {points}", np.linspace,
                             v.get_float("sweep", "current_start_a"),
                             v.get_float("sweep", "current_stop_a"), points).tolist()
    trials = v.get_int("sweep", "trials_per_point")
    _check_flat("[sweep] points x trials_per_point", len(currents), trials)
    curve = mtj.sweep_switching_curve(
        currents, v.get_float("sweep", "pulse_width_s"), trials, params, seed,
        workers=workers)
    try:
        fit = mtj.fit_stochastic_sigmoid(curve)
    except FitDomainError as exc:
        print(f"sigmoid fit failed: {exc}", file=sys.stderr)
        print(f"curve p_hat: {curve.p_hat.tolist()}", file=sys.stderr)
        fit = None
    files = [("switching_curve.csv", curve.to_csv)]
    if fit is None:
        return files, False
    return files + [("sigmoid_fit.json", fit.to_json)], True


def _sc_arith_block(values, L, seed, a, b):
    """and_mux_table of seeds a..b-1 along a last axis; seed i's three
    stream seeds come from its own substream, so no block split moves a bit."""
    est = np.empty((len(values), len(values), 2, b - a))
    for i in range(a, b):
        root = derive_rng(seed, "sc-bench", i)
        sa, sb, ss = (int(root.integers(0, 2 ** 63)) for _ in range(3))
        est[..., i - a] = bitstream.and_mux_table(values, L, sa, sb, ss)
    return est


def cmd_sc_arith_bench(v, seed, workers):
    L = v.get_int("scarith", "length", 4096)
    n_seeds = v.get_int("scarith", "seeds", 100)
    values = v.get_float_list("scarith", "values", [0.1, 0.5, 0.9])
    if L < 1 or not values or not all(0.0 <= p <= 1.0 for p in values):
        raise ConfigError(f"[scarith] needs length >= 1 and values in [0, 1], "
                          f"got length {L}, values {values}")
    if n_seeds < 1:
        raise ConfigError(f"[scarith] seeds must be >= 1, got {n_seeds}")
    est = _allocate(f"[scarith] seeds = {n_seeds}", np.empty,
                    (len(values), len(values), 2, n_seeds))   # AND, MUX values
    np.concatenate(parallel_map(partial(_sc_arith_block, values, L, seed),
                                n_seeds, n_seeds, workers), axis=-1, out=est)
    rows = []
    for j, p in enumerate(values):
        for k, q in enumerate(values):
            target_and = p * q
            var_mux = (0.5 * (p * (1 - p) + q * (1 - q))
                       + 0.25 * (p - q) ** 2) / L
            bounds = (3.0 * math.sqrt(target_and * (1 - target_and) / L),
                      3.0 * math.sqrt(var_mux))
            for op, x, target, bound in zip(("and", "mux"), est[j, k],
                                            (target_and, (p + q) / 2.0), bounds):
                passes = int(np.count_nonzero(np.abs(x - target) <= bound))
                rows.append((op, p, q, L, n_seeds, passes, bound))
    header = ("op", "p", "q", "length", "seeds", "passes", "bound")
    return [("sc_arith.csv", partial(write_csv, header=header, rows=rows))], True


def _build_decoder_dataset(spec, frames, snrs_db, seed):
    """Inputs and targets of frames 0..frames-1, frame i at Eb/N0
    snrs_db[i % len(snrs_db)]; a count numpy cannot allocate exits 2."""
    index = _allocate(f"[dataset] frames = {frames}", np.arange, frames)
    messages, llrs, _ = polar.generate_frames(spec, seed, ("dataset",), index,
                                              np.take(snrs_db, index, mode="wrap"))
    return polar.llr_features(llrs), messages.astype(float)


def cmd_train_decoder(v, seed, workers):
    spec = _code_from_config(v)
    frames = v.get_int("dataset", "frames")
    snrs = v.get_float_list("dataset", "snrs_db")
    if not snrs:
        raise ConfigError("[dataset] snrs_db needs at least one SNR")
    cfg = training.OptimizerConfig(
        kind=v.get_str("training", "kind", "minibatch"),
        learning_rate=v.get_float("training", "learning_rate", 0.5),
        epochs=v.get_int("training", "epochs"),
        batch_size=v.get_int("training", "batch_size", 32),
        lr_decay=v.get_float("training", "lr_decay", 0.0),
        shuffle_seed=seed,
    )
    loss = training.LossSpec(kind=v.get_str(
        "training", "loss", training.CROSS_ENTROPY))
    X, Y = _build_decoder_dataset(spec, frames, snrs, seed)
    hidden = v.get_int_list("network", "hidden", [16])
    model = _allocate(f"[network] hidden = {hidden}", training.init_model,
                      [spec.N] + hidden + [spec.K], seed)
    model, history = training.train(model, X, Y, cfg, loss)
    return [("code_spec.json", spec.to_json),
            ("model.json", partial(save_model, model)),
            ("history.csv", partial(training.write_history_csv, history))], True


def cmd_ber(v, seed, workers):
    spec = _code_from_config(v)
    decoder = v.get_str("ber", "decoder", "classical")
    if decoder not in ("classical", "neural", "paired"):
        raise ConfigError(f"[ber] decoder must be classical, neural or "
                          f"paired, got {decoder!r}")
    snrs = v.get_float_list("ber", "snrs_db")
    if not snrs:
        raise ConfigError("[ber] snrs_db needs at least one SNR")
    min_frames = v.get_int("ber", "min_frames")
    _check_flat("[ber] snrs_db x min_frames", len(snrs), min_frames)
    window = v.get_int("ber", "window", 64)
    which = ["classical", "neural"] if decoder == "paired" else [decoder]
    models = [None] * len(which)
    if "neural" in which:
        model_path = v.get_str("ber", "model_path")
        if not os.path.isfile(model_path):
            raise ConfigError(
                f"neural decoding needs a trained model; expected file at "
                f"{model_path} (run train-decoder first)")
        models[-1] = load_model(model_path)
    results = polar.ber_experiment(spec, snrs, min_frames, seed, models,
                                   window, workers)
    files = []
    for name, rows in zip(which, results):
        files.append((f"ber_{name}.csv", partial(polar.write_ber_csv, rows)))
        files.append((f"timing_{name}.csv", partial(polar.write_timing_csv, rows)))
    return files, True


def cmd_gradcheck(v, seed, workers):
    n_nets = v.get_int("gradcheck", "networks", 100)
    max_layers = v.get_int_list("gradcheck", "max_sizes", [4, 8, 4])
    if len(max_layers) < 2 or not all(1 <= m < 2 ** 63 for m in max_layers):
        raise ConfigError(f"[gradcheck] max_sizes needs at least two layer "
                          f"sizes, each in [1, 2**63), got {max_layers}")
    if n_nets < 1:
        raise ConfigError(f"[gradcheck] networks must be >= 1, got {n_nets}")
    loss = training.LossSpec(kind=v.get_str(
        "gradcheck", "loss", training.SQUARED_ERROR))
    rng = derive_rng(seed, "gradcheck")
    rows = []
    worst = 0.0
    for i in range(n_nets):
        sizes = [int(rng.integers(1, m + 1)) for m in max_layers]
        model = _allocate(f"[gradcheck] max_sizes = {max_layers}", training.init_model,
                          sizes, int(rng.integers(0, 2 ** 63)))
        x = rng.standard_normal(sizes[0])
        y = rng.uniform(0.1, 0.9, sizes[-1])
        bp = training.backprop_gradient(model, [x], [y], loss)
        fd = training.finite_difference_gradient(model, x, y, loss)
        err = 0.0
        for pair in zip(bp, fd):
            for b, f in zip(*pair):     # weights, then biases
                rel = np.abs(b - f) / np.maximum(np.abs(f), 1e-8)
                err = max(err, float(np.max(rel)))
        worst = max(worst, err)
        rows.append((i, "x".join(map(str, sizes)), err))
    header = ("net", "sizes", "max_rel_error")
    print(f"gradcheck: {n_nets} networks, max relative error {worst:.3e}")
    files = [("gradcheck.csv", partial(write_csv, header=header, rows=rows))]
    return files, worst <= 1e-5


# each computes only, returning ([(file name, writer(path))], ok) for _run
_COMMANDS = {
    "device-sweep": cmd_device_sweep,
    "sc-arith-bench": cmd_sc_arith_bench,
    "train-decoder": cmd_train_decoder,
    "ber": cmd_ber,
    "gradcheck": cmd_gradcheck,
}


def _load_manifest(path):
    """(command, config, master seed, workers) recorded in a manifest."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        _COMMANDS[doc["command"]]       # KeyError for an unknown command
        cfg, seed, workers = doc["config"], doc["master_seed"], doc["workers"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"manifest {path} is unreadable or lacks an "
                          f"entry: {exc!r}") from None
    if (isinstance(workers, bool) or not isinstance(workers, int)
            or not isinstance(cfg, dict)
            or not all(isinstance(table, dict) for table in cfg.values())):
        raise ConfigError(f"manifest {path} needs an integer workers and a "
                          f"config of sections, got {workers!r} and {cfg!r}")
    if doc.get("artifact_version") != __version__:   # its defaults may differ
        print(f"warning: manifest {path} was written by spinsc "
              f"{doc.get('artifact_version')}, rerun by {__version__}", file=sys.stderr)
    return doc["command"], cfg, seed, workers


def _environment():
    """Versions, the platform, the CPU count worker_count caps workers at and
    numpy's SIMD dispatch, by which mtj.sigmoid's and SC's vectorised exp and
    log1p round; rerun does not read it.  It calls no public rngtools
    function, so perfbench's set-up probe, which stops at the first layer
    call, still times the command's own set-up.  numpy 2 keeps its extension module in
    numpy._core, numpy 1 in numpy.core; the dispatch is None if neither is
    loaded."""
    simd = None
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        umath = sys.modules.get(name)
        if hasattr(umath, "__cpu_features__"):
            simd = {"baseline": list(umath.__cpu_baseline__),
                    "found": [f for f in umath.__cpu_dispatch__
                              if umath.__cpu_features__[f]]}
            break
    uname = platform.uname()    # not platform.platform(): it spawns `uname -p`
    return {"spinsc": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "numpy_simd": simd,
            "platform": f"{uname.system}-{uname.release}-{uname.machine}",
            "allowed_cpus": _allowed_cpus()}


def _run(command, cfg_dict, seed, workers, out_dir):
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"master seed must be a non-negative integer, "
                          f"got {seed!r}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out-dir {out_dir}: {exc}") from None
    view = ConfigView(cfg_dict)
    view.read |= {("run", "seed"), ("run", "workers")}  # main resolved these
    env = _environment()
    t0 = time.perf_counter()
    files, ok = _COMMANDS[command](view, seed, workers)
    t1 = time.perf_counter()
    try:
        outputs = [_write(out_dir, name, writer) for name, writer in files]
        t2 = time.perf_counter()
        doc = {
            "command": command,
            "artifact_version": __version__,
            "env": env,
            "master_seed": seed,
            "workers": workers,
            "config": cfg_dict,
            "outputs": outputs,
            "duration_s": t2 - t0,
            "stages": {"compute_s": t1 - t0, "write_s": t2 - t1},
        }
        _write(out_dir, MANIFEST_NAME, partial(write_json, doc=doc))
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 3
    unread = [(s, k) for s in cfg_dict for k in cfg_dict[s] if (s, k) not in view.read]
    for section, key in unread:
        print(f"warning: unused config key [{section}] {key}", file=sys.stderr)
    return 0 if ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinsc",
        description="MTJ stochastic-neuron lab and polar-code decoding harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides [run] seed)")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out-dir", default=".")
    p = sub.add_parser("rerun", help="repeat a run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)

    try:
        if args.command == "rerun":
            command, cfg, seed, workers = _load_manifest(args.manifest)
            if args.workers is not None:
                workers = args.workers
        else:
            command = args.command
            cfg = load_config(args.config)
            view = ConfigView(cfg)
            seed = args.seed if args.seed is not None else view.get_int("run", "seed", 0)
            workers = (args.workers if args.workers is not None
                       else view.get_int("run", "workers", 1))
        return _run(command, cfg, seed, workers, args.out_dir)
    except SpinscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
