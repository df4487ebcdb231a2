"""Child process of the benchmark: runs a workload's operations in a fresh
interpreter and writes what it measured as JSON.

    python3 perfbench/worker.py measure <spec.json> <result.json>
    python3 perfbench/worker.py trace   <spec.json> <result.json>
    python3 perfbench/worker.py probe   <spec.json> <stage> [<model.json>]

`measure` repeats untraced operations at the workload's worker count until
the time is up, timing the speed kernel of speed.py alongside.  `trace`
alternates untraced and traced operations at one worker.  `probe` runs a
stage until its first layer call, prints the monotonic clock there and
exits: the set-up time probe.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import metrics
import speed
import tracing
import workloads


def load(path):
    with open(path) as fh:
        return json.load(fh)


def dump(doc, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def attempt(spec, op_dir, workers, patch_factory=None):
    """One operation, its checks and its output hashes; never raises."""
    shutil.rmtree(op_dir, ignore_errors=True)
    patch = None
    try:
        if patch_factory is not None:
            patch = patch_factory()
        rec = workloads.run_op(spec, op_dir, workers)
    except Exception:
        rec = {"stages": {}, "errors": [traceback.format_exc(limit=4)],
               "info": {}, "wall_s": None, "completed": False}
    finally:
        if patch is not None:
            patch.restore()
    if not rec["errors"]:
        rec["errors"] += workloads.check(spec, op_dir, rec)
    rec["work_per_s"] = workloads.work_per_s(spec, rec)
    rec["hashes"] = workloads.hash_outputs(op_dir)
    rec["workers"] = workers
    return rec


def blas_info():
    import ctypes
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                info["library"] = lib
                return info
    return info


def environment():
    import numpy as np
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas_info(),
            "blas_thread_env": {k: v for k, v in os.environ.items()
                                if k.endswith("_NUM_THREADS")}}


def warm_up(spec, run_dir):
    """One tiny-size operation, not counted, so that lazy imports and
    first-call costs of the process do not land on the first measured one."""
    tiny = workloads.build(spec["workload"], spec["seed"], "tiny")
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            workloads.run_op(tiny, os.path.join(run_dir, "warmup"), spec["workers"])
    except Exception:
        pass    # the measured operations report any failure


def expected_op_s(recs):
    """Median wall time of the operations so far: another one is started
    only if it is expected to end within the measuring time."""
    walls = [r["wall_s"] for r in recs if r["wall_s"] is not None]
    return statistics.median(walls) if walls else 0.0


def at_reference(sampler, spec, rec):
    """The operation's wall time and work rate at the reference speed."""
    if not rec["completed"]:
        return None, None
    units, stage = workloads.work_units(spec)
    return (sampler.at_reference(*rec["window"]),
            units / sampler.at_reference(*rec["windows"][stage]))


def measure(spec, run_dir, seconds):
    warm_up(spec, run_dir)
    sampler = speed.Sampler(os.path.join(run_dir, "speed"))
    deadline = time.monotonic() + seconds
    ops = []
    while True:
        op_dir = os.path.join(run_dir, f"op{len(ops)}")
        sampler.sample()
        rec = attempt(spec, op_dir, spec["workers"])
        sampler.collect()
        rec["ref_wall_s"], rec["ref_work_per_s"] = at_reference(sampler, spec, rec)
        rec["loadavg"] = os.getloadavg()
        if ops:
            if rec["hashes"] != ops[0]["hashes"]:
                rec["errors"].append("seeded data differ from the first operation")
            shutil.rmtree(op_dir)   # the first operation's outputs are kept
        ops.append(rec)
        if time.monotonic() + expected_op_s(ops) > deadline:
            break
    sampler.stop()
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"ops": ops, "peak_rss_mb": kb / 1024.0}


def layer_context(spec, native):
    """Shape of one operation for metrics.per_layer."""
    ctx = {"trajectory_steps": 0, "trial_steps_per_point": 0,
           "bits_per_encode": 0, "decode_busy_s": 0.0,
           "busy_workers": native["workers"],
           "ber_wall_s": native["stages"].get("ber", 0.0)}
    w = spec["workload"]
    if w == "trajectory":
        ctx["trajectory_steps"] = workloads.trajectory_steps(spec)
    elif w == "sweep":
        units, _ = workloads.work_units(spec)
        ctx["trial_steps_per_point"] = units // spec["stages"]["sweep"][1]["sweep"]["points"]
    elif w == "arith":
        ctx["bits_per_encode"] = spec["stages"]["arith"][1]["scarith"]["length"]
    return ctx


def decode_busy_s(op_dir):
    """Decode time the ber stage's timing sidecars report, in seconds."""
    busy = 0.0
    ber_dir = os.path.join(op_dir, "ber")
    if not os.path.isdir(ber_dir):
        return busy
    for name in os.listdir(ber_dir):
        if name.startswith("timing_"):
            decoder = name[len("timing_"):-len(".csv")]
            timing = workloads.read_csv(os.path.join(ber_dir, name))
            counts = workloads.read_csv(os.path.join(ber_dir, f"ber_{decoder}.csv"))
            busy += sum(1e-6 * float(t["mean_decode_us"]) * int(c["frames"])
                        for t, c in zip(timing, counts))
    return busy


def trace(spec, run_dir, seconds):
    """Cycles of (untraced at the workload's workers, untraced at 1 worker
    when that differs, traced at 1 worker) until the time is up."""
    warm_up(spec, run_dir)
    deadline = time.monotonic() + seconds
    tracer = tracing.Tracer()
    ops, cycles = [], []
    while True:
        c = len(cycles)
        tracer.run_id = c
        base = os.path.join(run_dir, f"cycle{c}")
        native = attempt(spec, os.path.join(base, "native"), spec["workers"])
        single = native
        if spec["workers"] != 1:
            single = attempt(spec, os.path.join(base, "untraced"), 1)
        traced = attempt(spec, os.path.join(base, "traced"), 1,
                         lambda: tracing.Patch(tracer.make_wrapper))
        left = tracing.leftover_wrappers()
        if left:
            traced["errors"].append(f"wrappers left installed: {left}")
        for rec in (native, single):
            if rec["hashes"] != traced["hashes"]:
                traced["errors"].append(
                    f"traced seeded data differ from the untraced run at "
                    f"{rec['workers']} worker(s)")
        ctx = layer_context(spec, native)
        ctx["decode_busy_s"] = decode_busy_s(os.path.join(base, "native"))
        layer = metrics.per_layer(tracer.stats(c), ctx)
        ops += [native] + ([single] if single is not native else []) + [traced]
        cycles.append({"layer": layer, "untraced_wall_s": single["wall_s"],
                       "traced_wall_s": traced["wall_s"]})
        if c:
            shutil.rmtree(base)     # the first cycle's outputs are kept
        if time.monotonic() + expected_op_s(ops) * len(ops) / len(cycles) > deadline:
            break
    tracer.write_csv(os.path.join(run_dir, "spans.csv"))
    layer = {k: statistics.median(c["layer"][k] for c in cycles)
             for k in cycles[0]["layer"]}
    walls = [(c["untraced_wall_s"], c["traced_wall_s"]) for c in cycles
             if None not in (c["untraced_wall_s"], c["traced_wall_s"])]
    if walls:
        layer["trace_overhead"] = (statistics.median(t for _, t in walls)
                                   / statistics.median(u for u, _ in walls) - 1.0)
    return {"ops": ops, "per_layer": layer}


def probe(spec, stage, model_path):
    """Run `stage` until its first layer call that is not set-up."""
    op_dir = os.path.join(spec["_run_dir"], "probe")
    if spec["workload"] == "trajectory":
        from spinsc import llgs  # noqa: F401
    else:
        from spinsc import cli  # noqa: F401

    def stopper(name, fn):
        def stop(*args, **kwargs):
            print(f"PERFBENCH_SETUP_DONE {time.monotonic()!r}", flush=True)
            os._exit(0)
        return stop

    targets = {k: v for k, v in tracing.layer_functions().items()
               if not v[0].startswith("cli.")
               and v[0] not in workloads.SETUP_FUNCTIONS}
    tracing.Patch(stopper, targets)
    if spec["workload"] == "trajectory":
        workloads.simulate_trajectory(spec)
    else:
        if model_path:
            os.makedirs(os.path.join(op_dir, "ber"), exist_ok=True)
            shutil.copyfile(model_path, os.path.join(op_dir, "ber", "model.json"))
        workloads.run_cli_stage(spec, stage, op_dir, spec["workers"])
    print(f"stage {stage} made no layer call", file=sys.stderr)
    return 1


def main(argv):
    mode, spec_path = argv[0], argv[1]
    spec = load(spec_path)
    for name in [n for n in os.environ if n.startswith("SPINSC_")]:
        del os.environ[name]
    if mode == "probe":
        return probe(spec, argv[2], argv[3] if len(argv) > 3 else None)
    run_dir = spec["_run_dir"]
    seconds = spec["_seconds"]
    result = measure(spec, run_dir, seconds) if mode == "measure" \
        else trace(spec, run_dir, seconds)
    result["env"] = environment()
    dump(result, argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
