"""spinsc benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; spinsc is imported from its `src`.  With
--trace 0 the last line of stdout holds the end-to-end metrics of untraced
operations; with --trace 1, the per-layer metrics of a traced run.  Every
operation's outputs are checked and the seeded data files hashed; the
lines before the last one report them, with the environment.  Workloads,
metrics and their expected interactions are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

PROBES = 5            # set-up probes per stage; setup_s is their median
KERNEL_SAMPLES = 5    # speed kernel timings before and after each probe
PROBE_TIMEOUT_S = 20
CHILD_TIMEOUT_S = 130
RUN_LIMIT_S = 170     # the whole run, probes included, ends within this
START = time.monotonic()


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPINSC_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args, timeout):
    """Run a worker in its own session; kill the whole group on timeout."""
    timeout = min(timeout, START + RUN_LIMIT_S - time.monotonic())
    if timeout <= 0:
        raise RuntimeError(f"no time left to run worker {args[0]}")
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {args[0]} timed out after {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return out


def probe_setup(spec_path, stage, model_path):
    """Seconds from starting a fresh interpreter to the stage's first layer
    call (imports, config parse, code construction, model load), at the
    reference speed: the kernel is timed here just before and just after."""
    args = ["probe", spec_path, stage] + ([model_path] if model_path else [])
    kernel_s = [speed.time_kernel() for _ in range(KERNEL_SAMPLES)]
    t0 = time.monotonic()
    out = run_child(args, PROBE_TIMEOUT_S)
    marks = [line.split()[1] for line in out.splitlines()
             if line.startswith("PERFBENCH_SETUP_DONE ")]
    if not marks:
        raise RuntimeError(f"set-up probe of stage {stage} reported no layer call")
    kernel_s += [speed.time_kernel() for _ in range(KERNEL_SAMPLES)]
    return (float(marks[0]) - t0) * speed.speed_factor(kernel_s)


def setup_seconds(spec, spec_path, run_dir):
    model = None
    if spec["workload"] == "decoder":
        model = os.path.join(run_dir, "op0", "ber", "model.json")
        if not os.path.exists(model):
            model = None
    stages = list(spec["stages"]) or ["simulate"]
    total = 0.0
    for stage in stages:
        if stage == "ber" and spec["workload"] == "decoder" and model is None:
            raise RuntimeError("no trained model to probe the BER stage with")
        total += statistics.median(probe_setup(spec_path, stage, model)
                                   for _ in range(PROBES))
    return total


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "spinsc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_environment():
    return {"spinsc_git_commit": git_commit(), "spinsc_src_sha256": source_digest(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "executable": sys.executable}


def end_to_end(result, setup_s):
    """Per-operation means over the run, at the reference speed: total time
    over operations, and total work over the time of the stages that did it."""
    good = [op for op in result["ops"] if op["completed"]]
    if not good:
        raise RuntimeError("no operation completed; nothing to measure")
    return {"wall_s": statistics.fmean(op["ref_wall_s"] for op in good),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "work_per_s": len(good) / sum(1.0 / op["ref_work_per_s"] for op in good)}


def report(ops):
    for i, op in enumerate(ops):
        status = "ok" if not op["errors"] else "FAILED: " + " | ".join(op["errors"])
        wall, ref = op["wall_s"], op.get("ref_wall_s")
        stages = " ".join(f"{k}={v:.3f}s" for k, v in op["stages"].items())
        print(f"# op {i} workers={op['workers']} wall="
              f"{'-' if wall is None else f'{wall:.3f}s'}"
              f"{'' if ref is None else f' ref_wall={ref:.3f}s'} {stages} {status}")
        print("# op {} sha256 {}".format(i, json.dumps(op["hashes"], sort_keys=True)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                    help="run lengths; 'tiny' is for the self-tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spinsc", "__init__.py")):
        print(f"error: no spinsc sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".perfbench_runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spec = workloads.build(args.workload, args.seed, args.scale)
    spec["_run_dir"] = run_dir
    spec["_seconds"] = args.seconds
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh, indent=1)
    result_path = os.path.join(run_dir, "result.json")

    env = host_environment()
    env["loadavg_before"] = os.getloadavg()
    try:
        run_child(["trace" if args.trace else "measure", spec_path, result_path],
                  CHILD_TIMEOUT_S)
        with open(result_path) as fh:
            result = json.load(fh)
        if args.trace:
            values = result["per_layer"]
            units = metrics.per_layer_units()
        else:
            values = end_to_end(result,
                                setup_seconds(spec, spec_path, run_dir))
            units = metrics.END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_after"] = os.getloadavg()
    env.update(result["env"])

    print("# generated inputs:")
    for line in workloads.describe(spec).splitlines():
        print(f"#   {line}")
    print("# environment " + json.dumps(env, sort_keys=True))
    report(result["ops"])
    with open(os.path.join(run_dir, "details.json"), "w") as fh:
        json.dump({"env": env, "ops": result["ops"], "metrics": values}, fh,
                  indent=1, sort_keys=True)

    failed = sum(1 for op in result["ops"] if op["errors"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["ops"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
