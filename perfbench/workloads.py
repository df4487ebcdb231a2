"""The five benchmark workloads: inputs from a seed, one operation each,
and the semantic checks on what the operation wrote.

An operation is one pass over a workload's stages, each a CLI invocation
(`spinsc.cli.main`) or a library call.  spinsc is imported lazily, after
the caller has put the checkout's `src` on the path.
"""

import hashlib
import json
import math
import os
import time

WORKLOADS = ("sweep", "trajectory", "ber", "decoder", "arith")

# Run lengths.  The full sweep keeps the device's default equilibration and
# relax windows.  "tiny" exists for the self-tests and the warm-up only: it
# shortens every phase to a few steps, and its outputs are not expected to
# pass the statistical checks.
SIZES = {
    "full": {"sweep_trials": 500, "sweep_pulse_s": 5e-10, "sweep_device": {},
             "traj_pulse_s": 1e-9, "ber_frames": 400,
             "dec_frames": 512, "dec_epochs": 6, "dec_ber_frames": 100,
             "arith_seeds": 5, "arith_length": 1_000_000},
    "tiny": {"sweep_trials": 4, "sweep_pulse_s": 1e-12,
             "sweep_device": {"equil_steps": 2, "relax_time_s": 2e-13},
             "traj_pulse_s": 2e-11, "ber_frames": 3,
             "dec_frames": 64, "dec_epochs": 2, "dec_ber_frames": 3,
             "arith_seeds": 1, "arith_length": 1000},
}

# Set-up functions: a probe of set-up time runs past them and stops at the
# first call of any other public layer function.
SETUP_FUNCTIONS = frozenset({
    "polar.construct_frozen_set", "network.load_model",
    "llgs.default_device_params", "mtj.default_mtj_params",
})

MODEL_PLACEHOLDER = "<op-dir>/ber/model.json"


def master_seed(workload, seed):
    """The spinsc master seed a workload seed maps to."""
    digest = hashlib.sha256(f"spinsc-bench:{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def build(workload, seed, scale="full"):
    """Everything an operation of this workload needs, from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    z = SIZES[scale]
    ms = master_seed(workload, seed)
    spec = {"workload": workload, "seed": seed, "scale": scale,
            "master_seed": ms, "workers": 1, "stages": {}}
    if workload == "sweep":
        spec["stages"]["sweep"] = ("device-sweep", {
            "run": {"seed": ms, "workers": 1},
            "device": {"temperature_k": 300, "theta_sh": 0.3,
                       "r_p_ohm": 5e3, "r_ap_ohm": 10e3, **z["sweep_device"]},
            "sweep": {"current_start_a": 1.15e-3, "current_stop_a": 2.05e-3,
                      "points": 5, "pulse_width_s": z["sweep_pulse_s"],
                      "trials_per_point": z["sweep_trials"]}})
    elif workload == "trajectory":
        spec["trajectory"] = {"start_deg": 178.0, "spin_current_a": 5e-4,
                              "pulse_s": z["traj_pulse_s"], "relax_s": 0.0,
                              "seed": ms, "record": True}
    elif workload == "ber":
        spec["workers"] = 2
        spec["stages"]["ber"] = ("ber", {
            "run": {"seed": ms},
            "code": {"n": 128, "k": 64, "design_snr_db": 0.0},
            "ber": {"decoder": "classical", "snrs_db": "2, 3, 4",
                    "min_frames": z["ber_frames"]}})
    elif workload == "decoder":
        spec["stages"]["train"] = ("train-decoder", {
            "run": {"seed": ms},
            "code": {"n": 8, "k": 4, "design_snr_db": 0.0},
            "dataset": {"frames": z["dec_frames"], "snrs_db": "3, 5, 7"},
            "network": {"hidden": 32},
            "training": {"kind": "minibatch", "batch_size": 32,
                         "learning_rate": 0.5, "epochs": z["dec_epochs"],
                         "loss": "binary-cross-entropy"}})
        spec["stages"]["ber"] = ("ber", {
            "run": {"seed": ms},
            "code": {"n": 8, "k": 4, "design_snr_db": 0.0},
            "ber": {"decoder": "paired", "snrs_db": "3, 5",
                    "min_frames": z["dec_ber_frames"], "window": 64,
                    "model_path": MODEL_PLACEHOLDER}})
    else:
        spec["stages"]["arith"] = ("sc-arith-bench", {
            "run": {"seed": ms},
            "scarith": {"length": z["arith_length"], "seeds": z["arith_seeds"],
                        "values": "0.1, 0.5, 0.9"}})
    return spec


def render_ini(sections, op_dir=None):
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if value == MODEL_PLACEHOLDER and op_dir is not None:
                value = os.path.join(op_dir, "ber", "model.json")
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def describe(spec):
    """The generated inputs as text, for the record."""
    parts = []
    for stage, (command, sections) in spec["stages"].items():
        parts.append(f"# stage {stage}: spinsc {command}\n{render_ini(sections)}")
    if "trajectory" in spec:
        parts.append("# llgs.simulate_pulse on default_device_params(): "
                     + json.dumps(spec["trajectory"], sort_keys=True))
    return "\n".join(parts)


def work_units(spec):
    """(units of work in one operation, the stage whose time they divide)."""
    w = spec["workload"]
    if w == "sweep":
        from spinsc import mtj
        p = mtj.default_mtj_params()
        dev = spec["stages"]["sweep"][1]["device"]
        sw = spec["stages"]["sweep"][1]["sweep"]
        steps = (dev.get("equil_steps", p.equil_steps)
                 + max(1, round(sw["pulse_width_s"] / p.device.dt))
                 + round(dev.get("relax_time_s", p.relax_time) / p.device.dt))
        return sw["points"] * sw["trials_per_point"] * steps, "sweep"
    if w == "trajectory":
        return trajectory_steps(spec), "simulate"
    if w == "ber":
        b = spec["stages"]["ber"][1]["ber"]
        return 3 * b["min_frames"], "ber"
    if w == "decoder":
        t = spec["stages"]["train"][1]
        return t["dataset"]["frames"] * t["training"]["epochs"], "train"
    a = spec["stages"]["arith"][1]["scarith"]
    return 9 * a["seeds"] * 3 * a["length"], "arith"


def trajectory_steps(spec):
    from spinsc import llgs
    t = spec["trajectory"]
    dt = llgs.default_device_params().dt
    return max(1, round(t["pulse_s"] / dt)) + round(t["relax_s"] / dt)


def run_cli_stage(spec, stage, op_dir, workers):
    from spinsc import cli
    command, sections = spec["stages"][stage]
    stage_dir = os.path.join(op_dir, stage)
    os.makedirs(stage_dir, exist_ok=True)
    cfg_path = os.path.join(op_dir, f"{stage}.cfg")
    with open(cfg_path, "w", newline="\n") as fh:
        fh.write(render_ini(sections, op_dir))
    argv = [command, "--config", cfg_path, "--out-dir", stage_dir,
            "--workers", str(workers)]
    return cli.main(argv)


def relabel_model(op_dir):
    """Copy the trained model to the BER stage as a stochastic-firing model."""
    with open(os.path.join(op_dir, "train", "model.json")) as fh:
        doc = json.load(fh)
    doc["activation_mode"] = "stochastic-firing"
    os.makedirs(os.path.join(op_dir, "ber"), exist_ok=True)
    with open(os.path.join(op_dir, "ber", "model.json"), "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def simulate_trajectory(spec):
    from spinsc import llgs
    t = spec["trajectory"]
    params = llgs.default_device_params()
    th = math.radians(t["start_deg"])
    pulse = llgs.SpinCurrentPulse(t["spin_current_a"], t["pulse_s"])
    return llgs.simulate_pulse([math.sin(th), 0.0, math.cos(th)], pulse, params,
                               t["relax_s"], seed=t["seed"], record=t["record"])


def run_op(spec, op_dir, workers):
    """Run one operation; returns its record: stage times, their
    perf_counter windows, errors."""
    os.makedirs(op_dir, exist_ok=True)
    rec = {"windows": {}, "errors": [], "info": {}}
    t_start = time.perf_counter()
    if spec["workload"] == "trajectory":
        t0 = time.perf_counter()
        tr = simulate_trajectory(spec)
        t1 = time.perf_counter()
        tr.to_csv(os.path.join(op_dir, "trajectory.csv"))
        rec["windows"] = {"simulate": (t0, t1), "write": (t1, time.perf_counter())}
        rec["info"] = {"switched": tr.switched,
                       "max_post_renorm_drift": tr.max_post_renorm_drift,
                       "max_pre_renorm_drift": tr.max_pre_renorm_drift}
    else:
        for stage in spec["stages"]:
            if spec["workload"] == "decoder" and stage == "ber":
                relabel_model(op_dir)
            t0 = time.perf_counter()
            rc = run_cli_stage(spec, stage, op_dir, workers)
            rec["windows"][stage] = (t0, time.perf_counter())
            if rc != 0:
                rec["errors"].append(f"stage {stage} exited with code {rc}")
                break
    rec["window"] = (t_start, time.perf_counter())
    rec["wall_s"] = rec["window"][1] - t_start
    rec["stages"] = {k: t1 - t0 for k, (t0, t1) in rec["windows"].items()}
    # every stage ran, whatever its exit code: its time is a measurement
    rec["completed"] = not spec["stages"] or len(rec["stages"]) == len(spec["stages"])
    return rec


def work_per_s(spec, rec):
    """Units of work per second of the stage that does them, or None when
    the operation did not run to its end."""
    units, stage = work_units(spec)
    if not rec.get("completed"):
        return None
    return units / rec["stages"][stage]


def seeded_files(op_dir):
    """Data files whose bytes the seed fixes: all outputs except the
    manifest (it holds a duration), timing sidecars and input configs."""
    found = []
    for dirpath, _, files in os.walk(op_dir):
        for name in files:
            if (name == "manifest.json" or name.startswith("timing_")
                    or name.endswith(".cfg")):
                continue
            found.append(os.path.relpath(os.path.join(dirpath, name), op_dir))
    return sorted(found)


def hash_outputs(op_dir):
    out = {}
    for rel in seeded_files(op_dir):
        with open(os.path.join(op_dir, rel), "rb") as fh:
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_csv(path):
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def uncoded_bpsk_ber(ebn0_db):
    """Q(sqrt(2 Eb/N0)) for uncoded BPSK over AWGN."""
    return 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))


# Two-sided tail of a normal beyond 3 sigma: the share of seeds the CLI's
# 3-sigma test is expected to fail.
THREE_SIGMA_MISS = math.erfc(3.0 / math.sqrt(2.0))
# A pass count counts as outside the 3-sigma expectation when that many
# failed tests or more would occur with less than this probability.
MISS_TAIL_LIMIT = 1e-6


def binomial_tail(n, k, q):
    """P[Binomial(n, q) >= k]."""
    return sum(math.comb(n, i) * q ** i * (1.0 - q) ** (n - i)
               for i in range(k, n + 1))


def check(spec, op_dir, rec):
    """Semantic checks on an operation's outputs; returns error strings."""
    w = spec["workload"]
    errors = []
    try:
        if w == "sweep":
            d = os.path.join(op_dir, "sweep")
            rows = read_csv(os.path.join(d, "switching_curve.csv"))
            p = [float(r["p_hat"]) for r in rows]
            ci = [float(r["ci_halfwidth"]) for r in rows]
            for i in range(len(p) - 1):
                if p[i + 1] < p[i] - (ci[i] + ci[i + 1]):
                    errors.append(f"switching curve falls beyond its CIs "
                                  f"between points {i} and {i + 1}")
            with open(os.path.join(d, "sigmoid_fit.json")) as fh:
                r2 = json.load(fh)["r_squared"]
            if not r2 >= 0.98:
                errors.append(f"sigmoid fit r^2 {r2} < 0.98")
        elif w == "trajectory":
            info = rec["info"]
            if not info["max_post_renorm_drift"] <= 1e-9:
                errors.append(f"post-renormalization drift "
                              f"{info['max_post_renorm_drift']} > 1e-9")
            if not info["switched"]:
                errors.append("trajectory did not switch")
            rows = read_csv(os.path.join(op_dir, "trajectory.csv"))
            if len(rows) != trajectory_steps(spec) + 1:
                errors.append(f"trajectory.csv has {len(rows)} samples")
        elif w == "ber":
            rows = read_csv(os.path.join(op_dir, "ber", "ber_classical.csv"))
            errors += _ber_checks(rows, spec["stages"]["ber"][1]["code"]["k"])
        elif w == "decoder":
            hist = read_csv(os.path.join(op_dir, "train", "history.csv"))
            loss = [float(r["mean_loss"]) for r in hist]
            if not loss[-1] < loss[0]:
                errors.append(f"training loss did not fall: {loss}")
            for r in read_csv(os.path.join(op_dir, "ber", "ber_neural.csv")):
                if not float(r["ber"]) < 0.5:
                    errors.append(f"neural BER {r['ber']} >= 0.5 at "
                                  f"{r['snr_db']} dB")
        else:
            rows = read_csv(os.path.join(op_dir, "arith", "sc_arith.csv"))
            n = sum(int(r["seeds"]) for r in rows)
            missed = sum(int(r["seeds"]) - int(r["passes"]) for r in rows)
            tail = binomial_tail(n, missed, THREE_SIGMA_MISS)
            if tail < MISS_TAIL_LIMIT:
                errors.append(f"{missed} of {n} 3-sigma tests failed "
                              f"(probability {tail:.2e})")
    except (OSError, KeyError, ValueError, IndexError) as exc:
        errors.append(f"output check could not read outputs: {exc!r}")
    return errors


def _ber_checks(rows, k):
    """BER falls with SNR (within 3 standard errors, as acceptance criterion
    10 has it) and the 3 dB point beats uncoded BPSK."""
    errors = []
    snr = [float(r["snr_db"]) for r in rows]
    ber = [float(r["ber"]) for r in rows]
    bits = [int(r["frames"]) * k for r in rows]
    se = [math.sqrt(b * (1 - b) / n) for b, n in zip(ber, bits)]
    for i in range(len(ber) - 1):
        if ber[i + 1] > ber[i] + 3 * math.hypot(se[i], se[i + 1]):
            errors.append(f"BER rises from {snr[i]} to {snr[i + 1]} dB")
    at3 = ber[snr.index(3.0)]
    if not at3 < uncoded_bpsk_ber(3.0):
        errors.append(f"BER {at3} at 3 dB not below uncoded BPSK "
                      f"{uncoded_bpsk_ber(3.0)}")
    return errors
