"""Metric names, units and directions, and the per-layer metrics computed
from one traced operation.  BENCHMARK.json repeats these lists; the
self-tests check that the two agree."""

from tracing import percentile_us

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "work_per_s": ("1/s", "higher"),
}

# (span name, stats reported for it)
SPAN_STATS = (
    ("llgs.simulate_pulse", ("calls", "self_s")),
    ("mtj.estimate_switching_probability", ("calls", "self_s", "max_s")),
    ("mtj.sweep_switching_curve", ("total_s",)),
    ("mtj.fit_stochastic_sigmoid", ("total_s",)),
    ("polar.sc_decode", ("calls", "self_s", "p50_us", "p99_us")),
    ("polar.encode", ("calls", "self_s")),
    ("polar.ber_experiment", ("total_s", "self_s")),
    ("polar.neural_sc_decode", ("calls", "self_s")),
    ("network.forward_rate", ("calls", "self_s")),
    ("network.forward", ("calls", "self_s")),
    ("network.forward_trace", ("calls", "self_s")),
    ("network.weighted_sum", ("calls", "self_s")),
    ("training.train", ("total_s",)),
    ("training.minibatch_step", ("calls", "self_s")),
    ("training.backprop_gradient", ("calls", "self_s")),
    ("training.mean_loss", ("total_s",)),
    ("bitstream.encode", ("calls", "self_s")),
    ("bitstream.multiply_and", ("self_s",)),
    ("bitstream.scaled_add_mux", ("self_s",)),
    ("bitstream.decode", ("self_s",)),
    ("rngtools.derive_rng", ("calls", "self_s")),
    ("polar.construct_frozen_set", ("total_s",)),
    ("network.load_model", ("total_s",)),
    ("cli.write", ("total_s",)),
)

STAT_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
              "total_s": ("s", "lower"), "max_s": ("s", "lower"),
              "p50_us": ("us", "lower"), "p99_us": ("us", "lower")}

DERIVED = {
    "llgs.step_us": ("us", "lower"),
    "mtj.trial_steps_per_s": ("trial-steps/s", "higher"),
    "polar.worker_busy_share": ("ratio", "higher"),
    "training.loss_eval_share": ("ratio", "lower"),
    "bitstream.encode.bits_per_s": ("bits/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def per_layer_units():
    out = {}
    for span, stats in SPAN_STATS:
        for stat in stats:
            out[f"{span}.{stat}"] = STAT_UNITS[stat]
    out.update(DERIVED)
    return out


def per_layer(stats, ctx):
    """Per-layer metrics of one traced operation.

    `stats` maps span names to Tracer.stats entries; `ctx` gives the
    operation's shape: trajectory steps per simulate_pulse call, trial-steps
    per switching estimate, bits per encode, decode busy seconds from the
    timing sidecars and the worker count they ran at.  trace_overhead is
    filled in by the caller, which alone sees the untraced runs.
    """
    def stat(span, key):
        s = stats.get(span)
        if s is None:
            return 0
        if key in ("p50_us", "p99_us"):
            return percentile_us(s["durations"], int(key[1:3]))
        return s[key]

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out = {}
    for span, keys in SPAN_STATS:
        for key in keys:
            out[f"{span}.{key}"] = stat(span, key)
    out["llgs.step_us"] = 1e6 * ratio(
        stat("llgs.simulate_pulse", "self_s"),
        stat("llgs.simulate_pulse", "calls") * ctx["trajectory_steps"])
    out["mtj.trial_steps_per_s"] = ratio(
        stat("mtj.estimate_switching_probability", "calls") * ctx["trial_steps_per_point"],
        stat("mtj.estimate_switching_probability", "total_s"))
    out["polar.worker_busy_share"] = ratio(
        ctx["decode_busy_s"], ctx["busy_workers"] * ctx["ber_wall_s"])
    out["training.loss_eval_share"] = ratio(
        stat("training.mean_loss", "total_s"), stat("training.train", "total_s"))
    out["bitstream.encode.bits_per_s"] = ratio(
        stat("bitstream.encode", "calls") * ctx["bits_per_encode"],
        stat("bitstream.encode", "total_s"))
    out["cli.self_s"] = sum(s["self_s"] for name, s in stats.items()
                            if name.startswith("cli.cmd_"))
    out["trace_overhead"] = 0.0
    return out
