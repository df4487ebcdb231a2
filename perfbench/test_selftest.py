"""Self-tests of the benchmark on tiny run lengths.

    python3 -m pytest perfbench

They check that the emitted metric names match BENCHMARK.json, that the
tracing wrappers change no seeded data file and are all removed after a
traced run, that pool workers hand back their speed samples, and that the
benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "0.1",
                     "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_writes_identical_data_and_unwraps(workload, tmp_path):
    spec = workloads.build(workload, 2, "tiny")
    tracer = tracing.Tracer()
    plain = worker.attempt(spec, str(tmp_path / "plain"), 1)
    traced = worker.attempt(spec, str(tmp_path / "traced"), 1,
                            lambda: tracing.Patch(tracer.make_wrapper))
    assert plain["hashes"] and plain["hashes"] == traced["hashes"]
    assert tracing.leftover_wrappers() == []
    assert tracer.spans and not tracer.stack


def test_wrappers_reach_every_binding_site():
    from spinsc import cli, llgs, mtj, network, polar, rngtools, training
    patch = tracing.Patch(lambda name, fn: (lambda *a, **k: fn(*a, **k)))
    try:
        for site in (polar.forward_rate, training.forward_trace, cli.load_model,
                     cli._COMMANDS["ber"], llgs.derive_rng, mtj.derive_rng,
                     network.derive_rng, polar.derive_rng, training.derive_rng,
                     cli.derive_rng, rngtools.derive_rng):
            assert getattr(site, tracing.MARK, False)
    finally:
        patch.restore()
    assert tracing.leftover_wrappers() == []
    assert cli._COMMANDS["ber"] is cli.cmd_ber


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "ber", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    return os.getpid()


def test_speed_samples_reach_back_from_pool_workers(tmp_path):
    sampler = speed.Sampler(str(tmp_path))
    try:
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=2) as pool:
            pids = set(pool.map(_burn, [0.35, 0.35]))
        t1 = time.perf_counter()
        sampler.collect()
    finally:
        sampler.stop()
    assert pids <= {s[3] for s in sampler.samples}
    assert os.listdir(tmp_path) == []
    assert 0 < sampler.at_reference(t0, t1)
