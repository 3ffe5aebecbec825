"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Work counts that later changes may cite as counts, so they must repeat exactly.
REPEATED_COUNTS = ("specfun.integrate_1d.calls", "specfun.airy_ai.points", "specfun.airy.calls",
                   "moments.moment_eom.calls", "cli.write_table.bytes")


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_repeat_across_runs():
    # cli_readme reaches all five counters; --seconds 0 runs exactly one round.
    runs = [_result(_bench(ROOT, "--workload", "cli_readme", "--seed", "7", "--seconds", "0",
                           "--trace", "1")) for _ in range(2)]
    for run in runs:
        assert run["correct"] and run["failed"] == 0
        assert set(run["metrics"]) == set(tracing.UNITS)
    for name in REPEATED_COUNTS:
        first, second = (run["metrics"][name]["value"] for run in runs)
        assert first == second and first > 0, name


def test_untraced_run_reports_end_to_end_metrics():
    run = _result(_bench(ROOT, "--workload", "moments_long", "--seed", "3", "--seconds", "0"))
    assert run["correct"] and run["attempted"] == workloads.MomentsLong.cases
    assert {k: v["unit"] for k, v in run["metrics"].items()} == {
        "setup_s": "s", "wall_s": "s", "op_s.p50": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    assert all(v["value"] > 0 for v in run["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "cli_readme", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tracing.LAYER_METRICS]


def test_host_speed_scales_to_the_reference_kernel():
    ref = hostspeed.REF_KERNEL_S
    host = hostspeed.HostSpeed()
    host._samples = [1.0, 2 * ref, 4 * ref]
    # two samples since mark 1: kernel time 6 ref taken out, mean speed (1/2 + 1/4) / 2
    wall, cpu = host.at_reference(1, 1.0, 0.5)
    assert wall == pytest.approx((1.0 - 6 * ref) * 0.375)
    assert cpu == pytest.approx((0.5 - 6 * ref) * 0.375)
    (short,) = host.at_reference(3, 0.01)  # no sample inside: one is taken at the end
    assert len(host._samples) == 4 and short == pytest.approx(0.01 * ref / host._samples[-1])


def test_host_speed_sampler_stops_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as host:
        end = time.perf_counter() + 5 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(host._samples) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_inputs_follow_the_seed():
    for wl in workloads.WORKLOADS.values():
        a, b, c = (wl.generate(np.random.default_rng(s)) for s in (5, 5, 6))
        assert a == b and a != c


def test_self_time_subtracts_direct_children():
    spans = [
        ["quantum.build_basis", 0.0, 10.0, -1, -1, 0, None, False],
        ["specfun.integrate_1d", 1.0, 5.0, 0, -1, 100, None, False],
        ["specfun.airy_ai", 2.0, 3.0, 1, -1, 40, None, False],
        ["specfun.airy_ai", 3.0, 4.5, 1, -1, 60, None, True],
        ["moments.integrate", 20.0, 21.0, -1, 0, 2000, 4, False],
    ]
    m = tracing.layer_metrics(spans, {-1}, span_cost=1e-6)
    assert m["quantum.build_basis.s"] == 10.0
    assert m["quantum.self_s"] == 6.0
    assert m["specfun.integrate_1d.self_s"] == 1.5
    assert m["specfun.airy_ai.self_s"] == 2.5 and m["specfun.airy_ai.points"] == 100
    assert m["specfun.points_per_integral"] == 100 and m["specfun.raised"] == 1
    assert m["trace.spans"] == 4 and m["moments.integrate.s"] == 0.0
    m = tracing.layer_metrics(spans, {0}, span_cost=1e-6)
    assert m["moments.rk4_step_us.o4"] == pytest.approx(500.0) and m["trace.spans"] == 1


def test_tracer_restores_every_entry_point():
    sys.path.insert(0, str(ROOT / "src"))
    import run

    pkg = run.import_package()
    before = {(id(owner), attr): owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
              for owner, attr in _targets(pkg)}
    tracer = tracing.Tracer()
    tracer.install(pkg)
    assert pkg.quantum.build_basis is not before[(id(pkg.quantum), "build_basis")]
    tracer.restore()
    for owner, attr in _targets(pkg):
        now = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert now is before[(id(owner), attr)], attr


def _targets(pkg):
    return ([(pkg.quantum, a) for a in ("build_basis", "integrate_1d", "airy_ai", "airy_zeros")]
            + [(pkg.quantum.Eigenbasis, "x2_matrix"), (pkg.specfun, "airy"), (pkg.moments, "moment_eom"),
               (pkg.cli, "write_table"), (pkg.cli, "main")]
            + [(pkg.cli._RUNNERS, k) for k in pkg.cli._RUNNERS])


def test_oracles_on_known_values():
    assert oracles.isserlis(2.0, 0.0, 3.0, 0, 4) == 3 * 3.0**2
    assert oracles.isserlis(2.0, 0.5, 3.0, 2, 2) == 2.0 * 3.0 + 2 * 0.5**2
    assert oracles.isserlis(2.0, 0.5, 3.0, 1, 2) == 0.0
    x0, g = 3.0, 2.0
    T = math.sqrt(2 * x0 / g)
    assert oracles.folded_bounce(x0, g, np.array([0.0, T, 2 * T, 2.5 * T])) == pytest.approx(
        [x0, 0.0, x0, x0 - 0.5 * g * (0.5 * T) ** 2])
    assert oracles.fourier_truncation_sup(1.0, 200) == pytest.approx(4 / math.pi**2 / 200.5, rel=1e-5)
