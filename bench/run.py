#!/usr/bin/env python3
"""qbouncer benchmark.

    python3 bench/run.py --workload {revival,cli_readme,moments_long,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the package is imported from src/ next to bench/.
Each run is one process, one Python thread, one closed-loop client: it draws
the workload's inputs from --seed, sets up, then repeats the workload's fixed
op set (a "round") until --seconds have passed, checking every op's output
against an independent oracle (an op that raises or misses counts as failed).

With --trace 0 it reports the end-to-end metrics, every time at reference
host speed (hostspeed.py: the time it would take on a host whose speed does
not wander; the summary and the record also carry the raw times):
    setup_s      median over set-ups (at least 3, and at least 1 s of them) of
                 a fresh `import qbouncer` plus the workload's shared
                 preparation (numpy is already imported)
    wall_s       median wall time of one round
    op_s.p50     median wall time of one op
    cpu_s        median process CPU time (user + sys, all threads) of one round
    peak_rss_mb  peak resident memory of the process
With --trace 1 it sets up once, wraps the layer entry points (tracing.py) and
reports the per-layer metrics (raw times) of set-up plus one round, as the median over
the rounds run; spans are written to .bench_run/.

Before the result, stdout carries a readable summary (with fail_frac =
failed/attempted) and one JSON line with the seed, the generated inputs and
the run metadata.  The last line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
`--workload all` runs each workload in its own process and prints them all.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
# Set up at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds, so a
# cheap set-up (an import) is sampled often enough for a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
MODULES = ("specfun", "scaling", "classical", "quantum", "moments", "cli")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import qbouncer afresh from SRC, dropping any earlier import first."""
    for name in [n for n in sys.modules if n == "qbouncer" or n.startswith("qbouncer.")]:
        del sys.modules[name]
    package = importlib.import_module("qbouncer")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qbouncer was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module("qbouncer." + m) for m in MODULES})


def run_rounds(wl, pkg, params, state, seconds, tracer=None, host=None):
    """Repeat the workload's op set until `seconds` have passed (at least once).

    With a HostSpeed sampler, op times are at reference speed, else raw.
    """
    ops = wl.ops(pkg, params, state)
    rounds, op_times, raw_op_times, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        wall = cpu = raw_wall = 0.0
        for label, fn in ops:
            if tracer is not None:
                tracer.op = attempted
            problems = None
            mark = host.mark() if host is not None else None
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                output = fn()
            except Exception as exc:
                problems = [f"raised {exc!r}"]
            raw_elapsed, raw_used = time.perf_counter() - t0, time.process_time() - c0
            elapsed, used = (raw_elapsed, raw_used) if host is None else \
                host.at_reference(mark, raw_elapsed, raw_used)
            wall, cpu, raw_wall = wall + elapsed, cpu + used, raw_wall + raw_elapsed
            op_times.append(elapsed)
            raw_op_times.append(raw_elapsed)
            if problems is None:
                try:
                    problems = wl.check(state, label, output)
                except Exception as exc:
                    problems = [f"oracle check raised {exc!r}"]
                del output
            attempted += 1
            if problems:
                failures.append({"round": len(rounds), "op": label, "problems": problems})
        rounds.append({"wall_s": wall, "cpu_s": cpu, "raw_wall_s": raw_wall})
        if time.perf_counter() - start >= seconds:
            break
    return SimpleNamespace(ops_per_round=len(ops), rounds=rounds, op_times=op_times,
                           raw_op_times=raw_op_times, attempted=attempted, failures=failures)


def timed_run(wl, params, seconds, workdir):
    setups, raw_setups = [], []
    with hostspeed.HostSpeed() as host:
        while len(setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_MIN_S:
            state = None  # let the previous set-up's data go before building the next
            gc.collect()
            mark, t0 = host.mark(), time.perf_counter()
            pkg = import_package()
            state = wl.prepare(pkg, params, workdir)
            raw_setups.append(time.perf_counter() - t0)
            setups += host.at_reference(mark, raw_setups[-1])
        run = run_rounds(wl, pkg, params, state, seconds, host=host)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in run.rounds),
        "op_s.p50": statistics.median(run.op_times),
        "cpu_s": statistics.median(r["cpu_s"] for r in run.rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    run.setup_samples, run.raw_setup_samples = setups, raw_setups
    return run, metrics, END_TO_END_UNITS


def traced_run(wl, params, seconds, workdir, spans_path):
    pkg = import_package()
    span_cost = tracing.Tracer.span_cost()
    tracer = tracing.Tracer()
    tracer.install(pkg)
    try:
        state = wl.prepare(pkg, params, workdir)
        run = run_rounds(wl, pkg, params, state, seconds, tracer)
    finally:
        tracer.restore()
    k = run.ops_per_round
    per_round = [tracing.layer_metrics(tracer.spans, {-1, *range(r * k, (r + 1) * k)}, span_cost)
                 for r in range(len(run.rounds))]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in tracing.UNITS}
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    run.span_cost_s = span_cost
    return run, metrics, tracing.UNITS


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """Threads OpenBLAS will use, when numpy bundles OpenBLAS; otherwise None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def run_metadata():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail_percentile(values):
    """Highest of p90/p99/p99.9 with at least ten samples above it, or None."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return None


def run_one(args):
    wl = workloads.WORKLOADS[args.workload]
    params = wl.generate(np.random.default_rng(args.seed))
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as workdir:
        if args.trace:
            spans_path = RUN_DIR / f"spans_{wl.name}_seed{args.seed}.jsonl.gz"
            run, metrics, units = traced_run(wl, params, args.seconds, workdir, spans_path)
        else:
            run, metrics, units = timed_run(wl, params, args.seconds, workdir)
    failed = len(run.failures)
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {run.attempted} ops in "
          f"{len(run.rounds)} rounds of {run.ops_per_round}, {failed} failed")
    for name, value in metrics.items():
        note = tracing.MOVES[name] if args.trace else ""
        print(f"  {name:40s} {value:<12.6g} {units[name]:6s} {note}")
    print(f"  {'fail_frac':40s} {failed / run.attempted:<12.6g} ({failed}/{run.attempted})")
    if not args.trace:
        tail = tail_percentile(run.op_times)
        if tail is not None:
            print(f"  {f'op_s.p{tail[0]:g}':40s} {tail[1]:<12.6g} s")
        raw = {"setup_s": statistics.median(run.raw_setup_samples),
               "wall_s": statistics.median(r["raw_wall_s"] for r in run.rounds),
               "op_s.p50": statistics.median(run.raw_op_times)}
        print("  raw, at this host's speed: " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items()))
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}")
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": params, "rounds": run.rounds, "ops": run.attempted,
        "op_s": run.op_times, "raw_op_s": run.raw_op_times, "ref_kernel_s": hostspeed.REF_KERNEL_S,
        "fail_frac": failed / run.attempted, "failures": run.failures,
        "setup_s": getattr(run, "setup_samples", None), "raw_setup_s": getattr(run, "raw_setup_samples", None),
        "span_cost_s": getattr(run, "span_cost_s", None),
        "meta": run_metadata(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own fresh process, exactly as a single-workload run."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"record"')))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import qbouncer from {SRC}: {exc}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
