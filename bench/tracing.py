"""Traced run: wraps qbouncer's layer entry points where their callers look
them up, records one span per call in memory, and derives per-layer metrics.

Only attributes are swapped (module globals, a class attribute and the CLI's
runner table); no file under src/ changes, and restore() puts every original
back.  A span is [name, start, end, parent, op, qty, tag, raised]: parent is
the index of the enclosing span (-1 at top level), op the benchmark op it
belongs to (-1 during setup), qty a work count measured at the boundary
(points, bytes, steps, ...), tag a discriminator (the moment order), and
raised whether an exception left the span's layer there.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np

# The layer -> metric table: (metric, unit, better, end-to-end metrics it
# should move, workloads it moves on).  BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("specfun.integrate_1d.calls", "count", "lower", "setup_s, wall_s", "revival, cli_readme"),
    ("specfun.integrate_1d.self_s", "s", "lower", "setup_s, wall_s", "revival, cli_readme"),
    ("specfun.airy_ai.calls", "count", "lower", "setup_s, wall_s", "revival, cli_readme"),
    ("specfun.airy_ai.points", "count", "lower", "setup_s, wall_s", "revival, cli_readme"),
    ("specfun.airy_ai.self_s", "s", "lower", "setup_s, wall_s", "revival, cli_readme"),
    ("specfun.points_per_integral", "count", "lower", "setup_s, wall_s", "revival, cli_readme"),
    ("specfun.airy.calls", "count", "lower", "setup_s", "revival, cli_readme"),
    ("specfun.airy_zeros.s", "s", "lower", "setup_s", "revival, cli_readme"),
    ("specfun.newton_per_zero", "count", "lower", "setup_s", "revival, cli_readme"),
    ("quantum.build_basis.s", "s", "lower", "setup_s, wall_s, op_s.p50", "revival, cli_readme"),
    ("quantum.x2_matrix.s", "s", "lower", "setup_s, wall_s, op_s.p50", "revival, cli_readme"),
    ("quantum.project_packet.s", "s", "lower", "op_s.p50, wall_s, cpu_s", "revival"),
    ("quantum.expectation_x_evolution.s", "s", "lower", "op_s.p50, wall_s, cpu_s, peak_rss_mb", "revival"),
    ("quantum.variance_x_evolution.s", "s", "lower", "op_s.p50, wall_s, cpu_s, peak_rss_mb", "revival"),
    ("quantum.evolution.ns_per_time_state2", "ns", "lower", "op_s.p50, wall_s, cpu_s", "revival"),
    ("quantum.expectation_x_series.s", "s", "lower", "op_s.p50, wall_s", "revival, cli_readme"),
    ("quantum.self_s", "s", "lower", "op_s.p50, wall_s, cpu_s", "revival, cli_readme"),
    ("classical.bounce_fourier.s", "s", "lower", "op_s.p50, wall_s", "cli_readme"),
    ("classical.bounce_trajectory.s", "s", "lower", "op_s.p50, wall_s", "cli_readme"),
    ("moments.integrate.s", "s", "lower", "wall_s, op_s.p50", "moments_long, cli_readme"),
    ("moments.moment_eom.calls", "count", "lower", "wall_s, op_s.p50", "moments_long, cli_readme"),
    ("moments.rk4_step_us.o2", "us", "lower", "wall_s, op_s.p50", "moments_long, cli_readme"),
    ("moments.rk4_step_us.o4", "us", "lower", "wall_s, op_s.p50", "moments_long"),
    ("moments.rk4_step_us.o6", "us", "lower", "wall_s, op_s.p50", "moments_long"),
    ("moments.closed_form_linear.s", "s", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("moments.envelope.s", "s", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("moments.self_s", "s", "lower", "wall_s, op_s.p50", "moments_long, cli_readme"),
    ("cli.resolve_config.s", "s", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("cli.run_spectrum.s", "s", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("cli.run_classical.s", "s", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("cli.run_quantum.s", "s", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("cli.run_moments.s", "s", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("cli.run_compare.s", "s", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("cli.write_table.s", "s", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("cli.write_table.bytes", "B", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("cli.self_s", "s", "lower", "wall_s, op_s.p50", "cli_readme"),
    ("specfun.raised", "count", "lower", "fail_frac", "all"),
    ("quantum.raised", "count", "lower", "fail_frac", "all"),
    ("classical.raised", "count", "lower", "fail_frac", "all"),
    ("moments.raised", "count", "lower", "fail_frac", "all"),
    ("cli.raised", "count", "lower", "fail_frac", "all"),
    ("trace.spans", "count", "lower", "none", "all"),
    ("trace.overhead_s", "s", "lower", "none", "all"),
]
UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}
MOVES = {name: f"moves {moves} on {on}" for name, _, _, moves, on in LAYER_METRICS}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(args, kwargs, result, box):
    return int(np.size(args[0])), None


def _evolution_work(forms):
    # times x states^2 per quadratic form (<x> needs one, Var(x) two).
    def measure(args, kwargs, result, box):
        state, times = args[0], _arg(args, kwargs, 1, "times")
        return int(np.size(times)) * state.basis.n_max ** 2 * forms, None
    return measure


def _rk4_steps(args, kwargs, result, box):
    t_end, dt = _arg(args, kwargs, 3, "t_end"), _arg(args, kwargs, 4, "dt")
    return max(1, int(round(t_end / dt))), args[0].order


def _bytes_written(args, kwargs, result, box):
    out = _arg(args, kwargs, 2, "out")
    return (os.path.getsize(out) if out != "-" else 0), None


def _count_integrand_points(args, kwargs):
    box = [0]
    integrand = args[0]

    def counted(x):
        box[0] += int(np.size(x))
        return integrand(x)

    return (counted,) + tuple(args[1:]), kwargs, box


def _integrand_points(args, kwargs, result, box):
    return box[0], None


class Tracer:
    """Span recorder for one traced run (single-threaded)."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, measure=None, rewrite=None):
        """fn wrapped so every call records a span named name."""
        module = name.split(".")[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op, 0, None, False]
            stack.append(len(spans))
            spans.append(span)
            box = None
            if rewrite is not None:
                args, kwargs, box = rewrite(args, kwargs)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = parent < 0 or spans[parent][0].split(".")[0] != module
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[5], span[6] = measure(args, kwargs, result, box)
            return result

        return traced

    def _patch(self, owner, attr, name, measure=None, rewrite=None):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        wrapped = self.wrap(name, original, measure, rewrite)
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def install(self, pkg):
        """Wrap the entry points of pkg (a namespace of qbouncer modules)."""
        sf, qm, cl, mo, cli = pkg.specfun, pkg.quantum, pkg.classical, pkg.moments, pkg.cli
        # specfun, as seen by its callers in specfun, quantum and cli
        self._patch(sf, "airy", "specfun.airy")
        self._patch(sf, "airy_zero", "specfun.airy_zero")
        self._patch(cli, "airy_zero", "specfun.airy_zero")
        self._patch(qm, "airy_zeros", "specfun.airy_zeros")
        self._patch(qm, "airy_ai", "specfun.airy_ai", _points)
        self._patch(qm, "integrate_1d", "specfun.integrate_1d", _integrand_points, _count_integrand_points)
        # quantum
        for attr in ("build_basis", "project_packet", "expectation_x_series"):
            self._patch(qm, attr, "quantum." + attr)
        self._patch(qm.Eigenbasis, "x2_matrix", "quantum.x2_matrix")
        self._patch(qm, "expectation_x_evolution", "quantum.expectation_x_evolution", _evolution_work(1))
        self._patch(qm, "variance_x_evolution", "quantum.variance_x_evolution", _evolution_work(2))
        # classical, as seen by cli and by moments.envelope
        for attr in ("bounce_fourier", "bounce_trajectory"):
            self._patch(cl, attr, "classical." + attr)
        self._patch(mo, "bounce_trajectory", "classical.bounce_trajectory")
        # moments; uncertainty_product and effective_hamiltonian report no metric of
        # their own, but wrapping them charges their time to moments, not to cli
        self._patch(mo, "integrate", "moments.integrate", _rk4_steps)
        for attr in ("moment_eom", "uncertainty_product", "effective_hamiltonian",
                     "closed_form_linear", "envelope"):
            self._patch(mo, attr, "moments." + attr)
        # cli: main, config, the runner table main dispatches through, and the writer
        self._patch(cli, "main", "cli.main")
        self._patch(cli, "resolve_config", "cli.resolve_config")
        self._patch(cli, "write_table", "cli.write_table", _bytes_written)
        for kind in list(cli._RUNNERS):
            self._patch(cli._RUNNERS, kind, "cli.run_" + kind)

    def restore(self):
        """Put every original entry point back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    @staticmethod
    def span_cost(calls=20000):
        """Seconds one span adds to a call, measured on a no-op."""
        def noop():
            return None

        traced = Tracer().wrap("trace.noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        raw = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        return (time.perf_counter() - start - raw) / calls


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans, ops, span_cost):
    """Per-layer metrics over the spans whose op is in ops.

    Self time is a span's duration minus the durations of its direct
    children; a module's self time sums it over that module's spans.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    calls, qty, raised = Counter(), Counter(), Counter()
    total, own, module_own = defaultdict(float), defaultdict(float), defaultdict(float)
    rk4_time, rk4_steps = defaultdict(float), Counter()
    picked = 0
    for i, (name, start, end, _, op, q, tag, err) in enumerate(spans):
        if op not in ops:
            continue
        picked += 1
        module = name.split(".")[0]
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
        module_own[module] += end - start - child[i]
        qty[name] += q
        raised[module] += err
        if name == "moments.integrate":
            rk4_time[tag] += end - start
            rk4_steps[tag] += q

    m = {
        "specfun.integrate_1d.calls": calls["specfun.integrate_1d"],
        "specfun.integrate_1d.self_s": own["specfun.integrate_1d"],
        "specfun.airy_ai.calls": calls["specfun.airy_ai"],
        "specfun.airy_ai.points": qty["specfun.airy_ai"],
        "specfun.airy_ai.self_s": own["specfun.airy_ai"],
        "specfun.points_per_integral": _ratio(qty["specfun.integrate_1d"], calls["specfun.integrate_1d"]),
        "specfun.airy.calls": calls["specfun.airy"],
        "specfun.newton_per_zero": _ratio(calls["specfun.airy"], calls["specfun.airy_zero"]),
        "quantum.evolution.ns_per_time_state2": _ratio(
            own["quantum.expectation_x_evolution"] + own["quantum.variance_x_evolution"],
            qty["quantum.expectation_x_evolution"] + qty["quantum.variance_x_evolution"], 1e9),
        "moments.moment_eom.calls": calls["moments.moment_eom"],
        "cli.write_table.bytes": qty["cli.write_table"],
        "trace.spans": picked,
        "trace.overhead_s": picked * span_cost,
    }
    for order in (2, 4, 6):
        m[f"moments.rk4_step_us.o{order}"] = _ratio(rk4_time[order], rk4_steps[order], 1e6)
    for module in ("specfun", "quantum", "classical", "moments", "cli"):
        m[module + ".raised"] = raised[module]
        m[module + ".self_s"] = module_own[module]
    for name in UNITS:
        if name.endswith(".s"):
            m[name] = total[name[:-2]]
    return {name: m[name] for name in UNITS}
