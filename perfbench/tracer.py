"""Spans around the public functions of each egf module, and the per-layer
metrics computed from them.

The tracer replaces every binding of a wrapped function: the module attribute,
each ``from ... import`` copy in other egf modules and each entry of a
module-level list (``acceptance.CRITERIA``).  A span records name, start, end,
parent span, run id (one per egf command), item (scenario or sweep point),
whether the exception that ended it was raised there, and a note of counts
taken from the call's arguments or result.  Spans stay in memory until the
pass ends.  The kernel probes, timed apart from any pass, live here too.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import Counter, defaultdict, namedtuple

from workloads import RUN_LINEAR, SWEEP_GRIDS

LAYERS = {
    "scenarios": ("load_scenario",),
    "cli": ("main",),
    "runner": ("run_scenario", "write_artifacts", "sweep_values"),
    "parabolic": ("solve_cyclic_tridiag", "solve_banded", "solve_heat_circle",
                  "solve_quasilinear_divergence", "solve_linear_interval"),
    "flows": ("evolve_umbilical", "prescribed_mean_curvature_flow", "twisted_product_flow",
              "ftau_conformal_flow", "conformal_ode_system", "umbilical_metric_samples",
              "track_volume"),
    "reeb": ("reeb_setup", "evolve_reeb_lambda", "reconstruct_metric",
             "gaussian_curvature", "expansion_slope"),
    "chartgeom": ("weingarten_from_chart",),
    "symfun": ("eval_F", "power_sums", "sigma_from_tau", "f_recursion_constants"),
    "companion": ("build_companion", "char_poly_coefficients", "eigenpair_check",
                  "vandermonde_relation"),
    "acceptance": tuple(f"criterion_{k}" for k in range(1, 10)),
}

ITEMS = RUN_LINEAR + tuple(f"grid-{g}" for g in SWEEP_GRIDS)

# Kernel probes: (name, n, m) cyclic solves and one interval step.
PROBES = (("cyclic-n128-m1", 128, 1), ("cyclic-n128-m16", 128, 16),
          ("cyclic-n512-m1", 512, 1), ("cyclic-n1024-m1", 1024, 1),
          ("interval-n2049", 2049, 1))

# Each probe is timed in batches of at least PROBE_BATCH_S seconds; the
# median of PROBE_REPEATS batches is reported.
PROBE_REPEATS = 5
PROBE_BATCH_S = 0.05

Span = namedtuple("Span", "name start end parent run item raised note")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _steps_from_horizon(args, kwargs, pos):
    # (T, cfg) sit at positions pos, pos + 1
    return {"steps": int(round(_arg(args, kwargs, pos, "T") / _arg(args, kwargs, pos + 1, "cfg").dt))}


def _write_note(args, kwargs, result):
    res, outdir = _arg(args, kwargs, 0, "result"), _arg(args, kwargs, 1, "outdir")
    values = (len(res.trajectory_rows) * len(res.trajectory_header)
              + len(res.summary_rows) * len(res.summary_header))
    size = sum(os.path.getsize(os.path.join(outdir, f))
               for f in ("trajectory.csv", "summary.csv", "verdict.txt"))
    return {"values": values, "bytes": size}


# Counts taken after a call ends: fn(args, kwargs, result) -> {quantity: n}.
NOTES = {
    "parabolic.solve_cyclic_tridiag": lambda a, k, r: {
        "rhs_cols": 1 if r.ndim == 1 else r.shape[1]},
    "parabolic.solve_heat_circle": lambda a, k, r: {"steps": r.step_times.size - 1},
    "parabolic.solve_quasilinear_divergence": lambda a, k, r: {"steps": r.step_times.size - 1},
    "parabolic.solve_linear_interval": lambda a, k, r: _steps_from_horizon(a, k, 4),
    "flows.ftau_conformal_flow": lambda a, k, r: _steps_from_horizon(a, k, 3),
    "runner.write_artifacts": _write_note,
}

# Item of a runner call inside a sweep, where no command names it.
SWEEP_ITEM = {
    "runner.run_scenario": lambda a, k: f"grid-{_arg(a, k, 0, 'scn').grid}",
    "runner.write_artifacts": lambda a, k: os.path.basename(
        os.path.normpath(_arg(a, k, 1, "outdir"))).replace("=", "-"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = 0
        self.item = None
        self._stack = []
        self._seen = []
        self._patches = []

    def wrap(self, name, fn):
        note = NOTES.get(name)
        sweep_item = SWEEP_ITEM.get(name)
        clock, spans, stack = time.perf_counter, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            item = self.item
            if item is None and sweep_item is not None:
                item = sweep_item(args, kwargs)
            raised, failed, result = False, False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = True
                raised = not any(exc is e for e in self._seen)
                if raised:
                    self._seen.append(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                extra = note(args, kwargs, result) if note and not failed else None
                spans[idx] = Span(name, start, end, parent, self.run, item, raised, extra)

        return traced

    def install(self) -> None:
        """Wrap every binding of the functions in LAYERS."""
        wrappers = {}
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"egf.{layer}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "egf" and not modname.startswith("egf."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))
                elif isinstance(val, list):
                    for i, el in enumerate(val):
                        hit = wrappers.get(id(el))
                        if hit is not None and hit[0] is el:
                            val[i] = hit[1]
                            self._patches.append((val, i, el))

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._patches):
            if isinstance(owner, list):
                owner[key] = val
            else:
                setattr(owner, key, val)
        self._patches.clear()


def self_times(spans) -> list:
    """Each span's duration minus the part covered by its direct children.

    Spans come from one thread, so children never overlap one another.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def per_layer_units() -> dict:
    """Every per-layer metric name, in report order, with its unit."""
    u = {"scenarios.load_scenario.self_s": "s", "cli.main.calls": "count",
         "cli.main.self_s": "s", "runner.run_scenario.self_s": "s",
         "runner.write_artifacts.self_s": "s", "runner.write_artifacts.values": "count",
         "runner.write_artifacts.bytes": "B", "runner.write_artifacts.values_per_s": "1/s",
         "runner.sweep_values.self_s": "s"}
    for item in ITEMS:
        u[f"runner.run_scenario.{item}.s"] = "s"
        u[f"runner.write_artifacts.{item}.s"] = "s"
    u.update({
        "parabolic.solve_cyclic_tridiag.calls": "count",
        "parabolic.solve_cyclic_tridiag.self_s": "s",
        "parabolic.solve_cyclic_tridiag.rhs_cols": "count",
        "parabolic.solve_cyclic_tridiag.us_per_call": "us",
        "parabolic.solve_banded.calls": "count",
        "parabolic.solve_banded.self_s": "s",
        "parabolic.solve_heat_circle.self_s": "s",
        "parabolic.solve_heat_circle.steps": "count",
        "parabolic.solve_quasilinear_divergence.self_s": "s",
        "parabolic.solve_quasilinear_divergence.steps": "count",
        "parabolic.solve_quasilinear_divergence.solves_per_step": "solves/step",
        "parabolic.solve_quasilinear_divergence.picard_useful_ratio": "ratio",
        "parabolic.solve_linear_interval.self_s": "s",
        "parabolic.solve_linear_interval.steps": "count",
    })
    for fname in LAYERS["flows"][:6]:
        u[f"flows.{fname}.self_s"] = "s"
    u["flows.ftau_conformal_flow.solves_per_step"] = "solves/step"
    u["flows.track_volume.calls"] = "count"
    u["flows.track_volume.self_s"] = "s"
    for fname in LAYERS["reeb"]:
        u[f"reeb.{fname}.self_s"] = "s"
    for layer in ("chartgeom", "symfun", "companion"):
        for fname in LAYERS[layer]:
            u[f"{layer}.{fname}.calls"] = "count"
            u[f"{layer}.{fname}.self_s"] = "s"
    for fname in LAYERS["acceptance"]:
        u[f"acceptance.{fname}.s"] = "s"
    for layer in LAYERS:
        u[f"{layer}.errors"] = "count"
    u["bench.trace.overhead_s"] = "s"
    for name, _, _ in PROBES:
        u[f"probe.{name}.us_per_call"] = "us"
        u[f"probe.{name}.computed_flops"] = "flop"
        u[f"probe.{name}.computed_bytes"] = "B"
    return u


def _ancestor(spans, idx, names):
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name in names:
            return spans[p].name
        p = spans[p].parent
    return None


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (all but overhead and probes)."""
    selfs = self_times(spans)
    calls, self_s, incl = Counter(), defaultdict(float), defaultdict(float)
    notes, item_s, errors = Counter(), defaultdict(float), Counter()
    picard = ("parabolic.solve_quasilinear_divergence", "flows.ftau_conformal_flow")
    solves_under = Counter()
    for i, (s, st) in enumerate(zip(spans, selfs)):
        calls[s.name] += 1
        self_s[s.name] += st
        incl[s.name] += s.end - s.start
        if s.item is not None:
            item_s[(s.name, s.item)] += s.end - s.start
        if s.raised:
            errors[s.name.split(".", 1)[0]] += 1
        for key, val in (s.note or {}).items():
            notes[(s.name, key)] += val
        if s.name == "parabolic.solve_cyclic_tridiag":
            solves_under[_ancestor(spans, i, picard)] += 1

    out = {}
    for name in per_layer_units():
        if name.startswith(("bench.", "probe.")):
            continue
        if name.endswith(".errors"):
            out[name] = errors[name[: -len(".errors")]]
            continue
        func, _, quantity = name.rpartition(".")
        if func.startswith("runner.") and func.count(".") == 2:  # per-item time
            base, _, item = func.rpartition(".")
            out[name] = item_s[(base, item)]
        elif quantity in ("self_s", "calls"):
            out[name] = self_s[func] if quantity == "self_s" else calls[func]
        elif quantity == "s":
            out[name] = incl[func]
        elif quantity in ("steps", "rhs_cols", "values", "bytes"):
            out[name] = notes[(func, quantity)]
        elif quantity == "us_per_call":
            out[name] = 1e6 * _ratio(incl[func], calls[func])
        elif quantity == "values_per_s":
            out[name] = _ratio(notes[(func, "values")], incl[func])
        elif quantity == "solves_per_step":
            out[name] = _ratio(solves_under[func], notes[(func, "steps")])
        elif quantity == "picard_useful_ratio":
            out[name] = _ratio(notes[(func, "steps")], solves_under[func])
        else:
            raise KeyError(name)
    return out


def exact_counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly from pass to pass and run to run."""
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".steps", ".solves_per_step", ".rhs_cols",
                           ".values", ".picard_useful_ratio", ".errors"))}


def probe_model(kind: str, n: int, m: int) -> tuple:
    """Computed (flops, bytes) of one probe call, from an operation-count model.

    Cyclic solve: the tridiagonal elimination costs 3n flops to factor and 5n
    per column over m + 1 columns (the m right-hand sides plus the
    Sherman-Morrison column), and the rank-one correction 2nm.  The bytes are
    the compulsory traffic of 8-byte values: three diagonals and the
    right-hand sides read, the solution written.
    Interval step (one Crank-Nicolson step with its matrix assembly): about
    12n flops to assemble, 11n for the explicit half and 8n for the solve; it
    reads u0 and two coefficient arrays and writes two snapshots.
    """
    if kind == "cyclic":
        return 3 * n + 5 * n * (m + 1) + 2 * n * m, 8 * (3 * n + 2 * n * m)
    return 31 * n, 8 * 5 * n


def run_probes() -> dict:
    """Time the kernels at the shapes the workloads use (median of batches)."""
    import numpy as np
    from egf.parabolic import SolverConfig, solve_cyclic_tridiag, solve_linear_interval

    def timed(call) -> float:
        count = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(count):
                call()
            if time.perf_counter() - t0 >= PROBE_BATCH_S:
                break
            count *= 2
        per = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            for _ in range(count):
                call()
            per.append((time.perf_counter() - t0) / count)
        return sorted(per)[len(per) // 2]

    out = {}
    for name, n, m in PROBES:
        if name.startswith("cyclic"):
            c = 1e-3 / (2 * math.pi / n) ** 2
            diag, off = np.full(n, 1.0 + 2 * c), np.full(n - 1, -c)
            rhs = np.cos(np.arange(n) * 2 * math.pi / n)
            rhs = rhs if m == 1 else np.tile(rhs[:, None], (1, m))
            sec = timed(lambda: solve_cyclic_tridiag(off, diag, off, -c, -c, rhs))
            flops, size = probe_model("cyclic", n, m)
        else:
            x = np.linspace(-1.0, 1.0, n)
            alpha = 0.5 * math.pi * x
            a = np.sin(alpha) ** 2
            b = np.sin(alpha) * np.cos(alpha) * 0.5 * math.pi
            u0 = 0.5 * math.pi * np.abs(np.cos(alpha))
            cfg = SolverConfig(1e-4, "crank-nicolson", save_every=1)
            sec = timed(lambda: solve_linear_interval(u0, x[1] - x[0], a, b, 1e-4, cfg))
            flops, size = probe_model("interval", n, m)
        out[f"probe.{name}.us_per_call"] = sec * 1e6
        out[f"probe.{name}.computed_flops"] = flops
        out[f"probe.{name}.computed_bytes"] = size
    return out
