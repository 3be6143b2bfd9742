"""Execute a scenario and serialize CSV artifacts plus a verdict.

A run's result is arrays: the snapshot times, the node axes, the fields on
them (shape (snapshots, *axis lengths) each), the summary columns, the
checks and the metrics.  The CSV row layout belongs to the writer alone:
:func:`write_artifacts` lays the arrays out a block of whole snapshots at a
time.  Artifacts written per run directory:

- ``trajectory.csv``  one row per (snapshot time, node): t, x, fields
  (t, x, y, phi for the twisted kind)
- ``summary.csv``     one row per snapshot: t, sup-norms, volume when
  tracked, fitted decay rate (constant column, tail fit)
- ``verdict.txt``     one ``name: pass|fail (detail)`` line per check

All numbers are serialized with 17 significant digits; iteration orders
are fixed, so identical scenario files give byte-identical artifacts.
"""

from __future__ import annotations

import math
import multiprocessing  # fork_map's pool, loaded here rather than inside a command
import os
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import flows, reeb
from .errors import SolverError, ValidationError
from .parabolic import (
    CircleField,
    SolverConfig,
    _row_blocks,
    _second_difference,
    _sup_distance,
    exact_quasilinear_conductivity,
    exact_quasilinear_solution,
    fit_exponential_decay,
    solve_heat_circle,
    solve_quasilinear_divergence,
)
from .scenarios import FlowScenario, build_field, parse_entries
from .symfun import f_recursion_constants, power_sums

__all__ = ["Check", "RunResult", "run_scenario", "write_artifacts", "sweep_values", "fork_map"]


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{self.name}: {'pass' if self.passed else 'fail'} ({self.detail})"


@dataclass
class RunResult:
    """One run as arrays: the snapshot ``times``, the node ``axes`` by name
    and the ``fields`` by name, each of shape (len(times), *axis lengths)."""

    scenario: FlowScenario
    checks: list
    times: np.ndarray
    axes: dict
    fields: dict
    summary_header: list
    summary_rows: list
    metrics: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    @property
    def trajectory_header(self) -> list:
        return ["t", *self.axes, *self.fields]

    @property
    def trajectory_rows(self) -> range:
        """The indices of the trajectory.csv rows, one per snapshot and node,
        sized without laying the rows out."""
        return range(self.times.size * math.prod(a.size for a in self.axes.values()))


def _config(scn: FlowScenario) -> SolverConfig:
    return SolverConfig(scn.dt, scn.scheme, save_every=scn.save_every)


def _fit_alpha(times, sups) -> float:
    try:
        return fit_exponential_decay(times, sups)[1]
    except ValidationError:  # fewer than 5 samples
        return math.nan


def run_scenario(scn: FlowScenario) -> RunResult:
    """Run the scenario.  A solver error or an arithmetic one (numpy's
    floating-point error, Python's overflow) leaves with the scenario kind
    added to its message, and ``outside a step`` when no time step of the
    run raised it (a step's error names the solver, the step and t
    already)."""
    try:
        return _RUNNERS[scn.kind](scn)
    except (SolverError, ArithmeticError) as exc:
        where = "" if hasattr(exc, "step") else ", outside a step"
        raise type(exc)(f"{exc} (kind {scn.kind}{where})") from None


def _result(scn, checks, times, axes, fields, columns, alpha, metrics) -> RunResult:
    """The one place a kind's arrays become a :class:`RunResult`.

    ``columns`` are the summary columns after t, one value per snapshot; a
    blank volume column is added where the kind tracks none.  The metrics
    gain the last value of the first column (``final_sup``) and ``alpha``,
    which also fills the fitted_alpha column.
    """
    if "volume" not in columns:
        columns = {**columns, "volume": [""] * times.size}
    rows = [[t, *values, alpha] for t, *values in zip(times, *columns.values())]
    metrics = {"final_sup": float(next(iter(columns.values()))[-1]), "alpha": alpha, **metrics}
    header = ["t", *columns, "fitted_alpha"]
    return RunResult(scn, checks, times, axes, fields, header, rows, metrics)


def _deviation(states: np.ndarray) -> tuple[np.ndarray, float]:
    """Per snapshot, sup |u - mean(u_0)| of the snapshot states u (one row
    each), and the drift of the conserved mean: the largest distance of a
    snapshot's mean from mean(u_0)."""
    means = states.mean(axis=1)
    return _sup_distance(states, means[0]), float(np.max(np.abs(means - means[0])))


def _monotone(name: str, series: np.ndarray, detail: str) -> Check:
    return Check(name, bool(np.all(np.diff(series) <= 1e-12)), detail)


def _circle_nodes(scn: FlowScenario) -> np.ndarray:
    return np.arange(scn.grid) * scn.length / scn.grid


def _run_pde_reference(scn: FlowScenario) -> RunResult:
    x = _circle_nodes(scn)
    exact_problem = scn.get("problem") == "exact-quasilinear"
    if exact_problem:
        u0 = CircleField(scn.length, exact_quasilinear_solution(0.0, x))
        traj = solve_quasilinear_divergence(
            u0, *exact_quasilinear_conductivity(), scn.T, _config(scn)
        )
    else:
        u0 = CircleField(scn.length, build_field(scn, "init", x))
        traj = solve_heat_circle(u0, scn.T, _config(scn))
    sup = _sup_distance(traj.states)
    deviation, drift = _deviation(traj.states)
    alpha = _fit_alpha(traj.times, deviation)
    if not exact_problem:
        checks = [
            Check("fitted-alpha-near-one", 0.99 <= alpha <= 1.01, f"alpha {alpha:.6f}"),
            Check("mean-conservation", drift <= 1e-10, f"drift {drift:.3e}"),
        ]
        return _result(scn, checks, traj.times, {"x": x}, {"u": traj.states},
                       {"sup_u": sup}, alpha, {"drift": drift})

    exact = np.empty_like(traj.states)
    errors = np.empty(traj.times.size)
    for row, t in enumerate(traj.times):
        exact[row] = exact_quasilinear_solution(t, x)
        errors[row] = np.abs(traj.states[row] - exact[row]).max()
    tol = scn.check_tolerance
    decay_bound = math.exp(-traj.times[-1])
    checks = [
        Check("sup-error-vs-exact", errors[-1] <= tol, f"{errors[-1]:.3e} <= {tol:.3e}"),
        Check("decay-consistency", sup[-1] <= decay_bound * (1 + 1e-2),
              f"sup {sup[-1]:.6e} vs e^-T {decay_bound:.6e}"),
        Check("mass-conservation", drift <= 1e-10, f"max mean drift {drift:.3e}"),
    ]
    return _result(scn, checks, traj.times, {"x": x}, {"u": traj.states, "exact": exact},
                   {"sup_u": sup, "sup_error": errors}, alpha,
                   {"sup_error": float(errors[-1]), "drift": drift})


def _run_tau_heat(scn: FlowScenario) -> RunResult:
    x = _circle_nodes(scn)
    tau1 = CircleField(scn.length, build_field(scn, "init", x))
    traj = solve_heat_circle(tau1, scn.T, _config(scn))
    sup, drift = _deviation(traj.states)
    checks = [
        Check("mean-conservation", drift <= 1e-10, f"drift {drift:.3e}"),
        _monotone("monotone-sup-deviation", sup, "sup |tau1 - mean| non-increasing"),
    ]
    return _result(scn, checks, traj.times, {"x": x}, {"tau1": traj.states},
                   {"sup_deviation": sup}, _fit_alpha(traj.times, sup), {"drift": drift})


def _run_umbilical(scn: FlowScenario) -> RunResult:
    x = _circle_nodes(scn)
    lam0_samples = build_field(scn, "init", x)
    if abs(float(np.mean(lam0_samples))) > 1e-10:
        raise ValidationError(
            "umbilical scenario needs zero-mean initial curvature "
            "(closed-curve integral identity)"
        )
    slope = scn.get("psi-slope")
    lam0 = CircleField(scn.length, lam0_samples)
    h = lam0.h
    log_rho0 = 0.5 * flows.umbilical_log_factor(lam0)  # -int lam0
    if np.max(log_rho0) > np.log(np.finfo(float).max):
        raise ValidationError("volume density overflows: the integral of the initial "
                              f"curvature reaches {-np.max(log_rho0):.3e}")
    times, lam, conf = flows.evolve_umbilical(lam0, (0.0, slope), scn.T, _config(scn))
    vols = flows.track_volume(np.exp(log_rho0), conf, scn.length)
    sup = _sup_distance(lam)
    # d_s conf = -2 (lambda - lambda_0) up to the time and stencil errors.  The
    # residual measured at most 0.5 (slope dt + h^2) sup |d_ss lambda_0| over
    # grids 32-1024, dt 1e-4 to 5e-2, slopes 0.5-5, T 0.1-2, modes 1-4 and both
    # schemes; the bound is five times that.
    identity = float(np.max([np.abs(flows.circle_derivative(conf[rows], h)
                                    + 2.0 * (lam[rows] - lam0_samples)).max()
                             for rows in _row_blocks(*lam.shape)]))
    curvature = float(np.max(np.abs(_second_difference(lam0_samples, h))))
    identity_bound = 5 * 0.5 * (slope * scn.dt + h**2) * curvature
    checks = [
        _monotone("monotone-sup-curvature", sup, "sup |lambda| non-increasing"),
        Check("volume-non-increasing", bool(np.all(np.diff(vols) <= 1e-14)),
              f"vol {vols[0]:.6f} -> {vols[-1]:.6f}"),
        Check("conformal-factor-identity", identity <= identity_bound,
              f"max |d_s conf + 2 (lambda - lambda_0)| = {identity:.3e} <= {identity_bound:.3e}"),
    ]
    return _result(scn, checks, times, {"x": x}, {"lambda": lam, "conf": conf},
                   {"sup_lambda": sup, "volume": vols}, _fit_alpha(times, sup),
                   {"volume": float(vols[-1])})


def _run_twisted(scn: FlowScenario) -> RunResult:
    nx = scn.get("base-grid")
    ny = scn.get("fiber-grid")
    n = scn.get("n")
    fiber_length = scn.get("fiber-length")
    xb = np.linspace(-1.0, 1.0, nx)
    y = np.arange(ny) * fiber_length / ny
    profile = scn.get("profile")
    a = 1.0 + xb**2 if profile == "one-plus-x-squared" else np.ones(nx)
    phi0 = a[:, None] * np.cos(y)[None, :]
    times, phi, dist = flows.twisted_product_flow(phi0, fiber_length, n, scn.T, _config(scn))
    bound = math.exp(-scn.T / n) * float(np.max(np.abs(a))) * (1 + 1e-2)
    checks = [
        Check("limit-distance-bound", float(dist[-1]) <= bound, f"{dist[-1]:.6e} <= {bound:.6e}"),
        _monotone("monotone-convergence", dist, "sup distance to limit non-increasing"),
    ]
    return _result(scn, checks, times, {"x": xb, "y": y}, {"phi": phi},
                   {"sup_distance": dist}, _fit_alpha(times, dist), {})


def _run_prescribed(scn: FlowScenario) -> RunResult:
    x = _circle_nodes(scn)
    tau0 = CircleField(scn.length, build_field(scn, "init", x))
    target = CircleField(scn.length, build_field(scn, "target", x))
    times, w, conf = flows.prescribed_mean_curvature_flow(tau0, target, scn.T, _config(scn),
                                                          n=scn.get("n"))
    residual = _sup_distance(w)
    w0 = float(np.max(np.abs(tau0.samples - target.samples)))
    bound = math.exp(-scn.T) * (1 + 1e-2) * w0
    _, drift = _deviation(w)
    tau1 = np.add(w, target.samples, out=w)
    checks = [
        Check("residual-decay-bound", float(residual[-1]) <= bound,
              f"{residual[-1]:.6e} <= {bound:.6e}"),
        Check("mean-conservation", drift <= 1e-10, f"drift {drift:.3e}"),
    ]
    return _result(scn, checks, times, {"x": x}, {"tau1": tau1, "conf": conf},
                   {"sup_residual": residual}, _fit_alpha(times, residual), {"drift": drift})


def _run_ftau(scn: FlowScenario) -> RunResult:
    n = scn.get("n")
    # the powers k^j of the spectrum, j up to n, may leave the doubles: a
    # property of the input, so an overflow here is not the solver's
    try:
        with np.errstate(over="raise"):
            phi = f_recursion_constants(power_sums(scn.get("spectrum")))
        # phi, which F_k reads, may reach inf through a Python float product,
        # which does not raise
        if not np.all(np.isfinite(phi)):
            raise OverflowError
    except ArithmeticError:
        raise ValidationError("spectrum overflows: its power sums or structure constants "
                              "leave the doubles") from None
    # f = (2/n) tau_k for k = 1 or 2, by its gradient
    df = np.zeros(n)
    df[0 if scn.get("f") == "scaled-tau1" else 1] = 2.0 / n
    x = _circle_nodes(scn)
    tau1 = CircleField(scn.length, build_field(scn, "init", x))
    times, taus, a_min = flows.ftau_conformal_flow(tau1, df, phi, scn.T, _config(scn))
    sup, drift = _deviation(taus[0])
    checks = [Check("mass-conservation", drift <= 1e-10, f"drift {drift:.3e}")]
    fields = {f"tau{k}": taus[k - 1] for k in range(1, n + 1)}
    return _result(scn, checks, times, {"x": x}, fields, {"sup_deviation": sup},
                   _fit_alpha(times, sup), {"drift": drift, "a_min": a_min})


def _run_reeb(scn: FlowScenario) -> RunResult:
    geom = reeb.reeb_setup(n_grid=scn.grid)
    times, lam, V = reeb.evolve_reeb_lambda(geom, scn.T, _config(scn))
    U = -np.sin(geom.alpha) * V
    _, _, g22, det = reeb.reconstruct_metric(U[-1], geom)
    K = reeb.gaussian_curvature(U[-1], g22, det, geom.h)
    i0 = geom.n_nodes // 2
    det_res = float(np.max(np.abs(det - np.exp(-U[-1]))))
    sup = _sup_distance(lam)
    slope, slope_target = reeb.expansion_slope(K, U[-1], V[-1], geom)
    # K each side of x = 0 over |x| <= 0.1, widened to the nodes x = +-h
    near = np.abs(geom.x) <= 0.1
    near[i0 - 1 : i0 + 2] = True
    left, right = K[:i0][near[:i0]], K[i0 + 1 :][near[i0 + 1 :]]
    checks = [
        Check("K_t(0)=0", abs(K[i0]) <= 1e-6, f"|K(0)| = {abs(K[i0]):.3e}"),
        Check("det-identity", det_res <= 1e-12, f"max |det - e^-U| = {det_res:.3e}"),
        _monotone("monotone-sup-curvature", sup, "sup |lambda| non-increasing"),
    ]
    metrics = {"K0": float(K[i0]), "det_residual": det_res, "slope": slope,
               "slope_target": slope_target,
               "K_left_min": float(left.min()), "K_left_max": float(left.max()),
               "K_right_min": float(right.min()), "K_right_max": float(right.max())}
    return _result(scn, checks, times, {"x": geom.x}, {"lambda": lam, "V": V, "U": U},
                   {"sup_lambda": sup}, _fit_alpha(times, sup), metrics)


_RUNNERS = {
    "pde-reference": _run_pde_reference,
    "tau-heat": _run_tau_heat,
    "umbilical": _run_umbilical,
    "twisted": _run_twisted,
    "prescribed-F": _run_prescribed,
    "ftau": _run_ftau,
    "reeb": _run_reeb,
}


def _write_table(fh, header: list, rows) -> None:
    """CSV with numbers as "%.17g" (the bytes of ``f"{float(v):.17g}"``) and str
    cells verbatim, one row per item of ``rows``."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in row)
        fh.write(line % tuple(row) + "\n")


def write_artifacts(result: RunResult, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    # imported here: a process that writes no trajectory (the parent of a
    # sweep or of verify) neither compiles nor loads it
    from .csvtext import trajectory_blocks

    with open(os.path.join(outdir, "trajectory.csv"), "wb") as fh:
        fh.write((",".join(result.trajectory_header) + "\n").encode())
        fh.writelines(trajectory_blocks(result.times, result.axes, result.fields))
    with open(os.path.join(outdir, "summary.csv"), "w", encoding="utf-8") as fh:
        _write_table(fh, result.summary_header, result.summary_rows)
    with open(os.path.join(outdir, "verdict.txt"), "w", encoding="utf-8") as fh:
        for check in result.checks:
            fh.write(check.line() + "\n")
        fh.write(f"overall: {'pass' if result.passed else 'fail'}\n")


def fork_map(fn, items: list) -> list:
    """``[fn(item) for item in items]`` in forked worker processes, one per
    CPU this process may use (``os.sched_getaffinity``) and at most one per
    item, submitted in item order; with one worker, in this process.  ``fn``
    must be module-level; items and results are pickled.  Fork copies only
    the calling thread: a lock another thread holds stays held in the
    workers.  The first failing item in item order raises its own exception
    once the items not yet started are cancelled; a dead worker raises
    ``BrokenProcessPool``.  No worker outlives the call."""
    workers = min(len(items), len(os.sched_getaffinity(0)))
    if workers == 1:
        return [fn(item) for item in items]
    # fork, not spawn: a spawned worker would start an interpreter and
    # import numpy and egf again (about 0.4 s, as long as a grid-1024 run
    # takes).  The pool forks all its workers before it starts its own thread.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _sweep_point(point: tuple) -> tuple[int, list]:
    """Run one (scenario, output dir) point and write its artifacts; returns
    (exit code, the point's sweep.csv cells after the value)."""
    scn, outdir = point
    res = run_scenario(scn)
    write_artifacts(res, outdir)
    m = res.metrics
    return res.exit_code, [m["final_sup"], m.get("sup_error", ""), m["alpha"],
                           "pass" if res.passed else "fail"]


def sweep_values(
    scn: FlowScenario, param: str, values: list, outdir: str
) -> tuple[int, list]:
    """Run the scenario once per parameter value; one artifact dir each.

    Each value replaces ``param`` in the parsed entries and is validated
    before any run starts.  The points run through :func:`fork_map`, each
    into its own ``outdir/<param>=<value>``; this process writes the table
    ``outdir/sweep.csv`` in value order, so every artifact has the bytes of a
    run of the points one after the other.  Returns (the largest exit code,
    the sweep.csv rows).
    """
    if not values:
        raise ValidationError("sweep needs a non-empty value list")
    if param == "kind":
        raise ValidationError("sweep parameter 'kind' does not address a scalar field")
    points = [(parse_entries({**scn.entries, param: value}),
               os.path.join(outdir, f"{param}={value}")) for value in values]
    results = fork_map(_sweep_point, points)

    rows = [[str(value), *row] for value, (_, row) in zip(values, results)]
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "sweep.csv"), "w", encoding="utf-8") as fh:
        _write_table(fh, [param, "final_sup", "sup_error", "fitted_alpha", "verdict"], rows)
    return max(code for code, _ in results), rows
