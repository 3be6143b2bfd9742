"""Execute a scenario and serialize CSV artifacts plus a verdict.

Artifacts written per run directory:

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
import os
from dataclasses import dataclass, field

import numpy as np

from . import flows, reeb
from .errors import ValidationError
from .parabolic import (
    CircleField,
    SolverConfig,
    exact_quasilinear_conductivity,
    exact_quasilinear_solution,
    fit_exponential_decay,
    solve_heat_circle,
    solve_quasilinear_divergence,
)
from .scenarios import FlowScenario, build_field, parse_entries
from .symfun import CurvatureSpectrum, f_recursion_constants, power_sums

__all__ = ["Check", "RunResult", "run_scenario", "write_artifacts", "sweep_values"]


# Rows formatted per call by _write_table: bounds the text held in memory.
_BLOCK_ROWS = 4096


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{self.name}: {'pass' if self.passed else 'fail'} ({self.detail})"


@dataclass
class RunResult:
    scenario: FlowScenario
    checks: list
    trajectory_header: list
    trajectory_rows: np.ndarray  # (rows, len(trajectory_header)) floats
    summary_header: list
    summary_rows: list
    metrics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def _config(scn: FlowScenario) -> SolverConfig:
    return SolverConfig(scn.dt, scn.scheme, save_every=scn.save_every)


def _fit_alpha(times, sups) -> float:
    series = [(float(t), float(v)) for t, v in zip(times, sups)]
    if len(series) < 5:
        return math.nan
    try:
        _, alpha = fit_exponential_decay(series)
    except ValidationError:
        return math.nan
    return alpha


def run_scenario(scn: FlowScenario) -> RunResult:
    runner = _RUNNERS[scn.kind]
    return runner(scn)


def _trajectory_table(times, axes: dict, fields: dict) -> tuple[list, np.ndarray]:
    """Rows (t, node coordinates, fields) over times, then ``axes`` in order;
    each field has shape (len(times), *axis lengths)."""
    grids = np.meshgrid(times, *axes.values(), indexing="ij")
    columns = [g.ravel() for g in grids] + [np.asarray(f).ravel() for f in fields.values()]
    return ["t", *axes, *fields], np.stack(columns, axis=1)


def _run_pde_reference(scn: FlowScenario) -> RunResult:
    problem = scn.get("problem", "exact-quasilinear")
    x = np.arange(scn.grid) * scn.length / scn.grid
    cfg = _config(scn)
    if problem == "exact-quasilinear":
        u0 = CircleField(scn.length, exact_quasilinear_solution(0.0, x))
        traj = solve_quasilinear_divergence(u0, exact_quasilinear_conductivity(), scn.T, cfg)
        exact = np.stack([exact_quasilinear_solution(t, x) for t in traj.times])
        errors = np.max(np.abs(traj.states - exact), axis=1).tolist()
        sup = np.max(np.abs(traj.states), axis=1)
        alpha = _fit_alpha(traj.step_times, traj.sup_deviation)
        tol = scn.check_tolerance if scn.check_tolerance is not None else 2e-4
        checks = [
            Check("sup-error-vs-exact", errors[-1] <= tol, f"{errors[-1]:.3e} <= {tol:.3e}"),
            Check(
                "decay-consistency",
                sup[-1] <= math.exp(-traj.times[-1]) * (1 + 1e-2),
                f"sup {sup[-1]:.6e} vs e^-T {math.exp(-traj.times[-1]):.6e}",
            ),
            Check(
                "mass-conservation",
                float(np.max(np.abs(traj.means - traj.means[0]))) <= 1e-10,
                f"max mean drift {np.max(np.abs(traj.means - traj.means[0])):.3e}",
            ),
        ]
        th, tr = _trajectory_table(traj.times, {"x": x}, {"u": traj.states, "exact": exact})
        sh = ["t", "sup_u", "sup_error", "volume", "fitted_alpha"]
        sr = [[t, sup[i], errors[i], "", alpha] for i, t in enumerate(traj.times)]
        return RunResult(scn, checks, th, tr, sh, sr, {"sup_error": errors[-1], "alpha": alpha})

    # circle-heat-decay
    u0 = CircleField(scn.length, build_field(scn, "init", x))
    traj = solve_heat_circle(u0, scn.T, cfg)
    alpha = _fit_alpha(traj.step_times, traj.sup_deviation)
    mean_drift = float(np.max(np.abs(traj.means - traj.means[0])))
    checks = [
        Check("fitted-alpha-near-one", 0.99 <= alpha <= 1.01, f"alpha {alpha:.6f}"),
        Check("mean-conservation", mean_drift <= 1e-10, f"drift {mean_drift:.3e}"),
    ]
    sup = np.max(np.abs(traj.states), axis=1)
    th, tr = _trajectory_table(traj.times, {"x": x}, {"u": traj.states})
    sh = ["t", "sup_u", "volume", "fitted_alpha"]
    sr = [[t, sup[i], "", alpha] for i, t in enumerate(traj.times)]
    return RunResult(scn, checks, th, tr, sh, sr, {"alpha": alpha})


def _run_tau_heat(scn: FlowScenario) -> RunResult:
    x = np.arange(scn.grid) * scn.length / scn.grid
    tau1 = CircleField(scn.length, build_field(scn, "init", x))
    traj = flows.evolve_tau_heat([tau1], scn.T, _config(scn))
    states = traj.taus[0]
    sup = np.max(np.abs(states - tau1.mean()), axis=1)
    alpha = _fit_alpha(traj.times, sup)
    means = states.mean(axis=1)
    drift = float(np.max(np.abs(means - means[0])))
    checks = [
        Check("mean-conservation", drift <= 1e-10, f"drift {drift:.3e}"),
        Check(
            "monotone-sup-deviation",
            bool(np.all(np.diff(sup) <= 1e-12)),
            "sup |tau1 - mean| non-increasing",
        ),
    ]
    th, tr = _trajectory_table(traj.times, {"x": x}, {"tau1": states})
    sh = ["t", "sup_deviation", "volume", "fitted_alpha"]
    sr = [[t, sup[i], "", alpha] for i, t in enumerate(traj.times)]
    return RunResult(scn, checks, th, tr, sh, sr, {"alpha": alpha})


def _run_umbilical(scn: FlowScenario) -> RunResult:
    x = np.arange(scn.grid) * scn.length / scn.grid
    lam0_samples = build_field(scn, "init", x)
    if abs(float(np.mean(lam0_samples))) > 1e-10:
        raise ValidationError(
            "umbilical scenario needs zero-mean initial curvature "
            "(closed-curve integral identity)"
        )
    slope = scn.get("psi-slope", 2.0)
    lam0 = CircleField(scn.length, lam0_samples)
    psi = lambda u: slope * np.asarray(u, dtype=float)
    psi_prime = lambda u: np.full_like(np.asarray(u, dtype=float), slope)
    traj = flows.evolve_umbilical(
        flows.UmbilicalState.initial(lam0), psi, psi_prime, scn.T, _config(scn)
    )
    h = lam0.h
    c0 = np.concatenate(
        [[0.0], np.cumsum(0.5 * (lam0_samples[1:] + lam0_samples[:-1]) * h)]
    )
    tracker = flows.VolumeTracker(1, scn.length, np.exp(-c0))
    vols = [tracker.vol]
    trS = -flows.circle_derivative(psi(traj.lam), h)
    for i in range(1, traj.times.size):
        dt = float(traj.times[i] - traj.times[i - 1])
        vols.append(flows.track_volume(tracker, CircleField(scn.length, trS[i]), dt).vol)
    sup = np.max(np.abs(traj.lam), axis=1)
    alpha = _fit_alpha(traj.times, sup) if np.max(sup) > 0 else math.inf
    checks = [
        Check(
            "monotone-sup-curvature",
            bool(np.all(np.diff(sup) <= 1e-12)),
            "sup |lambda| non-increasing",
        ),
        Check(
            "volume-non-increasing",
            bool(np.all(np.diff(vols) <= 1e-14)),
            f"vol {vols[0]:.6f} -> {vols[-1]:.6f}",
        ),
        Check(
            "conformal-factor-starts-at-zero",
            float(np.max(np.abs(traj.conf[0]))) == 0.0,
            "conf(0, .) = 0",
        ),
    ]
    th, tr = _trajectory_table(traj.times, {"x": x}, {"lambda": traj.lam, "conf": traj.conf})
    sh = ["t", "sup_lambda", "volume", "fitted_alpha"]
    sr = [[t, sup[i], vols[i], alpha] for i, t in enumerate(traj.times)]
    return RunResult(scn, checks, th, tr, sh, sr, {"alpha": alpha, "volume": vols[-1]})


def _run_twisted(scn: FlowScenario) -> RunResult:
    nx = scn.get("base-grid", 16)
    ny = scn.get("fiber-grid", scn.grid)
    n = scn.get("n", 1)
    fiber_length = scn.get("fiber-length", 2 * math.pi)
    xb = np.linspace(-1.0, 1.0, nx)
    y = np.arange(ny) * fiber_length / ny
    profile = scn.get("profile", "one-plus-x-squared")
    a = 1.0 + xb**2 if profile == "one-plus-x-squared" else np.ones(nx)
    phi0 = a[:, None] * np.cos(y)[None, :]
    state = flows.TwistedState(phi0, fiber_length, n=n)
    traj = flows.twisted_product_flow(state, scn.T, _config(scn))
    alpha = _fit_alpha(traj.times, traj.sup_distance)
    bound = math.exp(-scn.T / n) * float(np.max(np.abs(a))) * (1 + 1e-2)
    checks = [
        Check(
            "limit-distance-bound",
            float(traj.sup_distance[-1]) <= bound,
            f"{traj.sup_distance[-1]:.6e} <= {bound:.6e}",
        ),
        Check(
            "monotone-convergence",
            bool(np.all(np.diff(traj.sup_distance) <= 1e-12)),
            "sup distance to limit non-increasing",
        ),
    ]
    header, rows = _trajectory_table(traj.times, {"x": xb, "y": y}, {"phi": traj.phi})
    sh = ["t", "sup_distance", "volume", "fitted_alpha"]
    sr = [[t, traj.sup_distance[i], "", alpha] for i, t in enumerate(traj.times)]
    return RunResult(scn, checks, header, rows, sh, sr, {"alpha": alpha})


def _run_prescribed(scn: FlowScenario) -> RunResult:
    x = np.arange(scn.grid) * scn.length / scn.grid
    n = scn.get("n", 1)
    tau0 = CircleField(scn.length, build_field(scn, "init", x))
    target = CircleField(scn.length, build_field(scn, "target", x))
    state = flows.MeanCurvatureState(tau0, target)
    traj = flows.prescribed_mean_curvature_flow(state, scn.T, _config(scn), n=n)
    alpha = _fit_alpha(traj.times, traj.residual_sup)
    w0 = float(np.max(np.abs(tau0.samples - target.samples)))
    bound = math.exp(-scn.T) * (1 + 1e-2) * w0
    drift = float(np.max(np.abs(traj.mean_w - traj.mean_w[0])))
    checks = [
        Check(
            "residual-decay-bound",
            float(traj.residual_sup[-1]) <= bound,
            f"{traj.residual_sup[-1]:.6e} <= {bound:.6e}",
        ),
        Check("mean-conservation", drift <= 1e-10, f"drift {drift:.3e}"),
    ]
    th, tr = _trajectory_table(traj.times, {"x": x}, {"tau1": traj.tau1, "conf": traj.conf})
    sh = ["t", "sup_residual", "volume", "fitted_alpha"]
    sr = [[t, traj.residual_sup[i], "", alpha] for i, t in enumerate(traj.times)]
    return RunResult(scn, checks, th, tr, sh, sr, {"alpha": alpha})


def _run_ftau(scn: FlowScenario) -> RunResult:
    spectrum = [float(v) for v in scn.extra["spectrum"].split(",")]
    n = len(spectrum)
    consts = f_recursion_constants(power_sums(CurvatureSpectrum(tuple(spectrum))))
    which = scn.get("f", "scaled-tau1")
    k_idx = 1 if which == "scaled-tau1" else 2

    def func(tau):
        return 2.0 / n * tau[k_idx - 1]

    def grad(tau):
        g = np.zeros_like(tau)
        g[k_idx - 1] = 2.0 / n
        return g

    x = np.arange(scn.grid) * scn.length / scn.grid
    tau1 = CircleField(scn.length, build_field(scn, "init", x))
    traj = flows.ftau_conformal_flow(
        tau1, flows.TauFunction(n, func, grad), consts, scn.T, _config(scn)
    )
    states = traj.taus[0]
    sup = np.max(np.abs(states - states[0].mean()), axis=1)
    alpha = _fit_alpha(traj.times, sup)
    means = states.mean(axis=1)
    drift = float(np.max(np.abs(means - means[0])))
    checks = [
        Check("mass-conservation", drift <= 1e-10, f"drift {drift:.3e}"),
        Check("parabolicity-maintained", True, "run completed with a > 0"),
    ]
    fields = {f"tau{k}": traj.taus[k - 1] for k in range(1, n + 1)}
    th, tr = _trajectory_table(traj.times, {"x": x}, fields)
    sh = ["t", "sup_deviation", "volume", "fitted_alpha"]
    sr = [[t, sup[i], "", alpha] for i, t in enumerate(traj.times)]
    return RunResult(scn, checks, th, tr, sh, sr, {"alpha": alpha})


def _run_reeb(scn: FlowScenario) -> RunResult:
    geom = reeb.reeb_setup(n_grid=scn.grid)
    method = scn.get("method", "x-space")
    traj = reeb.evolve_reeb_lambda(geom, scn.T, _config(scn), method=method)
    state = traj.final
    met = reeb.reconstruct_metric(state, geom)
    K = reeb.gaussian_curvature(met, state, geom)
    i0 = geom.n_nodes // 2
    det_res = float(np.max(np.abs(met.det - np.exp(-state.U(geom)))))
    sup = np.max(np.abs(traj.lam), axis=1)
    slope, slope_target = reeb.expansion_slope(K, state, geom)
    checks = [
        Check("K_t(0)=0", abs(K[i0]) <= 1e-6, f"|K(0)| = {abs(K[i0]):.3e}"),
        Check("det-identity", det_res <= 1e-12, f"max |det - e^-U| = {det_res:.3e}"),
        Check(
            "boundary-pinned",
            bool(np.all(traj.lam[:, 0] == 0.0) and np.all(traj.lam[:, -1] == 0.0)),
            "lambda(+-1) = 0 at every kept step",
        ),
        Check(
            "monotone-sup-curvature",
            bool(np.all(np.diff(sup) <= 1e-12)),
            "sup |lambda| non-increasing",
        ),
    ]
    U = -np.sin(geom.alpha) * traj.V
    th, tr = _trajectory_table(
        traj.times, {"x": geom.x}, {"lambda": traj.lam, "V": traj.V, "U": U}
    )
    sh = ["t", "sup_lambda", "volume", "fitted_alpha"]
    alpha = _fit_alpha(traj.times, sup)
    sr = [[t, sup[i], "", alpha] for i, t in enumerate(traj.times)]
    metrics = {"K0": float(K[i0]), "det_residual": det_res, "slope": slope,
               "slope_target": slope_target}
    return RunResult(scn, checks, th, tr, sh, sr, metrics)


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
    cells verbatim.  A float array is formatted ``_BLOCK_ROWS`` rows per call,
    other rows (numbers mixed with text or blank fields) one row per call."""
    fh.write(",".join(header) + "\n")
    if isinstance(rows, np.ndarray):
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for start in range(0, rows.shape[0], _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
        return
    for row in rows:
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in row)
        fh.write(line % tuple(row) + "\n")


def write_artifacts(result: RunResult, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "trajectory.csv"), "w", encoding="utf-8") as fh:
        _write_table(fh, result.trajectory_header, result.trajectory_rows)
    with open(os.path.join(outdir, "summary.csv"), "w", encoding="utf-8") as fh:
        _write_table(fh, result.summary_header, result.summary_rows)
    with open(os.path.join(outdir, "verdict.txt"), "w", encoding="utf-8") as fh:
        for check in result.checks:
            fh.write(check.line() + "\n")
        fh.write(f"overall: {'pass' if result.passed else 'fail'}\n")


def sweep_values(
    scn: FlowScenario, param: str, values: list, outdir: str
) -> tuple[int, list]:
    """Run the scenario once per parameter value; one artifact dir each.

    Each value replaces ``param`` in the parsed entries and is validated
    before any run starts.  Returns (exit_code, comparison rows).  The comparative table lands
    in ``outdir/sweep.csv``.
    """
    if not values:
        raise ValidationError("sweep needs a non-empty value list")
    if param == "kind":
        raise ValidationError("sweep parameter 'kind' does not address a scalar field")
    scenarios = [parse_entries({**scn.entries, param: value}) for value in values]

    rows = []
    worst = 0
    for value, sub in zip(values, scenarios):
        res = run_scenario(sub)
        write_artifacts(res, os.path.join(outdir, f"{param}={value}"))
        worst = max(worst, res.exit_code)
        final_sup = res.summary_rows[-1][1]
        alpha = res.metrics.get("alpha", math.nan)
        err = res.metrics.get("sup_error", "")
        rows.append([str(value), final_sup, err, alpha, "pass" if res.passed else "fail"])
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "sweep.csv"), "w", encoding="utf-8") as fh:
        _write_table(fh, [param, "final_sup", "sup_error", "fitted_alpha", "verdict"], rows)
    return worst, rows
