"""Flow scenarios built on the 1-D parabolic solvers.

The spatial domain of every flow is a single closed N-curve (circle):
the per-fiber problems of the fibration decouple, so one fiber is the
faithful desk-scale unit.  Derivatives along the curve are written N(.)
and discretized by central differences.

Three conformal flows are one equation, du/dt = (1/2) d_ss psi(u) = d_s(a
d_s u) with a = psi'/2 and psi a polynomial, and log conformal factor conf =
-(1/n) int d_s psi(u) dt, under one rule: the run halts with
EllipticityLossError, naming the step and t, once the least a is not positive.

- umbilical surface flow     u = lam, psi as given, n = 1
- prescribed mean curvature  u = w = tau_1 - F, psi = 2w
- f(tau)-conformal flow      u = tau_1, psi = n sum_k df/dtau_k F_k(tau_1)
- twisted-product flow       dphi/dt = (1/n) d_yy phi per base point

plus the volume of a conformal flow from its log conformal factor, and the
driven conformal ODE chains that keep phi_k / psi_k constant.

The flows are functions of arrays: each takes its initial samples (a
:class:`~egf.parabolic.CircleField`, or a (base, fiber) array for the twisted
product) and returns a tuple of arrays headed by the snapshot times, one
snapshot per row.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import EllipticityLossError, SolverError, ValidationError
from .parabolic import (
    CircleField,
    SolverConfig,
    _march,
    _newton_stepper,
    _nsteps,
    _propagator,
    _row_blocks,
    _snapshot_steps,
    _step_error,
    _sup_distance,
    solve_cyclic_tridiag,  # noqa: F401  (perfbench's tracer test wraps this binding)
)
from .symfun import F_coefficients, eval_F

__all__ = [
    "circle_derivative",
    "evolve_umbilical",
    "twisted_product_flow",
    "prescribed_mean_curvature_flow",
    "ftau_conformal_flow",
    "track_volume",
    "conformal_ode_system",
    "umbilical_log_factor",
    "umbilical_metric_samples",
]


def circle_derivative(samples: np.ndarray, h: float) -> np.ndarray:
    """Central-difference d/ds on the periodic grid, along the last axis."""
    s = np.asarray(samples, dtype=float)
    out = np.empty_like(s)
    np.subtract(s[..., 2:], s[..., :-2], out=out[..., 1:-1])
    out[..., 0] = s[..., 1] - s[..., -1]
    out[..., -1] = s[..., 0] - s[..., -2]
    out /= 2.0 * h
    return out


def _polynomial_flow(u0: CircleField, psi, T: float, cfg: SolverConfig, n: int | None = 1,
                     states: np.ndarray | None = None) -> tuple:
    """The polynomial flow du/dt = (1/2) d_ss psi(u) = d_s(a(u) d_s u), a =
    psi'/2, from ``u0``, with psi by its ascending coefficients (psi_0, psi_1,
    ...).  Returns (times, u, conf, a_min), one snapshot per row, u written
    into ``states`` when given: the log conformal factor starts at zero and
    accumulates -(1/n) d_s psi(u) by trapezoid in time (conf is None for ``n``
    None), and a_min is the least a used.

    The route is read off psi's degree: at most 1, a = psi_1 / 2 is constant
    and the closed-form propagator gives u and conf at the snapshot steps
    alone; otherwise :func:`~egf.parabolic._newton_stepper` steps the flow
    with face coefficient a and its derivative a' = psi''/2, under its rule: a
    state outside the range of ``u0`` widened by 5% on each side raises
    :class:`ConductivityRangeError`.  On either route a least a at or below
    zero, or NaN, raises :class:`EllipticityLossError` naming the step and t.
    """
    psi = np.asarray(psi, dtype=float)
    if np.any(psi[2:]):
        dpsi = np.polyder(psi[::-1])
        d2psi = np.polyder(dpsi)
        produce = _newton_stepper(u0, lambda w: 0.5 * np.polyval(dpsi, w),
                                  lambda w: 0.5 * np.polyval(d2psi, w), cfg)
    else:
        a = 0.5 * float(psi[1]) if psi.size > 1 else 0.0
        if not a > 0.0:
            raise _step_error(EllipticityLossError,
                              f"parabolicity coefficient reached min a = {a:.6g}",
                              "conformal flow", 1, cfg.dt)
        produce = _propagator(u0.samples, a, u0.h, cfg)
        produce.least = a
    integrand = None if n is None else (
        lambda block: circle_derivative(np.polyval(psi[::-1], block), u0.h))
    times, u, pairs = _march(u0.samples, T, cfg, produce, "conformal flow",
                             integrand=integrand, states=states)
    if n is not None:
        # 0 - scale P, formed in P: a subtraction from +0, so zero pair sums give +0
        np.multiply(pairs, (1.0 / n) * 0.5 * cfg.dt, out=pairs)
        np.subtract(0.0, pairs, out=pairs)
    return times, u, pairs, produce.least


def evolve_umbilical(
    lam0: CircleField, psi, T: float, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Umbilical flow dlam/dt = (1/2) d_s(psi'(lam) d_s lam) from ``lam0``.

    ``psi`` is the polynomial psi(lam) = psi_0 + psi_1 lam + psi_2 lam^2 + ...
    by its coefficients (psi_0, psi_1, ...), in ascending order.  Returns
    (times, lam, conf), one snapshot per row, of :func:`_polynomial_flow` with
    n = 1: ghat_t = ghat_0 exp(conf), and psi'/2 must stay positive.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 1 or psi.size == 0 or not np.all(np.isfinite(psi)):
        raise ValidationError("psi must be a non-empty list of finite coefficients")
    return _polynomial_flow(lam0, psi, T, cfg)[:3]


def twisted_product_flow(
    phi0: np.ndarray, fiber_length: float, n: int, T: float, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-base-point fiber heat flow dphi/dt = (1/n) d_yy phi of the log
    warping phi(x, y) of a twisted product, f = e^phi.

    ``phi0`` is sampled on (base node x_i, fiber node y_j); the fiber is a
    circle of circumference ``fiber_length``, and ``n`` is the leaf dimension
    of the time rescale.  Returns (times, phi, sup_distance): the snapshots,
    shape (S, Nx, Ny), and per snapshot sup |phi(t) - limit|, where the limit
    is the fiber mean of phi0, the warp of the product the flow converges to.
    """
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.ndim != 2 or phi0.shape[1] < 8:
        raise ValidationError("phi must be (base, fiber) with >= 8 fiber samples")
    if fiber_length <= 0 or n < 1:
        raise ValidationError("need positive fiber length and n >= 1")
    limit = phi0.mean(axis=1)
    produce = _propagator(phi0, 1.0 / n, fiber_length / phi0.shape[1], cfg)
    times, phi, _ = _march(phi0, T, cfg, produce, "twisted_product_flow")
    return times, phi, _sup_distance(phi, limit).max(axis=1)


def prescribed_mean_curvature_flow(
    tau0: CircleField, target: CircleField, T: float, cfg: SolverConfig, n: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relax the mean curvature tau_1 from ``tau0`` toward a prescribed
    zero-average target F on the same grid.

    w = tau_1 - F satisfies the heat equation along the N-curve, so
    tau_1(t) = F + w(t) and the residual decays exponentially.  Returns
    (times, w, conf): the polynomial flow of :func:`_polynomial_flow` with
    psi = 2w, so the closed-form propagator gives w and the log conformal
    factor, which accumulates -(2/n) d_s w, at the snapshot steps alone.  A
    target whose discrete mean exceeds 1e-8 in magnitude is rejected: the
    zero-average condition is what the closed-curve integral identity forces.

    Modeling note: the full statement assumes every normal curve is
    dense in the manifold; the single-closed-curve reduction makes that
    density trivial, so the one fiber here is the faithful unit.
    """
    if tau0.n != target.n or tau0.length != target.length:
        raise ValidationError("tau1 and target must share one grid")
    F = target.samples
    if abs(F.mean()) > 1e-8:
        raise ValidationError(f"target mean curvature must have zero average (got {F.mean():.3e})")
    return _polynomial_flow(CircleField(tau0.length, tau0.samples - F), (0.0, 2.0), T, cfg, n)[:3]


def ftau_conformal_flow(
    tau1: CircleField,
    df,
    phi: tuple[float, ...],
    T: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Conformal flow driven by -N(f(tau)), reduced to a quasi-linear PDE.

        dtau_1/dt = (1/2) d_ss psi(tau_1),   psi = n sum_{k=1..n} df_k F_k,

    so a = psi'/2 = (1/2) sum_k k df_k F_{k-1}(tau_1), since F_k' = (k/n)
    F_{k-1}.  ``df`` = (df/dtau_1, ..., df/dtau_n) is the constant gradient of
    the coefficient function f, affine in tau, and ``phi`` = (phi_2, ...,
    phi_n) the structure constants of :func:`egf.symfun.f_recursion_constants`,
    so n = len(phi) + 1.  psi, of degree the largest k with df_k != 0, goes to
    :func:`_polynomial_flow`; then tau_k = F_k(tau_1) rebuilds the tau vector.
    Returns (times, taus, a_min): taus has shape (n, S, N), and a_min is the
    least a used.
    """
    n = len(phi) + 1
    df = np.asarray(df, dtype=float)
    if df.shape != (n,):
        raise ValidationError(f"df needs n = {n} entries, one per tau_k (got shape {df.shape})")
    ks = np.flatnonzero(df) + 1  # NaN entries included
    psi = np.zeros(ks.max(initial=0) + 1)
    for k in ks.tolist():
        psi[:k + 1] += df[k - 1] * F_coefficients(k, n, phi)
    # the march writes tau_1 into taus[0]; F_k of it is formed a block of rows at a time
    snapshots = _snapshot_steps(_nsteps(T, cfg.dt), cfg.save_every).size
    taus = np.empty((n, snapshots, tau1.n))
    times, _, _, a_min = _polynomial_flow(tau1, n * psi, T, cfg, n=None, states=taus[0])
    for rows in _row_blocks(snapshots, tau1.n):
        for k in range(2, n + 1):
            taus[k - 1, rows] = eval_F(k, taus[0, rows], n, phi)
    return times, taus, a_min


def track_volume(rho0: np.ndarray, conf: np.ndarray, length: float) -> np.ndarray:
    """The volumes of a conformal flow at its snapshots.

    d(vol)/dt = (1/2) integral tr(S) dvol, and tr S is the time derivative
    of the log conformal factor ``conf`` (one snapshot per row, shape
    (S, N)), so the density along the N-curve is rho0 exp(conf / 2) at every
    time and vol is its trapezoid integral, the grid mean times ``length``
    on the periodic grid.  A volume that is not positive and finite signals
    blow-up and raises.
    """
    vols = np.empty(conf.shape[0])
    for rows in _row_blocks(*conf.shape):
        vols[rows] = length * np.mean(rho0 * np.exp(0.5 * conf[rows]), axis=-1)
    if not np.all(np.isfinite(vols) & (vols > 0.0)):
        raise SolverError("volume left the positive range (blow-up)")
    return vols


def conformal_ode_system(
    drive: Callable[[float], float],
    tau0: np.ndarray,
    sigma0: np.ndarray,
    T: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the driven conformal chains for tau and sigma (RK4).

        dtau_1/dt  = -(n/2) w(t),   dtau_k/dt  = -(k/2) tau_{k-1} w(t)
        dsig_1/dt  = -(n/2) w(t),   dsig_k/dt  = -((n-k+1)/2) sig_{k-1} w(t)

    where w(t) = N(s) is supplied as data.  Along exact solutions every
    phi_k and psi_k stays constant; the RK4 drift is O(dt^4).
    Returns (times, tau_traj, sigma_traj) with one row per step.

    Each chain is strictly lower-triangular, so the four RK4 stage
    derivatives of component k depend only on component k-1's states and
    stages: the chains are marched one component at a time over all steps,
    and a component's states are the running sum of its increments.  These
    are the sums of a loop over steps, in the same order, so the result is
    bit-identical to it.
    """
    tau0 = np.asarray(tau0, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)
    n = tau0.size
    if sigma0.size != n:
        raise ValidationError("tau and sigma chains must share n")

    nsteps = _nsteps(T, dt)
    t = np.arange(nsteps) * dt
    # w at the start, middle and end of every step
    w_start, w_mid, w_end = (np.array([drive(s) for s in ts.tolist()], dtype=float)
                             for ts in (t, t + 0.5 * dt, t + dt))

    def chain(y0: np.ndarray, weights: Sequence[int]) -> np.ndarray:
        """States of y_1' = -(w_1/2) w(t), y_k' = -(w_k/2) y_{k-1} w(t), shape (n, steps+1)."""
        y = np.empty((n, nsteps + 1))
        y[:, 0] = y0
        for k, weight in enumerate(weights):
            c = -(weight / 2.0)
            if k == 0:
                k1, k2, k3, k4 = c * w_start, c * w_mid, c * w_mid, c * w_end
            else:
                # component k-1's states at the step starts and its stages
                prev, p1, p2, p3 = y[k - 1, :-1], k1, k2, k3
                k1 = c * prev * w_start
                k2 = c * (prev + 0.5 * dt * p1) * w_mid
                k3 = c * (prev + 0.5 * dt * p2) * w_mid
                k4 = c * (prev + dt * p3) * w_end
            y[k, 1:] = dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            np.add.accumulate(y[k], out=y[k])
        return y

    tau = chain(tau0, [n, *range(2, n + 1)])
    sig = chain(sigma0, range(n, 0, -1))
    return np.arange(nsteps + 1) * dt, tau.T, sig.T


def umbilical_log_factor(lam0: CircleField) -> np.ndarray:
    """c0(s) = -2 * integral_0^s lam0, the log of the initial leafwise metric
    factor of an umbilical flow, by cumulative trapezoid (c0(0) = 0)."""
    vals = lam0.samples
    c0 = np.zeros(lam0.n)
    c0[1:] = np.cumsum(-(vals[1:] + vals[:-1]) * lam0.h)
    return c0


def umbilical_metric_samples(
    lam0: CircleField, conf: np.ndarray, leaf_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leafwise metric samples exp(c0 + conf) * Id along the N-curve, with
    ``conf`` the log conformal factor at the nodes of ``lam0``.

    c0 = :func:`umbilical_log_factor` encodes the initial umbilical shape
    (the chart Weingarten operator of exp(c) Id is -(1/2) c' Id), so the
    reconstructed chart metric returns A = lam * Id.  Periodicity of c0
    requires zero-mean lam0, which is also what the closed-curve
    integral identity for tau_1 forces.

    Returns (x0_grid, g00, gij) ready for chart extraction.
    """
    if abs(lam0.mean()) > 1e-10:
        raise ValidationError("initial curvature must have zero circle-mean")
    factor = np.exp(umbilical_log_factor(lam0) + conf)
    gij = factor[:, None, None] * np.eye(leaf_dim)[None, :, :]
    return lam0.nodes(), np.ones(lam0.n), gij
