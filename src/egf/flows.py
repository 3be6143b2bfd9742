"""Flow scenarios built on the 1-D parabolic solvers.

The spatial domain of every flow is a single closed N-curve (circle):
the per-fiber problems of the fibration decouple, so one fiber is the
faithful desk-scale unit.  Derivatives along the curve are written N(.)
and discretized by central differences.

Implemented flows (all conformal in the leafwise metric):

- umbilical surface flow     dlam/dt = (1/2) d_s(psi'(lam) d_s lam)
- twisted-product flow       dphi/dt = (1/n) d_yy phi  per base point
- prescribed mean curvature  w = tau_1 - F,  dw/dt = d_ss w
- f(tau)-conformal flow      dtau_1/dt = d_s(a(tau) d_s tau_1),
                             a = (1/2) sum_k k df/dtau_k F_{k-1}(tau_1)

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
    Conductivity,
    SolverConfig,
    _face_mean,
    _march,
    _newton_stepper,
    _nsteps,
    _propagator,
    _quasilinear_faces,
    _row_blocks,
    _snapshot_steps,
    _sup_distance,
    solve_cyclic_tridiag,  # noqa: F401  (perfbench's tracer test wraps this binding)
)
from .symfun import eval_F

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


def evolve_umbilical(
    lam0: CircleField, psi, T: float, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Umbilical flow dlam/dt = (1/2) d_s(psi'(lam) d_s lam) from ``lam0``.

    ``psi`` is the polynomial psi(lam) = psi_0 + psi_1 lam + psi_2 lam^2 + ...
    by its coefficients (psi_0, psi_1, ...), in ascending order.  Returns
    (times, lam, conf), one snapshot per row.  psi' must be positive on the
    (10% widened) range of lam, its extremes there taken at the ends and the
    roots of psi''; a negative value is a sign violation and rejected, a
    vanishing minimum (a degenerate problem) is run.  The log
    conformal factor ``conf`` starts at zero and accumulates -d_s psi(lam) by
    trapezoid in time, so ghat_t = ghat_0 exp(conf).

    The route is read off the coefficients: a psi of degree at most 1 makes
    the flow the heat equation with constant coefficient psi_1 / 2, stepped
    by the closed-form propagator, which gives conf in closed form too: only
    the snapshot steps are computed.  Any other psi is stepped by Newton's
    method, its Jacobian taking psi''.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 1 or psi.size == 0 or not np.all(np.isfinite(psi)):
        raise ValidationError("psi must be a non-empty list of finite coefficients")
    descending = psi[::-1]
    dpsi = np.polyder(descending)
    d2psi = np.polyder(dpsi)
    lo, hi = float(lam0.samples.min()), float(lam0.samples.max())
    # wider than the range _quasilinear_faces checks the conductivity on
    pad = 0.1 * (hi - lo) + 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    # psi' takes its extremes on the range at its ends or at roots of psi''
    roots = np.clip(np.roots(d2psi).real, lo - pad, hi + pad)
    probe = np.polyval(dpsi, np.concatenate(([lo - pad, hi + pad], roots)))
    pmin, pmax = float(np.min(probe)), float(np.max(probe))
    if pmin < 0.0:
        raise ValidationError(f"psi' changes sign on the data range (min {pmin:.3g})")
    if np.any(psi[2:]):
        k = Conductivity(lambda u: 0.5 * np.polyval(dpsi, u),
                         lambda u: 0.5 * np.polyval(d2psi, u), c1=0.5 * pmin, c2=0.5 * pmax)
        produce = _newton_stepper(lam0, _quasilinear_faces(lam0, k), k.dfunc, cfg)
    else:
        produce = _propagator(lam0.samples, 0.5 * pmax, lam0.h, cfg)  # pmax = psi' = psi_1
    times, lam, pairs = _march(lam0.samples, T, cfg, produce, "evolve_umbilical",
                               integrand=lambda block: circle_derivative(
                                   np.polyval(descending, block), lam0.h))
    return times, lam, _conformal_factor(pairs, 0.5 * cfg.dt)


def _conformal_factor(pairs: np.ndarray, scale: float) -> np.ndarray:
    """0 - scale * pairs, formed in ``pairs``: a subtraction from +0, so zero
    pair sums give +0."""
    np.multiply(pairs, scale, out=pairs)
    return np.subtract(0.0, pairs, out=pairs)


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
    (times, w, conf): the log conformal factor starts at zero and
    accumulates -(2/n) d_s w by trapezoid in time.  The closed-form
    propagator gives w and that sum at the snapshot steps alone.  A target whose discrete mean exceeds 1e-8 in
    magnitude is rejected: the zero-average condition is what the
    closed-curve integral identity forces.

    Modeling note: the full statement assumes every normal curve is
    dense in the manifold; the single-closed-curve reduction makes that
    density trivial, so the one fiber here is the faithful unit.
    """
    if tau0.n != target.n or tau0.length != target.length:
        raise ValidationError("tau1 and target must share one grid")
    F = target.samples
    if abs(F.mean()) > 1e-8:
        raise ValidationError(
            f"target mean curvature must have zero average (got {F.mean():.3e})"
        )
    w0 = tau0.samples - F
    times, w, pairs = _march(w0, T, cfg, _propagator(w0, 1.0, tau0.h, cfg),
                             "prescribed_mean_curvature_flow",
                             integrand=lambda block: circle_derivative(block, tau0.h))
    return times, w, _conformal_factor(pairs, (2.0 / n) * 0.5 * cfg.dt)


def ftau_conformal_flow(
    tau1: CircleField,
    df,
    phi: tuple[float, ...],
    T: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Conformal flow driven by -N(f(tau)), reduced to a quasi-linear PDE.

        dtau_1/dt = d_s(a d_s tau_1),
        a(tau_1) = (1/2) sum_{k=1..n} k df_k F_{k-1}(tau_1),

    with the full tau vector reconstructed through tau_k = F_k(tau_1) from the
    structure constants ``phi`` = (phi_2, ..., phi_n) of
    :func:`egf.symfun.f_recursion_constants`, so n = len(phi) + 1.  ``df`` =
    (df/dtau_1, ..., df/dtau_n) is the constant gradient of the coefficient
    function f, affine in tau.  Parabolicity requires a > 0.  The route is read
    off ``df``: zero after its first entry, a = (1/2) df_1 F_0 is constant and
    the closed-form propagator steps the flow; otherwise Newton's method steps
    it, its monitor hook checks a at every evaluation, and its Jacobian takes
    a'(tau_1) = (1/2) sum_k k df_k ((k-1)/n) F_{k-2}(tau_1), since F_k' = (k/n)
    F_{k-1}.  Either way the run halts with :class:`EllipticityLossError` the
    moment the minimum of a drops to zero or below, or is NaN.  Each
    coefficient evaluation calls F_k only for the nonzero entries of ``df``.
    Returns (times, taus, a_min): taus has shape (n, S, N), and a_min is the
    least a used.
    """
    n = len(phi) + 1
    df = np.asarray(df, dtype=float)
    if df.shape != (n,):
        raise ValidationError(f"df needs n = {n} entries, one per tau_k (got shape {df.shape})")
    terms = [(k, float(dfk)) for k, dfk in enumerate(df, start=1) if dfk != 0.0]
    a_min = np.inf

    def observe(amin: float) -> None:
        nonlocal a_min
        if not amin > 0.0:  # NaN included
            raise EllipticityLossError(f"parabolicity coefficient reached min a = {amin:.6g}")
        a_min = min(a_min, amin)

    def faces(v: np.ndarray) -> tuple:
        u = _face_mean(v)
        acc = np.zeros_like(u)
        for k, dfk in terms:
            acc += k * dfk * eval_F(k - 1, u, n, phi)
        a = 0.5 * acc
        observe(float(np.min(a)))
        return u, a

    def a_prime(u: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(u)
        for k, dfk in terms:
            if k >= 2:  # F_0' = 0
                acc += k * dfk * ((k - 1) / n * eval_F(k - 2, u, n, phi))
        return 0.5 * acc

    if np.any(df[1:]):
        produce = _newton_stepper(tau1, faces, a_prime, cfg)
    else:
        a = 0.5 * (df[0] * eval_F(0, 0.0, n, phi))
        observe(a)
        produce = _propagator(tau1.samples, a, tau1.h, cfg)
    # the march writes tau_1 into taus[0]; F_k of it is formed a block of rows at a time
    snapshots = _snapshot_steps(_nsteps(T, cfg.dt), cfg.save_every).size
    taus = np.empty((n, snapshots, tau1.n))
    times, _, _ = _march(tau1.samples, T, cfg, produce, "conformal flow", states=taus[0])
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
