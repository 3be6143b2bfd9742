"""Flow scenarios built on the 1-D parabolic solvers.

The spatial domain of every flow is a single closed N-curve (circle):
the per-fiber problems of the fibration decouple, so one fiber is the
faithful desk-scale unit.  Derivatives along the curve are written N(.)
and discretized by central differences.

Implemented flows (all conformal in the leafwise metric):

- umbilical surface flow     dlam/dt = (1/2) d_s(psi'(lam) d_s lam)
- diagonal tau-heat flow     dtau_i/dt = d_ss tau_i
- twisted-product flow       dphi/dt = (1/n) d_yy phi  per base point
- prescribed mean curvature  w = tau_1 - F,  dw/dt = d_ss w
- f(tau)-conformal flow      dtau_1/dt = d_s(a(tau) d_s tau_1),
                             a = (1/2) sum_k k df/dtau_k F_{k-1}(tau_1)

plus volume bookkeeping d(vol)/dt = (1/2) integral tr(S) dvol and the
driven conformal ODE chains that keep phi_k / psi_k constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import EllipticityLossError, SolverError, ValidationError
from .parabolic import (
    CircleField,
    Conductivity,
    SolverConfig,
    _divergence_theta_solve,
    _march,
    _picard_advance,
    _second_difference,
    _snapshot_steps,
    _trapezoid_accumulate,
    fit_exponential_decay,
    solve_cyclic_tridiag,  # noqa: F401  (perfbench's tracer test wraps this binding)
    solve_heat_circle,
    solve_quasilinear_divergence,
)
from .symfun import StructConstants, eval_F, eval_Psi

__all__ = [
    "UmbilicalState",
    "TwistedState",
    "MeanCurvatureState",
    "VolumeTracker",
    "TauFunction",
    "UmbilicalTrajectory",
    "TwistedTrajectory",
    "MeanCurvatureTrajectory",
    "TauFieldTrajectory",
    "circle_derivative",
    "evolve_umbilical",
    "evolve_tau_heat",
    "twisted_product_flow",
    "prescribed_mean_curvature_flow",
    "ftau_conformal_flow",
    "sigma_conformal_flow",
    "track_volume",
    "conformal_ode_system",
    "converge_criterion",
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


# ---------------------------------------------------------------------------
# states


@dataclass
class UmbilicalState:
    """Umbilical leafwise geometry along the N-curve.

    ``conf`` is the log conformal factor of the evolved leaf metric
    relative to t = 0 (conf(0, .) = 0), so ghat_t = ghat_0 * exp(conf).
    """

    lam: CircleField
    conf: CircleField
    t: float = 0.0

    @classmethod
    def initial(cls, lam0: CircleField) -> "UmbilicalState":
        return cls(lam0, CircleField(lam0.length, np.zeros(lam0.n)), 0.0)


@dataclass
class TwistedState:
    """Log warping phi(x, y) of a twisted product, f = e^phi.

    ``phi`` is sampled on (base node x_i, fiber node y_j); the fiber is
    a circle of circumference ``fiber_length``.  ``n`` is the leaf
    dimension entering the time rescale dphi/dt = (1/n) d_yy phi.
    """

    phi: np.ndarray
    fiber_length: float
    n: int = 1
    t: float = 0.0

    def __post_init__(self) -> None:
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.ndim != 2 or self.phi.shape[1] < 8:
            raise ValidationError("phi must be (base, fiber) with >= 8 fiber samples")
        if self.fiber_length <= 0 or self.n < 1:
            raise ValidationError("need positive fiber length and n >= 1")


@dataclass
class MeanCurvatureState:
    """Mean curvature tau_1 and its prescribed target F along the N-curve."""

    tau1: CircleField
    target: CircleField
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.tau1.n != self.target.n or self.tau1.length != self.target.length:
            raise ValidationError("tau1 and target must share one grid")


@dataclass
class VolumeTracker:
    """Volume of the evolving metric, tracked through its density.

    The density rho along the N-curve carries the measure:
    vol = integral rho ds (trapezoid = grid mean times length on the
    periodic grid).  A conformal deformation with trace tr(S) updates it
    pointwise by rho *= exp((dt/2) tr S), one forward step in time.
    """

    n: int
    length: float
    density: np.ndarray
    t: float = 0.0
    history: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.density = np.asarray(self.density, dtype=float)
        if np.min(self.density) <= 0.0:
            raise ValidationError("volume density must be positive")
        if not self.history:
            self.history.append((self.t, self.vol))

    @classmethod
    def uniform(cls, n: int, length: float, grid: int, vol0: float = 1.0):
        return cls(n, length, np.full(grid, vol0 / length))

    @property
    def vol(self) -> float:
        return float(self.density.mean() * self.length)

    @property
    def normalization_factor(self) -> float:
        """phi_t = vol^(-2/n), the dilation taking g_t to unit volume."""
        return self.vol ** (-2.0 / self.n)


@dataclass(frozen=True)
class TauFunction:
    """f(tau) together with its gradient d f / d tau_k.

    ``func`` and ``grad`` act on a stacked array of shape (n, ...) and
    return shapes (...) and (n, ...); both must be numpy-vectorized.
    """

    n: int
    func: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class UmbilicalTrajectory:
    times: np.ndarray
    lam: np.ndarray   # (S, N)
    conf: np.ndarray  # (S, N)
    length: float
    flags: dict

    def state_at(self, idx: int) -> UmbilicalState:
        return UmbilicalState(
            CircleField(self.length, self.lam[idx].copy()),
            CircleField(self.length, self.conf[idx].copy()),
            float(self.times[idx]),
        )


@dataclass
class TauFieldTrajectory:
    times: np.ndarray
    taus: np.ndarray  # (n_components, S, N)
    length: float


@dataclass
class TwistedTrajectory:
    times: np.ndarray
    phi: np.ndarray          # (S, Nx, Ny)
    limit: np.ndarray        # fiber mean of phi(0, x, .), shape (Nx,)
    sup_distance: np.ndarray  # sup |phi(t) - limit| per snapshot
    warp_sup_distance: np.ndarray  # sup |e^phi - e^limit| per snapshot


@dataclass
class MeanCurvatureTrajectory:
    times: np.ndarray
    tau1: np.ndarray      # (S, N)
    conf: np.ndarray      # (S, N) log conformal factor
    residual_sup: np.ndarray  # sup |tau1 - F| per snapshot
    mean_w: np.ndarray    # discrete mean of tau1 - F per snapshot
    length: float


# ---------------------------------------------------------------------------
# flows


def evolve_umbilical(
    state: UmbilicalState,
    psi: Callable[[np.ndarray], np.ndarray],
    psi_prime: Callable[[np.ndarray], np.ndarray],
    T: float,
    cfg: SolverConfig,
) -> UmbilicalTrajectory:
    """Umbilical flow dlam/dt = (1/2) d_s(psi'(lam) d_s lam).

    psi' must be positive on the (10% widened) range of lam; a negative
    value is a sign violation and rejected, a vanishing minimum only
    flags the run as degenerate.  The log conformal factor accumulates
    -d_s psi(lam) by trapezoid in time, so ghat_t = ghat_0 exp(conf); psi is
    applied to the whole (steps, N) state array, so it must act elementwise.
    """
    lam0 = state.lam
    lo, hi = float(lam0.samples.min()), float(lam0.samples.max())
    pad = 0.1 * max(hi - lo, 1e-30)
    probe = psi_prime(np.linspace(lo - pad, hi + pad, 257))
    pmin, pmax = float(np.min(probe)), float(np.max(probe))
    if pmin < 0.0:
        raise ValidationError(f"psi' changes sign on the data range (min {pmin:.3g})")
    degenerate = pmin == 0.0
    k = Conductivity.of_u(lambda u: 0.5 * psi_prime(u), c1=0.5 * pmin, c2=0.5 * pmax)

    traj = solve_quasilinear_divergence(lam0, k, T, replace(cfg, save_every=1))

    flux = circle_derivative(psi(traj.states), lam0.h)
    conf = _trapezoid_accumulate(state.conf.samples, 0.5 * np.diff(traj.times), flux)

    keep = _snapshot_steps(traj.times.size - 1, cfg.save_every)
    return UmbilicalTrajectory(
        times=traj.times[keep] + state.t,
        lam=traj.states[keep],
        conf=conf[keep],
        length=lam0.length,
        flags={"degenerate": degenerate},
    )


def evolve_tau_heat(
    taus: Sequence[CircleField], T: float, cfg: SolverConfig
) -> TauFieldTrajectory:
    """Diagonal tau-heat flow: every component diffuses, dtau_i/dt = d_ss tau_i.

    This is the flow whose leafwise deformation has traceless-free
    coefficient absorbed so each power sum obeys the plain heat equation
    along the N-curve; the long-time limit of each component is its
    initial mean.
    """
    trajs = [solve_heat_circle(f, T, cfg) for f in taus]
    times = trajs[0].times
    return TauFieldTrajectory(
        times=times,
        taus=np.stack([tr.states for tr in trajs]),
        length=taus[0].length,
    )


def twisted_product_flow(
    state: TwistedState, T: float, cfg: SolverConfig
) -> TwistedTrajectory:
    """Per-base-point fiber heat flow dphi/dt = (1/n) d_yy phi.

    The reported limit field is the fiber mean of phi(0, x, .): the
    twisted product converges to the product carrying that mean warp.
    """
    ny = state.phi.shape[1]
    h = state.fiber_length / ny
    theta = cfg.theta
    diff = 1.0 / state.n
    kface = np.full(ny, diff)
    limit = state.phi.mean(axis=1)

    def advance(phi: np.ndarray, step: int) -> np.ndarray:
        rhs = phi.T
        if theta != 1.0:
            rhs = (phi + (1 - theta) * cfg.dt * diff * _second_difference(phi, h)).T
        return _divergence_theta_solve(kface, rhs, theta * cfg.dt, h).T

    times, snaps, _ = _march(state.phi, T, cfg, advance, "twisted_product_flow")
    dist = np.max(np.abs(snaps - limit[None, :, None]), axis=(1, 2))
    warp = np.max(
        np.abs(np.exp(snaps) - np.exp(limit)[None, :, None]), axis=(1, 2)
    )
    return TwistedTrajectory(
        times=state.t + times,
        phi=snaps,
        limit=limit,
        sup_distance=dist,
        warp_sup_distance=warp,
    )


def prescribed_mean_curvature_flow(
    state: MeanCurvatureState, T: float, cfg: SolverConfig, n: int = 1
) -> MeanCurvatureTrajectory:
    """Relax tau_1 toward a prescribed zero-average target F.

    w = tau_1 - F satisfies the heat equation along the N-curve, so
    tau_1(t) = F + w(t) and the residual decays exponentially.  The log
    conformal factor accumulates -(2/n) d_s w.  A target whose discrete
    mean exceeds 1e-8 in magnitude is rejected: the zero-average
    condition is what the closed-curve integral identity forces.

    Modeling note: the full statement assumes every normal curve is
    dense in the manifold; the single-closed-curve reduction makes that
    density trivial, so the one fiber here is the faithful unit.
    """
    F = state.target.samples
    if abs(F.mean()) > 1e-8:
        raise ValidationError(
            f"target mean curvature must have zero average (got {F.mean():.3e})"
        )
    w0 = CircleField(state.tau1.length, state.tau1.samples - F)
    traj = solve_heat_circle(w0, T, replace(cfg, save_every=1))

    g = circle_derivative(traj.states, state.tau1.h)
    conf = _trapezoid_accumulate(
        np.zeros(state.tau1.n), (2.0 / n) * 0.5 * np.diff(traj.times), g
    )

    keep = _snapshot_steps(traj.times.size - 1, cfg.save_every)
    w = traj.states[keep]
    return MeanCurvatureTrajectory(
        times=traj.times[keep] + state.t,
        tau1=w + F[None, :],
        conf=conf[keep],
        residual_sup=np.max(np.abs(w), axis=1),
        mean_w=w.mean(axis=1),
        length=state.tau1.length,
    )


def ftau_conformal_flow(
    tau1: CircleField,
    f: TauFunction,
    consts: StructConstants,
    T: float,
    cfg: SolverConfig,
) -> TauFieldTrajectory:
    """Conformal flow driven by -N(f(tau)), reduced to a quasi-linear PDE.

        dtau_1/dt = d_s(a d_s tau_1),
        a(tau_1) = (1/2) sum_{k=1..n} k df/dtau_k(tau) F_{k-1}(tau_1),

    with the full tau vector reconstructed through tau_k = F_k(tau_1).
    Parabolicity requires a > 0; the coefficient is monitored at every
    step and the run halts with :class:`EllipticityLossError` the moment
    the minimum drops to zero or below.
    """
    return _conformal_flow(tau1, f, consts, T, cfg, eval_F, range(1, consts.n + 1))


def sigma_conformal_flow(
    sigma1: CircleField,
    f: TauFunction,
    consts: StructConstants,
    T: float,
    cfg: SolverConfig,
) -> TauFieldTrajectory:
    """Psi-variant of :func:`ftau_conformal_flow` for sigma variables.

        dsigma_1/dt = d_s(a d_s sigma_1),
        a = (1/2) sum_k (n-k+1) df/dsigma_k(sigma) Psi_{k-1}(sigma_1),

    with sigma_k = Psi_k(sigma_1).
    """
    return _conformal_flow(sigma1, f, consts, T, cfg, eval_Psi, range(consts.n, 0, -1))


def _conformal_flow(
    u0: CircleField,
    f: TauFunction,
    consts: StructConstants,
    T: float,
    cfg: SolverConfig,
    basis: Callable,
    weights: Sequence[int],
) -> TauFieldTrajectory:
    """du_1/dt = d_s(a d_s u_1) with a = (1/2) sum_k w_k df/du_k(u) B_{k-1}(u_1)
    and u_k = B_k(u_1), for the basis B (F or Psi) and weights w_1..w_n.

    The Picard monitor hook raises :class:`EllipticityLossError` once a <= 0.
    """
    n = consts.n
    if f.n != n:
        raise ValidationError("coefficient function and constants disagree on n")

    def faces(v: np.ndarray) -> np.ndarray:
        u = 0.5 * (v + np.roll(v, -1))
        g = np.asarray(
            f.grad(np.stack([np.asarray(basis(k, u, consts)) for k in range(1, n + 1)])),
            dtype=float,
        )
        acc = np.zeros_like(u)
        for k, w in enumerate(weights, start=1):
            acc += w * g[k - 1] * np.asarray(basis(k - 1, u, consts))
        a = 0.5 * acc
        amin = float(np.min(a))
        if amin <= 0.0:
            raise EllipticityLossError(
                f"parabolicity coefficient reached min a = {amin:.6g}"
            )
        return a

    advance = _picard_advance(u0, faces, cfg)
    times, states, _ = _march(u0.samples, T, cfg, advance, "conformal flow")
    taus = np.stack([basis(k, states, consts) for k in range(1, n + 1)])
    return TauFieldTrajectory(times=times, taus=taus, length=u0.length)


def track_volume(tracker: VolumeTracker, s_field: CircleField, dt: float) -> VolumeTracker:
    """Advance the volume by one step of d(vol)/dt = (1/2) integral tr(S) dvol.

    ``s_field`` samples tr(S) along the N-curve (for a conformal
    deformation S = s ghat that is n * s).  The density update is the
    exact per-node integrating factor exp((dt/2) tr S) of the frozen
    coefficient, and vol is its trapezoid integral; vol <= 0 would
    signal blow-up of the discretization and raises.
    """
    if s_field.n != tracker.density.size:
        raise ValidationError("trace field and tracker density grids differ")
    tracker.density = tracker.density * np.exp(0.5 * dt * s_field.samples)
    tracker.t += dt
    vol = tracker.vol
    if not np.isfinite(vol) or vol <= 0.0:
        raise SolverError("volume tracker left the positive range (blow-up)")
    tracker.history.append((tracker.t, vol))
    return tracker


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
    """
    tau0 = np.asarray(tau0, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)
    n = tau0.size
    if sigma0.size != n:
        raise ValidationError("tau and sigma chains must share n")

    kt = np.arange(1, n + 1)
    ks = n - kt + 1  # n, n-1, ..., 1

    def rhs(state: np.ndarray, w: float) -> np.ndarray:
        tau, sig = state[:n], state[n:]
        dtau = np.empty(n)
        dsig = np.empty(n)
        dtau[0] = -(n / 2.0) * w
        dsig[0] = -(n / 2.0) * w
        if n > 1:
            dtau[1:] = -(kt[1:] / 2.0) * tau[:-1] * w
            dsig[1:] = -(ks[1:] / 2.0) * sig[:-1] * w
        return np.concatenate([dtau, dsig])

    nsteps = int(round(T / dt))
    state = np.concatenate([tau0, sigma0])
    times = np.empty(nsteps + 1)
    out = np.empty((nsteps + 1, 2 * n))
    times[0], out[0] = 0.0, state
    for i in range(1, nsteps + 1):
        t = (i - 1) * dt
        k1 = rhs(state, drive(t))
        k2 = rhs(state + 0.5 * dt * k1, drive(t + 0.5 * dt))
        k3 = rhs(state + 0.5 * dt * k2, drive(t + 0.5 * dt))
        k4 = rhs(state + dt * k3, drive(t + dt))
        state = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        times[i], out[i] = i * dt, state
    return times, out[:, :n], out[:, n:]


def converge_criterion(
    series: Sequence[tuple[float, float]], tail_tol: float = 1e-2
) -> bool:
    """Decide whether the sampled speeds v(t) have finite time integral.

    The trapezoid integral of the samples is always finite; convergence
    hinges on the tail.  The tail half is fitted to K exp(-alpha t); the
    extrapolated remainder v_last / alpha must fall below
    tail_tol * (1 + integral-so-far).  Speeds that decay slower than
    exponentially fit a small alpha and fail the bound.
    """
    pts = [(float(t), float(v)) for t, v in series]
    if len(pts) < 5:
        raise ValidationError("need at least 5 samples")
    ts = np.array([t for t, _ in pts])
    vs = np.array([v for _, v in pts])
    integral = float(np.trapezoid(vs, ts))
    if np.max(vs[len(pts) // 2 :]) == 0.0:
        return True
    _, alpha = fit_exponential_decay(pts)
    if not alpha > 0.0:
        return False
    tail = vs[-1] / alpha
    return tail <= tail_tol * (1.0 + integral)


def umbilical_metric_samples(
    lam0: CircleField, conf: CircleField, leaf_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leafwise metric samples exp(c0 + conf) * Id along the N-curve.

    c0(s) = -2 * integral_0^s lam0 encodes the initial umbilical shape
    (the chart Weingarten operator of exp(c) Id is -(1/2) c' Id), so the
    reconstructed chart metric returns A = lam * Id.  Periodicity of c0
    requires zero-mean lam0, which is also what the closed-curve
    integral identity for tau_1 forces.

    Returns (x0_grid, g00, gij) ready for chart extraction.
    """
    if abs(lam0.mean()) > 1e-10:
        raise ValidationError("initial curvature must have zero circle-mean")
    s = lam0.nodes()
    h = lam0.h
    vals = lam0.samples
    c0 = np.zeros(lam0.n)
    # cumulative trapezoid of -2 lam0 along s
    c0[1:] = np.cumsum(-2.0 * 0.5 * (vals[1:] + vals[:-1]) * h)
    factor = np.exp(c0 + conf.samples)
    gij = factor[:, None, None] * np.eye(leaf_dim)[None, :, :]
    return s, np.ones(lam0.n), gij
