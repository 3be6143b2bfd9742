"""Reeb foliation on the flat torus: the full worked case study.

The strip [-1, 1] x R carries the foliation whose interior leaves are
graphs of f (vertical asymptotes at x = +-1, one minimum at 0) and whose
boundary leaves are the verticals x = +-1; gluing the strip edges gives
a foliated flat torus.  With alpha(x) the leaf angle (f' = tan alpha,
default alpha = pi x / 2):

    lam_0(x) = alpha'(x) |cos alpha(x)|      (geodesic curvature of leaves)
    N-curves: dx/ds = -sin alpha(x)

Under the speed-2 curvature flow the curvature obeys the heat equation
along N-curves, d(lam)/dt = d_ss lam.  Written in x that is

    d(lam)/dt = sin^2(alpha) d_xx lam + sin(alpha) cos(alpha) alpha' d_x lam,

degenerate-parabolic at the single interior point x = 0; the boundary
values lam(+-1) = 0 are pinned (the boundary leaves carry an unchanged
metric).  The evolved metric is reconstructed from

    U_t(x)   = -sin(alpha) V_t(x),    V_t(x) = int_0^t d_x lam_xi dxi
    g11 = sin^2 a + cos^2 a e^-U,  g12 = sin a cos a (e^-U - 1),
    g22 = cos^2 a + sin^2 a e^-U,  det g = e^-U

and its Gaussian curvature is

    K_t = -(1 / (2 sqrt(det))) d_x(d_x g22 / sqrt(det)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .parabolic import (
    SolverConfig,
    _d_x,
    _interval_stepper,
    _march,
    heat_kernel,
)

__all__ = [
    "ReebGeometry",
    "ReebState",
    "ReebMetric",
    "ReebTrajectory",
    "reeb_setup",
    "n_curve_map",
    "n_curve_residual",
    "graph_curvature_check",
    "evolve_reeb_lambda",
    "kernel_lambda",
    "reconstruct_metric",
    "gaussian_curvature",
    "expansion_slope",
    "gauss_cross_check",
]


@dataclass
class ReebGeometry:
    """Grid, leaf angle and initial curvature of the Reeb strip.

    ``x`` holds n_intervals + 1 uniform nodes of [-1, 1] (an even
    interval count keeps x = 0 on the grid).
    """

    x: np.ndarray
    alpha: np.ndarray
    alpha_prime: np.ndarray
    lam0: np.ndarray
    alpha_func: Callable[[np.ndarray], np.ndarray]
    alpha_prime_func: Callable[[np.ndarray], np.ndarray]

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def n_nodes(self) -> int:
        return self.x.size


@dataclass
class ReebState:
    """Evolving curvature lam with the accumulated metric exponent.

    U(x) = -sin(alpha(x)) V(x) with V(x) = int_0^t d_x lam; U(0) = 0 for
    all t because sin(alpha(0)) = 0.
    """

    lam: np.ndarray
    V: np.ndarray
    t: float = 0.0

    def U(self, geom: ReebGeometry) -> np.ndarray:
        return -np.sin(geom.alpha) * self.V


@dataclass
class ReebMetric:
    """Frame components of g_t on the grid; det = e^-U identically."""

    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    det: np.ndarray


@dataclass
class ReebTrajectory:
    times: np.ndarray
    lam: np.ndarray  # (S, M)
    V: np.ndarray    # (S, M)

    def state_at(self, idx: int) -> ReebState:
        return ReebState(self.lam[idx].copy(), self.V[idx].copy(), float(self.times[idx]))

    @property
    def final(self) -> ReebState:
        return self.state_at(-1)


def _default_alpha(x):
    return 0.5 * math.pi * np.asarray(x, dtype=float)


def _default_alpha_prime(x):
    return np.full_like(np.asarray(x, dtype=float), 0.5 * math.pi)


def reeb_setup(
    alpha: Callable | None = None,
    n_grid: int = 2048,
    alpha_prime: Callable | None = None,
) -> ReebGeometry:
    """Build the geometry on n_grid intervals (n_grid + 1 nodes).

    alpha must be strictly increasing with alpha(+-1) = +-pi/2; the
    default is alpha(x) = pi x / 2.  alpha' falls back to a central
    difference when not supplied.  lam0 = alpha' |cos alpha| vanishes at
    the boundary nodes (enforced exactly).
    """
    if n_grid < 16 or n_grid % 2:
        raise ValidationError("need an even count of at least 16 grid intervals")
    if alpha is None:
        alpha = _default_alpha
        alpha_prime = _default_alpha_prime
    x = np.linspace(-1.0, 1.0, n_grid + 1)
    a = np.asarray(alpha(x), dtype=float)
    if abs(a[0] + 0.5 * math.pi) > 1e-9 or abs(a[-1] - 0.5 * math.pi) > 1e-9:
        raise ValidationError("alpha must satisfy alpha(-1) = -pi/2, alpha(1) = pi/2")
    if np.min(np.diff(a)) <= 0.0:
        raise ValidationError("alpha must be strictly increasing")
    if alpha_prime is not None:
        ap = np.asarray(alpha_prime(x), dtype=float)
        ap_func = alpha_prime
    else:
        h = x[1] - x[0]
        ap = np.gradient(a, h)

        def ap_func(pts, _a=alpha, _h=1e-6):
            pts = np.asarray(pts, dtype=float)
            return (np.asarray(_a(pts + _h)) - np.asarray(_a(pts - _h))) / (2 * _h)

    lam0 = ap * np.abs(np.cos(a))
    lam0[0] = lam0[-1] = 0.0
    return ReebGeometry(x, a, ap, lam0, alpha, ap_func)


def graph_curvature_check(geom: ReebGeometry, x0: float, h: float = 1e-5) -> float:
    """|alpha'|cos alpha| - f''/(1+f'^2)^(3/2)| at x0, f' = tan(alpha).

    f'' is a central difference of tan(alpha); requires |alpha(x0)| far
    enough from pi/2 that tan is finite at the stencil points.
    """
    a0 = float(np.asarray(geom.alpha_func(x0)))
    if abs(abs(a0) - 0.5 * math.pi) < 10 * h:
        raise ValidationError("graph formula needs tan(alpha) finite near x0")
    fp = lambda x: np.tan(np.asarray(geom.alpha_func(x), dtype=float))
    fpp = (fp(x0 + h) - fp(x0 - h)) / (2.0 * h)
    graph = fpp / (1.0 + fp(x0) ** 2) ** 1.5
    direct = float(np.asarray(geom.alpha_prime_func(x0))) * abs(math.cos(a0))
    return float(abs(direct - graph))


def n_curve_map(
    geom: ReebGeometry, s: float, x_points: Sequence[float], ds_max: float = 1e-3
) -> tuple[np.ndarray, np.ndarray]:
    """Flow x_points along dx/ds = -sin(alpha(x)) for length s (RK4).

    Returns (phi_s(x), stationary) where stationary marks points with
    sin(alpha(x)) = 0, which the flow never moves (x = 0 in the default
    geometry).
    """
    x = np.asarray(x_points, dtype=float).copy()
    stationary = np.abs(np.sin(np.asarray(geom.alpha_func(x)))) < 1e-14
    if s == 0.0:
        return x, stationary
    nsub = max(1, int(math.ceil(abs(s) / ds_max)))
    ds = s / nsub

    def vel(p):
        return -np.sin(np.asarray(geom.alpha_func(p), dtype=float))

    for _ in range(nsub):
        k1 = vel(x)
        k2 = vel(x + 0.5 * ds * k1)
        k3 = vel(x + 0.5 * ds * k2)
        k4 = vel(x + ds * k3)
        x = x + ds / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    x[stationary] = np.asarray(x_points, dtype=float)[stationary]
    return x, stationary


def n_curve_residual(geom: ReebGeometry, x0: float, phi: float, s: float) -> float:
    """|s + int_x0^phi dxi / sin(alpha(xi))|, the implicit-formula residual."""
    from scipy.integrate import quad  # imported here: no run or criterion needs it

    val, _ = quad(
        lambda xi: 1.0 / math.sin(float(np.asarray(geom.alpha_func(xi)))),
        x0,
        phi,
        limit=200,
    )
    return abs(s + val)


def evolve_reeb_lambda(
    geom: ReebGeometry,
    T: float,
    cfg: SolverConfig,
    method: str = "x-space",
    lam0: np.ndarray | None = None,
) -> ReebTrajectory:
    """Heat flow of the leaf curvature along N-curves up to time T.

    ``x-space`` solves the degenerate interval problem

        d(lam)/dt = sin^2(a) d_xx lam + sin(a) cos(a) a' d_x lam

    with lam(+-1) pinned to 0; this is the arclength heat equation
    d(lam)/dt = d_ss lam written in the x coordinate (the change of
    variables produces the first-order term), and the implicit solver
    tolerates the coefficient vanishing at x = 0.  ``arclength-kernel``
    evaluates the same evolution by line heat-kernel convolution along
    the N-curve, which never sees x = 0; see :func:`kernel_lambda`.
    """
    lam_init = geom.lam0 if lam0 is None else np.asarray(lam0, dtype=float)
    if method == "arclength-kernel":
        lam_T = kernel_lambda(geom, T, x_eval=geom.x, lam0=lam_init)
        # V is accumulated on the x-grid from the two endpoint states only
        # (trapezoid with one panel); prefer x-space for time-resolved V.
        h = geom.h
        dlam0 = _d_x(lam_init, h)
        dlamT = _d_x(lam_T, h)
        V = 0.5 * T * (dlam0 + dlamT)
        times = np.array([0.0, T])
        return ReebTrajectory(times, np.stack([lam_init, lam_T]), np.stack([np.zeros_like(V), V]))
    if method != "x-space":
        raise ValidationError("method must be 'x-space' or 'arclength-kernel'")

    sin_a = np.sin(geom.alpha)
    cos_a = np.cos(geom.alpha)
    diffusion = sin_a**2
    drift = sin_a * cos_a * geom.alpha_prime
    start, produce = _interval_stepper(lam_init, geom.h, diffusion, drift, cfg, (0.0, 0.0))
    # V_k = V_{k-1} + (dt / 2) (d_x lam_{k-1} + d_x lam_k)
    slope = (np.zeros(geom.n_nodes), -0.5, lambda block: _d_x(block.T, geom.h).T)
    times, lam, _, (V,) = _march(start, T, cfg, produce, "evolve_reeb_lambda",
                                 integrals=[slope])
    return ReebTrajectory(times, lam, V)


def _d_x4(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central d/dx (second-order fallback near the edges)."""
    v = values
    out = np.empty_like(v)
    out[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    out[1] = (v[2] - v[0]) / (2.0 * h)
    out[-2] = (v[-1] - v[-3]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def _branch_arclength(alpha_func: Callable, s_max: float, ds: float):
    """x(s) along the (0, 1) branch, from the seam x=1 toward x -> 0+.

    dx/ds = -sin(alpha(x)), x(0) = 1; returns (s_grid, x_of_s).
    """
    n = int(math.ceil(s_max / ds))
    s = np.linspace(0.0, n * ds, n + 1)
    x = np.empty(n + 1)
    x[0] = 1.0

    def vel(p: float) -> float:
        return -math.sin(float(np.asarray(alpha_func(p))))

    for i in range(n):
        p = x[i]
        k1 = vel(p)
        k2 = vel(p + 0.5 * ds * k1)
        k3 = vel(p + 0.5 * ds * k2)
        k4 = vel(p + ds * k3)
        x[i + 1] = p + ds / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return s, x


def _branch_kernel(
    alpha_func: Callable, data: Callable, t: float, x_pos: np.ndarray, ds: float
) -> np.ndarray:
    """Kernel values at 0 < x_pos < 1 on the branch from the seam x = 1.

    ``data(x)`` gives lam_0 on that branch.  The table extends
    10 sqrt(4t) beyond the farthest evaluation point so the truncated
    tail is negligible.
    """
    s_probe = _seam_distance(alpha_func, float(np.min(x_pos)))
    s_max = s_probe + 10.0 * math.sqrt(4.0 * t) + 2.0
    s_grid, x_of_s = _branch_arclength(alpha_func, s_max, ds)
    lam_data = data(x_of_s)

    # arclength coordinates of the evaluation points (branch is monotone)
    s_eval = np.interp(-x_pos, -x_of_s, s_grid)

    G_plus = heat_kernel(t, s_eval[:, None], s_grid[None, :])
    G_minus = heat_kernel(t, s_eval[:, None], -s_grid[None, :])
    return np.trapezoid((G_plus - G_minus) * lam_data[None, :], s_grid, axis=1)


def kernel_lambda(
    geom: ReebGeometry,
    t: float,
    x_eval: np.ndarray,
    lam0: np.ndarray | None = None,
    ds: float = 2e-3,
) -> np.ndarray:
    """Curvature at time t by heat-kernel convolution along the N-curves.

    The branch through (0, 1) is parametrized by arclength from the seam
    x = 1, where lam is pinned to 0, so the initial data extends oddly
    about the seam.  Then

        lam_t(x) = int_0^inf [G(t, s(x), xi) - G(t, s(x), -xi)] lam_0(x(xi)) dxi

    (the odd image enforces lam_t(+-1) = 0 automatically).  The pinned
    seam makes the branch through (-1, 0) a separate half-line: it is
    evaluated the same way on the mirrored geometry -alpha(-x) with data
    lam_0(-x), for which the N-curve equation and the x-space evolution
    keep their form.  Only for mirror-symmetric geometry and data does
    the value at -x equal the value at x.  The quadrature is trapezoid
    with step ``ds``.
    """
    if t <= 0.0:
        raise ValidationError("kernel evaluation needs t > 0")
    xe = np.asarray(x_eval, dtype=float)
    if lam0 is None:

        def data(p):
            return (
                np.asarray(geom.alpha_prime_func(p), dtype=float)
                * np.abs(np.cos(np.asarray(geom.alpha_func(p), dtype=float)))
            )

    else:
        lam0 = np.asarray(lam0, dtype=float)

        def data(p):
            return np.interp(p, geom.x, lam0)

    out = np.zeros_like(xe)
    for side in (1.0, -1.0):
        # side = -1 maps the left branch onto the right one: y = -x
        pts = (side * xe > 1e-12) & (side * xe < 1.0 - 1e-12)
        if np.any(pts):
            out[pts] = _branch_kernel(
                lambda p, _s=side: _s * np.asarray(geom.alpha_func(_s * p), dtype=float),
                lambda p, _s=side: data(_s * p),
                t,
                side * xe[pts],
                ds,
            )
    frozen = np.abs(xe) <= 1e-12
    out[frozen] = data(xe[frozen])
    return out


def _seam_distance(alpha_func: Callable, x0: float) -> float:
    """Arclength from the seam x = 1 to x0 along the branch."""
    from scipy.integrate import quad  # imported here: no run or criterion needs it

    val, _ = quad(
        lambda xi: 1.0 / math.sin(float(np.asarray(alpha_func(xi)))),
        x0,
        1.0,
        limit=200,
    )
    return float(val)


def reconstruct_metric(state: ReebState, geom: ReebGeometry) -> ReebMetric:
    """Frame components of the evolved metric from the exponent U."""
    U = state.U(geom)
    e = np.exp(-U)
    sin_a, cos_a = np.sin(geom.alpha), np.cos(geom.alpha)
    g11 = sin_a**2 + cos_a**2 * e
    g12 = sin_a * cos_a * (e - 1.0)
    g22 = cos_a**2 + sin_a**2 * e
    return ReebMetric(g11=g11, g12=g12, g22=g22, det=g11 * g22 - g12**2)


def gaussian_curvature(
    metric: ReebMetric, state: ReebState, geom: ReebGeometry
) -> np.ndarray:
    """K = -(1/(2 sqrt(det))) d_x(d_x g22 / sqrt(det)) on the grid.

    Central differences in x (fourth order in the interior: the value
    K(0) = 0 is a structural cancellation between the two halves of g22
    and benefits from the extra order).  Raises when the accumulated
    exponent is too rough for the grid (successive second differences of
    U must stay bounded relative to its scale).
    """
    h = geom.h
    U = state.U(geom)
    d2U = np.abs(np.diff(U, 2)) / h**2
    scale = 1.0 + np.max(np.abs(U))
    if not np.all(np.isfinite(U)) or np.max(d2U) * h > 50.0 * scale:
        raise ValidationError("metric exponent is not smooth on this grid")
    sqrt_det = np.sqrt(metric.det)
    inner = _d_x4(metric.g22, h) / sqrt_det
    return -_d_x4(inner, h) / (2.0 * sqrt_det)


def expansion_slope(
    K: np.ndarray, state: ReebState, geom: ReebGeometry, half_width: float = 0.05
) -> tuple[float, float]:
    """Fitted near-zero slope of e^-U K against the closed-form target.

    Write a1 = alpha'(0) and V_0 = V_t(0).  Near x = 0, sin(alpha) ~ a1 x
    and U = -sin(alpha) V ~ -a1 V_0 x, so

        g22 = 1 + sin^2(alpha) (e^-U - 1) ~ 1 + a1^3 V_0 x^3,
        det = e^-U ~ 1 + a1 V_0 x,

    and K = -(1/(2 sqrt(det))) d_x(d_x g22 / sqrt(det)) ~ -3 a1^3 V_0 x.
    The factor e^-U = 1 + O(x) leaves the slope unchanged, so the
    reference value is -3 a1^3 V_t(0), which is -(3/8) pi^3 V_t(0) for
    the default alpha = pi x / 2.  The fit is least squares of
    e^-U K ~ c x over |x| <= half_width, widened to the nodes x = +-h where
    h exceeds it.  Returns (fitted, target).
    """
    U = state.U(geom)
    y = np.exp(-U) * K
    mask = np.abs(geom.x) <= half_width
    i0 = geom.n_nodes // 2
    mask[i0 - 1 : i0 + 2] = True
    xs = geom.x[mask]
    slope = float(np.dot(xs, y[mask]) / np.dot(xs, xs))
    v0 = float(np.interp(0.0, geom.x, state.V))
    a1 = float(np.interp(0.0, geom.x, geom.alpha_prime))
    return slope, -3.0 * a1**3 * v0


def gauss_cross_check(
    state: ReebState, geom: ReebGeometry, psi_slope: float = 2.0
) -> np.ndarray:
    """Residual between the divergence-form and metric-form curvature.

    For the speed flow psi = c lam the full metric exponent is
    W = int_0^t N(psi(lam)) = c U (the stored U carries the slope-free
    normalization, see the module notes on the factor bookkeeping), the
    evolved normal is ∇_N N = e^W ∇0_N N, and the two expressions for
    the Gaussian curvature of ghat_0 e^-W are

        K = e^(W/2) d_x(e^(W/2) sin a cos a a') - sin(a) d_x lam - lam^2
        K = -(1/(2 e^(-W/2))) d_x(d_x g22 / e^(-W/2)),
            g22 = cos^2 a + sin^2 a e^-W

    (the divergence term is fixed at t = 0 by K_0 = 0, which forces
    Div(∇0_N N) = lam_0^2 - N(lam_0); that identity holds exactly for
    the frame field sin a cos a a').  Returns |difference| on the grid;
    both vanish at t = 0.
    """
    h = geom.h
    W = psi_slope * state.U(geom)
    sin_a, cos_a = np.sin(geom.alpha), np.cos(geom.alpha)
    base = sin_a * cos_a * geom.alpha_prime
    div_term = np.exp(0.5 * W) * _d_x4(np.exp(0.5 * W) * base, h)
    K_div = div_term - sin_a * _d_x4(state.lam, h) - state.lam**2
    e = np.exp(-W)
    g22 = cos_a**2 + sin_a**2 * e
    sqrt_det = np.sqrt(e)
    K_metric = -_d_x4(_d_x4(g22, h) / sqrt_det, h) / (2.0 * sqrt_det)
    return np.abs(K_div - K_metric)
