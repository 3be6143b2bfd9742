"""Closed forms and cross-checks that the tests use as oracles; no run, sweep
or criterion calls them.  The arclength heat kernel (:func:`kernel_lambda`)
never sees x = 0: its agreement with the x-space Reeb solver is the
correctness argument for that solver.  A Reeb geometry keeps its leaf angle
only on the grid, so the oracles that evaluate it between nodes take the
leaf-angle function ``alpha`` (and its derivative ``alpha_prime``) as
arguments."""

import math
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from egf.errors import ValidationError
from egf.parabolic import fit_exponential_decay
from egf.reeb import ReebGeometry, _d_x4


def heat_kernel(t: float, x, y):
    """G(t, x, y) = (4 pi t)^(-1/2) exp(-(x-y)^2 / (4t)) for t > 0."""
    if t <= 0.0:
        raise ValidationError("heat kernel needs t > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.exp(-((x - y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return out if out.ndim else float(out)


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
    alpha: Callable,
    alpha_prime: Callable,
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
    the value at -x equal the value at x.  ``alpha`` and ``alpha_prime`` are
    the leaf angle of ``geom`` and its derivative; without ``lam0`` the data
    is alpha' |cos alpha|.  The quadrature is trapezoid with step ``ds``.
    """
    if t <= 0.0:
        raise ValidationError("kernel evaluation needs t > 0")
    xe = np.asarray(x_eval, dtype=float)
    if lam0 is None:

        def data(p):
            return (
                np.asarray(alpha_prime(p), dtype=float)
                * np.abs(np.cos(np.asarray(alpha(p), dtype=float)))
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
                lambda p, _s=side: _s * np.asarray(alpha(_s * p), dtype=float),
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
    val, _ = quad(
        lambda xi: 1.0 / math.sin(float(np.asarray(alpha_func(xi)))),
        x0,
        1.0,
        limit=200,
    )
    return float(val)


def n_curve_map(
    alpha: Callable, s: float, x_points: Sequence[float], ds_max: float = 1e-3
) -> tuple[np.ndarray, np.ndarray]:
    """Flow x_points along dx/ds = -sin(alpha(x)) for length s (RK4).

    Returns (phi_s(x), stationary) where stationary marks points with
    sin(alpha(x)) = 0, which the flow never moves (x = 0 in the default
    geometry).
    """
    x = np.asarray(x_points, dtype=float).copy()
    stationary = np.abs(np.sin(np.asarray(alpha(x)))) < 1e-14
    if s == 0.0:
        return x, stationary
    nsub = max(1, int(math.ceil(abs(s) / ds_max)))
    ds = s / nsub

    def vel(p):
        return -np.sin(np.asarray(alpha(p), dtype=float))

    for _ in range(nsub):
        k1 = vel(x)
        k2 = vel(x + 0.5 * ds * k1)
        k3 = vel(x + 0.5 * ds * k2)
        k4 = vel(x + ds * k3)
        x = x + ds / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    x[stationary] = np.asarray(x_points, dtype=float)[stationary]
    return x, stationary


def n_curve_residual(alpha: Callable, x0: float, phi: float, s: float) -> float:
    """|s + int_x0^phi dxi / sin(alpha(xi))|, the implicit-formula residual."""
    val, _ = quad(
        lambda xi: 1.0 / math.sin(float(np.asarray(alpha(xi)))),
        x0,
        phi,
        limit=200,
    )
    return abs(s + val)


def graph_curvature_check(alpha: Callable, alpha_prime: Callable, x0: float,
                          h: float = 1e-5) -> float:
    """|alpha'|cos alpha| - f''/(1+f'^2)^(3/2)| at x0, f' = tan(alpha).

    f'' is a central difference of tan(alpha); requires |alpha(x0)| far
    enough from pi/2 that tan is finite at the stencil points.
    """
    a0 = float(np.asarray(alpha(x0)))
    if abs(abs(a0) - 0.5 * math.pi) < 10 * h:
        raise ValidationError("graph formula needs tan(alpha) finite near x0")
    fp = lambda x: np.tan(np.asarray(alpha(x), dtype=float))
    fpp = (fp(x0 + h) - fp(x0 - h)) / (2.0 * h)
    graph = fpp / (1.0 + fp(x0) ** 2) ** 1.5
    direct = float(np.asarray(alpha_prime(x0))) * abs(math.cos(a0))
    return float(abs(direct - graph))


def gauss_cross_check(
    lam: np.ndarray, U: np.ndarray, geom: ReebGeometry, psi_slope: float = 2.0
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
    the frame field sin a cos a a').  ``lam`` and ``U`` are the curvature
    and the exponent at one time.  Returns |difference| on the grid; both
    vanish at t = 0.
    """
    h = geom.h
    W = psi_slope * U
    sin_a, cos_a = np.sin(geom.alpha), np.cos(geom.alpha)
    base = sin_a * cos_a * geom.alpha_prime
    div_term = np.exp(0.5 * W) * _d_x4(np.exp(0.5 * W) * base, h)
    K_div = div_term - sin_a * _d_x4(lam, h) - lam**2
    e = np.exp(-W)
    g22 = cos_a**2 + sin_a**2 * e
    sqrt_det = np.sqrt(e)
    K_metric = -_d_x4(_d_x4(g22, h) / sqrt_det, h) / (2.0 * sqrt_det)
    return np.abs(K_div - K_metric)


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
    _, alpha = fit_exponential_decay(ts, vs)
    if not alpha > 0.0:
        return False
    tail = vs[-1] / alpha
    return tail <= tail_tol * (1.0 + integral)
