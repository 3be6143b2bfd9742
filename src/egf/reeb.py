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

The functions take and return arrays; the caller forms U from V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .parabolic import SolverConfig, _d_x, _interval_stepper, _march, _row_blocks

__all__ = [
    "ReebGeometry",
    "reeb_setup",
    "evolve_reeb_lambda",
    "reconstruct_metric",
    "gaussian_curvature",
    "expansion_slope",
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

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def n_nodes(self) -> int:
        return self.x.size


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
    else:
        ap = np.gradient(a, x[1] - x[0])
    lam0 = ap * np.abs(np.cos(a))
    lam0[0] = lam0[-1] = 0.0
    return ReebGeometry(x, a, ap, lam0)


def evolve_reeb_lambda(
    geom: ReebGeometry,
    T: float,
    cfg: SolverConfig,
    lam0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Heat flow of the leaf curvature along N-curves up to time T.

    Solves the degenerate interval problem

        d(lam)/dt = sin^2(a) d_xx lam + sin(a) cos(a) a' d_x lam

    with lam(+-1) pinned to 0; this is the arclength heat equation
    d(lam)/dt = d_ss lam written in the x coordinate (the change of
    variables produces the first-order term), and the implicit solver
    tolerates the coefficient vanishing at x = 0.  Returns (times, lam, V),
    one row of lam and V per snapshot.
    """
    lam_init = geom.lam0 if lam0 is None else np.asarray(lam0, dtype=float)
    sin_a = np.sin(geom.alpha)
    cos_a = np.cos(geom.alpha)
    diffusion = sin_a**2
    drift = sin_a * cos_a * geom.alpha_prime
    start, produce = _interval_stepper(lam_init, geom.h, diffusion, drift, cfg)
    # V = (dt / 2) d_x P with P the trapezoid pair sums of lam, at the kept
    # steps only, formed in P a block of rows at a time
    times, lam, pairs = _march(start, T, cfg, produce, "evolve_reeb_lambda",
                               integrand=lambda block: block)
    for rows in _row_blocks(*pairs.shape):
        pairs[rows] = 0.5 * cfg.dt * _d_x(pairs[rows].T, geom.h).T
    return times, lam, pairs


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


def reconstruct_metric(
    U: np.ndarray, geom: ReebGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Frame components (g11, g12, g22, det) of the evolved metric on the
    grid, from the exponent U; det = e^-U identically."""
    e = np.exp(-U)
    sin_a, cos_a = np.sin(geom.alpha), np.cos(geom.alpha)
    g11 = sin_a**2 + cos_a**2 * e
    g12 = sin_a * cos_a * (e - 1.0)
    g22 = cos_a**2 + sin_a**2 * e
    return g11, g12, g22, g11 * g22 - g12**2


def gaussian_curvature(
    U: np.ndarray, g22: np.ndarray, det: np.ndarray, h: float
) -> np.ndarray:
    """K = -(1/(2 sqrt(det))) d_x(d_x g22 / sqrt(det)) on the grid of step h.

    Central differences in x (fourth order in the interior: the value
    K(0) = 0 is a structural cancellation between the two halves of g22
    and benefits from the extra order).  Raises when the accumulated
    exponent is too rough for the grid (successive second differences of
    U must stay bounded relative to its scale) or the determinant is not
    finite and positive.
    """
    d2U = np.abs(np.diff(U, 2)) / h**2
    scale = 1.0 + np.max(np.abs(U))
    if not np.all(np.isfinite(U)) or np.max(d2U) * h > 50.0 * scale:
        raise ValidationError("metric exponent is not smooth on this grid")
    if not np.all(np.isfinite(det) & (det > 0.0)):
        raise ValidationError("metric determinant is not finite and positive on this grid")
    sqrt_det = np.sqrt(det)
    inner = _d_x4(g22, h) / sqrt_det
    return -_d_x4(inner, h) / (2.0 * sqrt_det)


def expansion_slope(
    K: np.ndarray, U: np.ndarray, V: np.ndarray, geom: ReebGeometry,
    half_width: float = 0.05,
) -> tuple[float, float]:
    """Fitted near-zero slope of e^-U K against the closed-form target.

    Write a1 = alpha'(0) and V_0 = V_t(0).  Near x = 0, sin(alpha) ~ a1 x
    and U = -sin(alpha) V ~ -a1 V_0 x, so

        g22 = 1 + sin^2(alpha) (e^-U - 1) ~ 1 + a1^3 V_0 x^3,
        det = e^-U ~ 1 + a1 V_0 x,

    and K = -(1/(2 sqrt(det))) d_x(d_x g22 / sqrt(det)) ~ -3 a1^3 V_0 x.
    The factor e^-U = 1 + O(x) leaves the slope unchanged, so the
    reference value is -3 a1^3 V_t(0), which is -(3/8) pi^3 V_t(0) for
    the default alpha = pi x / 2.

    The model: the odd part (y(x) - y(-x)) / 2 of y = e^-U K is c1 x +
    c3 x^3 + c5 x^5 on 0 < x <= half_width, and c1 is the slope.  The odd
    part drops the even terms of y; the cubic and quintic terms take up the
    curvature of y across the window, which biases a fit of c1 x alone (by
    9 % at V_t(0) = 0.018 on the default window).  The fit is least squares
    over the nodes of the window, widened to the node x = h where h exceeds
    it, with no more terms than nodes.  Returns (fitted, target).
    """
    y = np.exp(-U) * K
    i0 = geom.n_nodes // 2
    # the nodes 0 < x <= half_width, at least x = h
    j = np.arange(1, max(1, int(np.count_nonzero(geom.x[i0 + 1:] <= half_width))) + 1)
    xs = 0.5 * (geom.x[i0 + j] - geom.x[i0 - j])
    odd = 0.5 * (y[i0 + j] - y[i0 - j])
    # columns (x / x_max)^p keep the least-squares system well scaled
    powers = np.array([1, 3, 5][:j.size])
    coef = np.linalg.lstsq((xs / xs[-1])[:, None] ** powers, odd, rcond=None)[0]
    v0 = float(np.interp(0.0, geom.x, V))
    a1 = float(np.interp(0.0, geom.x, geom.alpha_prime))
    return float(coef[0] / xs[-1]), -3.0 * a1**3 * v0
