"""1-D parabolic solvers and the exact quasi-linear reference family.

Spatial domains are a uniform periodic grid on a circle (nodes
x_i = i * length / N, no duplicated endpoint) or a pinned interval.
Time stepping is the theta-method: implicit Euler (theta = 1,
unconditionally stable and monotone) or Crank-Nicolson (theta = 1/2,
second order).  Each step of a quasi-linear problem solves the nonlinear
theta scheme by Newton's method, one cyclic solve per step in most steps.

The closed-form reference is the exact quasi-linear family
u = sin x / sqrt(cos^2 x + e^(2t)) for k(u) = 1/(1+u^2).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.fft  # noqa: F401  (the propagator's, loaded here rather than inside a run)

from .errors import (
    ConductivityRangeError,
    EllipticityLossError,
    NonConvergenceError,
    SolverError,
    UnstableConfigurationError,
    ValidationError,
)

__all__ = [
    "CircleField",
    "SolverConfig",
    "CircleTrajectory",
    "solve_heat_circle",
    "solve_quasilinear_divergence",
    "solve_linear_interval",
    "fit_exponential_decay",
    "exact_quasilinear_solution",
    "exact_quasilinear_conductivity",
]

_SCHEMES = {"implicit-euler": 1.0, "crank-nicolson": 0.5}

# Newton's method on a quasi-linear step: at most _NEWTON_SOLVES solves, to a
# residual of at most _NEWTON_TOLERANCE (1 + sup |u0|)
_NEWTON_SOLVES = 25
_NEWTON_TOLERANCE = 1e-12


def _flapack():
    """scipy's compiled LAPACK module ``scipy.linalg._flapack``, loaded under
    that name without running ``scipy/linalg/__init__.py`` (whose imports,
    numpy.f2py and numpy.testing among them, serve no solver here and cost
    about 0.4 s and 18 MiB on a 2-core x86-64 host).  It is the module that
    ``scipy.linalg.lapack`` takes its routines from, so either import order
    gives the same function objects."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")  # finds the package, does not import it
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("egf needs scipy, for LAPACK", name="scipy")
    base = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    path = next((base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(base + suffix)), None)
    if path is None:
        raise ImportError(f"scipy has no compiled LAPACK module {base}.*", name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


_LAPACK = _flapack()
# a tridiagonal solve, and the factor-then-solve pair for a matrix that serves every step
dgtsv, dgttrf, dgttrs = _LAPACK.dgtsv, _LAPACK.dgttrf, _LAPACK.dgttrs


def __getattr__(name: str):
    # perfbench's tracer binds parabolic.solve_banded, which no solver calls:
    # scipy.linalg is imported only when something asks for it
    if name == "solve_banded":
        from scipy.linalg import solve_banded

        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class CircleField:
    """Samples of a real field at uniform nodes of a circle.

    Nodes are x_i = i * length / N for i = 0..N-1; the point x = length
    is identified with x = 0 and not duplicated.
    """

    length: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.length <= 0.0:
            raise ValidationError("circle length must be positive")
        if self.samples.ndim != 1 or self.samples.size < 8:
            raise ValidationError("need a 1-D field with at least 8 samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("field samples must be finite")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def h(self) -> float:
        return self.length / self.n

    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def mean(self) -> float:
        return float(self.samples.mean())


@dataclass
class SolverConfig:
    """Time-stepping controls shared by all solvers."""

    dt: float
    scheme: str = "implicit-euler"
    # 0: every ceil(nsteps / 200)-th step (see _snapshot_steps): at most 201
    # snapshots, every step of a run of at most 200 steps
    save_every: int = 0

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")
        if self.scheme not in _SCHEMES:
            raise ValidationError(
                f"scheme must be one of {sorted(_SCHEMES)}, got {self.scheme!r}"
            )

    @property
    def theta(self) -> float:
        return _SCHEMES[self.scheme]


@dataclass
class CircleTrajectory:
    """One run of a circle solver: its snapshots at the steps of
    :func:`_snapshot_steps`, and the time of every step it took."""

    times: np.ndarray       # snapshot times, shape (S,)
    states: np.ndarray      # snapshot fields, shape (S, N)
    step_times: np.ndarray  # k dt for every step k = 0..K, shape (K+1,)


# ---------------------------------------------------------------------------
# linear algebra cores


def solve_cyclic_tridiag(sub, diag, sup, corner_tr, corner_bl, rhs):
    """Solve M x = rhs where M is tridiagonal plus periodic corners.

    ``sub``/``sup`` have length n-1; ``corner_tr`` = M[0, n-1],
    ``corner_bl`` = M[n-1, 0].  ``rhs`` may be (n,) or (n, m) for m
    simultaneous right-hand sides.  The Sherman-Morrison reduction leaves
    one tridiagonal system, solved by LAPACK dgtsv (the routine that
    ``solve_banded((1, 1), ...)`` calls) for the m right-hand sides and the
    correction column at once, in one (n, m+1) array.  A singular system
    raises ``LinAlgError``; non-finite input gives a non-finite solution
    (no finiteness check), which the stepping core reports with its step
    and time.
    """
    n = diag.size
    rhs_arr = np.asarray(rhs, dtype=float)
    single = rhs_arr.ndim == 1
    m = 1 if single else rhs_arr.shape[1]
    alpha = -diag[0]
    d = diag.copy()
    d[0] -= alpha
    d[-1] -= corner_bl * corner_tr / alpha
    cols = np.zeros((n, m + 1), order="F")
    cols[:, :m] = rhs_arr.reshape(n, m)
    cols[0, m] = alpha
    cols[-1, m] = corner_bl
    sol, info = dgtsv(sub, d, sup, cols, overwrite_d=1, overwrite_b=1)[3:]
    if info:
        raise np.linalg.LinAlgError(f"singular cyclic system (dgtsv info {info})")
    y, z = sol[:, :m], sol[:, m]
    vy = y[0, :] + (corner_tr / alpha) * y[-1, :]
    vz = z[0] + (corner_tr / alpha) * z[-1]
    x = y - z[:, None] * (vy / (1.0 + vz))[None, :]
    return x[:, 0] if single else x


def _wrap(u: np.ndarray) -> np.ndarray:
    """u with one periodic ghost node at each end of the last axis: the
    neighbours u_{i-1} and u_{i+1} are ``_wrap(u)[..., :-2]`` and ``[..., 2:]``."""
    return np.concatenate((u[..., -1:], u, u[..., :1]), axis=-1)


def _face_mean(v: np.ndarray) -> np.ndarray:
    """The interface-average state (v_i + v_{i+1}) / 2 of a periodic grid."""
    w = np.empty_like(v)
    np.add(v[:-1], v[1:], out=w[:-1])
    w[-1] = v[-1] + v[0]
    return np.multiply(w, 0.5, out=w)


def _forward_difference(v: np.ndarray) -> np.ndarray:
    """v_{i+1} - v_i of a periodic grid."""
    d = np.empty_like(v)
    np.subtract(v[1:], v[:-1], out=d[:-1])
    d[-1] = v[0] - v[-1]
    return d


def _second_difference(u: np.ndarray, h: float) -> np.ndarray:
    """(u_{i+1} - 2 u_i + u_{i-1}) / h^2 along the last axis, periodic."""
    w = _wrap(u)
    return (w[..., 2:] - 2.0 * u + w[..., :-2]) / h**2


def _d_x(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order d/dx along axis 0 of a uniform grid: central inside,
    one-sided at both ends."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# the stepping core


def _nsteps(T: float, dt: float) -> int:
    if T < 0.0:
        raise ValidationError("time horizon must be nonnegative")
    return int(round(T / dt))


def _snapshot_steps(nsteps: int, save_every: int) -> np.ndarray:
    """The snapshot policy: step 0, every ``every``-th step and the last step,
    with ``every = save_every``, or ``max(1, ceil(nsteps / 200))`` when it is
    0 (at most 201 snapshots)."""
    every = save_every if save_every > 0 else max(1, -(-nsteps // 200))
    steps = np.arange(0, nsteps + 1, every)
    return steps if steps[-1] == nsteps else np.append(steps, nsteps)


# Values per block (128 KiB of doubles): the march produces, and a run's
# post-processing forms, this many values at a time in whole states or rows
# (at least one), so no temporary outgrows one block whatever the grid.
_BLOCK_VALUES = 2**14


def _row_blocks(rows: int, size: int) -> list[slice]:
    """Slices that cut ``rows`` rows of ``size`` values each into blocks of
    ``max(1, _BLOCK_VALUES // size)`` consecutive rows."""
    every = max(1, _BLOCK_VALUES // size)
    return [slice(start, start + every) for start in range(0, rows, every)]


def _sup_distance(x: np.ndarray, centre=0.0) -> np.ndarray:
    """sup |x - centre| along the last axis, ``centre`` broadcast to
    x.shape[:-1], with no temporary the size of x.  Rounding is monotone, so
    the largest x - centre and centre - x are those of the largest and the
    least x: the bytes are those of ``np.abs(x - centre).max(axis=-1)``, once
    adding +0.0 turns a zero difference of sign minus (which abs makes +0.0)
    into +0.0."""
    return np.maximum(x.max(axis=-1) - centre, centre - x.min(axis=-1)) + 0.0


def _stepper(advance: Callable) -> Callable:
    """The producer of a one-step map: the states u_k = advance(u_{k-1}, k) of
    the given steps, cut short after the first non-finite one.  A solver error
    of a step (the Newton step's range rule or its iteration) or a
    floating-point error (under the CLI's ``np.errstate``) leaves with that
    step."""

    def produce(u: np.ndarray, steps: np.ndarray) -> np.ndarray:
        block = np.empty((steps.size, *u.shape))
        for row, step in enumerate(steps.tolist()):
            try:
                u = block[row] = advance(u, step)
            except (SolverError, FloatingPointError) as exc:
                exc.step = step
                raise
            if not np.all(np.isfinite(u)):
                return block[:row + 1]
        return block

    produce.closed_form = False
    return produce


def _step_error(kind: type, message: str, context: str, step: int, dt: float) -> Exception:
    """``kind`` naming the solver ``context``, the step and t; its ``step``
    attribute tells a caller that a time step raised it."""
    exc = kind(f"{message} during {context} at step {step} (t = {step * dt:.6g})")
    exc.step = step
    return exc


def _march(u0: np.ndarray, T: float, cfg: SolverConfig, produce: Callable,
           context: str, integrand: Callable | None = None,
           states: np.ndarray | None = None):
    """The time loop of every stepping solver: a fold over blocks of states
    into the snapshot rows of :func:`_snapshot_steps`.

    ``produce(u, steps)`` gives the states of ``steps`` (consecutive steps
    to do among 1..round(T/dt), in order) from u, the state before them, a
    block of ``max(1, _BLOCK_VALUES // u0.size)`` states at most (see
    :func:`_row_blocks`).  The block size changes no bits: a closed-form
    state comes from its own step number, and the running sums of a
    one-step producer are carried across block edges.  A
    producer declares ``closed_form`` when each state it gives depends on its
    own step number alone, and then also gives ``produce.sums(steps)``, the
    running sums S_k = u_0 + ... + u_k; it is asked for the snapshot steps
    only, a one-step producer for every step.  Each block is checked finite
    (else :class:`UnstableConfigurationError` names ``context``, the step and
    t; a solver or floating-point error of a :func:`_stepper` step is
    re-raised naming them too).
    With an ``integrand`` p, a map of a block of states taken row by row,
    the march also keeps the trapezoid pair sums P_k = p_0 + 2 (p_1 + ... +
    p_{k-1}) + p_k at the snapshot steps (P_0 = 0): the integral of p up to
    t_k is (dt / 2) P_k.  Under a closed-form producer p must be linear, and
    P_k = p(2 S_k - u_0 - u_k); under a one-step producer P_k = 2 D_k - (p_k -
    p_0) + 2k p_0 with D_k = (p_1 - p_0) + ... + (p_k - p_0) added up one step
    at a time, so P's bits do not depend on the snapshot steps (a sum of p
    itself would lose digits where p is large and slow, as at Reeb's centre).
    Returns (times, states, P or None), one row per snapshot; ``states`` is
    the array given, when a caller keeps the snapshots inside a larger one.
    Its memory is those arrays and one block.
    """
    nsteps = _nsteps(T, cfg.dt)
    keep = _snapshot_steps(nsteps, cfg.save_every)
    if states is None:
        states = np.empty((keep.size, *u0.shape))
    states[0] = u0
    closed = produce.closed_form
    pairs = None if integrand is None else np.zeros_like(states)
    if integrand is not None and not closed:
        p0, total = integrand(u0[None])[0], 0.0  # total: D_k of the steps so far
    todo = keep if closed else np.arange(nsteps + 1)
    u, slot = u0, 1
    for rows in _row_blocks(todo.size - 1, u0.size):
        # the block leads with the last state before it
        steps = todo[rows.start:rows.stop + 1]
        try:
            block = np.concatenate((u[None], produce(u, steps[1:])))
        except (SolverError, FloatingPointError) as exc:
            if not hasattr(exc, "step"):  # not from a step of a _stepper
                raise
            raise _step_error(type(exc), str(exc), context, exc.step, cfg.dt) from None
        finite = np.isfinite(block.reshape(block.shape[0], -1)).all(axis=1)
        if not finite.all():
            step = int(steps[np.argmin(finite)])
            raise _step_error(UnstableConfigurationError, "non-finite iterate", context, step,
                              cfg.dt)
        end = int(np.searchsorted(keep, steps[-1], side="right"))
        rows = np.searchsorted(steps, keep[slot:end])
        states[slot:end] = block[rows]
        if integrand is not None and closed:
            pairs[slot:end] = integrand(2.0 * produce.sums(keep[slot:end]) - u0 - states[slot:end])
        elif integrand is not None:
            deviations = integrand(block) - p0
            kept_at = dict(zip(rows.tolist(), range(slot, end)))
            for row in range(1, steps.size):
                total += deviations[row]
                if row in kept_at:
                    pairs[kept_at[row]] = 2.0 * total - deviations[row] + (2 * steps[row]) * p0
        slot, u = end, block[-1]
    return keep * cfg.dt, states, pairs


def _newton_stepper(u0: CircleField, k: Callable, dk: Callable, cfg: SolverConfig) -> Callable:
    """The producer of du/dt = D_{k(u)} u on the circle, (D_k v)_i =
    [k_{i+1/2}(v_{i+1} - v_i) - k_{i-1/2}(v_i - v_{i-1})] / h^2, each step
    solving the theta scheme G(v) = v - theta dt D_{k(v)} v - rhs = 0 by
    Newton's method.

    The face coefficients are k(w) at the face states w_i = (v_i + v_{i+1})/2,
    and ``dk(w)`` = k'(w) enters the Jacobian; it is called only when a solve
    follows.  Every evaluation holds the problem to its one admissible range:
    a state outside the range of u0 widened by 5% on each side raises
    :class:`ConductivityRangeError`, and a least face coefficient at or below
    zero, NaN included, raises :class:`EllipticityLossError` (the march names
    the step and t of either).  ``produce.least`` is the least face
    coefficient of the evaluations that passed (inf before any).  The Jacobian of G is cyclic
    tridiagonal, not symmetric, and its columns sum to 1, so each update keeps
    the discrete mean.  Each step starts from the linear predictor 2 u_n -
    u_{n-1} (step 1 from u_n); a predictor outside the admissible range (an
    overshoot at a steep front) is dropped for u_n.  The iteration stops at
    sup |G| <= _NEWTON_TOLERANCE (1 + sup |u0|), a test that needs no further
    solve (Kelley, *Iterative Methods for Linear and Nonlinear Equations*,
    SIAM 1995, ch. 5), or raises :class:`NonConvergenceError` once it would
    need more than _NEWTON_SOLVES solves.  The accepted iterate's faces and
    flux differences give the next step's explicit Crank-Nicolson half, so a
    step that takes one solve evaluates the faces twice.  The producer serves
    one march: it keeps the last state and its faces between calls, and starts
    afresh at step 1.
    """
    implicit = cfg.theta * cfg.dt / u0.h**2
    explicit = (1.0 - cfg.theta) * cfg.dt / u0.h**2
    stop = _NEWTON_TOLERANCE * (float(np.max(np.abs(u0.samples))) + 1.0)
    low, high = _widened_range(u0)
    previous = accepted = None

    def evaluate(v: np.ndarray) -> tuple:
        """(v, face states w, k(w), forward differences d, flux differences
        q_i - q_{i-1} with q = k(w) d): D_{k(v)} v is the last over h^2."""
        if v.min() < low or v.max() > high:
            raise ConductivityRangeError("state left the widened initial range")
        w = _face_mean(v)
        kface = np.asarray(k(w), dtype=float)
        least = float(kface.min())
        if not least > 0.0:  # NaN included
            raise EllipticityLossError(f"parabolicity coefficient reached min a = {least:.6g}")
        produce.least = min(produce.least, least)
        d = _forward_difference(v)
        q = kface * d
        dq = np.empty_like(q)
        np.subtract(q[1:], q[:-1], out=dq[1:])
        dq[0] = q[0] - q[-1]
        return v, w, kface, d, dq

    def advance(u: np.ndarray, step: int) -> np.ndarray:
        nonlocal previous, accepted
        if step == 1:
            previous, accepted = None, evaluate(u)
        # the explicit half: the flux differences of u's own evaluation
        rhs = u + explicit * accepted[4] if explicit else u
        current = accepted
        if previous is not None:
            try:
                current = evaluate(2.0 * u - previous)
            except SolverError:
                pass  # the predictor, not a state, left the range: start from u_n
        previous = u
        for solves in range(_NEWTON_SOLVES + 1):
            v, w, kface, d, dq = current
            g = v - rhs
            g -= implicit * dq
            residual = np.abs(g).max()
            if residual <= stop:
                accepted = current
                return v
            if solves == _NEWTON_SOLVES:
                break
            # dG/dv: row i holds lower_{i-1}, 1 - lower_i - upper_{i-1}, upper_i
            half = (0.5 * implicit) * dk(w) * d
            ck = implicit * kface
            lower, upper = half - ck, -ck - half
            diag = 1.0 - lower
            diag[1:] -= upper[:-1]
            diag[0] -= upper[-1]
            correction = solve_cyclic_tridiag(lower[:-1], diag, upper[:-1], lower[-1], upper[-1], g)
            current = evaluate(v - correction)
        raise NonConvergenceError(f"Newton iteration stalled (last residual {residual:.3e})")

    produce = _stepper(advance)
    produce.least = math.inf
    return produce


# ---------------------------------------------------------------------------
# circle solvers


def solve_heat_circle(u0: CircleField, T: float, cfg: SolverConfig) -> CircleTrajectory:
    """du/dt = d_xx u on the circle.

    The divergence-form stencil conserves the discrete mean exactly (to
    round-off); deviations from the mean decay at the first discrete
    eigenvalue rate.
    """
    produce = _propagator(u0.samples, 1.0, u0.h, cfg)
    times, states, _ = _march(u0.samples, T, cfg, produce, "solve_heat_circle")
    return CircleTrajectory(times, states, np.arange(_nsteps(T, cfg.dt) + 1) * cfg.dt)


def _propagator(u0: np.ndarray, c: float, h: float, cfg: SolverConfig) -> Callable:
    """The producer of du/dt = c d_xx u along the last axis of a periodic grid,
    in closed form: the theta-method matrix is circulant, so the FFT
    diagonalizes it (Davis, *Circulant Matrices*, 1979).  State k is
    irfft(u0_hat g^k), g_j = (1 - (1-theta) dt l_j) / (1 + theta dt l_j),
    l_j = (4 c / h^2) sin^2(pi j / N), from its own step number alone.  So
    is the running sum S_k = u_0 + ... + u_k = irfft(u0_hat (1 - g^(k+1)) /
    (1 - g)), (k + 1) u0_hat in a mode with g = 1, which
    ``produce.sums(steps)`` gives for each k of ``steps``.
    """
    n = u0.shape[-1]
    lam = (4.0 * c / h**2) * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    g = (1.0 - (1.0 - cfg.theta) * cfg.dt * lam) / (1.0 + cfg.theta * cfg.dt * lam)
    # 1 - g, formed exactly: the sums divide by it, and near g = 1 the
    # difference 1 - g would keep few digits
    gap = cfg.dt * lam / (1.0 + cfg.theta * cfg.dt * lam)
    u_hat = np.fft.rfft(u0, axis=-1)
    # 1 - g^m is -expm1(m log g) where g > 0, which keeps its digits near
    # g = 1; Crank-Nicolson's high modes (dt l > 2) have g <= 0, where log g
    # does not exist and the power is taken as it is
    positive, decaying = gap < 1.0, gap > 0.0
    log_g = np.log1p(-gap[positive])

    def produce(u: np.ndarray, steps: np.ndarray) -> np.ndarray:
        powers = g ** steps.reshape(-1, *[1] * u0.ndim)
        return np.fft.irfft(u_hat * powers, n=n, axis=-1)

    def sums(steps: np.ndarray) -> np.ndarray:
        m = steps[:, None] + 1.0
        geometric = np.empty((steps.size, g.size))
        geometric[:, positive] = -np.expm1(m * log_g)
        geometric[:, ~positive] = 1.0 - g[~positive] ** m
        geometric[:, decaying] /= gap[decaying]
        geometric[:, ~decaying] = m
        geometric = geometric.reshape(steps.size, *[1] * (u0.ndim - 1), g.size)
        return np.fft.irfft(u_hat * geometric, n=n, axis=-1)

    produce.closed_form = True
    produce.sums = sums
    return produce


def solve_quasilinear_divergence(
    u0: CircleField, k: Callable, dk: Callable, T: float, cfg: SolverConfig
) -> CircleTrajectory:
    """du/dt = d_x(k(u) d_x u) on the circle, conservative stencil.

    Face conductivities are evaluated at the interface-average state,
    k((u_i + u_{i+1})/2); each step is solved by Newton's method with
    Jacobian from ``dk`` = k' (at most _NEWTON_SOLVES solves, to a residual
    below _NEWTON_TOLERANCE (1 + sup |u0|)).  The discrete mean is conserved
    exactly by the flux form, and under implicit Euler the sup-norm is
    non-increasing.

    The rule of :func:`_newton_stepper` holds the run: a state outside the
    range of u0 widened by 5% on each side raises
    :class:`ConductivityRangeError`, and a face conductivity at or below
    zero, or NaN, raises :class:`EllipticityLossError`, each naming the step
    and t.
    """
    produce = _newton_stepper(u0, k, dk, cfg)
    times, states, _ = _march(u0.samples, T, cfg, produce, "solve_quasilinear_divergence")
    return CircleTrajectory(times, states, np.arange(_nsteps(T, cfg.dt) + 1) * cfg.dt)


def _widened_range(u0: CircleField) -> tuple[float, float]:
    """u0's range, widened on each side by 5% of its width plus 1e-9 (1 + sup |u0|)."""
    lo, hi = float(u0.samples.min()), float(u0.samples.max())
    pad = 0.05 * (hi - lo) + 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    return lo - pad, hi + pad


def solve_linear_interval(
    u0: np.ndarray,
    h: float,
    diffusion: np.ndarray,
    drift: np.ndarray | None,
    T: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """du/dt = a(x) d_xx u + b(x) d_x u on an interval, both ends held at 0
    exactly at every step.  a(x) >= 0 may vanish at interior points
    (degenerate problems are the point of this entry); the implicit
    theta-method tolerates that.  Returns (times, states) at the steps of
    :func:`_snapshot_steps`.
    """
    start, produce = _interval_stepper(u0, h, diffusion, drift, cfg)
    times, states, _ = _march(start, T, cfg, produce, "solve_linear_interval")
    return times, states


def _interval_stepper(u0, h, diffusion, drift, cfg: SolverConfig) -> tuple:
    """(pinned start state, producer) of :func:`solve_linear_interval`."""
    start = np.asarray(u0, dtype=float).copy()
    n = start.size
    a = np.asarray(diffusion, dtype=float)
    b = np.zeros(n) if drift is None else np.asarray(drift, dtype=float)
    if a.size != n or b.size != n:
        raise ValidationError("coefficient arrays must match the grid")
    if np.min(a) < 0.0:
        raise ValidationError("diffusion coefficient must be nonnegative")
    theta = cfg.theta
    start[0] = start[-1] = 0.0

    ca = cfg.dt * a / h**2
    cb = cfg.dt * b / (2.0 * h)
    # interior operator rows; boundary rows pin the value
    lower = -theta * (ca - cb)[1:]
    upper = -theta * (ca + cb)[:-1]
    diag = 1.0 + 2.0 * theta * ca
    diag[0] = diag[-1] = 1.0
    upper[0] = lower[-1] = 0.0
    # the matrix serves every step: LU-factored once (LAPACK dgttrf, the
    # elimination with partial pivoting that dgtsv runs), solved each step (dgttrs)
    *factors, info = dgttrf(lower, diag, upper)
    if info:
        raise np.linalg.LinAlgError(f"singular interval system (dgttrf info {info})")

    def advance(u: np.ndarray, step: int) -> np.ndarray:
        rhs = u.copy()
        if theta != 1.0:
            # the explicit half of the interior rows: the ends are pinned
            second = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
            first = (u[2:] - u[:-2]) / (2.0 * h)
            rhs[1:-1] += (1.0 - theta) * cfg.dt * (a[1:-1] * second + b[1:-1] * first)
        rhs[0] = rhs[-1] = 0.0
        u = dgttrs(*factors, rhs, overwrite_b=1)[0]
        u[0] = u[-1] = 0.0  # exact pinning (solve leaves round-off residue)
        return u

    return start, _stepper(advance)


# ---------------------------------------------------------------------------
# decay fit and the exact quasi-linear family


def fit_exponential_decay(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Fit norm(t) ~ K exp(-alpha t) on the tail half of the samples
    ``values`` at ``times``.

    Least squares on log(norm) vs t over the later half of the samples.
    Returns (K, alpha).  A series that is identically zero on the tail
    reports alpha = +inf (already fully decayed); a constant positive
    tail fits alpha = 0.
    """
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)
    if vs.size < 5:
        raise ValidationError("need at least 5 (t, norm) samples")
    if np.any(vs < 0.0):
        raise ValidationError("norms must be nonnegative")
    ts, vs = ts[vs.size // 2 :], vs[vs.size // 2 :]
    positive = vs > 0.0
    if np.count_nonzero(positive) < 2:
        return 0.0, math.inf
    slope, intercept = np.polyfit(ts[positive], np.log(vs[positive]), 1)
    return float(np.exp(intercept)), float(-slope)


def exact_quasilinear_solution(t, x):
    """u(t, x) = sin x / sqrt(cos^2 x + e^(2t)).

    Exact solution of du/dt = d_x(k(u) d_x u) with k(u) = 1/(1+u^2) on
    the 2-pi circle; sup |u(t)| = e^(-t).  Evaluated as
    e^(-t) sin x / sqrt(1 + cos^2 x e^(-2t)), which no t >= 0 overflows.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(-t) * np.sin(x) / np.sqrt(1.0 + np.cos(x) ** 2 * np.exp(-2.0 * t))


def exact_quasilinear_conductivity() -> tuple[Callable, Callable]:
    """(k, k') of the exact family: k(u) = 1/(1+u^2), k'(u) = -2u/(1+u^2)^2.

    On the solution range |u| <= 1, 1/2 <= k <= 1.
    """
    return (lambda u: 1.0 / (1.0 + u * u)), (lambda u: -2.0 * u / (1.0 + u * u) ** 2)
