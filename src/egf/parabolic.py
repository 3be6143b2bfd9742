"""1-D parabolic solvers and closed-form reference solutions.

Spatial domains are a uniform periodic grid on a circle (nodes
x_i = i * length / N, no duplicated endpoint) or a pinned interval.
Time stepping is the theta-method: implicit Euler (theta = 1,
unconditionally stable and monotone) or Crank-Nicolson (theta = 1/2,
second order).  Quasi-linear problems are handled by lagged-coefficient
Picard iteration per step.

Closed-form references: the line heat kernel G(t,x,y) =
(4 pi t)^(-1/2) exp(-(x-y)^2 / (4t)), the periodized kernel written as
the theta series 1 + 2 sum_n exp(-4 pi^2 n^2 t) cos(2 pi n x), and the
exact quasi-linear family u = sin x / sqrt(cos^2 x + e^(2t)) for
k(u) = 1/(1+u^2).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.fft  # noqa: F401  (the propagator's, loaded here rather than inside a run)

from .errors import (
    ConductivityRangeError,
    NonConvergenceError,
    SolverError,
    UnstableConfigurationError,
    ValidationError,
)

__all__ = [
    "CircleField",
    "Conductivity",
    "SolverConfig",
    "CircleTrajectory",
    "solve_heat_circle",
    "solve_variable_heat_circle",
    "solve_quasilinear_divergence",
    "solve_linear_interval",
    "heat_kernel",
    "convolve_line",
    "theta_solution",
    "fit_exponential_decay",
    "parabolicity_check",
    "exact_quasilinear_solution",
    "exact_quasilinear_conductivity",
]

_SCHEMES = {"implicit-euler": 1.0, "crank-nicolson": 0.5}


def _lapack_dgtsv() -> Callable:
    """LAPACK dgtsv from scipy's compiled module ``scipy.linalg._flapack``,
    loaded under that name without running ``scipy/linalg/__init__.py``
    (whose imports, numpy.f2py and numpy.testing among them, serve no solver
    here and cost about 0.4 s and 18 MiB on a 2-core x86-64 host).  It is
    the module that
    ``scipy.linalg.lapack`` takes dgtsv from, so either import order gives
    the same function object."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name].dgtsv
    spec = importlib.util.find_spec("scipy")  # finds the package, does not import it
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("egf needs scipy, for LAPACK dgtsv", name="scipy")
    base = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    path = next((base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(base + suffix)), None)
    if path is None:
        raise ImportError(f"scipy has no compiled LAPACK module {base}.*", name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module.dgtsv


dgtsv = _lapack_dgtsv()


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

    def copy(self) -> "CircleField":
        return CircleField(self.length, self.samples.copy())


@dataclass
class Conductivity:
    """Thermal diffusivity with declared bounds c1 <= k <= c2.

    ``kind`` is one of ``constant``, ``tabulated-in-x``,
    ``function-of-u``, ``function-of-t-and-x``.  Evaluations during a
    run are monitored against [c1, c2]; leaving the band raises
    :class:`ConductivityRangeError`.  c1 = 0 is accepted (degenerate
    problems are run, not rejected) and flags the run as degenerate.
    """

    kind: str
    c1: float
    c2: float
    value: float | None = None
    table: np.ndarray | None = None
    func: Callable | None = None

    def __post_init__(self) -> None:
        if self.kind not in (
            "constant",
            "tabulated-in-x",
            "function-of-u",
            "function-of-t-and-x",
        ):
            raise ValidationError(f"unknown conductivity kind {self.kind!r}")
        if not (0.0 <= self.c1 <= self.c2) or not np.isfinite(self.c2):
            raise ValidationError("need 0 <= c1 <= c2 < inf")

    @classmethod
    def constant(cls, c: float) -> "Conductivity":
        return cls("constant", c1=c, c2=c, value=float(c))

    @classmethod
    def from_table(cls, values, c1: float | None = None, c2: float | None = None):
        vals = np.asarray(values, dtype=float)
        lo = float(vals.min()) if c1 is None else c1
        hi = float(vals.max()) if c2 is None else c2
        return cls("tabulated-in-x", c1=lo, c2=hi, table=vals)

    @classmethod
    def of_u(cls, func: Callable, c1: float, c2: float) -> "Conductivity":
        return cls("function-of-u", c1=c1, c2=c2, func=func)

    @classmethod
    def of_tx(cls, func: Callable, c1: float, c2: float) -> "Conductivity":
        return cls("function-of-t-and-x", c1=c1, c2=c2, func=func)

    @property
    def degenerate(self) -> bool:
        return self.c1 == 0.0

    def check_range(self, values: np.ndarray) -> None:
        vals = np.asarray(values)
        slack = 1e-12 * (1.0 + self.c2)
        # written so that NaN, for which every comparison is false, fails too
        low, high = vals.min(), vals.max()
        if not (low >= self.c1 - slack and high <= self.c2 + slack):
            raise ConductivityRangeError(
                f"conductivity left [{self.c1}, {self.c2}]: observed [{low:.6g}, {high:.6g}]"
            )


@dataclass
class SolverConfig:
    """Time-stepping controls shared by all solvers."""

    dt: float
    scheme: str = "implicit-euler"
    nonlinear_iterations: int = 25
    tolerance: float = 1e-12
    # 0: every max(1, nsteps // 200)-th step (see _snapshot_steps): every step
    # of a run under 400 steps (up to 400 snapshots), then 201 to 301 snapshots
    save_every: int = 0

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")
        if self.tolerance <= 0.0:
            raise ValidationError("tolerance must be positive")
        if self.scheme not in _SCHEMES:
            raise ValidationError(
                f"scheme must be one of {sorted(_SCHEMES)}, got {self.scheme!r}"
            )

    @property
    def theta(self) -> float:
        return _SCHEMES[self.scheme]


@dataclass
class CircleTrajectory:
    """Snapshots plus per-step scalar diagnostics of one run."""

    length: float
    times: np.ndarray       # snapshot times, shape (S,)
    states: np.ndarray      # snapshot fields, shape (S, N)
    step_times: np.ndarray  # every accepted step, shape (K+1,)
    means: np.ndarray       # discrete mean per step
    sup_deviation: np.ndarray  # sup |u - mean(u0)| per step
    flags: dict = field(default_factory=dict)

    @property
    def final(self) -> CircleField:
        return CircleField(self.length, self.states[-1].copy())


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
    return 0.5 * (v + _wrap(v)[..., 2:])


def _apply_divergence(kface: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    """(D u)_i = [k_{i+1/2}(u_{i+1}-u_i) - k_{i-1/2}(u_i-u_{i-1})] / h^2, periodic."""
    w = _wrap(u)
    return (kface * (w[2:] - u) - _wrap(kface)[:-2] * (u - w[:-2])) / h**2


def _divergence_theta_solve(kface, rhs, dt_theta, h):
    """Solve (I - dt_theta * D_kface) u = rhs on the circle (a symmetric system)."""
    c = dt_theta / h**2
    diag = 1.0 + c * (kface + _wrap(kface)[:-2])
    off = -c * kface
    return solve_cyclic_tridiag(off[:-1], diag, off[:-1], off[-1], off[-1], rhs)


def _nondivergence_theta_solve(a, rhs, dt_theta, h):
    """Solve (I - dt_theta * a d_xx) u = rhs on the circle."""
    ca = dt_theta * a / h**2
    return solve_cyclic_tridiag(-ca[1:], 1.0 + 2.0 * ca, -ca[:-1], -ca[-1], -ca[0], rhs)


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


def _trapezoid_accumulate(start: np.ndarray, coef: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Rows c_0 = start, c_i = c_{i-1} - coef_i (rate_{i-1} + rate_i) for i = 1..len(coef),
    taken in step order: bit-identical to the sequential loop, signed zeros included."""
    out = np.empty_like(rate)
    out[0] = start
    np.multiply(coef[:, None], rate[:-1] + rate[1:], out=out[1:])
    return np.subtract.accumulate(out, axis=0, out=out)


# ---------------------------------------------------------------------------
# the stepping core


def _nsteps(T: float, dt: float) -> int:
    if T < 0.0:
        raise ValidationError("time horizon must be nonnegative")
    return int(round(T / dt))


def _snapshot_steps(nsteps: int, save_every: int) -> np.ndarray:
    """The snapshot policy: step 0, every ``every``-th step and the last step,
    with ``every = save_every``, or ``max(1, nsteps // 200)`` when it is 0."""
    every = save_every if save_every > 0 else max(1, nsteps // 200)
    steps = np.arange(0, nsteps + 1, every)
    return steps if steps[-1] == nsteps else np.append(steps, nsteps)


# Consecutive states per block of the march: bounds the memory of one block.
_BLOCK_STEPS = 64


def _stepper(advance: Callable) -> Callable:
    """The producer of a one-step map: the states u_k = advance(u_{k-1}, k) of
    the given steps, cut short after the first non-finite one.  A solver error
    of a step (a conductivity or faces hook, Picard) or a floating-point error
    (under the CLI's ``np.errstate``) leaves with that step."""

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
           context: str, track: bool = False, integrals: Sequence = ()):
    """The time loop of every stepping solver: a fold over blocks of states.

    ``produce(u, steps)`` gives the states of ``steps`` (at most _BLOCK_STEPS
    consecutive steps of 1..round(T/dt)) from u, the state before them.  A
    producer declares ``closed_form`` when each state it gives depends on its
    own step number alone; with no per-step consumer (no ``track``, no
    ``integrals``) such a producer is asked for the snapshot steps only.  Each
    block is checked finite (else :class:`UnstableConfigurationError` names
    ``context``, the step and t; a solver or floating-point error of a
    :func:`_stepper` step is re-raised naming them too), then folded into the
    snapshot rows of :func:`_snapshot_steps`, with ``track`` the per-step
    mean and sup |u - mean(u0)|, and each running trapezoid ``(start, weight,
    rate)`` of ``integrals``: c_0 = start, c_k = c_{k-1} - weight dt (r_{k-1}
    + r_k) with r = rate(block), kept at the snapshot steps.  Returns (times,
    states, (means, sup_deviation) or None, kept integrals).
    """
    nsteps = _nsteps(T, cfg.dt)
    keep = _snapshot_steps(nsteps, cfg.save_every)
    states = np.empty((keep.size, *u0.shape))
    states[0] = u0
    kept = [np.empty_like(states) for _ in integrals]
    last = [np.asarray(start, dtype=float) for start, _, _ in integrals]
    for rows_out, start in zip(kept, last):
        rows_out[0] = start
    if track:
        mean0 = float(u0.mean())
        means, sup_dev = np.empty(nsteps + 1), np.empty(nsteps + 1)
        means[0], sup_dev[0] = mean0, np.max(np.abs(u0 - mean0))
    sparse = produce.closed_form and not track and not integrals
    todo = keep if sparse else np.arange(nsteps + 1)
    u, slot = u0, 1
    for first in range(1, todo.size, _BLOCK_STEPS):
        # the block leads with the last state before it
        steps = todo[first - 1:first + _BLOCK_STEPS]
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
        if track:
            means[steps] = block.mean(axis=1)
            sup_dev[steps] = np.max(np.abs(block - mean0), axis=1)
        end = int(np.searchsorted(keep, steps[-1], side="right"))
        rows = np.searchsorted(steps, keep[slot:end])
        states[slot:end] = block[rows]
        for i, (_, weight, rate) in enumerate(integrals):
            c = _trapezoid_accumulate(last[i], weight * np.diff(steps * cfg.dt), rate(block))
            kept[i][slot:end], last[i] = c[rows], c[-1]
        slot, u = end, block[-1]
    return keep * cfg.dt, states, (means, sup_dev) if track else None, kept


def _circle_march(u0: CircleField, T: float, cfg: SolverConfig, produce: Callable,
                  context: str, flags: dict | None = None) -> CircleTrajectory:
    """:func:`_march` on a circle field, with the per-step diagnostics."""
    times, states, (means, sup_dev), _ = _march(u0.samples, T, cfg, produce, context, True)
    return CircleTrajectory(
        length=u0.length,
        times=times,
        states=states,
        step_times=np.arange(means.size) * cfg.dt,
        means=means,
        sup_deviation=sup_dev,
        flags=flags or {},
    )


def _picard_stepper(u0: CircleField, faces: Callable, cfg: SolverConfig) -> Callable:
    """The producer of du/dt = D_{faces(u)} u, one lagged-coefficient Picard
    iteration per step.

    ``faces(v)`` gives the face conductivities of a state v and is the
    monitor hook: it raises when they leave their admissible range.  Each
    step's iteration starts from the linear predictor 2 u_n - u_{n-1} (step 1
    from u_n); the explicit Crank-Nicolson half uses faces(u_n).  The
    predictor moves the start, not the fixed point: about 3 solves per step
    instead of 4 on the exact family.  The hook sees the predictor too; one
    it rejects (an overshoot at a steep front can leave the admissible range
    that every state keeps) is dropped, and the step starts from u_n.  The
    iteration stops at a sup-change of at most ``cfg.tolerance`` (1 + sup
    |u0|), or raises :class:`NonConvergenceError` after
    ``cfg.nonlinear_iterations`` solves.
    """
    h, dt_theta, explicit = u0.h, cfg.theta * cfg.dt, (1.0 - cfg.theta) * cfg.dt
    stop = cfg.tolerance * (float(np.max(np.abs(u0.samples))) + 1.0)
    previous = None

    def advance(u: np.ndarray, step: int) -> np.ndarray:
        nonlocal previous
        # kface: the faces of the start v, or None until they are evaluated
        kface = faces(u) if explicit else None
        rhs = u if kface is None else u + explicit * _apply_divergence(kface, u, h)
        v = u
        if previous is not None:
            guess = 2.0 * u - previous
            try:
                kface, v = faces(guess), guess
            except SolverError:
                pass  # the hook rejects the predictor, not a state: start from u_n
        previous = u
        delta = math.inf
        for iteration in range(cfg.nonlinear_iterations):
            if iteration or kface is None:
                kface = faces(v)
            vnext = _divergence_theta_solve(kface, rhs, dt_theta, h)
            delta = float(np.abs(vnext - v).max())
            v = vnext
            if delta <= stop:
                return v
        raise NonConvergenceError(
            f"Picard iteration stalled (last delta {delta:.3e})"
        )

    return _stepper(advance)


# ---------------------------------------------------------------------------
# circle solvers


def solve_heat_circle(u0: CircleField, T: float, cfg: SolverConfig) -> CircleTrajectory:
    """du/dt = d_xx u on the circle.

    The divergence-form stencil conserves the discrete mean exactly (to
    round-off); deviations from the mean decay at the first discrete
    eigenvalue rate.
    """
    return _circle_march(u0, T, cfg, _propagator(u0.samples, 1.0, u0.h, cfg),
                         "solve_heat_circle")


def _propagator(u0: np.ndarray, c: float, h: float, cfg: SolverConfig) -> Callable:
    """The producer of du/dt = c d_xx u along the last axis of a periodic grid,
    in closed form: the theta-method matrix is circulant, so the FFT
    diagonalizes it (Davis, *Circulant Matrices*, 1979).  State k is
    irfft(u0_hat g^k), g_j = (1 - (1-theta) dt l_j) / (1 + theta dt l_j),
    l_j = (4 c / h^2) sin^2(pi j / N), from its own step number alone.
    """
    n = u0.shape[-1]
    lam = (4.0 * c / h**2) * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    g = (1.0 - (1.0 - cfg.theta) * cfg.dt * lam) / (1.0 + cfg.theta * cfg.dt * lam)
    u_hat = np.fft.rfft(u0, axis=-1)

    def produce(u: np.ndarray, steps: np.ndarray) -> np.ndarray:
        powers = g ** steps.reshape(-1, *[1] * u0.ndim)
        return np.fft.irfft(u_hat * powers, n=n, axis=-1)

    produce.closed_form = True
    return produce


def _eval_tx_conductivity(k: Conductivity, t: float, x: np.ndarray) -> np.ndarray:
    if k.kind == "constant":
        vals = np.full_like(x, k.value)
    elif k.kind == "tabulated-in-x":
        if k.table.size != x.size:
            raise ValidationError("tabulated conductivity length mismatch")
        vals = k.table
    elif k.kind == "function-of-t-and-x":
        vals = np.asarray(k.func(t, x), dtype=float)
    else:
        raise ValidationError(f"conductivity kind {k.kind!r} is not (t,x)-evaluable")
    k.check_range(vals)
    return vals


def solve_variable_heat_circle(
    u0: CircleField, k: Conductivity, T: float, cfg: SolverConfig
) -> CircleTrajectory:
    """dv/dt = k(t,x) d_xx v on the circle (non-divergence comparison form).

    Implicit Euler is monotone here: the discrete sup-norm cannot grow.
    Accepts constant, tabulated-in-x and function-of-t-and-x kinds;
    k >= 0 with isolated zeros is run and flagged degenerate.
    """
    h, x, theta = u0.h, u0.nodes(), cfg.theta

    def advance(u: np.ndarray, step: int) -> np.ndarray:
        t_new = step * cfg.dt
        a_new = _eval_tx_conductivity(k, t_new, x)
        if theta == 1.0:
            rhs = u
        else:
            a_old = _eval_tx_conductivity(k, t_new - cfg.dt, x)
            rhs = u + (1.0 - theta) * cfg.dt * a_old * _second_difference(u, h)
        return _nondivergence_theta_solve(a_new, rhs, theta * cfg.dt, h)

    return _circle_march(
        u0, T, cfg, _stepper(advance), "solve_variable_heat_circle",
        {"degenerate": k.degenerate},
    )


def solve_quasilinear_divergence(
    u0: CircleField, k: Conductivity, T: float, cfg: SolverConfig
) -> CircleTrajectory:
    """du/dt = d_x(k(u) d_x u) on the circle, conservative stencil.

    Face conductivities are evaluated at the interface-average state,
    k((u_i + u_{i+1})/2); coefficients lag one Picard iterate per step
    (at most ``cfg.nonlinear_iterations``, to sup-change below
    ``cfg.tolerance``).  The discrete mean is conserved exactly by the
    flux form, and under implicit Euler the sup-norm is non-increasing.

    Preconditions: k is evaluable and within [c1, c2] on the range of u0
    widened by 10% (5% on each side); leaving that band raises
    :class:`ConductivityRangeError`.
    """
    produce = _picard_stepper(u0, _quasilinear_faces(u0, k), cfg)
    return _circle_march(
        u0, T, cfg, produce, "solve_quasilinear_divergence", {"degenerate": k.degenerate}
    )


def _quasilinear_faces(u0: CircleField, k: Conductivity) -> Callable:
    """The checked face conductivities of :func:`solve_quasilinear_divergence`."""
    if k.kind != "function-of-u":
        raise ValidationError("quasilinear solver needs a function-of-u conductivity")
    lo, hi = float(u0.samples.min()), float(u0.samples.max())
    pad = 0.05 * (hi - lo) + 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    low, high = lo - pad, hi + pad
    k.check_range(np.asarray(k.func(np.linspace(low, high, 257)), dtype=float))

    def faces(v: np.ndarray) -> np.ndarray:
        if v.min() < low or v.max() > high:
            raise ConductivityRangeError("state left the widened initial range")
        vals = np.asarray(k.func(_face_mean(v)), dtype=float)
        k.check_range(vals)
        return vals

    return faces


def solve_linear_interval(
    u0: np.ndarray,
    h: float,
    diffusion: np.ndarray,
    drift: np.ndarray | None,
    T: float,
    cfg: SolverConfig,
    bc: tuple[float, float] = (0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray]:
    """du/dt = a(x) d_xx u + b(x) d_x u on an interval, Dirichlet-pinned ends.

    The endpoint values are held at ``bc`` exactly at every step.
    a(x) >= 0 may vanish at interior points (degenerate problems are the
    point of this entry); the implicit theta-method tolerates that.
    Returns (times, states) at the steps of :func:`_snapshot_steps`.
    """
    start, produce = _interval_stepper(u0, h, diffusion, drift, cfg, bc)
    times, states, _, _ = _march(start, T, cfg, produce, "solve_linear_interval")
    return times, states


def _interval_stepper(u0, h, diffusion, drift, cfg: SolverConfig, bc) -> tuple:
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
    start[0], start[-1] = bc

    ca = cfg.dt * a / h**2
    cb = cfg.dt * b / (2.0 * h)
    # interior operator rows; boundary rows pin the value
    lower = -theta * (ca - cb)
    upper = -theta * (ca + cb)
    diag = 1.0 + 2.0 * theta * ca
    diag[0] = diag[-1] = 1.0
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[0, 1] = 0.0  # row 0 is the pin
    ab[1] = diag
    ab[2, :-1] = lower[1:]
    ab[2, -2] = 0.0  # row n-1 is the pin

    def advance(u: np.ndarray, step: int) -> np.ndarray:
        rhs = u.copy()
        if theta != 1.0:
            # only interior rows count: the pins below overwrite both ends
            rhs = u + (1.0 - theta) * cfg.dt * (a * _second_difference(u, h) + b * _d_x(u, h))
        rhs[0], rhs[-1] = bc
        # LAPACK dgtsv, the routine solve_banded((1, 1), ...) calls; ab is kept
        u, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, overwrite_b=1)[3:]
        if info:
            raise np.linalg.LinAlgError(f"singular interval system (dgtsv info {info})")
        u[0], u[-1] = bc  # exact pinning (solve leaves round-off residue)
        return u

    return start, _stepper(advance)


# ---------------------------------------------------------------------------
# closed-form references


def heat_kernel(t: float, x, y):
    """G(t, x, y) = (4 pi t)^(-1/2) exp(-(x-y)^2 / (4t)) for t > 0."""
    if t <= 0.0:
        raise ValidationError("heat kernel needs t > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.exp(-((x - y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return out if out.ndim else float(out)


def convolve_line(
    y_grid: np.ndarray,
    u0_samples: np.ndarray,
    t: float,
    x_eval: np.ndarray | None = None,
) -> np.ndarray:
    """u(t, x) = integral G(t, x, y) u0(y) dy by trapezoid quadrature.

    ``u0_samples`` tabulates decaying data on ``y_grid`` (assumed ~0
    outside).  The quadrature error is O(dy^2); the neglected tail is
    bounded by sup|u0| * erfc(L / sqrt(4t)) with L the distance from the
    evaluation point to the table edge.
    """
    if t <= 0.0:
        raise ValidationError("convolution needs t > 0")
    y = np.asarray(y_grid, dtype=float)
    u0 = np.asarray(u0_samples, dtype=float)
    xe = y if x_eval is None else np.asarray(x_eval, dtype=float)
    G = heat_kernel(t, xe[:, None], y[None, :])
    return np.trapezoid(G * u0[None, :], y, axis=1)


def theta_solution(x: float, t: float) -> float:
    """Periodized heat kernel on the unit circle as a theta series.

        theta(x, t) = 1 + 2 sum_{n>=1} exp(-4 pi^2 n^2 t) cos(2 pi n x)

    solves du/dt = d_xx u with period 1 in x; the series is truncated
    once a term magnitude drops below 1e-15.
    """
    if t <= 0.0:
        raise ValidationError("theta solution needs t > 0")
    acc = 1.0
    n = 1
    while True:
        amp = 2.0 * math.exp(-4.0 * math.pi**2 * n**2 * t)
        if amp < 1e-15:
            break
        acc += amp * math.cos(2.0 * math.pi * n * x)
        n += 1
        if n > 100000:  # unreachable for t > 0, guards the loop
            break
    return acc


def fit_exponential_decay(series: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Fit norm(t) ~ K exp(-alpha t) on the tail half of a series.

    Least squares on log(norm) vs t over the later half of the samples.
    Returns (K, alpha).  A series that is identically zero on the tail
    reports alpha = +inf (already fully decayed); a constant positive
    tail fits alpha = 0.
    """
    pts = [(float(t), float(v)) for t, v in series]
    if len(pts) < 5:
        raise ValidationError("need at least 5 (t, norm) samples")
    if any(v < 0.0 for _, v in pts):
        raise ValidationError("norms must be nonnegative")
    tail = pts[len(pts) // 2 :]
    positive = [(t, v) for t, v in tail if v > 0.0]
    if len(positive) < 2:
        return 0.0, math.inf
    ts = np.array([t for t, _ in positive])
    logs = np.log([v for _, v in positive])
    slope, intercept = np.polyfit(ts, logs, 1)
    return float(np.exp(intercept)), float(-slope)


def parabolicity_check(A: np.ndarray) -> tuple[bool, float]:
    """Smallest eigenvalue c of the symmetric part of A; parabolic iff c > 0.

    c is the best constant in <A v, v> >= c <v, v>.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("need a square matrix")
    c = float(np.min(np.linalg.eigvalsh(0.5 * (M + M.T))))
    return c > 0.0, c


def exact_quasilinear_solution(t, x):
    """u(t, x) = sin x / sqrt(cos^2 x + e^(2t)).

    Exact solution of du/dt = d_x(k(u) d_x u) with k(u) = 1/(1+u^2) on
    the 2-pi circle; sup |u(t)| = e^(-t).  Evaluated as
    e^(-t) sin x / sqrt(1 + cos^2 x e^(-2t)), which no t >= 0 overflows.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(-t) * np.sin(x) / np.sqrt(1.0 + np.cos(x) ** 2 * np.exp(-2.0 * t))


def exact_quasilinear_conductivity() -> Conductivity:
    """k(u) = 1/(1+u^2) for the exact family.

    On the solution range |u| <= 1 the bounds are 1/2 <= k <= 1; the
    declared band is widened (c1 = 1/2.3, covering |u| up to ~1.14) so
    the 10%-padded precondition of the quasilinear solver holds with
    margin for data that attains |u| = 1.
    """
    return Conductivity.of_u(lambda u: 1.0 / (1.0 + u * u), c1=1.0 / 2.3, c2=1.0)
