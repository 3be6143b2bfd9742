"""The lagged-coefficient Picard step, the test oracle of the Newton step.

Each step of :func:`picard_stepper` solves the same theta scheme as
``egf.parabolic._newton_stepper`` by freezing the face conductivities at the
last iterate, so its fixed point is the same discrete solution; only the
stopping slack differs (a sup-change, not a residual, below the Newton
step's tolerance ``parabolic._NEWTON_TOLERANCE`` (1 + sup |u0|)).  It takes the Newton stepper's arguments, so a test can put
it in the Newton stepper's place and run any quasi-linear route through it.
"""

import math
from typing import Callable

import numpy as np

from egf import parabolic
from egf.errors import NonConvergenceError, SolverError
from egf.parabolic import CircleField, SolverConfig, _stepper, _wrap, solve_cyclic_tridiag


def apply_divergence(kface: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    """(D u)_i = [k_{i+1/2}(u_{i+1}-u_i) - k_{i-1/2}(u_i-u_{i-1})] / h^2, periodic."""
    w = _wrap(u)
    return (kface * (w[2:] - u) - _wrap(kface)[:-2] * (u - w[:-2])) / h**2


def divergence_theta_solve(kface, rhs, dt_theta, h):
    """Solve (I - dt_theta * D_kface) u = rhs on the circle (a symmetric system)."""
    c = dt_theta / h**2
    diag = 1.0 + c * (kface + _wrap(kface)[:-2])
    off = -c * kface
    return solve_cyclic_tridiag(off[:-1], diag, off[:-1], off[-1], off[-1], rhs)


def picard_stepper(u0: CircleField, faces: Callable, slope: Callable,
                   cfg: SolverConfig) -> Callable:
    """The producer of du/dt = D_{k(u)} u by lagged-coefficient Picard
    iteration; ``slope`` is not used.

    ``faces(v)`` gives (face states, face conductivities) of a state v and is
    the monitor hook.  Each step's iteration starts from the linear predictor
    2 u_n - u_{n-1} (step 1 from u_n), dropped for u_n when the hook rejects
    it; the explicit Crank-Nicolson half uses the faces of u_n.  The
    iteration stops at a sup-change of at most ``_NEWTON_TOLERANCE`` (1 + sup
    |u0|), or raises :class:`NonConvergenceError` after ``_NEWTON_SOLVES``
    solves, the Newton step's constants in :mod:`egf.parabolic`.
    """
    h, dt_theta, explicit = u0.h, cfg.theta * cfg.dt, (1.0 - cfg.theta) * cfg.dt
    stop = parabolic._NEWTON_TOLERANCE * (float(np.max(np.abs(u0.samples))) + 1.0)
    previous = None

    def advance(u: np.ndarray, step: int) -> np.ndarray:
        nonlocal previous
        if step == 1:
            previous = None
        # kface: the faces of the start v, or None until they are evaluated
        kface = faces(u)[1] if explicit else None
        rhs = u if kface is None else u + explicit * apply_divergence(kface, u, h)
        v = u
        if previous is not None:
            guess = 2.0 * u - previous
            try:
                kface, v = faces(guess)[1], guess
            except SolverError:
                pass
        previous = u
        delta = math.inf
        for iteration in range(parabolic._NEWTON_SOLVES):
            if iteration or kface is None:
                kface = faces(v)[1]
            vnext = divergence_theta_solve(kface, rhs, dt_theta, h)
            delta = float(np.abs(vnext - v).max())
            v = vnext
            if delta <= stop:
                return v
        raise NonConvergenceError(f"Picard iteration stalled (last delta {delta:.3e})")

    return _stepper(advance)
