import importlib.machinery
import importlib.util
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from egf import parabolic
from egf.errors import ConductivityRangeError, NonConvergenceError, ValidationError
from egf.parabolic import (
    CircleField,
    Conductivity,
    SolverConfig,
    convolve_line,
    exact_quasilinear_conductivity,
    exact_quasilinear_solution,
    fit_exponential_decay,
    heat_kernel,
    parabolicity_check,
    solve_heat_circle,
    solve_linear_interval,
    solve_quasilinear_divergence,
    solve_variable_heat_circle,
    theta_solution,
)
from egf.parabolic import (
    _BLOCK_STEPS,
    _apply_divergence,
    _circle_march,
    _divergence_theta_solve,
    _face_mean,
    _nsteps,
    _picard_stepper,
    _propagator,
    _quasilinear_faces,
    _snapshot_steps,
    solve_cyclic_tridiag,
)


def circle_cos(n=128, length=2 * math.pi, amp=1.0, freq=1):
    x = np.arange(n) * length / n
    return CircleField(length, amp * np.cos(2 * math.pi * freq * x / length))


class TestHeatCircle:
    def test_constant_is_stationary(self):
        u0 = CircleField(2 * math.pi, np.full(64, 3.7))
        traj = solve_heat_circle(u0, 1.0, SolverConfig(dt=1e-2))
        assert np.allclose(traj.final.samples, 3.7, atol=1e-13)

    def test_cos_eigenfunction_decay(self):
        # oracle: cos x is an eigenfunction, u(T) = e^-T cos x up to grid error
        u0 = circle_cos(n=256)
        T = 1.0
        traj = solve_heat_circle(u0, T, SolverConfig(dt=1e-4, scheme="crank-nicolson"))
        x = u0.nodes()
        assert np.max(np.abs(traj.final.samples - math.exp(-T) * np.cos(x))) < 5e-5

    def test_square_wave_decay_bound(self):
        # every Fourier mode decays at least like e^-t, so the L2 norm of
        # the deviation obeys ||u(T) - mean|| <= e^-T ||u0 - mean||
        n = 128
        x = np.arange(n) * 2 * math.pi / n
        u0 = CircleField(2 * math.pi, np.where(x < math.pi, 1.0, -1.0))
        T = 0.5
        traj = solve_heat_circle(u0, T, SolverConfig(dt=1e-3))
        rms0 = np.sqrt(np.mean((u0.samples - u0.mean()) ** 2))
        rmsT = np.sqrt(np.mean((traj.final.samples - u0.mean()) ** 2))
        assert rmsT <= math.exp(-T) * rms0 * (1 + 1e-10)

    def test_mean_conservation(self):
        rng = np.random.default_rng(0)
        u0 = CircleField(2 * math.pi, rng.uniform(-1, 1, 128) + 0.3)
        traj = solve_heat_circle(u0, 2.0, SolverConfig(dt=1e-2))
        assert np.max(np.abs(traj.means - u0.mean())) < 1e-12

    def test_discrete_eigenvalue_decay_bound(self):
        # deviation decays at least like the first discrete eigenvalue
        u0 = circle_cos(n=64)
        cfg = SolverConfig(dt=1e-3)
        T = 1.0
        traj = solve_heat_circle(u0, T, cfg)
        n, h = 64, 2 * math.pi / 64
        lam1 = (4.0 / h**2) * math.sin(math.pi / n) ** 2
        bound = math.exp(-lam1 * T) * 1.0 * (1 + 2e-3)
        assert np.max(np.abs(traj.final.samples)) <= bound

    @pytest.mark.parametrize("scheme, bound", [("crank-nicolson", 1.9), ("implicit-euler", 0.95)])
    def test_time_order_against_the_discrete_eigenmode(self, scheme, bound):
        # grid 128 held, dt halved from 4e-3 to 5e-4 up to T = 1: the error
        # against the semi-discrete solution e^(-lambda_h t) cos x is the time
        # error alone and shrinks as dt^p; measured p = 2.000 and 0.999-1.000
        u0 = circle_cos(n=128)
        h = u0.h
        exact = math.exp(-(4.0 / h**2) * math.sin(h / 2) ** 2) * u0.samples
        errs = [np.max(np.abs(solve_heat_circle(u0, 1.0, SolverConfig(dt=dt, scheme=scheme))
                              .final.samples - exact))
                for dt in (4e-3, 2e-3, 1e-3, 5e-4)]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= bound, orders

    def test_maximum_principle_implicit_euler(self):
        rng = np.random.default_rng(1)
        u0 = CircleField(2 * math.pi, rng.uniform(-2, 2, 128))
        traj = solve_heat_circle(u0, 0.3, SolverConfig(dt=5e-3))
        lo, hi = u0.samples.min(), u0.samples.max()
        for row in traj.states:
            assert row.min() >= lo - 1e-12 and row.max() <= hi + 1e-12

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            SolverConfig(dt=-1e-3)
        with pytest.raises(ValidationError):
            SolverConfig(dt=1e-3, scheme="explicit-euler")
        with pytest.raises(ValidationError):
            solve_heat_circle(circle_cos(), -1.0, SolverConfig(dt=1e-3))


class TestVariableHeatCircle:
    def test_constant_coefficient_matches_heat(self):
        u0 = circle_cos(n=96)
        cfg = SolverConfig(dt=1e-3)
        a = solve_heat_circle(u0, 0.5, cfg)
        b = solve_variable_heat_circle(u0, Conductivity.constant(1.0), 0.5, cfg)
        assert np.max(np.abs(a.final.samples - b.final.samples)) < 1e-12

    def test_constant_c_rescales_decay(self):
        # oracle: cos x under dv/dt = c dxx v decays like e^(-cT)
        c, T = 2.5, 0.4
        u0 = circle_cos(n=256)
        traj = solve_variable_heat_circle(
            u0, Conductivity.constant(c), T, SolverConfig(dt=1e-4, scheme="crank-nicolson")
        )
        x = u0.nodes()
        assert np.max(np.abs(traj.final.samples - math.exp(-c * T) * np.cos(x))) < 2e-4

    def test_degenerate_profile_runs_monotone(self):
        n = 256
        x = np.arange(n) * 2 * math.pi / n
        u0 = CircleField(2 * math.pi, np.cos(x) + 0.5 * np.sin(3 * x))
        prof = np.sin(0.5 * x) ** 2  # vanishes at x = 0
        k = Conductivity.from_table(prof, c1=0.0, c2=1.0)
        traj = solve_variable_heat_circle(u0, k, 1.0, SolverConfig(dt=1e-2))
        sup = np.max(np.abs(traj.states), axis=1)
        assert traj.flags["degenerate"]
        assert np.all(np.diff(sup) <= 1e-12)

    def test_time_dependent_coefficient(self):
        # dv/dt = (1+t) dxx v on cos x: v(T) = exp(-(T + T^2/2)) cos x
        u0 = circle_cos(n=256)
        k = Conductivity.of_tx(lambda t, x: np.full_like(x, 1.0 + t), 1.0, 2.0)
        T = 0.5
        traj = solve_variable_heat_circle(
            u0, k, T, SolverConfig(dt=5e-5, scheme="crank-nicolson")
        )
        x = u0.nodes()
        expected = math.exp(-(T + T**2 / 2)) * np.cos(x)
        assert np.max(np.abs(traj.final.samples - expected)) < 2e-4

    def test_bound_violation_raises(self):
        u0 = circle_cos()
        k = Conductivity.of_tx(lambda t, x: np.full_like(x, 3.0), 1.0, 2.0)
        with pytest.raises(ConductivityRangeError):
            solve_variable_heat_circle(u0, k, 0.1, SolverConfig(dt=1e-2))

    def test_non_finite_conductivity_names_step_and_t(self):
        # NaN fails the band check, at the first step that evaluates it
        u0 = circle_cos(n=64)
        k = Conductivity.of_tx(
            lambda t, x: np.full_like(x, np.nan if t > 0.025 else 1.0), 0.5, 2.0
        )
        with pytest.raises(ConductivityRangeError) as info:
            solve_variable_heat_circle(u0, k, 0.1, SolverConfig(dt=1e-2))
        message = str(info.value)
        assert "solve_variable_heat_circle" in message
        assert "step 3" in message and "t = 0.03" in message


class TestSteppingCore:
    @given(st.integers(0, 20000), st.integers(0, 300))
    def test_snapshot_steps_policy(self, nsteps, save_every):
        steps = _snapshot_steps(nsteps, save_every)
        every = save_every if save_every > 0 else max(1, nsteps // 200)
        assert steps[0] == 0 and steps[-1] == nsteps
        gaps = np.diff(steps)
        assert np.all(gaps > 0)
        assert np.all(gaps[:-1] == every)
        if gaps.size:
            assert gaps[-1] <= every
        assert steps.size == nsteps // every + 1 + (nsteps % every != 0)
        if save_every == 0:
            # every = max(1, nsteps // 200): nsteps = 399 keeps all 400 steps
            assert steps.size <= 400

    def test_zero_horizon_keeps_only_step_zero(self):
        assert _snapshot_steps(_nsteps(0.0, 1e-3), 0).tolist() == [0]
        assert _snapshot_steps(_nsteps(0.0, 1e-3), 7).tolist() == [0]
        traj = solve_heat_circle(circle_cos(n=32), 0.0, SolverConfig(dt=1e-3))
        assert traj.times.tolist() == [0.0] and traj.states.shape == (1, 32)

    @pytest.mark.parametrize("save_every", [0, 1, 7])
    def test_snapshots_are_the_kept_steps(self, save_every):
        cfg = SolverConfig(dt=1e-3, scheme="crank-nicolson", save_every=save_every)
        traj = solve_heat_circle(circle_cos(n=32), 0.5, cfg)
        every = solve_heat_circle(
            circle_cos(n=32), 0.5, SolverConfig(dt=1e-3, scheme="crank-nicolson", save_every=1)
        )
        keep = _snapshot_steps(500, save_every)
        assert traj.times.tobytes() == (keep * 1e-3).tobytes()
        assert traj.states.tobytes() == every.states[keep].tobytes()
        assert traj.step_times.tobytes() == every.step_times.tobytes()
        assert traj.sup_deviation.tobytes() == every.sup_deviation.tobytes()

    def test_every_step_snapshots_are_preallocated(self):
        # one (steps + 1, N) array, no per-step copies gathered at the end:
        # the peak stays close to what the result keeps
        u0 = circle_cos(n=256)
        cfg = SolverConfig(dt=1e-3, save_every=1)
        tracemalloc.start()
        try:
            traj = solve_heat_circle(u0, 5.0, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (5001, 256)
        retained = sum(a.nbytes for a in (
            traj.times, traj.states, traj.step_times, traj.means, traj.sup_deviation))
        assert peak <= 1.25 * retained

    def test_floating_point_error_names_the_step_and_t(self):
        # under the CLI's np.errstate a step's overflow leaves as
        # FloatingPointError, named like a solver error
        def advance(u, step):
            return u * (1e300 if step == 3 else 1.0)

        with np.errstate(over="raise"), pytest.raises(
                FloatingPointError, match=r"^overflow .* during probe at step 3 \(t = 0\.03\)$"):
            parabolic._march(np.full(4, 1e10), 0.1, SolverConfig(dt=0.01),
                             parabolic._stepper(advance), "probe")



def _cyclic_reference(sub, diag, sup, corner_tr, corner_bl, rhs):
    """The Sherman-Morrison cyclic solve written with solve_banded and
    column_stack, the form solve_cyclic_tridiag replaced."""
    n = diag.size
    rhs_arr = np.asarray(rhs, dtype=float)
    single = rhs_arr.ndim == 1
    R = rhs_arr[:, None] if single else rhs_arr
    alpha = -diag[0]
    d = diag.copy()
    d[0] -= alpha
    d[-1] -= corner_bl * corner_tr / alpha
    ab = np.zeros((3, n))
    ab[0, 1:] = sup
    ab[1] = d
    ab[2, :-1] = sub
    u = np.zeros(n)
    u[0] = alpha
    u[-1] = corner_bl
    sol = solve_banded((1, 1), ab, np.column_stack([R, u]), check_finite=False)
    y, z = sol[:, :-1], sol[:, -1]
    vy = y[0, :] + (corner_tr / alpha) * y[-1, :]
    vz = z[0] + (corner_tr / alpha) * z[-1]
    x = y - z[:, None] * (vy / (1.0 + vz))[None, :]
    return x[:, 0] if single else x


class TestKernelsMatchTheirReferenceForms:
    """The LAPACK dgtsv cyclic solve and the concatenate-wrap stencils give the
    bits of the solve_banded and np.roll forms they replaced."""

    @pytest.mark.parametrize("n, m", [(8, 1), (128, 1), (128, 16), (513, 1), (64, 16)])
    def test_cyclic_solve_is_bit_identical(self, n, m):
        rng = np.random.default_rng(n + m)
        kface = 0.5 + rng.random(n)
        c = 3.7
        diag = 1.0 + c * (kface + np.roll(kface, 1))
        sub, sup = -c * rng.random(n - 1), -c * rng.random(n - 1)
        rhs = rng.standard_normal(n) if m == 1 else rng.standard_normal((n, m))
        x = solve_cyclic_tridiag(sub, diag, sup, -0.3 * c, -0.8 * c, rhs)
        ref = _cyclic_reference(sub, diag, sup, -0.3 * c, -0.8 * c, rhs)
        assert x.shape == rhs.shape
        assert np.array_equal(x, ref)
        assert x.tobytes() == ref.tobytes()

    def test_cyclic_solve_keeps_its_inputs(self):
        n = 32
        diag, off, rhs = np.full(n, 3.0), np.full(n - 1, -1.0), np.cos(np.arange(n))
        saved = [a.copy() for a in (diag, off, rhs)]
        solve_cyclic_tridiag(off, diag, off, -1.0, -1.0, rhs)
        for a, b in zip((diag, off, rhs), saved):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("solve", [solve_cyclic_tridiag, _cyclic_reference])
    def test_singular_cyclic_system_raises(self, solve):
        # a zero pivot in the reduced tridiagonal system
        n = 8
        diag = np.ones(n)
        diag[3] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            solve(np.zeros(n - 1), diag, np.zeros(n - 1), 0.0, 0.0, np.ones(n))

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_divergence_and_face_mean_are_bit_identical(self, n):
        rng = np.random.default_rng(n)
        u, kface, h = rng.standard_normal(n), 0.5 + rng.random(n), 2 * math.pi / n
        km = np.roll(kface, 1)
        ref = (kface * (np.roll(u, -1) - u) - km * (u - np.roll(u, 1))) / h**2
        assert _apply_divergence(kface, u, h).tobytes() == ref.tobytes()
        assert _face_mean(u).tobytes() == (0.5 * (u + np.roll(u, -1))).tobytes()

    def test_quasilinear_faces_are_the_roll_average(self):
        n = 256
        x = np.arange(n) * 2 * math.pi / n
        u0 = CircleField(2 * math.pi, exact_quasilinear_solution(0.0, x))
        k = exact_quasilinear_conductivity()
        v = exact_quasilinear_solution(0.3, x)
        ref = np.asarray(k.func(0.5 * (v + np.roll(v, -1))), dtype=float)
        assert _quasilinear_faces(u0, k)(v).tobytes() == ref.tobytes()


SCHEMES = ["implicit-euler", "crank-nicolson"]


def _mixed_field(n=128):
    x = np.arange(n) * 2 * math.pi / n
    return CircleField(2 * math.pi, 0.3 + np.cos(x) + 0.5 * np.sin(3 * x) + 0.2 * np.cos(7 * x))


class TestPropagatorOracle:
    """The closed-form propagator is the exact discrete solution of every
    constant-coefficient circle step; the step loops must reproduce it."""

    def _oracle(self, u0, c, T, cfg):
        return _circle_march(u0, T, cfg, _propagator(u0.samples, c, u0.h, cfg), "oracle")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_heat_is_the_discrete_eigenmode_decay(self, scheme):
        # u0 = cos 3x: u_k = g^k cos 3x with g = (1 - (1-theta) dt l) / (1 + theta dt l)
        n, dt = 64, 1e-2
        x = np.arange(n) * 2 * math.pi / n
        cfg = SolverConfig(dt=dt, scheme=scheme, save_every=1)
        traj = solve_heat_circle(CircleField(2 * math.pi, np.cos(3 * x)), 1.0, cfg)
        lam = (4.0 / (2 * math.pi / n) ** 2) * math.sin(3 * math.pi / n) ** 2
        g = (1 - (1 - cfg.theta) * dt * lam) / (1 + cfg.theta * dt * lam)
        exact = g ** np.arange(101)[:, None] * np.cos(3 * x)[None, :]
        assert np.max(np.abs(traj.states - exact)) <= 1e-13  # measured 3e-15

    def test_state_bytes_do_not_depend_on_the_block(self):
        u0 = _mixed_field()
        produce = _propagator(u0.samples, 0.7, u0.h, SolverConfig(dt=1e-3, scheme="crank-nicolson"))
        block = produce(u0.samples, np.arange(1, _BLOCK_STEPS + 1))
        for k in (1, 2, 37, _BLOCK_STEPS):
            assert block[k - 1].tobytes() == produce(u0.samples, np.array([k]))[0].tobytes()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_variable_heat_with_constant_valued_k(self, scheme):
        # measured 2.2e-14 (implicit Euler) and 1.8e-14 (Crank-Nicolson)
        u0, c = _mixed_field(), 0.7
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=1)
        k = Conductivity.of_tx(lambda t, x: np.full_like(x, c), c, c)
        traj = solve_variable_heat_circle(u0, k, 0.5, cfg)
        ref = self._oracle(u0, c, 0.5, cfg)
        assert np.max(np.abs(traj.states - ref.states)) <= 1e-12 * np.max(np.abs(u0.samples))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_quasilinear_with_constant_valued_k(self, scheme):
        # measured 2.2e-14 (implicit Euler) and 1.8e-14 (Crank-Nicolson)
        u0, c = _mixed_field(), 0.7
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=1)
        k = Conductivity.of_u(lambda u: np.full_like(u, c), c, c)
        traj = solve_quasilinear_divergence(u0, k, 0.5, cfg)
        ref = self._oracle(u0, c, 0.5, cfg)
        assert np.max(np.abs(traj.states - ref.states)) <= 1e-12 * np.max(np.abs(u0.samples))
        assert np.max(np.abs(traj.sup_deviation - ref.sup_deviation)) <= 1e-12 * np.max(
            np.abs(u0.samples))


class TestQuasilinear:
    def test_exact_family(self):
        # oracle: the closed-form solution of the k = 1/(1+u^2) equation
        n = 512
        x = np.arange(n) * 2 * math.pi / n
        u0 = CircleField(2 * math.pi, exact_quasilinear_solution(0.0, x))
        traj = solve_quasilinear_divergence(
            u0,
            exact_quasilinear_conductivity(),
            1.0,
            SolverConfig(dt=1e-3, scheme="crank-nicolson"),
        )
        err = np.max(np.abs(traj.final.samples - exact_quasilinear_solution(1.0, x)))
        assert err < 2e-4
        assert np.max(np.abs(traj.final.samples)) <= math.exp(-1.0) * 1.01

    def test_constant_k_matches_rescaled_heat(self):
        c = 0.7
        u0 = circle_cos(n=128)
        cfg = SolverConfig(dt=1e-3)
        a = solve_quasilinear_divergence(
            u0, Conductivity.of_u(lambda u: np.full_like(u, c), c, c), 1.0, cfg
        )
        b = solve_heat_circle(u0, c * 1.0, SolverConfig(dt=c * 1e-3))
        assert np.max(np.abs(a.final.samples - b.final.samples)) < 1e-10

    def test_mass_conservation_and_sup_norm(self):
        n = 256
        x = np.arange(n) * 2 * math.pi / n
        u0 = CircleField(2 * math.pi, 0.9 * np.sin(x) + 0.1 * np.sin(3 * x))
        traj = solve_quasilinear_divergence(
            u0, exact_quasilinear_conductivity(), 1.0, SolverConfig(dt=1e-3)
        )
        assert np.max(np.abs(traj.means - u0.mean())) < 1e-12
        sup = np.max(np.abs(traj.states), axis=1)
        assert np.all(np.diff(sup) <= 1e-12)

    def test_out_of_band_initial_range_rejected(self):
        u0 = circle_cos(amp=3.0)
        k = Conductivity.of_u(lambda u: 1.0 / (1.0 + u * u), c1=0.5, c2=1.0)
        with pytest.raises(ConductivityRangeError):
            solve_quasilinear_divergence(u0, k, 0.1, SolverConfig(dt=1e-2))

    def test_stalled_picard_names_solver_step_and_t(self):
        cfg = SolverConfig(dt=1e-2, nonlinear_iterations=1, tolerance=1e-300)
        with pytest.raises(NonConvergenceError) as info:
            solve_quasilinear_divergence(circle_cos(n=64), exact_quasilinear_conductivity(),
                                         0.1, cfg)
        message = str(info.value)
        assert "Picard iteration stalled" in message
        assert "during solve_quasilinear_divergence at step 1 (t = 0.01)" in message

    def test_convergence_order(self):
        # halving h improves the sup error by >= 3.5 (second order in space)
        errs = []
        for n in (256, 512):
            x = np.arange(n) * 2 * math.pi / n
            u0 = CircleField(2 * math.pi, exact_quasilinear_solution(0.0, x))
            traj = solve_quasilinear_divergence(
                u0,
                exact_quasilinear_conductivity(),
                1.0,
                SolverConfig(dt=1e-3, scheme="crank-nicolson"),
            )
            errs.append(
                np.max(np.abs(traj.final.samples - exact_quasilinear_solution(1.0, x)))
            )
        assert errs[0] / errs[1] >= 3.5

    @pytest.mark.parametrize("scheme, bound", [("crank-nicolson", 1.9), ("implicit-euler", 0.95)])
    def test_time_order_by_self_convergence(self, scheme, bound):
        # grid 64 held, dt halved from 4e-3 to 5e-4 up to T = 0.4: successive
        # final-state differences shrink as dt^p; measured p = 2.000 and 0.998
        n = 64
        x = np.arange(n) * 2 * math.pi / n
        u0 = CircleField(2 * math.pi, exact_quasilinear_solution(0.0, x))
        finals = [
            solve_quasilinear_divergence(
                u0, exact_quasilinear_conductivity(), 0.4, SolverConfig(dt=dt, scheme=scheme)
            ).final.samples
            for dt in (4e-3, 2e-3, 1e-3, 5e-4)
        ]
        diffs = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
        orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
        assert min(orders) >= bound, orders


def exact_family(n):
    x = np.arange(n) * 2 * math.pi / n
    return CircleField(2 * math.pi, exact_quasilinear_solution(0.0, x))


class TestPicardPredictor:
    """Each Picard iteration starts from 2 u_n - u_{n-1}: fewer solves, the
    same lagged fixed point."""

    def test_about_three_solves_per_step(self, monkeypatch):
        solves = []
        solve = parabolic._divergence_theta_solve

        def counted(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(parabolic, "_divergence_theta_solve", counted)
        traj = solve_quasilinear_divergence(exact_family(512), exact_quasilinear_conductivity(),
                                            1.0, SolverConfig(dt=1e-3, scheme="crank-nicolson"))
        steps = traj.step_times.size - 1
        assert steps == 1000 and len(solves) / steps <= 3.05

    @pytest.mark.parametrize("data, scheme, dt, nsteps", [
        ("exact", "crank-nicolson", 1e-3, 1000),
        ("exact", "implicit-euler", 1e-3, 1000),
        # the predictor overshoots the fronts: the hook rejects it at some steps
        ("square-wave", "crank-nicolson", 1e-2, 20),
    ])
    def test_states_match_the_lagged_start(self, monkeypatch, data, scheme, dt, nsteps):
        if data == "exact":
            u0 = exact_family(512)
        else:
            u0 = CircleField(2 * math.pi, np.repeat([0.9, -0.9], 64))
        k = exact_quasilinear_conductivity()
        rejected = []

        def counted_faces(u0, k):
            faces = _quasilinear_faces(u0, k)

            def hook(v):
                try:
                    return faces(v)
                except ConductivityRangeError:
                    rejected.append(v)
                    raise

            return hook

        monkeypatch.setattr(parabolic, "_quasilinear_faces", counted_faces)
        cfg = SolverConfig(dt=dt, scheme=scheme, save_every=1)
        traj = solve_quasilinear_divergence(u0, k, nsteps * dt, cfg)
        assert bool(rejected) == (data == "square-wave")
        # the reference: every step's iteration starts from u_n
        faces = _quasilinear_faces(u0, k)
        h, theta = u0.h, cfg.theta
        stop = cfg.tolerance * (1.0 + np.max(np.abs(u0.samples)))
        u, ref = u0.samples, [u0.samples]
        for _ in range(nsteps):
            rhs = u + (1.0 - theta) * cfg.dt * _apply_divergence(faces(u), u, h)
            v = u
            for _ in range(cfg.nonlinear_iterations):
                vnext = _divergence_theta_solve(faces(v), rhs, theta * cfg.dt, h)
                done = np.max(np.abs(vnext - v)) <= stop
                v = vnext
                if done:
                    break
            else:
                raise AssertionError("reference Picard iteration stalled")
            u = v
            ref.append(u)
        scale = 1.0 + np.max(np.abs(u0.samples))
        assert np.max(np.abs(traj.states - np.array(ref))) <= 1e-13 * scale

    def test_the_predictor_reaches_the_monitor_hook(self):
        u0 = exact_family(64)
        faces = _quasilinear_faces(u0, exact_quasilinear_conductivity())
        seen = []

        def hook(v):
            seen.append(v.copy())
            return faces(v)

        produce = _picard_stepper(u0, hook, SolverConfig(dt=1e-2, scheme="crank-nicolson"))
        u1, u2, u3 = produce(u0.samples, np.arange(1, 4))
        # step 1 starts from u_0: its faces serve the explicit half and the first solve
        assert np.array_equal(seen[0], u0.samples)
        assert not any(np.array_equal(v, u0.samples) for v in seen[1:])
        for prev, cur in ((u0.samples, u1), (u1, u2)):
            assert any(np.array_equal(v, 2.0 * cur - prev) for v in seen)


class TestInterval:
    def test_pinned_ends_and_decay(self):
        n = 201
        x = np.linspace(0.0, 1.0, n)
        u0 = np.sin(math.pi * x)
        times, states = solve_linear_interval(
            u0,
            x[1] - x[0],
            np.ones(n),
            None,
            0.1,
            SolverConfig(dt=1e-4, scheme="crank-nicolson"),
        )
        assert np.all(states[:, 0] == 0.0) and np.all(states[:, -1] == 0.0)
        expected = math.exp(-math.pi**2 * 0.1) * u0
        assert np.max(np.abs(states[-1] - expected)) < 5e-5

    def test_drift_term(self):
        # du/dt = dxx u + b dx u with b const: u = exp(-t) sin(x - ... ) is
        # awkward; instead compare against a fine explicit reference.
        n = 101
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]
        u0 = np.sin(math.pi * x)
        b = 0.8 * np.ones(n)
        times, states = solve_linear_interval(
            u0, h, np.ones(n), b, 0.05, SolverConfig(dt=1e-5, scheme="crank-nicolson")
        )
        # explicit RK4 on the same stencil as reference
        u = u0.copy()
        dt = 1e-5

        def rhs(v):
            out = np.zeros_like(v)
            out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2 + b[1:-1] * (
                v[2:] - v[:-2]
            ) / (2 * h)
            return out

        for _ in range(int(0.05 / dt)):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            u[0] = u[-1] = 0.0
        assert np.max(np.abs(states[-1] - u)) < 1e-6


class TestIntervalStep:
    ARGS = (np.sin(math.pi * np.linspace(0.0, 1.0, 65)), 1 / 64, 1.0 + np.linspace(0.0, 1.0, 65),
            0.5 * np.linspace(0.0, 1.0, 65), 0.05)

    @staticmethod
    def _banded(dl, d, du, b, overwrite_b=0):
        ab = np.zeros((3, d.size))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        return None, None, None, solve_banded((1, 1), ab, b, check_finite=False), 0

    @pytest.mark.parametrize("scheme", ["crank-nicolson", "implicit-euler"])
    def test_dgtsv_step_equals_solve_banded_bitwise(self, monkeypatch, scheme):
        # the step calls LAPACK dgtsv, the routine solve_banded((1, 1)) reaches
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=1)
        direct = solve_linear_interval(*self.ARGS, cfg)[1]
        monkeypatch.setattr(parabolic, "dgtsv", self._banded)
        assert solve_linear_interval(*self.ARGS, cfg)[1].tobytes() == direct.tobytes()

    def test_singular_system_raises(self, monkeypatch):
        monkeypatch.setattr(parabolic, "dgtsv", lambda *a, **k: (None, None, None, a[3], 2))
        with pytest.raises(np.linalg.LinAlgError, match="dgtsv info 2"):
            solve_linear_interval(*self.ARGS, SolverConfig(dt=1e-3))


def _python(code: str) -> list:
    """The words a fresh interpreter prints for ``code``, egf on its path."""
    src = str(pathlib.Path(parabolic.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.split()


class TestLapackBinding:
    """dgtsv comes from scipy's compiled LAPACK module, without the package
    init of scipy.linalg."""

    def test_entry_points_leave_scipy_linalg_out(self):
        code = ("import sys, egf, egf.cli, egf.runner, egf.acceptance; "
                "print(*(m in sys.modules for m in ('scipy.linalg', 'numpy.f2py', "
                "'numpy.testing')))")
        assert _python(code) == ["False"] * 3

    def test_entry_points_import_what_a_command_uses(self):
        # loaded with the modules, not inside a command or a forked worker
        code = ("import sys, egf.cli, egf.runner, egf.acceptance; "
                "print(*(m in sys.modules for m in ('numpy.fft', 'numpy.random', "
                "'multiprocessing', 'concurrent.futures.process')))")
        assert _python(code) == ["True"] * 4

    @pytest.mark.parametrize("first, second", [("egf.parabolic", "scipy.linalg.lapack"),
                                               ("scipy.linalg.lapack", "egf.parabolic")])
    def test_dgtsv_is_scipys_in_either_import_order(self, first, second):
        code = (f"import sys, {first}, {second}; "
                "print(sys.modules['egf.parabolic'].dgtsv is scipy.linalg.lapack.dgtsv)")
        assert _python(code) == ["True"]

    def test_solve_banded_is_imported_on_first_access(self):
        assert parabolic.solve_banded is solve_banded
        with pytest.raises(AttributeError, match="has no attribute 'solve_tridiagonal'"):
            parabolic.solve_tridiagonal

    def test_missing_scipy_raises_import_error(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="egf needs scipy"):
            parabolic._lapack_dgtsv()

    def test_missing_lapack_module_raises_import_error(self, monkeypatch, tmp_path):
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations.append(str(tmp_path))
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match="scipy has no compiled LAPACK module .*_flapack"):
            parabolic._lapack_dgtsv()


class TestHeatKernel:
    def test_normalization(self):
        y = np.linspace(-30, 30, 20001)
        val = np.trapezoid(heat_kernel(0.7, 0.0, y), y)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        assert heat_kernel(0.3, 1.2, -0.4) == heat_kernel(0.3, -0.4, 1.2)

    def test_t_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            heat_kernel(0.0, 0.0, 0.0)

    def test_gaussian_to_gaussian(self):
        # oracle: N(0, s^2) convolved with the kernel is N(0, s^2 + 2t)
        s2, t = 0.5, 0.3
        y = np.linspace(-25, 25, 40001)
        u0 = np.exp(-(y**2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)
        out = convolve_line(y, u0, t, x_eval=np.linspace(-2, 2, 9))
        var = s2 + 2 * t
        expected = np.exp(-(np.linspace(-2, 2, 9) ** 2) / (2 * var)) / math.sqrt(
            2 * math.pi * var
        )
        assert np.max(np.abs(out - expected)) < 1e-10


class TestThetaSolution:
    def test_large_time_flat(self):
        for x in (0.0, 0.3, 0.77):
            assert theta_solution(x, 5.0) == pytest.approx(1.0, abs=1e-15)

    def test_periodicity(self):
        assert theta_solution(0.37, 0.02) == pytest.approx(
            theta_solution(1.37, 0.02), abs=1e-13
        )

    def test_heat_equation_residual(self):
        # finite-difference residual of du/dt = dxx u at (x, t) = (0.3, 0.01)
        x0, t0 = 0.3, 0.01
        dt, dx = 5e-7, 1e-3
        ut = (theta_solution(x0, t0 + dt) - theta_solution(x0, t0 - dt)) / (2 * dt)
        uxx = (
            -theta_solution(x0 + 2 * dx, t0)
            + 16 * theta_solution(x0 + dx, t0)
            - 30 * theta_solution(x0, t0)
            + 16 * theta_solution(x0 - dx, t0)
            - theta_solution(x0 - 2 * dx, t0)
        ) / (12 * dx**2)
        assert abs(ut - uxx) < 1e-6

    def test_matches_circle_solver_from_mollified_delta(self):
        # theta(., t0) is the mollified delta; evolving it by Dt must land
        # on theta(., t0 + Dt) within scheme error
        n, t0, dT = 256, 2e-3, 5e-3
        x = np.arange(n) / n
        u0 = CircleField(1.0, np.array([theta_solution(xi, t0) for xi in x]))
        traj = solve_heat_circle(u0, dT, SolverConfig(dt=1e-6, scheme="crank-nicolson"))
        expected = np.array([theta_solution(xi, t0 + dT) for xi in x])
        assert np.max(np.abs(traj.final.samples - expected)) < 5e-3

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValidationError):
            theta_solution(0.1, 0.0)


class TestDecayFit:
    def test_pure_exponential(self):
        ts = np.linspace(0, 5, 60)
        series = [(t, 2.0 * math.exp(-t)) for t in ts]
        K, alpha = fit_exponential_decay(series)
        assert alpha == pytest.approx(1.0, abs=1e-10)
        assert K == pytest.approx(2.0, rel=1e-9)

    def test_exact_quasilinear_rate(self):
        # sup-norm of the exact solution decays exactly like e^-t
        ts = np.linspace(0, 3, 31)
        series = [(t, float(np.max(np.abs(exact_quasilinear_solution(t, np.linspace(0, 2 * math.pi, 512)))))) for t in ts]
        _, alpha = fit_exponential_decay(series)
        assert alpha >= 1.0 - 0.02

    def test_constant_series(self):
        series = [(t, 1.5) for t in np.linspace(0, 2, 20)]
        _, alpha = fit_exponential_decay(series)
        assert alpha == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_series(self):
        series = [(t, 0.0) for t in np.linspace(0, 2, 20)]
        _, alpha = fit_exponential_decay(series)
        assert alpha == math.inf

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            fit_exponential_decay([(0, 1), (1, 0.5)])


class TestParabolicityCheck:
    def test_identity(self):
        ok, c = parabolicity_check(np.eye(3))
        assert ok and c == pytest.approx(1.0)

    def test_indefinite(self):
        ok, c = parabolicity_check(np.diag([1.0, -1.0]))
        assert not ok and c == pytest.approx(-1.0)

    def test_unsymmetric_uses_symmetric_part(self):
        A = np.array([[1.0, 10.0], [0.0, 1.0]])
        ok, c = parabolicity_check(A)
        assert not ok
        assert c == pytest.approx(1.0 - 5.0)

    def test_diagonal_flow_principal_part(self):
        # the weight f_1 = 2 turns the principal matrix into the identity
        from egf.companion import build_companion, weighted_power_matrix
        from egf.symfun import CurvatureSpectrum, power_sums, sigma_from_tau

        sig = sigma_from_tau(power_sums(CurvatureSpectrum((0.3, 1.1, 2.0))))
        M = weighted_power_matrix([2.0], build_companion(sig))
        ok, c = parabolicity_check(M)
        assert ok and c == pytest.approx(1.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            parabolicity_check(np.ones((2, 3)))


class TestExactSolutionOracle:
    def test_pde_residual_finite_differences(self):
        # independent check that the reference family solves the PDE
        rng = np.random.default_rng(2)
        for _ in range(10):
            t0 = rng.uniform(0.05, 1.5)
            x0 = rng.uniform(0, 2 * math.pi)
            dt, dx = 1e-6, 1e-4

            def u(t, x):
                return float(exact_quasilinear_solution(t, x))

            ut = (u(t0 + dt, x0) - u(t0 - dt, x0)) / (2 * dt)

            def flux(x):
                um = 0.5 * (u(t0, x + dx) + u(t0, x))
                return (u(t0, x + dx) - u(t0, x)) / dx / (1 + um * um)

            div = (flux(x0) - flux(x0 - dx)) / dx
            assert ut == pytest.approx(div, abs=5e-6)

    def test_sup_norm_is_exponential(self):
        x = np.linspace(0, 2 * math.pi, 4096)
        for t in (0.0, 0.5, 1.0, 2.0):
            sup = np.max(np.abs(exact_quasilinear_solution(t, x)))
            assert sup == pytest.approx(math.exp(-t), abs=1e-6)


class TestCircleFieldValidation:
    def test_minimum_grid(self):
        with pytest.raises(ValidationError):
            CircleField(2 * math.pi, np.zeros(4))

    def test_finite_samples(self):
        bad = np.zeros(16)
        bad[3] = np.inf
        with pytest.raises(ValidationError):
            CircleField(2 * math.pi, bad)

    def test_nonpositive_length(self):
        with pytest.raises(ValidationError):
            CircleField(0.0, np.zeros(16))
