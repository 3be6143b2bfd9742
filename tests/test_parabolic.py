import importlib.machinery
import importlib.util
import itertools
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
from egf.errors import (
    ConductivityRangeError,
    EllipticityLossError,
    NonConvergenceError,
    ValidationError,
)
from egf.parabolic import (
    CircleField,
    SolverConfig,
    exact_quasilinear_conductivity,
    exact_quasilinear_solution,
    fit_exponential_decay,
    solve_heat_circle,
    solve_linear_interval,
    solve_quasilinear_divergence,
)
from egf.parabolic import (
    _face_mean,
    _interval_stepper,
    _newton_stepper,
    _nsteps,
    _propagator,
    _snapshot_steps,
    _sup_distance,
    solve_cyclic_tridiag,
)
from egf.flows import circle_derivative
from egf.reeb import reeb_setup
from picard_oracle import apply_divergence, divergence_theta_solve
from reeb_oracles import heat_kernel


def circle_cos(n=128, length=2 * math.pi, amp=1.0, freq=1):
    x = np.arange(n) * length / n
    return CircleField(length, amp * np.cos(2 * math.pi * freq * x / length))


class TestHeatCircle:
    def test_constant_is_stationary(self):
        u0 = CircleField(2 * math.pi, np.full(64, 3.7))
        traj = solve_heat_circle(u0, 1.0, SolverConfig(dt=1e-2))
        assert np.allclose(traj.states[-1], 3.7, atol=1e-13)

    def test_cos_eigenfunction_decay(self):
        # oracle: cos x is an eigenfunction, u(T) = e^-T cos x up to grid error
        u0 = circle_cos(n=256)
        T = 1.0
        traj = solve_heat_circle(u0, T, SolverConfig(dt=1e-4, scheme="crank-nicolson"))
        x = u0.nodes()
        assert np.max(np.abs(traj.states[-1] - math.exp(-T) * np.cos(x))) < 5e-5

    def test_square_wave_decay_bound(self):
        # every Fourier mode decays at least like e^-t, so the L2 norm of
        # the deviation obeys ||u(T) - mean|| <= e^-T ||u0 - mean||
        n = 128
        x = np.arange(n) * 2 * math.pi / n
        u0 = CircleField(2 * math.pi, np.where(x < math.pi, 1.0, -1.0))
        T = 0.5
        traj = solve_heat_circle(u0, T, SolverConfig(dt=1e-3))
        rms0 = np.sqrt(np.mean((u0.samples - u0.mean()) ** 2))
        rmsT = np.sqrt(np.mean((traj.states[-1] - u0.mean()) ** 2))
        assert rmsT <= math.exp(-T) * rms0 * (1 + 1e-10)

    def test_mean_conservation(self):
        rng = np.random.default_rng(0)
        u0 = CircleField(2 * math.pi, rng.uniform(-1, 1, 128) + 0.3)
        traj = solve_heat_circle(u0, 2.0, SolverConfig(dt=1e-2, save_every=1))
        assert np.max(np.abs(traj.states.mean(axis=1) - u0.mean())) < 1e-12

    def test_discrete_eigenvalue_decay_bound(self):
        # deviation decays at least like the first discrete eigenvalue
        u0 = circle_cos(n=64)
        cfg = SolverConfig(dt=1e-3)
        T = 1.0
        traj = solve_heat_circle(u0, T, cfg)
        n, h = 64, 2 * math.pi / 64
        lam1 = (4.0 / h**2) * math.sin(math.pi / n) ** 2
        bound = math.exp(-lam1 * T) * 1.0 * (1 + 2e-3)
        assert np.max(np.abs(traj.states[-1])) <= bound

    @pytest.mark.parametrize("scheme, bound", [("crank-nicolson", 1.9), ("implicit-euler", 0.95)])
    def test_time_order_against_the_discrete_eigenmode(self, scheme, bound):
        # grid 128 held, dt halved from 4e-3 to 5e-4 up to T = 1: the error
        # against the semi-discrete solution e^(-lambda_h t) cos x is the time
        # error alone and shrinks as dt^p; measured p = 2.000 and 0.999-1.000
        u0 = circle_cos(n=128)
        h = u0.h
        exact = math.exp(-(4.0 / h**2) * math.sin(h / 2) ** 2) * u0.samples
        errs = [np.max(np.abs(solve_heat_circle(u0, 1.0, SolverConfig(dt=dt, scheme=scheme))
                              .states[-1] - exact))
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


class TestSteppingCore:
    @given(st.integers(0, 20000), st.integers(0, 300))
    def test_snapshot_steps_policy(self, nsteps, save_every):
        steps = _snapshot_steps(nsteps, save_every)
        every = save_every if save_every > 0 else max(1, math.ceil(nsteps / 200))
        assert steps[0] == 0 and steps[-1] == nsteps
        gaps = np.diff(steps)
        assert np.all(gaps > 0)
        assert np.all(gaps[:-1] == every)
        if gaps.size:
            assert gaps[-1] <= every
        assert steps.size == nsteps // every + 1 + (nsteps % every != 0)
        if save_every == 0:
            assert steps.size <= 201

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
        retained = sum(a.nbytes for a in (traj.times, traj.states, traj.step_times))
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

    @pytest.mark.parametrize("values", [1, 10**9])  # one state per block; one block
    @pytest.mark.parametrize("route", ["propagator", "newton", "interval"])
    def test_march_bytes_do_not_depend_on_the_block_size(self, monkeypatch, route, values):
        # prescribed-F's closed form with its integrand, exact-quasilinear's
        # Newton step, and Reeb's interval step with its integrand
        def march():
            if route == "propagator":
                w0 = _mixed_field()
                cfg = SolverConfig(dt=1e-3, scheme="crank-nicolson")
                return parabolic._march(w0.samples, 0.5, cfg,
                                        _propagator(w0.samples, 1.0, w0.h, cfg), route,
                                        integrand=lambda block: circle_derivative(block, w0.h))
            if route == "newton":
                u0 = exact_family(128)
                cfg = SolverConfig(dt=1e-3, scheme="crank-nicolson", save_every=7)
                produce = _newton_stepper(u0, *exact_quasilinear_conductivity(), cfg)
                return parabolic._march(u0.samples, 0.2, cfg, produce, route)
            geom = reeb_setup(n_grid=256)
            sin_a, cos_a = np.sin(geom.alpha), np.cos(geom.alpha)
            cfg = SolverConfig(dt=1e-3, scheme="crank-nicolson", save_every=3)
            start, produce = _interval_stepper(geom.lam0, geom.h, sin_a**2,
                                               sin_a * cos_a * geom.alpha_prime, cfg)
            return parabolic._march(start, 0.2, cfg, produce, route,
                                    integrand=lambda block: block)

        default = march()
        monkeypatch.setattr(parabolic, "_BLOCK_VALUES", values)
        for ours, theirs in zip(march(), default, strict=True):
            assert (ours is None and theirs is None) or ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("x, centre", [
        (np.zeros((3, 5)), 0.0),
        (np.full((3, 5), -0.0), 0.0),
        (np.full((3, 5), -0.0), -0.0),
        (np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]), -0.0),
        (np.array([[1.0, -1.0, 1.0], [-2.0, 2.0, 0.5], [0.25, 0.25, 0.25]]), 0.0),  # ties
        (np.array([[1.5, 0.5, 1.0], [3.0, -1.0, 1.0]]), 1.0),
        (np.random.default_rng(3).normal(size=(40, 97)) * 10.0 ** np.arange(-20, 20)[:, None],
         0.3),
        (np.random.default_rng(4).normal(size=(6, 4, 33)), np.arange(4) / 7.0),
    ])
    def test_sup_distance_has_the_bytes_of_the_abs_formula(self, x, centre):
        expected = np.max(np.abs(x - np.asarray(centre)[..., None]), axis=-1)
        assert _sup_distance(x, centre).tobytes() == expected.tobytes()



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
        assert apply_divergence(kface, u, h).tobytes() == ref.tobytes()
        assert _face_mean(u).tobytes() == (0.5 * (u + np.roll(u, -1))).tobytes()

    def test_quasilinear_faces_are_the_roll_average(self):
        # the Newton stepper passes k the roll average of the state it evaluates
        n = 256
        x = np.arange(n) * 2 * math.pi / n
        u0 = CircleField(2 * math.pi, exact_quasilinear_solution(0.0, x))
        k, dk = exact_quasilinear_conductivity()
        v = exact_quasilinear_solution(0.3, x)
        w = 0.5 * (v + np.roll(v, -1))
        seen = []

        def recorded(faces):
            seen.append(faces.copy())
            return k(faces)

        produce = _newton_stepper(u0, recorded, dk, SolverConfig(dt=1e-3))
        produce(v, np.arange(1, 2))
        assert seen[0].tobytes() == w.tobytes()
        assert produce.least == min(float(k(faces).min()) for faces in seen)


SCHEMES = ["implicit-euler", "crank-nicolson"]


def _mixed_field(n=128):
    x = np.arange(n) * 2 * math.pi / n
    return CircleField(2 * math.pi, 0.3 + np.cos(x) + 0.5 * np.sin(3 * x) + 0.2 * np.cos(7 * x))


class TestPropagatorOracle:
    """The closed-form propagator is the exact discrete solution of every
    constant-coefficient circle step; the step loops must reproduce it."""

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
        block = produce(u0.samples, np.arange(1, 65))
        for k in (1, 2, 37, 64):
            assert block[k - 1].tobytes() == produce(u0.samples, np.array([k]))[0].tobytes()

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("T, save_every", [(0.5, 1), (0.5, 7), (2.0, 0)])
    def test_closed_form_pair_sums_match_the_stepped_propagator(self, scheme, T, save_every):
        # the march's one integral rule by both routes, for a linear integrand:
        # p(2 S_k - u_0 - u_k) from the closed-form sums at the kept steps, and
        # the running sum over every step of the same propagator stepped one
        # state at a time through _stepper
        u0 = _mixed_field()
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=save_every)
        produce = _propagator(u0.samples, 0.7, u0.h, cfg)
        stepped = parabolic._stepper(lambda u, step: produce(u, np.array([step]))[0])

        def integrand(block):
            return 2.5 * block - np.roll(block, 1, axis=-1)

        _, states, closed = parabolic._march(u0.samples, T, cfg, produce, "closed",
                                             integrand=integrand)
        _, stepped_states, running = parabolic._march(u0.samples, T, cfg, stepped, "stepped",
                                                      integrand=integrand)
        assert states.tobytes() == stepped_states.tobytes()
        assert closed[0].tobytes() == running[0].tobytes() == np.zeros(u0.n).tobytes()
        assert np.max(np.abs(closed - running)) <= 1e-12 * (1.0 + np.max(np.abs(running)))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_quasilinear_with_constant_valued_k(self, scheme):
        # measured 2.2e-14 (implicit Euler) and 1.8e-14 (Crank-Nicolson)
        u0, c = _mixed_field(), 0.7
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=1)
        states = solve_quasilinear_divergence(u0, lambda u: np.full_like(u, c), np.zeros_like,
                                              0.5, cfg).states
        _, ref, _ = parabolic._march(u0.samples, 0.5, cfg, _propagator(u0.samples, c, u0.h, cfg),
                                     "oracle")
        scale = np.max(np.abs(u0.samples))
        assert np.max(np.abs(states - ref)) <= 1e-12 * scale
        sup_deviation = [np.max(np.abs(s - u0.mean()), axis=1) for s in (states, ref)]
        assert np.max(np.abs(sup_deviation[0] - sup_deviation[1])) <= 1e-12 * scale


class TestQuasilinear:
    def test_exact_family(self):
        # oracle: the closed-form solution of the k = 1/(1+u^2) equation
        n = 512
        x = np.arange(n) * 2 * math.pi / n
        u0 = CircleField(2 * math.pi, exact_quasilinear_solution(0.0, x))
        traj = solve_quasilinear_divergence(
            u0,
            *exact_quasilinear_conductivity(),
            1.0,
            SolverConfig(dt=1e-3, scheme="crank-nicolson"),
        )
        err = np.max(np.abs(traj.states[-1] - exact_quasilinear_solution(1.0, x)))
        assert err < 2e-4
        assert np.max(np.abs(traj.states[-1])) <= math.exp(-1.0) * 1.01

    def test_constant_k_matches_rescaled_heat(self):
        c = 0.7
        u0 = circle_cos(n=128)
        cfg = SolverConfig(dt=1e-3)
        a = solve_quasilinear_divergence(u0, lambda u: np.full_like(u, c), np.zeros_like, 1.0, cfg)
        b = solve_heat_circle(u0, c * 1.0, SolverConfig(dt=c * 1e-3))
        assert np.max(np.abs(a.states[-1] - b.states[-1])) < 1e-10

    def test_mass_conservation_and_sup_norm(self):
        n = 256
        x = np.arange(n) * 2 * math.pi / n
        u0 = CircleField(2 * math.pi, 0.9 * np.sin(x) + 0.1 * np.sin(3 * x))
        traj = solve_quasilinear_divergence(
            u0, *exact_quasilinear_conductivity(), 1.0, SolverConfig(dt=1e-3, save_every=1)
        )
        # 1000 Newton steps: the Jacobian's columns sum to 1, so each update
        # keeps the mean; measured 1.1e-16
        assert traj.step_times.size == 1001
        assert np.max(np.abs(traj.states.mean(axis=1) - u0.mean())) <= 1e-13
        sup = np.max(np.abs(traj.states), axis=1)
        assert np.all(np.diff(sup) <= 1e-12)

    def test_state_outside_the_widened_range_rejected(self):
        # a one-node spike on [0, 1] with dt / h^2 ~ 10: Crank-Nicolson flips
        # the high modes, so step 1 undershoots the widened range [-0.05,
        # 1.05]; implicit Euler, monotone, stays in [0, 1] and runs
        spike = np.zeros(64)
        spike[10] = 1.0
        u0 = CircleField(2 * math.pi, spike)
        states = solve_quasilinear_divergence(u0, np.ones_like, np.zeros_like, 1.0,
                                              SolverConfig(dt=0.1)).states
        assert 0.0 <= states.min() and states.max() <= 1.0
        with pytest.raises(ConductivityRangeError, match="state left the widened initial range "
                           r"during solve_quasilinear_divergence at step 1 \(t = 0\.1\)$"):
            solve_quasilinear_divergence(u0, np.ones_like, np.zeros_like, 1.0,
                                         SolverConfig(dt=0.1, scheme="crank-nicolson"))

    def test_negative_conductivity_names_step_and_t(self):
        # k(u) = u is negative on half the faces of cos data: the rule k > 0
        # halts the run at the start of step 1
        with pytest.raises(EllipticityLossError, match=r"parabolicity coefficient reached min "
                           r"a = -0\.99.* during solve_quasilinear_divergence at step 1 "):
            solve_quasilinear_divergence(circle_cos(n=64), lambda u: u, np.ones_like, 0.1,
                                         SolverConfig(dt=1e-2))

    def test_stalled_newton_names_solver_step_and_t(self, monkeypatch):
        monkeypatch.setattr(parabolic, "_NEWTON_SOLVES", 1)
        monkeypatch.setattr(parabolic, "_NEWTON_TOLERANCE", 1e-300)
        cfg = SolverConfig(dt=1e-2)
        with pytest.raises(NonConvergenceError) as info:
            solve_quasilinear_divergence(circle_cos(n=64), *exact_quasilinear_conductivity(),
                                         0.1, cfg)
        message = str(info.value)
        assert "Newton iteration stalled (last residual " in message
        assert "during solve_quasilinear_divergence at step 1 (t = 0.01)" in message

    def test_non_finite_conductivity_names_step_and_t(self):
        # k = 1 is called twice a step (the start and the one Newton iterate
        # of a linear step); NaN from the fifth call on: step 3 drops its
        # predictor, and its iterate fails the rule k > 0
        calls = itertools.count(1)
        with pytest.raises(EllipticityLossError) as info:
            solve_quasilinear_divergence(
                circle_cos(n=64), lambda u: np.full_like(u, np.nan if next(calls) > 4 else 1.0),
                np.zeros_like, 0.1, SolverConfig(dt=1e-2))
        message = str(info.value)
        assert "min a = nan" in message
        assert "during solve_quasilinear_divergence at step 3 (t = 0.03)" in message
        assert next(calls) == 7

    def test_convergence_order(self):
        # halving h improves the sup error by >= 3.5 (second order in space)
        errs = []
        for n in (256, 512):
            x = np.arange(n) * 2 * math.pi / n
            u0 = CircleField(2 * math.pi, exact_quasilinear_solution(0.0, x))
            traj = solve_quasilinear_divergence(
                u0,
                *exact_quasilinear_conductivity(),
                1.0,
                SolverConfig(dt=1e-3, scheme="crank-nicolson"),
            )
            errs.append(
                np.max(np.abs(traj.states[-1] - exact_quasilinear_solution(1.0, x)))
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
                u0, *exact_quasilinear_conductivity(), 0.4, SolverConfig(dt=dt, scheme=scheme)
            ).states[-1]
            for dt in (4e-3, 2e-3, 1e-3, 5e-4)
        ]
        diffs = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
        orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
        assert min(orders) >= bound, orders


def exact_family(n):
    x = np.arange(n) * 2 * math.pi / n
    return CircleField(2 * math.pi, exact_quasilinear_solution(0.0, x))


class TestPicardPredictor:
    """The Newton step from the predictor 2 u_n - u_{n-1} against
    lagged-coefficient Picard iteration (the stencils of
    tests/picard_oracle.py): both solve the same theta scheme, so the
    predictor and Newton's method move the start and the stopping slack, not
    the discrete solution."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_solve_per_step(self, monkeypatch, scheme):
        # each step evaluates the faces at its start (u_0 at step 1, then the
        # predictor) and after each solve; the accepted iterate's faces give
        # the next step's explicit half.  Measured 1001 solves in 1000 steps.
        counts = {"solves": 0, "faces": 0}
        solve = parabolic.solve_cyclic_tridiag
        k, dk = exact_quasilinear_conductivity()

        def counted_solve(*args):
            counts["solves"] += 1
            return solve(*args)

        def counted_k(w):
            counts["faces"] += 1
            return k(w)

        monkeypatch.setattr(parabolic, "solve_cyclic_tridiag", counted_solve)
        traj = solve_quasilinear_divergence(exact_family(512), counted_k, dk, 1.0,
                                            SolverConfig(dt=1e-3, scheme=scheme))
        steps = traj.step_times.size - 1
        assert steps == 1000 and counts["solves"] <= 1.05 * steps
        assert counts["faces"] == steps + counts["solves"]

    @pytest.mark.parametrize("data, scheme, dt, nsteps", [
        ("exact", "crank-nicolson", 1e-3, 1000),
        ("exact", "implicit-euler", 1e-3, 1000),
        # the predictor overshoots the fronts: the range check rejects it at some steps
        ("square-wave", "crank-nicolson", 1e-2, 20),
    ])
    def test_states_match_the_lagged_start(self, data, scheme, dt, nsteps):
        # Newton against Picard iteration started from u_n at every step;
        # measured 9.3e-14 and 1.7e-13 (exact family, grid 512) and 2.9e-13
        # (square wave), against the bound 1e-12 (1 + sup |u0|)
        if data == "exact":
            u0 = exact_family(512)
        else:
            u0 = CircleField(2 * math.pi, np.repeat([0.9, -0.9], 64))
        k, dk = exact_quasilinear_conductivity()
        cfg = SolverConfig(dt=dt, scheme=scheme, save_every=1)
        traj = solve_quasilinear_divergence(u0, k, dk, nsteps * dt, cfg)
        # the predictors 2 u_n - u_{n-1} of steps 2.. that leave the widened range
        low, high = parabolic._widened_range(u0)
        predictors = 2.0 * traj.states[1:-1] - traj.states[:-2]
        rejected = (predictors.min(axis=1) < low) | (predictors.max(axis=1) > high)
        assert rejected.any() == (data == "square-wave")
        # the reference: every step's Picard iteration starts from u_n
        h, theta = u0.h, cfg.theta
        stop = parabolic._NEWTON_TOLERANCE * (1.0 + np.max(np.abs(u0.samples)))
        u, ref = u0.samples, [u0.samples]
        for _ in range(nsteps):
            rhs = u + (1.0 - theta) * cfg.dt * apply_divergence(k(_face_mean(u)), u, h)
            v = u
            for _ in range(parabolic._NEWTON_SOLVES):
                vnext = divergence_theta_solve(k(_face_mean(v)), rhs, theta * cfg.dt, h)
                done = np.max(np.abs(vnext - v)) <= stop
                v = vnext
                if done:
                    break
            else:
                raise AssertionError("reference Picard iteration stalled")
            u = v
            ref.append(u)
        scale = 1.0 + np.max(np.abs(u0.samples))
        assert np.max(np.abs(traj.states - np.array(ref))) <= 1e-12 * scale

    def test_the_predictor_reaches_the_monitor_hook(self):
        # k, the stepper's one hook, monitors the face states: the roll
        # average of each state the step evaluates
        u0 = exact_family(64)
        k, dk = exact_quasilinear_conductivity()
        seen = []

        def hook(w):
            seen.append(w.copy())
            return k(w)

        produce = _newton_stepper(u0, hook, dk, SolverConfig(dt=1e-2, scheme="crank-nicolson"))
        u1, u2, u3 = produce(u0.samples, np.arange(1, 4))

        def faces(v):
            return 0.5 * (v + np.roll(v, -1))

        # step 1 starts from u_0: its faces serve the explicit half and the residual
        assert seen[0].tobytes() == faces(u0.samples).tobytes()
        assert not any(np.array_equal(w, faces(u0.samples)) for w in seen[1:])
        for prev, cur in ((u0.samples, u1), (u1, u2)):
            assert any(np.array_equal(w, faces(2.0 * cur - prev)) for w in seen)
        # the least face coefficient of the evaluations
        assert produce.least == min(k(w).min() for w in seen)


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
    def _banded(dl, d, du, du2, ipiv, b, overwrite_b=0):
        ab = np.zeros((3, d.size))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        return solve_banded((1, 1), ab, b, check_finite=False), 0

    @pytest.mark.parametrize("scheme", ["crank-nicolson", "implicit-euler"])
    def test_dgtsv_step_equals_solve_banded_bitwise(self, monkeypatch, scheme):
        # the step solves with the LAPACK dgttrf factors of its matrix; with the
        # factorization left out and each solve by solve_banded((1, 1)) (LAPACK
        # dgtsv) in its place, every state keeps its bits
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=1)
        direct = solve_linear_interval(*self.ARGS, cfg)[1]
        monkeypatch.setattr(parabolic, "dgttrf", lambda dl, d, du: (dl, d, du, None, None, 0))
        monkeypatch.setattr(parabolic, "dgttrs", self._banded)
        assert solve_linear_interval(*self.ARGS, cfg)[1].tobytes() == direct.tobytes()

    def test_singular_system_raises(self, monkeypatch):
        monkeypatch.setattr(parabolic, "dgttrf", lambda dl, d, du: (dl, d, du, None, None, 2))
        monkeypatch.setattr(parabolic, "dgttrs", None)  # raised before step 1 is solved
        with pytest.raises(np.linalg.LinAlgError, match="dgttrf info 2"):
            solve_linear_interval(*self.ARGS, SolverConfig(dt=1e-3))


def _python(code: str) -> list:
    """The words a fresh interpreter prints for ``code``, egf on its path."""
    src = str(pathlib.Path(parabolic.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.split()


class TestLapackBinding:
    """dgtsv, dgttrf and dgttrs come from scipy's compiled LAPACK module,
    without the package init of scipy.linalg."""

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
                "print(*(getattr(sys.modules['egf.parabolic'], f) is getattr(scipy.linalg.lapack, f) "
                "for f in ('dgtsv', 'dgttrf', 'dgttrs')))")
        assert _python(code) == ["True"] * 3

    def test_solve_banded_is_imported_on_first_access(self):
        assert parabolic.solve_banded is solve_banded
        with pytest.raises(AttributeError, match="has no attribute 'solve_tridiagonal'"):
            parabolic.solve_tridiagonal

    def test_missing_scipy_raises_import_error(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="egf needs scipy"):
            parabolic._flapack()

    def test_missing_lapack_module_raises_import_error(self, monkeypatch, tmp_path):
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations.append(str(tmp_path))
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match="scipy has no compiled LAPACK module .*_flapack"):
            parabolic._flapack()


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
        assert np.max(np.abs(traj.states[-1] - expected)) < 5e-3

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValidationError):
            theta_solution(0.1, 0.0)


class TestDecayFit:
    def test_pure_exponential(self):
        ts = np.linspace(0, 5, 60)
        K, alpha = fit_exponential_decay(ts, 2.0 * np.exp(-ts))
        assert alpha == pytest.approx(1.0, abs=1e-10)
        assert K == pytest.approx(2.0, rel=1e-9)

    def test_exact_quasilinear_rate(self):
        # sup-norm of the exact solution decays exactly like e^-t
        ts = np.linspace(0, 3, 31)
        x = np.linspace(0, 2 * math.pi, 512)
        sups = [np.max(np.abs(exact_quasilinear_solution(t, x))) for t in ts]
        _, alpha = fit_exponential_decay(ts, sups)
        assert alpha >= 1.0 - 0.02

    def test_constant_series(self):
        _, alpha = fit_exponential_decay(np.linspace(0, 2, 20), np.full(20, 1.5))
        assert alpha == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_series(self):
        _, alpha = fit_exponential_decay(np.linspace(0, 2, 20), np.zeros(20))
        assert alpha == math.inf

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            fit_exponential_decay([0, 1], [1, 0.5])


def parabolicity_check(A: np.ndarray) -> tuple[bool, float]:
    """Smallest eigenvalue c of the symmetric part of A; parabolic iff c > 0.

    c is the best constant in <A v, v> >= c <v, v>.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("need a square matrix")
    c = float(np.min(np.linalg.eigvalsh(0.5 * (M + M.T))))
    return c > 0.0, c


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
        from egf.symfun import power_sums, sigma_from_tau

        sig = sigma_from_tau(power_sums((0.3, 1.1, 2.0)))
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
