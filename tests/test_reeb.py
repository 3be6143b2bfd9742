import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import egf
from egf.errors import ValidationError
from egf.parabolic import SolverConfig, _d_x
from egf.reeb import (
    ReebGeometry,
    _default_alpha,
    _default_alpha_prime,
    evolve_reeb_lambda,
    expansion_slope,
    gaussian_curvature,
    reconstruct_metric,
    reeb_setup,
)
from reeb_oracles import (converge_criterion, gauss_cross_check, graph_curvature_check,
                          kernel_lambda, n_curve_map, n_curve_residual)


@pytest.fixture(scope="module")
def geom():
    return reeb_setup(n_grid=1024)


@pytest.fixture(scope="module")
def evolved(geom):
    """(times, lam, V) of the evolution up to T = 0.1."""
    cfg = SolverConfig(dt=2e-4, scheme="crank-nicolson")
    return evolve_reeb_lambda(geom, 0.1, cfg)


def exponent(geom, V):
    """The metric exponent U = -sin(alpha) V."""
    return -np.sin(geom.alpha) * V


def curvature(geom, U):
    """K of the metric with exponent U."""
    _, _, g22, det = reconstruct_metric(U, geom)
    return gaussian_curvature(U, g22, det, geom.h)


class TestSetup:
    def test_default_lambda0(self, geom):
        i0 = geom.n_nodes // 2
        assert geom.x[i0] == 0.0
        assert geom.lam0[i0] == pytest.approx(math.pi / 2, rel=1e-12)
        assert geom.lam0[0] == 0.0 and geom.lam0[-1] == 0.0
        assert np.all(geom.lam0 >= 0.0)

    def test_graph_curvature_cross_check(self):
        assert graph_curvature_check(_default_alpha, _default_alpha_prime, 0.5) < 1e-8

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValidationError):
            reeb_setup(alpha=lambda x: 0.4 * math.pi * np.asarray(x), n_grid=64)
        with pytest.raises(ValidationError):
            reeb_setup(
                alpha=lambda x: -0.5 * math.pi * np.asarray(x),
                alpha_prime=lambda x: np.full_like(np.asarray(x, float), -0.5 * math.pi),
                n_grid=64,
            )


def test_no_egf_entry_point_imports_scipy_integrate():
    # quad serves only the test oracles; a run, a sweep or egf verify does
    # not pay for its import
    src = str(pathlib.Path(egf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, egf.cli, egf.runner, egf.acceptance; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestNCurveMap:
    def test_zero_length_identity(self):
        pts = np.array([-0.7, -0.2, 0.0, 0.4, 0.9])
        phi, stat = n_curve_map(_default_alpha, 0.0, pts)
        assert np.array_equal(phi, pts)
        assert stat.tolist() == [False, False, True, False, False]

    def test_origin_stationary(self):
        phi, stat = n_curve_map(_default_alpha, 3.0, [0.0])
        assert phi[0] == 0.0 and stat[0]

    def test_small_s_taylor(self):
        # phi_s(x) ~ x - s sin(alpha(x)) + O(s^2)
        x0, s = 0.5, 1e-3
        phi, _ = n_curve_map(_default_alpha, s, [x0])
        expected = x0 - s * math.sin(math.pi / 4)
        assert phi[0] == pytest.approx(expected, abs=1e-6)

    def test_implicit_integral_residual(self):
        x0, s = 0.5, 0.8
        phi, _ = n_curve_map(_default_alpha, s, [x0])
        assert n_curve_residual(_default_alpha, x0, float(phi[0]), s) < 1e-8

    def test_flow_moves_toward_center(self):
        phi, _ = n_curve_map(_default_alpha, 1.0, [0.5, -0.5])
        assert 0.0 < phi[0] < 0.5
        assert -0.5 < phi[1] < 0.0


class TestEvolution:
    def test_zero_data_stays_zero(self, geom):
        _, lam, _ = evolve_reeb_lambda(
            geom, 0.05, SolverConfig(dt=1e-3), lam0=np.zeros(geom.n_nodes)
        )
        assert np.max(np.abs(lam[-1])) == 0.0

    def test_V_matches_step_loop_bitwise(self, geom):
        # reference: V = (dt / 2) d_x P with P the running pair sums of lam,
        # summed as deviations from lam_0 in a loop over every step; the
        # per-step trapezoid sum of d_x lam it replaced agrees to 1e-12 (1 +
        # sup |V|)
        lam0 = geom.lam0 + 0.05 * np.sin(math.pi * geom.x)  # V_t(0) != 0
        cfg = SolverConfig(dt=1e-3, scheme="crank-nicolson", save_every=1)
        times, lam, V_run = evolve_reeb_lambda(geom, 0.1, cfg, lam0=lam0)
        V = np.zeros_like(lam)
        total = np.zeros(geom.n_nodes)
        for k in range(1, times.size):
            total += lam[k] - lam[0]
            pairs = 2.0 * total - (lam[k] - lam[0]) + (2 * k) * lam[0]
            V[k] = 0.5 * cfg.dt * _d_x(pairs, geom.h)
        assert V_run.tobytes() == V.tobytes()
        trapezoid = np.zeros_like(lam)
        for i in range(1, times.size):
            dt = times[i] - times[i - 1]
            trapezoid[i] = trapezoid[i - 1] + 0.5 * dt * (
                _d_x(lam[i - 1], geom.h) + _d_x(lam[i], geom.h)
            )
        assert np.max(np.abs(V_run - trapezoid)) <= 1e-12 * (1.0 + np.max(np.abs(trapezoid)))

    def test_final_V_does_not_depend_on_the_snapshot_cadence(self, geom):
        # the running sum takes every step in step order, whatever rows are kept
        # (1,000 steps: the default cadence keeps every 5th)
        finals = [evolve_reeb_lambda(geom, 0.1, SolverConfig(
            dt=1e-4, scheme="crank-nicolson", save_every=every))[2][-1] for every in (1, 7, 50, 0)]
        assert all(V.tobytes() == finals[0].tobytes() for V in finals[1:])

    def test_boundary_pinned_exactly(self, evolved):
        _, lam, _ = evolved
        assert np.all(lam[:, 0] == 0.0)
        assert np.all(lam[:, -1] == 0.0)

    def test_sup_norm_non_increasing(self, evolved):
        _, lam, _ = evolved
        sup = np.max(np.abs(lam), axis=1)
        assert np.all(np.diff(sup) <= 1e-12)

    def test_center_value_frozen(self, geom, evolved):
        # the degenerate point x = 0 sits at infinite arclength along the
        # N-curves: nothing reaches it, so its value never moves
        i0 = geom.n_nodes // 2
        _, lam, _ = evolved
        assert lam[-1, i0] == pytest.approx(math.pi / 2, rel=1e-12)

    def test_pointwise_decay_away_from_center(self, geom):
        _, lam, _ = evolve_reeb_lambda(geom, 0.5, SolverConfig(dt=5e-4, scheme="crank-nicolson"))
        window = (np.abs(geom.x) >= 0.1) & (np.abs(geom.x) <= 0.9)
        assert np.all(lam[-1][window] < geom.lam0[window])

    def test_evenness_preserved(self, geom, evolved):
        # geometry, data and pinning are mirror symmetric, so lam stays even
        lam = evolved[1][-1]
        assert np.max(np.abs(lam - lam[::-1])) < 1e-10

    def test_cross_method_agreement(self, geom):
        # x-space (drift-included) vs arclength heat kernel on [0.2, 0.9]
        T = 0.5
        _, lam, _ = evolve_reeb_lambda(geom, T, SolverConfig(dt=5e-4, scheme="crank-nicolson"))
        xe = np.linspace(0.2, 0.9, 29)
        lam_x = np.interp(xe, geom.x, lam[-1])
        lam_k = kernel_lambda(geom, _default_alpha, _default_alpha_prime, T, xe)
        assert np.max(np.abs(lam_x - lam_k)) < 1e-4

    @pytest.mark.parametrize("scheme, bound", [("crank-nicolson", 1.9), ("implicit-euler", 0.95)])
    def test_time_order_by_self_convergence(self, scheme, bound):
        # grid 256 held, dt halved from 4e-3 to 2.5e-4 up to T = 0.1:
        # successive final-state differences of lambda and V shrink as dt^p;
        # measured p = 2.000 and 0.986-0.998, so the degenerate centre does
        # not lower the order
        geom = reeb_setup(n_grid=256)
        runs = [evolve_reeb_lambda(geom, 0.1, SolverConfig(dt=dt, scheme=scheme))
                for dt in (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)]
        for field, idx in (("lam", 1), ("V", 2)):
            states = [run[idx][-1] for run in runs]
            diffs = [np.max(np.abs(a - b)) for a, b in zip(states, states[1:])]
            orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
            assert min(orders) >= bound, (field, orders)

    def test_conformal_speed_integral_diverges(self, geom):
        # the conformal speed sup|2 sin(a) d_x lam| decays only diffusively
        # (the N-curves are infinite lines), so its time integral diverges:
        # consistent with the metrics NOT converging as t -> infinity
        times, lam, _ = evolve_reeb_lambda(geom, 2.0, SolverConfig(dt=2e-3))
        sin_a = np.sin(geom.alpha)
        speeds = []
        for i, t in enumerate(times):
            dlam = np.gradient(lam[i], geom.h)
            speeds.append((float(t), float(np.max(np.abs(2.0 * sin_a * dlam)))))
        assert not converge_criterion(speeds)


class TestMetric:
    def test_initial_metric_is_identity(self, geom):
        g11, g12, g22, _ = reconstruct_metric(np.zeros(geom.n_nodes), geom)
        assert np.allclose(g11, 1.0, atol=1e-15)
        assert np.allclose(g22, 1.0, atol=1e-15)
        assert np.allclose(g12, 0.0, atol=1e-15)

    def test_determinant_identity(self, geom, evolved):
        U = exponent(geom, evolved[2][-1])
        det = reconstruct_metric(U, geom)[3]
        assert np.max(np.abs(det - np.exp(-U))) <= 1e-12

    def test_center_row(self, geom, evolved):
        # U(0) = 0 exactly, so g11(0) = 1
        i0 = geom.n_nodes // 2
        g11 = reconstruct_metric(exponent(geom, evolved[2][-1]), geom)[0]
        assert g11[i0] == pytest.approx(1.0, abs=1e-14)

    def test_exponent_grows_while_det_stays_positive(self, geom):
        # operationalized non-convergence: for each t the determinant is
        # bounded away from zero, but sup |U_t| keeps growing
        sups = []
        for T in (0.25, 0.5, 1.0):
            _, _, V = evolve_reeb_lambda(geom, T, SolverConfig(dt=1e-3))
            U = exponent(geom, V[-1])
            det = reconstruct_metric(U, geom)[3]
            assert np.min(det) > 0.0
            sups.append(np.max(np.abs(U)))
        assert sups[0] < sups[1] < sups[2]
        assert sups[2] > 1.5 * sups[0]


class TestCurvature:
    def test_flat_at_t0(self, geom):
        K = curvature(geom, np.zeros(geom.n_nodes))
        # cos^2 + sin^2 carries ~1e-16 noise; two derivatives divide by h^2
        assert np.max(np.abs(K)) < 1e-9

    def test_center_value_small(self, geom, evolved):
        K = curvature(geom, exponent(geom, evolved[2][-1]))
        i0 = geom.n_nodes // 2
        assert abs(K[i0]) < 1e-6

    def test_curvature_is_even(self, geom, evolved):
        # mirror symmetry of the whole construction forces K(-x) = K(x);
        # in particular K cannot change sign across x = 0
        K = curvature(geom, exponent(geom, evolved[2][-1]))
        assert np.max(np.abs(K - K[::-1])) < 1e-6 * (1 + np.max(np.abs(K)))

    def test_expansion_slope_both_sides_vanish(self, geom, evolved):
        # V_t(0) = 0 by parity, so the fitted slope and the closed-form
        # reference -(3/8) pi^3 V_t(0) are both numerical zeros
        V = evolved[2][-1]
        U = exponent(geom, V)
        slope, target = expansion_slope(curvature(geom, U), U, V, geom)
        assert abs(slope) < 1e-8
        assert abs(target) < 1e-8

    def test_cross_check_t0(self, geom):
        res = gauss_cross_check(geom.lam0, np.zeros(geom.n_nodes), geom)
        assert np.max(res[5:-5]) < 1e-8

    def test_cross_check_evolved(self, geom, evolved):
        _, lam, V = evolved
        res = gauss_cross_check(lam[-1], exponent(geom, V[-1]), geom)
        window = (np.abs(geom.x) >= 0.2) & (np.abs(geom.x) <= 0.8)
        assert np.max(res[window]) < 1e-5

    def test_non_smooth_exponent_reported(self, geom):
        rng = np.random.default_rng(0)
        noisy = exponent(geom, 5.0 * rng.standard_normal(geom.n_nodes))
        with pytest.raises(ValidationError):
            curvature(geom, noisy)

    def test_geodesic_ansatz_zero_residual(self):
        # lam = 0 with constant leaf angle: every term in both formulas dies
        n = 64
        x = np.linspace(-1, 1, n + 1)
        geom = ReebGeometry(
            x=x,
            alpha=np.full(n + 1, 0.3),
            alpha_prime=np.zeros(n + 1),
            lam0=np.zeros(n + 1),
        )
        assert np.max(gauss_cross_check(np.zeros(n + 1), np.zeros(n + 1), geom)) == 0.0


class TestParityBroken:
    """The sign change of K across x = 0 where parity allows it.

    The pinned Reeb configuration (2048 intervals, T = 0.1, dt = 1e-4,
    Crank-Nicolson) with the odd perturbation 0.05 sin(pi x) added to
    lam_0: V_t(0) no longer vanishes, so e^-U K ~ -(3/8) pi^3 V_t(0) x
    near the center.
    """

    @pytest.fixture(scope="class")
    def broken(self):
        geom = reeb_setup(n_grid=2048)
        lam0 = geom.lam0 + 0.05 * np.sin(math.pi * geom.x)
        lam0[0] = lam0[-1] = 0.0
        cfg = SolverConfig(dt=1e-4, scheme="crank-nicolson")
        _, lam, V = evolve_reeb_lambda(geom, 0.1, cfg, lam0=lam0)
        U = exponent(geom, V[-1])
        K = curvature(geom, U)
        v0 = float(V[-1, geom.n_nodes // 2])
        assert abs(v0) > 1e-3  # the configuration is informative
        return geom, lam0, lam[-1], U, V[-1], K, v0

    def test_sign_change_near_center(self, broken):
        geom, *_, K, v0 = broken
        near = np.abs(geom.x) <= 0.01
        right = near & (geom.x > 0)
        left = near & (geom.x < 0)
        # K ~ -(3/8) pi^3 V_t(0) x: opposite to V_t(0) on the right
        assert np.all(np.sign(K[right]) == -np.sign(v0))
        assert np.all(np.sign(K[left]) == np.sign(v0))

    def test_slope_matches_closed_form(self, broken):
        geom, _, _, U, V, K, v0 = broken
        slope, target = expansion_slope(K, U, V, geom)
        closed_form = -3.0 / 8.0 * math.pi**3 * v0
        assert target == pytest.approx(closed_form, rel=1e-12)
        assert abs(slope - closed_form) <= 0.05 * abs(closed_form)

    def test_kernel_agrees_with_x_space_on_both_sides(self, broken):
        geom, lam0, lam, *_ = broken
        for side in (1.0, -1.0):
            window = (side * geom.x >= 0.2) & (side * geom.x <= 0.8)
            lam_k = kernel_lambda(geom, _default_alpha, _default_alpha_prime, 0.1, geom.x[window],
                                   lam0=lam0)
            assert np.max(np.abs(lam_k - lam[window])) <= 1e-6
