import math

import numpy as np
import pytest

from egf.errors import ValidationError
from egf.parabolic import SolverConfig, _d_x
from egf.reeb import (
    ReebGeometry,
    ReebState,
    evolve_reeb_lambda,
    expansion_slope,
    gauss_cross_check,
    gaussian_curvature,
    graph_curvature_check,
    kernel_lambda,
    n_curve_map,
    n_curve_residual,
    reconstruct_metric,
    reeb_setup,
)


@pytest.fixture(scope="module")
def geom():
    return reeb_setup(n_grid=1024)


@pytest.fixture(scope="module")
def evolved(geom):
    cfg = SolverConfig(dt=2e-4, scheme="crank-nicolson")
    return evolve_reeb_lambda(geom, 0.1, cfg)


class TestSetup:
    def test_default_lambda0(self, geom):
        i0 = geom.n_nodes // 2
        assert geom.x[i0] == 0.0
        assert geom.lam0[i0] == pytest.approx(math.pi / 2, rel=1e-12)
        assert geom.lam0[0] == 0.0 and geom.lam0[-1] == 0.0
        assert np.all(geom.lam0 >= 0.0)

    def test_graph_curvature_cross_check(self, geom):
        assert graph_curvature_check(geom, 0.5) < 1e-8

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValidationError):
            reeb_setup(alpha=lambda x: 0.4 * math.pi * np.asarray(x), n_grid=64)
        with pytest.raises(ValidationError):
            reeb_setup(
                alpha=lambda x: -0.5 * math.pi * np.asarray(x),
                alpha_prime=lambda x: np.full_like(np.asarray(x, float), -0.5 * math.pi),
                n_grid=64,
            )


class TestNCurveMap:
    def test_zero_length_identity(self, geom):
        pts = np.array([-0.7, -0.2, 0.0, 0.4, 0.9])
        phi, stat = n_curve_map(geom, 0.0, pts)
        assert np.array_equal(phi, pts)
        assert stat.tolist() == [False, False, True, False, False]

    def test_origin_stationary(self, geom):
        phi, stat = n_curve_map(geom, 3.0, [0.0])
        assert phi[0] == 0.0 and stat[0]

    def test_small_s_taylor(self, geom):
        # phi_s(x) ~ x - s sin(alpha(x)) + O(s^2)
        x0, s = 0.5, 1e-3
        phi, _ = n_curve_map(geom, s, [x0])
        expected = x0 - s * math.sin(math.pi / 4)
        assert phi[0] == pytest.approx(expected, abs=1e-6)

    def test_implicit_integral_residual(self, geom):
        x0, s = 0.5, 0.8
        phi, _ = n_curve_map(geom, s, [x0])
        assert n_curve_residual(geom, x0, float(phi[0]), s) < 1e-8

    def test_flow_moves_toward_center(self, geom):
        phi, _ = n_curve_map(geom, 1.0, [0.5, -0.5])
        assert 0.0 < phi[0] < 0.5
        assert -0.5 < phi[1] < 0.0


class TestEvolution:
    def test_zero_data_stays_zero(self, geom):
        traj = evolve_reeb_lambda(
            geom, 0.05, SolverConfig(dt=1e-3), lam0=np.zeros(geom.n_nodes)
        )
        assert np.max(np.abs(traj.lam[-1])) == 0.0

    def test_V_matches_step_loop_bitwise(self, geom):
        # reference: the per-step trapezoid sum of d_x lam over every step
        lam0 = geom.lam0 + 0.05 * np.sin(math.pi * geom.x)  # V_t(0) != 0
        cfg = SolverConfig(dt=1e-3, scheme="crank-nicolson", save_every=1)
        traj = evolve_reeb_lambda(geom, 0.1, cfg, lam0=lam0)
        V = np.zeros_like(traj.lam)
        for i in range(1, traj.times.size):
            dt = traj.times[i] - traj.times[i - 1]
            V[i] = V[i - 1] + 0.5 * dt * (
                _d_x(traj.lam[i - 1], geom.h) + _d_x(traj.lam[i], geom.h)
            )
        assert traj.V.tobytes() == V.tobytes()

    def test_boundary_pinned_exactly(self, evolved):
        assert np.all(evolved.lam[:, 0] == 0.0)
        assert np.all(evolved.lam[:, -1] == 0.0)

    def test_sup_norm_non_increasing(self, evolved):
        sup = np.max(np.abs(evolved.lam), axis=1)
        assert np.all(np.diff(sup) <= 1e-12)

    def test_center_value_frozen(self, geom, evolved):
        # the degenerate point x = 0 sits at infinite arclength along the
        # N-curves: nothing reaches it, so its value never moves
        i0 = geom.n_nodes // 2
        assert evolved.lam[-1, i0] == pytest.approx(math.pi / 2, rel=1e-12)

    def test_pointwise_decay_away_from_center(self, geom):
        traj = evolve_reeb_lambda(geom, 0.5, SolverConfig(dt=5e-4, scheme="crank-nicolson"))
        window = (np.abs(geom.x) >= 0.1) & (np.abs(geom.x) <= 0.9)
        assert np.all(traj.lam[-1][window] < geom.lam0[window])

    def test_evenness_preserved(self, geom, evolved):
        # geometry, data and pinning are mirror symmetric, so lam stays even
        lam = evolved.lam[-1]
        assert np.max(np.abs(lam - lam[::-1])) < 1e-10

    def test_cross_method_agreement(self, geom):
        # x-space (drift-included) vs arclength heat kernel on [0.2, 0.9]
        T = 0.5
        traj = evolve_reeb_lambda(geom, T, SolverConfig(dt=5e-4, scheme="crank-nicolson"))
        xe = np.linspace(0.2, 0.9, 29)
        lam_x = np.interp(xe, geom.x, traj.lam[-1])
        lam_k = kernel_lambda(geom, T, xe)
        assert np.max(np.abs(lam_x - lam_k)) < 1e-4

    def test_kernel_method_through_evolve(self, geom):
        traj = evolve_reeb_lambda(geom, 0.3, SolverConfig(dt=1e-3), method="arclength-kernel")
        assert traj.times[-1] == pytest.approx(0.3)
        assert np.max(np.abs(traj.lam[-1])) <= np.max(np.abs(geom.lam0)) + 1e-9

    def test_unknown_method_rejected(self, geom):
        with pytest.raises(ValidationError):
            evolve_reeb_lambda(geom, 0.1, SolverConfig(dt=1e-3), method="spectral")

    def test_conformal_speed_integral_diverges(self, geom):
        # the conformal speed sup|2 sin(a) d_x lam| decays only diffusively
        # (the N-curves are infinite lines), so its time integral diverges:
        # consistent with the metrics NOT converging as t -> infinity
        from egf.flows import converge_criterion

        traj = evolve_reeb_lambda(geom, 2.0, SolverConfig(dt=2e-3))
        sin_a = np.sin(geom.alpha)
        speeds = []
        for i, t in enumerate(traj.times):
            dlam = np.gradient(traj.lam[i], geom.h)
            speeds.append((float(t), float(np.max(np.abs(2.0 * sin_a * dlam)))))
        assert not converge_criterion(speeds)


class TestMetric:
    def test_initial_metric_is_identity(self, geom):
        state = ReebState(geom.lam0.copy(), np.zeros(geom.n_nodes))
        met = reconstruct_metric(state, geom)
        assert np.allclose(met.g11, 1.0, atol=1e-15)
        assert np.allclose(met.g22, 1.0, atol=1e-15)
        assert np.allclose(met.g12, 0.0, atol=1e-15)

    def test_determinant_identity(self, geom, evolved):
        state = evolved.final
        met = reconstruct_metric(state, geom)
        assert np.max(np.abs(met.det - np.exp(-state.U(geom)))) <= 1e-12

    def test_center_row(self, geom, evolved):
        # U(0) = 0 exactly, so g11(0) = 1
        i0 = geom.n_nodes // 2
        met = reconstruct_metric(evolved.final, geom)
        assert met.g11[i0] == pytest.approx(1.0, abs=1e-14)

    def test_exponent_grows_while_det_stays_positive(self, geom):
        # operationalized non-convergence: for each t the determinant is
        # bounded away from zero, but sup |U_t| keeps growing
        sups = []
        for T in (0.25, 0.5, 1.0):
            traj = evolve_reeb_lambda(geom, T, SolverConfig(dt=1e-3))
            st = traj.final
            met = reconstruct_metric(st, geom)
            assert np.min(met.det) > 0.0
            sups.append(np.max(np.abs(st.U(geom))))
        assert sups[0] < sups[1] < sups[2]
        assert sups[2] > 1.5 * sups[0]


class TestCurvature:
    def test_flat_at_t0(self, geom):
        state = ReebState(geom.lam0.copy(), np.zeros(geom.n_nodes))
        K = gaussian_curvature(reconstruct_metric(state, geom), state, geom)
        # cos^2 + sin^2 carries ~1e-16 noise; two derivatives divide by h^2
        assert np.max(np.abs(K)) < 1e-9

    def test_center_value_small(self, geom, evolved):
        state = evolved.final
        K = gaussian_curvature(reconstruct_metric(state, geom), state, geom)
        i0 = geom.n_nodes // 2
        assert abs(K[i0]) < 1e-6

    def test_curvature_is_even(self, geom, evolved):
        # mirror symmetry of the whole construction forces K(-x) = K(x);
        # in particular K cannot change sign across x = 0
        state = evolved.final
        K = gaussian_curvature(reconstruct_metric(state, geom), state, geom)
        assert np.max(np.abs(K - K[::-1])) < 1e-6 * (1 + np.max(np.abs(K)))

    def test_expansion_slope_both_sides_vanish(self, geom, evolved):
        # V_t(0) = 0 by parity, so the fitted slope and the closed-form
        # reference -(3/8) pi^3 V_t(0) are both numerical zeros
        state = evolved.final
        K = gaussian_curvature(reconstruct_metric(state, geom), state, geom)
        slope, target = expansion_slope(K, state, geom)
        assert abs(slope) < 1e-8
        assert abs(target) < 1e-8

    def test_cross_check_t0(self, geom):
        state = ReebState(geom.lam0.copy(), np.zeros(geom.n_nodes))
        res = gauss_cross_check(state, geom)
        assert np.max(res[5:-5]) < 1e-8

    def test_cross_check_evolved(self, geom, evolved):
        res = gauss_cross_check(evolved.final, geom)
        window = (np.abs(geom.x) >= 0.2) & (np.abs(geom.x) <= 0.8)
        assert np.max(res[window]) < 1e-5

    def test_non_smooth_exponent_reported(self, geom):
        rng = np.random.default_rng(0)
        noisy = ReebState(geom.lam0.copy(), 5.0 * rng.standard_normal(geom.n_nodes))
        with pytest.raises(ValidationError):
            gaussian_curvature(reconstruct_metric(noisy, geom), noisy, geom)

    def test_geodesic_ansatz_zero_residual(self):
        # lam = 0 with constant leaf angle: every term in both formulas dies
        n = 64
        x = np.linspace(-1, 1, n + 1)
        geom = ReebGeometry(
            x=x,
            alpha=np.full(n + 1, 0.3),
            alpha_prime=np.zeros(n + 1),
            lam0=np.zeros(n + 1),
            alpha_func=lambda p: np.full_like(np.asarray(p, float), 0.3),
            alpha_prime_func=lambda p: np.zeros_like(np.asarray(p, float)),
        )
        state = ReebState(np.zeros(n + 1), np.zeros(n + 1))
        assert np.max(gauss_cross_check(state, geom)) == 0.0


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
        state = evolve_reeb_lambda(geom, 0.1, cfg, lam0=lam0).final
        K = gaussian_curvature(reconstruct_metric(state, geom), state, geom)
        v0 = float(state.V[geom.n_nodes // 2])
        assert abs(v0) > 1e-3  # the configuration is informative
        return geom, lam0, state, K, v0

    def test_sign_change_near_center(self, broken):
        geom, _, _, K, v0 = broken
        near = np.abs(geom.x) <= 0.01
        right = near & (geom.x > 0)
        left = near & (geom.x < 0)
        # K ~ -(3/8) pi^3 V_t(0) x: opposite to V_t(0) on the right
        assert np.all(np.sign(K[right]) == -np.sign(v0))
        assert np.all(np.sign(K[left]) == np.sign(v0))

    def test_slope_matches_closed_form(self, broken):
        geom, _, state, K, v0 = broken
        slope, target = expansion_slope(K, state, geom, half_width=0.01)
        closed_form = -3.0 / 8.0 * math.pi**3 * v0
        assert target == pytest.approx(closed_form, rel=1e-12)
        assert abs(slope - closed_form) <= 0.05 * abs(closed_form)

    def test_kernel_agrees_with_x_space_on_both_sides(self, broken):
        geom, lam0, state, _, _ = broken
        for side in (1.0, -1.0):
            window = (side * geom.x >= 0.2) & (side * geom.x <= 0.8)
            lam_k = kernel_lambda(geom, 0.1, geom.x[window], lam0=lam0)
            assert np.max(np.abs(lam_k - state.lam[window])) <= 1e-6
