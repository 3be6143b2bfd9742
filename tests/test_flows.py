import math

import numpy as np
import pytest

from egf import flows
from egf.errors import EllipticityLossError, ValidationError
from egf.flows import (
    MeanCurvatureState,
    TauFunction,
    TwistedState,
    UmbilicalState,
    VolumeTracker,
    circle_derivative,
    conformal_ode_system,
    converge_criterion,
    evolve_tau_heat,
    evolve_umbilical,
    ftau_conformal_flow,
    prescribed_mean_curvature_flow,
    sigma_conformal_flow,
    track_volume,
    twisted_product_flow,
    umbilical_metric_samples,
)
from egf.parabolic import CircleField, SolverConfig, solve_heat_circle
from egf.symfun import (
    CurvatureSpectrum,
    eval_F,
    eval_Psi,
    f_recursion_constants,
    power_sums,
    sigma_from_tau,
)

TWO_PI = 2 * math.pi


def cos_field(n=128, amp=1.0, freq=1, offset=0.0):
    x = np.arange(n) * TWO_PI / n
    return CircleField(TWO_PI, offset + amp * np.cos(freq * x))


def psi2(lam):
    return 2.0 * np.asarray(lam, dtype=float)


def psi2_prime(lam):
    return np.full_like(np.asarray(lam, dtype=float), 2.0)


def test_circle_derivative_matches_roll_formula_bitwise():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((5, 32))
    s[2], s[3, ::2] = 0.0, -0.0
    h = TWO_PI / 32
    ref = (np.roll(s, -1, axis=1) - np.roll(s, 1, axis=1)) / (2.0 * h)
    assert circle_derivative(s, h).tobytes() == ref.tobytes()
    assert all(circle_derivative(r, h).tobytes() == e.tobytes() for r, e in zip(s, ref))


def test_trapezoid_accumulate_matches_loop_over_several_blocks():
    # 700 rows span three row blocks; zero rows check the sign of zero sums
    rng = np.random.default_rng(4)
    rate = rng.standard_normal((700, 8)) * 10.0 ** rng.integers(-5, 5, (700, 1))
    rate[100:400] = 0.0
    coef = rng.uniform(0.0, 1e-2, 699)
    start = np.zeros(8)
    ref = [start]
    for i in range(1, 700):
        ref.append(ref[-1] - coef[i - 1] * (rate[i - 1] + rate[i]))
    assert flows._trapezoid_accumulate(start, coef, rate.copy()).tobytes() == (
        np.asarray(ref).tobytes()
    )


class TestUmbilical:
    def test_conformal_factor_matches_step_loop_bitwise(self):
        lam0 = cos_field(n=64, amp=0.3)
        cfg = SolverConfig(dt=1e-2, save_every=1)
        traj = evolve_umbilical(UmbilicalState.initial(lam0), psi2, psi2_prime, 0.3, cfg)
        conf = [np.zeros(64)]
        for i in range(1, traj.times.size):
            dt = traj.times[i] - traj.times[i - 1]
            flux_old = circle_derivative(psi2(traj.lam[i - 1]), lam0.h)
            flux_new = circle_derivative(psi2(traj.lam[i]), lam0.h)
            conf.append(conf[-1] - 0.5 * dt * (flux_old + flux_new))
        assert np.asarray(conf).tobytes() == traj.conf.tobytes()

    def test_psi_2lambda_is_plain_heat(self):
        lam0 = cos_field(n=256, amp=0.3)
        traj = evolve_umbilical(
            UmbilicalState.initial(lam0),
            psi2,
            psi2_prime,
            0.5,
            SolverConfig(dt=1e-4, scheme="crank-nicolson"),
        )
        x = lam0.nodes()
        expected = 0.3 * math.exp(-0.5) * np.cos(x)
        assert np.max(np.abs(traj.lam[-1] - expected)) < 1e-4

    def test_constant_lambda_frozen(self):
        lam0 = CircleField(TWO_PI, np.full(64, 0.4))
        traj = evolve_umbilical(
            UmbilicalState.initial(lam0), psi2, psi2_prime, 1.0, SolverConfig(dt=1e-2)
        )
        assert np.allclose(traj.lam[-1], 0.4, atol=1e-13)
        assert np.allclose(traj.conf[-1], 0.0, atol=1e-13)

    def test_sign_violating_psi_rejected(self):
        lam0 = cos_field(amp=1.0)
        with pytest.raises(ValidationError):
            evolve_umbilical(
                UmbilicalState.initial(lam0),
                lambda u: u**2,
                lambda u: 2.0 * u,  # psi' changes sign on [-1.1, 1.1]
                0.1,
                SolverConfig(dt=1e-3),
            )

    def test_volume_decreases_under_speed_two_flow(self):
        # d(vol)/dt = -(n/2) integral lam psi(lam) dvol < 0 for psi = 2 lam;
        # density weight exp(-n int lam0) keeps div N = -tau_1 consistent.
        n_leaf = 1
        lam0 = cos_field(n=256, amp=0.3)
        cfg = SolverConfig(dt=1e-3, save_every=1)
        traj = evolve_umbilical(UmbilicalState.initial(lam0), psi2, psi2_prime, 0.5, cfg)
        x = lam0.nodes()
        h = lam0.h
        c0 = np.concatenate([[0.0], np.cumsum(0.5 * (lam0.samples[1:] + lam0.samples[:-1]) * h)])
        rho0 = np.exp(-n_leaf * c0)
        tracker = VolumeTracker(n_leaf, TWO_PI, rho0)
        vols = [tracker.vol]
        for i in range(1, traj.times.size):
            lam = traj.lam[i]
            trS = n_leaf * (-circle_derivative(psi2(lam), h))
            track_volume(tracker, CircleField(TWO_PI, trS), traj.times[i] - traj.times[i - 1])
            vols.append(tracker.vol)
        vols = np.asarray(vols)
        assert np.all(np.diff(vols) < 0.0)
        # rate check at t=0 against (8.2): dV/dt = -(n/2) int lam psi rho ds
        expected_rate = -(n_leaf / 2.0) * np.sum(lam0.samples * psi2(lam0.samples) * rho0) * h
        observed_rate = (vols[1] - vols[0]) / cfg.dt
        assert observed_rate == pytest.approx(expected_rate, rel=5e-3)

    def test_conf_gradient_identity(self):
        # for psi = 2 lam the accumulated factor satisfies
        # d_s conf = -2 (lam_t - lam_0): integrate d_t(d_s conf) = -2 d_t lam
        lam0 = cos_field(n=256, amp=0.3)
        traj = evolve_umbilical(
            UmbilicalState.initial(lam0),
            psi2,
            psi2_prime,
            0.4,
            SolverConfig(dt=2e-4, scheme="crank-nicolson"),
        )
        h = lam0.h
        for i in (len(traj.times) // 2, len(traj.times) - 1):
            lhs = circle_derivative(traj.conf[i], h)
            rhs = -2.0 * (traj.lam[i] - lam0.samples)
            assert np.max(np.abs(lhs - rhs)) < 5e-4

    def test_chart_roundtrip_recovers_lambda(self):
        from egf.chartgeom import ChartMetric, weingarten_from_chart

        lam0 = cos_field(n=512, amp=0.25)
        traj = evolve_umbilical(
            UmbilicalState.initial(lam0),
            psi2,
            psi2_prime,
            0.3,
            SolverConfig(dt=1e-3, scheme="crank-nicolson"),
        )
        idx = len(traj.times) - 1
        x0, g00, gij = umbilical_metric_samples(
            lam0, CircleField(TWO_PI, traj.conf[idx]), leaf_dim=2
        )
        ext = weingarten_from_chart(ChartMetric(x0, g00, gij))
        lam_rec = ext.A[:, 0, 0]
        off = np.abs(ext.A[:, 0, 1]).max() + np.abs(ext.A[:, 1, 0]).max()
        assert off == 0.0
        # interior comparison (one-sided stencils at the chart ends are noisier)
        sl = slice(2, -2)
        assert np.max(np.abs(lam_rec[sl] - traj.lam[idx][sl])) < 5e-4


class TestTauHeat:
    def test_constant_stationary(self):
        tau1 = CircleField(TWO_PI, np.full(64, 2.2))
        traj = evolve_tau_heat([tau1], 1.0, SolverConfig(dt=1e-2))
        assert np.allclose(traj.taus[0, -1], 2.2, atol=1e-13)

    def test_cos_decay_to_harmonic_limit(self):
        tau1 = cos_field(n=256)
        T = 1.0
        traj = evolve_tau_heat([tau1], T, SolverConfig(dt=1e-4, scheme="crank-nicolson"))
        x = tau1.nodes()
        assert np.max(np.abs(traj.taus[0, -1] - math.exp(-T) * np.cos(x))) < 1e-4
        # long-time limit is the initial mean (zero here)
        long = evolve_tau_heat([tau1], 12.0, SolverConfig(dt=1e-2))
        assert np.max(np.abs(long.taus[0, -1])) < 1e-5

    def test_derivative_also_satisfies_heat_equation(self):
        # N(tau_1) of the solution equals the solution from N(tau_1) data
        tau1 = cos_field(n=256, amp=0.7)
        h = tau1.h
        cfg = SolverConfig(dt=1e-3)
        a = evolve_tau_heat([tau1], 0.5, cfg)
        d0 = CircleField(TWO_PI, circle_derivative(tau1.samples, h))
        b = evolve_tau_heat([d0], 0.5, cfg)
        got = circle_derivative(a.taus[0, -1], h)
        assert np.max(np.abs(got - b.taus[0, -1])) < 1e-10


class TestTwisted:
    def test_fiber_constant_stationary(self):
        phi0 = np.tile(np.linspace(0.2, 0.8, 16)[:, None], (1, 32))
        state = TwistedState(phi0, TWO_PI, n=2)
        traj = twisted_product_flow(state, 1.0, SolverConfig(dt=1e-2))
        assert np.max(np.abs(traj.phi[-1] - phi0)) < 1e-13

    def test_eigenfunction_decay_with_time_rescale(self):
        # phi = a(x) cos y decays like e^(-t/n)
        nx, ny, n = 12, 128, 3
        xb = np.linspace(-1, 1, nx)
        y = np.arange(ny) * TWO_PI / ny
        phi0 = (1 + xb**2)[:, None] * np.cos(y)[None, :]
        state = TwistedState(phi0, TWO_PI, n=n)
        T = 1.5
        traj = twisted_product_flow(state, T, SolverConfig(dt=1e-3, scheme="crank-nicolson"))
        expected = math.exp(-T / n) * phi0
        assert np.max(np.abs(traj.phi[-1] - expected)) < 5e-4
        assert np.allclose(traj.limit, 0.0, atol=1e-15)

    def test_fiber_mean_conserved_per_base_point(self):
        rng = np.random.default_rng(9)
        phi0 = rng.uniform(-1, 1, (10, 64))
        state = TwistedState(phi0, TWO_PI, n=2)
        traj = twisted_product_flow(state, 1.0, SolverConfig(dt=1e-2))
        means0 = phi0.mean(axis=1)
        for snap in traj.phi:
            assert np.max(np.abs(snap.mean(axis=1) - means0)) < 1e-12

    def test_torus_converges_to_flat_product(self):
        # n = 1 twisted torus: sup distance of e^phi to e^(fiber mean) -> 0
        ny = 64
        y = np.arange(ny) * TWO_PI / ny
        phi0 = 0.4 * np.cos(y)[None, :] + np.zeros((8, 1))
        state = TwistedState(phi0, TWO_PI, n=1)
        traj = twisted_product_flow(state, 8.0, SolverConfig(dt=1e-2))
        assert traj.warp_sup_distance[-1] < 2e-3
        assert np.all(np.diff(traj.warp_sup_distance) <= 1e-12)


class TestPrescribedMeanCurvature:
    def test_stationary_when_matched(self):
        F = cos_field(n=64, amp=0.5)
        state = MeanCurvatureState(F.copy(), F)
        traj = prescribed_mean_curvature_flow(state, 1.0, SolverConfig(dt=1e-2))
        assert np.max(traj.residual_sup) < 1e-13

    def test_zero_target_reduces_to_tau_heat(self):
        tau0 = cos_field(n=128, amp=0.8)
        zero = CircleField(TWO_PI, np.zeros(128))
        cfg = SolverConfig(dt=1e-3)
        a = prescribed_mean_curvature_flow(MeanCurvatureState(tau0, zero), 0.7, cfg)
        b = evolve_tau_heat([tau0], 0.7, cfg)
        assert np.max(np.abs(a.tau1[-1] - b.taus[0, -1])) < 1e-12
        # Reeb integral identity: zero-mean tau_1 keeps zero mean
        assert abs(a.tau1[-1].mean()) < 1e-13

    def test_relaxation_to_cos_target(self):
        n = 256
        F = cos_field(n=n)
        tau0 = CircleField(TWO_PI, np.zeros(n))
        T = 2.0
        traj = prescribed_mean_curvature_flow(
            MeanCurvatureState(tau0, F), T, SolverConfig(dt=1e-4, scheme="crank-nicolson")
        )
        x = F.nodes()
        expected = (1 - math.exp(-T)) * np.cos(x)
        assert np.max(np.abs(traj.tau1[-1] - expected)) < 1e-4

    def test_mean_conservation_of_w(self):
        rng = np.random.default_rng(5)
        tau0 = CircleField(TWO_PI, rng.uniform(-1, 1, 128))
        F = cos_field(n=128)
        traj = prescribed_mean_curvature_flow(
            MeanCurvatureState(tau0, F), 1.0, SolverConfig(dt=1e-3)
        )
        assert np.max(np.abs(traj.mean_w - traj.mean_w[0])) < 1e-12

    def test_nonzero_average_target_rejected(self):
        tau0 = cos_field(n=64)
        bad = cos_field(n=64, offset=0.3)
        with pytest.raises(ValidationError):
            prescribed_mean_curvature_flow(
                MeanCurvatureState(tau0, bad), 1.0, SolverConfig(dt=1e-2)
            )

    @pytest.mark.parametrize("amp", [0.0, 0.7])
    def test_conformal_factor_matches_step_loop_bitwise(self, amp):
        # reference: the per-step trapezoid sum over the same heat solve;
        # n = 3 makes the coefficient inexact, and amp = 0 keeps every
        # increment zero, where the sign of the zero sum must match too
        x = np.arange(64) * TWO_PI / 64
        tau0 = CircleField(TWO_PI, amp * np.sin(3 * x))
        F = CircleField(TWO_PI, np.zeros(64))
        cfg = SolverConfig(dt=1e-2, scheme="crank-nicolson", save_every=1)
        traj = prescribed_mean_curvature_flow(MeanCurvatureState(tau0, F), 0.5, cfg, n=3)
        ref = solve_heat_circle(CircleField(TWO_PI, tau0.samples - F.samples), 0.5, cfg)
        conf = [np.zeros(64)]
        for i in range(1, ref.states.shape[0]):
            dt = ref.times[i] - ref.times[i - 1]
            g_old = circle_derivative(ref.states[i - 1], tau0.h)
            g_new = circle_derivative(ref.states[i], tau0.h)
            conf.append(conf[-1] - (2.0 / 3) * 0.5 * dt * (g_old + g_new))
        assert np.asarray(conf).tobytes() == traj.conf.tobytes()


def scaled_tau_k(n, k):
    """f(tau) = (2/n) tau_k with exact gradient."""

    def func(tau):
        return 2.0 / n * tau[k - 1]

    def grad(tau):
        g = np.zeros_like(tau)
        g[k - 1] = 2.0 / n
        return g

    return TauFunction(n, func, grad)


class TestFtauConformal:
    def test_scaled_tau1_reduces_to_heat(self):
        # f = (2/n) tau_1: a = 1, plain heat on tau_1
        n = 2
        spec = CurvatureSpectrum((0.4, 1.0))
        consts = f_recursion_constants(power_sums(spec))
        tau1 = cos_field(n=256, amp=0.3, offset=1.4)
        T = 0.5
        traj = ftau_conformal_flow(
            tau1, scaled_tau_k(n, 1), consts, T, SolverConfig(dt=1e-4, scheme="crank-nicolson")
        )
        x = tau1.nodes()
        expected = 1.4 + 0.3 * math.exp(-T) * np.cos(x)
        assert np.max(np.abs(traj.taus[0, -1] - expected)) < 1e-4

    def test_tau2_identity_propagates(self):
        # independently integrating the tau_2 chain with the same drive
        # matches F_2(tau_1(t))
        n = 2
        spec = CurvatureSpectrum((0.5, 1.1))
        tau0 = power_sums(spec)
        consts = f_recursion_constants(tau0)
        tau1 = cos_field(n=256, amp=0.2, offset=tau0.tau[0])
        cfg = SolverConfig(dt=1e-3, save_every=1)
        traj = ftau_conformal_flow(tau1, scaled_tau_k(n, 1), consts, 0.3, cfg)
        h = tau1.h
        # drive: dtau_1/dt = -(n/2) N(s) => N(s) = -(2/n) dtau_1/dt;
        # chain: dtau_2/dt = -tau_1 N(s) = (2/n) tau_1 dtau_1/dt
        tau2 = np.asarray(eval_F(2, traj.taus[0, 0], consts))
        for i in range(1, traj.times.size):
            dtau1 = traj.taus[0, i] - traj.taus[0, i - 1]
            mid = 0.5 * (traj.taus[0, i] + traj.taus[0, i - 1])
            tau2 = tau2 + (2.0 / n) * mid * dtau1
        expected = np.asarray(eval_F(2, traj.taus[0, -1], consts))
        assert np.max(np.abs(tau2 - expected)) < 1e-6

    def test_tau2_flow_requires_positive_tau1(self):
        # f = (2/n) tau_2 has a = (2/n) F_1 = (2/n) tau_1: negative tau_1
        # loses parabolicity immediately
        n = 2
        spec = CurvatureSpectrum((-1.0, -0.2))
        consts = f_recursion_constants(power_sums(spec))
        tau1 = cos_field(n=64, amp=0.1, offset=-1.2)
        with pytest.raises(EllipticityLossError):
            ftau_conformal_flow(tau1, scaled_tau_k(n, 2), consts, 0.1, SolverConfig(dt=1e-3))

    def test_constant_f_loses_ellipticity(self):
        n = 2
        spec = CurvatureSpectrum((0.4, 1.0))
        consts = f_recursion_constants(power_sums(spec))
        f = TauFunction(n, lambda tau: np.ones_like(tau[0]), lambda tau: np.zeros_like(tau))
        tau1 = cos_field(n=64, amp=0.1, offset=1.0)
        with pytest.raises(EllipticityLossError):
            ftau_conformal_flow(tau1, f, consts, 0.1, SolverConfig(dt=1e-3))

    def test_sigma_variant_runs_parabolic(self):
        # f = (2/n) sigma_2: a_sigma = (n-1)/n Psi_1 = (n-1)/n sigma_1 > 0
        n = 2
        spec = CurvatureSpectrum((0.5, 1.1))
        consts = f_recursion_constants(power_sums(spec))
        sig = sigma_from_tau(power_sums(spec))
        sigma1 = cos_field(n=128, amp=0.2, offset=sig.sigma[1])
        traj = sigma_conformal_flow(
            sigma1, scaled_tau_k(n, 2), consts, 0.2, SolverConfig(dt=1e-3)
        )
        # sigma_1 relaxes toward its mean; sigma_2 = Psi_2(sigma_1) throughout
        assert traj.taus.shape[0] == n
        dev = np.max(np.abs(traj.taus[0] - sig.sigma[1]), axis=1)
        assert dev[-1] < dev[0]


    @pytest.mark.parametrize("flow", [ftau_conformal_flow, sigma_conformal_flow])
    def test_mismatched_n_rejected(self, flow):
        # constants built for n = 3 with an n = 2 coefficient function
        consts = f_recursion_constants(power_sums(CurvatureSpectrum((0.4, 0.7, 1.0))))
        tau1 = cos_field(n=64, amp=0.1, offset=1.0)
        with pytest.raises(ValidationError):
            flow(tau1, scaled_tau_k(2, 1), consts, 0.1, SolverConfig(dt=1e-3))

    @pytest.mark.parametrize("basis", [eval_F, eval_Psi])
    def test_batched_reconstruction_matches_rows_bitwise(self, basis):
        # the flows rebuild u_k = B_k(u_1) on the whole (S, N) state array
        consts = f_recursion_constants(power_sums(CurvatureSpectrum((-0.3, 0.4, 0.7, 1.2))))
        states = np.random.default_rng(3).uniform(-2.0, 2.0, (37, 61))
        for k in range(0, consts.n + 1):
            rows = np.asarray([basis(k, row, consts) for row in states])
            assert basis(k, states, consts).tobytes() == rows.tobytes()


class TestVolumeTracker:
    def test_zero_deformation(self):
        tracker = VolumeTracker.uniform(2, TWO_PI, 64, vol0=3.0)
        zero = CircleField(TWO_PI, np.zeros(64))
        for _ in range(10):
            track_volume(tracker, zero, 0.1)
        assert tracker.vol == pytest.approx(3.0, rel=1e-14)

    def test_constant_conformal_trace_exponential(self):
        # tr S = n s const: vol(t) = vol(0) exp(n s t / 2) exactly
        n, s = 3, -0.4
        tracker = VolumeTracker.uniform(n, TWO_PI, 32, vol0=2.0)
        field = CircleField(TWO_PI, np.full(32, n * s))
        for _ in range(100):
            track_volume(tracker, field, 0.01)
        assert tracker.vol == pytest.approx(2.0 * math.exp(n * s * 1.0 / 2), rel=1e-12)
        assert tracker.normalization_factor == pytest.approx(
            tracker.vol ** (-2.0 / n), rel=1e-14
        )

    def test_history_and_positive(self):
        tracker = VolumeTracker.uniform(1, TWO_PI, 16)
        track_volume(tracker, CircleField(TWO_PI, np.zeros(16)), 0.5)
        assert len(tracker.history) == 2
        assert tracker.history[-1][0] == pytest.approx(0.5)


class TestConformalODE:
    def test_zero_drive_frozen(self):
        times, tau, sig = conformal_ode_system(
            lambda t: 0.0, np.array([3.0, 5.0]), np.array([3.0, 2.0]), 1.0, 1e-3
        )
        assert np.allclose(tau[-1], [3.0, 5.0])
        assert np.allclose(sig[-1], [3.0, 2.0])

    def test_constant_drive_quadratic_oracle(self):
        # n = 2, N(s) = 1: tau_1(t) = tau_1(0) - t,
        # tau_2(t) = tau_2(0) - tau_1(0) t + t^2/2; phi_2 constant
        t10, t20 = 3.0, 5.0
        times, tau, sig = conformal_ode_system(
            lambda t: 1.0, np.array([t10, t20]), np.array([3.0, 2.0]), 1.0, 1e-4
        )
        T = times[-1]
        assert tau[-1, 0] == pytest.approx(t10 - T, abs=5e-11)
        assert tau[-1, 1] == pytest.approx(t20 - t10 * T + T**2 / 2, abs=1e-10)
        phi2 = tau[:, 1] - tau[:, 0] ** 2 / 2.0
        assert np.max(np.abs(phi2 - phi2[0])) < 1e-10

    def test_sigma_chain_psi2_invariance(self):
        # n = 3 chain driven by a smooth signal: psi_2 = sigma_2 - (n-1)/(2n) sigma_1^2
        n = 3
        spec = CurvatureSpectrum((0.3, 0.9, 1.7))
        tau0 = np.asarray(power_sums(spec).tau)
        sig0 = np.asarray(sigma_from_tau(power_sums(spec)).sigma[1:])
        times, tau, sig = conformal_ode_system(
            lambda t: math.sin(3 * t) + 0.4, tau0, sig0, 1.0, 1e-4
        )
        psi2 = sig[:, 1] - (n - 1) / (2.0 * n) * sig[:, 0] ** 2
        phi2 = tau[:, 1] - tau[:, 0] ** 2 / n
        assert np.max(np.abs(psi2 - psi2[0])) < 1e-9
        assert np.max(np.abs(phi2 - phi2[0])) < 1e-9


class TestConvergeCriterion:
    def test_exponential_true(self):
        ts = np.linspace(0, 10, 200)
        assert converge_criterion([(t, math.exp(-t)) for t in ts])

    def test_harmonic_false(self):
        ts = np.linspace(0, 10, 200)
        assert not converge_criterion([(t, 1.0 / (1.0 + t)) for t in ts])

    def test_all_zero_true(self):
        ts = np.linspace(0, 2, 20)
        assert converge_criterion([(t, 0.0) for t in ts])


class TestNormalization:
    def test_rescaling_gives_unit_volume(self):
        # the emitted dilation vol^(-2/n) scales the leafwise metric so
        # the rescaled volume is exactly one: phi^(n/2) vol = 1
        n = 3
        tracker = VolumeTracker.uniform(n, TWO_PI, 32, vol0=2.7)
        field = CircleField(TWO_PI, np.full(32, -0.6))
        for _ in range(40):
            track_volume(tracker, field, 0.05)
        assert tracker.normalization_factor ** (n / 2.0) * tracker.vol == pytest.approx(
            1.0, rel=1e-12
        )
