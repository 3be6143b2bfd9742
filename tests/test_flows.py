import math
import pathlib

import numpy as np
import pytest

from egf import flows, parabolic
from egf.errors import EllipticityLossError, SolverError, ValidationError
from egf.flows import (
    circle_derivative,
    conformal_ode_system,
    evolve_umbilical,
    ftau_conformal_flow,
    prescribed_mean_curvature_flow,
    track_volume,
    twisted_product_flow,
    umbilical_metric_samples,
)
from egf.parabolic import (
    CircleField,
    SolverConfig,
    _second_difference,
    solve_heat_circle,
)
from egf.runner import run_scenario
from egf.scenarios import parse_scenario
from egf.symfun import (
    eval_F,
    eval_Psi,
    f_recursion_constants,
    peel_psi,
    power_sums,
    sigma_from_tau,
)
from picard_oracle import divergence_theta_solve, picard_stepper
from reeb_oracles import converge_criterion

TWO_PI = 2 * math.pi
SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def cos_field(n=128, amp=1.0, freq=1, offset=0.0):
    x = np.arange(n) * TWO_PI / n
    return CircleField(TWO_PI, offset + amp * np.cos(freq * x))


# psi by its coefficients (psi_0, psi_1, ...): 2 lam takes the propagator,
# lam + lam^3 Newton's method
PSI2 = (0.0, 2.0)
CUBIC = (0.0, 1.0, 0.0, 1.0)


def psi_values(psi, lam):
    """psi(lam), evaluated as evolve_umbilical evaluates it."""
    return np.polyval(np.asarray(psi, dtype=float)[::-1], lam)


def recording_propagator(asked, closed_form=True, make=parabolic._propagator):
    """The propagator ``make``, recording in ``asked`` the steps it is asked
    for; with ``closed_form=False`` the march takes every step and sums the
    conformal factor step by step."""

    def propagator(u0, c, h, cfg):
        produce = make(u0, c, h, cfg)

        def recorded(u, steps):
            asked.extend(steps.tolist())
            return produce(u, steps)

        recorded.closed_form, recorded.sums = closed_form, produce.sums
        return recorded

    return propagator


def assert_sparse_march(monkeypatch, flow, T, cfg):
    """``flow()`` (times, states, conf) asks the propagator for the kept steps
    only; its states have the bits of the march through every step, and conf
    is within 1e-12 (1 + sup |conf|) of that march's per-step trapezoid sum."""
    asked = []
    monkeypatch.setattr(flows, "_propagator", recording_propagator(asked))
    _, states, conf = flow()
    keep = parabolic._snapshot_steps(parabolic._nsteps(T, cfg.dt), cfg.save_every)
    assert asked == keep[1:].tolist()
    monkeypatch.setattr(flows, "_propagator", recording_propagator([], closed_form=False))
    _, dense_states, dense_conf = flow()
    assert states.tobytes() == dense_states.tobytes()
    assert np.max(np.abs(conf - dense_conf)) <= 1e-12 * (1.0 + np.max(np.abs(dense_conf)))


def test_circle_derivative_matches_roll_formula_bitwise():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((5, 32))
    s[2], s[3, ::2] = 0.0, -0.0
    h = TWO_PI / 32
    ref = (np.roll(s, -1, axis=1) - np.roll(s, 1, axis=1)) / (2.0 * h)
    assert circle_derivative(s, h).tobytes() == ref.tobytes()
    assert all(circle_derivative(r, h).tobytes() == e.tobytes() for r, e in zip(s, ref))


class TestUmbilical:
    def test_conformal_factor_matches_step_loop_bitwise(self):
        lam0 = cos_field(n=64, amp=0.3)
        cfg = SolverConfig(dt=1e-2, save_every=1)
        # the Newton route: conf = -(dt / 2) P with P the running pair sums of
        # p = d_s psi(lam), summed as deviations from p_0 in a loop over every
        # step; the per-step trapezoid it replaced agrees to 1e-12 (1 + sup |conf|)
        times, lam, got = evolve_umbilical(lam0, CUBIC, 0.3, cfg)
        flux = [circle_derivative(psi_values(CUBIC, state), lam0.h) for state in lam]
        total, conf = np.zeros(64), [np.zeros(64)]
        for k in range(1, times.size):
            total += flux[k] - flux[0]
            pairs = 2.0 * total - (flux[k] - flux[0]) + (2 * k) * flux[0]
            conf.append(0.0 - 0.5 * cfg.dt * pairs)
        assert np.asarray(conf).tobytes() == got.tobytes()
        trapezoid = [np.zeros(64)]
        for i in range(1, times.size):
            dt = times[i] - times[i - 1]
            trapezoid.append(trapezoid[-1] - 0.5 * dt * (flux[i - 1] + flux[i]))
        trapezoid = np.asarray(trapezoid)
        assert np.max(np.abs(got - trapezoid)) <= 1e-12 * (1.0 + np.max(np.abs(trapezoid)))

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_picard_matches_declared_linear_psi(self, monkeypatch, scheme):
        # psi = 2 lam, also padded with zero coefficients, takes the closed
        # form: no Newton stepper is built.  The Picard oracle on the constant
        # conductivity psi' / 2 = 1 gives the same curvature and conformal factor
        lam0 = cos_field(n=128, amp=0.3)
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=7)

        def newton(*args):
            raise AssertionError("a linear psi built a Newton stepper")

        monkeypatch.setattr(flows, "_newton_stepper", newton)
        times, lam, conf = evolve_umbilical(lam0, PSI2, 0.5, cfg)
        padded = evolve_umbilical(lam0, (0.0, 2.0, 0.0, 0.0), 0.5, cfg)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(padded, (times, lam, conf)))
        k = parabolic.Conductivity(np.ones_like, np.zeros_like, 1.0, 1.0)
        produce = picard_stepper(lam0, parabolic._quasilinear_faces(lam0, k), k.dfunc, cfg)
        picard_times, picard_lam, pairs = parabolic._march(
            lam0.samples, 0.5, cfg, produce, "oracle",
            integrand=lambda block: circle_derivative(2.0 * block, lam0.h))
        assert picard_times.tobytes() == times.tobytes()
        assert np.max(np.abs(picard_lam - lam)) <= 1e-12 * 0.3
        assert np.max(np.abs(-0.5 * cfg.dt * pairs - conf)) <= 1e-12 * 0.3

    @pytest.mark.parametrize("T, save_every", [(5.0, 0), (0.5, 7), (0.13, 0)])
    def test_linear_psi_marches_snapshot_steps_only(self, monkeypatch, T, save_every):
        lam0 = cos_field(n=128, amp=0.3)
        cfg = SolverConfig(dt=1e-3, scheme="crank-nicolson", save_every=save_every)
        assert_sparse_march(monkeypatch, lambda: evolve_umbilical(lam0, PSI2, T, cfg), T, cfg)

    def test_nonlinear_psi_needs_its_second_derivative(self, monkeypatch):
        # psi = lam + lam^3 takes Newton's method, whose Jacobian gets
        # psi'' / 2 = 3 lam from the coefficients
        slopes = []
        newton = flows._newton_stepper

        def recorded(u0, faces, slope, cfg):
            slopes.append(slope)
            return newton(u0, faces, slope, cfg)

        monkeypatch.setattr(flows, "_newton_stepper", recorded)
        evolve_umbilical(cos_field(n=64, amp=0.3), CUBIC, 0.1, SolverConfig(dt=1e-2))
        u = np.linspace(-2.0, 2.0, 9)
        assert len(slopes) == 1 and np.array_equal(slopes[0](u), 3.0 * u)

    @pytest.mark.parametrize("psi", [(), [[0.0, 2.0]], (0.0, np.inf), (np.nan, 1.0)],
                             ids=["empty", "2-d", "inf", "nan"])
    def test_psi_must_be_finite_coefficients(self, psi):
        with pytest.raises(ValidationError, match="psi must be a non-empty list"):
            evolve_umbilical(cos_field(n=64, amp=0.3), psi, 0.1, SolverConfig(dt=1e-2))

    @pytest.mark.parametrize("scheme, bound", [("crank-nicolson", 1.9), ("implicit-euler", 0.95)])
    def test_conformal_factor_time_order_by_self_convergence(self, scheme, bound):
        # linear psi, grid 128 held, dt halved from 4e-3 to 5e-4 up to T = 0.5:
        # successive final conformal factors differ by dt^p; measured p = 2.000
        # and 1.000
        lam0 = cos_field(n=128, amp=0.25)
        finals = [evolve_umbilical(lam0, PSI2, 0.5, SolverConfig(dt=dt, scheme=scheme))[2][-1]
                  for dt in (4e-3, 2e-3, 1e-3, 5e-4)]
        diffs = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
        orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
        assert min(orders) >= bound, orders

    def test_psi_2lambda_is_plain_heat(self):
        lam0 = cos_field(n=256, amp=0.3)
        _, lam, _ = evolve_umbilical(lam0, PSI2, 0.5, SolverConfig(dt=1e-4, scheme="crank-nicolson"))
        x = lam0.nodes()
        expected = 0.3 * math.exp(-0.5) * np.cos(x)
        assert np.max(np.abs(lam[-1] - expected)) < 1e-4

    def test_constant_lambda_frozen(self):
        # on the Newton route
        lam0 = CircleField(TWO_PI, np.full(64, 0.4))
        _, lam, conf = evolve_umbilical(lam0, CUBIC, 1.0, SolverConfig(dt=1e-2))
        assert np.allclose(lam[-1], 0.4, atol=1e-13)
        assert np.allclose(conf[-1], 0.0, atol=1e-13)

    def test_sign_violating_psi_rejected(self):
        lam0 = cos_field(amp=1.0)
        with pytest.raises(ValidationError):
            # psi = lam^2: psi' = 2 lam changes sign on [-1.1, 1.1]
            evolve_umbilical(lam0, (0.0, 0.0, 1.0), 0.1, SolverConfig(dt=1e-3))

    def test_psi_prime_minimum_between_samples_is_in_the_band(self):
        # psi = lam + (lam - c)^3: psi' / 2 reaches its minimum 1/2 at lam = c,
        # between any grid of probe points; a band from sampled psi' starts
        # above 1/2, and the faces near c leave it (ConductivityRangeError)
        c = 0.1
        psi = (-c**3, 1.0 + 3.0 * c**2, -3.0 * c, 1.0)
        _, lam, _ = evolve_umbilical(cos_field(n=128, amp=0.3), psi, 0.1, SolverConfig(dt=1e-2))
        assert np.all(np.isfinite(lam))

    def test_volume_decreases_under_speed_two_flow(self):
        # d(vol)/dt = -(n/2) integral lam psi(lam) dvol < 0 for psi = 2 lam;
        # density weight exp(-n int lam0) keeps div N = -tau_1 consistent.
        n_leaf = 1
        lam0 = cos_field(n=256, amp=0.3)
        cfg = SolverConfig(dt=1e-3, save_every=1)
        _, _, conf = evolve_umbilical(lam0, PSI2, 0.5, cfg)
        x = lam0.nodes()
        h = lam0.h
        c0 = np.concatenate([[0.0], np.cumsum(0.5 * (lam0.samples[1:] + lam0.samples[:-1]) * h)])
        rho0 = np.exp(-n_leaf * c0)
        # tr S = n_leaf d(conf)/dt
        vols = track_volume(rho0, n_leaf * conf, TWO_PI)
        assert np.all(np.diff(vols) < 0.0)
        # rate check at t=0 against (8.2): dV/dt = -(n/2) int lam psi rho ds
        expected_rate = -(n_leaf / 2.0) * np.sum(lam0.samples * 2.0 * lam0.samples * rho0) * h
        observed_rate = (vols[1] - vols[0]) / cfg.dt
        assert observed_rate == pytest.approx(expected_rate, rel=5e-3)

    def test_conf_gradient_identity(self):
        # for every psi the accumulated factor satisfies d_s conf = -2 (lam_t -
        # lam_0): integrate d_t(d_s conf) = -d_ss psi(lam) = -2 d_t lam.  Here
        # psi = lam + lam^3, on the Newton route
        lam0 = cos_field(n=256, amp=0.3)
        times, lam, conf = evolve_umbilical(lam0, CUBIC, 0.4,
                                            SolverConfig(dt=2e-4, scheme="crank-nicolson"))
        h = lam0.h
        for i in (len(times) // 2, len(times) - 1):
            lhs = circle_derivative(conf[i], h)
            rhs = -2.0 * (lam[i] - lam0.samples)
            assert np.max(np.abs(lhs - rhs)) < 5e-4

    def test_chart_roundtrip_recovers_lambda(self):
        from egf.chartgeom import weingarten_from_chart

        lam0 = cos_field(n=512, amp=0.25)
        times, lam, conf = evolve_umbilical(lam0, CUBIC, 0.3,
                                            SolverConfig(dt=1e-3, scheme="crank-nicolson"))
        idx = len(times) - 1
        x0, g00, gij = umbilical_metric_samples(lam0, conf[idx], leaf_dim=2)
        _, A, _ = weingarten_from_chart(x0, g00, gij)
        lam_rec = A[:, 0, 0]
        off = np.abs(A[:, 0, 1]).max() + np.abs(A[:, 1, 0]).max()
        assert off == 0.0
        # interior comparison (one-sided stencils at the chart ends are noisier)
        sl = slice(2, -2)
        assert np.max(np.abs(lam_rec[sl] - lam[idx][sl])) < 5e-4


class TestTauHeat:
    @pytest.mark.parametrize("text", [
        (SCENARIO_DIR / "heat-decay.egf").read_text(),
        "kind: tau-heat\ngrid: 64\ndt: 0.001\nT: 2\ninit: gaussian-bump\n",
    ], ids=["circle-heat-decay", "tau-heat"])
    def test_runs_march_snapshot_steps_only(self, monkeypatch, text):
        # every check and the decay fit read the snapshots: the propagator is
        # asked for the kept steps only (heat-decay: 200 of its 3,000), and the
        # run has the bits of the march through every step
        scn = parse_scenario(text)
        asked = []
        monkeypatch.setattr(parabolic, "_propagator", recording_propagator(asked))
        sparse = run_scenario(scn)
        keep = parabolic._snapshot_steps(parabolic._nsteps(scn.T, scn.dt), scn.save_every)
        assert asked == keep[1:].tolist() and len(asked) == 200
        monkeypatch.setattr(parabolic, "_propagator", recording_propagator([], closed_form=False))
        dense = run_scenario(scn)
        assert [f.tobytes() for f in sparse.fields.values()] == [
            f.tobytes() for f in dense.fields.values()]
        assert sparse.summary_rows == dense.summary_rows
        assert [c.line() for c in sparse.checks] == [c.line() for c in dense.checks]

    def test_mean_conservation_fails_on_a_leaking_propagator(self, monkeypatch):
        # a seeded defect, c k added to state k, is seen at the snapshots:
        # heat-decay's drift reads 3000 c at its last snapshot
        def leaking(u0, c, h, cfg, make=parabolic._propagator):
            produce = make(u0, c, h, cfg)

            def leaked(u, steps):
                return produce(u, steps) + 1e-13 * steps[:, None]

            leaked.closed_form, leaked.sums = True, produce.sums
            return leaked

        scn = parse_scenario((SCENARIO_DIR / "heat-decay.egf").read_text())
        assert {c.name: c.passed for c in run_scenario(scn).checks}["mean-conservation"]
        monkeypatch.setattr(parabolic, "_propagator", leaking)
        check = {c.name: c for c in run_scenario(scn).checks}["mean-conservation"]
        assert not check.passed and check.detail == "drift 3.000e-10"

    def test_constant_stationary(self):
        tau1 = CircleField(TWO_PI, np.full(64, 2.2))
        traj = solve_heat_circle(tau1, 1.0, SolverConfig(dt=1e-2))
        assert np.allclose(traj.states[-1], 2.2, atol=1e-13)

    def test_cos_decay_to_harmonic_limit(self):
        tau1 = cos_field(n=256)
        T = 1.0
        traj = solve_heat_circle(tau1, T, SolverConfig(dt=1e-4, scheme="crank-nicolson"))
        x = tau1.nodes()
        assert np.max(np.abs(traj.states[-1] - math.exp(-T) * np.cos(x))) < 1e-4
        # long-time limit is the initial mean (zero here)
        long = solve_heat_circle(tau1, 12.0, SolverConfig(dt=1e-2))
        assert np.max(np.abs(long.states[-1])) < 1e-5

    def test_derivative_also_satisfies_heat_equation(self):
        # N(tau_1) of the solution equals the solution from N(tau_1) data
        tau1 = cos_field(n=256, amp=0.7)
        h = tau1.h
        cfg = SolverConfig(dt=1e-3)
        a = solve_heat_circle(tau1, 0.5, cfg)
        d0 = CircleField(TWO_PI, circle_derivative(tau1.samples, h))
        b = solve_heat_circle(d0, 0.5, cfg)
        got = circle_derivative(a.states[-1], h)
        assert np.max(np.abs(got - b.states[-1])) < 1e-10


class TestTwisted:
    def test_fiber_constant_stationary(self):
        phi0 = np.tile(np.linspace(0.2, 0.8, 16)[:, None], (1, 32))
        _, phi, _ = twisted_product_flow(phi0, TWO_PI, 2, 1.0, SolverConfig(dt=1e-2))
        assert np.max(np.abs(phi[-1] - phi0)) < 1e-13

    def test_eigenfunction_decay_with_time_rescale(self):
        # phi = a(x) cos y decays like e^(-t/n)
        nx, ny, n = 12, 128, 3
        xb = np.linspace(-1, 1, nx)
        y = np.arange(ny) * TWO_PI / ny
        phi0 = (1 + xb**2)[:, None] * np.cos(y)[None, :]
        T = 1.5
        _, phi, _ = twisted_product_flow(phi0, TWO_PI, n, T,
                                         SolverConfig(dt=1e-3, scheme="crank-nicolson"))
        expected = math.exp(-T / n) * phi0
        assert np.max(np.abs(phi[-1] - expected)) < 5e-4
        assert np.allclose(phi0.mean(axis=1), 0.0, atol=1e-15)

    def test_fiber_mean_conserved_per_base_point(self):
        rng = np.random.default_rng(9)
        phi0 = rng.uniform(-1, 1, (10, 64))
        _, phi, _ = twisted_product_flow(phi0, TWO_PI, 2, 1.0, SolverConfig(dt=1e-2))
        means0 = phi0.mean(axis=1)
        for snap in phi:
            assert np.max(np.abs(snap.mean(axis=1) - means0)) < 1e-12

    def test_torus_converges_to_flat_product(self):
        # n = 1 twisted torus: sup distance of e^phi to e^(fiber mean) -> 0
        ny = 64
        y = np.arange(ny) * TWO_PI / ny
        phi0 = 0.4 * np.cos(y)[None, :] + np.zeros((8, 1))
        _, phi, _ = twisted_product_flow(phi0, TWO_PI, 1, 8.0, SolverConfig(dt=1e-2))
        limit = phi0.mean(axis=1)
        warp_sup_distance = np.max(np.abs(np.exp(phi) - np.exp(limit)[None, :, None]),
                                   axis=(1, 2))
        assert warp_sup_distance[-1] < 2e-3
        assert np.all(np.diff(warp_sup_distance) <= 1e-12)

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_step_loop_matches_propagator(self, scheme):
        # the theta step of the fiber flow, one batched cyclic solve per step,
        # against the closed form; measured 1.1e-13 and 7.9e-14 at amplitude 2.2
        nx, ny, n = 16, 128, 2
        xb = np.linspace(-1, 1, nx)
        y = np.arange(ny) * TWO_PI / ny
        phi = (1 + xb**2)[:, None] * np.cos(y)[None, :] + 0.3 * np.sin(5 * y)[None, :]
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=1)
        times, snaps, _ = twisted_product_flow(phi, TWO_PI, n, 0.5, cfg)
        h, theta = TWO_PI / ny, cfg.theta
        worst = 0.0
        for k in range(1, times.size):
            rhs = phi + (1 - theta) * cfg.dt / n * _second_difference(phi, h)
            phi = divergence_theta_solve(np.full(ny, 1.0 / n), rhs.T, theta * cfg.dt, h).T
            worst = max(worst, float(np.max(np.abs(phi - snaps[k]))))
        assert worst <= 1e-12 * np.max(np.abs(snaps[0]))

    @pytest.mark.parametrize("T, save_every", [(5.0, 0), (0.5, 7), (0.13, 0)])
    def test_snapshot_steps_only_and_bit_identical(self, monkeypatch, T, save_every):
        # no per-step consumer: the propagator is asked for the kept steps
        # only, and gives the bits of the march through every step
        nx, ny = 16, 128
        xb = np.linspace(-1, 1, nx)
        y = np.arange(ny) * TWO_PI / ny
        phi0 = (1 + xb**2)[:, None] * np.cos(y)[None, :]
        cfg = SolverConfig(dt=1e-3, scheme="crank-nicolson", save_every=save_every)
        asked = []
        monkeypatch.setattr(flows, "_propagator", recording_propagator(asked))
        _, phi, _ = twisted_product_flow(phi0, TWO_PI, 1, T, cfg)
        keep = parabolic._snapshot_steps(parabolic._nsteps(T, cfg.dt), save_every)
        assert asked == keep[1:].tolist()

        dense = parabolic._propagator(phi0, 1.0, TWO_PI / ny, cfg)
        stepped = lambda u, steps: dense(u, steps)
        stepped.closed_form = False
        _, states, _ = parabolic._march(phi0, T, cfg, stepped, "reference")
        assert phi.tobytes() == states.tobytes()

    @pytest.mark.parametrize("shape, fiber_length, n, message", [
        ((4, 7), TWO_PI, 1, ">= 8 fiber samples"),
        ((32,), TWO_PI, 1, ">= 8 fiber samples"),
        ((4, 8), 0.0, 1, "positive fiber length"),
        ((4, 8), -1.0, 1, "positive fiber length"),
        ((4, 8), TWO_PI, 0, "n >= 1"),
    ])
    def test_invalid_data_rejected(self, shape, fiber_length, n, message):
        with pytest.raises(ValidationError, match=message):
            twisted_product_flow(np.zeros(shape), fiber_length, n, 0.1, SolverConfig(dt=1e-2))


class TestPrescribedMeanCurvature:
    def test_stationary_when_matched(self):
        F = cos_field(n=64, amp=0.5)
        _, w, _ = prescribed_mean_curvature_flow(CircleField(TWO_PI, F.samples.copy()), F, 1.0,
                                                 SolverConfig(dt=1e-2))
        assert np.max(np.abs(w)) < 1e-13

    def test_zero_target_reduces_to_tau_heat(self):
        tau0 = cos_field(n=128, amp=0.8)
        zero = CircleField(TWO_PI, np.zeros(128))
        cfg = SolverConfig(dt=1e-3)
        _, w, _ = prescribed_mean_curvature_flow(tau0, zero, 0.7, cfg)
        tau1 = w + zero.samples
        b = solve_heat_circle(tau0, 0.7, cfg)
        assert np.max(np.abs(tau1[-1] - b.states[-1])) < 1e-12
        # Reeb integral identity: zero-mean tau_1 keeps zero mean
        assert abs(tau1[-1].mean()) < 1e-13

    def test_relaxation_to_cos_target(self):
        n = 256
        F = cos_field(n=n)
        tau0 = CircleField(TWO_PI, np.zeros(n))
        T = 2.0
        _, w, _ = prescribed_mean_curvature_flow(
            tau0, F, T, SolverConfig(dt=1e-4, scheme="crank-nicolson")
        )
        x = F.nodes()
        expected = (1 - math.exp(-T)) * np.cos(x)
        assert np.max(np.abs(w[-1] + F.samples - expected)) < 1e-4

    def test_mean_conservation_of_w(self):
        rng = np.random.default_rng(5)
        tau0 = CircleField(TWO_PI, rng.uniform(-1, 1, 128))
        F = cos_field(n=128)
        _, w, _ = prescribed_mean_curvature_flow(tau0, F, 1.0, SolverConfig(dt=1e-3))
        mean_w = w.mean(axis=1)
        assert np.max(np.abs(mean_w - mean_w[0])) < 1e-12

    @pytest.mark.parametrize("field", ["conf", "tau1"])
    @pytest.mark.parametrize("scheme, bound", [("crank-nicolson", 1.9), ("implicit-euler", 0.95)])
    def test_time_order_by_self_convergence(self, scheme, bound, field):
        # zero start relaxing to cos x, grid 128 held, dt halved from 4e-3 to
        # 5e-4 up to T = 0.5: successive final states differ by dt^p; measured
        # p = 2.000 and 0.998-1.001
        tau0, F = CircleField(TWO_PI, np.zeros(128)), cos_field(n=128)

        def final(dt):
            _, w, conf = prescribed_mean_curvature_flow(tau0, F, 0.5,
                                                        SolverConfig(dt=dt, scheme=scheme))
            return conf[-1] if field == "conf" else w[-1] + F.samples

        finals = [final(dt) for dt in (4e-3, 2e-3, 1e-3, 5e-4)]
        diffs = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
        orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
        assert min(orders) >= bound, orders

    @pytest.mark.parametrize("T, save_every", [(5.0, 0), (0.5, 7), (0.13, 0)])
    def test_snapshot_steps_only(self, monkeypatch, T, save_every):
        tau0, F = cos_field(n=128, amp=0.4, freq=3), cos_field(n=128)
        cfg = SolverConfig(dt=1e-3, scheme="crank-nicolson", save_every=save_every)
        assert_sparse_march(monkeypatch, lambda: prescribed_mean_curvature_flow(
            tau0, F, T, cfg), T, cfg)

    def test_nonzero_average_target_rejected(self):
        tau0 = cos_field(n=64)
        bad = cos_field(n=64, offset=0.3)
        with pytest.raises(ValidationError):
            prescribed_mean_curvature_flow(tau0, bad, 1.0, SolverConfig(dt=1e-2))

    @pytest.mark.parametrize("target", [cos_field(n=32), CircleField(1.0, np.cos(np.arange(64)))],
                             ids=["other-size", "other-length"])
    def test_target_on_another_grid_rejected(self, target):
        with pytest.raises(ValidationError, match="share one grid"):
            prescribed_mean_curvature_flow(cos_field(n=64), target, 1.0, SolverConfig(dt=1e-2))

    @pytest.mark.parametrize("amp", [0.0, 0.7])
    def test_conformal_factor_matches_step_loop_bitwise(self, amp):
        # oracle: the per-step trapezoid sum over the states of every step.
        # The flow takes the sum in closed form at the kept steps, so it holds
        # to 1e-12 (1 + sup |conf|); amp = 0 keeps every term zero, and there
        # the bits match, +0 included.  n = 3 makes the coefficient inexact.
        # At dt 1e-2 Crank-Nicolson's modes 16 and up have g < 0 (dt l > 2)
        # and the cos 29x term lives there; at dt 1e-4 mode 1 has 1 - g = 1e-4
        # and the sum runs over 20,000 steps.  The mean mode adds (k + 1) 0.2
        x = np.arange(64) * TWO_PI / 64
        tau0 = CircleField(TWO_PI, amp * (0.2 + np.sin(x) + np.sin(3 * x) + 0.5 * np.cos(29 * x)))
        F = CircleField(TWO_PI, np.zeros(64))
        for scheme in ("crank-nicolson", "implicit-euler"):
            for dt, T, every in ((1e-2, 0.5, 1), (1e-2, 0.5, 7), (1e-4, 2.0, 0)):
                cfg = SolverConfig(dt=dt, scheme=scheme, save_every=every)
                _, _, got = prescribed_mean_curvature_flow(tau0, F, T, cfg, n=3)
                ref = solve_heat_circle(CircleField(TWO_PI, tau0.samples - F.samples), T,
                                        SolverConfig(dt=dt, scheme=scheme, save_every=1))
                conf = [np.zeros(64)]
                for i in range(1, ref.states.shape[0]):
                    dt_i = ref.times[i] - ref.times[i - 1]
                    g_old = circle_derivative(ref.states[i - 1], tau0.h)
                    g_new = circle_derivative(ref.states[i], tau0.h)
                    conf.append(conf[-1] - (2.0 / 3) * 0.5 * dt_i * (g_old + g_new))
                keep = parabolic._snapshot_steps(parabolic._nsteps(T, dt), every)
                conf = np.asarray(conf)[keep]
                if amp == 0.0:
                    assert got.tobytes() == conf.tobytes() == np.zeros_like(conf).tobytes()
                else:
                    bound = 1e-12 * (1.0 + np.max(np.abs(conf)))
                    assert np.max(np.abs(got - conf)) <= bound, (scheme, dt)


def scaled_tau_k(n, k):
    """The gradient of f(tau) = (2/n) tau_k."""
    df = np.zeros(n)
    df[k - 1] = 2.0 / n
    return df


class TestFtauConformal:
    def test_scaled_tau1_reduces_to_heat(self):
        # f = (2/n) tau_1: a = 1, plain heat on tau_1
        n = 2
        phi = f_recursion_constants(power_sums((0.4, 1.0)))
        tau1 = cos_field(n=256, amp=0.3, offset=1.4)
        T = 0.5
        _, taus, _ = ftau_conformal_flow(
            tau1, scaled_tau_k(n, 1), phi, T, SolverConfig(dt=1e-4, scheme="crank-nicolson")
        )
        x = tau1.nodes()
        expected = 1.4 + 0.3 * math.exp(-T) * np.cos(x)
        assert np.max(np.abs(taus[0, -1] - expected)) < 1e-4

    def test_tau2_identity_propagates(self):
        # independently integrating the tau_2 chain with the same drive
        # matches F_2(tau_1(t))
        n = 2
        tau0 = power_sums((0.5, 1.1))
        phi = f_recursion_constants(tau0)
        tau1 = cos_field(n=256, amp=0.2, offset=tau0[0])
        cfg = SolverConfig(dt=1e-3, save_every=1)
        times, taus, _ = ftau_conformal_flow(tau1, scaled_tau_k(n, 1), phi, 0.3, cfg)
        # drive: dtau_1/dt = -(n/2) N(s) => N(s) = -(2/n) dtau_1/dt;
        # chain: dtau_2/dt = -tau_1 N(s) = (2/n) tau_1 dtau_1/dt
        tau2 = np.asarray(eval_F(2, taus[0, 0], n, phi))
        for i in range(1, times.size):
            dtau1 = taus[0, i] - taus[0, i - 1]
            mid = 0.5 * (taus[0, i] + taus[0, i - 1])
            tau2 = tau2 + (2.0 / n) * mid * dtau1
        expected = np.asarray(eval_F(2, taus[0, -1], n, phi))
        assert np.max(np.abs(tau2 - expected)) < 1e-6

    def test_tau2_flow_requires_positive_tau1(self):
        # f = (2/n) tau_2 has a = (2/n) F_1 = (2/n) tau_1: negative tau_1
        # loses parabolicity immediately
        n = 2
        phi = f_recursion_constants(power_sums((-1.0, -0.2)))
        tau1 = cos_field(n=64, amp=0.1, offset=-1.2)
        with pytest.raises(EllipticityLossError) as info:
            ftau_conformal_flow(tau1, scaled_tau_k(n, 2), phi, 0.1, SolverConfig(dt=1e-3))
        # raised by the faces hook at the first step's start
        assert "during conformal flow at step 1 (t = 0.001)" in str(info.value)

    def test_constant_f_loses_ellipticity(self):
        phi = f_recursion_constants(power_sums((0.4, 1.0)))
        tau1 = cos_field(n=64, amp=0.1, offset=1.0)
        with pytest.raises(EllipticityLossError):  # f = 1: df/dtau = 0
            ftau_conformal_flow(tau1, np.zeros(2), phi, 0.1, SolverConfig(dt=1e-3))

    def test_nan_coefficient_loses_ellipticity(self):
        # a NaN coefficient is a loss of parabolicity, not a Newton iteration
        # that stalls on NaN systems
        phi = f_recursion_constants(power_sums((0.5, 1.1)))
        with pytest.raises(EllipticityLossError, match="min a = nan"):
            ftau_conformal_flow(cos_field(n=64, amp=0.2, offset=1.6),
                                np.full(2, np.nan), phi, 0.1,
                                SolverConfig(dt=1e-2))

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_picard_matches_propagator(self, monkeypatch, scheme):
        # f = (2/n) tau_1 gives a = 1: a gradient that is zero after its first
        # entry takes the closed form, no Newton stepper built.  The Picard
        # oracle on the constant conductivity 1 gives the same taus
        n = 2
        phi = f_recursion_constants(power_sums((0.4, 1.0)))
        x = np.arange(128) * TWO_PI / 128
        tau1 = CircleField(TWO_PI, 1.4 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x))
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=1)

        def newton(*args):
            raise AssertionError("f = (2/n) tau_1 built a Newton stepper")

        monkeypatch.setattr(flows, "_newton_stepper", newton)
        _, closed, closed_a_min = ftau_conformal_flow(tau1, scaled_tau_k(n, 1), phi, 0.5, cfg)
        assert closed_a_min == 1.0
        k = parabolic.Conductivity(np.ones_like, np.zeros_like, 1.0, 1.0)
        produce = picard_stepper(tau1, parabolic._quasilinear_faces(tau1, k), k.dfunc, cfg)
        _, states, _ = parabolic._march(tau1.samples, 0.5, cfg, produce, "oracle")
        picard = np.stack([eval_F(k, states, n, phi) for k in (1, 2)])
        assert np.max(np.abs(picard - closed)) <= 1e-12 * np.max(np.abs(tau1.samples))

    @pytest.mark.parametrize("df", [np.ones(1), np.ones(3), np.ones((2, 1))])
    def test_gradient_needs_one_entry_per_tau(self, df):
        phi = f_recursion_constants(power_sums((0.4, 1.0)))
        with pytest.raises(ValidationError, match="df needs n = 2 entries"):
            ftau_conformal_flow(cos_field(n=64, amp=0.1, offset=1.0), df, phi, 0.1,
                                SolverConfig(dt=1e-3))

    def test_newton_route_evaluates_F_at_the_nonzero_gradient_entries(self, monkeypatch):
        # f = (2/n) tau_2 over a spectrum of 143 values +-100: each coefficient
        # evaluation calls F_1 (a) or F_0 (a'), not F_0..F_n, and the final
        # reconstruction F_1..F_n once each.  Measured 175 calls; 4,751 when
        # every evaluation built F_0..F_n
        calls = []

        def counted(*args):
            calls.append(args[0])
            return eval_F(*args)

        monkeypatch.setattr(flows, "eval_F", counted)
        spectrum = ",".join(["100", "-100"] * 71 + ["100"])
        res = run_scenario(parse_scenario(
            "kind: ftau\ngrid: 64\ndt: 0.01\nT: 0.1\nf: scaled-tau2\n"
            f"spectrum: {spectrum}\ninit: cos\ninit-amplitude: 0.2\ninit-offset: 100\n"))
        assert res.passed and len(res.fields) == 143
        assert len(calls) <= 200

    def test_picard_reports_least_coefficient_seen(self, monkeypatch):
        # f = (2/n) tau_2: a = (2/n) tau_1 on the faces; implicit Euler keeps
        # the minimum of tau_1 from falling, so the least a is the initial
        # one, by Newton's method and by the Picard oracle alike
        n = 2
        phi = f_recursion_constants(power_sums((0.5, 1.1)))
        tau1 = cos_field(n=64, amp=0.2, offset=1.6)
        faces = 0.5 * (tau1.samples + np.roll(tau1.samples, -1))
        for stepper in (flows._newton_stepper, picard_stepper):
            monkeypatch.setattr(flows, "_newton_stepper", stepper)
            _, _, a_min = ftau_conformal_flow(tau1, scaled_tau_k(n, 2), phi, 0.1,
                                              SolverConfig(dt=1e-2))
            assert a_min == pytest.approx(2.0 / n * faces.min(), rel=1e-12)

    @pytest.mark.parametrize("basis", [eval_F, eval_Psi])
    def test_batched_reconstruction_matches_rows_bitwise(self, basis):
        # the flows rebuild u_k = B_k(u_1) on the whole (S, N) state array
        tau = power_sums((-0.3, 0.4, 0.7, 1.2))
        n = tau.size
        consts = (f_recursion_constants(tau) if basis is eval_F
                  else peel_psi(n, sigma_from_tau(tau)[1:].tolist()))
        states = np.random.default_rng(3).uniform(-2.0, 2.0, (37, 61))
        for k in range(0, n + 1):
            rows = np.asarray([basis(k, row, n, consts) for row in states])
            assert basis(k, states, n, consts).tobytes() == rows.tobytes()


class TestNewtonAgainstPicard:
    """The nonlinear conformal and umbilical routes by Newton's method against
    the Picard oracle put in its place: the same discrete solution, to
    1e-12 (1 + sup |u0|), at about one solve per step (an exact Jacobian)."""

    def _both(self, monkeypatch, run):
        solves = []
        solve = parabolic.solve_cyclic_tridiag

        def counted(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(parabolic, "solve_cyclic_tridiag", counted)
        newton = run()
        newton_solves = len(solves)
        monkeypatch.setattr(flows, "_newton_stepper", picard_stepper)
        return newton, run(), newton_solves

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_ftau_scaled_tau2(self, monkeypatch, scheme):
        # f = (2/n) tau_2: a = (2/n) tau_1, a' = 2/n through F_1' = F_0 / n;
        # measured 3.5e-13 and 1.8e-13, 201 solves in 200 steps
        n = 2
        phi = f_recursion_constants(power_sums((0.5, 1.1)))
        tau1 = cos_field(n=128, amp=0.3, offset=1.6)
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=1)
        newton, picard, solves = self._both(monkeypatch, lambda: ftau_conformal_flow(
            tau1, scaled_tau_k(n, 2), phi, 0.2, cfg))
        scale = 1.0 + np.max(np.abs(tau1.samples))
        assert np.max(np.abs(newton[1] - picard[1])) <= 1e-12 * scale
        assert solves <= 1.05 * 200

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_umbilical_cubic_psi(self, monkeypatch, scheme):
        # psi = lam + lam^3: conductivity (1 + 3 lam^2) / 2, slope 3 lam;
        # measured 5.3e-13 and 2.7e-13, 201 solves in 200 steps (over 400
        # with the slope left out of the Jacobian)
        lam0 = cos_field(n=128, amp=0.5)
        cfg = SolverConfig(dt=1e-3, scheme=scheme, save_every=1)
        newton, picard, solves = self._both(monkeypatch, lambda: evolve_umbilical(
            lam0, CUBIC, 0.2, cfg))
        scale = 1.0 + np.max(np.abs(lam0.samples))
        (_, newton_lam, newton_conf), (_, picard_lam, picard_conf) = newton, picard
        assert np.max(np.abs(newton_lam - picard_lam)) <= 1e-12 * scale
        assert np.max(np.abs(newton_conf - picard_conf)) <= 1e-12 * scale
        assert solves <= 1.05 * 200


class TestVolumeTracker:
    """track_volume: the trapezoid integral of the density rho0 exp(conf / 2)."""

    def test_zero_deformation(self):
        vols = track_volume(np.full(64, 3.0 / TWO_PI), np.zeros((10, 64)), TWO_PI)
        assert vols == pytest.approx(np.full(10, 3.0), rel=1e-14)

    def test_constant_conformal_trace_exponential(self):
        # tr S = n s const, so conf = n s t: vol(t) = vol(0) exp(n s t / 2) exactly
        n, s = 3, -0.4
        t = np.linspace(0.0, 1.0, 101)
        conf = np.repeat((n * s * t)[:, None], 32, axis=1)
        vols = track_volume(np.full(32, 2.0 / TWO_PI), conf, TWO_PI)
        assert vols == pytest.approx(2.0 * np.exp(n * s * t / 2), rel=1e-12)

    def test_history_and_positive(self):
        # one volume per snapshot; one that is not positive and finite is a blow-up
        assert track_volume(np.ones(16), np.zeros((2, 16)), TWO_PI).shape == (2,)
        for rho0, conf in ((-np.ones(16), np.zeros((2, 16))),
                           (np.ones(16), np.full((2, 16), np.nan))):
            with pytest.raises(SolverError, match="blow-up"):
                track_volume(rho0, conf, TWO_PI)


class TestConformalODE:
    def test_zero_drive_frozen(self):
        times, tau, sig = conformal_ode_system(
            lambda t: 0.0, np.array([3.0, 5.0]), np.array([3.0, 2.0]), 1.0, 1e-3
        )
        assert np.allclose(tau[-1], [3.0, 5.0])
        assert np.allclose(sig[-1], [3.0, 2.0])

    @pytest.mark.parametrize("T", [-1.0, -0.1])
    def test_negative_horizon_rejected(self, T):
        with pytest.raises(ValidationError, match="nonnegative"):
            conformal_ode_system(lambda t: 1.0, np.array([3.0, 5.0]), np.array([3.0, 2.0]),
                                 T, 1e-2)

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
        tau0 = power_sums((0.3, 0.9, 1.7))
        sig0 = sigma_from_tau(tau0)[1:]
        times, tau, sig = conformal_ode_system(
            lambda t: math.sin(3 * t) + 0.4, tau0, sig0, 1.0, 1e-4
        )
        psi2 = sig[:, 1] - (n - 1) / (2.0 * n) * sig[:, 0] ** 2
        phi2 = tau[:, 1] - tau[:, 0] ** 2 / n
        assert np.max(np.abs(psi2 - psi2[0])) < 1e-9
        assert np.max(np.abs(phi2 - phi2[0])) < 1e-9


    @pytest.mark.parametrize("drive", [lambda t: math.sin(3.0 * t) + 0.4,
                                       lambda t: math.exp(-t) * math.cos(7.0 * t)],
                             ids=["sin", "damped-cos"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_component_march_matches_step_loop_bitwise(self, n, drive):
        rng = np.random.default_rng(n)
        tau0, sig0 = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
        dt, nsteps = 1e-3, 500

        # the reference: RK4 over the stacked state, one step at a time
        kt = np.arange(1, n + 1)
        ks = n - kt + 1

        def rhs(state, w):
            tau, sig = state[:n], state[n:]
            dtau, dsig = np.empty(n), np.empty(n)
            dtau[0] = dsig[0] = -(n / 2.0) * w
            dtau[1:] = -(kt[1:] / 2.0) * tau[:-1] * w
            dsig[1:] = -(ks[1:] / 2.0) * sig[:-1] * w
            return np.concatenate([dtau, dsig])

        state = np.concatenate([tau0, sig0])
        rows, times = [state], [0.0]
        for i in range(1, nsteps + 1):
            t = (i - 1) * dt
            k1 = rhs(state, drive(t))
            k2 = rhs(state + 0.5 * dt * k1, drive(t + 0.5 * dt))
            k3 = rhs(state + 0.5 * dt * k2, drive(t + 0.5 * dt))
            k4 = rhs(state + dt * k3, drive(t + dt))
            state = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            rows.append(state)
            times.append(i * dt)
        ref = np.array(rows)

        got_times, tau, sig = conformal_ode_system(drive, tau0, sig0, nsteps * dt, dt)
        assert np.array_equal(got_times, times)
        assert np.array_equal(tau, ref[:, :n])
        assert np.array_equal(sig, ref[:, n:])


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
