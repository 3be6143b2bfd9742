import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egf.errors import ValidationError
from egf.symfun import (
    curvatures,
    eval_F,
    eval_Psi,
    f_recursion_constants,
    peel_psi,
    power_sums,
    sigma_from_tau,
)
from paper_oracles import (
    ellipticity_check,
    eval_Psi_prime,
    extend_power_sums,
    extended_constants,
    mu_coefficient,
    newton_transform,
    newton_transform_trace,
    psi_umbilical,
    tau_from_sigma,
)


def spectrum(*k):
    return curvatures(k)


def psi_constants(tau) -> tuple:
    """(psi_2, ..., psi_n) of the power sums tau, as criterion 4 builds them."""
    return tuple(peel_psi(len(tau), sigma_from_tau(tau)[1:].tolist()))


class TestPowerSums:
    def test_two_point(self):
        assert power_sums(spectrum(1, 2)).tolist() == [3.0, 5.0]

    def test_umbilical(self):
        # n copies of lambda: tau_j = n lambda^j
        assert power_sums(spectrum(2, 2, 2)).tolist() == [6.0, 12.0, 24.0]

    def test_three_point(self):
        assert power_sums(spectrum(1, 2, 3)).tolist() == [6.0, 14.0, 36.0]

    def test_sorted_canonical(self):
        assert spectrum(3, 1, 2).tolist() == [1.0, 2.0, 3.0]
        k = np.random.default_rng(8).uniform(-3, 3, 6)
        assert power_sums(k[::-1]).tobytes() == power_sums(np.sort(k)).tobytes()

    @pytest.mark.parametrize("k, match", [([], "n >= 1"), ([1.0, np.nan], "finite"),
                                          ([1.0, np.inf], "finite")],
                             ids=["empty", "nan", "inf"])
    def test_bad_spectrum_rejected(self, k, match):
        with pytest.raises(ValidationError, match=match):
            power_sums(k)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 7)
            k = rng.uniform(-10, 10, n)
            tau = power_sums(k)
            eps = np.finfo(float).eps
            for j in range(1, n + 1):
                exact = sum(float(v) ** j for v in sorted(k))
                assert abs(tau[j - 1] - exact) <= 8 * eps * n * (abs(exact) + 1)


class TestNewtonIdentities:
    def test_simple_sigma(self):
        assert sigma_from_tau((3, 5)).tolist() == [1.0, 3.0, 2.0]

    def test_zero_tau(self):
        assert sigma_from_tau((0, 0, 0, 0)).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_empty_tau_rejected(self):
        with pytest.raises(ValidationError, match="n >= 1"):
            sigma_from_tau(())

    def test_sigma_matches_polynomial_expansion(self):
        # oracle: coefficients of prod (x - k_i) expanded by numpy
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.uniform(-3, 3, 4)
            sig = sigma_from_tau(power_sums(k))
            coeffs = np.poly(k)  # x^4 - s1 x^3 + s2 x^2 - ...
            expected = [(-1) ** j * coeffs[j] for j in range(5)]
            assert np.allclose(sig, expected, atol=1e-10)

    def test_tau_inverse_simple(self):
        assert tau_from_sigma((1, 3, 2)).tolist() == [3.0, 5.0]

    def test_tau_of_trivial_sigma(self):
        assert tau_from_sigma((1, 0, 0, 0)).tolist() == [0.0, 0.0, 0.0]

    def test_roundtrip_from_known_roots(self):
        rng = np.random.default_rng(3)
        roots = rng.uniform(-5, 5, 5)
        tau = power_sums(roots)
        back = tau_from_sigma(sigma_from_tau(tau))
        assert np.allclose(back, tau, rtol=1e-10, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_roundtrip_property(self, ks):
        tau = power_sums(ks)
        back = tau_from_sigma(sigma_from_tau(tau))
        scale = 1.0 + max(abs(v) for v in tau)
        assert max(
            abs(a - b) for a, b in zip(back, tau)
        ) <= 1e-10 * scale


class TestRecursionConstants:
    def test_phi2_two_point(self):
        phi = f_recursion_constants(power_sums(spectrum(1, 2)))
        assert phi[0] == pytest.approx(0.5, abs=1e-14)

    def test_umbilical_phi_vanishes(self):
        phi = f_recursion_constants(power_sums(spectrum(1.5, 1.5, 1.5, 1.5)))
        for k in range(2, 5):
            assert phi[k - 2] == pytest.approx(0.0, abs=1e-10)

    def test_three_point_by_hand(self):
        # phi_2 = tau_2 - tau_1^2/n = 14 - 12 = 2
        # phi_3 = tau_3 - tau_1^3/n^2 - (3/n) phi_2 tau_1 = 36 - 24 - 12 = 0
        phi = f_recursion_constants(power_sums(spectrum(1, 2, 3)))
        assert phi[0] == pytest.approx(2.0, abs=1e-12)
        assert phi[1] == pytest.approx(0.0, abs=1e-12)

    def test_psi2_two_point(self):
        # sigma = (1, 3, 2): psi_2 = 2 - (1/4) 9 = -1/4
        psi = psi_constants(power_sums(spectrum(1, 2)))
        assert psi[0] == pytest.approx(-0.25, abs=1e-14)

    def test_psi2_umbilical_n3(self):
        # sigma = (1, 3, 3, 1): psi_2 = 3 - (2/6) 9 = 0
        psi = psi_constants(power_sums(spectrum(1, 1, 1)))
        assert psi[0] == pytest.approx(0.0, abs=1e-12)


class TestFPsiEvaluation:
    def test_F2_value(self):
        phi = f_recursion_constants(power_sums(spectrum(1, 2)))
        assert eval_F(2, 3.0, 2, phi) == pytest.approx(5.0, abs=1e-12)

    def test_F0_is_n(self):
        phi = f_recursion_constants(power_sums(spectrum(1, 2, 3)))
        for arg in (-4.0, 0.0, 17.3):
            assert eval_F(0, arg, 3, phi) == 3.0

    def test_Psi2_value(self):
        psi = psi_constants(power_sums(spectrum(1, 2)))
        assert eval_Psi(2, 3.0, 2, psi) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_F_prime_finite_difference(self, k):
        # F_k' = (k/n) F_{k-1}, the identity the f(tau) flow's Jacobian uses
        phi = f_recursion_constants(power_sums(spectrum(-1.0, 0.5, 2.0, 3.5)))
        rng = np.random.default_rng(k)
        for x in rng.uniform(-4, 4, 5):
            h = 1e-5
            fd = (eval_F(k, x + h, 4, phi) - eval_F(k, x - h, 4, phi)) / (2 * h)
            assert k / 4 * eval_F(k - 1, x, 4, phi) == pytest.approx(fd, abs=1e-8, rel=1e-7)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_Psi_prime_finite_difference(self, k):
        psi = psi_constants(power_sums(spectrum(-1.0, 0.5, 2.0, 3.5)))
        rng = np.random.default_rng(10 + k)
        for x in rng.uniform(-4, 4, 5):
            h = 1e-5
            fd = (eval_Psi(k, x + h, 4, psi) - eval_Psi(k, x - h, 4, psi)) / (2 * h)
            assert eval_Psi_prime(k, x, 4, psi) == pytest.approx(fd, abs=1e-8, rel=1e-7)

    def test_index_out_of_range(self):
        tau = power_sums(spectrum(1, 2))
        phi = f_recursion_constants(tau)
        with pytest.raises(IndexError):
            eval_F(len(phi) + 2, 0.0, 2, phi)
        with pytest.raises(IndexError):
            eval_Psi(3, 0.0, 2, psi_constants(tau))

    def test_identity_at_t0_random_spectra(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            spec = curvatures(rng.uniform(-3, 3, n))
            tau = power_sums(spec)
            sig = sigma_from_tau(tau)
            phi, psi = f_recursion_constants(tau), psi_constants(tau)
            for k in range(1, n + 1):
                assert eval_F(k, tau[0], n, phi) == pytest.approx(
                    tau[k - 1], abs=1e-9, rel=1e-9
                )
                assert eval_Psi(k, sig[1], n, psi) == pytest.approx(
                    sig[k], abs=1e-9, rel=1e-9
                )

    def test_extended_indices_match_true_power_sums(self):
        # F_k above n, with the Cayley-Hamilton-extended constants, must
        # reproduce the true power sums of the spectrum.
        spec = spectrum(1.0, 2.0, 3.0)
        tau = power_sums(spec)
        phi = extended_constants(tau)
        assert len(phi) + 1 == 4
        # the run's constants stop at n and agree with the extended ones there
        run_phi = f_recursion_constants(tau)
        assert len(run_phi) + 1 == 3
        assert phi[:2] == run_phi
        for k in range(4, len(phi) + 2):
            assert eval_F(k, tau[0], 3, phi) == pytest.approx(
                float(np.sum(spec**k)), rel=1e-12
            )


class TestNewtonTransform:
    def test_r0_identity(self):
        sig = (1.0, 3.0, 2.0)
        assert newton_transform(sig, 0) == (1.0,)

    def test_r1_coefficients_and_trace(self):
        sig = (1.0, 3.0, 2.0)
        tau = tau_from_sigma(sig)
        assert newton_transform(sig, 1) == (3.0, -1.0)
        # tr T_1 = sigma_1 tau_0 - tau_1 = 6 - 3 = 3 = (n - 1) sigma_1
        assert newton_transform_trace(sig, tau, 1) == pytest.approx(3.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_trace_identity_random(self, n):
        rng = np.random.default_rng(n)
        spec = curvatures(rng.uniform(-2, 2, n))
        tau = power_sums(spec)
        sig = sigma_from_tau(tau)
        for r in range(n + 1):
            expected = (n - r) * sig[r]
            assert newton_transform_trace(sig, tau, r) == pytest.approx(
                expected, abs=1e-10, rel=1e-10
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cayley_hamilton_contraction(self, n):
        # sum_i (-1)^i sigma_{n-i} tau_{i+j} = 0 for j = 0..3
        rng = np.random.default_rng(100 + n)
        spec = curvatures(rng.uniform(-2, 2, n))
        tau = power_sums(spec)
        sig = sigma_from_tau(tau)
        taus = extend_power_sums(tau, n + 3)
        taus = np.concatenate([[n], taus])  # tau_0..tau_{n+3}
        k = spec
        # oracle: true power sums from the spectrum
        assert np.allclose(
            taus[1:], [np.sum(k**j) for j in range(1, n + 4)], atol=1e-9
        )
        for j in range(4):
            acc = sum(
                (-1.0) ** i * sig[n - i] * taus[i + j] for i in range(n + 1)
            )
            assert abs(acc) <= 1e-9 * (1 + np.max(np.abs(taus)))

    def test_out_of_range(self):
        sig = (1.0, 3.0, 2.0)
        with pytest.raises(IndexError):
            newton_transform(sig, 3)


class TestEllipticity:
    def test_mu1_is_one(self):
        spec = spectrum(0.3, 1.1, -2.0, 4.0)
        for i in range(1, 5):
            for j in range(i, 5):
                assert mu_coefficient(1, i, j, spec) == 1.0

    def test_mu2_is_sum(self):
        spec = spectrum(0.3, 1.1, -2.0, 4.0)
        k = spec.tolist()
        for i in range(1, 5):
            for j in range(i, 5):
                assert mu_coefficient(2, i, j, spec) == pytest.approx(
                    k[i - 1] + k[j - 1]
                )

    def test_umbilical_reduction(self):
        # at an umbilical point the condition is sum m f_m lam^(m-1) < 0
        lam = 0.7
        spec = spectrum(lam, lam, lam, lam)
        f = (-1.0, 0.25, -0.3)
        holds, margin = ellipticity_check(f, spec)
        reduced = sum((m + 1) * f[m] * lam**m for m in range(3))
        assert margin == pytest.approx(reduced, rel=1e-12)
        assert holds == (reduced < 0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        spec = curvatures(rng.uniform(-2, 2, 4))
        f = tuple(rng.uniform(-1, 1, 3))
        out1, _ = ellipticity_check(f, spec)
        out2, _ = ellipticity_check(tuple(17.0 * v for v in f), spec)
        assert out1 == out2

    def test_index_errors(self):
        spec = spectrum(1, 2, 3)
        with pytest.raises(IndexError):
            mu_coefficient(3, 1, 1, spec)
        with pytest.raises(IndexError):
            mu_coefficient(1, 2, 1, spec)
        with pytest.raises(ValidationError):
            ellipticity_check((1.0,), spec)


class TestPsiUmbilical:
    def test_speed_two_flow(self):
        # f_1 = -2 gives psi = 2 lam
        val, slope, positive = psi_umbilical((0.0, -2.0), 0.8, n=2)
        assert val == pytest.approx(1.6)
        assert slope == pytest.approx(2.0)
        assert positive

    def test_zero(self):
        val, slope, positive = psi_umbilical((0.0, 0.0, 0.0), 1.3, n=3)
        assert val == 0.0 and slope == 0.0 and not positive

    def test_f1_minus_one(self):
        val, slope, _ = psi_umbilical((0.0, -1.0, 0.0), 2.2, n=3)
        assert val == pytest.approx(2.2)
        assert slope == pytest.approx(1.0)

    def test_callable_coefficients(self):
        # f_0(tau) = tau_1 at the umbilical vector is n*lam, so
        # psi = -n lam; slope -n < 0
        val, slope, positive = psi_umbilical((lambda tau: tau[0],), 0.5, n=3)
        assert val == pytest.approx(-1.5)
        assert slope == pytest.approx(-3.0, rel=1e-6)
        assert not positive


class TestVectorizedEvaluation:
    def test_eval_F_on_arrays(self):
        phi = f_recursion_constants(power_sums(spectrum(0.5, 1.5)))
        xs = np.linspace(-2, 2, 9)
        vec = eval_F(2, xs, 2, phi)
        assert vec.shape == xs.shape
        assert np.allclose(vec, [eval_F(2, float(x), 2, phi) for x in xs])

    def test_eval_Psi_on_arrays(self):
        psi = psi_constants(power_sums(spectrum(0.5, 1.5, 2.5)))
        xs = np.linspace(-1, 3, 7)
        vec = eval_Psi(2, xs, 3, psi)
        assert np.allclose(vec, [eval_Psi(2, float(x), 3, psi) for x in xs])
