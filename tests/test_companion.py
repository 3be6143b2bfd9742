import numpy as np
import pytest

from egf.companion import (
    build_companion,
    char_poly_coefficients,
    eigenpair_check,
    vandermonde_relation,
    weighted_power_matrix,
)
from egf.errors import DefectiveSpectrumError, ValidationError
from egf.symfun import (
    curvatures,
    power_sums,
    sigma_from_tau,
)
from paper_oracles import (extended_constants, hypothesis_check_T02, tilde_A_matrix,
                           truncate_second_order)


def companion_of(*k):
    spec = curvatures(k)
    return build_companion(sigma_from_tau(power_sums(spec))), spec


class TestBuildCompanion:
    def test_n2_layout(self):
        B, _ = companion_of(1.0, 2.0)  # sigma_1 = 3, sigma_2 = 2
        assert np.allclose(B, [[0.0, 0.5], [-4.0, 3.0]])

    def test_n3_layout(self):
        B, _ = companion_of(1.0, 2.0, 3.0)  # sigma = (6, 11, 6)
        expected = [
            [0.0, 0.5, 0.0],
            [0.0, 0.0, 2.0 / 3.0],
            [3 * 6.0, -1.5 * 11.0, 6.0],
        ]
        assert np.allclose(B, expected)

    def test_n1(self):
        B, _ = companion_of(4.2)
        assert B.shape == (1, 1)
        assert B[0, 0] == pytest.approx(4.2)

    def test_rejects_bad_sigma(self):
        # sigma_0 = 1 by convention, and n >= 1 needs sigma_0 and sigma_1
        with pytest.raises(ValidationError, match="sigma_0 must equal 1"):
            build_companion((2.0, 3.0, 2.0))
        with pytest.raises(ValidationError, match="n >= 1"):
            build_companion((1.0,))

    def test_char_poly_matches_sigma_signs(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            spec = curvatures(rng.uniform(-5, 5, n))
            sig = sigma_from_tau(power_sums(spec))
            B = build_companion(sig)
            coeffs = char_poly_coefficients(B)
            expected = [(-1.0) ** i * sig[i] for i in range(n + 1)]
            for c, e in zip(coeffs, expected):
                assert abs(c - e) <= 1e-9 * (1.0 + abs(e))


class TestEigenstructure:
    def test_explicit_2x2(self):
        B, spec = companion_of(1.0, 2.0)
        v1 = np.array([1.0, 2.0])  # (1, 2 k_1) for k_1 = 1
        assert np.allclose(B @ v1, 1.0 * v1)
        assert eigenpair_check(B, spec) <= 1e-12

    def test_explicit_3x3(self):
        B, spec = companion_of(1.0, 2.0, 3.0)
        v2 = np.array([1.0, 4.0, 12.0])  # (1, 2k, 3k^2) for k = 2
        assert np.max(np.abs(B @ v2 - 2.0 * v2)) <= 1e-12 * 12
        assert eigenpair_check(B, spec) <= 1e-12

    def test_repeated_root_single_eigenvector(self):
        # defective case: the eigenpair identity still holds per root
        B, spec = companion_of(1.5, 1.5)
        assert eigenpair_check(B, spec) <= 1e-12

    def test_vandermonde_2x2(self):
        B, spec = companion_of(1.0, 2.0)
        # columns are the eigenvectors (1, 2 k_j)
        V = np.array([[1.0, 1.0], [2.0, 4.0]])
        D = np.diag([1.0, 2.0])
        assert np.allclose(B @ V, V @ D)
        assert vandermonde_relation(B, spec) <= 1e-12

    def test_vandermonde_n1(self):
        B, spec = companion_of(0.7)
        assert vandermonde_relation(B, spec) <= 1e-15

    def test_vandermonde_random_n4(self):
        rng = np.random.default_rng(8)
        k = np.sort(rng.uniform(-5, 5, 4))
        while np.min(np.diff(k)) < 1e-3:
            k = np.sort(rng.uniform(-5, 5, 4))
        B, spec = companion_of(*k)
        assert vandermonde_relation(B, spec) <= 1e-9

    def test_vandermonde_defective_rejected(self):
        B, spec = companion_of(1.5, 1.5, 3.0)
        with pytest.raises(DefectiveSpectrumError):
            vandermonde_relation(B, spec)

    def test_permuted_spectrum_bit_identical(self):
        # both checks sort the spectrum they take, so its order is not read
        k = np.array([0.9, -1.3, 2.4, 0.2])
        B, spec = companion_of(*k)
        for check in (eigenpair_check, vandermonde_relation):
            assert check(B, k[::-1]) == check(B, spec)
            assert check(B, list(k)) == check(B, spec)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_weighted_power_spectrum(self, n):
        # spectrum of (m/2) B^(m-1) is {(m/2) k_j^(m-1)}
        rng = np.random.default_rng(20 + n)
        k = np.sort(rng.uniform(-2, 2, n))
        while n > 1 and np.min(np.diff(k)) < 1e-2:
            k = np.sort(rng.uniform(-2, 2, n))
        B, spec = companion_of(*k)
        for m in range(1, n + 1):
            f = [0.0] * m
            f[m - 1] = 1.0
            M = weighted_power_matrix(f, B)
            got = np.sort(np.linalg.eigvals(M).real)
            want = np.sort(m / 2.0 * k ** (m - 1))
            assert np.allclose(got, want, atol=1e-7)


class TestWeightedMatrices:
    def test_f1_half_identity(self):
        B, _ = companion_of(0.3, 1.7, -2.0)
        assert np.allclose(weighted_power_matrix([1.0], B), 0.5 * np.eye(3))

    def test_f2_gives_B(self):
        B, _ = companion_of(1.0, 2.0)
        assert np.allclose(weighted_power_matrix([0.0, 1.0], B), B)

    def test_f3_squared_matrix_entries(self):
        # (3/2) B_{3,1}^2 in closed form: first rows shift, last row
        # (9/2) s1 s3, (9/4)(s3 - s1 s2), (3/2)(s1^2 - s2)
        rng = np.random.default_rng(4)
        spec = curvatures(rng.uniform(-2, 2, 3))
        sig = sigma_from_tau(power_sums(spec))
        s1, s2, s3 = sig[1], sig[2], sig[3]
        B = build_companion(sig)
        M = weighted_power_matrix([0.0, 0.0, 1.0], B)
        expected = np.array(
            [
                [0.0, 0.0, 0.5],
                [3 * s3, -1.5 * s2, s1],
                [4.5 * s1 * s3, 2.25 * (s3 - s1 * s2), 1.5 * (s1**2 - s2)],
            ]
        )
        assert np.allclose(M, expected, rtol=1e-12, atol=1e-12)

    def test_too_many_weights(self):
        B, _ = companion_of(1.0, 2.0)
        with pytest.raises(ValidationError):
            weighted_power_matrix([1.0, 1.0, 1.0], B)

    def test_tilde_A_zero_partials(self):
        tau = power_sums((0.5, 1.5, 2.5))
        A = tilde_A_matrix(tau, np.zeros((3, 3)))
        assert np.allclose(A, 0.0)

    def test_tilde_A_n1(self):
        # n = 1: A_11 = (1/2) tau_0 f_{0,tau_1} with tau_0 = n = 1
        tau = np.array([2.0])
        A = tilde_A_matrix(tau, np.array([[3.0]]))
        assert A[0, 0] == pytest.approx(0.5 * 1.0 * 3.0)

    def test_tilde_A_first_power_shape(self):
        # f_m = f delta_{m1}: A_ij = (i/2) tau_i df/dtau_j
        spec = curvatures((0.5, 1.5, 2.5))
        tau = power_sums(spec)
        grad = np.array([0.2, -0.7, 1.1])
        partials = np.zeros((3, 3))
        partials[1] = grad
        A = tilde_A_matrix(tau, partials)
        i = np.arange(1, 4)[:, None]
        expected = i / 2.0 * tau[:, None] * grad[None, :]
        assert np.allclose(A, expected)

    def test_tilde_A_overflow_requires_consts(self):
        spec = curvatures((0.5, 1.5, 2.5))
        tau = power_sums(spec)
        partials = np.zeros((3, 3))
        partials[2] = 1.0  # m = 2 touches tau_{i+1}, up to tau_4
        with pytest.raises(ValidationError):
            tilde_A_matrix(tau, partials)
        A = tilde_A_matrix(tau, partials, extended_constants(tau))
        # row i holds (i/2) tau_{i+1}: check against true power sums
        for i in range(1, 4):
            want = i / 2.0 * float(np.sum(spec ** (i + 1)))
            assert np.allclose(A[i - 1], want, rtol=1e-10)


class TestHypothesisT02:
    def test_negative_identity(self):
        ok, margin = hypothesis_check_T02(-np.eye(4), np.zeros((4, 4)))
        assert ok and margin == pytest.approx(-1.0)

    def test_positive_identity(self):
        ok, margin = hypothesis_check_T02(np.eye(4), np.zeros((4, 4)))
        assert not ok and margin == pytest.approx(1.0)

    def test_positive_f_with_zero_tilde_A_fails(self):
        # (1/2) f Id + 0 with f = const > 0 is positive definite
        B, _ = companion_of(0.4, 1.1, 2.2)
        Btilde = weighted_power_matrix([2.0], B)  # f index m=1, f == 2
        ok, margin = hypothesis_check_T02(Btilde, np.zeros((3, 3)))
        assert not ok and margin == pytest.approx(1.0)


class TestTruncation:
    def test_m1_diagonal(self):
        _, spec = companion_of(1.0, 2.0, 3.0)
        sig = sigma_from_tau(power_sums(spec))
        sys1 = truncate_second_order(sig, 1)
        assert np.allclose(sys1.principal, 0.5 * np.eye(3))

    def test_m2_n2_example(self):
        sig = sigma_from_tau((3.0, 5.0))
        sys2 = truncate_second_order(sig, 2)
        assert np.allclose(sys2.principal, [[0.0, 0.5], [-4.0, 3.0]])
        # row 2 encodes dtau_2/dt = (tau_2 - tau_1^2) dxx tau_1 + tau_1 dxx tau_2
        tau1, tau2 = 3.0, 5.0
        assert sys2.principal[1, 0] == pytest.approx(tau2 - tau1**2)
        assert sys2.principal[1, 1] == pytest.approx(tau1)

    def test_m_out_of_range(self):
        sig = sigma_from_tau((3.0, 5.0))
        with pytest.raises(ValidationError):
            truncate_second_order(sig, 3)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_first_order_closure_identity(self, n, m):
        # Exact pointwise identity behind the truncation: for fields
        # tau_j(x) built from smooth k_j(x),
        #   d_x tau_{i+p} = ((i+p)/i) * sum_l (B^p)_{il} d_x tau_l,  p = m-1.
        rng = np.random.default_rng(n * 10 + m)
        coef = rng.uniform(-0.5, 0.5, (n, 3))
        xs = np.linspace(0.0, 2 * np.pi, 7)[:3]
        h = 1e-6
        p = m - 1
        for x0 in xs:

            def kfields(x):
                return np.array(
                    [
                        1.5 * (j + 1) / n
                        + coef[j, 0] * np.sin(x + j)
                        + coef[j, 1] * np.cos(2 * x)
                        + coef[j, 2] * np.sin(3 * x - j)
                        for j in range(n)
                    ]
                )

            def tau_j(x, j):
                return float(np.sum(kfields(x) ** j))

            sig = sigma_from_tau(power_sums(kfields(x0)))
            Bp = np.linalg.matrix_power(build_companion(sig), p)
            for i in range(1, n + 1):
                lhs = (tau_j(x0 + h, i + p) - tau_j(x0 - h, i + p)) / (2 * h)
                rhs = (i + p) / i * sum(
                    Bp[i - 1, l - 1]
                    * (tau_j(x0 + h, l) - tau_j(x0 - h, l))
                    / (2 * h)
                    for l in range(1, n + 1)
                )
                assert lhs == pytest.approx(rhs, abs=1e-5, rel=1e-6)

    def test_second_order_closure_with_remainder(self):
        # d_xx tau_{n+1} = (n+1)/n * row_n(B) d_xx tau + first-order rest;
        # the rest equals sum_l d_x[(B)_{nl}] d_x tau_l (evaluated by FD).
        n = 3
        rng = np.random.default_rng(99)
        coef = rng.uniform(-0.4, 0.4, (n, 2))

        def kfields(x):
            return np.array(
                [
                    1.0 + 0.4 * j + coef[j, 0] * np.sin(x + j) + coef[j, 1] * np.cos(2 * x)
                    for j in range(n)
                ]
            )

        def tau_j(x, j):
            return float(np.sum(kfields(x) ** j))

        def b_row(x):
            sig = sigma_from_tau(power_sums(kfields(x)))
            return build_companion(sig)[n - 1]

        x0, h = 0.7, 1e-4

        def d1(f):
            return (f(x0 + h) - f(x0 - h)) / (2 * h)

        def d2(f):
            return (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2

        lhs = d2(lambda x: tau_j(x, n + 1))
        row = b_row(x0)
        principal = (n + 1) / n * sum(
            row[l - 1] * d2(lambda x, l=l: tau_j(x, l)) for l in range(1, n + 1)
        )
        drow = [(b_row(x0 + h)[l] - b_row(x0 - h)[l]) / (2 * h) for l in range(n)]
        remainder = (n + 1) / n * sum(
            drow[l - 1] * d1(lambda x, l=l: tau_j(x, l)) for l in range(1, n + 1)
        )
        assert lhs == pytest.approx(principal + remainder, rel=5e-4)


class TestShortTimeHypothesisIntegration:
    def test_diagonal_flow_satisfies_hypothesis(self):
        # the speed-2 diagonal flow has Btilde = -Id (f_1 = -2, constant
        # coefficients, zero partials): negative definite with margin -1
        spec = curvatures((0.2, 0.9, 1.7))
        tau = power_sums(spec)
        B = build_companion(sigma_from_tau(tau))
        Btilde = weighted_power_matrix([-2.0], B)
        Atilde = tilde_A_matrix(tau, np.zeros((3, 3)))
        ok, margin = hypothesis_check_T02(Btilde, Atilde)
        assert ok and margin == pytest.approx(-1.0)

    def test_tau1_conformal_flow_hypothesis_depends_on_sign(self):
        # f_m = f(tau) delta_{m1} with f = -2/n tau_1: Btilde = (f/2) Id,
        # Atilde_ij = (i/2) tau_i df/dtau_j; negative tau_1 flips the verdict
        n = 2
        for k, expect in (((0.5, 1.2), True), ((-1.2, -0.5), False)):
            spec = curvatures(k)
            tau = power_sums(spec)
            fval = -2.0 / n * tau[0]
            B = build_companion(sigma_from_tau(tau))
            Btilde = weighted_power_matrix([fval], B)
            partials = np.zeros((n, n))
            partials[1, 0] = -2.0 / n
            Atilde = tilde_A_matrix(tau, partials)
            ok, _ = hypothesis_check_T02(Btilde, Atilde)
            assert ok == expect
