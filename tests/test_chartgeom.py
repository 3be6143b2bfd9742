import numpy as np
import pytest

from egf.chartgeom import weingarten_from_chart
from egf.errors import ValidationError


def chart_from_factor(x0, factor, n=2, g00=None):
    gij = factor[:, None, None] * np.eye(n)[None, :, :]
    g = np.ones_like(x0) if g00 is None else g00
    return x0, g, gij


class TestWeingartenFromChart:
    def test_product_metric_vanishes(self):
        x0 = np.linspace(0, 1, 21)
        b, A, tau = weingarten_from_chart(*chart_from_factor(x0, np.ones(21), n=3))
        assert np.max(np.abs(b)) == 0.0
        assert np.max(np.abs(A)) == 0.0
        assert np.max(np.abs(tau)) == 0.0

    def test_twisted_ansatz(self):
        # g_ij = e^(2 phi(x0)) delta_ij, g00 = 1: A = -phi' Id, tau_1 = -n phi'
        x0 = np.linspace(0, 2, 401)
        phi = 0.3 * np.sin(x0)
        dphi = 0.3 * np.cos(x0)
        n = 3
        _, A, tau = weingarten_from_chart(*chart_from_factor(x0, np.exp(2 * phi), n=n))
        sl = slice(2, -2)
        for i in range(n):
            assert np.max(np.abs(A[sl, i, i] + dphi[sl])) < 2e-5
        assert np.max(np.abs(tau[sl, 0] + n * dphi[sl])) < 6e-5
        # off-diagonal entries vanish identically for the isotropic ansatz
        off = A * (1 - np.eye(n))[None, :, :]
        assert np.max(np.abs(off)) == 0.0

    def test_tau1_explicit_contraction(self):
        # tau_1 = -(1/(2 sqrt(g00))) sum g_{rs,0} g^{rs}
        rng = np.random.default_rng(3)
        x0 = np.linspace(0, 1, 201)
        base = np.array([[2.0, 0.3], [0.3, 1.0]])
        bump = np.array([[0.5, -0.2], [-0.2, 0.8]])
        gij = base[None] + np.sin(x0)[:, None, None] * bump[None]
        g00 = 1.0 + 0.1 * np.cos(x0)
        _, _, tau = weingarten_from_chart(x0, g00, gij)
        h = x0[1] - x0[0]
        dg = np.gradient(gij, h, axis=0, edge_order=2)
        ginv = np.linalg.inv(gij)
        tau1 = -0.5 / np.sqrt(g00) * np.einsum("mrs,msr->m", dg, ginv)
        assert np.max(np.abs(tau[:, 0] - tau1)) < 1e-12

    def test_b_symmetry(self):
        rng = np.random.default_rng(0)
        x0 = np.linspace(0, 1, 51)
        A = rng.normal(size=(2, 2))
        spd = A @ A.T + 2 * np.eye(2)
        wob = rng.normal(size=(2, 2))
        wob = 0.1 * (wob + wob.T)
        gij = spd[None] + np.sin(3 * x0)[:, None, None] * wob[None]
        b, _, _ = weingarten_from_chart(x0, np.ones(51), gij)
        assert np.max(np.abs(b - np.transpose(b, (0, 2, 1)))) <= 1e-12

    def test_conformal_invariance_constant_scaling(self):
        # scaling gij by e^(2c) leaves A and tau unchanged
        x0 = np.linspace(0, 1, 101)
        factor = np.exp(0.4 * np.cos(2 * x0))
        m1 = chart_from_factor(x0, factor, n=2)
        m2 = chart_from_factor(x0, np.exp(2 * 0.7) * factor, n=2)
        _, A1, tau1 = weingarten_from_chart(*m1)
        _, A2, tau2 = weingarten_from_chart(*m2)
        assert np.max(np.abs(A1 - A2)) < 1e-13
        assert np.max(np.abs(tau1 - tau2)) < 1e-13

    def test_tau_matches_eigenvalue_power_sums(self):
        rng = np.random.default_rng(7)
        x0 = np.linspace(0, 1, 101)
        s = np.sin(x0)
        gij = np.empty((101, 2, 2))
        gij[:, 0, 0] = 2.0 + 0.5 * s
        gij[:, 1, 1] = 1.5 - 0.3 * s
        gij[:, 0, 1] = gij[:, 1, 0] = 0.2 * s
        _, A, tau = weingarten_from_chart(x0, np.ones(101), gij)
        for m in range(101):
            lam = np.linalg.eigvals(A[m])
            for i in range(1, 3):
                assert np.sum(lam**i).real == pytest.approx(
                    tau[m, i - 1], abs=1e-9, rel=1e-9
                )

    def test_rejects_bad_metrics(self):
        x0 = np.linspace(0, 1, 11)
        eye = np.tile(np.eye(2), (11, 1, 1))
        with pytest.raises(ValidationError, match="g00 must be positive"):
            weingarten_from_chart(x0, -np.ones(11), eye)
        gij = np.tile(np.diag([1.0, -1.0]), (11, 1, 1))
        with pytest.raises(ValidationError, match="positive definite"):
            weingarten_from_chart(x0, np.ones(11), gij)
        asym = np.tile(np.array([[1.0, 0.3], [0.0, 1.0]]), (11, 1, 1))
        with pytest.raises(ValidationError, match="symmetric"):
            weingarten_from_chart(x0, np.ones(11), asym)
        with pytest.raises(ValidationError, match="at least 3 transversal samples"):
            weingarten_from_chart(x0[:2], np.ones(2), eye[:2])
        for bad in (np.ones((11, 2)), np.tile(np.eye(2)[:, :1], (11, 1, 1)), eye[:10]):
            with pytest.raises(ValidationError, match=r"gij must be \(M, n, n\)"):
                weingarten_from_chart(x0, np.ones(11), bad)
        bent = x0.copy()
        bent[5] += 1e-3
        with pytest.raises(ValidationError, match="x0 grid must be uniform"):
            weingarten_from_chart(bent, np.ones(11), eye)
