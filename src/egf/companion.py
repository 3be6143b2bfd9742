"""Generalized companion matrix B_{n,1} of a curvature spectrum.

The matrix B_{n,1} closes the infinite chain of power-sum PDEs at order
n: its characteristic polynomial is

    P_n(k) = k^n - p_1 k^(n-1) - ... - p_n,   p_i = (-1)^(i-1) sigma_i,

its eigenvalues are the principal curvatures, and v_j = (1, 2 k_j,
3 k_j^2, ..., n k_j^(n-1)) is an eigenvector for k_j.  The weighted
matrix

    Btilde = sum_{m>=1} (m/2) f_m B^(m-1)

enters the negative-definiteness hypothesis for short-time existence of
the flows.  The functions take arrays: sigma = (sigma_0 = 1, sigma_1, ...,
sigma_n), and a spectrum as any sequence of curvatures, which
:func:`egf.symfun.curvatures` checks and sorts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DefectiveSpectrumError, ValidationError
from .symfun import curvatures

__all__ = [
    "build_companion",
    "char_poly_coefficients",
    "eigenpair_check",
    "vandermonde_relation",
    "weighted_power_matrix",
]


def build_companion(sigma) -> np.ndarray:
    """Assemble B_{n,1} from sigma = (sigma_0 = 1, sigma_1, ..., sigma_n).

    Superdiagonal entry (i, i+1) is i/(i+1) (1-based), last row entry
    (n, i) is (-1)^(n-i) (n/i) sigma_{n-i+1}.
    """
    sig = [float(v) for v in sigma]
    if len(sig) < 2:
        raise ValidationError("need sigma_0..sigma_n (n+1 entries, n >= 1)")
    if sig[0] != 1.0:
        raise ValidationError("sigma_0 must equal 1")
    n = len(sig) - 1
    B = np.zeros((n, n))
    for i in range(1, n):
        B[i - 1, i] = i / (i + 1)
    for i in range(1, n + 1):
        B[n - 1, i - 1] = (-1.0) ** (n - i) * n / i * sig[n - i + 1]
    return B


def char_poly_coefficients(A: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - A) in descending powers, leading 1.

    Faddeev-LeVerrier recursion on traces of powers; for A = B_{n,1}
    expected to match ((-1)^i sigma_i) entry for entry.
    """
    n = A.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    M = np.zeros((n, n))
    for i in range(1, n + 1):
        M = A @ M + coeffs[i - 1] * np.eye(n)
        coeffs[i] = -np.trace(A @ M) / i
    return coeffs


def _eigvector(n: int, kj: float) -> np.ndarray:
    return np.array([(i + 1) * kj**i for i in range(n)])


def eigenpair_check(B: np.ndarray, k) -> float:
    """Largest normalized eigenpair residual over the spectrum ``k``.

    For each principal curvature k_j, with v_j = (1, 2 k_j, ..., n k_j^(n-1)):

        r_j = ||B v_j - k_j v_j||_inf / (1 + ||v_j||_inf)

    Returns max_j r_j.  Valid for repeated roots too (the identity does
    not require diagonalizability).
    """
    k = curvatures(k)
    if k.size != B.shape[0]:
        raise ValidationError("spectrum size does not match matrix")
    worst = 0.0
    for kj in k.tolist():
        v = _eigvector(k.size, kj)
        res = np.max(np.abs(B @ v - kj * v)) / (1.0 + np.max(np.abs(v)))
        worst = max(worst, res)
    return float(worst)


def vandermonde_relation(B: np.ndarray, k) -> float:
    """Normalized residual of B V = V D on the Vandermonde-type matrix.

    The columns of V are the eigenvectors v_j = (1, 2 k_j, ..., n k_j^(n-1)),
    i.e. V_{ij} = i k_j^(i-1) (weights proportional to the row index;
    rescaling columns leaves the relation invariant), and
    D = diag(k_1, ..., k_n).  For distinct roots V is invertible and
    V^-1 B V = D.  Raises :class:`DefectiveSpectrumError` when the
    minimal spectral gap is below 1e-8: V is (near-)singular there and
    diagonalizability is only guaranteed for distinct roots.
    """
    k = curvatures(k)
    if k.size != B.shape[0]:
        raise ValidationError("spectrum size does not match matrix")
    if k.size > 1 and np.min(np.diff(k)) < 1e-8:
        raise DefectiveSpectrumError(
            f"minimal spectral gap {np.min(np.diff(k)):.3e} < 1e-8"
        )
    i = np.arange(1, k.size + 1)[:, None]
    V = i * k[None, :] ** (i - 1)
    R = B @ V - V @ np.diag(k)
    return float(np.max(np.abs(R)) / (1.0 + np.max(np.abs(V))))


def weighted_power_matrix(f: Sequence[float], B: np.ndarray) -> np.ndarray:
    """Btilde = sum_{m=1..len(f)} (m/2) f_m B^(m-1).

    ``f`` lists f_1, f_2, ... evaluated at the point; up to n entries are
    meaningful (single-power flows with m = n still truncate through
    B^(n-1)).
    """
    n = B.shape[0]
    if len(f) > n:
        raise ValidationError(f"at most n={n} weights f_1..f_n are meaningful")
    out = np.zeros((n, n))
    for m, fm in enumerate(f, start=1):
        if fm != 0.0:
            out += (m / 2.0) * fm * np.linalg.matrix_power(B, m - 1)
    return out
