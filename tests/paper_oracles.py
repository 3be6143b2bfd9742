"""Formulas of arXiv 1108.5071 that the tests use as oracles; no run, sweep or
criterion calls them.  They read the library's symmetric-function algebra
(:mod:`egf.symfun`) and companion matrix (:mod:`egf.companion`).

- the inverse Newton identities (tau from sigma) and Psi_k';
- the power sums above index n by Cayley-Hamilton, and the structure
  constants that carry phi_k up to the 2n-2 a truncation can touch;
- the Newton transformations T_r(A) and their traces;
- the ellipticity quantities mu_{m;ij} and their test;
- the umbilical speed function psi;
- the weighted matrix Atilde and the negative-definiteness hypothesis for
  short-time existence;
- the principal part of the n-truncated power-sum system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from egf.companion import build_companion
from egf.errors import ValidationError
from egf.symfun import curvatures, eval_F, eval_Psi, peel_phi, sigma_from_tau


def with_tau0(tau) -> np.ndarray:
    """Return (tau_0, tau_1, ..., tau_n) with tau_0 = n prepended."""
    return np.concatenate([[float(len(tau))], tau])


def extend_power_sums(tau, upto: int) -> np.ndarray:
    """(tau_1, ..., tau_upto) with indices above n closed by Cayley-Hamilton.

        tau_j = sum_{i=1..n} (-1)^(i-1) sigma_i tau_{j-i}   for j > n,

    which is exact for any n-point spectrum (tau_0 = n).
    """
    n = len(tau)
    sig = sigma_from_tau(tau)
    full = list(with_tau0(tau))  # tau_0..tau_n
    for j in range(n + 1, upto + 1):
        full.append(
            sum((-1.0) ** (i - 1) * sig[i] * full[j - i] for i in range(1, n + 1))
        )
    return np.asarray(full[1 : upto + 1])


def extended_constants(tau0) -> tuple[float, ...]:
    """:func:`egf.symfun.f_recursion_constants` with phi carried up to
    phi_K, K = max(n, 2n-2): the power sums above index n are fixed by the
    characteristic polynomial, so the extra constants are exact, and they let
    F_k resolve every index a truncated system can produce."""
    n = len(tau0)
    return tuple(float(v) for v in peel_phi(n, extend_power_sums(tau0, max(n, 2 * n - 2))))


def tau_from_sigma(sigma) -> np.ndarray:
    """Inverse of :func:`egf.symfun.sigma_from_tau` (Newton's identities,
    reversed): (tau_1, ..., tau_n) from (sigma_0 = 1, sigma_1, ..., sigma_n).

        tau_j = sum_{i=1..j-1} (-1)^(i-1) sigma_i tau_{j-i} + (-1)^(j-1) j sigma_j
    """
    s = [float(v) for v in sigma]
    n = len(s) - 1
    tau: list[float] = []
    for j in range(1, n + 1):
        acc = (-1.0) ** (j - 1) * j * s[j]
        for i in range(1, j):
            acc += (-1.0) ** (i - 1) * s[i] * tau[j - i - 1]
        tau.append(acc)
    return np.array(tau)


def eval_Psi_prime(k: int, sigma1, n: int, psi):
    """Psi_k'(sigma_1) = ((n-k+1)/n) Psi_{k-1}(sigma_1); Psi_0' = 0."""
    if k == 0:
        s = np.asarray(sigma1, dtype=float)
        z = np.zeros_like(s)
        return z if z.ndim else 0.0
    prev = eval_Psi(k - 1, sigma1, n, psi)
    return (n - k + 1) / n * prev


def newton_transform(sigma, r: int) -> tuple[float, ...]:
    """Coefficients (c_0, ..., c_r) of T_r(A) = sum_i c_i A^i, from
    sigma = (sigma_0 = 1, sigma_1, ..., sigma_n).

    T_r(A) = sum_{i=0..r} (-1)^i sigma_{r-i} A^i, so c_i = (-1)^i sigma_{r-i}.
    """
    n = len(sigma) - 1
    if not 0 <= r <= n:
        raise IndexError(f"T_{r} undefined for n={n}")
    return tuple((-1.0) ** i * float(sigma[r - i]) for i in range(r + 1))


def newton_transform_trace(sigma, tau, r: int) -> float:
    """tr T_r(A) = sum_i c_i tau_i, contracted against (tau_0, ..., tau_r).

    Equals (n - r) sigma_r identically.
    """
    coeffs = newton_transform(sigma, r)
    taus = with_tau0(tau)
    return float(sum(c * taus[i] for i, c in enumerate(coeffs)))


def mu_coefficient(m: int, i: int, j: int, k) -> float:
    """mu_{m;ij} = sum_{a=0..m-1} k_i^a k_j^(m-1-a) for 1 <= i <= j <= n, 1 <= m < n,
    over the curvatures ``k`` sorted ascending."""
    k = curvatures(k).tolist()
    n = len(k)
    if not (1 <= m < n):
        raise IndexError(f"m={m} out of range 1..{n - 1}")
    if not (1 <= i <= j <= n):
        raise IndexError(f"pair (i={i}, j={j}) out of range for n={n}")
    ki, kj = k[i - 1], k[j - 1]
    return float(sum(ki**a * kj ** (m - 1 - a) for a in range(m)))


def ellipticity_check(f: Sequence[float], k) -> tuple[bool, float]:
    """Test sum_{m=1..n-1} f_m mu_{m;ij} < 0 for every pair i <= j.

    ``f`` is (f_1, ..., f_{n-1}) evaluated at the point.  Returns
    (holds, margin) where margin is the largest pair value; the
    condition holds strictly iff margin < 0.  Scaling all f_m by a
    positive constant rescales the margin but not the outcome.
    """
    n = len(curvatures(k))
    if len(f) != n - 1:
        raise ValidationError(f"need f_1..f_{n - 1} ({n - 1} values), got {len(f)}")
    margin = -np.inf
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            val = sum(f[m - 1] * mu_coefficient(m, i, j, k) for m in range(1, n))
            margin = max(margin, val)
    return bool(margin < 0.0), float(margin)


def psi_umbilical(
    f: Sequence[Callable[[np.ndarray], float] | float],
    lam: float,
    n: int,
) -> tuple[float, float, bool]:
    """The umbilical speed function psi and its slope.

        psi(lam) = - sum_{m=0..n-1} f_m(n lam, n lam^2, ..., n lam^n) lam^m

    ``f`` lists the coefficient functions f_0..f_{n-1}; plain numbers are
    accepted as constants.  Returns (psi, psi', psi' > 0); the derivative
    is a central difference, which is exact for the affine psi produced
    by constant f_m.
    """

    def value(x: float) -> float:
        tau_umb = np.array([n * x**m for m in range(1, n + 1)], dtype=float)
        acc = 0.0
        for m, fm in enumerate(f):
            coeff = fm(tau_umb) if callable(fm) else float(fm)
            acc += coeff * x**m
        return -acc

    val = value(lam)
    h = max(1e-6, 1e-6 * abs(lam))
    slope = (value(lam + h) - value(lam - h)) / (2.0 * h)
    return val, slope, bool(slope > 0.0)


def tilde_A_matrix(
    tau,
    f_partials: np.ndarray,
    phi: Sequence[float] | None = None,
) -> np.ndarray:
    """Atilde_ij = (i/2) sum_{m=0..n-1} tau_{i+m-1} df_m/dtau_j.

    ``f_partials[m, j-1]`` holds df_m/dtau_j at the evaluation point for
    m = 0..n-1.  Indices i+m-1 run from 0 to 2n-2: tau_0 = n, and any
    index above n is resolved through F_k(tau_1) with the supplied
    structure constants ``phi`` (required whenever n >= 2; built by
    :func:`extended_constants`).
    """
    n = len(tau)
    fp = np.asarray(f_partials, dtype=float)
    if fp.shape != (n, n):
        raise ValidationError(f"f_partials must be {n}x{n} (rows m=0..n-1)")

    def tau_at(idx: int) -> float:
        if idx == 0:
            return float(n)
        if idx <= n:
            return tau[idx - 1]
        if phi is None:
            raise ValidationError(
                f"tau_{idx} exceeds n={n}: structure constants required"
            )
        return float(eval_F(idx, tau[0], n, phi))

    active = [m for m in range(n) if np.any(fp[m] != 0.0)]
    A = np.zeros((n, n))
    for i in range(1, n + 1):
        row = np.zeros(n)
        for m in active:
            row += tau_at(i + m - 1) * fp[m]
        A[i - 1] = (i / 2.0) * row
    return A


def hypothesis_check_T02(Btilde: np.ndarray, Atilde: np.ndarray) -> tuple[bool, float]:
    """Negative definiteness of Btilde + Atilde, tested on the symmetric part.

    Returns (negative_definite, margin) with margin the largest
    eigenvalue of (M + M^T)/2; the hypothesis holds iff margin < 0.
    """
    M = np.asarray(Btilde) + np.asarray(Atilde)
    sym = 0.5 * (M + M.T)
    margin = float(np.max(np.linalg.eigvalsh(sym)))
    return margin < 0.0, margin


@dataclass(frozen=True)
class TruncationSystem:
    """Principal part of the n-truncated system for one flow power m.

    The truncated system reads  d/dt tau = principal * dxx(tau) + a_m,
    where principal = (m/2) B^(m-1) and the first-order remainder
    a_m(tau, dx tau) comes from differentiating the closure relation; it
    is not stored in closed form (see ``note``).
    """

    n: int
    m: int
    principal: np.ndarray
    note: str


def truncate_second_order(sigma, m: int) -> TruncationSystem:
    """Principal part (m/2) B_{n,1}^(m-1) of the n-truncated system, from
    sigma = (sigma_0 = 1, sigma_1, ..., sigma_n)."""
    n = len(sigma) - 1
    if not 1 <= m <= n:
        raise ValidationError(f"flow power m={m} out of range 1..{n}")
    principal = (m / 2.0) * np.linalg.matrix_power(build_companion(sigma), m - 1)
    return TruncationSystem(
        n=n,
        m=m,
        principal=principal,
        note=(
            "omitted lower-order remainder a_m(tau, dx tau) collects the "
            "dx-derivatives of the closure coefficients; available only "
            "numerically as the difference of the two sides"
        ),
    )
