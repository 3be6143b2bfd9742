"""Symmetric-function algebra of principal curvatures.

Power sums tau_j = sum_i k_i^j and elementary symmetric functions sigma_j
of a curvature spectrum (k_1, ..., k_n), the conformal recursion functions
F_k / Psi_k with their structure constants phi_k / psi_k, Newton
transformations, and the ellipticity quantities mu_{m;ij}.

Conventions used throughout:

    tau_0 = n,  sigma_0 = 1
    F_0 = n,    F_1(t) = t,  phi_1 = 0
    Psi_0 = 1,  Psi_1(s) = s,  psi_1 = 0

    F_k(t)   = t^k / n^(k-1)
               + sum_{i=2..k} C(k,i) phi_i t^(k-i) / n^(k-i)
    Psi_k(s) = (n-1)! / (k! (n-k)!) s^k / n^(k-1)
               + sum_{i=2..k} (n-i)! / ((k-i)! (n-k)!) psi_i s^(k-i) / n^(k-i)

    F_k'  = (k/n) F_{k-1},   Psi_k' = ((n-k+1)/n) Psi_{k-1}

All operations are pure functions on value data and are safe for
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "CurvatureSpectrum",
    "PowerSumVector",
    "ElemSymVector",
    "StructConstants",
    "power_sums",
    "sigma_from_tau",
    "tau_from_sigma",
    "extend_power_sums",
    "f_recursion_constants",
    "peel_phi",
    "peel_psi",
    "eval_F",
    "eval_F_prime",
    "eval_Psi",
    "eval_Psi_prime",
    "newton_transform",
    "newton_transform_trace",
    "mu_coefficient",
    "ellipticity_check",
    "psi_umbilical",
]


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Principal curvatures at a point, stored sorted ascending.

    ``k`` is canonicalized on construction; symmetric functions do not
    depend on the ordering, so this only fixes the representation.
    """

    k: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.k) < 1:
            raise ValidationError("curvature spectrum needs n >= 1 entries")
        vals = tuple(sorted(float(v) for v in self.k))
        if not all(np.isfinite(vals)):
            raise ValidationError("curvature spectrum entries must be finite")
        object.__setattr__(self, "k", vals)

    @property
    def n(self) -> int:
        return len(self.k)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.k, dtype=float)


@dataclass(frozen=True)
class PowerSumVector:
    """tau = (tau_1, ..., tau_n); tau_0 = n is implicit."""

    n: int
    tau: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.tau) != self.n:
            raise ValidationError("need exactly n power sums tau_1..tau_n")
        object.__setattr__(self, "tau", tuple(float(v) for v in self.tau))

    def with_tau0(self) -> np.ndarray:
        """Return (tau_0, tau_1, ..., tau_n) with tau_0 = n prepended."""
        return np.concatenate([[float(self.n)], self.tau])


@dataclass(frozen=True)
class ElemSymVector:
    """sigma = (sigma_0 = 1, sigma_1, ..., sigma_n)."""

    n: int
    sigma: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.sigma) != self.n + 1:
            raise ValidationError("need sigma_0..sigma_n (n+1 entries)")
        sig = tuple(float(v) for v in self.sigma)
        if sig[0] != 1.0:
            raise ValidationError("sigma_0 must equal 1")
        object.__setattr__(self, "sigma", sig)


@dataclass(frozen=True)
class StructConstants:
    """Structure constants phi_2..phi_kmax and psi_2..psi_n of F_k / Psi_k.

    Determined by the state at t = 0 and constant along any conformal
    flow; phi_1 = psi_1 = 0 by convention and is not stored.  When built
    from an n-spectrum, phi is carried up to kmax = max(n, 2n-2): the
    power sums above index n are fixed by the characteristic polynomial,
    so the extra constants are exact, and they let F_k resolve every
    index a truncated system can produce.
    """

    n: int
    phi: tuple[float, ...]
    psi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.phi) < max(self.n - 1, 0) or len(self.psi) != max(self.n - 1, 0):
            raise ValidationError("need phi_2..phi_n (at least) and psi_2..psi_n")
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))
        object.__setattr__(self, "psi", tuple(float(v) for v in self.psi))

    @property
    def kmax_phi(self) -> int:
        """Largest k for which F_k is evaluable."""
        return len(self.phi) + 1

    def phi_k(self, k: int) -> float:
        """phi_k for 1 <= k <= kmax_phi (phi_1 = 0)."""
        if not 1 <= k <= self.kmax_phi:
            raise IndexError(f"phi_{k} unavailable (have k <= {self.kmax_phi})")
        return 0.0 if k == 1 else self.phi[k - 2]

    def psi_k(self, k: int) -> float:
        if not 1 <= k <= self.n:
            raise IndexError(f"psi_{k} undefined for n={self.n}")
        return 0.0 if k == 1 else self.psi[k - 2]


def power_sums(spec: CurvatureSpectrum) -> PowerSumVector:
    """tau_j = k_1^j + ... + k_n^j for j = 1..n."""
    k = spec.as_array()
    powers = k[None, :] ** np.arange(1, spec.n + 1)[:, None]
    return PowerSumVector(spec.n, tuple(powers.sum(axis=1)))


def sigma_from_tau(tau: PowerSumVector) -> ElemSymVector:
    """Convert power sums to elementary symmetric functions.

    Newton's identities, solved forward:
        j*sigma_j = sum_{i=1..j} (-1)^(i-1) sigma_{j-i} tau_i
    """
    n = tau.n
    t = tau.tau
    sigma = [1.0]
    for j in range(1, n + 1):
        acc = 0.0
        for i in range(1, j + 1):
            acc += (-1.0) ** (i - 1) * sigma[j - i] * t[i - 1]
        sigma.append(acc / j)
    return ElemSymVector(n, tuple(sigma))


def tau_from_sigma(sigma: ElemSymVector) -> PowerSumVector:
    """Inverse of :func:`sigma_from_tau` (Newton's identities, reversed).

        tau_j = sum_{i=1..j-1} (-1)^(i-1) sigma_i tau_{j-i} + (-1)^(j-1) j sigma_j
    """
    n = sigma.n
    s = sigma.sigma
    tau: list[float] = []
    for j in range(1, n + 1):
        acc = (-1.0) ** (j - 1) * j * s[j]
        for i in range(1, j):
            acc += (-1.0) ** (i - 1) * s[i] * tau[j - i - 1]
        tau.append(acc)
    return PowerSumVector(n, tuple(tau))


def extend_power_sums(tau: PowerSumVector, upto: int) -> np.ndarray:
    """(tau_1, ..., tau_upto) with indices above n closed by Cayley-Hamilton.

        tau_j = sum_{i=1..n} (-1)^(i-1) sigma_i tau_{j-i}   for j > n,

    which is exact for any n-point spectrum (tau_0 = n).
    """
    n = tau.n
    sig = sigma_from_tau(tau).sigma
    full = list(tau.with_tau0())  # tau_0..tau_n
    for j in range(n + 1, upto + 1):
        full.append(
            sum((-1.0) ** (i - 1) * sig[i] * full[j - i] for i in range(1, n + 1))
        )
    return np.asarray(full[1 : upto + 1])


def f_recursion_constants(tau0: PowerSumVector) -> StructConstants:
    """Structure constants from the state at t = 0.

    phi_k is fixed by requiring tau_k = F_k(tau_1) at t = 0, peeling the
    recursion from k = 2 upward (power sums above index n supplied by
    :func:`extend_power_sums`, up to the 2n-2 a truncation can touch);
    psi_k analogously from sigma_k = Psi_k(sigma_1).
    """
    n = tau0.n
    phi = peel_phi(n, extend_power_sums(tau0, max(n, 2 * n - 2)))
    psi = peel_psi(n, sigma_from_tau(tau0).sigma[1:])
    return StructConstants(n, tuple(phi), tuple(psi))


def peel_phi(n: int, tau) -> list:
    """phi_2..phi_K such that tau_k = F_k(tau_1), from tau = (tau_1, ...,
    tau_K); the tau_k may be scalars or arrays of one shape."""
    t1 = tau[0]
    phi = []
    for k in range(2, len(tau) + 1):
        head = t1**k / n ** (k - 1)
        for i in range(2, k):
            head += comb(k, i) * phi[i - 2] / n ** (k - i) * t1 ** (k - i)
        phi.append(tau[k - 1] - head)
    return phi


def peel_psi(n: int, sigma) -> list:
    """psi_2..psi_K such that sigma_k = Psi_k(sigma_1), from sigma = (sigma_1,
    ..., sigma_K); the sigma_k may be scalars or arrays of one shape."""
    s1 = sigma[0]
    psi = []
    for k in range(2, len(sigma) + 1):
        head = _psi_lead(n, k) * s1**k
        for i in range(2, k):
            head += _psi_coeff(n, k, i) * psi[i - 2] * s1 ** (k - i)
        psi.append(sigma[k - 1] - head)
    return psi


def _psi_lead(n: int, k: int) -> float:
    # (n-1)! / (k! (n-k)!) / n^(k-1)
    return factorial(n - 1) / (factorial(k) * factorial(n - k)) / n ** (k - 1)


def _psi_coeff(n: int, k: int, i: int) -> float:
    # (n-i)! / ((k-i)! (n-k)!) / n^(k-i)
    return factorial(n - i) / (factorial(k - i) * factorial(n - k)) / n ** (k - i)


def eval_F(k: int, tau1, consts: StructConstants):
    """F_k evaluated at tau_1 (scalar or array).

    F_0 = n, F_1 = tau_1, and for k >= 2

        F_k(t) = t^k / n^(k-1) + sum_{i=2..k} C(k,i) phi_i t^(k-i) / n^(k-i).

    Indices up to ``consts.kmax_phi`` (= 2n-2 for spectrum-built
    constants) are evaluable; anything larger raises IndexError.
    """
    n = consts.n
    if not 0 <= k <= consts.kmax_phi:
        raise IndexError(f"F_{k} undefined (have k <= {consts.kmax_phi})")
    t = np.asarray(tau1, dtype=float)
    if k == 0:
        out = np.full_like(t, float(n))
    elif k == 1:
        out = t.copy()
    else:
        out = t**k / n ** (k - 1)
        for i in range(2, k + 1):
            out = out + comb(k, i) * consts.phi_k(i) / n ** (k - i) * t ** (k - i)
    return out if out.ndim else float(out)


def eval_F_prime(k: int, tau1, consts: StructConstants):
    """F_k'(tau_1) = (k/n) F_{k-1}(tau_1); F_0' = 0."""
    if k == 0:
        t = np.asarray(tau1, dtype=float)
        z = np.zeros_like(t)
        return z if z.ndim else 0.0
    prev = eval_F(k - 1, tau1, consts)
    return k / consts.n * np.asarray(prev) if np.ndim(prev) else k / consts.n * prev


def eval_Psi(k: int, sigma1, consts: StructConstants):
    """Psi_k evaluated at sigma_1 (scalar or array).

    Psi_0 = 1, Psi_1 = sigma_1, and for k >= 2

        Psi_k(s) = (n-1)!/(k!(n-k)!) s^k / n^(k-1)
                   + sum_{i=2..k} (n-i)!/((k-i)!(n-k)!) psi_i s^(k-i) / n^(k-i).
    """
    n = consts.n
    if not 0 <= k <= n:
        raise IndexError(f"Psi_{k} undefined for n={n}")
    s = np.asarray(sigma1, dtype=float)
    if k == 0:
        out = np.ones_like(s)
    elif k == 1:
        out = s.copy()
    else:
        out = _psi_lead(n, k) * s**k
        for i in range(2, k + 1):
            out = out + _psi_coeff(n, k, i) * consts.psi_k(i) * s ** (k - i)
    return out if out.ndim else float(out)


def eval_Psi_prime(k: int, sigma1, consts: StructConstants):
    """Psi_k'(sigma_1) = ((n-k+1)/n) Psi_{k-1}(sigma_1); Psi_0' = 0."""
    if k == 0:
        s = np.asarray(sigma1, dtype=float)
        z = np.zeros_like(s)
        return z if z.ndim else 0.0
    prev = eval_Psi(k - 1, sigma1, consts)
    return (consts.n - k + 1) / consts.n * prev


def newton_transform(sigma: ElemSymVector, r: int) -> tuple[float, ...]:
    """Coefficients (c_0, ..., c_r) of T_r(A) = sum_i c_i A^i.

    T_r(A) = sum_{i=0..r} (-1)^i sigma_{r-i} A^i, so c_i = (-1)^i sigma_{r-i}.
    """
    if not 0 <= r <= sigma.n:
        raise IndexError(f"T_{r} undefined for n={sigma.n}")
    return tuple((-1.0) ** i * sigma.sigma[r - i] for i in range(r + 1))


def newton_transform_trace(sigma: ElemSymVector, tau: PowerSumVector, r: int) -> float:
    """tr T_r(A) = sum_i c_i tau_i, contracted against (tau_0, ..., tau_r).

    Equals (n - r) sigma_r identically.
    """
    coeffs = newton_transform(sigma, r)
    taus = tau.with_tau0()
    return float(sum(c * taus[i] for i, c in enumerate(coeffs)))


def mu_coefficient(m: int, i: int, j: int, spec: CurvatureSpectrum) -> float:
    """mu_{m;ij} = sum_{a=0..m-1} k_i^a k_j^(m-1-a) for 1 <= i <= j <= n, 1 <= m < n."""
    n = spec.n
    if not (1 <= m < n):
        raise IndexError(f"m={m} out of range 1..{n - 1}")
    if not (1 <= i <= j <= n):
        raise IndexError(f"pair (i={i}, j={j}) out of range for n={n}")
    ki, kj = spec.k[i - 1], spec.k[j - 1]
    return float(sum(ki**a * kj ** (m - 1 - a) for a in range(m)))


def ellipticity_check(f: Sequence[float], spec: CurvatureSpectrum) -> tuple[bool, float]:
    """Test sum_{m=1..n-1} f_m mu_{m;ij} < 0 for every pair i <= j.

    ``f`` is (f_1, ..., f_{n-1}) evaluated at the point.  Returns
    (holds, margin) where margin is the largest pair value; the
    condition holds strictly iff margin < 0.  Scaling all f_m by a
    positive constant rescales the margin but not the outcome.
    """
    n = spec.n
    if len(f) != n - 1:
        raise ValidationError(f"need f_1..f_{n - 1} ({n - 1} values), got {len(f)}")
    margin = -np.inf
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            val = sum(f[m - 1] * mu_coefficient(m, i, j, spec) for m in range(1, n))
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
