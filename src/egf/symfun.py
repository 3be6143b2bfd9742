"""Symmetric-function algebra of principal curvatures.

Power sums tau_j = sum_i k_i^j and elementary symmetric functions sigma_j
of a curvature spectrum (k_1, ..., k_n), and the conformal recursion
functions F_k / Psi_k with their structure constants phi_k / psi_k.

Conventions used throughout:

    tau_0 = n,  sigma_0 = 1
    F_0 = n,    F_1(t) = t,  phi_1 = 0
    Psi_0 = 1,  Psi_1(s) = s,  psi_1 = 0

    F_k(t)   = t^k / n^(k-1)
               + sum_{i=2..k} C(k,i) phi_i t^(k-i) / n^(k-i)
    Psi_k(s) = (n-1)! / (k! (n-k)!) s^k / n^(k-1)
               + sum_{i=2..k} (n-i)! / ((k-i)! (n-k)!) psi_i s^(k-i) / n^(k-i)

    F_k'  = (k/n) F_{k-1},   Psi_k' = ((n-k+1)/n) Psi_{k-1}

The functions take and return numbers and arrays: a spectrum is any
sequence of curvatures, checked and sorted by :func:`curvatures`, and the
structure constants are the tuples (phi_2, ..., phi_n) of
:func:`f_recursion_constants` and (psi_2, ..., psi_n) of :func:`peel_psi`.
All operations are pure functions on value data and are safe for
concurrent use.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

from .errors import ValidationError

__all__ = [
    "curvatures",
    "power_sums",
    "sigma_from_tau",
    "f_recursion_constants",
    "peel_phi",
    "peel_psi",
    "eval_F",
    "F_coefficients",
    "eval_Psi",
]


def curvatures(k) -> np.ndarray:
    """Principal curvatures at a point, as a float array sorted ascending.

    The symmetric functions do not depend on the ordering; sorting fixes the
    order every sum is taken in.  An empty or non-finite spectrum raises.
    """
    vals = sorted(float(v) for v in k)
    if not vals:
        raise ValidationError("curvature spectrum needs n >= 1 entries")
    if not all(np.isfinite(vals)):
        raise ValidationError("curvature spectrum entries must be finite")
    return np.asarray(vals)


def power_sums(k) -> np.ndarray:
    """tau_j = k_1^j + ... + k_n^j for j = 1..n, as the array (tau_1, ..., tau_n)."""
    k = curvatures(k)
    return (k[None, :] ** np.arange(1, k.size + 1)[:, None]).sum(axis=1)


def sigma_from_tau(tau) -> np.ndarray:
    """Convert power sums (tau_1, ..., tau_n) to elementary symmetric
    functions (sigma_0 = 1, sigma_1, ..., sigma_n).

    Newton's identities, solved forward:
        j*sigma_j = sum_{i=1..j} (-1)^(i-1) sigma_{j-i} tau_i
    """
    t = [float(v) for v in tau]
    if not t:
        raise ValidationError("need power sums tau_1..tau_n with n >= 1")
    sigma = [1.0]
    for j in range(1, len(t) + 1):
        acc = 0.0
        for i in range(1, j + 1):
            acc += (-1.0) ** (i - 1) * sigma[j - i] * t[i - 1]
        sigma.append(acc / j)
    return np.array(sigma)


def f_recursion_constants(tau0) -> tuple[float, ...]:
    """The structure constants (phi_2, ..., phi_n) of F_k, from the power
    sums (tau_1, ..., tau_n) at t = 0.

    phi_k is fixed by requiring tau_k = F_k(tau_1) at t = 0, peeling the
    recursion from k = 2 up to n, the highest index a run or criterion
    evaluates F_k at.  The constants psi_k of Psi_k are
    ``peel_psi(n, sigma_from_tau(tau0)[1:])``.
    """
    t = [float(v) for v in tau0]
    return tuple(peel_phi(len(t), t))


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


def eval_F(k: int, tau1, n: int, phi):
    """F_k evaluated at tau_1 (scalar or array), for n curvatures with the
    structure constants phi = (phi_2, phi_3, ...).

    F_0 = n, F_1 = tau_1, and for k >= 2

        F_k(t) = t^k / n^(k-1) + sum_{i=2..k} C(k,i) phi_i t^(k-i) / n^(k-i).

    Indices up to len(phi) + 1 (= n for the constants of
    :func:`f_recursion_constants`) are evaluable; anything larger raises
    IndexError.
    """
    if not 0 <= k <= len(phi) + 1:
        raise IndexError(f"F_{k} undefined (have k <= {len(phi) + 1})")
    t = np.asarray(tau1, dtype=float)
    if k == 0:
        out = np.full_like(t, float(n))
    elif k == 1:
        out = t.copy()
    else:
        out = t**k / n ** (k - 1)
        for i in range(2, k + 1):
            out = out + comb(k, i) * phi[i - 2] / n ** (k - i) * t ** (k - i)
    return out if out.ndim else float(out)


def F_coefficients(k: int, n: int, phi) -> np.ndarray:
    """The coefficients (c_0, ..., c_k) of F_k(t) = c_0 + c_1 t + ... + c_k t^k
    for 1 <= k <= len(phi) + 1, by the formula of :func:`eval_F`: c_k = 1 /
    n^(k-1), c_{k-1} = 0 for k >= 2, and c_{k-i} = C(k,i) phi_i / n^(k-i)."""
    if not 1 <= k <= len(phi) + 1:
        raise IndexError(f"F_{k} coefficients undefined (have 1 <= k <= {len(phi) + 1})")
    c = np.zeros(k + 1)
    c[k] = 1.0 / n ** (k - 1)
    for i in range(2, k + 1):
        c[k - i] = comb(k, i) * phi[i - 2] / n ** (k - i)
    return c


def eval_Psi(k: int, sigma1, n: int, psi):
    """Psi_k evaluated at sigma_1 (scalar or array), for n curvatures with
    the structure constants psi = (psi_2, ..., psi_n).

    Psi_0 = 1, Psi_1 = sigma_1, and for k >= 2

        Psi_k(s) = (n-1)!/(k!(n-k)!) s^k / n^(k-1)
                   + sum_{i=2..k} (n-i)!/((k-i)!(n-k)!) psi_i s^(k-i) / n^(k-i).
    """
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
            out = out + _psi_coeff(n, k, i) * psi[i - 2] * s ** (k - i)
    return out if out.ndim else float(out)
