"""Extrinsic quantities from a sampled metric in biregular coordinates.

In a biregular foliated chart the leaves are level sets of x_0, the
metric is g = g00 dx0^2 + g_ij dx_i dx_j, and the unit normal is
N = d_0 / sqrt(g00).  Then

    b_ij  = -(1/2) g_{ij,0} / sqrt(g00)          (second fundamental form)
    A^j_i = -(1/(2 sqrt(g00))) sum_s g_{is,0} g^{sj}   (Weingarten operator)
    tau_i = tr(A^i)

The x0-derivative is a central difference (one-sided, second order, at
the chart ends).  Everything is per-node value computation and is used
as an independent cross-check of flow reconstructions.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .parabolic import _d_x

__all__ = ["weingarten_from_chart"]


def weingarten_from_chart(
    x0: np.ndarray, g00: np.ndarray, gij: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract b, A, tau_1..tau_n from the metric sampled along the
    transversal x0-axis of a biregular chart.

    ``x0`` (M,) is a uniform grid with M >= 3, ``g00`` (M,) is positive and
    ``gij`` (M, n, n) is symmetric positive definite at every node.  Returns
    (b, A, tau): b and A of shape (M, n, n), and tau of shape (M, n) with
    tau[:, i-1] = tr(A^i).  tau_1 reduces to -(1/(2 sqrt(g00))) sum g_{rs,0}
    g^{rs}; the other power sums are traces of matrix powers of A.
    """
    x0 = np.asarray(x0, dtype=float)
    g00 = np.asarray(g00, dtype=float)
    gij = np.asarray(gij, dtype=float)
    m = x0.size
    if m < 3:
        raise ValidationError("need at least 3 transversal samples")
    if g00.shape != (m,) or np.min(g00) <= 0.0:
        raise ValidationError("g00 must be positive at every node")
    if gij.ndim != 3 or gij.shape[0] != m or gij.shape[1] != gij.shape[2]:
        raise ValidationError("gij must be (M, n, n)")
    if np.max(np.abs(gij - np.transpose(gij, (0, 2, 1)))) > 1e-12:
        raise ValidationError("gij must be symmetric")
    try:
        np.linalg.cholesky(gij)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("gij must be positive definite") from exc
    h = x0[1] - x0[0]
    if np.max(np.abs(np.diff(x0) - h)) > 1e-12 * (1.0 + abs(h)):
        raise ValidationError("x0 grid must be uniform")
    dg = _d_x(gij, h)
    sq = np.sqrt(g00)[:, None, None]
    b = -0.5 * dg / sq
    try:
        ginv = np.linalg.inv(gij)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("singular leafwise metric") from exc
    A = -0.5 / sq * np.einsum("mis,msj->mij", dg, ginv)
    n = gij.shape[1]
    tau = np.empty((m, n))
    P = A.copy()
    tau[:, 0] = np.trace(P, axis1=1, axis2=2)
    for i in range(1, n):
        P = np.einsum("mij,mjk->mik", P, A)
        tau[:, i] = np.trace(P, axis1=1, axis2=2)
    return b, A, tau
