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

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .parabolic import _d_x

__all__ = ["ChartMetric", "ChartExtrinsics", "weingarten_from_chart"]


@dataclass
class ChartMetric:
    """Metric samples along the transversal x0-axis of a biregular chart."""

    x0: np.ndarray    # (M,)
    g00: np.ndarray   # (M,), positive
    gij: np.ndarray   # (M, n, n), symmetric positive definite per node

    def __post_init__(self) -> None:
        self.x0 = np.asarray(self.x0, dtype=float)
        self.g00 = np.asarray(self.g00, dtype=float)
        self.gij = np.asarray(self.gij, dtype=float)
        m = self.x0.size
        if m < 3:
            raise ValidationError("need at least 3 transversal samples")
        if self.g00.shape != (m,) or np.min(self.g00) <= 0.0:
            raise ValidationError("g00 must be positive at every node")
        if self.gij.ndim != 3 or self.gij.shape[0] != m or (
            self.gij.shape[1] != self.gij.shape[2]
        ):
            raise ValidationError("gij must be (M, n, n)")
        if np.max(np.abs(self.gij - np.transpose(self.gij, (0, 2, 1)))) > 1e-12:
            raise ValidationError("gij must be symmetric")
        try:
            np.linalg.cholesky(self.gij)
        except np.linalg.LinAlgError as exc:
            raise ValidationError("gij must be positive definite") from exc

    @property
    def n(self) -> int:
        return self.gij.shape[1]


@dataclass
class ChartExtrinsics:
    """Fields extracted from one chart: b, A and the power sums."""

    b: np.ndarray    # (M, n, n)
    A: np.ndarray    # (M, n, n)
    tau: np.ndarray  # (M, n), tau[:, i-1] = tr(A^i)


def weingarten_from_chart(metric: ChartMetric) -> ChartExtrinsics:
    """Extract b, A, tau_1..tau_n from the sampled chart metric.

    tau_1 reduces to -(1/(2 sqrt(g00))) sum g_{rs,0} g^{rs}; the other
    power sums are traces of matrix powers of A.  Raises on a singular
    leafwise metric.
    """
    h = metric.x0[1] - metric.x0[0]
    if np.max(np.abs(np.diff(metric.x0) - h)) > 1e-12 * (1.0 + abs(h)):
        raise ValidationError("x0 grid must be uniform")
    dg = _d_x(metric.gij, h)
    sq = np.sqrt(metric.g00)[:, None, None]
    b = -0.5 * dg / sq
    try:
        ginv = np.linalg.inv(metric.gij)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("singular leafwise metric") from exc
    A = -0.5 / sq * np.einsum("mis,msj->mij", dg, ginv)
    n = metric.n
    tau = np.empty((metric.x0.size, n))
    P = A.copy()
    tau[:, 0] = np.trace(P, axis1=1, axis2=2)
    for i in range(1, n):
        P = np.einsum("mij,mjk->mik", P, A)
        tau[:, i] = np.trace(P, axis1=1, axis2=2)
    return ChartExtrinsics(b=b, A=A, tau=tau)
