"""Extrinsic geometric flows on codimension-one foliations.

Subpackages by concern:

- :mod:`egf.symfun` -- power sums, elementary symmetric functions and the
  conformal recursion functions F_k / Psi_k.
- :mod:`egf.companion` -- the generalized companion matrix B_{n,1} and
  its weighted powers.
- :mod:`egf.parabolic` -- 1-D parabolic solvers on a circle / interval,
  the exact quasi-linear reference family and decay-rate fitting.
- :mod:`egf.flows` -- the flow scenarios: one polynomial flow for the
  umbilical, prescribed-mean-curvature and f(tau)-conformal kinds, twisted
  products, and the volume of a conformal flow.
- :mod:`egf.reeb` -- the Reeb-foliation-on-the-torus case study.
- :mod:`egf.chartgeom` -- extraction of b, A, tau_i from a sampled
  metric in biregular foliated coordinates.
- :mod:`egf.scenarios` / :mod:`egf.cli` -- declarative scenario runner
  with CSV artifacts, sweeps, and the bundled acceptance suite.
"""

from . import chartgeom, companion, flows, parabolic, reeb, symfun
from .errors import (
    ConductivityRangeError,
    DefectiveSpectrumError,
    EgfError,
    EllipticityLossError,
    NonConvergenceError,
    SolverError,
    UnstableConfigurationError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "symfun",
    "companion",
    "parabolic",
    "flows",
    "reeb",
    "chartgeom",
    "EgfError",
    "ValidationError",
    "SolverError",
    "UnstableConfigurationError",
    "ConductivityRangeError",
    "NonConvergenceError",
    "EllipticityLossError",
    "DefectiveSpectrumError",
    "__version__",
]
