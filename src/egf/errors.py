"""Exception types shared across the package."""


class EgfError(Exception):
    """Base class for all library errors."""


class ValidationError(EgfError):
    """Input data violates a documented precondition."""


class SolverError(EgfError):
    """A numerical run could not be completed."""


class UnstableConfigurationError(SolverError):
    """Solver configuration produced non-finite iterates."""


class ConductivityRangeError(SolverError):
    """A state of a Newton run left the range of its initial state widened
    by 5% on each side."""


class NonConvergenceError(SolverError):
    """Newton iteration of a nonlinear step failed to reach tolerance."""


class EllipticityLossError(SolverError):
    """Parabolicity coefficient became non-positive along a flow."""


class DefectiveSpectrumError(EgfError):
    """Repeated principal curvatures: diagonalization-based check skipped."""
