"""Exception types shared across the package."""


class IrsSwiptError(Exception):
    """Base class for all package errors."""


class InvalidInput(IrsSwiptError):
    """Malformed or out-of-contract input (non-finite data, bad dimensions, bad config)."""


class NotPSD(IrsSwiptError):
    """Matrix expected to be positive semidefinite has a significantly negative eigenvalue."""


class NumericalFailure(IrsSwiptError):
    """An iterative solver hit its iteration cap without reaching its tolerance, or broke down."""


class SubproblemInfeasible(IrsSwiptError):
    """A convex subproblem has no feasible point (e.g. the secrecy target is unattainable)."""


class RecoveryFailed(IrsSwiptError):
    """Gaussian randomization produced no feasible candidate and the fallback failed too."""


class PhaseStepInfeasible(IrsSwiptError):
    """The linearized phase-shift subproblem cannot meet its secrecy constraint."""


class GridTooLarge(IrsSwiptError):
    """A brute-force grid would exceed the evaluation cap."""
