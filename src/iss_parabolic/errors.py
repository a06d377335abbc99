"""Exception hierarchy for the iss_parabolic package.

All package errors derive from :class:`IssParabolicError` so callers can
catch library failures without swallowing programming errors.
"""


class IssParabolicError(Exception):
    """Base class for all errors raised by this package."""


class InvalidFieldError(IssParabolicError):
    """A grid function has the wrong length or non-finite entries."""


class InvalidParameterError(IssParabolicError):
    """A numeric parameter violates its documented domain."""


class IncompatibleDataError(IssParabolicError):
    """Initial and boundary data do not form an admissible pair."""


class MonotonicityLossError(IssParabolicError):
    """The time step violates the restriction that keeps the scheme
    order-preserving; the solver refuses to step."""


class NumericalError(IssParabolicError):
    """A linear solve or other numeric kernel broke down."""


class IncompatibleTrajectoryError(IssParabolicError):
    """Two trajectories do not share a grid and time points."""


class BracketingError(IssParabolicError):
    """No admissible boundary-layer width exists for the requested bracket."""


class InapplicableEstimateError(IssParabolicError):
    """A stability estimate was requested for a problem it does not cover."""


class EstimationError(IssParabolicError):
    """Scenario coverage is insufficient to fit the requested constants."""


class SynthesisError(IssParabolicError):
    """Kernel synthesis failed: iteration cap, non-finite iterate, singular I + U, or failed inverse composition check."""


class ScenarioError(IssParabolicError):
    """A scenario file could not be parsed or references unknown selectors."""
