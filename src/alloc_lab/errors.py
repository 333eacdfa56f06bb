"""Exception hierarchy shared across the package."""


class AllocLabError(Exception):
    """Base class for all alloc-lab errors."""


class ParameterError(AllocLabError):
    """Invalid model or algorithm parameters."""


class DataError(AllocLabError):
    """Malformed or missing input data."""


class SampleSizeError(AllocLabError):
    """Too few samples for the requested estimate."""


class BoundaryError(AllocLabError):
    """Evaluation requested on the boundary of the support."""


class RangeError(AllocLabError):
    """Requested value outside the attainable range."""


class ConditioningError(AllocLabError):
    """Conditioning event has probability zero."""


class EfficiencyError(AllocLabError):
    """Rejection sampler exhausted its budget.

    Carries the observed hit rate so callers can widen the slab.
    """

    def __init__(self, message, hit_rate=None):
        super().__init__(message)
        self.hit_rate = hit_rate


class ConfigurationError(AllocLabError):
    """Inconsistent algorithm configuration."""


class FeasibilityError(AllocLabError):
    """Empty feasible region or no valid starting point."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class StabilityError(AllocLabError):
    """Numerical instability (divergent trajectories, failed replicates)."""


class DegenerateWeightError(AllocLabError):
    """All scenario plausibility weights vanished."""


class ShapeError(AllocLabError):
    """Dimension mismatch between inputs."""


class NotAvailableError(AllocLabError):
    """Requested artifact or quantity is not available."""


class InconsistencyError(AllocLabError):
    """Two checks that must agree returned contradictory verdicts."""
