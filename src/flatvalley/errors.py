"""Exception types shared across the package."""


class FlatValleyError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(FlatValleyError, ValueError):
    """A point was supplied with the wrong number of coordinates."""


class InvalidParameterError(FlatValleyError, ValueError):
    """A potential or scenario parameter is out of its admissible range."""


class UnknownPotentialError(FlatValleyError, ValueError):
    """Gallery lookup with a name that is not registered."""


class NonFiniteEvaluationError(FlatValleyError, ArithmeticError):
    """A potential evaluated to NaN or infinity near the requested point."""


class BlowUpError(FlatValleyError, RuntimeError):
    """Integration produced a non-finite or escaping state.

    Carries the last valid time and state so callers can report where the
    run died.
    """

    def __init__(self, message, last_time=None, last_state=None):
        super().__init__(message)
        self.last_time = last_time
        self.last_state = last_state


class FlowDomainError(FlatValleyError, RuntimeError):
    """The transversal flow approached the critical set of the field.

    Carries the state where the failure was detected.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class NewtonConvergenceError(FlatValleyError, RuntimeError):
    """A Newton iteration failed to reach its tolerance."""


class ChartDomainError(FlatValleyError, RuntimeError):
    """A point fell outside the chart or its tube, or the frame degenerated."""


class ScenarioError(FlatValleyError, ValueError):
    """A scenario file or scenario record violates its invariants."""


class IndeterminateCertificateError(FlatValleyError, RuntimeError):
    """The instability certificate could not be issued; not a hard failure."""


class DegenerateLimitError(IndeterminateCertificateError):
    """The extracted limit curve never leaves the noise ball around p."""


class UnverifiedLimitError(IndeterminateCertificateError):
    """The family did not pass the convergence diagnostic."""

    def __init__(self, message="the family did not pass the Cauchy diagnostic; no certificate"):
        super().__init__(message)


class ScheduleTooShortError(IndeterminateCertificateError):
    """No index from which every member stays close to the limit at tau*."""
