"""Exception types shared across the simulator, and the type tests that
decide when an input raises ``InvalidParameters``."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class CountingError(Exception):
    """Base class for all adncount errors."""


class InvalidParameters(CountingError, ValueError):
    """Parameter combination not allowed for the requested family or mode."""


class InfeasibleDegreeBound(InvalidParameters):
    """Degree bound too small for any tree on the requested vertex count."""


class DegreeBoundViolated(CountingError):
    """A topology handed to the protocol exceeds the configured degree bound."""


class BudgetOverflow(CountingError):
    """Theoretical-mode round budget is not representable in 128 bits."""


class RoundLimitExceeded(CountingError):
    """The safety cap on total rounds was hit.

    When raised by ``count`` the ``record`` attribute carries the partial
    run record (status ``round_limit``) accumulated up to the cap.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record
