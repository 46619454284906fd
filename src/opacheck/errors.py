"""Exception types shared across the toolkit."""


class OpacheckError(Exception):
    """Base class for all toolkit-specific errors."""


class ObserverBlowup(OpacheckError):
    """A subset search would intern more nonempty estimates than its cap."""

    def __init__(self, cap: int):
        super().__init__(f"subset search exceeded the cap of {cap} estimates")
        self.cap = cap


class PreconditionViolated(OpacheckError):
    """An operation was invoked on input outside its declared domain."""


class MalformedFormula(OpacheckError):
    """A CNF formula breaks a structural requirement."""


class InputNotDeterministic(OpacheckError):
    """A construction requiring deterministic input received a nondeterministic automaton."""


class TooLarge(OpacheckError):
    """Input exceeds a size cap: an oracle's, or ``gadgets.MAX_GADGET_STATES``."""


class ParseError(OpacheckError):
    """An input file does not match the expected format."""
