"""Exception types shared across the package."""


class HypersatError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HypersatError):
    def __init__(self, position: int, message: str):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position
        self.message = message


class WellFormednessError(HypersatError):
    """Structurally valid text that violates a formula well-formedness rule."""


class WrongFragment(HypersatError):
    """A reduction was applied to a formula outside its quantifier fragment."""


class AlphabetMismatch(HypersatError):
    """A trace mentions a proposition outside the expected alphabet."""


class ResourceLimit(HypersatError):
    """A bounded step needs more than its limit allows: kind "unroll"
    counts the conjuncts of an exists-forall unrolling, kind "period" the
    combined loop length of an evaluation."""

    _TEXT = {
        "unroll": "unrolling needs {} conjuncts, limit is {}",
        "period": "combined evaluation period {} exceeds guard {}",
    }

    def __init__(self, kind: str, required: int, limit: int):
        super().__init__(self._TEXT[kind].format(required, limit))
        self.kind = kind
        self.required = required
        self.limit = limit


class InvalidInstance(HypersatError):
    """Malformed correspondence-problem instance."""


class NotASolution(HypersatError):
    """An index sequence whose two word concatenations differ."""


class InternalError(HypersatError):
    """Self-verification failed; signals an engine bug, not a user error."""
