"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed textual input; carries the offset of the failure
    (`position`) and the message without it (`reason`)."""

    def __init__(self, message: str, position: int = -1):
        self.reason = message
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class SingularSurfaceError(ValueError):
    """A quartic that was required to be smooth is singular."""


class InnerPointError(ValueError):
    """The point lies on the surface; only outer points are supported."""


class SurfaceNotPreservedError(ValueError):
    """The matrix does not map the surface to itself."""


class UnnormalizedAutomorphismError(ValueError):
    """The matrix does not satisfy M**4 == identity.

    Callers must rescale so that the fourth power is exactly the
    identity; projective order-4 matrices whose normalization leaves
    Q(i) are rejected rather than approximated.
    """


class DegenerateInputError(ValueError):
    """Input outside the supported geometric regime (for example a
    singular fixed plane section)."""


class NoMatchingTypeError(ValueError):
    """Fixed-locus data matches no row of the classification tables."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""
