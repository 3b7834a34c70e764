"""Package-wide exception types."""


class ValidationError(ValueError):
    """Raised when an input object violates a structural invariant."""
