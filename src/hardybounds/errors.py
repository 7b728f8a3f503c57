"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DepthCapError(ValueError):
    """A count was asked for more transform steps than ``DEPTH_CAP``.

    Exponential towers deeper than three factors leave the double-precision
    range for arguments >= 1, so the count refuses them loudly instead of
    saturating.  The transform itself and the bounds take no such cap.
    """


class EvaluationError(RuntimeError):
    """A potential or weight could not be evaluated at a requested point."""
