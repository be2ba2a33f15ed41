"""Error taxonomy shared by the library and the CLI, and the parameter rule.

ValidationError maps to CLI exit code 1, NumericalError to exit code 2.
"""

import math

import numpy as np


class ValidationError(ValueError):
    """User input or precondition violated before any computation ran."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its contracted accuracy/state."""


class ExpressionError(ValidationError):
    """Expression parse failure, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def require_positive(**values) -> None:
    """Raise ValidationError naming the first value that is not a finite number > 0."""
    _require(values, "> 0", lambda v: v > 0)


def require_nonnegative(**values) -> None:
    """Raise ValidationError naming the first value that is not a finite number >= 0."""
    _require(values, ">= 0", lambda v: v >= 0)


def require_finite(**values) -> None:
    """Raise ValidationError naming the first value that is not a finite real number."""
    _require(values, "real", lambda v: True)


def _require(values: dict, relation: str, holds) -> None:
    for name, value in values.items():
        try:  # any real scalar, 0-d arrays included; not a string
            v = math.nan if np.ndim(value) or isinstance(value, str) else float(value)
        except (TypeError, ValueError):
            v = math.nan
        if not (math.isfinite(v) and holds(v)):
            raise ValidationError(f"{name} must be {relation} and finite, got {value}")
