"""Error taxonomy shared by the library and the CLI, and the parameter rule.

ValidationError maps to CLI exit code 1, NumericalError to exit code 2.
"""

import math
from typing import Sequence

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


def _nonnegative(name: str, value) -> np.ndarray:
    """value as a float array, refused unless every entry is finite and >= 0."""
    v = np.asarray(value, dtype=float)
    bad = v[~(np.isfinite(v) & (v >= 0))]
    if bad.size:
        raise ValidationError(f"{name} must be finite and >= 0, got {bad[0]}")
    return v


def require_vector(name: str, value, dim: int | None = None, nonzero: bool = False) -> np.ndarray:
    """Return value as a finite 1-D float array (a scalar is one coordinate) of dim
    entries if dim is given, not all zero if nonzero is set; else raise ValidationError.
    Finite means that np.linalg.norm, which the geometry divides by, is finite:
    every entry is finite and the sum of their squares does not overflow. As
    for scalars, no entry may be a string or a bool."""
    try:
        v = np.atleast_1d(np.asarray(value, dtype=float))
        if any(map(_not_a_number, np.asarray(value, dtype=object).flat)):
            v = np.array([math.nan])
    except (TypeError, ValueError, OverflowError):  # ragged, complex, not numbers, huge ints
        v = np.array([math.nan])
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        norm = float(np.linalg.norm(v)) if v.ndim == 1 else math.nan
    if v.ndim != 1 or not v.size or v.size != (dim or v.size) or not math.isfinite(norm):
        size = f" of dimension {dim}" if dim else ""
        raise ValidationError(f"{name} must be a finite vector{size}, got {_refused(value)}")
    if nonzero and not np.any(v):
        raise ValidationError(f"{name} must be nonzero")
    return v


def require_steps(T: float, dt: float) -> None:
    """Raise ValidationError naming T and dt when a time grid of steps dt over
    T (T finite and > 0, dt >= 0) has more than 2**52 steps: there k*h no
    longer resolves a step, and the step count may not even be finite."""
    if not float(T) <= 2.0 ** 52 * float(dt):
        raise ValidationError(f"T/dt must be at most 2**52 steps, got T = {T}, dt = {dt}")


def require_integer(least: int, **values) -> None:
    """Raise ValidationError naming the first value that is not an int >= least (nor a bool)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ValidationError(f"{name} must be an integer >= {least}, got {shown(value, repr)}")


def _require(values: dict, relation: str, holds) -> None:
    for name, value in values.items():
        if type(value) is float:  # the common case, tested as it is
            v = value
        else:
            try:  # any real scalar, 0-d arrays included; not a string nor a bool
                v = math.nan if np.ndim(value) or _not_a_number(value) else float(value)
            except (TypeError, ValueError, OverflowError):  # an int past the float range
                v = math.nan
        if not (math.isfinite(v) and holds(v)):
            raise ValidationError(f"{name} must be {relation} and finite, got {_refused(value)}")


def _eps_list(eps_list: Sequence[float], at_least: int) -> tuple:
    """eps_list as floats: at least at_least, finite, > 0, strictly decreasing."""
    eps_list = tuple(eps_list)
    if len(eps_list) < at_least:
        raise ValidationError(f"eps_list needs at least {at_least} value(s)")
    require_positive(**{f"eps_list[{i}]": e for i, e in enumerate(eps_list)})
    eps_list = tuple(float(e) for e in eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("eps_list must be strictly decreasing")
    return eps_list


def _not_a_number(value) -> bool:
    """A string or a bool, which float() would take but no parameter may be."""
    return isinstance(value, (str, bytes, bool)) or getattr(value, "dtype", None) == bool


def _refused(value) -> str:
    """A refused value for a message: a string or bytes quoted (repr), so that
    "1" does not read as the number 1; anything else as shown."""
    return shown(value, repr if isinstance(value, (str, bytes)) else str)


def shown(value, fmt=str) -> str:
    """fmt(value) for an error message, or a stand-in where that raises, as it
    does for an int of more than 4300 digits (Python's int-to-str limit)."""
    try:
        return fmt(value)
    except Exception:
        return f"<{type(value).__name__} that cannot be printed>"
