"""Exception types shared across the package, and the one rule for a real number input."""

import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition (payoff ordering, gamma
    range, grid shape, ...)."""


class ResourceLimitError(ValidationError):
    """A request exceeds a hard resource bound (e.g. exact enumeration of a
    state space larger than 2**24)."""


class ConsistencyError(RuntimeError):
    """Two redundant computation paths disagree beyond their documented
    tolerance.  This signals an internal defect, not bad input."""


def real(value):
    """The float of a numbers.Real within the float range or of a 0-d array of one, else None."""
    value = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
    try:  # float tested first, since the numbers.Real ABC test is slow; a bool is refused
        ok = isinstance(value, (float, numbers.Real)) and type(value) is not bool
        return float(value) if ok else None
    except OverflowError:  # an int beyond the float range
        return None


def check_floats(obj, message: str) -> None:
    """Store each field of the frozen dataclass `obj` as the float `real` reads, past the frozen
    __setattr__; a field `real` refuses, or one not finite, raises ValidationError(message)."""
    fields = vars(obj)
    for name, v in fields.items():
        if type(v) is not float and (v := real(v)) is None or not math.isfinite(v):
            raise ValidationError(message)
        fields[name] = v


def real_array(value):
    """`value` as a float array, or None for a bool, complex, str or bytes dtype, ragged
    nesting, or an object element that `real` refuses.  A float64 ndarray is returned as it is."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    if a.dtype.kind == "O":  # element by element; one that `real` refuses leaves it object
        a = np.array([real(x) for x in a.flat]).reshape(a.shape)
    return a.astype(float, copy=False) if a.dtype.kind in "iuf" else None


def unchecked(cls, **fields):
    """A frozen dataclass `cls` holding `fields` as given, its checks not run."""
    vars(obj := object.__new__(cls)).update(fields)  # past the frozen __setattr__
    return obj
