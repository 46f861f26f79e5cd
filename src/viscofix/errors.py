"""Exception types shared across the package, and its one rule each for counts, reals and arrays.

Every error the package raises on purpose is a :class:`ViscofixError`:
an :class:`InputError` for a value handed to an operation, a
:class:`ConfigurationError` for a problem, map, space, schedule or run
assembled from inconsistent pieces.  Every count the package takes (a
dimension, a grid size, a start index, a sample count or seed, a budget,
a horizon) is checked by :func:`_count`, which refuses a ``bool``, a
float, a string and ``None`` with the error its caller names.  Every
declared real constant (a tolerance, a radius, a modulus coefficient, a
monotonicity constant, a step size, an averaging weight, a Lipschitz
bound) is checked by :func:`_real`, which refuses a ``bool``, a string,
``None`` and a value outside its range the same way, and every declared
real array by :func:`_reals`, entry by entry as :func:`_real` checks one.
"""

import math
import numbers
import operator
from typing import Callable

import numpy as np

__all__ = [
    "ViscofixError",
    "InputError",
    "ConfigurationError",
    "InnerSolveError",
    "NotConvergedError",
]


class ViscofixError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ViscofixError, ValueError):
    """A value handed to an operation is outside its contract.

    Examples: dimension mismatch between a point and a space, evaluating a
    schedule below its start index, a non-finite coordinate.
    """


class ConfigurationError(ViscofixError, ValueError):
    """A problem, map, or run was assembled from inconsistent pieces.

    Examples: an averaging weight outside its admissible interval, a step
    size violating the monotonicity bound, an unknown config key.
    """


class InnerSolveError(ViscofixError, RuntimeError):
    """The implicit inner solve ran out of its certified budget or went non-finite.

    Under the documented preconditions (nonexpansive map, contraction
    factor < 1) the budget suffices, so running out signals a map that is
    not nonexpansive.  A non-finite gap means a non-finite ``T`` value or start.
    Only ``inner_implicit_solve`` lets it out; ``run`` ends ``inner_solve_failed``.
    """


class NotConvergedError(ViscofixError, RuntimeError):
    """A diagnostic was requested for a run that did not converge."""


def _count(value, name: str, least: int, error: type) -> int:
    """``value`` as an ``int`` of at least ``least``; ``error`` names ``name`` otherwise.

    ``operator.index`` takes a Python or numpy integer and refuses a float,
    a string and ``None``.  A ``bool`` is refused too: it is an ``int``, so
    ``True`` would pass for a count of 1.
    """
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None:
        raise error(f"{name} must be an integer, got {value!r}")
    if count < least:
        raise error(f"{name} must be >= {least}, got {count}")
    return count


def _real(value, name: str, need: str, within: Callable[[float], bool], error: type) -> float:
    """``value`` as a ``float`` that ``within`` accepts; ``error`` names ``name`` otherwise.

    The message is ``{name} must {need}, got {value}``.  A Python or
    numpy real is taken.  A ``bool`` is refused: it is a
    ``numbers.Real``, so ``True`` would pass for 1.0.  So are a string,
    ``None``, a complex and an integer too large for a float.  A NaN
    fails every range ``within`` states by comparisons.
    """
    real = None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            pass
    if real is None or not within(real):
        shown = value if isinstance(value, numbers.Real) else repr(value)
        raise error(f"{name} must {need}, got {shown}")
    return real


def _reals(value, name: str, shape: tuple, error: type, finite: bool = True) -> np.ndarray:
    """``value`` as a new float64 array of reals; ``error`` names ``name`` otherwise.

    The array has shape ``shape``, where ``-1`` matches any length.  Each
    entry is held to :func:`_real`'s rule for one number, and NaN and ±inf
    are refused too unless ``finite`` is false.  A numpy array of reals is
    converted whole, anything else entry by entry: as one array,
    ``[0.0, True]`` reads as ``[0.0, 1.0]``.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        reals = value.astype(np.float64)
        if finite:
            ok = np.isfinite(reals)
            if not ok.all():
                raise error(f"{name} must be finite real numbers, got {reals[~ok][0]}")
    else:
        need, within = ("be finite real numbers", math.isfinite) if finite else (
            "be real numbers", lambda _: True)
        entries = np.asarray(value, dtype=object)
        for entry in entries.flat:
            # a float that ``within`` takes passes _real as it is; the rest are judged and named there
            if type(entry) is not float or not within(entry):
                _real(entry, name, need, within, error)
        reals = entries.astype(np.float64)
    if reals.ndim != len(shape) or any(n not in (-1, got) for n, got in zip(shape, reals.shape)):
        want = str(tuple(map(int, shape))).replace("-1", "k")
        raise error(f"{name} must have shape {want}, got {reals.shape}")
    return reals
