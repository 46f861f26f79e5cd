"""Finite-dimensional weighted inner-product spaces and metric projections.

Points are plain 1-d ``numpy.float64`` arrays.  A :class:`SpaceDescriptor`
is a positive weight vector, whose length is the dimension; every inner
product, norm and projection in the package is taken with respect to those
weights, and every point or map value the package takes is converted by
:meth:`SpaceDescriptor.point`.  The
two constructors cover the cases used elsewhere: :func:`euclidean` (unit
weights) and :func:`trapezoid` (quadrature weights on a uniform grid of
``[0, 1]``, so the norm discretizes the L2 norm).

The normalized duality pairing on a Hilbert space is realized by the
identity, so no separate duality machinery exists here;
:meth:`SpaceDescriptor.inner` is the pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError, _count, _real, _reals

__all__ = [
    "SpaceDescriptor",
    "euclidean",
    "trapezoid",
    "trapezoid_nodes",
    "norm",
    "WholeSpace",
    "Box",
    "Ball",
    "AffineSpan",
]

# numpy's shared float64 descriptor, tested by identity; another one (unpickled) costs a copy
_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True, eq=False)
class SpaceDescriptor:
    """A real inner-product space with coordinate weights.

    Attributes
    ----------
    weights : numpy.ndarray
        Strictly positive weight per coordinate, at least one;
        ``<x, y> = sum_i weights[i] * x[i] * y[i]``.
    dim : int
        Number of coordinates, the length of ``weights``.
    unit_weights : bool
        Whether every weight is 1, decided at construction.
    """

    weights: np.ndarray = field(repr=False)
    dim: int = field(init=False)
    unit_weights: bool = field(init=False, repr=False)

    def __post_init__(self):
        w = _reals(self.weights, "weights", (-1,), ConfigurationError)
        if not w.size or np.any(w <= 0.0):
            raise ConfigurationError("weights must be one or more strictly positive numbers")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "dim", w.size)
        # With unit weights ``w * v`` is ``v`` exactly, so the pairing and
        # the norm can skip the product and keep every bit.
        object.__setattr__(self, "unit_weights", bool(np.all(w == 1.0)))

    def point(self, value, name: str) -> np.ndarray:
        """``value`` as a point of this space; an :class:`InputError` names ``name`` otherwise.

        The one conversion of a point or a map's value: a float64 array of
        shape ``(dim,)`` is returned as is, and anything else is a copy held
        to :func:`~viscofix.errors._reals`'s rule, NaN and inf let through.
        """
        if type(value) is np.ndarray and value.dtype is _FLOAT64 and value.shape == (self.dim,):
            return value
        return _reals(value, name, (self.dim,), InputError, finite=False)

    def inner(self, a: np.ndarray, b: np.ndarray):
        """Weighted pairing ``sum_i w_i a_i b_i`` over the last axis.

        A float64 for two points, one value per row for two ``(k, dim)``
        stacks; shapes are not checked.  Each value is bit for bit
        ``np.vdot(weights * a, b)`` of its pair, and ``np.dot``'s but in
        dimension 1, where ``np.dot`` returns a lone ``-0.0`` product as
        it is.  With unit weights the product by 1.0 is skipped.  Stacks
        and points both reduce through BLAS ``ddot``, which some kernels
        (``OPENBLAS_CORETYPE=Prescott``) sum in another order from 8 bytes
        off a 16-byte boundary, where every other row of an odd-width stack
        starts; so such a stack is reduced from a copy one column wider.
        """
        if not self.unit_weights:
            a = self.weights * a
        if a.ndim == 2 and a.shape[1] % 2:
            k, width = a.shape
            wider = np.empty((2, k, width + 1))
            wider[0, :, :width], wider[1, :, :width] = a, b
            a, b = wider[:, :, :width]
        return np.vecdot(a, b)

    def norm(self, v: np.ndarray) -> float:
        """Weighted norm ``sqrt(sum_i w_i v_i^2)`` of a point.

        The shape of ``v`` is not checked, unlike :func:`norm`: callers
        pass arrays they built from points of this space.  When the sum
        of squares overflows although every entry is finite, the norm is
        taken of ``v / max|v|`` and scaled back, so it is ``inf`` only
        past the largest float; an ``inf`` entry still gives ``inf`` and
        a NaN entry NaN.
        """
        # np.vdot is np.dot bit for bit on 1-d float64, but it does not
        # warn when the sum overflows.
        if self.unit_weights:
            s = float(np.vdot(v, v))
        else:
            s = float(np.vdot(self.weights * v, v))
        if s == math.inf:
            return self._rescaled_norm(v)
        return math.sqrt(s)

    def _rescaled_norm(self, v: np.ndarray) -> float:
        # A NaN entry makes the sum NaN, so here every entry is a number.
        top = float(np.max(np.abs(v)))
        if top == math.inf:
            return top
        u = v / top
        return top * math.sqrt(float(self.inner(u, u)))

    def row_norms(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`norm` of every row of a ``(k, dim)`` stack, bit for bit.

        Rows whose sum of squares overflows take the rescaled form as
        :meth:`norm` does; the overflow itself warns under numpy's error
        state.
        """
        sums = self.inner(rows, rows)
        norms = np.sqrt(sums)
        for i in np.flatnonzero(sums == math.inf):
            norms[i] = self._rescaled_norm(rows[i])
        return norms


def euclidean(dim: int) -> SpaceDescriptor:
    """Space with unit weights (the usual Euclidean inner product)."""
    return SpaceDescriptor(np.ones(_count(dim, "dimension", 1, ConfigurationError)))


def trapezoid(intervals: int) -> SpaceDescriptor:
    """Space of grid functions on ``[0, 1]`` under trapezoid quadrature.

    Parameters
    ----------
    intervals : int
        Number of grid intervals ``m``; the space has ``m + 1`` nodes at
        ``t_i = i / m``.  Weights are ``h/2, h, ..., h, h/2`` with
        ``h = 1/m``, so they sum to 1 and the norm approximates the
        L2([0, 1]) norm.
    """
    intervals = _count(intervals, "intervals", 1, ConfigurationError)
    h = 1.0 / intervals
    w = np.full(intervals + 1, h)
    w[0] = h / 2.0
    w[-1] = h / 2.0
    return SpaceDescriptor(w)


def trapezoid_nodes(intervals: int) -> np.ndarray:
    """Grid nodes ``t_i = i / m`` matching :func:`trapezoid`."""
    return np.linspace(0.0, 1.0, _count(intervals, "intervals", 1, ConfigurationError) + 1)


def same_space(a: SpaceDescriptor, b: SpaceDescriptor) -> bool:
    """True when two descriptors define the same inner product."""
    return a.dim == b.dim and np.array_equal(a.weights, b.weights)


def norm(space: SpaceDescriptor, x) -> float:
    """Norm induced by :meth:`SpaceDescriptor.inner` of ``x``, a point by
    :meth:`SpaceDescriptor.point`."""
    return space.norm(space.point(x, "x"))


class ConvexSetBase:
    """Closed convex subset supporting metric projection.

    The subclasses :class:`WholeSpace`, :class:`Box`, :class:`Ball` and
    :class:`AffineSpan` implement ``project(space, x)``, the unique nearest
    point of the set to the point ``x`` of ``space`` in its weighted norm
    (``x`` converted by :meth:`SpaceDescriptor.point`);
    :func:`convex_set` refuses any other object.  Projections are
    nonexpansive and idempotent; for any member ``z`` of the set the angle
    property ``<x - Px, z - Px> <= 0`` holds.
    """

    def project(self, space: SpaceDescriptor, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _project_rows(self, space: SpaceDescriptor, rows: np.ndarray) -> np.ndarray:
        """:meth:`project` of every row of a float64 ``(k, dim)`` stack, stacked.

        One ``project`` call per row.  :class:`WholeSpace` and
        :class:`Ball` take the stack in one array pass instead, bit for bit
        the same and with no warning that the calls would not raise.
        """
        return np.array([self.project(space, x) for x in rows])

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A class that redefines ``project`` alone projects a stack row by
        # row, so an inherited array form never stands in for its own rule.
        if "project" in vars(cls) and "_project_rows" not in vars(cls):
            cls._project_rows = ConvexSetBase._project_rows


class WholeSpace(ConvexSetBase):
    """The entire space; projection is the identity."""

    def project(self, space, x):
        return space.point(x, "x")

    def _project_rows(self, space, rows):
        return rows

    def __repr__(self):
        return "WholeSpace()"


class Box(ConvexSetBase):
    """Axis-aligned box ``{z : lower <= z <= upper}`` (coordinatewise).

    Projection clamps each coordinate; with diagonal weights the nearest
    point in the weighted norm is still the coordinatewise clamp.
    """

    def __init__(self, lower, upper):
        lower = _reals(lower, "box lower bounds", (-1,), ConfigurationError)
        upper = _reals(upper, "box upper bounds", lower.shape, ConfigurationError)
        if np.any(lower > upper):
            raise ConfigurationError("box requires lower <= upper in every coordinate")
        self.lower = lower
        self.upper = upper

    def project(self, space, x):
        x = space.point(x, "x")
        if self.lower.shape != (space.dim,):
            raise InputError("box bounds do not match the space dimension")
        return np.clip(x, self.lower, self.upper)

    def __repr__(self):
        return f"Box(lower={self.lower!r}, upper={self.upper!r})"


class Ball(ConvexSetBase):
    """Closed ball ``{z : ||z - center|| <= radius}`` in the weighted norm."""

    def __init__(self, center, radius: float):
        self.center = _reals(center, "ball center", (-1,), ConfigurationError)
        self.radius = _real(radius, "ball radius", "be finite and positive",
                            lambda r: 0.0 < r < math.inf, ConfigurationError)

    def project(self, space, x):
        x = space.point(x, "x")
        if self.center.shape != (space.dim,):
            raise InputError("ball center does not match the space dimension")
        d = x - self.center
        dist = space.norm(d)
        if dist <= self.radius:
            return x
        return self.center + (self.radius / dist) * d

    def _project_rows(self, space, rows):
        if self.center.shape != (space.dim,):
            raise InputError("ball center does not match the space dimension")
        d = rows - self.center
        # the point norm does not warn where a sum of squares overflows
        with np.errstate(over="ignore"):
            dist = space.row_norms(d)
        # rows inside are kept as they are, and their distances, zero
        # included, are never divided by
        outside = ~(dist <= self.radius)
        projected = rows.copy()
        projected[outside] = self.center + (self.radius / dist[outside])[:, None] * d[outside]
        return projected

    def __repr__(self):
        return f"Ball(center={self.center!r}, radius={self.radius!r})"


class AffineSpan(ConvexSetBase):
    """Affine set ``base + span(directions)`` with orthonormal directions.

    Parameters
    ----------
    space : SpaceDescriptor
        Space whose inner product orthonormality is checked against.  The
        same space must be used for later projections.
    base : array_like
        A point of the set.
    directions : array_like
        Shape ``(k, dim)``; rows must be orthonormal in the weighted inner
        product (Gram matrix within 1e-10 of the identity), which is
        checked at construction.

    Notes
    -----
    With orthonormal rows ``d_j`` the projection is
    ``base + sum_j <x - base, d_j> d_j``; it is precomputed here as a single
    affine map ``x -> shift + M x``.
    """

    GRAM_TOL = 1e-10

    def __init__(self, space: SpaceDescriptor, base, directions):
        base = _reals(base, "base", (space.dim,), ConfigurationError)
        directions = _reals(directions, "directions", (-1, space.dim), ConfigurationError)
        if directions.shape[0] < 1:
            raise ConfigurationError("affine span needs at least one direction")
        gram = directions @ (space.weights[None, :] * directions).T
        if not np.allclose(gram, np.eye(directions.shape[0]), atol=self.GRAM_TOL, rtol=0.0):
            raise ConfigurationError(
                "directions are not orthonormal in the space inner product "
                f"(Gram deviation {np.max(np.abs(gram - np.eye(directions.shape[0]))):.3e}, "
                f"tolerance {self.GRAM_TOL:g})"
            )
        self._space = space
        self.base = base
        self.directions = directions
        matrix = directions.T @ (directions * space.weights[None, :])
        self._matrix = matrix
        self._shift = base - matrix @ base

    def project(self, space, x):
        if space is not self._space and not same_space(space, self._space):
            raise InputError("affine span was validated against a different space")
        x = space.point(x, "x")
        return self._shift + self._matrix @ x

    def __repr__(self):
        return f"AffineSpan(base={self.base!r}, k={self.directions.shape[0]})"


def convex_set(cset) -> ConvexSetBase:
    """``cset`` itself; a :class:`ConfigurationError` unless it is a :class:`ConvexSetBase`."""
    if not isinstance(cset, ConvexSetBase):
        raise ConfigurationError(f"unsupported set kind: {type(cset).__name__}")
    return cset
