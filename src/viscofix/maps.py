"""Operator abstractions and constructors for the shipped problem operators.

Two operator families drive the iterations: nonexpansive maps ``T`` (the
solve target, fixed points of ``T``) and generalized contractions ``f``
(the viscosity term, contractive with respect to a modulus function).
These properties, and the inverse strong monotonicity of a
:class:`MonotoneOperatorSpec`, cannot be proven at runtime, so each has a
seeded statistical audit (:func:`check_nonexpansive`,
:func:`check_contraction`, :func:`check_inverse_strongly_monotone`).  The
three share one sampler of seeded random pairs that keeps the worst pair,
and each returns an :class:`AuditReport`.

Three constructors build the nonexpansive operators used by the
applications: averaging a strictly pseudocontractive map, the projected
forward step of a monotone variational inequality, and the quadrature
discretization of a Fredholm integral operator of the second kind.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import space as spc
from .errors import ConfigurationError, InputError

__all__ = [
    "ContractionModulus",
    "linear_modulus",
    "rational_modulus",
    "NonexpansiveMap",
    "GeneralizedContraction",
    "MonotoneOperatorSpec",
    "FredholmProblem",
    "AuditReport",
    "check_nonexpansive",
    "check_contraction",
    "check_inverse_strongly_monotone",
    "average_pseudocontraction",
    "forward_projected",
    "fredholm_operator",
    "fredholm_grid",
]


@dataclass(frozen=True)
class ContractionModulus:
    """Modulus function bounding how much a contraction shrinks distances.

    The modulus ``m`` satisfies ``m(0) = 0``, ``0 < m(t) < t`` for ``t > 0``,
    and is strictly increasing; its gauge ``t - m(t)`` is strictly
    increasing and unbounded.  Two parameterizations are supported:

    * ``linear``: ``m(t) = c * t`` with ``c`` in ``[0, 1)``.
    * ``rational``: ``m(t) = t / (1 + beta * t)`` with ``beta > 0``.
    """

    kind: str
    coefficient: float

    def __post_init__(self):
        if self.kind == "linear":
            if not (0.0 <= self.coefficient < 1.0):
                raise ConfigurationError(
                    f"linear modulus coefficient must lie in [0, 1), got {self.coefficient}"
                )
        elif self.kind == "rational":
            if not (self.coefficient > 0.0):
                raise ConfigurationError(
                    f"rational modulus coefficient must be positive, got {self.coefficient}"
                )
        else:
            raise ConfigurationError(f"unknown modulus kind: {self.kind!r}")

    def value(self, t: float) -> float:
        """Modulus value ``m(t)`` for ``t >= 0``."""
        if t < 0.0:
            raise InputError(f"modulus argument must be nonnegative, got {t}")
        if self.kind == "linear":
            return self.coefficient * t
        return t / (1.0 + self.coefficient * t)

    def gauge(self, t: float) -> float:
        """Gauge ``t - m(t)``, strictly increasing and unbounded."""
        return t - self.value(t)

    def gauge_inverse(self, s: float) -> float:
        """The ``t >= 0`` with ``gauge(t) = s``, in closed form.

        ``s / (1 - c)`` for ``linear``; for ``rational`` the positive root
        of ``beta t^2 = s (1 + beta t)``, ``s/2 + sqrt(s^2/4 + s/beta)``.
        """
        if s < 0.0:
            raise InputError(f"gauge values are nonnegative, got {s}")
        if self.kind == "linear":
            return s / (1.0 - self.coefficient)
        return 0.5 * s + math.sqrt(0.25 * s * s + s / self.coefficient)


def linear_modulus(c: float) -> ContractionModulus:
    return ContractionModulus(kind="linear", coefficient=float(c))


def rational_modulus(beta: float) -> ContractionModulus:
    return ContractionModulus(kind="rational", coefficient=float(beta))


@dataclass(frozen=True, eq=False)
class NonexpansiveMap:
    """Operator ``T`` with ``||Tx - Ty|| <= ||x - y||`` on its domain.

    The property itself is a declaration; :func:`check_nonexpansive` audits
    it on seeded random pairs.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    domain: spc.ConvexSetBase = field(default_factory=spc.WholeSpace)
    label: str = ""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(x)


@dataclass(frozen=True, eq=False)
class GeneralizedContraction:
    """Map ``f`` with ``||fx - fy|| <= m(||x - y||)`` for a modulus ``m``."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    modulus: ContractionModulus
    label: str = ""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(x)


@dataclass(frozen=True, eq=False)
class MonotoneOperatorSpec:
    """Operator ``A`` declared inverse-strongly monotone with constant alpha.

    The declaration means ``<Au - Av, u - v> >= ism_alpha * ||Au - Av||^2``;
    it is spot-checked on sampled pairs by
    :func:`check_inverse_strongly_monotone`, never proven.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    ism_alpha: float
    label: str = ""

    def __post_init__(self):
        if not (self.ism_alpha > 0.0):
            raise ConfigurationError(
                f"inverse-strong-monotonicity constant must be positive, got {self.ism_alpha}"
            )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(x)


@dataclass(frozen=True, eq=False)
class FredholmProblem:
    """Second-kind integral equation ``x(t) = g(t) + integral Phi(t,s,x(s)) ds``.

    Attributes
    ----------
    g : callable
        Source term on ``[0, 1]``; must accept numpy arrays.
    kernel : callable
        ``Phi(t, s, x)``, numpy-broadcastable in all three arguments.
    lipschitz_bound : float
        Declared bound with ``|Phi(t,s,x) - Phi(t,s,y)| <= bound * |x - y|``;
        must be <= 1 so the discretized operator is nonexpansive.  The bound
        is spot-checked by sampling when the operator is built; a violation
        warns but does not fail.
    grid_size : int
        Number of trapezoid intervals ``m`` (the grid has ``m + 1`` nodes
        ``t_i = i/m``), at least 2.
    linear : bool
        Declares the kernel linear in ``x``: ``Phi(t,s,x) = Phi(t,s,1) * x``
        for all ``t, s, x``.  The operator then applies the weighted
        quadrature matrix ``Phi(t_i, t_j, w_j)``, an ``(m+1)^2`` float64
        array built on the first call of ``T`` and then held by the
        operator, as one matrix-vector product per call.  The declaration
        is spot-checked on the same samples as the Lipschitz bound; a
        violation raises :class:`ConfigurationError`, because it would
        change the operator, not only the convergence rate.
    """

    g: Callable
    kernel: Callable
    lipschitz_bound: float
    grid_size: int
    linear: bool = False

    def __post_init__(self):
        if not (self.lipschitz_bound <= 1.0):
            raise ConfigurationError(
                f"kernel Lipschitz bound must be <= 1, got {self.lipschitz_bound}"
            )
        if self.grid_size < 2:
            raise ConfigurationError(f"grid_size must be >= 2, got {self.grid_size}")


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a seeded pair audit.

    ``worst`` is the worst score over the sampled pairs (the largest ratio
    for :func:`check_nonexpansive`, the smallest slack for the other two
    checks), ``witness`` the first pair that attains it (None when no pair
    beat the starting value), and ``n_samples``/``seed`` the audit's inputs.
    """

    passed: bool
    worst: float
    witness: Optional[tuple]
    n_samples: int
    seed: int


def _audit(space, n_samples, seed, score, worse, start, bound, domain=None):
    """Report the worst ``score(x, y, dist)`` under the order ``worse``.

    Points come from a seeded normal distribution of scale 3, each projected
    into ``domain`` when one is given.  Pairs at zero distance are skipped;
    the first of equally bad pairs is kept, and only values worse than
    ``start`` are kept at all.  The audit passes unless the worst value is
    worse than ``bound``.
    """
    if n_samples < 1:
        raise InputError(f"n_samples must be >= 1, got {n_samples}")
    # One draw in C order: every first point, then every second point.
    xs, ys = np.random.default_rng(seed).standard_normal((2, n_samples, space.dim)) * 3.0
    worst = start
    witness = None
    for x, y in zip(xs, ys):
        if domain is not None:
            x = spc.project(space, domain, x)
            y = spc.project(space, domain, y)
        dist = spc.norm(space, x - y)
        if dist == 0.0:
            continue
        value = score(x, y, dist)
        if worse(value, worst):
            worst = value
            witness = (x, y)
    return AuditReport(
        passed=not worse(worst, bound),
        worst=float(worst),
        witness=witness,
        n_samples=n_samples,
        seed=seed,
    )


def check_nonexpansive(
    space: spc.SpaceDescriptor,
    T: NonexpansiveMap,
    n_samples: int = 1000,
    seed: int = 0,
) -> AuditReport:
    """Audit ``||Tx - Ty|| <= ||x - y||`` on seeded random pairs.

    Pairs are drawn from a scaled normal distribution and projected into
    the map's domain.  The report passes when the largest observed ratio
    ``||Tx - Ty|| / ||x - y||`` is at most ``1 + 1e-10``; the witness is
    the first maximizing pair.  ``n_samples`` must be at least 1
    (:class:`InputError` otherwise).  Pairs that coincide after projection
    are skipped, so when every pair does, or ``T`` is constant, the ratio
    is ``0.0`` with no witness.
    """
    return _audit(
        space, n_samples, seed,
        lambda x, y, dist: spc.norm(space, T(x) - T(y)) / dist,
        operator.gt, 0.0, 1.0 + 1e-10, T.domain,
    )


def check_contraction(
    space: spc.SpaceDescriptor,
    f: GeneralizedContraction,
    n_samples: int = 1000,
    seed: int = 0,
) -> AuditReport:
    """Audit ``||fx - fy|| <= m(||x - y||)`` on seeded random pairs.

    The slack of a pair is ``m(||x - y||) - ||fx - fy||``; the check passes
    when the worst slack is at least ``-1e-10``, and the witness is the
    first pair with that slack.  ``n_samples`` must be at least 1
    (:class:`InputError` otherwise); pairs at zero distance are skipped.
    """
    return _audit(
        space, n_samples, seed,
        lambda x, y, dist: f.modulus.value(dist) - spc.norm(space, f(x) - f(y)),
        operator.lt, np.inf, -1e-10,
    )


def check_inverse_strongly_monotone(
    space: spc.SpaceDescriptor,
    A: MonotoneOperatorSpec,
    n_samples: int = 1000,
    seed: int = 0,
) -> AuditReport:
    """Spot-check ``<Au - Av, u - v> >= alpha * ||Au - Av||^2`` on pairs.

    The slack of a pair is the left side minus the right side; the check
    passes when the worst slack is at least ``-1e-10``, and the witness is
    the first pair with that slack.  ``n_samples`` must be at least 1
    (:class:`InputError` otherwise); pairs at zero distance are skipped.
    """

    def slack(u, v, _dist):
        du = A(u) - A(v)
        return spc.inner(space, du, u - v) - A.ism_alpha * spc.norm(space, du) ** 2

    return _audit(space, n_samples, seed, slack, operator.lt, np.inf, -1e-10)


def average_pseudocontraction(
    S: Callable[[np.ndarray], np.ndarray],
    lam: float,
    theta: float,
    smooth_L: float = 1.0,
    label: str = "",
) -> NonexpansiveMap:
    """Averaged map ``T x = theta x + (1 - theta) S x`` of a pseudocontraction.

    For ``S`` strictly pseudocontractive with constant ``lam`` (in the sense
    ``||Sx - Sy||^2 <= ||x - y||^2 - lam ||(I-S)x - (I-S)y||^2``) on a space
    with smoothness constant ``smooth_L`` (1 in the Hilbert setting), the
    averaged map is nonexpansive whenever ``theta`` lies in
    ``(0, min(1, lam / smooth_L^2)]``, and it has the same fixed points as
    ``S``.  Past 1 the average would extrapolate beyond ``x``.

    Parameters
    ----------
    S : callable or NonexpansiveMap-like
        The map to average.
    lam : float
        Strict pseudocontractivity constant, in ``[0, 1)``.
    theta : float
        Averaging weight; must satisfy ``0 < theta <= min(1, lam / smooth_L**2)``.
    smooth_L : float
        Smoothness constant of the space, default 1.

    Raises
    ------
    ConfigurationError
        If ``theta`` is outside the admissible interval.
    """
    if not (0.0 <= lam < 1.0):
        raise ConfigurationError(f"pseudocontractivity constant must lie in [0, 1), got {lam}")
    if not (smooth_L > 0.0):
        raise ConfigurationError(f"smoothness constant must be positive, got {smooth_L}")
    upper = min(1.0, lam / (smooth_L * smooth_L))
    if not (0.0 < theta <= upper):
        raise ConfigurationError(
            f"averaging weight must lie in (0, {upper:g}], got {theta}"
        )
    evaluator = getattr(S, "evaluator", S)
    theta = float(theta)

    def averaged(x, _ev=evaluator, _theta=theta):
        return _theta * x + (1.0 - _theta) * _ev(x)

    return NonexpansiveMap(evaluator=averaged, label=label or "averaged pseudocontraction")


def forward_projected(
    space: spc.SpaceDescriptor,
    constraint: spc.ConvexSetBase,
    A: MonotoneOperatorSpec,
    gamma: float,
) -> NonexpansiveMap:
    """Projected forward step ``x -> P_K(x - gamma A x)`` of a monotone VI.

    Fixed points of the returned map are exactly the solutions of the
    variational inequality over ``constraint``.  Nonexpansiveness requires
    ``0 < gamma <= 2 * ism_alpha``.

    Raises
    ------
    ConfigurationError
        If ``gamma`` is outside ``(0, 2 * ism_alpha]``.
    """
    upper = 2.0 * A.ism_alpha
    if not (0.0 < gamma <= upper):
        raise ConfigurationError(
            f"step size gamma must lie in (0, {upper:g}] (twice the declared "
            f"monotonicity constant), got {gamma}"
        )
    gamma = float(gamma)

    def stepped(x, _A=A.evaluator, _g=gamma):
        return spc.project(space, constraint, x - _g * _A(x))

    return NonexpansiveMap(evaluator=stepped, label="projected forward step")


def fredholm_grid(problem: FredholmProblem):
    """Trapezoid space and grid nodes used to discretize ``problem``."""
    return spc.trapezoid(problem.grid_size), spc.trapezoid_nodes(problem.grid_size)


def _spot_check_kernel(problem: FredholmProblem, nodes: np.ndarray) -> None:
    # Hypothesis audit only.  A loose Lipschitz bound only slows the
    # solver, so it warns; a false linearity declaration changes T, so it raises.
    rng = np.random.default_rng(20240801)
    ts = rng.choice(nodes, size=200)
    ss = rng.choice(nodes, size=200)
    xs = rng.standard_normal(200) * 3.0
    ys = xs + rng.standard_normal(200) * 2.0
    keep = xs != ys
    if not np.any(keep):
        return
    ts, ss, xs, ys = ts[keep], ss[keep], xs[keep], ys[keep]
    kx = np.asarray(problem.kernel(ts, ss, xs), dtype=float)
    if problem.linear:
        k1 = np.asarray(problem.kernel(ts, ss, 1.0), dtype=float)
        gap = float(np.max(np.abs(k1 * xs - kx)))
        if not gap <= 1e-12 * (1.0 + float(np.max(np.abs(kx)))):
            raise ConfigurationError(
                f"kernel declared linear in x, but sampled |Phi(t,s,1) x - Phi(t,s,x)| "
                f"reaches {gap:.6g}"
            )
    num = np.abs(kx - np.asarray(problem.kernel(ts, ss, ys), dtype=float))
    ratios = num / np.abs(xs - ys)
    worst = float(np.max(ratios))
    if worst > problem.lipschitz_bound + 1e-9:
        warnings.warn(
            f"sampled kernel Lipschitz ratio {worst:.6g} exceeds the declared "
            f"bound {problem.lipschitz_bound:g}",
            stacklevel=3,
        )


def fredholm_operator(problem: FredholmProblem) -> NonexpansiveMap:
    """Discretize the integral operator on the trapezoid grid.

    Returns the map with components
    ``(T x)_i = g(t_i) + sum_j w_j Phi(t_i, t_j, x_j)`` acting on the
    ``grid_size + 1`` node values.  With the declared kernel Lipschitz
    bound at most 1 the map is nonexpansive in the weighted norm.  A kernel
    declared ``linear`` is evaluated once, on the first call, into the
    weighted matrix ``Phi(t_i, t_j, w_j)``; every call is then ``g + KW @ x``.
    """
    space, nodes = fredholm_grid(problem)
    _spot_check_kernel(problem, nodes)
    gvals = np.asarray(problem.g(nodes), dtype=np.float64)
    if gvals.shape != nodes.shape:
        gvals = np.broadcast_to(gvals, nodes.shape).astype(np.float64)
    weights = space.weights
    tcol = nodes[:, None]
    srow = nodes[None, :]

    shape = (nodes.size, nodes.size)

    def kernel_table(x_row):
        values = np.asarray(problem.kernel(tcol, srow, x_row), dtype=np.float64)
        return values if values.shape == shape else np.broadcast_to(values, shape)

    if problem.linear:
        # Built lazily so that set-up and commands that never call T do not
        # pay for an (m+1)^2 kernel evaluation.
        weighted = None

        def integral_step(x):
            nonlocal weighted
            if weighted is None:
                weighted = np.ascontiguousarray(kernel_table(weights[None, :]))
            return gvals + weighted @ x

    else:

        def integral_step(x):
            return gvals + kernel_table(x[None, :]) @ weights

    return NonexpansiveMap(
        evaluator=integral_step, label=f"integral operator on {problem.grid_size + 1} nodes"
    )
