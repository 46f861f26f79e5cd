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

    def value(self, t):
        """Modulus value ``m(t)`` for ``t >= 0``, elementwise for an array ``t``."""
        if np.any(np.less(t, 0.0)):
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
        quadrature matrix ``K = Phi(t_i, t_j, w_j)``, an ``(m+1)^2``
        float64 array built on the first call of ``T``.  Where ``K`` is
        numerically low rank (a degenerate or smooth kernel on a large
        enough grid) that call also factors it as ``K = L R`` within the
        dense product's own rounding bound, and the operator holds the
        ``O(m r)`` factors in place of the table; otherwise it holds the
        table and applies it as one matrix-vector product per call (see
        :func:`fredholm_operator`).  The declaration is spot-checked on the
        same samples as the Lipschitz bound; a violation raises
        :class:`ConfigurationError`, because it would change the operator,
        not only the convergence rate.
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


def _images(space, fn, points, name):
    """``fn`` at every row of ``points``, stacked into one ``(k, dim)`` array.

    An :class:`InputError` names ``name`` when the values are not points
    of the space, ragged ones included.
    """
    values = [fn(p) for p in points]
    try:
        stacked = np.array(values, dtype=np.float64)
    except ValueError:
        stacked = None
    if stacked is None or stacked.shape != points.shape:
        # some value is not a point: the first one raises, with its reason
        for value in values:
            space.value_point(value, name)
    return stacked


def _audit(space, n_samples, seed, fn, name, score, worse, start, bound, domain=None):
    """Report the worst ``score(gaps, diffs, dists)`` under the order ``worse``.

    Points come from a seeded normal distribution of scale 3, each projected
    into ``domain`` when one is given.  Pairs are scored in whole-array
    passes.  Pairs at zero distance are dropped first, so ``fn`` is never
    called on them; ``fn`` is then called once per remaining point, and
    ``score`` gets, one row per pair, ``fn(x) - fn(y)``, ``x - y`` and
    ``||x - y||``, and returns one score per pair.  A non-finite score
    fails the audit: ``worst`` is the first such score and the witness its
    pair.  Otherwise the first of equally bad pairs is kept, and only
    values worse than ``start`` are kept at all.  The audit passes unless
    the worst value is worse than ``bound``.
    """
    if n_samples < 1:
        raise InputError(f"n_samples must be >= 1, got {n_samples}")
    # One draw in C order: every first point, then every second point.
    xs, ys = np.random.default_rng(seed).standard_normal((2, n_samples, space.dim)) * 3.0
    # projecting into the whole space is the identity
    if domain is not None and type(domain) is not spc.WholeSpace:
        project = spc.convex_set(domain).project
        xs = np.array([project(space, x) for x in xs])
        ys = np.array([project(space, y) for y in ys])
    diffs = xs - ys
    dists = space.row_norms(diffs)
    apart = dists != 0.0
    if not apart.all():
        xs, ys, diffs, dists = xs[apart], ys[apart], diffs[apart], dists[apart]
    worst, witness, broken = start, None, False
    if dists.size:
        fx, fy = _images(space, fn, xs, name), _images(space, fn, ys, name)
        # non-finite values of fn are scored, and fail the audit, without warnings
        with np.errstate(over="ignore", invalid="ignore"):
            scores = score(fx - fy, diffs, dists)
        nonfinite = ~np.isfinite(scores)
        broken = bool(nonfinite.any())
        if broken:
            i = int(np.argmax(nonfinite))
        else:
            i = int(np.argmax(scores) if worse is operator.gt else np.argmin(scores))
        if broken or worse(scores[i], start):
            worst, witness = scores[i], (xs[i].copy(), ys[i].copy())
    return AuditReport(
        passed=not broken and not worse(worst, bound),
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
    (:class:`InputError` otherwise).  All pairs are scored in array passes
    with one ``T`` call per point.  Pairs that coincide after projection
    are dropped before ``T`` is called, so when every pair does, or ``T``
    is constant, the ratio is ``0.0`` with no witness.  A non-finite ratio
    fails the audit and is reported as ``worst``.  A value of ``T`` that
    is not a point of the space raises :class:`InputError`.
    """

    def ratio(gaps, _diffs, dists):
        return space.row_norms(gaps) / dists

    return _audit(
        space, n_samples, seed, T, "T(x)", ratio, operator.gt, 0.0, 1.0 + 1e-10, T.domain
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
    first pair with that slack.  ``n_samples``, dropped pairs, a non-finite
    slack and a value that is not a point are handled as in :func:`check_nonexpansive`.
    """

    def slack(gaps, _diffs, dists):
        return f.modulus.value(dists) - space.row_norms(gaps)

    return _audit(space, n_samples, seed, f, "f(x)", slack, operator.lt, np.inf, -1e-10)


def check_inverse_strongly_monotone(
    space: spc.SpaceDescriptor,
    A: MonotoneOperatorSpec,
    n_samples: int = 1000,
    seed: int = 0,
) -> AuditReport:
    """Spot-check ``<Au - Av, u - v> >= alpha * ||Au - Av||^2`` on pairs.

    The slack of a pair is the left side minus the right side; the check
    passes when the worst slack is at least ``-1e-10``, and the witness is
    the first pair with that slack.  ``n_samples``, dropped pairs, a non-finite
    slack and a value that is not a point are handled as in :func:`check_nonexpansive`.
    """

    def slack(gaps, diffs, _dists):
        # Python's float ** 2 (libm pow), as in the point-wise form: on
        # ~0.1% of values it differs from n * n in the last bit.  Where the
        # square overflows, ** raises OverflowError and n * n gives inf.
        norms = space.row_norms(gaps).tolist()
        squares = np.array([n ** 2 if n < 1e154 else n * n for n in norms])
        return space.inner(gaps, diffs) - A.ism_alpha * squares

    return _audit(space, n_samples, seed, A, "A(x)", slack, operator.lt, np.inf, -1e-10)


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
        If ``gamma`` is outside ``(0, 2 * ism_alpha]``, or ``constraint``
        is not a :class:`~viscofix.space.ConvexSetBase`.
    """
    upper = 2.0 * A.ism_alpha
    if not (0.0 < gamma <= upper):
        raise ConfigurationError(
            f"step size gamma must lie in (0, {upper:g}] (twice the declared "
            f"monotonicity constant), got {gamma}"
        )
    gamma = float(gamma)
    project = spc.convex_set(constraint).project

    def stepped(x, _A=A.evaluator, _g=gamma, _project=project, _space=space):
        return _project(_space, x - _g * _A(x))

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


_EPS = float(np.finfo(np.float64).eps)
_ROW_BLOCK = 64


def _low_rank_factors(table: np.ndarray):
    """Factors ``(L, R)`` with ``table = L @ R`` to rounding, or None.

    Cross approximation with partial pivoting (Bebendorf, Numer. Math. 86,
    2000): each term is the residual row through the pivot row and the
    residual column through that row's largest entry, so the factoring
    uses plain products, costs O(n r^2) and is deterministic.  It stops
    when the next residual row is below ``eps S``, where ``S`` is the
    largest row sum of ``|table|``.  The factors are accepted only when

    * ``r <= min(isqrt(n), (n^2 - 2^14) / (6 n))``: the cross
      approximation then costs O(n^2) at most, and ``L @ (R @ x)``, counted as
      ``3 n r`` entries plus ``2^13`` for its second product call, costs
      at most half the dense product;
    * ``max_i sum_j |table - L R|_ij <= n eps S``, the forward-error bound
      of the dense product itself;
    * ``max_i sum_k |L_ik| sum_j |R_kj| <= 2 S``, so the rounding and the
      partial sums of ``L @ (R @ x)``, and with them its overflow
      threshold, stay within a factor 2 of the dense product's.

    The row sums and the O(n^2 r) check read the table in row blocks, so
    no second n x n array is made.  A table with a non-finite entry is not
    factored.
    """
    n = table.shape[0]
    max_rank = min(math.isqrt(n), (n * n - 2**14) // (6 * n))
    if max_rank < 1:
        return None
    blocks = range(0, n, _ROW_BLOCK)
    row_sums = np.concatenate([np.abs(table[b : b + _ROW_BLOCK]).sum(axis=1) for b in blocks])
    scale = float(np.max(row_sums))
    if not 0.0 < scale < math.inf:
        return None
    cols = np.empty((max_rank, n))  # L transposed: one term per row
    rows = np.empty((max_rank, n))
    unused = np.ones(n, dtype=bool)
    i = int(np.argmax(row_sums))
    rank = 0
    while True:
        row = table[i] - cols[:rank, i] @ rows[:rank]
        unused[i] = False
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) <= _EPS * scale:
            break
        if rank == max_rank:
            return None
        cols[rank] = (table[:, j] - rows[:rank, j] @ cols[:rank]) / row[j]
        rows[rank] = row
        rank += 1
        i = int(np.argmax(np.where(unused, np.abs(cols[rank - 1]), -1.0)))
    left = np.ascontiguousarray(cols[:rank].T)
    right = rows[:rank].copy()
    error = max(
        float(np.max(np.abs(table[b : b + _ROW_BLOCK] - left[b : b + _ROW_BLOCK] @ right).sum(1)))
        for b in blocks
    )
    growth = float(np.max(np.abs(left) @ np.abs(right).sum(axis=1)))
    if not (error <= n * _EPS * scale and growth <= 2.0 * scale):
        return None
    return left, right


def fredholm_operator(problem: FredholmProblem) -> NonexpansiveMap:
    """Discretize the integral operator on the trapezoid grid.

    Returns the map with components
    ``(T x)_i = g(t_i) + sum_j w_j Phi(t_i, t_j, x_j)`` acting on the
    ``grid_size + 1`` node values.  With the declared kernel Lipschitz
    bound at most 1 the map is nonexpansive in the weighted norm.

    A kernel declared ``linear`` is evaluated once, on the first call, into
    the ``n x n`` weighted matrix ``K = Phi(t_i, t_j, w_j)`` (``n = m + 1``).
    That call also tries to factor ``K = L @ R`` with ``L`` of shape
    ``(n, r)`` and ``R`` of shape ``(r, n)``.  The factors replace the
    table when ``r`` is small enough for ``L @ (R @ x)`` to cost at most
    half the dense product (never for ``m < 131``), when
    ``max_i sum_j |K - L R|_ij <= n eps max_i sum_j |K_ij|``, the
    forward-error bound of the dense product itself, and when the partial
    sums of ``L @ (R @ x)`` are bounded by twice those of ``K @ x``, so that
    it overflows no sooner than within that factor.  Every call is then
    ``g + L @ (R @ x)``, O(n r) instead of O(n^2), and the operator holds
    ``2 n r`` float64 values instead of ``n^2`` (16 KB against 8.4 MB for
    a rank-1 kernel at ``m = 1024``).  Otherwise, for a full-rank kernel
    such as ``min(t, s)/2``, every call is ``g + K @ x`` bit for bit.  The
    one-time cost of the first call includes the attempt to factor:
    O(n^2) when it fails, O(n^2 r) when the factors are checked.  Two operators
    built from one problem give bitwise-equal values.
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
        # pay for an (m+1)^2 kernel evaluation.  ``right`` stays None while
        # ``left`` is the dense table.
        left = right = None

        def integral_step(x):
            nonlocal left, right
            if left is None:
                left = np.ascontiguousarray(kernel_table(weights[None, :]))
                factors = _low_rank_factors(left)
                if factors is not None:
                    left, right = factors
            if right is None:
                return gvals + left @ x
            return gvals + left @ (right @ x)

    else:

        def integral_step(x):
            return gvals + kernel_table(x[None, :]) @ weights

    return NonexpansiveMap(
        evaluator=integral_step, label=f"integral operator on {problem.grid_size + 1} nodes"
    )
