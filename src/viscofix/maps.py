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
from .errors import ConfigurationError, InputError, _count, _real

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
    * ``rational``: ``m(t) = t / (1 + beta * t)`` with finite ``beta > 0``.
    """

    kind: str
    coefficient: float

    def __post_init__(self):
        name = f"{self.kind} modulus coefficient"
        if self.kind == "linear":
            c = _real(self.coefficient, name, "lie in [0, 1)", lambda c: 0.0 <= c < 1.0,
                      ConfigurationError)
        elif self.kind == "rational":
            _real(self.coefficient, name, "be positive", lambda b: b > 0.0, ConfigurationError)
            c = _real(self.coefficient, name, "be finite", math.isfinite, ConfigurationError)
        else:
            raise ConfigurationError(f"unknown modulus kind: {self.kind!r}")
        object.__setattr__(self, "coefficient", c)

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
    return ContractionModulus(kind="linear", coefficient=c)


def rational_modulus(beta: float) -> ContractionModulus:
    return ContractionModulus(kind="rational", coefficient=beta)


@dataclass(frozen=True, eq=False)
class NonexpansiveMap:
    """Operator ``T`` with ``||Tx - Ty|| <= ||x - y||`` on its domain.

    The property itself is a declaration; :func:`check_nonexpansive` audits
    it on seeded random pairs.

    Two private fields declare an affine form of ``T``; at most one is set.
    ``_diagonal``, when set, is a pair ``(c, d)`` with ``T(x) = c + d * x``
    elementwise and ``|d| <= 1``.  Only the builtin problems' builders set
    it (``builtin-linear``, ``line-projection``, ``pseudocontraction``).
    ``_factors``, when set, is a function of no arguments that returns
    ``(g, L, R)`` with ``T(x) = g + L (R x)``, ``L`` of shape ``(n, r)``
    and ``R`` of shape ``(r, n)``, or None when ``T`` is not applied
    through such factors; only :func:`fredholm_operator` sets it, for a
    declared-linear kernel, and calling it builds the factors if ``T``
    has not been called yet.  :func:`~viscofix.solver.run` starts each
    implicit step at the form's exact root, and its Picard solve still
    certifies that start with one evaluator call, so a form that disagrees
    with the evaluator costs applications, never accuracy.  They are
    fields, so ``dataclasses.replace(T, evaluator=...)`` keeps them.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    domain: spc.ConvexSetBase = field(default_factory=spc.WholeSpace)
    _diagonal: Optional[tuple] = field(default=None, repr=False)
    _factors: Optional[Callable[[], Optional[tuple]]] = field(default=None, repr=False)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(x)


@dataclass(frozen=True, eq=False)
class GeneralizedContraction:
    """Map ``f`` with ``||fx - fy|| <= m(||x - y||)`` for a modulus ``m``."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    modulus: ContractionModulus

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
    label: str = ""  # read by nothing; kept for callers that still pass it

    def __post_init__(self):
        alpha = _real(
            self.ism_alpha, "inverse-strong-monotonicity constant", "be finite and positive",
            lambda a: 0.0 < a < math.inf, ConfigurationError,
        )
        object.__setattr__(self, "ism_alpha", alpha)

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
        ``Phi(t, s, x)``, numpy-broadcastable and elementwise in all three
        arguments: each value may depend only on its own ``(t, s, x)``,
        because ``T`` reads the grid's values in parts (see
        :func:`fredholm_operator`, which also states what a call costs).
    lipschitz_bound : float
        Declared bound with ``|Phi(t,s,x) - Phi(t,s,y)| <= bound * |x - y|``;
        must lie in ``[0, 1]`` so the discretized operator is nonexpansive.
        The bound is spot-checked by sampling when the operator is built; a
        violation warns but does not fail.
    grid_size : int
        Number of trapezoid intervals ``m`` (the grid has ``m + 1`` nodes
        ``t_i = i/m``), at least 2.
    linear : bool
        Declares the kernel linear in ``x``: ``Phi(t,s,x) = Phi(t,s,1) * x``
        for all ``t, s, x``, so that ``T`` may apply the weighted values
        ``Phi(t_i, t_j, w_j)`` read once (see :func:`fredholm_operator`).
        The declaration is spot-checked on the same samples as the
        Lipschitz bound; a violation raises :class:`ConfigurationError`,
        because it would change the operator, not only the convergence rate.
    """

    g: Callable
    kernel: Callable
    lipschitz_bound: float
    grid_size: int
    linear: bool = False

    def __post_init__(self):
        bound = _real(self.lipschitz_bound, "kernel Lipschitz bound", "lie in [0, 1]",
                      lambda b: 0.0 <= b <= 1.0, ConfigurationError)
        object.__setattr__(self, "lipschitz_bound", bound)
        _count(self.grid_size, "grid_size", 2, ConfigurationError)


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


def _with_rows(point_fn, rows_fn=None):
    """``point_fn``, marked with ``rows_fn``, its form for a stack of points.

    ``rows_fn`` takes a float64 ``(k, dim)`` stack and returns, bit for
    bit, the stack of ``point_fn``'s values at its rows, with no warning
    that those calls would not raise.  None marks an elementwise
    ``point_fn`` that already does so.
    :func:`_images` reads the mark as ``point_fn._viscofix_rows``, a name
    no user evaluator is expected to have; only evaluators the library
    builds carry it.
    """
    point_fn._viscofix_rows = point_fn if rows_fn is None else rows_fn
    return point_fn


_WRAPPERS = (NonexpansiveMap, GeneralizedContraction, MonotoneOperatorSpec)


def _images(space, fn, points, name):
    """``fn`` at every row of ``points``, stacked into one ``(k, dim)`` array.

    When ``fn``'s evaluator carries a stack form (see :func:`_with_rows`)
    the stack is one call of it; a value that is not a float64 array of
    the points' shape is dropped for the per-point loop.  Any other ``fn``
    (a user's map, or one whose evaluator was replaced) is called once per
    row.  When every value is a float64 array of shape ``(dim,)``, which
    :meth:`~viscofix.space.SpaceDescriptor.point` returns as it is, they
    are stacked at once; otherwise each is converted by ``point``, whose
    :class:`InputError` names ``name`` and the first value it refuses.
    Every path gives the same bits.
    """
    rows = getattr(getattr(fn, "evaluator", None), "_viscofix_rows", None)
    if rows is not None:
        stacked = rows(points)
        if (
            type(stacked) is np.ndarray
            and stacked.dtype == np.float64
            and stacked.shape == points.shape
        ):
            return stacked
    # a wrapper's __call__ is its evaluator's, so the evaluator is called without it
    evaluator = fn.evaluator if type(fn) in _WRAPPERS else fn
    values = [evaluator(x) for x in points]
    if (
        set(map(type, values)) == {np.ndarray}
        and {v.dtype for v in values} == {spc._FLOAT64}
        and {v.shape for v in values} == {(space.dim,)}
    ):
        return np.array(values)
    return np.array([space.point(v, name) for v in values])


_AUDIT_VALUES = 1 << 12  # float64 values per audit chunk, 32 KiB (see _audit)


def _audit(space, n_samples, seed, fn, name, score, worse, start, bound,
           domain=spc.WholeSpace()):
    """Report the worst ``score(gaps, diffs, dists)`` under the order ``worse``.

    Points come from a seeded normal distribution of scale 3, each projected
    into ``domain``, the whole space by default (one array pass for a
    :class:`~viscofix.space.WholeSpace` or ``Ball``, else one ``project``
    call per point).  The first points are drawn whole, an ``(n_samples,
    dim)`` array; the second points continue the same stream through one
    reused buffer of ``max(1, _AUDIT_VALUES // dim)`` rows, and the pairs are
    projected, scored and evaluated in chunks of that many.  So beyond its
    first points an audit holds a few arrays of about ``_AUDIT_VALUES``
    values, whatever ``n_samples`` is.
    In each chunk, pairs at zero distance are dropped first, so ``fn`` is never
    called on them; ``fn`` is then evaluated at the chunk's remaining first
    points and then at its second points by :func:`_images` (one call of a
    built map's stack form, or one call per point).  ``score`` gets, one row
    per pair, ``fn(x) - fn(y)``, ``x - y`` and ``||x - y||``, and returns one
    score per pair.  A non-finite score fails the audit: ``worst`` is the
    first such score and the witness its pair.  Otherwise the first of
    equally bad pairs is kept, and only values worse than ``start`` are kept
    at all.  Every chunk is evaluated, so a value that is not a point raises
    wherever it lies.  The audit passes unless the worst value is worse than
    ``bound``.  The report is that of one pass over all the pairs, bit for
    bit.
    """
    _count(n_samples, "n_samples", 1, InputError)
    _count(seed, "seed", 0, InputError)
    rng = np.random.default_rng(seed)
    # One stream in C order: every first point, then every second point.
    xs = rng.standard_normal((n_samples, space.dim))
    xs *= 3.0
    project_rows = spc.convex_set(domain)._project_rows
    step = max(1, _AUDIT_VALUES // space.dim)
    second = np.empty((min(step, n_samples), space.dim))
    worst, witness, broken = start, None, False
    for lo in range(0, n_samples, step):
        x = xs[lo : lo + step]
        y = rng.standard_normal(out=second[: len(x)])
        y *= 3.0
        x, y = project_rows(space, x), project_rows(space, y)
        diffs = x - y
        dists = space.row_norms(diffs)
        apart = dists != 0.0
        if not apart.all():
            x, y, diffs, dists = x[apart], y[apart], diffs[apart], dists[apart]
        if not dists.size:
            continue
        fx, fy = _images(space, fn, x, name), _images(space, fn, y, name)
        if broken:
            continue  # the first non-finite score stands
        # non-finite values of fn are scored, and fail the audit, without warnings
        with np.errstate(over="ignore", invalid="ignore"):
            scores = score(fx - fy, diffs, dists)
        nonfinite = ~np.isfinite(scores)
        broken = bool(nonfinite.any())
        if broken:
            i = int(np.argmax(nonfinite))
        else:
            i = int(np.argmax(scores) if worse is operator.gt else np.argmin(scores))
        if broken or worse(scores[i], worst):
            worst, witness = scores[i], (x[i].copy(), y[i].copy())
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
    (:class:`InputError` otherwise).  Pairs are scored in array passes over
    chunks of about 2^12 values, with the report of one pass over them all.
    ``T`` is evaluated at a chunk's points in one call when the library
    built it with a stack form: the ``monotone`` problem's projected
    forward step.  Any other ``T``, including one whose evaluator was
    replaced, is called once per point; the report is the same bit for
    bit either way.  Pairs that coincide after projection
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

    The slack of a pair is the left side minus the right side, both taken
    by the space's one pairing :meth:`~viscofix.space.SpaceDescriptor.inner`,
    so the identity at alpha 1 has slack 0.0 exactly.  The check
    passes when the worst slack is at least ``-1e-10``, and the witness is
    the first pair with that slack.  ``n_samples``, dropped pairs, a non-finite
    slack and a value that is not a point are handled as in :func:`check_nonexpansive`.
    """

    def slack(gaps, diffs, _dists):
        return space.inner(gaps, diffs) - A.ism_alpha * space.inner(gaps, gaps)

    return _audit(space, n_samples, seed, A, "A(x)", slack, operator.lt, np.inf, -1e-10)


def average_pseudocontraction(
    S: Callable[[np.ndarray], np.ndarray],
    lam: float,
    theta: float,
) -> NonexpansiveMap:
    """Averaged map ``T x = theta x + (1 - theta) S x`` of a pseudocontraction.

    For ``S`` strictly pseudocontractive with constant ``lam`` (in the sense
    ``||Sx - Sy||^2 <= ||x - y||^2 - lam ||(I-S)x - (I-S)y||^2``), the
    averaged map is nonexpansive whenever ``theta`` lies in ``(0, lam]``
    (``lam / L^2`` for smoothness constant ``L``, 1 in every space here
    as each has an inner product), with the same fixed points as ``S``.

    Parameters
    ----------
    S : callable or NonexpansiveMap-like
        The map to average.
    lam : float
        Strict pseudocontractivity constant, in ``[0, 1)``.
    theta : float
        Averaging weight; must satisfy ``0 < theta <= lam``.

    Raises
    ------
    ConfigurationError
        If ``theta`` is outside the admissible interval.
    """
    lam = _real(lam, "pseudocontractivity constant", "lie in [0, 1)",
                lambda v: 0.0 <= v < 1.0, ConfigurationError)
    theta = _real(theta, "averaging weight", f"lie in (0, {lam:g}]",
                  lambda v: 0.0 < v <= lam, ConfigurationError)
    evaluator = getattr(S, "evaluator", S)

    def averaged(x, _ev=evaluator, _theta=theta):
        return _theta * x + (1.0 - _theta) * _ev(x)

    return NonexpansiveMap(evaluator=averaged)


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
    gamma = _real(
        gamma, "step size gamma",
        f"lie in (0, {upper:g}] (twice the declared monotonicity constant)",
        lambda g: 0.0 < g <= upper, ConfigurationError,
    )
    cset = spc.convex_set(constraint)

    def stepped(x, _A=A.evaluator, _g=gamma, _project=cset.project, _space=space):
        return _project(_space, x - _g * _A(x))

    rows = getattr(A.evaluator, "_viscofix_rows", None)
    if rows is not None:
        _with_rows(stepped, lambda xs: stepped(xs, _A=rows, _project=cset._project_rows))
    return NonexpansiveMap(evaluator=stepped)


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
# Values per row block of an (n, n) table (at least 2 rows): 128 KiB of
# float64, small enough for the allocator to reuse one block's memory for the
# next instead of mapping it afresh; blocks twice as large page-faulted enough
# to make the first call of a factored m = 4096 kernel up to 1.9x slower.
_BLOCK_VALUES = 1 << 14


def _row_block(n: int) -> int:
    return max(2, _BLOCK_VALUES // n)


def _low_rank_factors(n: int, read_rows, read_column):
    """Factors ``(L, R)`` with ``K = L @ R`` to rounding, or None.

    ``K`` is an ``n x n`` table that is never passed whole: ``read_rows(b0,
    b1)`` gives its rows ``b0:b1`` as a ``(b, n)`` array (``b1`` may pass
    ``n``), and ``read_column(j)`` gives its column ``j`` as an ``(n,)`` array.
    Cross approximation with partial pivoting (Bebendorf, Numer. Math. 86,
    2000): each term is the residual row through the pivot row and the
    residual column through that row's largest entry, so the factoring
    uses plain products, costs O(n r^2) and is deterministic.  It stops
    when the next residual row is below ``eps S``, where ``S`` is the
    largest row sum of ``|K|``.  The factors are accepted only when

    * ``r <= min(isqrt(n), (n^2 - 2^14) / (6 n))``: the cross
      approximation then costs O(n^2) at most, and ``L @ (R @ x)``, counted as
      ``3 n r`` entries plus ``2^13`` for its second product call, costs
      at most half the dense product;
    * ``max_i sum_j |K - L R|_ij <= n eps S``, the forward-error bound
      of the dense product itself;
    * ``max_i sum_k |L_ik| sum_j |R_kj| <= 2 S``, so the rounding and the
      partial sums of ``L @ (R @ x)``, and with them its overflow
      threshold, stay within a factor 2 of the dense product's.

    The row sums and the O(n^2 r) check read ``K`` in blocks of
    ``_row_block(n)`` rows, the pivots one row or column at a time, so
    memory stays O(n r) plus one block.  Each entry and each row sum comes
    out the same whatever the block, so the factors are those of the whole
    table, bit for bit.  A table with a non-finite entry is not factored.
    """
    max_rank = min(math.isqrt(n), (n * n - 2**14) // (6 * n))
    if max_rank < 1:
        return None
    step = _row_block(n)
    blocks = range(0, n, step)
    row_sums = np.concatenate([np.abs(read_rows(b, b + step)).sum(axis=1) for b in blocks])
    scale = float(np.max(row_sums))
    if not 0.0 < scale < math.inf:
        return None
    cols = np.empty((max_rank, n))  # L transposed: one term per row
    rows = np.empty((max_rank, n))
    unused = np.ones(n, dtype=bool)
    i = int(np.argmax(row_sums))
    rank = 0
    while True:
        row = read_rows(i, i + 1)[0] - cols[:rank, i] @ rows[:rank]
        unused[i] = False
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) <= _EPS * scale:
            break
        if rank == max_rank:
            return None
        cols[rank] = (read_column(j) - rows[:rank, j] @ cols[:rank]) / row[j]
        rows[rank] = row
        rank += 1
        i = int(np.argmax(np.where(unused, np.abs(cols[rank - 1]), -1.0)))
    left = np.ascontiguousarray(cols[:rank].T)
    right = rows[:rank].copy()
    error = max(
        float(np.max(np.abs(read_rows(b, b + step) - left[b : b + step] @ right).sum(1)))
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
    ``n = grid_size + 1`` node values.  With the declared kernel Lipschitz
    bound at most 1 the map is nonexpansive in the weighted norm.

    The kernel is called with ``t`` a column of nodes and ``s``, ``x`` rows
    (``(n, 1)`` and ``(1, n)``, or a part of them).  Its value is reduced
    with as many rows as it comes back with, broadcast along ``s`` only, and
    a value that does not broadcast to the part's shape raises
    :class:`ConfigurationError` from the call.  A value that does not vary
    with ``t`` (a scalar, an ``(n,)`` array or a ``(1, n)`` row) is one row,
    and each call is ``g + row @ w``, one O(m) product.  A value with ``n``
    rows makes each call ``g + K(x) @ w``: ``n^2`` kernel evaluations and
    one BLAS product.

    A kernel declared ``linear`` is read once, on the first call, as the
    weighted values ``K = Phi(t_i, t_j, w_j)``, and only in parts: blocks
    of ``_row_block(n)`` rows, ``Phi(t[b0:b1, None], s[None, :], w[None, :])``,
    and single columns, ``Phi(t[:, None], s[None, j:j+1], w[None, j:j+1])``.
    A first block whose value does not vary with ``t`` is kept as its one
    row, and every call is ``g + row @ x``.  Otherwise the call factors
    ``K = L @ R``, with ``L`` of shape ``(n, r)`` and ``R`` of shape
    ``(r, n)``, from those parts (:func:`_low_rank_factors`).  The factors
    are kept when ``r`` is small enough for ``L @ (R @ x)`` to cost at most
    half the dense product (never for ``m < 131``), when
    ``max_i sum_j |K - L R|_ij <= n eps max_i sum_j |K_ij|``, the
    forward-error bound of the dense product itself, and when the partial
    sums of ``L @ (R @ x)`` are bounded by twice those of ``K @ x``, so that
    it overflows no sooner than within that factor.  Every call is then
    ``g + L @ (R @ x)``, O(n r) instead of O(n^2).  A kernel that factors
    never forms ``K``: the first call holds O(n (block + r)) values at a
    time, and the operator keeps ``2 n r`` float64 values.  Otherwise, for
    a full-rank kernel such as ``min(t, s)/2``, ``K`` is filled block by
    block into one ``n^2`` float64 array and every call is ``g + K @ x``.
    The first call reads ``K`` twice: for the row sums and the forward
    error of the factors (O(n^2 r)), or for the row sums and the table when
    the factoring fails (O(n^2)); below ``m = 131`` it reads the table
    once.  Two operators built from one problem give bitwise-equal values.

    A factored operator declares its factors: its ``_factors`` form (see
    :class:`NonexpansiveMap`) returns ``(g, L, R)``, reading and factoring
    ``K`` first if no call has yet, so that the solver starts each implicit
    step at its exact root.  With the dense table or the one row the form
    returns None, and the general path declares none.
    """
    space, nodes = fredholm_grid(problem)
    _spot_check_kernel(problem, nodes)
    gvals = np.asarray(problem.g(nodes), dtype=np.float64)
    if gvals.shape != nodes.shape:
        gvals = np.broadcast_to(gvals, nodes.shape).astype(np.float64)
    weights = space.weights
    tcol = nodes[:, None]
    srow = nodes[None, :]
    wrow = weights[None, :]
    n = nodes.size

    def kernel_rows(t, s, x):
        # Phi(t, s, x) for a column of nodes t and rows s, x, broadcast along
        # s only, to (r, cols): r = 1 for a value that does not vary with t,
        # so its rows are never repeated.  The two usual shapes return first,
        # because the general path pays this check on every call.
        values = np.asarray(problem.kernel(t, s, x), dtype=np.float64)
        rows, cols = len(t), s.shape[1]
        if values.shape == (rows, cols) or values.shape == (1, cols):
            return values
        r = rows if values.ndim == 2 and values.shape[0] == rows else 1
        try:
            return np.broadcast_to(values, (r, cols))
        except ValueError:
            part = "" if (rows, cols) == (n, n) else f"the {(rows, cols)} part of "
            raise ConfigurationError(
                f"kernel value has shape {values.shape}, which does not broadcast to "
                f"{part}the ({n}, {n}) table of the {n}-node grid"
            ) from None

    if problem.linear:
        # Built lazily so that set-up and commands that never call T do not
        # pay for a kernel evaluation.  ``right`` stays None while ``left``
        # is the dense table, or its one row.
        left = right = None

        def read_rows(b0, b1):
            t = tcol[b0:b1]
            return np.broadcast_to(kernel_rows(t, srow, wrow), (len(t), n))

        def read_column(j):
            value = kernel_rows(tcol, srow[:, j : j + 1], wrow[:, j : j + 1])
            return np.broadcast_to(value, (n, 1))[:, 0]

        def read_table():
            nonlocal left, right
            block = _row_block(n)
            first = kernel_rows(tcol[:block], srow, wrow)
            if len(first) == 1:
                left = np.ascontiguousarray(first)
            elif (factors := _low_rank_factors(n, read_rows, read_column)) is not None:
                left, right = factors
            else:
                table = np.empty((n, n))  # filled in place: no second full-size array
                table[:block] = first
                for b in range(block, n, block):
                    table[b : b + block] = read_rows(b, b + block)
                left = table

        # np.dot, not @: numpy's matmul takes an (n, 1) by (1,) product
        # through its own loop, about 5x slower at n = 1025, for the same bits
        def integral_step(x):
            if left is None:
                read_table()
            if right is None:
                return gvals + np.dot(left, x)
            return gvals + np.dot(left, np.dot(right, x))

        def factors():
            if left is None:
                read_table()
            return None if right is None else (gvals, left, right)

        return NonexpansiveMap(evaluator=integral_step, _factors=factors)

    def integral_step(x):
        return gvals + kernel_rows(tcol, srow, x[None, :]) @ weights

    return NonexpansiveMap(evaluator=integral_step)
