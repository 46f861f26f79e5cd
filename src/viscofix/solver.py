"""Iteration engine: implicit inner solves, the outer loop, and diagnostics.

Every scheme advances an iterate ``x_n`` by mixing a viscosity term
``f(x_n)``, the iterate itself, and an application of the target operator
``T``.  The implicit schemes place the unknown ``x_{n+1}`` inside ``T``;
each step then needs an inner fixed-point solve of the affine-in-``u`` map

    u  ->  base + coef * T(anchor + weight * u),

which is a contraction with factor ``coef * weight`` whenever ``T`` is
nonexpansive, so Picard iteration with a certified stopping rule solves
it; depth-1 Anderson mixing cuts its applications of ``T`` and keeps the
stopping rule.  The outer loop stops on the fixed-point residual
``||x_n - T x_n||``, the quantity the convergence analysis drives to zero;
the ``T(x_{n+1})`` it evaluates serves as the next step's ``T(x_n)``.

Scheme names accepted throughout (also the CLI vocabulary):

``explicit``
    ``x' = a f(x) + (1 - a) T(x)`` with the single weight ``a``
    collapsed from the three-term schedule (see :func:`run`).
``midpoint``
    ``x' = a f(x) + (1 - a) T((x + x') / 2)``.
``kema``
    ``x' = a f(x) + (1 - a) T(delta x + (1 - delta) x')``.
``three_term``
    ``x' = a1 f(x) + a2 x + a3 T(delta x + (1 - delta) x')``.
``new_implicit``
    ``x' = a1 f(x) + a2 x + a3 T((1 - delta) f(x) + delta x')``.
``mann_implicit``
    ``new_implicit`` with the identity substituted for ``f``.
``midpoint_mann``
    ``midpoint`` with the identity substituted for ``f``.

The two ``*_mann`` presets are realized by substitution into the general
schemes, not separate code paths; :func:`run` iterates every scheme.
"""

from __future__ import annotations

import csv
import enum
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import space as spc
from .errors import (
    ConfigurationError,
    InnerSolveError,
    InputError,
    NotConvergedError,
    _count,
    _real,
)
from .maps import _EPS, GeneralizedContraction, NonexpansiveMap
from .schedules import (Schedule, ScheduleParams, _condition_i_failure, _meets_condition_i,
                        schedule_eval)

__all__ = [
    "SchemeKind",
    "IDENTITY_SCHEMES",
    "SolverConfig",
    "IterationState",
    "TraceRow",
    "Termination",
    "SolveReport",
    "inner_implicit_solve",
    "run",
    "vi_residual",
    "compare_limits",
    "write_trace_csv",
    "read_trace_csv",
]


class SchemeKind(str, enum.Enum):
    EXPLICIT = "explicit"
    MIDPOINT = "midpoint"
    KEMA = "kema"
    THREE_TERM = "three_term"
    NEW_IMPLICIT = "new_implicit"
    MANN_IMPLICIT = "mann_implicit"
    MIDPOINT_MANN = "midpoint_mann"

    def __str__(self):
        return self.value


# Presets that hard-wire the viscosity term to the identity map.
IDENTITY_SCHEMES = frozenset({SchemeKind.MANN_IMPLICIT, SchemeKind.MIDPOINT_MANN})
# Schemes that mix f(x) and T by the single weight collapsed from the schedule.
_SINGLE_WEIGHT_SCHEMES = frozenset(
    {SchemeKind.EXPLICIT, SchemeKind.MIDPOINT, SchemeKind.KEMA, SchemeKind.MIDPOINT_MANN}
)


class Termination(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    SCHEDULE_RANGE_VIOLATION = "schedule_range_violation"
    NON_FINITE = "non_finite"
    INNER_SOLVE_FAILED = "inner_solve_failed"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration budgets for one run.

    ``outer_tol`` applies to the fixed-point residual ``||x - Tx||``;
    ``inner_tol`` to the certified residual of the implicit inner solve.
    """

    outer_tol: float = 1e-8
    max_outer: int = 100_000
    inner_tol: float = 1e-12
    record_trace: bool = True

    def __post_init__(self):
        for name in ("outer_tol", "inner_tol"):
            _real(
                getattr(self, name), name, "be finite and positive",
                lambda tol: 0.0 < tol < math.inf, ConfigurationError,
            )
        if not isinstance(self.record_trace, bool):
            raise ConfigurationError(f"record_trace must be a bool, got {self.record_trace!r}")
        _count(self.max_outer, "max_outer", 1, ConfigurationError)


class IterationState(NamedTuple):
    """Snapshot after a step: ``x_n``, its inner applications and its fixed-point residual."""

    n: int
    x: np.ndarray
    last_inner_iters: int
    residual: float


class TraceRow(NamedTuple):
    """One outer iteration: index ``n`` with the weights used at ``n``,
    the residual and step size of the produced iterate ``x_{n+1}``, and
    the inner-solve effort."""

    n: int
    residual: float
    step_norm: float
    inner_iters: int
    alpha1: float
    alpha2: float
    alpha3: float
    delta: float


# array typecodes of the TraceRow fields: int64 for n and inner_iters, double for the reals
_TRACE_CODES = "qddqdddd"


class _Trace(Sequence[TraceRow]):
    """Read-only trace rows kept as eight typed columns, 64 bytes per row.

    Items are :class:`TraceRow` s built on access; a slice is a list of
    them.  A trace equals another trace or a list with the same rows.
    """

    __slots__ = ("_columns",)

    def __init__(self):
        self._columns = tuple(array(code) for code in _TRACE_CODES)

    def _append(self, row) -> None:
        """Append the eight values of ``row``.

        An ``n`` or ``inner_iters`` outside the int64 range appends nothing
        and is an :class:`InputError` that names it.
        """
        n_col, res_col, step_col, inner_col, a1_col, a2_col, a3_col, delta_col = self._columns
        n, residual, step_norm, inner_iters, alpha1, alpha2, alpha3, delta = row
        try:
            n_col.append(n)
            inner_col.append(inner_iters)
        except OverflowError:
            # n went in when inner_iters is the one that did not fit
            name, value = ("inner_iters", inner_iters) if len(n_col) > len(inner_col) else ("n", n)
            del n_col[len(inner_col):]
            message = f"trace {name} = {value} is outside the 64-bit integer range"
            raise InputError(message) from None
        res_col.append(residual)
        step_col.append(step_norm)
        a1_col.append(alpha1)
        a2_col.append(alpha2)
        a3_col.append(alpha3)
        delta_col.append(delta)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(TraceRow._make, zip(*(col[index] for col in self._columns))))
        return TraceRow._make([col[index] for col in self._columns])

    def __iter__(self) -> Iterator[TraceRow]:
        return map(TraceRow._make, zip(*self._columns))

    def __eq__(self, other):
        if isinstance(other, _Trace):
            return self._columns == other._columns
        if isinstance(other, list):
            return len(other) == len(self) and list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<trace of {len(self)} rows>"


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a run.

    ``n_final`` is the index of ``final_point`` in the iteration (the
    start index when the initial point already met the tolerance, the
    first index with a non-finite residual for ``NON_FINITE``, and the
    step whose inner solve failed for ``INNER_SOLVE_FAILED``).  The trace
    is a read-only sequence of :class:`TraceRow`, one per executed step
    and about 64 bytes each; ``list(report.trace)`` gives a list.  It is
    empty when recording was disabled or no step was taken.
    """

    final_point: np.ndarray
    termination: Termination
    trace: Sequence[TraceRow]
    n_final: int
    final_residual: float
    space: spc.SpaceDescriptor
    message: str = ""


def _collapsed_weight(p: ScheduleParams) -> float:
    # Single-parameter schemes keep the f-vs-T mixing ratio of the
    # three-term schedule; run stops before alpha1 + alpha3 = 0.
    return p.alpha1 / (p.alpha1 + p.alpha3)


def _viscosity_eval(scheme: SchemeKind, f: Optional[GeneralizedContraction]):
    """``f``'s evaluator, or None where the scheme substitutes the identity."""
    if scheme in IDENTITY_SCHEMES:
        if f is not None:
            raise ConfigurationError(
                f"scheme {scheme} substitutes the identity for the viscosity term; "
                "pass f=None"
            )
        return None
    if f is None:
        raise ConfigurationError(f"scheme {scheme} requires a viscosity contraction f")
    return f.evaluator


def _picard_affine_solve(
    base: np.ndarray,
    coef: float,
    t_eval: Callable,
    anchor: np.ndarray,
    u_weight: float,
    u0: np.ndarray,
    inner_tol: float,
    nrm: Callable[[np.ndarray], float],
    record: Optional[list] = None,
    t_u0: Optional[np.ndarray] = None,
):
    """Certified fixed-point iteration on ``W(u) = base + coef * T(anchor + u_weight * u)``.

    Picard iteration with depth-1 Anderson mixing (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011): from the third application on, ``W`` is
    applied at ``g_k - theta (g_k - g_{k-1})`` instead of at ``g_k``, where
    ``g_k`` is the image of the k-th application, ``r_k`` is ``g_k`` minus
    that application's point, and ``theta`` minimises the Euclidean
    ``||r_k - theta (r_k - r_{k-1})||``.

    ``factor = coef * u_weight`` bounds the contraction factor when ``T``
    is nonexpansive, so ``||W(W v) - W v|| <= factor * ||W v - v||`` at any
    point ``v``, mixed or not: once ``factor * ||W v - v|| <= inner_tol``
    the returned ``W v`` has residual at most ``inner_tol``.  A plain step
    shrinks the gap ``||W v - v||`` by ``factor``; mixing runs only while
    every application does, within a relative 1e-9 or, where the gap nears
    the rounding of ``W v``, within ``4 eps (||W v|| + ||base||)``.  A mixed
    point that does not is dropped for the last plain image, and from the
    first application that does not on, the iteration is plain Picard.  So
    in exact arithmetic an honest ``T`` needs at most one application more
    than the count the factor certifies.  A zero factor means the map is
    constant and one application suffices.  The iteration budget is the
    certified count plus a margin of 10; running past it means ``T``
    shrank nothing, i.e. it is not the nonexpansive map it was declared to
    be, unless the last gap is within a few ulps of its image: then
    ``inner_tol`` lies below the iterate's rounding, and the message says
    so.  A non-finite gap fails at once.

    ``factor < 1`` is the callers' precondition: :func:`run` stops before
    a larger one, and in :func:`inner_implicit_solve` condition (i) gives
    ``a3 <= 1`` and ``delta < 1``, so ``fl(a3 * delta) <= delta < 1``.
    ``t_u0``, when given, is ``T(u0)``; it stands in for the first
    application's ``T`` call when that call's argument is bitwise ``u0``.
    """
    factor = coef * u_weight
    # the 1e-9 slack keeps rounding in a plain step from tripping the gate
    shrink = factor * (1.0 + 1e-9)
    u = u0
    mixing, mixed = True, False
    k = 0
    while True:
        k += 1
        arg = anchor + u_weight * u
        if k == 1 and t_u0 is not None and arg.tobytes() == u0.tobytes():
            g = base + coef * t_u0
        else:
            g = base + coef * t_eval(arg)
        if record is not None:
            record.append(g)
        r = g - u
        gap = nrm(r)
        if factor * gap <= inner_tol:
            return g, k
        if not math.isfinite(gap):
            raise InnerSolveError(
                f"inner solve gap is {gap!r} at application {k}: T or the "
                "starting point is not finite"
            )
        if k == 1:
            # a zero factor or gap returned and a non-finite gap raised above
            certified = math.ceil(
                (math.log(inner_tol) - math.log(factor * gap)) / math.log(factor)
            ) + 1
            cap = certified + 10
        if k >= cap:
            blame = "the operator does not contract as declared"
            if gap <= 4.0 * _EPS * nrm(g):  # the gap is at the iterate's rounding
                blame = f"inner_tol {inner_tol:g} is below the iterate's rounding (gap {gap:.3g})"
            raise InnerSolveError(
                f"inner solve exceeded {cap} applications (certified budget for "
                f"factor {factor:g}); {blame}"
            )
        if (
            mixing and k > 1 and gap > shrink * gap_prev
            and gap - shrink * gap_prev > 4.0 * _EPS * (nrm(g) + nrm(base))
        ):
            # this application shrank the gap less than a plain step must, by
            # more than the rounding of g = base + coef T(...), whose terms may
            # be larger than g: plain Picard from now on, from the last plain
            # image if the point was mixed
            mixing = False
            if mixed:
                u, mixed = g_prev, False
                continue
        u, mixed = g, False
        if mixing:
            if k > 1:
                dr = r - r_prev
                dd = float(np.dot(dr, dr))
                theta = float(np.dot(r, dr)) / dd if dd > 0.0 else math.nan
                if math.isfinite(theta):
                    u, mixed = g - theta * (g - g_prev), True
            g_prev, r_prev, gap_prev = g, r, gap


def _inner_pieces(scheme: SchemeKind, x: np.ndarray, fx: np.ndarray, p: ScheduleParams):
    """Affine inner-map pieces (base, coef, anchor, u_weight) per implicit scheme."""
    if scheme in _SINGLE_WEIGHT_SCHEMES:  # kema, midpoint and midpoint_mann
        a = _collapsed_weight(p)
        if scheme is SchemeKind.KEMA:
            return a * fx, 1.0 - a, p.delta * x, 1.0 - p.delta
        return a * fx, 1.0 - a, 0.5 * x, 0.5
    if scheme is SchemeKind.THREE_TERM:
        return p.alpha1 * fx + p.alpha2 * x, p.alpha3, p.delta * x, 1.0 - p.delta
    # new_implicit and mann_implicit
    return p.alpha1 * fx + p.alpha2 * x, p.alpha3, (1.0 - p.delta) * fx, p.delta


def inner_implicit_solve(
    space: spc.SpaceDescriptor,
    f: Optional[GeneralizedContraction],
    T: NonexpansiveMap,
    x_n,
    alphas: Sequence[float],
    delta: float,
    cfg: SolverConfig,
    record: Optional[list] = None,
):
    """Solve the implicit step of the general three-term scheme.

    Finds ``u`` with ``||u - W(u)|| <= inner_tol`` for
    ``W(u) = a1 f(x_n) + a2 x_n + a3 T((1 - delta) f(x_n) + delta u)``,
    by Picard iteration with depth-1 Anderson mixing started at
    ``u0 = x_n`` (see :func:`_picard_affine_solve`).  The contraction
    factor of ``W`` is at most ``a3 * delta``.  ``x_n``, ``f(x_n)`` and
    every value of ``T`` must be points of the space (see
    :meth:`~viscofix.space.SpaceDescriptor.point`); an
    :class:`InputError` says which is not.

    Parameters
    ----------
    f : GeneralizedContraction or None
        Viscosity term; ``None`` substitutes the identity.
    alphas : sequence of three reals
        Convex weights ``(a1, a2, a3)``; must sum to 1 within 1e-12.
    delta : float
        Implicit weight in ``(0, 1)``.
    record : list, optional
        When given, the image ``W(v)`` of every application is appended
        to it, in order.

    Returns
    -------
    (numpy.ndarray, int)
        The solution and the number of applications of ``W`` used.
    """
    a1, a2, a3 = (float(a) for a in alphas)
    p = ScheduleParams(a1, a2, a3, float(delta))
    if not _meets_condition_i(*p):
        raise InputError(_condition_i_failure(p, "in the supplied weights"))
    x = space.point(x_n, "x_n")
    fx = x if f is None else space.point(f.evaluator(x), "f(x_n)")
    base, coef, anchor, u_weight = _inner_pieces(SchemeKind.NEW_IMPLICIT, x, fx, p)

    def t_eval(v, _T=T.evaluator):
        return space.point(_T(v), "a value of T")

    return _picard_affine_solve(
        base, coef, t_eval, anchor, u_weight, x, cfg.inner_tol, space.norm, record
    )


def run(
    space: spc.SpaceDescriptor,
    scheme: SchemeKind,
    f: Optional[GeneralizedContraction],
    T: NonexpansiveMap,
    schedule: Schedule,
    x1,
    cfg: SolverConfig,
    observer: Optional[Callable[[IterationState], None]] = None,
) -> SolveReport:
    """Iterate the scheme from ``x1`` until the residual meets ``outer_tol``.

    The loop starts at the schedule's start index and stops when
    ``||x_n - T x_n|| <= outer_tol`` (including the initial point), at the
    first ``n`` whose residual is not finite (``NON_FINITE``; the initial
    point is checked too), when ``max_outer`` steps have been taken, when
    the weights at ``n`` leave their admissible ranges (the message says
    ``at n = N``), or when the inner solve of the step at ``n`` fails
    (``INNER_SOLVE_FAILED``; the message ends ``(outer step n = N)``).
    ``observer``, when given, receives every :class:`IterationState`
    including the initial one; the trace records one row per executed
    step when ``cfg.record_trace`` is set.  Every stop returns a report;
    ``run`` raises only for bad inputs: an :class:`InputError` when
    ``x1``, ``T(x1)`` or ``f(x1)`` is not a point of the space (see
    :meth:`~viscofix.space.SpaceDescriptor.point`; a non-finite entry of
    ``x1`` is let through, and the run ends ``NON_FINITE`` at once), the
    schedule's formula is malformed or a recorded step's ``n`` is past
    the trace's int64 range, and whatever ``T`` or ``f`` raise.

    Each step at ``n`` evaluates the weights and forms ``x_{n+1}``: by
    the collapsed single-weight update for ``explicit``, by a certified
    inner solve (see :func:`_picard_affine_solve`) otherwise.  ``run``
    checks each range rule where its numbers first exist and records the
    stop: condition (i), then ``alpha1 + alpha3 > 0`` for the single-weight
    schemes, then an inner factor below 1.  The ``T(x_{n+1})`` of its
    residual serves as the next step's ``T(x_n)``.

    Runs are deterministic: identical inputs produce bitwise-identical
    traces and reports.
    """
    scheme = SchemeKind(scheme)
    f_eval = _viscosity_eval(scheme, f)
    nrm = space.norm
    t_eval = T.evaluator
    n = n1 = schedule.start_index
    x = space.point(x1, "x1")
    tx = space.point(t_eval(x), "T(x1)")
    residual = nrm(x - tx)
    if observer is not None:
        observer(IterationState(n, x, 0, residual))
    trace = _Trace()
    termination, message = None, ""
    for _ in range(cfg.max_outer):
        if residual <= cfg.outer_tol or not math.isfinite(residual):
            break
        p = schedule_eval(schedule, n)
        if not _meets_condition_i(*p):
            termination = Termination.SCHEDULE_RANGE_VIOLATION
            message = _condition_i_failure(p, f"at n = {n}")
            break
        fx = x if f_eval is None else f_eval(x)
        if n == n1 and f_eval is not None:
            fx = space.point(fx, "f(x1)")
        if scheme in _SINGLE_WEIGHT_SCHEMES and p.alpha1 + p.alpha3 <= 0.0:
            termination, message = Termination.SCHEDULE_RANGE_VIOLATION, (
                "alpha1 + alpha3 = 0: the single-parameter schemes cannot consume "
                f"the weights at n = {n}"
            )
            break
        if scheme is SchemeKind.EXPLICIT:
            a = _collapsed_weight(p)
            x_next, inner_iters = a * fx + (1.0 - a) * tx, 0
        else:
            base, coef, anchor, u_weight = _inner_pieces(scheme, x, fx, p)
            if coef * u_weight >= 1.0:
                termination, message = Termination.SCHEDULE_RANGE_VIOLATION, (
                    f"inner map contraction factor {coef * u_weight:g} is not below 1 at n = {n}"
                )
                break
            try:
                x_next, inner_iters = _picard_affine_solve(
                    base, coef, t_eval, anchor, u_weight, x, cfg.inner_tol, nrm, t_u0=tx
                )
            except InnerSolveError as exc:
                termination, message = Termination.INNER_SOLVE_FAILED, f"{exc} (outer step n = {n})"
                break
        tx = t_eval(x_next)
        residual = nrm(x_next - tx)
        if cfg.record_trace:
            trace._append((n, residual, nrm(x_next - x), inner_iters, *p))
        n, x = n + 1, x_next
        if observer is not None:
            observer(IterationState(n, x, inner_iters, residual))
    if termination is None:
        if residual <= cfg.outer_tol:
            termination = Termination.CONVERGED
        elif not math.isfinite(residual):
            termination = Termination.NON_FINITE
            message = (
                f"residual at n = {n} is {residual!r}: x_n, "
                "T(x_n) or their distance is not finite"
            )
        else:
            termination = Termination.MAX_ITERS
            message = f"residual {residual:.6g} above tolerance after {cfg.max_outer} steps"
    return SolveReport(
        final_point=x,
        termination=termination,
        trace=trace,
        n_final=n,
        final_residual=residual,
        space=space,
        message=message,
    )


def vi_residual(
    space: spc.SpaceDescriptor,
    p,
    f: GeneralizedContraction,
    samples: Sequence,
) -> float:
    """Worst variational-inequality pairing of a computed limit.

    For the limit ``p`` produced with viscosity term ``f``, returns
    ``min over samples x of <p - f(p), x - p>`` where the samples lie in
    the target fixed-point set.  A genuine viscosity limit makes this
    nonnegative up to tolerance.  ``p``, ``f(p)`` and each sample are
    converted by :meth:`~viscofix.space.SpaceDescriptor.point`; a NaN
    pairing, wherever it lies among the samples, makes the result NaN.
    """
    if len(samples) == 0:
        raise InputError("vi_residual needs at least one sample point")
    p = space.point(p, "p")
    direction = p - space.point(f.evaluator(p), "f(p)")
    pairings = [float(space.inner(direction, space.point(x, f"samples[{i}]") - p))
                for i, x in enumerate(samples)]
    return math.nan if any(map(math.isnan, pairings)) else min(pairings)


def compare_limits(report_a: SolveReport, report_b: SolveReport) -> float:
    """Distance between the limits of two converged runs on one space."""
    bad = [
        str(r.termination)
        for r in (report_a, report_b)
        if r.termination is not Termination.CONVERGED
    ]
    if bad:
        raise NotConvergedError(
            "compare_limits needs converged runs, got termination "
            + " and ".join(bad)
        )
    if not spc.same_space(report_a.space, report_b.space):
        raise InputError("compare_limits needs runs on the same space")
    return spc.norm(report_a.space, report_a.final_point - report_b.final_point)


_TRACE_LINE = "%d,%.17g,%.17g,%d,%.17g,%.17g,%.17g,%.17g\r\n"
_TRACE_TYPES = tuple(int if code == "q" else float for code in _TRACE_CODES)


def write_trace_csv(trace: Sequence[TraceRow], path) -> None:
    """Write trace rows as CSV with 17-significant-digit reals and ``\\r\\n`` line ends."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(TraceRow._fields) + "\r\n")
        handle.writelines(_TRACE_LINE % row for row in trace)


def read_trace_csv(path) -> Sequence[TraceRow]:
    """Parse a trace CSV back into rows (exact round-trip of floats).

    The rows are read into the same read-only sequence :func:`run` returns.
    """
    rows = _Trace()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(TraceRow._fields):
            raise InputError(f"unexpected trace header: {header!r}")
        for record in reader:
            try:  # a short or long row, or a field that does not convert
                values = [conv(v) for conv, v in zip(_TRACE_TYPES, record, strict=True)]
            except ValueError as exc:
                raise InputError(f"malformed trace row: {record!r}") from exc
            rows._append(values)
    return rows
