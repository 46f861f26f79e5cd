"""Parameter schedules for the iterations and their admissibility validator.

A schedule produces, for each index ``n``, the mixing weights
``(alpha1_n, alpha2_n, alpha3_n)`` (a convex combination: viscosity term,
previous iterate, operator term) and the implicit weight ``delta_n`` in
``(0, 1)``.  Three presets ship with hand-derived asymptotic facts; custom
schedules use the rational form ``a + b/(n + c)`` per sequence.

The validator checks the five admissibility conditions the convergence
analysis assumes:

  (i)   simplex membership: weights in [0, 1], summing to 1, delta in (0, 1);
  (ii)  the drift ``1 - alpha3*delta - alpha2`` tends to 0 and its series
        diverges;
  (iii) ``0 < liminf alpha2 <= limsup alpha2 < 1``;
  (iv)  ``alpha3 -> 0`` and ``sum alpha3*(1 - delta)`` is finite;
  (v)   ``delta`` nondecreasing with ``0 < eps <= delta_n <= bar < 1``.

Limit and series claims are undecidable from finite data, so for (ii)-(iv)
only declared analytic facts can yield "satisfied"; numeric estimation is
capped at "inconclusive" or "violated".
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, InputError, _count, _reals

__all__ = [
    "ScheduleParams",
    "AnalyticFacts",
    "Schedule",
    "eq75",
    "halpern_mix",
    "compare_t16",
    "custom_rational",
    "schedule_eval",
    "Status",
    "ConditionFinding",
    "ConditionReport",
    "validate_assumption12",
]


class ScheduleParams(NamedTuple):
    alpha1: float
    alpha2: float
    alpha3: float
    delta: float


@dataclass(frozen=True)
class AnalyticFacts:
    """Hand-derived asymptotics a preset declares about itself.

    ``drift`` refers to ``1 - alpha3*delta - alpha2`` and ``tail`` to the
    summand ``alpha3*(1 - delta)``.  ``ratio_limit`` is the limit of
    ``alpha3 / (1 - alpha2 - alpha3*delta)``, the hypothesis under which
    the two generalized implicit schemes share their limit; it is reported
    as a diagnostic, independently of condition (iv).
    """

    drift_limit: float
    drift_sum_diverges: bool
    alpha2_liminf: float
    alpha2_limsup: float
    alpha3_limit: float
    tail_sum_finite: bool
    delta_upper: float
    ratio_limit: float


@dataclass(frozen=True, eq=False)
class Schedule:
    """Weight generator with a start index and optional declared facts.

    ``formula(n)`` accepts a python integer or a float array and returns
    the four component values, each a scalar or an array of ``n``'s shape.
    It must be elementwise: the validator calls it on blocks of indices.
    The same expression serves both the scalar evaluation path and the
    vectorized validator path, keeping them bitwise consistent.
    """

    kind: str
    start_index: int
    formula: Callable = field(repr=False)
    facts: Optional[AnalyticFacts] = None

    def __post_init__(self):
        _count(self.start_index, "start index", 1, ConfigurationError)


# Below 2^52 every index n, 2n and 2n + 2 is an exact float64.
_MONOTONE_BELOW = 2**52


def _monotone(formula):
    """``formula``, marked as monotone in ``n`` with no pole over ``[1, 2^52)``.

    Each of its components is a chain of IEEE operations, each monotone
    in the index term, and round to nearest is monotone (``x <= y`` gives
    ``fl(x) <= fl(y)``; Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 2); so over any block of indices a
    component's extremes are its values at the block's two ends.
    :func:`validate_assumption12` reads the mark as
    ``formula._viscofix_monotone``, a name no user formula is expected to
    have; only formulas the library builds carry it.
    """
    formula._viscofix_monotone = True
    return formula


@_monotone
def _eq_weights(n):
    two_n = 2 * n
    return 1 / two_n, 1 - 3 / two_n, 1 / n, n / (two_n + 2)  # 2n + 2 = 2(n + 1), exact


@_monotone
def _halpern_mix(n):
    a1 = 1 / (n + 1)
    return a1, 0.5, 0.5 - a1, 0.5


@_monotone
def _compare_t16(n):
    inv, inv_sq = 1 / n, 1 / (n * n)
    return inv, 1 - inv - inv_sq, inv_sq, 0.5


def eq75(start_index: int = 2) -> Schedule:
    """Preset ``(1/(2n), 1 - 3/(2n), 1/n, n/(2(n+1)))``.

    The default start index is 2 because ``alpha2 = 1 - 3/(2n)`` is
    negative at ``n = 1``.  Declared facts: the drift tends to 0 with a
    divergent series (ii holds), ``alpha2`` tends to 1 (iii fails),
    ``sum alpha3*(1 - delta)`` behaves like ``sum 1/(2n)`` (iv fails),
    and ``delta`` increases from 1/3 toward 1/2 (v holds).
    """
    return Schedule(
        kind="eq75",
        start_index=start_index,
        formula=_eq_weights,
        facts=AnalyticFacts(
            drift_limit=0.0,
            drift_sum_diverges=True,
            alpha2_liminf=1.0,
            alpha2_limsup=1.0,
            alpha3_limit=0.0,
            tail_sum_finite=False,
            delta_upper=0.5,
            ratio_limit=1.0,
        ),
    )


def halpern_mix(start_index: int = 1) -> Schedule:
    """Preset ``(1/(n+1), 1/2, 1/2 - 1/(n+1), 1/2)``.

    The operator weight approaches 1/2 instead of vanishing, so the drift
    has limit 1/4 (ii fails) while ``alpha2`` is pinned at 1/2 (iii holds).
    Empirically this geometric mixing converges fast on the shipped
    problems.
    """
    return Schedule(
        kind="halpern-mix",
        start_index=start_index,
        formula=_halpern_mix,
        facts=AnalyticFacts(
            drift_limit=0.25,
            drift_sum_diverges=True,
            alpha2_liminf=0.5,
            alpha2_limsup=0.5,
            alpha3_limit=0.5,
            tail_sum_finite=False,
            delta_upper=0.5,
            ratio_limit=2.0,
        ),
    )


def compare_t16(start_index: int = 2) -> Schedule:
    """Preset ``(1/n, 1 - 1/n - 1/n^2, 1/n^2, 1/2)``.

    Built so that ``alpha3 / (1 - alpha2 - alpha3*delta)`` tends to 0 (the
    same-limit hypothesis for comparing the two implicit schemes) and
    ``sum alpha3*(1 - delta)`` converges (iv holds); ``alpha2`` tends to 1,
    so (iii) fails.  Starts at 2 because ``alpha2`` is negative at 1.
    """
    return Schedule(
        kind="compare-t16",
        start_index=start_index,
        formula=_compare_t16,
        facts=AnalyticFacts(
            drift_limit=0.0,
            drift_sum_diverges=True,
            alpha2_liminf=1.0,
            alpha2_limsup=1.0,
            alpha3_limit=0.0,
            tail_sum_finite=True,
            delta_upper=0.5,
            ratio_limit=0.0,
        ),
    )


def custom_rational(
    alpha1: tuple,
    alpha2: tuple,
    alpha3: tuple,
    delta: tuple,
    start_index: int = 1,
) -> Schedule:
    """Schedule with each sequence of the form ``a + b/(n + c)``.

    Each argument is a coefficient triple ``(a, b, c)``; a pole ``n + c = 0``
    at or after the start index is refused.  No analytic facts are
    attached, so the validator can report at most "inconclusive" for the
    limit and series conditions.  When every ``1 + c > 0``, no pole lies
    in ``[1, horizon]`` and each sequence is monotone in floating point
    for ``n < 2^52`` (``n + c`` rises, ``b`` over it moves one way and
    ``a`` plus it follows, each step rounded monotonically), so the
    formula carries the library's monotone mark (see
    :func:`validate_assumption12`).  A pole in ``[1, start_index)``
    leaves it unmarked.
    """
    start_index = _count(start_index, "start index", 1, ConfigurationError)
    if start_index > sys.float_info.max:  # n + c is float arithmetic
        raise ConfigurationError("custom-rational start index must be at most the largest float")
    coeffs = []
    for name, triple in zip(ScheduleParams._fields, (alpha1, alpha2, alpha3, delta)):
        a, b, c = _reals(triple, f"{name} coefficients", (3,), ConfigurationError).tolist()
        if start_index + c <= 0:
            raise ConfigurationError(f"{name} has a pole at or after the start index (c = {c})")
        coeffs.append((a, b, c))
    monotone = all(1 + c > 0 for _, _, c in coeffs)
    shifts, terms = [], []  # n + c is formed once per distinct c
    for a, b, c in coeffs:
        if monotone and b == 0.0:
            # no pole from n = 1 on: b / (n + c) is the zero b itself, so the term is a constant
            terms.append((a + b, b, None))
            continue
        if c not in shifts:
            shifts.append(c)
        terms.append((a, b, shifts.index(c)))

    def rational(n, _shifts=tuple(shifts), _terms=tuple(terms)):
        shifted = [n + c for c in _shifts]
        return tuple(a if k is None else a + b / shifted[k] for a, b, k in _terms)

    if monotone:
        _monotone(rational)
    return Schedule(kind="custom-rational", start_index=start_index, formula=rational)


def schedule_eval(s: Schedule, n: int) -> ScheduleParams:
    """Evaluate the schedule at the integer index ``n >= start_index``.

    Pure and deterministic; repeated evaluation yields bitwise-identical
    tuples.  Any other index, a formula that overflows at ``n`` and
    values that :func:`_weights` refuses are input errors.
    """
    n = _count(n, "schedule index", s.start_index, InputError)
    try:
        values = s.formula(n)
    except OverflowError as exc:
        raise InputError(f"schedule {s.kind}: formula overflows at the index: {exc}") from None
    try:
        a1, a2, a3, d = values
        if type(a1) is float and type(a2) is float and type(a3) is float and type(d) is float:
            return ScheduleParams(a1, a2, a3, d)
    except (TypeError, ValueError):
        pass  # _weights says what is wrong
    return ScheduleParams(*map(float, _weights(s, values, ())))


def _weights(s: Schedule, values, shape: tuple) -> tuple:
    """A formula's ``values`` as four float64 arrays of ``shape``, ``()`` at one index.

    Each is held to :func:`~viscofix.errors._reals`'s rule, NaN and inf let
    through, and broadcast; a Python float and a float64 array of ``shape``
    pass as they are.  Every failure is an :class:`InputError`.
    """

    def weight(name, v):
        if type(v) is np.ndarray and v.dtype == np.float64 and v.shape == shape:
            return v
        if type(v) is not float:
            v = _reals(v, f"schedule {s.kind}: {name}", (-1,) * np.ndim(v), InputError, False)
        return np.broadcast_to(v, shape)  # a read-only view

    try:
        a1, a2, a3, d = values
        return tuple(map(weight, ScheduleParams._fields, (a1, a2, a3, d)))
    except InputError:
        raise
    except (TypeError, ValueError):  # another count, or a shape that does not broadcast
        want = "real numbers" if shape == () else f"scalars or arrays of shape {shape}"
        try:
            got = f"{len(values)} values of shapes " + ", ".join(str(np.shape(v)) for v in values)
        except (TypeError, ValueError):
            got = f"a {type(values).__name__}"
        kind = f"schedule {s.kind}: formula must return (alpha1, alpha2, alpha3, delta)"
        raise InputError(f"{kind} as four {want}, got {got}") from None


class Status(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ConditionFinding:
    status: Status
    detail: str


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition verdicts plus diagnostics and range bookkeeping.

    ``range_violations`` holds the first eight indices where condition (i)
    fails, in increasing order; ``range_violation_count`` counts them all.
    """

    conditions: dict
    range_violations: list
    range_violation_count: int
    diagnostics: dict

    def status(self, key: str) -> Status:
        return self.conditions[key].status

    def render(self) -> str:
        lines = []
        for key in ("i", "ii", "iii", "iv", "v"):
            finding = self.conditions[key]
            lines.append(f"({key}) {finding.status}: {finding.detail}")
        if self.range_violations:
            shown = ", ".join(str(n) for n in self.range_violations)
            more = "" if self.range_violation_count == len(self.range_violations) else ", ..."
            lines.append(f"range violations at n = {shown}{more}")
        lines.append(
            "same-limit ratio alpha3/(1 - alpha2 - alpha3*delta): "
            f"{self.diagnostics['same_limit_ratio']} (reported independently of condition (iv))"
        )
        return "\n".join(lines)


_SIMPLEX_TOL = 1e-12
_SHOWN_VIOLATIONS = 8  # range violation indices a report keeps


def _meets_condition_i(a1, a2, a3, d):
    """Condition (i), elementwise on floats or arrays; NaN and +-inf fail every comparison.

    The alphas lie in [0, 1] and sum to 1 within ``_SIMPLEX_TOL``, and delta lies in (0, 1).
    """
    return (
        (a1 >= 0.0) & (a1 <= 1.0)
        & (a2 >= 0.0) & (a2 <= 1.0)
        & (a3 >= 0.0) & (a3 <= 1.0)
        & (abs(a1 + a2 + a3 - 1.0) <= _SIMPLEX_TOL)
        & (d > 0.0) & (d < 1.0)
    )


def _condition_i_failure(p: ScheduleParams, where: str) -> str:
    """The first way ``p`` fails condition (i), as text located by ``where``; ``p`` must fail it."""
    a1, a2, a3, d = p
    if not np.isfinite(p).all():
        return f"non-finite weights {where}"
    if not (0.0 <= a1 <= 1.0 and 0.0 <= a2 <= 1.0 and 0.0 <= a3 <= 1.0):
        return f"weight outside [0, 1] {where}: ({a1:g}, {a2:g}, {a3:g})"
    if abs(a1 + a2 + a3 - 1.0) > _SIMPLEX_TOL:
        return f"weights do not sum to 1 {where} (sum = {a1 + a2 + a3!r})"
    return f"delta outside (0, 1) {where}: {d:g}"


# Indices per validator block: each float64 temporary is 64 KiB, half glibc's
# 128 KiB mmap threshold, so it always comes from the heap and the validator's
# time does not depend on the heap layout left by other code.
_BLOCK = 1 << 13


class _TailFit:
    """Least-squares slope of ``log(values)`` against ``log n`` over the positive values, by block.

    One block gives the centred closed form ``sum((x - x_bar)(y - y_bar)) / sum((x - x_bar)^2)``;
    blocks' centred moments are merged by the pairwise update of Chan, Golub and LeVeque
    (Am. Stat. 37, 1983), which keeps the digits that raw sums of ``x`` and ``x^2`` lose.
    """

    def __init__(self):
        self.moments = (0, 0.0, 0.0, 0.0, 0.0)  # count, mean_x, mean_y, Sxx, Sxy

    def add(self, log_ns: np.ndarray, values: np.ndarray, centred: tuple) -> None:
        """Take in the block's ``values`` at ``log n``; ``centred`` is ``(mean, log_ns - mean)``."""
        kept = len(values)
        if values.min() > 0.0:
            mean_x, x = centred
        else:
            sel = values > 0.0
            kept = int(np.count_nonzero(sel))
            if kept == 0:
                return
            log_ns, values = log_ns[sel], values[sel]
            mean_x = log_ns.sum() / kept  # np.mean's bits
            x = log_ns - mean_x
        y = np.log(values)
        mean_y = y.sum() / kept
        y -= mean_y
        count, mx, my, sxx, sxy = self.moments
        total, dx, dy = count + kept, mean_x - mx, mean_y - my
        weight = count * kept / total  # 0 for the first block, whose moments are taken as they are
        self.moments = (
            total, mx + dx * (kept / total), my + dy * (kept / total),
            sxx + np.dot(x, x) + dx * dx * weight, sxy + np.dot(x, y) + dx * dy * weight,
        )

    def slope(self) -> Optional[float]:
        """``None`` when fewer than 10 values were positive."""
        count, _, _, sxx, sxy = self.moments
        return None if count < 10 else float(sxy / sxx)


def _series_verdict(tail, slope, partial_sum, name, summable, all_zero=False):
    """Heuristic verdict for 'limit 0, series finite' or 'divergent' (capped).

    ``tail`` is ``(min, max, first, last, mean)`` of the magnitudes of the
    sequence that must tend to 0 over the last decade and ``slope`` the tail
    exponent of the series' summand; ``summable`` says whether the condition
    needs the series finite or divergent.  ``all_zero`` says whether the
    sequence vanishes over the whole horizon, which matters for divergence.
    """
    lo, _, first, last, mean = tail
    if not summable and all_zero:
        return ConditionFinding(
            Status.VIOLATED,
            f"{name} is identically zero over the horizon; its series is finite",
        )
    if lo > 1e-6 and last >= 0.5 * first:
        return ConditionFinding(
            Status.VIOLATED,
            f"{name} appears to have a nonzero limit (tail mean {mean:.4g})",
        )
    if slope is not None and summable and slope >= -1.05:
        return ConditionFinding(
            Status.VIOLATED,
            f"series divergence suspected (tail exponent {slope:.2f} >= -1.05)",
        )
    if slope is not None and not summable and slope < -1.05:
        return ConditionFinding(
            Status.VIOLATED,
            f"{name} series appears summable (tail exponent {slope:.2f}), "
            "but the condition needs divergence",
        )
    slope_txt = "n/a" if slope is None else f"{slope:.2f}"
    return ConditionFinding(
        Status.INCONCLUSIVE,
        f"consistent with the condition numerically (partial sum "
        f"{partial_sum:.4g}, tail exponent {slope_txt}) but not certifiable "
        "from finite data",
    )


def _band_inside_unit_interval(a2, first_n: int, last_n: int):
    """Heuristic verdict for '0 < liminf <= limsup < 1' (capped) from alpha2's last decade.

    ``a2`` is ``(min, max, first, last, mean)`` of alpha2 over ``[first_n, last_n]``.
    """
    lo, hi, first, last, _ = a2
    top_gap = 1.0 - hi  # the least of 1 - alpha2
    if top_gap < 1e-3 and 1.0 - last <= 0.5 * (1.0 - first):
        return ConditionFinding(
            Status.VIOLATED, "limsup appears to reach 1 (upper gap shrinking)"
        )
    if lo < 1e-3 and last <= 0.5 * first:
        return ConditionFinding(
            Status.VIOLATED, "liminf appears to reach 0 (lower gap shrinking)"
        )
    return ConditionFinding(
        Status.INCONCLUSIVE,
        f"values stay within [{lo:.4g}, {1 - top_gap:.4g}] "
        f"over n in [{first_n}, {last_n}]; asymptotic bounds not certifiable "
        "from finite data",
    )


def _extremes(v, monotone):
    """``(min, max)`` of the block ``v``: its two ends when ``v`` is monotone, else two reductions."""
    if monotone:
        first, last = v[0], v[-1]
        return (first, last) if first <= last else (last, first)
    return v.min(), v.max()


def _tail_row(v, monotone):
    """``(min, max, first, last, sum)`` of the tail block ``v``."""
    return (*_extremes(v, monotone), v[0], v[-1], v.sum())


# NaN, inf and overflow in a formula's values and in the arithmetic on them are report content
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def validate_assumption12(s: Schedule, horizon: int) -> ConditionReport:
    """Check the five admissibility conditions over ``[start_index, horizon]``.

    Condition (i) and the monotone band condition (v) are checked exactly
    over the horizon.  The limit and series conditions (ii), (iii), (iv)
    are resolved from the schedule's declared analytic facts when present;
    otherwise they are estimated from partial sums and tail exponents and
    the verdict is capped at inconclusive or violated.  The tail exponents
    are fitted for those estimates only, so under declared facts the
    ``drift_tail_exponent`` and ``tail_exponent`` diagnostics are None.
    Indices from 1 up to the start index are probed too: simplex failures
    there are range violations that do not affect the condition verdicts.

    The indices are walked in blocks of ``_BLOCK`` and only the first range
    violations are kept, so memory does not grow with the horizon.  The
    formulas the library builds (the presets, and ``custom_rational``'s
    when every ``1 + c > 0``) carry a private monotone mark: each
    component is monotone in floating point for ``n < 2^52`` with no pole
    in the probed range ``[1, horizon]``.  For them a block's range
    bounds, delta's order within it and alpha2's and alpha3's tail
    extremes are read from the block's two ends; the simplex sum, the
    partial sums and the drift's tail are still formed at every index,
    because no bracket of the ends is as narrow as ``_SIMPLEX_TOL``.  The
    report is the same bit for bit either way.
    Findings are report content; this function does not raise on them.
    """
    horizon = _count(horizon, "horizon", 100, InputError)
    if horizon <= s.start_index:
        raise InputError(
            f"horizon {horizon} must exceed the start index {s.start_index}"
        )

    facts, start = s.facts, s.start_index
    monotone = getattr(s.formula, "_viscofix_monotone", False) and horizon < _MONOTONE_BELOW
    tail_start = max(horizon // 10, start)  # the last decade, which every heuristic reads
    range_violations, n_violations, first_bad = [], 0, None
    drift_sum = tail_sum = -0.0  # -0.0 + x is x for every float x
    d_min, d_max, d_prev, first_drop = np.inf, -np.inf, None, None
    # facts-free heuristics only: the tail fits, the largest |drift|, per-block
    # tail rows, the last finite ratio
    drift_fit, tail_fit = _TailFit(), _TailFit()
    drift_peak, tail_rows, ratio_last = 0.0, [], None
    for lo in range(1, horizon + 1, _BLOCK):
        ns = np.arange(lo, min(lo + _BLOCK, horizon + 1), dtype=np.float64)
        a1, a2, a3, d = _weights(s, s.formula(ns), ns.shape)
        # Eight bounds and the simplex sum decide (i) for the whole block, and the
        # elementwise test runs only where one fails.  NaN fails every comparison
        # either way; a pole below the start index gives inf - inf = NaN.
        (a1_lo, a1_hi), (a2_lo, a2_hi), (a3_lo, a3_hi), (d_lo, d_hi) = (
            _extremes(v, monotone) for v in (a1, a2, a3, d)
        )
        sums = a1 + a2
        sums += a3
        sums -= 1.0
        if not (
            d_lo > 0.0 and d_hi < 1.0
            and a1_lo >= 0.0 and a1_hi <= 1.0
            and a2_lo >= 0.0 and a2_hi <= 1.0
            and a3_lo >= 0.0 and a3_hi <= 1.0
            and np.abs(sums, out=sums).max() <= _SIMPLEX_TOL
        ):
            bad = np.flatnonzero(~_meets_condition_i(a1, a2, a3, d)) + lo
            n_violations += bad.size
            range_violations.extend(bad[: _SHOWN_VIOLATIONS - len(range_violations)].tolist())
            if first_bad is None and bad.size and bad[-1] >= start:
                first_bad = int(bad[np.searchsorted(bad, start)])
        if lo + len(ns) <= start:
            continue
        n0 = max(lo, start)  # the first index n >= start_index in the block
        if lo < start:
            ns, a2, a3, d = ns[start - lo :], a2[start - lo :], a3[start - lo :], d[start - lo :]
            d_lo, d_hi = _extremes(d, monotone)
        drift = a3 * d
        np.subtract(1.0, drift, out=drift)
        drift -= a2  # 1 - a3 d - a2
        tail_summand = 1.0 - d
        tail_summand *= a3
        drift_sum += float(drift.sum())
        tail_sum += float(tail_summand.sum())
        # np.minimum's and np.maximum's choices: the second value unless the first is
        # strictly beyond it or NaN
        if not d_min < d_lo and d_min == d_min:
            d_min = d_lo
        if not d_max > d_hi and d_max == d_max:
            d_max = d_hi
        if first_drop is None:
            # d_prev: the last delta before the block
            if d_prev is not None and not d[0] - d_prev >= -1e-15:
                first_drop = n0 - 1
            elif not (monotone and d[0] <= d[-1]):  # a monotone delta that rises never drops
                rises = d[1:] - d[:-1]
                if not rises.min(initial=0.0) >= -1e-15:
                    first_drop = n0 + int(np.argmin(rises >= -1e-15))
        d_prev = d[-1]
        if facts is not None:
            continue  # declared facts decide (ii)-(iv): nothing below is read
        drift_peak = np.maximum(drift_peak, max(drift.max(), -drift.min()))
        if n0 + len(d) > tail_start:
            tail = slice(max(tail_start - n0, 0), None)
            log_ns = np.log(ns[tail])
            mean_x = log_ns.sum() / len(log_ns)  # np.mean's bits
            centred = (mean_x, log_ns - mean_x)
            drift_mags = np.abs(drift[tail])
            drift_fit.add(log_ns, drift_mags, centred)
            tail_fit.add(log_ns, np.abs(tail_summand[tail]), centred)
            a3_tail = a3[tail]
            # |alpha3| is monotone where a monotone alpha3 keeps one sign
            a3_monotone = monotone and (a3_tail[0] >= 0.0) == (a3_tail[-1] >= 0.0)
            tail_rows.append([
                _tail_row(drift_mags, False),
                _tail_row(np.abs(a3_tail), a3_monotone),
                _tail_row(a2[tail], monotone),
            ])
        # the ratio at the block's last index, and over the block only when that is not finite
        last = a3[-1] / (1.0 - a2[-1] - a3[-1] * d[-1])
        if not np.isfinite(last):
            ratio = a3 / (1.0 - a2 - a3 * d)
            finite = np.flatnonzero(np.isfinite(ratio))
            last = ratio[finite[-1]] if finite.size else ratio_last
        ratio_last = last

    if first_bad is None:
        cond_i = ConditionFinding(
            Status.SATISFIED,
            f"weights on the simplex and delta in (0,1) for all n in "
            f"[{start}, {horizon}]",
        )
    else:
        cond_i = ConditionFinding(
            Status.VIOLATED, f"simplex/range constraint fails first at n = {first_bad}"
        )
    drift_exp, tail_exp = drift_fit.slope(), tail_fit.slope()
    d_min, d_max = float(d_min), float(d_max)

    upper = facts.delta_upper if facts is not None else d_max
    if first_drop is None and d_min > 0.0 and d_max < 1.0:
        cond_v = ConditionFinding(
            Status.SATISFIED,
            f"delta nondecreasing with bounds [{d_min:.6g}, {upper:.6g}] inside (0, 1)",
        )
    else:
        reasons = []
        if first_drop is not None:
            reasons.append(f"delta decreases near n = {first_drop}")
        if d_min <= 0.0:
            reasons.append(f"delta reaches {d_min:g}")
        if d_max >= 1.0:
            reasons.append(f"delta reaches {d_max:g}")
        cond_v = ConditionFinding(Status.VIOLATED, "; ".join(reasons))

    if facts is not None:
        if facts.drift_limit == 0.0 and facts.drift_sum_diverges:
            cond_ii = ConditionFinding(
                Status.SATISFIED,
                f"declared: drift limit 0 with divergent series "
                f"(partial sum {drift_sum:.4g} at the horizon)",
            )
        else:
            cond_ii = ConditionFinding(
                Status.VIOLATED,
                f"declared drift limit {facts.drift_limit:g}"
                + ("" if facts.drift_sum_diverges else "; series declared finite"),
            )
        if 0.0 < facts.alpha2_liminf and facts.alpha2_limsup < 1.0:
            cond_iii = ConditionFinding(
                Status.SATISFIED,
                f"declared: alpha2 band [{facts.alpha2_liminf:g}, "
                f"{facts.alpha2_limsup:g}] inside (0, 1)",
            )
        else:
            cond_iii = ConditionFinding(
                Status.VIOLATED,
                f"declared: liminf {facts.alpha2_liminf:g}, "
                f"limsup {facts.alpha2_limsup:g} (must lie strictly inside (0, 1))",
            )
        if facts.alpha3_limit == 0.0 and facts.tail_sum_finite:
            cond_iv = ConditionFinding(
                Status.SATISFIED,
                f"declared: alpha3 tends to 0 and sum alpha3*(1 - delta) is finite "
                f"(partial sum {tail_sum:.4g})",
            )
        else:
            parts = []
            if facts.alpha3_limit != 0.0:
                parts.append(f"alpha3 limit {facts.alpha3_limit:g} != 0")
            if not facts.tail_sum_finite:
                parts.append(
                    f"sum alpha3*(1 - delta) declared divergent "
                    f"(partial sum {tail_sum:.4g} at the horizon)"
                )
            cond_iv = ConditionFinding(Status.VIOLATED, "; ".join(parts))
        ratio_txt = f"declared limit {facts.ratio_limit:g}"
    else:
        tail_len = horizon - tail_start + 1
        drift_tail, a3_tail, a2_tail = (
            (np.min(q[:, 0]), np.max(q[:, 1]), q[0, 2], q[-1, 3], np.sum(q[:, 4]) / tail_len)
            for q in np.array(tail_rows).transpose(1, 0, 2)  # per block: min, max, first, last, sum
        )
        cond_ii = _series_verdict(
            drift_tail, drift_exp, drift_sum, "drift", False, all_zero=drift_peak <= 1e-15
        )
        cond_iii = _band_inside_unit_interval(a2_tail, tail_start, horizon)
        cond_iv = _series_verdict(a3_tail, tail_exp, tail_sum, "alpha3", True)
        if ratio_last is None:
            ratio_txt = "undefined over the horizon"
        else:
            ratio_txt = f"horizon value {ratio_last:.4g} (no declared limit)"

    diagnostics = {
        "drift_partial_sum": drift_sum,
        "drift_tail_exponent": drift_exp,
        "tail_partial_sum": tail_sum,
        "tail_exponent": tail_exp,
        "delta_min": d_min,
        "delta_max": d_max,
        "same_limit_ratio": ratio_txt,
    }
    return ConditionReport(
        conditions={"i": cond_i, "ii": cond_ii, "iii": cond_iii, "iv": cond_iv, "v": cond_v},
        range_violations=range_violations,
        range_violation_count=n_violations,
        diagnostics=diagnostics,
    )
