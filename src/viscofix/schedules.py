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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, InputError

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
    the four component values; the same expression serves both the scalar
    evaluation path and the vectorized validator path, keeping them
    bitwise consistent.
    """

    kind: str
    start_index: int
    formula: Callable = field(repr=False)
    facts: Optional[AnalyticFacts] = None

    def __post_init__(self):
        if self.start_index < 1:
            raise ConfigurationError(
                f"start index must be >= 1, got {self.start_index}"
            )


def _eq_weights(n):
    return 1 / (2 * n), 1 - 3 / (2 * n), 1 / n, n / (2 * (n + 1))


def _halpern_mix(n):
    a1 = 1 / (n + 1)
    return a1, 0.5 + 0 * a1, 0.5 - a1, 0.5 + 0 * a1


def _compare_t16(n):
    nsq = n * n
    return 1 / n, 1 - 1 / n - 1 / nsq, 1 / nsq, 0.5 + 0 * (1 / n)


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

    Each argument is a coefficient triple ``(a, b, c)``.  No analytic
    facts are attached, so the validator can report at most
    "inconclusive" for the limit and series conditions.
    """
    coeffs = []
    for name, triple in (
        ("alpha1", alpha1),
        ("alpha2", alpha2),
        ("alpha3", alpha3),
        ("delta", delta),
    ):
        if len(triple) != 3:
            raise ConfigurationError(
                f"{name} needs three coefficients (a, b, c), got {triple!r}"
            )
        a, b, c = (float(v) for v in triple)
        if not all(np.isfinite([a, b, c])):
            raise ConfigurationError(f"{name} coefficients must be finite")
        if start_index + c <= 0:
            raise ConfigurationError(
                f"{name} has a pole at or after the start index (c = {c})"
            )
        coeffs.append((a, b, c))

    def rational(n, _coeffs=tuple(coeffs)):
        return tuple(a + b / (n + c) for a, b, c in _coeffs)

    return Schedule(kind="custom-rational", start_index=start_index, formula=rational)


def schedule_eval(s: Schedule, n: int) -> ScheduleParams:
    """Evaluate the schedule at index ``n >= start_index``.

    Pure and deterministic; repeated evaluation yields bitwise-identical
    tuples.  Indices below the start index are an input error.
    """
    if n < s.start_index:
        raise InputError(
            f"schedule index {n} is below the start index {s.start_index}"
        )
    a1, a2, a3, d = s.formula(int(n))
    return ScheduleParams(float(a1), float(a2), float(a3), float(d))


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
    """Per-condition verdicts plus diagnostics and range bookkeeping."""

    conditions: dict
    range_violations: list
    diagnostics: dict
    horizon: int
    start_index: int

    def status(self, key: str) -> Status:
        return self.conditions[key].status

    def render(self) -> str:
        lines = []
        for key in ("i", "ii", "iii", "iv", "v"):
            finding = self.conditions[key]
            lines.append(f"({key}) {finding.status}: {finding.detail}")
        if self.range_violations:
            shown = ", ".join(str(n) for n in self.range_violations[:8])
            more = "" if len(self.range_violations) <= 8 else ", ..."
            lines.append(f"range violations at n = {shown}{more}")
        ratio = self.diagnostics.get("same_limit_ratio")
        if ratio is not None:
            lines.append(
                "same-limit ratio alpha3/(1 - alpha2 - alpha3*delta): "
                f"{ratio} (reported independently of condition (iv))"
            )
        return "\n".join(lines)


_SIMPLEX_TOL = 1e-12


def _last_decade(ns: np.ndarray) -> slice:
    """The tail every heuristic reads: the indices ``n >= max(N // 10, ns[0])``."""
    return slice(int(np.searchsorted(ns, max(ns[-1] // 10, ns[0]))), None)


def _tail_exponent(log_ns: np.ndarray, values: np.ndarray):
    """Least-squares slope of ``log(values)`` against ``log_ns`` over the positive values.

    The centred closed form ``sum((x - x_bar)(y - y_bar)) / sum((x - x_bar)^2)``;
    ``None`` when fewer than 10 values are positive.
    """
    sel = values > 0.0
    kept = np.count_nonzero(sel)
    if kept < 10:
        return None
    if kept < len(values):
        log_ns, values = log_ns[sel], values[sel]
    x = log_ns - np.mean(log_ns)
    y = np.log(values)
    y -= np.mean(y)
    return float(np.dot(x, y) / np.dot(x, x))


def _looks_bounded_away(tail: np.ndarray) -> bool:
    return bool(np.min(tail) > 1e-6 and tail[-1] >= 0.5 * tail[0])


def _series_verdict(limit_seq, tail, slope, partial_sum, name, summable):
    """Heuristic verdict for 'limit 0, series finite' or 'divergent' (capped).

    ``limit_seq`` is the sequence that must tend to 0, ``tail`` its
    :func:`_last_decade` and ``slope`` the tail exponent of the series'
    summand; ``summable`` says whether the condition needs the series
    finite or divergent.
    """
    mags = np.abs(limit_seq)
    if not summable and np.all(mags <= 1e-15):
        return ConditionFinding(
            Status.VIOLATED,
            f"{name} is identically zero over the horizon; its series is finite",
        )
    tail_mags = mags[tail]
    if _looks_bounded_away(tail_mags):
        return ConditionFinding(
            Status.VIOLATED,
            f"{name} appears to have a nonzero limit (tail mean {np.mean(tail_mags):.4g})",
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


def _band_inside_unit_interval(ns: np.ndarray, a2: np.ndarray):
    """Heuristic verdict for '0 < liminf <= limsup < 1' (capped) from alpha2's last decade.

    ``ns`` are the indices of that decade and ``a2`` alpha2 over them.
    """
    gap_hi = 1.0 - a2
    gap_lo = a2
    if np.min(gap_hi) < 1e-3 and gap_hi[-1] <= 0.5 * gap_hi[0]:
        return ConditionFinding(
            Status.VIOLATED, "limsup appears to reach 1 (upper gap shrinking)"
        )
    if np.min(gap_lo) < 1e-3 and gap_lo[-1] <= 0.5 * gap_lo[0]:
        return ConditionFinding(
            Status.VIOLATED, "liminf appears to reach 0 (lower gap shrinking)"
        )
    return ConditionFinding(
        Status.INCONCLUSIVE,
        f"values stay within [{np.min(gap_lo):.4g}, {1 - np.min(gap_hi):.4g}] "
        f"over n in [{int(ns[0])}, {int(ns[-1])}]; asymptotic bounds not certifiable "
        "from finite data",
    )


def validate_assumption12(s: Schedule, horizon: int) -> ConditionReport:
    """Check the five admissibility conditions over ``[start_index, horizon]``.

    Condition (i) and the monotone band condition (v) are checked exactly
    over the horizon.  The limit and series conditions (ii), (iii), (iv)
    are resolved from the schedule's declared analytic facts when present;
    otherwise they are estimated from partial sums and tail exponents and
    the verdict is capped at inconclusive or violated.  Indices from 1 up
    to the start index are probed too: simplex failures there land in
    ``range_violations`` without affecting the condition verdicts.

    Findings are report content; this function does not raise on them.
    """
    if horizon < 100:
        raise InputError(f"horizon must be >= 100, got {horizon}")
    if horizon <= s.start_index:
        raise InputError(
            f"horizon {horizon} must exceed the start index {s.start_index}"
        )

    ns_all = np.arange(1, horizon + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        # read-only views: the formula's arrays are read, never copied
        a1, a2, a3, d = (
            np.broadcast_to(np.asarray(v, dtype=np.float64), ns_all.shape)
            for v in s.formula(ns_all)
        )

    # NaN and +-inf fail every range comparison, so ok is False for them
    ok = (
        (a1 >= 0.0) & (a1 <= 1.0)
        & (a2 >= 0.0) & (a2 <= 1.0)
        & (a3 >= 0.0) & (a3 <= 1.0)
        & (np.abs(a1 + a2 + a3 - 1.0) <= _SIMPLEX_TOL)
        & (d > 0.0) & (d < 1.0)
    )
    range_violations = (np.flatnonzero(~ok) + 1).tolist()

    live = slice(s.start_index - 1, None)  # the indices n >= start_index
    live_ok = ok[live]
    if np.all(live_ok):
        cond_i = ConditionFinding(
            Status.SATISFIED,
            f"weights on the simplex and delta in (0,1) for all n in "
            f"[{s.start_index}, {horizon}]",
        )
    else:
        first_bad = s.start_index + int(np.argmin(live_ok))
        cond_i = ConditionFinding(
            Status.VIOLATED, f"simplex/range constraint fails first at n = {first_bad}"
        )

    ns, a2v, a3v, dv = ns_all[live], a2[live], a3[live], d[live]
    drift = 1.0 - a3v * dv - a2v
    tail_summand = a3v * (1.0 - dv)
    drift_sum = float(np.sum(drift))
    tail_sum = float(np.sum(tail_summand))
    tail = _last_decade(ns)
    log_ns = np.log(ns[tail])
    drift_exp = _tail_exponent(log_ns, np.abs(drift[tail]))
    tail_exp = _tail_exponent(log_ns, np.abs(tail_summand[tail]))

    facts = s.facts
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
    else:
        cond_ii = _series_verdict(drift, tail, drift_exp, drift_sum, "drift", summable=False)
        cond_iii = _band_inside_unit_interval(ns[tail], a2v[tail])
        cond_iv = _series_verdict(a3v, tail, tail_exp, tail_sum, "alpha3", summable=True)

    monotone = bool(np.all(np.diff(dv) >= -1e-15))
    d_min, d_max = float(np.min(dv)), float(np.max(dv))
    upper = facts.delta_upper if facts is not None else d_max
    if monotone and d_min > 0.0 and d_max < 1.0:
        cond_v = ConditionFinding(
            Status.SATISFIED,
            f"delta nondecreasing with bounds [{d_min:.6g}, {upper:.6g}] inside (0, 1)",
        )
    else:
        reasons = []
        if not monotone:
            first = int(ns[np.argmax(np.diff(dv) < -1e-15)])
            reasons.append(f"delta decreases near n = {first}")
        if d_min <= 0.0:
            reasons.append(f"delta reaches {d_min:g}")
        if d_max >= 1.0:
            reasons.append(f"delta reaches {d_max:g}")
        cond_v = ConditionFinding(Status.VIOLATED, "; ".join(reasons))

    if facts is not None:
        ratio_txt = f"declared limit {facts.ratio_limit:g}"
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_seq = a3v / (1.0 - a2v - a3v * dv)
        ratio_tail = ratio_seq[np.isfinite(ratio_seq)]
        if len(ratio_tail):
            ratio_txt = f"horizon value {ratio_tail[-1]:.4g} (no declared limit)"
        else:
            ratio_txt = "undefined over the horizon"

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
        diagnostics=diagnostics,
        horizon=horizon,
        start_index=s.start_index,
    )
