import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscofix import (
    ConfigurationError,
    GeneralizedContraction,
    InputError,
    NonexpansiveMap,
    Schedule,
    SchemeKind,
    SolverConfig,
    Status,
    compare_t16,
    custom_rational,
    eq75,
    euclidean,
    halpern_mix,
    linear_modulus,
    run,
    schedule_eval,
    validate_assumption12,
)
from viscofix import schedules


def test_eq75_exact_values():
    s = eq75()
    assert s.start_index == 2
    assert schedule_eval(s, 2) == (0.25, 0.25, 0.5, 1.0 / 3.0)
    assert schedule_eval(s, 4) == (0.125, 0.625, 0.25, 0.4)


def test_halpern_mix_exact_values():
    s = halpern_mix()
    assert s.start_index == 1
    assert schedule_eval(s, 1) == (0.5, 0.5, 0.0, 0.5)
    assert schedule_eval(s, 3) == (0.25, 0.5, 0.25, 0.5)


def test_compare_t16_exact_values():
    s = compare_t16()
    assert s.start_index == 2
    assert schedule_eval(s, 2) == (0.5, 0.25, 0.25, 0.5)
    a1, a2, a3, d = schedule_eval(s, 10)
    assert a1 == 0.1
    assert a3 == pytest.approx(0.01)
    assert a2 == pytest.approx(1.0 - 0.1 - 0.01)
    assert d == 0.5


def test_eval_below_start_index_rejected():
    with pytest.raises(InputError):
        schedule_eval(eq75(), 1)
    with pytest.raises(InputError):
        schedule_eval(custom_rational((0, 0, 0), (1, 0, 0), (0, 0, 0), (0.5, 0, 0), start_index=5), 4)


@pytest.mark.parametrize("builder", [eq75, halpern_mix, compare_t16])
def test_presets_stay_on_simplex(builder):
    s = builder()
    ns = list(range(s.start_index, 1001)) + [10**4, 10**5]
    for n in ns:
        a1, a2, a3, d = schedule_eval(s, n)
        assert 0.0 <= a1 <= 1.0 and 0.0 <= a2 <= 1.0 and 0.0 <= a3 <= 1.0
        assert a1 + a2 + a3 == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < d < 1.0


@pytest.mark.parametrize("builder", [eq75, halpern_mix, compare_t16])
def test_scalar_and_array_paths_agree_bitwise(builder):
    s = builder()
    ns = np.arange(s.start_index, 500, dtype=np.float64)
    arrays = [np.broadcast_to(np.asarray(v, dtype=np.float64), ns.shape) for v in s.formula(ns)]
    for i, n in enumerate(range(s.start_index, 500)):
        scalar = schedule_eval(s, n)
        for k in range(4):
            assert scalar[k] == arrays[k][i]


def _assert_paths_agree_bitwise(s, ns):
    arrays = [
        np.broadcast_to(np.asarray(v, dtype=np.float64), (len(ns),))
        for v in s.formula(np.array(ns, dtype=np.float64))
    ]
    for i, n in enumerate(ns):
        scalar = np.array(schedule_eval(s, n), dtype=np.float64)
        assert scalar.tobytes() == np.array([a[i] for a in arrays]).tobytes(), n


# Up to 10^7 only: compare-t16's n * n is exact in float64 (the array path)
# only while n^2 <= 2^53, i.e. up to n ~ 9.4e7; past that it rounds, and the
# integer path's exact n^2 gives a different last bit.
N_MAX = 10**7


@pytest.mark.parametrize("builder", [eq75, halpern_mix, compare_t16])
@settings(max_examples=60, deadline=None)
@given(ns=st.lists(st.integers(2, N_MAX), min_size=1, max_size=20))
def test_preset_paths_agree_bitwise_up_to_1e7(builder, ns):
    _assert_paths_agree_bitwise(builder(), ns + [N_MAX])


_coefficient = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(
    triples=st.lists(
        st.tuples(_coefficient, _coefficient, st.floats(-0.5, 5.0)), min_size=4, max_size=4
    ),
    ns=st.lists(st.integers(1, N_MAX), min_size=1, max_size=20),
)
def test_custom_rational_paths_agree_bitwise_up_to_1e7(triples, ns):
    _assert_paths_agree_bitwise(custom_rational(*triples), ns + [1, N_MAX])


def test_custom_rational_validation():
    good = custom_rational((0, 0.5, 0), (1, -1.5, 0), (0, 1, 0), (0.5, -0.5, 1), start_index=2)
    # reproduces the eq75 formulas through the a + b/(n + c) form
    ref = eq75()
    for n in (2, 3, 10, 97):
        assert schedule_eval(good, n) == pytest.approx(schedule_eval(ref, n), abs=1e-15)
    with pytest.raises(ConfigurationError):
        custom_rational((0, 1), (1, 0, 0), (0, 0, 0), (0.5, 0, 0))
    with pytest.raises(ConfigurationError):
        custom_rational((0, np.inf, 0), (1, 0, 0), (0, 0, 0), (0.5, 0, 0))
    # pole at n + c = 0 on or after the start index
    with pytest.raises(ConfigurationError):
        custom_rational((0, 1, -2), (1, -1, -2), (0, 0, 0), (0.5, 0, 0), start_index=2)
    from viscofix.schedules import Schedule

    with pytest.raises(ConfigurationError):
        Schedule(kind="x", start_index=0, formula=lambda n: (0, 1, 0, 0.5))


def test_validator_eq75_regression():
    report = validate_assumption12(eq75(), 10_000)
    assert report.status("i") is Status.SATISFIED
    assert report.status("ii") is Status.SATISFIED
    assert report.status("iii") is Status.VIOLATED
    assert report.status("iv") is Status.VIOLATED
    assert report.status("v") is Status.SATISFIED
    assert report.range_violations == [1]
    text = report.render()
    assert "(iii) violated" in text
    assert "range violations at n = 1" in text
    assert "same-limit ratio" in text


def test_validator_halpern_mix_regression():
    report = validate_assumption12(halpern_mix(), 1000)
    assert report.status("i") is Status.SATISFIED
    assert report.status("ii") is Status.VIOLATED
    assert "0.25" in report.conditions["ii"].detail
    assert report.status("iii") is Status.SATISFIED
    assert report.status("iv") is Status.VIOLATED
    assert report.status("v") is Status.SATISFIED
    assert report.range_violations == []


def test_validator_compare_t16_regression():
    report = validate_assumption12(compare_t16(), 1000)
    assert report.status("i") is Status.SATISFIED
    assert report.status("ii") is Status.SATISFIED
    assert report.status("iii") is Status.VIOLATED
    assert report.status("iv") is Status.SATISFIED
    assert report.status("v") is Status.SATISFIED
    assert report.range_violations == [1]


_SIMPLEX_OK = "(i) satisfied: weights on the simplex and delta in (0,1) for all n in [1, 10000]"
_NOT_CERTIFIABLE = "but not certifiable from finite data"
_RATIO = "same-limit ratio alpha3/(1 - alpha2 - alpha3*delta): "
_INDEPENDENT = " (reported independently of condition (iv))"


@pytest.mark.parametrize(
    "alpha1, alpha2, alpha3, delta, lines",
    [
        pytest.param(
            (0, 0, 0), (1, 0, 0), (0, 0, 0), (0.5, 0, 0),
            (
                _SIMPLEX_OK,
                "(ii) violated: drift is identically zero over the horizon; its series is finite",
                "(iii) violated: limsup appears to reach 1 (upper gap shrinking)",
                "(iv) inconclusive: consistent with the condition numerically (partial sum 0, "
                f"tail exponent n/a) {_NOT_CERTIFIABLE}",
                "(v) satisfied: delta nondecreasing with bounds [0.5, 0.5] inside (0, 1)",
                f"{_RATIO}undefined over the horizon{_INDEPENDENT}",
            ),
            id="zero-drift",
        ),
        pytest.param(
            (0, 1, 1), (0.5, 0, 0), (0.5, -1, 1), (0.5, 0, 0),
            (
                _SIMPLEX_OK,
                "(ii) violated: drift appears to have a nonzero limit (tail mean 0.2501)",
                "(iii) inconclusive: values stay within [0.5, 0.5] over n in [1000, 10000]; "
                "asymptotic bounds not certifiable from finite data",
                "(iv) violated: alpha3 appears to have a nonzero limit (tail mean 0.4997)",
                "(v) satisfied: delta nondecreasing with bounds [0.5, 0.5] inside (0, 1)",
                f"{_RATIO}horizon value 1.999 (no declared limit){_INDEPENDENT}",
            ),
            id="nonzero-limits",
        ),
        pytest.param(
            # drift = alpha3 * (1 - delta) = 1e-3/(n+1)^2
            (0, 0, 0), (1, -1e-3, 1), (0, 1e-3, 1), (1, -1, 1),
            (
                _SIMPLEX_OK,
                "(ii) violated: drift series appears summable (tail exponent -2.00), "
                "but the condition needs divergence",
                "(iii) violated: limsup appears to reach 1 (upper gap shrinking)",
                "(iv) inconclusive: consistent with the condition numerically (partial sum "
                f"0.0006448, tail exponent -2.00) {_NOT_CERTIFIABLE}",
                "(v) satisfied: delta nondecreasing with bounds [0.5, 0.9999] inside (0, 1)",
                f"{_RATIO}horizon value 1e+04 (no declared limit){_INDEPENDENT}",
            ),
            id="summable-drift",
        ),
        pytest.param(
            # drift = alpha3 * (1 - delta) = 5e-4/(n+1), below 1e-6 over the tail
            (0, 0, 0), (1, -1e-3, 1), (0, 1e-3, 1), (0.5, 0, 0),
            (
                _SIMPLEX_OK,
                "(ii) inconclusive: consistent with the condition numerically (partial sum "
                f"0.004394, tail exponent -1.00) {_NOT_CERTIFIABLE}",
                "(iii) violated: limsup appears to reach 1 (upper gap shrinking)",
                "(iv) violated: series divergence suspected (tail exponent -1.00 >= -1.05)",
                "(v) satisfied: delta nondecreasing with bounds [0.5, 0.5] inside (0, 1)",
                f"{_RATIO}horizon value 2 (no declared limit){_INDEPENDENT}",
            ),
            id="divergent-tail",
        ),
    ],
)
def test_validator_heuristic_branches(alpha1, alpha2, alpha3, delta, lines):
    # every detail branch of the capped (ii)/(iv) heuristics, pinned verbatim
    report = validate_assumption12(custom_rational(alpha1, alpha2, alpha3, delta), 10_000)
    assert report.render().split("\n") == list(lines)


def test_validator_constant_schedule():
    s = custom_rational((0, 0, 0), (1, 0, 0), (0, 0, 0), (0.5, 0, 0))
    report = validate_assumption12(s, 500)
    assert report.status("i") is Status.SATISFIED
    # drift is identically zero, so its series cannot diverge
    assert report.status("ii") is Status.VIOLATED
    # alpha2 is pinned at 1
    assert report.status("iii") is Status.VIOLATED
    assert report.status("v") is Status.SATISFIED


def test_validator_never_certifies_from_numerics():
    # same formulas as eq75 but without declared facts: conditions (ii)-(iv)
    # must never come back "satisfied" on numeric evidence alone
    clone = custom_rational(
        (0, 0.5, 0), (1, -1.5, 0), (0, 1, 0), (0.5, -0.5, 1), start_index=2
    )
    assert clone.facts is None
    for horizon in (200, 1000, 5000):
        report = validate_assumption12(clone, horizon)
        for key in ("ii", "iii", "iv"):
            assert report.status(key) is not Status.SATISFIED
    # the true series condition (iv) fails for these weights and the
    # heuristic is allowed to say so
    report = validate_assumption12(clone, 5000)
    assert report.status("iv") is Status.VIOLATED


def test_validator_reads_one_over_n_as_tending_to_zero():
    # the eq75 formulas without declared facts: the drift ~ 1/n tends to 0
    # with a divergent series, alpha2 -> 1 like 1 - c/n and the alpha3 series
    # diverges, as eq75 declares; the validator's tail is the last decade
    clone = custom_rational(
        (0, 0.5, 0), (1, -1.5, 0), (0, 1, 0), (0.5, -0.5, 1), start_index=2
    )
    for horizon in (10_000, 1_000_000):
        report = validate_assumption12(clone, horizon)
        assert report.conditions["ii"].status is Status.INCONCLUSIVE
        assert "tail exponent -1.00)" in report.conditions["ii"].detail
        assert report.status("iii") is Status.VIOLATED
        assert report.conditions["iii"].detail == "limsup appears to reach 1 (upper gap shrinking)"
        assert report.status("iv") is Status.VIOLATED
        assert report.conditions["iv"].detail.startswith("series divergence suspected")


def test_validator_delta_monotone_check():
    falling = custom_rational((0, 0.5, 0), (0.5, -0.5, 0), (0.5, 0, 0), (0.2, 0.5, 0))
    report = validate_assumption12(falling, 500)
    assert report.status("v") is Status.VIOLATED
    assert "decreases" in report.conditions["v"].detail


@pytest.mark.parametrize("delta, detail", [(0.0, "delta reaches 0"), (1.2, "delta reaches 1.2")])
def test_validator_names_a_delta_off_the_open_unit_interval(delta, detail):
    flat = custom_rational((0.25, 0, 0), (0.25, 0, 0), (0.5, 0, 0), (delta, 0, 0))
    report = validate_assumption12(flat, 200)
    assert report.status("v") is Status.VIOLATED
    assert report.conditions["v"].detail == detail
    # a report keeps the first eight range violations and counts them all
    assert report.range_violations == list(range(1, 9))
    assert report.range_violation_count == 200


def test_validator_horizon_gate():
    with pytest.raises(InputError):
        validate_assumption12(eq75(), 99)
    with pytest.raises(InputError):
        validate_assumption12(eq75(start_index=200), 150)


def test_validator_probes_below_start_index():
    # starting eq75 later still reports the early out-of-range indices
    report = validate_assumption12(eq75(start_index=5), 400)
    assert report.range_violations == [1]
    assert report.status("i") is Status.SATISFIED


def test_validator_probes_a_pole_below_start_index_without_warning():
    # at n = 1, alpha1 = +inf and alpha2 = -inf: their NaN sum is a range violation
    pole = custom_rational((0, 0.1, -1), (0.5, -0.1, -1), (0.5, 0, 0), (0.5, 0, 0), start_index=2)
    report = validate_assumption12(pole, 1000)
    assert report.range_violations == [1]
    assert report.status("i") is Status.SATISFIED


# the benchmark's custom schedule (its `[schedule]` section with n0 = 2)
BENCH_CUSTOM = custom_rational((0, 1, 1), (0.6, 0, 1), (0.4, -1, 1), (0.7, -0.2, 1), start_index=2)
_SAT, _VIO, _INC = Status.SATISFIED, Status.VIOLATED, Status.INCONCLUSIVE


@pytest.mark.parametrize(
    "schedule",
    [
        eq75(),
        halpern_mix(),
        compare_t16(),
        BENCH_CUSTOM,
        # constant weights: both summands are constant, so the true slope is 0
        custom_rational((0.25, 0, 0), (0.25, 0, 0), (0.5, 0, 0), (0.5, 0, 0)),
    ],
    ids=["eq75", "halpern-mix", "compare-t16", "bench-custom", "constant"],
)
def test_tail_exponents_match_polyfit(schedule):
    # the fits feed only the facts-free estimates, so declared facts leave them out
    horizon = 10_000
    report = validate_assumption12(schedule, horizon)
    if schedule.facts is not None:
        assert report.diagnostics["drift_tail_exponent"] is None
        assert report.diagnostics["tail_exponent"] is None
        return
    ns = np.arange(max(horizon // 10, schedule.start_index), horizon + 1, dtype=np.float64)
    _, a2, a3, d = (np.broadcast_to(v, ns.shape) for v in schedule.formula(ns))
    for key, summand in (
        ("drift_tail_exponent", 1.0 - a3 * d - a2),
        ("tail_exponent", a3 * (1.0 - d)),
    ):
        mags = np.abs(summand)
        assert np.all(mags > 0.0)
        oracle = np.polyfit(np.log(ns), np.log(mags), 1)[0]
        assert abs(report.diagnostics[key] - oracle) <= 1e-12, key


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(1e-6, 1e6),
    p=st.floats(-3.0, 1.0),
    horizon=st.integers(100, 100_000),
)
def test_tail_exponent_recovers_power_law(c, p, horizon):
    # the tail summand alpha3 * (1 - delta) is (c/2) * n**p
    power = Schedule(kind="power-law", start_index=1, formula=lambda n: (0, 0, c * n**p, 0.5))
    report = validate_assumption12(power, horizon)
    assert abs(report.diagnostics["tail_exponent"] - p) <= 1e-9


EXPECTED_AT_1E6 = {
    "eq75": ({"i": _SAT, "ii": _SAT, "iii": _VIO, "iv": _VIO, "v": _SAT}, [1]),
    "halpern-mix": ({"i": _SAT, "ii": _VIO, "iii": _SAT, "iv": _VIO, "v": _SAT}, []),
    "compare-t16": ({"i": _SAT, "ii": _SAT, "iii": _VIO, "iv": _SAT, "v": _SAT}, [1]),
    "custom-rational": ({"i": _SAT, "ii": _VIO, "iii": _INC, "iv": _VIO, "v": _SAT}, [1]),
}


@pytest.mark.parametrize("schedule", [eq75(), halpern_mix(), compare_t16(), BENCH_CUSTOM])
def test_benchmark_schedules_at_horizon_one_million(schedule):
    statuses, ranges = EXPECTED_AT_1E6[schedule.kind]
    report = validate_assumption12(schedule, 1_000_000)
    assert {key: finding.status for key, finding in report.conditions.items()} == statuses
    assert report.range_violations == ranges


def test_validator_horizon_must_be_an_integer():
    # a float horizon used to be accepted and printed as "[2, 10000.0]"
    with pytest.raises(InputError, match=r"^horizon must be an integer, got 10000\.0$"):
        validate_assumption12(eq75(), 1e4)
    with pytest.raises(InputError, match=r"^horizon must be an integer, got 10000\.5$"):
        validate_assumption12(eq75(), 10000.5)
    report = validate_assumption12(eq75(), np.int64(10_000))
    assert report.conditions["i"].detail.endswith("for all n in [2, 10000]")


_THREE_VALUES = Schedule(kind="three-values", start_index=1, formula=lambda n: (0.5, 0.5, 0 * n))
_WRONG_SHAPE = Schedule(
    kind="wrong-shape", start_index=1, formula=lambda n: (0 * n, 0.5 + 0 * n, np.full(3, 0.5), 0.5)
)


def test_malformed_formula_on_the_scalar_path():
    with pytest.raises(InputError, match=r"^schedule three-values: formula must return "
                       r"\(alpha1, alpha2, alpha3, delta\) as four real numbers, "
                       r"got 3 values of shapes \(\), \(\), \(\)$"):
        schedule_eval(_THREE_VALUES, 5)
    with pytest.raises(InputError, match=r"^schedule wrong-shape: .* got 4 values of shapes "
                       r"\(\), \(\), \(3,\), \(\)$"):
        schedule_eval(_WRONG_SHAPE, 5)
    not_a_tuple = Schedule(kind="scalar", start_index=1, formula=lambda n: 0.5)
    with pytest.raises(InputError, match=r"^schedule scalar: .* got a float$"):
        schedule_eval(not_a_tuple, 5)


def test_a_formula_value_too_large_for_a_float_is_an_input_error():
    # converting 10**400 to a float raises OverflowError, which used to escape bare
    huge = dataclasses.replace(halpern_mix(), formula=lambda n: (10**400, 0, 0, 0.5))
    message = f"^schedule halpern-mix: alpha1 must be real numbers, got {10**400}$"
    with pytest.raises(InputError, match=message):
        schedule_eval(huge, 5)
    with pytest.raises(InputError, match=message):
        validate_assumption12(huge, 1000)


def test_an_index_too_large_for_a_rational_schedule_is_a_typed_error():
    # n + c with a float c raised a bare OverflowError, at construction and at evaluation
    with pytest.raises(ConfigurationError,
                       match=r"^custom-rational start index must be at most the largest float$"):
        custom_rational((0, 1, 1), (0.6, 0, 1), (0.4, -1, 1), (0.7, -0.2, 1), start_index=10**400)
    with pytest.raises(InputError, match=r"^schedule custom-rational: formula overflows at the "
                       r"index: int too large to convert to float$"):
        schedule_eval(BENCH_CUSTOM, 10**400)


@pytest.mark.parametrize("weight", [True, "0.5"], ids=["bool", "str"])
def test_a_weight_that_is_not_a_real_is_refused_on_both_paths(weight):
    # float() took both, and np.asarray let a '0.5' alpha2 report (i) satisfied
    taken = dataclasses.replace(halpern_mix(), formula=lambda n: (0.5 + 0 * n, weight, 0 * n, 0.5))
    message = f"^schedule halpern-mix: alpha2 must be real numbers, got {weight!r}$"
    with pytest.raises(InputError, match=message):
        schedule_eval(taken, 5)
    with pytest.raises(InputError, match=message):
        validate_assumption12(taken, 1000)


def test_malformed_formula_reaches_run_as_an_input_error():
    half = NonexpansiveMap(lambda x: 0.5 * x)
    quarter = GeneralizedContraction(lambda x: 0.25 * x, linear_modulus(0.25))
    with pytest.raises(InputError, match="schedule three-values: .* got 3 values"):
        run(euclidean(1), SchemeKind.NEW_IMPLICIT, quarter, half, _THREE_VALUES,
            np.array([1.0]), SolverConfig())


def test_malformed_formula_on_the_block_path():
    with pytest.raises(InputError, match=r"^schedule three-values: formula must return "
                       r"\(alpha1, alpha2, alpha3, delta\) as four scalars or arrays of shape "
                       r"\(1000,\), got 3 values of shapes \(\), \(\), \(1000,\)$"):
        validate_assumption12(_THREE_VALUES, 1000)
    with pytest.raises(InputError, match=r"^schedule wrong-shape: .* got 4 values of shapes "
                       r"\(1000,\), \(1000,\), \(3,\), \(\)$"):
        validate_assumption12(_WRONG_SHAPE, 1000)


# The whole-array validator the blocked one replaced, kept here as its oracle:
# every index is evaluated at once and each summary is read off full arrays.


def _oracle_tail_exponent(log_ns, values):
    sel = values > 0.0
    if np.count_nonzero(sel) < 10:
        return None
    x = log_ns[sel] - np.mean(log_ns[sel])
    y = np.log(values[sel])
    y -= np.mean(y)
    return float(np.dot(x, y) / np.dot(x, x))


def _oracle_series_verdict(limit_seq, tail, slope, partial_sum, name, summable):
    mags = np.abs(limit_seq)
    if not summable and np.all(mags <= 1e-15):
        return (_VIO, f"{name} is identically zero over the horizon; its series is finite")
    tail_mags = mags[tail]
    if np.min(tail_mags) > 1e-6 and tail_mags[-1] >= 0.5 * tail_mags[0]:
        mean = np.mean(tail_mags)
        return (_VIO, f"{name} appears to have a nonzero limit (tail mean {mean:.4g})")
    if slope is not None and summable and slope >= -1.05:
        return (_VIO, f"series divergence suspected (tail exponent {slope:.2f} >= -1.05)")
    if slope is not None and not summable and slope < -1.05:
        return (_VIO, f"{name} series appears summable (tail exponent {slope:.2f}), "
                "but the condition needs divergence")
    slope_txt = "n/a" if slope is None else f"{slope:.2f}"
    return (_INC, f"consistent with the condition numerically (partial sum {partial_sum:.4g}, "
            f"tail exponent {slope_txt}) but not certifiable from finite data")


def _oracle_band(ns, a2):
    gap_hi, gap_lo = 1.0 - a2, a2
    if np.min(gap_hi) < 1e-3 and gap_hi[-1] <= 0.5 * gap_hi[0]:
        return (_VIO, "limsup appears to reach 1 (upper gap shrinking)")
    if np.min(gap_lo) < 1e-3 and gap_lo[-1] <= 0.5 * gap_lo[0]:
        return (_VIO, "liminf appears to reach 0 (lower gap shrinking)")
    return (_INC, f"values stay within [{np.min(gap_lo):.4g}, {1 - np.min(gap_hi):.4g}] over n in "
            f"[{int(ns[0])}, {int(ns[-1])}]; asymptotic bounds not certifiable from finite data")


def _oracle(s, horizon):
    """``(findings, range violations, diagnostics)``; findings of (ii)-(iv) without facts only."""
    ns_all = np.arange(1, horizon + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        a1, a2, a3, d = (np.broadcast_to(np.asarray(v, dtype=np.float64), ns_all.shape)
                         for v in s.formula(ns_all))
        ok = schedules._meets_condition_i(a1, a2, a3, d)
    range_violations = (np.flatnonzero(~ok) + 1).tolist()
    live = slice(s.start_index - 1, None)
    if np.all(ok[live]):
        cond_i = (_SAT, f"weights on the simplex and delta in (0,1) for all n in "
                  f"[{s.start_index}, {horizon}]")
    else:
        first_bad = s.start_index + int(np.argmin(ok[live]))
        cond_i = (_VIO, f"simplex/range constraint fails first at n = {first_bad}")
    ns, a2v, a3v, dv = ns_all[live], a2[live], a3[live], d[live]
    drift = 1.0 - a3v * dv - a2v
    tail_summand = a3v * (1.0 - dv)
    drift_sum, tail_sum = float(np.sum(drift)), float(np.sum(tail_summand))
    tail = slice(int(np.searchsorted(ns, max(ns[-1] // 10, ns[0]))), None)
    log_ns = np.log(ns[tail])
    drift_exp = tail_exp = None  # fitted for the facts-free estimates only
    if s.facts is None:
        drift_exp = _oracle_tail_exponent(log_ns, np.abs(drift[tail]))
        tail_exp = _oracle_tail_exponent(log_ns, np.abs(tail_summand[tail]))
    monotone = bool(np.all(np.diff(dv) >= -1e-15))
    d_min, d_max = float(np.min(dv)), float(np.max(dv))
    if monotone and d_min > 0.0 and d_max < 1.0:
        upper = s.facts.delta_upper if s.facts is not None else d_max
        cond_v = (_SAT, f"delta nondecreasing with bounds [{d_min:.6g}, {upper:.6g}] inside (0, 1)")
    else:
        reasons = []
        if not monotone:
            reasons.append(f"delta decreases near n = {int(ns[np.argmax(np.diff(dv) < -1e-15)])}")
        if d_min <= 0.0:
            reasons.append(f"delta reaches {d_min:g}")
        if d_max >= 1.0:
            reasons.append(f"delta reaches {d_max:g}")
        cond_v = (_VIO, "; ".join(reasons))
    conditions = {"i": cond_i, "v": cond_v}
    if s.facts is None:
        conditions["ii"] = _oracle_series_verdict(drift, tail, drift_exp, drift_sum, "drift", False)
        conditions["iii"] = _oracle_band(ns[tail], a2v[tail])
        conditions["iv"] = _oracle_series_verdict(a3v, tail, tail_exp, tail_sum, "alpha3", True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = a3v / (1.0 - a2v - a3v * dv)
        ratio = ratio[np.isfinite(ratio)]
        ratio_txt = (f"horizon value {ratio[-1]:.4g} (no declared limit)" if len(ratio)
                     else "undefined over the horizon")
    else:
        ratio_txt = f"declared limit {s.facts.ratio_limit:g}"
    diagnostics = {
        "drift_partial_sum": drift_sum, "drift_tail_exponent": drift_exp,
        "tail_partial_sum": tail_sum, "tail_exponent": tail_exp,
        "delta_min": d_min, "delta_max": d_max, "same_limit_ratio": ratio_txt,
    }
    return conditions, range_violations, diagnostics


def _assert_matches_oracle(s, horizon):
    report = validate_assumption12(s, horizon)
    conditions, range_violations, diagnostics = _oracle(s, horizon)
    assert report.range_violations == range_violations[:8]
    assert report.range_violation_count == len(range_violations)
    for key, (status, detail) in conditions.items():
        assert (report.status(key), report.conditions[key].detail) == (status, detail), key
    bitwise = horizon <= schedules._BLOCK
    for key, want in diagnostics.items():
        got = report.diagnostics[key]
        if isinstance(want, str) or want is None or bitwise:
            assert np.array(got).tobytes() == np.array(want).tobytes(), (key, got, want)
        elif key.endswith("exponent"):
            assert abs(got - want) <= 1e-13, (key, got, want)
        else:
            assert abs(got - want) <= 1e-14 * abs(want), (key, got, want)
    return report


B = schedules._BLOCK


def _where(n, cond, yes, no):
    """``yes`` where ``cond`` holds and ``no`` elsewhere, for a python int or an array ``n``."""
    return np.where(cond, yes, no) + 0 * n


def _periodic_ratio(undefined):
    """Weights whose same-limit ratio is 1/3, 4/7 and 3/4 as n % 3 is 0, 1 and 2, and 0/0 where
    ``undefined``."""

    def formula(n):
        off = undefined(n)
        a1 = _where(n, off, 0.0, 0.25)
        a3 = _where(n, off, 0.0, 0.1 + 0.1 * (n % 3))
        return a1, 1.0 - a1 - a3, a3, 0.5 + 0 * n

    return Schedule(kind="ratio", start_index=1, formula=formula)


PLANTED = {
    # delta falls by 0.1 at each block boundary, first from n = B to n = B + 1
    "delta-drop-at-boundary": (
        Schedule(kind="drop", start_index=1, formula=lambda n: (
            0.25 + 0 * n, 0.25 + 0 * n, 0.5 + 0 * n, 0.6 - 0.1 * ((n - 1) // B),
        )),
        3 * B,
    ),
    # the simplex fails at n = B and n = B + 1 only
    "range-violation-at-boundary": (
        Schedule(kind="range", start_index=1, formula=lambda n: (
            _where(n, (n == B) | (n == B + 1), 0.5, 0.25), 0.25 + 0 * n, 0.5 + 0 * n, 0.5 + 0 * n,
        )),
        2 * B + 17,
    ),
    # the summand alpha3 * (1 - delta) vanishes on every other tail block
    "summand-zero-on-some-tail-blocks": (
        Schedule(kind="gaps", start_index=1, formula=lambda n: (
            1 / (n + 1) - _where(n, (n - 1) // B % 2 == 1, 0.0, 1 / (n + 1) ** 2),
            1 - 1 / (n + 1) + 0 * n,
            _where(n, (n - 1) // B % 2 == 1, 0.0, 1 / (n + 1) ** 2),
            0.5 + 0 * n,
        )),
        6 * B + 3,
    ),
    # eight positive tail summands, four on each side of the first boundary: exponent n/a
    "too-few-positive-spread-over-two-blocks": (
        Schedule(kind="sparse", start_index=1, formula=lambda n: (
            0.5 - _where(n, np.abs(n - B - 0.5) < 4, 1e-3, 0.0),
            0.5 + 0 * n,
            _where(n, np.abs(n - B - 0.5) < 4, 1e-3, 0.0),
            0.5 + 0 * n,
        )),
        3 * B,
    ),
    # the start index lies inside the second block, and the tail from 1.5 B on
    "start-inside-second-block": (eq75(start_index=B + 10), 15 * B + 5),
    # the tail starts at 1.2 B, inside the second block
    "tail-start-inside-a-block": (
        custom_rational((0, 0.5, 0), (1, -1.5, 0), (0, 1, 0), (0.5, -0.5, 1), start_index=2),
        12 * B + 7,
    ),
    # alpha2 = 1 - 10/n fails (i) at the nine indices below the start index 10
    "violations-below-start": (
        custom_rational((0, 5, 0), (1, -10, 0), (0, 5, 0), (0.5, 0, 0), start_index=10), 1000,
    ),
    # the same, with a live violation at n = B + 3 after the eight kept ones
    "violations-below-start-and-one-live": (
        Schedule(kind="early", start_index=10, formula=lambda n: (
            5 / n + _where(n, n == B + 3, 0.5, 0.0), 1 - 10 / n, 5 / n, 0.5 + 0 * n,
        )),
        2 * B,
    ),
    # the ratio is 0/0 at the horizon only, and on the whole last block
    "ratio-undefined-at-the-horizon": (_periodic_ratio(lambda n: n == 2 * B + 9), 2 * B + 9),
    "ratio-undefined-on-the-last-block": (_periodic_ratio(lambda n: n > 2 * B), 2 * B + 100),
    "one-block": (BENCH_CUSTOM, B),
    "one-block-and-one-index": (BENCH_CUSTOM, B + 1),
}


@pytest.mark.parametrize("name", list(PLANTED))
def test_blocked_validator_matches_the_whole_array_oracle(name):
    schedule, horizon = PLANTED[name]
    report = _assert_matches_oracle(schedule, horizon)
    if name == "delta-drop-at-boundary":
        assert report.conditions["v"].detail == f"delta decreases near n = {B}"
    elif name == "range-violation-at-boundary":
        assert report.range_violations == [B, B + 1]
        assert report.conditions["i"].detail == f"simplex/range constraint fails first at n = {B}"
    elif name.startswith("violations-below-start"):
        assert report.range_violations == list(range(1, 9))
        live = name.endswith("live")
        assert report.range_violation_count == 9 + live
        assert report.conditions["i"].detail == (
            f"simplex/range constraint fails first at n = {B + 3}" if live
            else "weights on the simplex and delta in (0,1) for all n in [10, 1000]"
        )
    elif name.startswith("ratio-undefined"):
        # the last finite ratio: at the index before the horizon, or at the end of block 2
        a1, a2, a3, d = schedule_eval(schedule, horizon - 1 if name.endswith("horizon") else 2 * B)
        value = a3 / (1.0 - a2 - a3 * d)
        want = f"horizon value {value:.4g} (no declared limit)"
        assert report.diagnostics["same_limit_ratio"] == want
    elif name == "too-few-positive-spread-over-two-blocks":
        assert report.diagnostics["tail_exponent"] is None
        assert "tail exponent n/a" in report.conditions["iv"].detail


@pytest.mark.parametrize("horizon", [100, 1000, B])
@pytest.mark.parametrize(
    "schedule",
    [eq75(), halpern_mix(), compare_t16(), BENCH_CUSTOM]
    + [custom_rational(*triples) for triples in (
        ((0, 0, 0), (1, 0, 0), (0, 0, 0), (0.5, 0, 0)),
        ((0, 1, 1), (0.5, 0, 0), (0.5, -1, 1), (0.5, 0, 0)),
        ((0, 0, 0), (1, -1e-3, 1), (0, 1e-3, 1), (1, -1, 1)),
        ((0, 0.5, 0), (0.5, -0.5, 0), (0.5, 0, 0), (0.2, 0.5, 0)),
    )],
)
def test_validator_within_one_block_is_bitwise_the_oracle(schedule, horizon):
    _assert_matches_oracle(schedule, horizon)


def test_validator_memory_does_not_grow_with_the_horizon():
    import tracemalloc

    # eq75, the benchmark's facts-free schedule, and a schedule that fails (i)
    # at every one of the 10^6 indices: a few 64 KiB temporaries per block
    violating = custom_rational((2, 0, 0), (0, 0, 0), (0, 0, 0), (0.5, 0, 0))
    for schedule in (eq75(), BENCH_CUSTOM, violating):
        tracemalloc.start()
        try:
            validate_assumption12(schedule, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, f"{schedule.kind}: traced peak {peak / 2**20:.2f} MiB"


def test_validator_arithmetic_runs_under_its_error_state():
    # alpha2 = alpha3 = -inf at n = 50: the tail fit's log(inf) - mean is inf - inf there,
    # which used to escape as "RuntimeWarning: invalid value encountered in subtract"
    def formula(n):
        a23 = np.where(n == 50, -np.inf, 0.25) + 0 * n
        return 0.5 + 0 * n, a23, a23, 0.5 + 0 * n

    report = validate_assumption12(Schedule(kind="minus-inf", start_index=1, formula=formula), 200)
    assert report.status("i") is Status.VIOLATED
    assert report.conditions["i"].detail == "simplex/range constraint fails first at n = 50"
    assert report.range_violations == [50]


# Every coefficient triple family the mark covers: b below, at and above zero, and
# c in (-1, 2], so that 1 + c > 0 and no pole lies anywhere from n = 1 on.
_MARKED_RATIONALS = {
    f"rational-b{b:g}-c{c:g}": custom_rational((0.25, b, c), (0.5, -b, c), (0.25, b / 3, c),
                                               (0.5, b / 7, c))
    for b in (-3.0, 0.0, 2.5)
    for c in (-0.999, -0.5, 0.0, 1.0, 2.0)
}
_MARKED_RATIONALS["rational-four-shifts"] = custom_rational(
    (0, 1, -0.5), (0.6, 0, 1), (0.4, -1, 2), (0.7, -0.2, 0)
)
MARKED = {"eq75": eq75(), "halpern-mix": halpern_mix(), "compare-t16": compare_t16(),
          "bench-custom": BENCH_CUSTOM, **_MARKED_RATIONALS}


@pytest.mark.parametrize("name", list(MARKED))
def test_marked_formulas_are_monotone_up_to_1e7(name):
    # the mark's claim, checked by the signs of np.diff over [1, 10^7] in chunks of 10^6
    # values that overlap by one index
    formula = MARKED[name].formula
    assert formula._viscofix_monotone is True
    top, chunk = 10**7, 10**6
    ends = [np.broadcast_to(v, (2,)) for v in formula(np.array([1.0, top]))]
    rising = [first <= last for first, last in ends]
    for lo in range(1, top, chunk):
        ns = np.arange(lo, min(lo + chunk, top) + 1, dtype=np.float64)
        for k, v in enumerate(formula(ns)):
            steps = np.diff(np.broadcast_to(v, ns.shape))
            assert np.all(steps >= 0.0) if rising[k] else np.all(steps <= 0.0), (name, k, lo)


def _unmarked(s: Schedule) -> Schedule:
    """``s`` with its formula re-wrapped, so the validator walks it without the mark."""
    return dataclasses.replace(s, formula=lambda n, _f=s.formula: _f(n))


def _assert_bracket_is_the_walk(s: Schedule, horizon: int):
    marked = validate_assumption12(s, horizon)
    assert repr(marked) == repr(validate_assumption12(_unmarked(s), horizon))
    return marked


@pytest.mark.parametrize("schedule", [eq75(), halpern_mix(), compare_t16(), BENCH_CUSTOM],
                         ids=lambda s: s.kind)
def test_bracket_path_is_the_walk_bit_for_bit_at_one_million(schedule):
    _assert_bracket_is_the_walk(schedule, 10**6)


# the PLANTED schedules the library builds, and four more
BRACKET_CASES = {
    **{name: case for name, case in PLANTED.items() if case[0].kind in ("custom-rational", "eq75")},
    # delta falls by 1e-3/(n+1)^2: the walk finds the drop at n = 1
    "delta-drops": (
        custom_rational((0.25, 0, 0), (0.25, 0, 0), (0.5, 0, 0), (0.5, 1e-3, 1)), 3 * B,
    ),
    # delta falls by less than 1e-15 a step: the walk runs and finds no drop
    "delta-falls-within-rounding": (
        custom_rational((0.25, 0, 0), (0.25, 0, 0), (0.5, 0, 0), (0.01, 1e-15, 1)), 3 * B,
    ),
    # alpha3 changes sign inside the tail, so |alpha3|'s row is walked
    "alpha3-changes-sign-in-the-tail": (
        custom_rational((0.5, 0, 0), (0.5, 0.3, 0.5), (-1e-4, 0.5, 3), (0.5, -0.1, 2)), 20_000,
    ),
    # every index fails (i)
    "violated-everywhere": (
        custom_rational((2, 0, 0), (0, 0, 0), (0, 0, 0), (0.5, 0, 0)), 2 * B + 5,
    ),
}


@pytest.mark.parametrize("name", list(BRACKET_CASES))
def test_bracket_path_is_the_walk_bit_for_bit(name):
    schedule, horizon = BRACKET_CASES[name]
    assert schedule.formula._viscofix_monotone is True
    _assert_bracket_is_the_walk(schedule, horizon)


def test_a_decreasing_delta_is_found_under_the_mark():
    report = _assert_bracket_is_the_walk(*BRACKET_CASES["delta-drops"])
    assert report.conditions["v"].detail == "delta decreases near n = 1"
    report = _assert_bracket_is_the_walk(*BRACKET_CASES["delta-falls-within-rounding"])
    assert report.status("v") is Status.SATISFIED


@pytest.mark.parametrize("c", [-1.0, -1.5, -3.0])
def test_a_pole_below_the_start_index_leaves_the_formula_unmarked(c):
    # n + c <= 0 for some n in [1, start): b / (n + c) changes sign or is not finite there
    pole = custom_rational((0, 0.1, c), (0.5, -0.1, c), (0.5, 0, 0), (0.5, 0, 0), start_index=4)
    assert not hasattr(pole.formula, "_viscofix_monotone")
    _assert_bracket_is_the_walk(pole, 1000)
