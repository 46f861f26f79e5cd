import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscofix import (
    ConfigurationError,
    InputError,
    Schedule,
    Status,
    compare_t16,
    custom_rational,
    eq75,
    halpern_mix,
    schedule_eval,
    validate_assumption12,
)


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
    horizon = 10_000
    report = validate_assumption12(schedule, horizon)
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
