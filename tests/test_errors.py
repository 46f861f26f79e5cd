"""One rule for every count, one for every declared real constant, one for real arrays.

A count is an integer at or above its floor, a real constant a real inside
its range, a real array one of finite reals in its shape; anything else is a
typed error naming the input.
"""

import math
import re

import numpy as np
import pytest

from viscofix import (
    AffineSpan,
    Ball,
    Box,
    ConfigurationError,
    FredholmProblem,
    GeneralizedContraction,
    InputError,
    MonotoneOperatorSpec,
    NonexpansiveMap,
    Schedule,
    SolverConfig,
    SpaceDescriptor,
    WholeSpace,
    average_pseudocontraction,
    check_contraction,
    check_inverse_strongly_monotone,
    check_nonexpansive,
    custom_rational,
    eq75,
    euclidean,
    forward_projected,
    linear_modulus,
    rational_modulus,
    schedule_eval,
    trapezoid,
    trapezoid_nodes,
    validate_assumption12,
)

SPACE = euclidean(2)
T = NonexpansiveMap(lambda x: 0.5 * x)
F = GeneralizedContraction(lambda x: 0.25 * x, linear_modulus(0.25))
A = MonotoneOperatorSpec(lambda x: x, ism_alpha=1.0)
RATIONAL = ((0.0, 1.0, 1.0), (0.5, 0.0, 0.0), (0.5, -1.0, 1.0), (0.5, 0.0, 0.0))

# input -> (call with the count v, error type, name in the message, floor, a valid count)
COUNTS = {
    "SolverConfig-max_outer": (
        lambda v: SolverConfig(max_outer=v), ConfigurationError, "max_outer", 1, 3),
    "validate_assumption12-horizon": (
        lambda v: validate_assumption12(eq75(), v), InputError, "horizon", 100, 1000),
    "schedule_eval-index": (
        lambda v: schedule_eval(eq75(), v), InputError, "schedule index", 2, 5),
    "Schedule-start_index": (
        lambda v: Schedule(kind="eq75-formula", start_index=v, formula=eq75().formula),
        ConfigurationError, "start index", 1, 2),
    # a fractional start index used to run n = 2.5, 3.5, ... on formula(int(n))
    "custom_rational-start_index": (
        lambda v: custom_rational(*RATIONAL, start_index=v), ConfigurationError, "start index",
        1, 2),
    "eq75-start_index": (lambda v: eq75(start_index=v), ConfigurationError, "start index", 1, 2),
    "check_nonexpansive-n_samples": (
        lambda v: check_nonexpansive(SPACE, T, n_samples=v), InputError, "n_samples", 1, 20),
    "check_contraction-n_samples": (
        lambda v: check_contraction(SPACE, F, n_samples=v), InputError, "n_samples", 1, 20),
    "check_inverse_strongly_monotone-n_samples": (
        lambda v: check_inverse_strongly_monotone(SPACE, A, n_samples=v), InputError,
        "n_samples", 1, 20),
    "check_nonexpansive-seed": (
        lambda v: check_nonexpansive(SPACE, T, n_samples=20, seed=v), InputError, "seed", 0, 3),
    "check_contraction-seed": (
        lambda v: check_contraction(SPACE, F, n_samples=20, seed=v), InputError, "seed", 0, 3),
    "check_inverse_strongly_monotone-seed": (
        lambda v: check_inverse_strongly_monotone(SPACE, A, n_samples=20, seed=v), InputError,
        "seed", 0, 3),
    "FredholmProblem-grid_size": (
        lambda v: FredholmProblem(
            g=np.cos, kernel=lambda t, s, x: 0.0 * x, lipschitz_bound=0.5, grid_size=v
        ),
        ConfigurationError, "grid_size", 2, 8),
    "euclidean-dim": (euclidean, ConfigurationError, "dimension", 1, 2),
    "trapezoid-intervals": (trapezoid, ConfigurationError, "intervals", 1, 4),
    "trapezoid_nodes-intervals": (trapezoid_nodes, ConfigurationError, "intervals", 1, 4),
}


def _refused(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("value", [2.5, True, "8", None], ids=["float", "bool", "str", "None"])
@pytest.mark.parametrize("which", list(COUNTS))
def test_a_count_that_is_not_an_integer_is_a_typed_error_naming_it(which, value):
    call, error, name, _, _ = COUNTS[which]
    _refused(lambda: call(value), error, f"{name} must be an integer, got {value!r}")


@pytest.mark.parametrize("which", list(COUNTS))
def test_a_count_below_its_floor_is_a_typed_error_naming_it(which):
    call, error, name, least, _ = COUNTS[which]
    _refused(lambda: call(least - 1), error, f"{name} must be >= {least}, got {least - 1}")


def _bits(result):
    """What a count's result is made of, comparable with ``==``."""
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, SpaceDescriptor):
        return result.dim, result.weights.tobytes()
    if isinstance(result, Schedule):
        return result.start_index, schedule_eval(result, 7)
    if isinstance(result, FredholmProblem):
        return result.grid_size
    if hasattr(result, "witness"):  # an AuditReport
        return result.passed, result.worst, [p.tobytes() for p in result.witness or ()]
    if hasattr(result, "render"):  # a ConditionReport
        return result.render()
    return result  # a SolverConfig or a ScheduleParams


@pytest.mark.parametrize("which", list(COUNTS))
def test_a_numpy_integer_count_is_taken_as_the_python_integer(which):
    call, _, _, _, valid = COUNTS[which]
    assert _bits(call(np.int64(valid))) == _bits(call(valid))


def test_a_float_start_index_is_refused_before_the_pole_test():
    # c = -2.5 puts a pole at n = 2.5, which a start index of 2.5 would meet
    message = "start index must be an integer, got 2.5"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        custom_rational((0.0, 1.0, -2.5), *RATIONAL[1:], start_index=2.5)


# input -> (call with the real v, message for v = True, a valid real)
REALS = {
    "SolverConfig-outer_tol": (
        lambda v: SolverConfig(outer_tol=v), "outer_tol must be finite and positive", 1e-6),
    "SolverConfig-inner_tol": (
        lambda v: SolverConfig(inner_tol=v), "inner_tol must be finite and positive", 1e-9),
    "Ball-radius": (
        lambda v: Ball(np.zeros(2), v), "ball radius must be finite and positive", 2.0),
    "linear_modulus-c": (
        lambda v: linear_modulus(v), "linear modulus coefficient must lie in [0, 1)", 0.25),
    "rational_modulus-beta": (
        lambda v: rational_modulus(v), "rational modulus coefficient must be positive", 2.0),
    "MonotoneOperatorSpec-ism_alpha": (
        lambda v: MonotoneOperatorSpec(lambda x: x, ism_alpha=v),
        "inverse-strong-monotonicity constant must be finite and positive", 0.5),
    "forward_projected-gamma": (
        lambda v: forward_projected(SPACE, WholeSpace(), A, gamma=v),
        "step size gamma must lie in (0, 2] (twice the declared monotonicity constant)", 1.5),
    "average_pseudocontraction-lam": (
        lambda v: average_pseudocontraction(lambda x: x, lam=v, theta=0.25),
        "pseudocontractivity constant must lie in [0, 1)", 0.5),
    "average_pseudocontraction-theta": (
        lambda v: average_pseudocontraction(lambda x: x, lam=0.5, theta=v),
        "averaging weight must lie in (0, 0.5]", 0.25),
    "FredholmProblem-lipschitz_bound": (
        lambda v: FredholmProblem(
            g=np.cos, kernel=lambda t, s, x: 0.0 * x, lipschitz_bound=v, grid_size=8
        ),
        "kernel Lipschitz bound must lie in [0, 1]", 0.5),
}


@pytest.mark.parametrize("which", list(REALS))
def test_a_bool_is_not_taken_for_a_declared_real(which):
    # bool is a numbers.Real: unchecked, True passed for 1.0 and False for 0.0
    call, message, _ = REALS[which]
    for flag in (True, False):
        _refused(lambda: call(flag), ConfigurationError, f"{message}, got {flag}")


@pytest.mark.parametrize("value", ["0.5", None, 0.5j], ids=["str", "None", "complex"])
@pytest.mark.parametrize("which", list(REALS))
def test_a_declared_real_that_is_not_a_number_is_a_typed_error_naming_it(which, value):
    call, message, _ = REALS[which]
    _refused(lambda: call(value), ConfigurationError, f"{message}, got {value!r}")


def _real_bits(result):
    """What a real constant's result is made of, comparable with ``==``."""
    if isinstance(result, NonexpansiveMap):
        x = np.array([3.0, -4.0])
        return result(x).tobytes()
    if isinstance(result, Ball):
        return result.radius, type(result.radius)
    for field in ("coefficient", "ism_alpha", "lipschitz_bound"):
        if hasattr(result, field):
            value = getattr(result, field)
            return value, type(value)
    return result  # a SolverConfig


@pytest.mark.parametrize("which", list(REALS))
def test_a_numpy_real_is_taken_as_the_python_float(which):
    call, _, valid = REALS[which]
    assert _real_bits(call(np.float64(valid))) == _real_bits(call(valid))


@pytest.mark.parametrize("which", list(REALS))
def test_an_integer_too_large_for_a_float_is_a_typed_error_naming_it(which):
    # float(10**400) raises OverflowError
    call, message, _ = REALS[which]
    _refused(lambda: call(10**400), ConfigurationError, f"{message}, got {10**400}")


# real array -> (call with the array v, a valid array, name in the message,
#                an array of the wrong shape, the shape message for it)
ARRAYS = {
    "SpaceDescriptor-weights": (
        lambda v: SpaceDescriptor(v), [1.0, 0.5], "weights",
        [[1.0, 0.5]], "must have shape (k,), got (1, 2)"),
    "Box-lower": (
        lambda v: Box(v, [1.0, 1.0]), [0.0, -1.0], "box lower bounds",
        [[0.0, 0.0]], "must have shape (k,), got (1, 2)"),
    "Box-upper": (
        lambda v: Box([0.0, 0.0], v), [1.0, 2.0], "box upper bounds",
        [1.0, 1.0, 1.0], "must have shape (2,), got (3,)"),
    "Ball-center": (
        lambda v: Ball(v, 1.0), [0.0, 1.0], "ball center",
        [[0.0, 1.0]], "must have shape (k,), got (1, 2)"),
    "AffineSpan-base": (
        lambda v: AffineSpan(SPACE, v, [[1.0, 0.0]]), [0.0, 1.0], "base",
        [0.0], "must have shape (2,), got (1,)"),
    "AffineSpan-directions": (
        lambda v: AffineSpan(SPACE, np.zeros(2), v), [[1.0, 0.0]], "directions",
        [1.0, 0.0], "must have shape (k, 2), got (2,)"),
    "custom_rational-alpha1": (
        lambda v: custom_rational(v, *RATIONAL[1:]), [0.0, 1.0, 1.0],
        "alpha1 coefficients", [0.0, 1.0], "must have shape (3,), got (2,)"),
}


@pytest.mark.parametrize(
    "value", ["a", None, True, 1j, 10**400, math.nan, math.inf],
    ids=["str", "None", "bool", "complex", "huge", "nan", "inf"],
)
@pytest.mark.parametrize("which", list(ARRAYS))
def test_an_entry_that_is_not_a_finite_real_is_a_typed_error_naming_the_array(which, value):
    # the last entry replaced: as one array, [0.0, True] would read as [0.0, 1.0]
    call, valid, name, _, _ = ARRAYS[which]
    entries = np.array(valid, dtype=object)
    entries.flat[-1] = value
    _refused(lambda: call(entries.tolist()), ConfigurationError,
             f"{name} must be finite real numbers, got {value!r}")


@pytest.mark.parametrize(
    "value", ["a", None, True, np.True_],
    ids=["str", "None", "bool", "numpy-bool"],
)
@pytest.mark.parametrize("which", list(ARRAYS))
def test_a_whole_array_that_is_not_real_is_a_typed_error_naming_it(which, value):
    call, valid, name, _, _ = ARRAYS[which]
    _refused(lambda: call(value), ConfigurationError,
             f"{name} must be finite real numbers, got {value!r}")
    # an array of bools is refused entry by entry: True is not taken for 1.0
    _refused(lambda: call(np.ones(np.shape(valid), dtype=bool)), ConfigurationError,
             f"{name} must be finite real numbers, got True")


@pytest.mark.parametrize("which", list(ARRAYS))
def test_a_non_finite_entry_of_a_numpy_array_is_a_typed_error_naming_it(which):
    call, valid, name, _, _ = ARRAYS[which]
    given = np.array(valid)
    given.flat[-1] = -math.inf
    _refused(lambda: call(given), ConfigurationError,
             f"{name} must be finite real numbers, got -inf")


@pytest.mark.parametrize("which", list(ARRAYS))
def test_a_real_array_of_the_wrong_shape_is_a_typed_error_naming_it(which):
    call, _, name, wrong, message = ARRAYS[which]
    _refused(lambda: call(wrong), ConfigurationError, f"{name} {message}")


def _array_bits(result):
    """The array a real-array input became, comparable with ``==``."""
    if isinstance(result, Schedule):
        return schedule_eval(result, 7)
    fields = ("weights", "lower", "upper", "center", "base", "directions")
    return [getattr(result, field).tobytes() for field in fields if hasattr(result, field)]


@pytest.mark.parametrize("which", list(ARRAYS))
def test_a_numpy_real_array_is_copied_as_the_list_of_its_floats(which):
    call, valid, _, _, _ = ARRAYS[which]
    given = np.array(valid)
    built = call(given)
    given[...] = 0.5  # a later change to the input does not reach what was built
    assert _array_bits(built) == _array_bits(call(valid))
