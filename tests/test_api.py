import importlib

import numpy as np
import pytest

import viscofix

# The package's public names: the union of its modules' __all__.
PUBLIC_NAMES = [
    "AffineSpan", "AnalyticFacts", "AuditReport", "Ball", "Box", "ConditionFinding",
    "ConditionReport", "ConfigurationError", "ContractionModulus", "FredholmProblem",
    "GeneralizedContraction", "IDENTITY_SCHEMES", "InnerSolveError", "InputError",
    "IterationState", "MonotoneOperatorSpec", "NonexpansiveMap", "NotConvergedError",
    "Schedule", "ScheduleParams", "SchemeKind", "SolveReport", "SolverConfig",
    "SpaceDescriptor", "Status", "Termination", "TraceRow", "ViscofixError", "WholeSpace",
    "average_pseudocontraction", "check_contraction", "check_inverse_strongly_monotone",
    "check_nonexpansive", "compare_limits", "compare_t16", "custom_rational", "eq75",
    "euclidean", "forward_projected", "fredholm_grid", "fredholm_operator", "halpern_mix",
    "inner_implicit_solve", "linear_modulus", "norm", "rational_modulus", "read_trace_csv",
    "run", "schedule_eval", "trapezoid", "trapezoid_nodes", "validate_assumption12",
    "vi_residual", "write_trace_csv",
]

REPUBLISHED = ("errors", "maps", "schedules", "solver", "space")


def test_package_republishes_each_modules_all():
    assert sorted(viscofix.__all__) == PUBLIC_NAMES
    assert len(set(viscofix.__all__)) == len(viscofix.__all__)
    namespace = {}
    exec("from viscofix import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    for name in REPUBLISHED:
        module = importlib.import_module(f"viscofix.{name}")
        assert set(module.__all__) <= set(viscofix.__all__)
        for public in module.__all__:
            assert getattr(viscofix, public) is getattr(module, public)


# Every public entry that takes a point converts it by SpaceDescriptor.point, so
# each refuses and takes the same inputs.
SPACE = viscofix.euclidean(2)
_HALF = viscofix.NonexpansiveMap(lambda x: 0.5 * x)
_QUARTER = viscofix.GeneralizedContraction(lambda x: 0.25 * x, viscofix.linear_modulus(0.25))
_SPAN = viscofix.AffineSpan(SPACE, [0.0, 0.0], [[1.0, 0.0]])


def _first_iterate(x1):
    states = []
    viscofix.run(SPACE, "new_implicit", _QUARTER, _HALF, viscofix.halpern_mix(), x1,
                 viscofix.SolverConfig(max_outer=3), observer=states.append)
    return states[0].x


# entry -> (the name its InputError gives the point, a call of the entry with the point v)
POINT_ENTRIES = {
    "run-x1": ("x1", _first_iterate),
    "inner_implicit_solve-x_n": ("x_n", lambda v: viscofix.inner_implicit_solve(
        SPACE, _QUARTER, _HALF, v, (0.25, 0.25, 0.5), 0.5, viscofix.SolverConfig())[0]),
    "vi_residual-p": ("p", lambda v: viscofix.vi_residual(SPACE, v, _QUARTER, [[3.0, -1.0]])),
    "vi_residual-samples": ("samples[1]", lambda v: viscofix.vi_residual(
        SPACE, [3.0, -1.0], _QUARTER, [[0.0, 0.0], v])),
    "norm": ("x", lambda v: viscofix.norm(SPACE, v)),
    "WholeSpace.project": ("x", lambda v: viscofix.WholeSpace().project(SPACE, v)),
    "Box.project": ("x", lambda v: viscofix.Box([-1.0, 0.0], [1.5, 1.0]).project(SPACE, v)),
    "Ball.project": ("x", lambda v: viscofix.Ball([0.0, 0.5], 1.0).project(SPACE, v)),
    "AffineSpan.project": ("x", lambda v: _SPAN.project(SPACE, v)),
}


@pytest.mark.parametrize(
    "point, message",
    # a bad entry is the second coordinate: as one array, [2.0, True] reads as [2.0, 1.0]
    [
        ([2.0, True], "must be real numbers, got True"),
        ([2.0, "1"], "must be real numbers, got '1'"),
        ([2.0, None], "must be real numbers, got None"),
        ([2.0, 1j], "must be real numbers, got 1j"),
        ([2.0, 10**400], f"must be real numbers, got {10**400}"),
        (np.array([True, False]), "must be real numbers, got True"),
        ([2.0, -1.0, 0.0], "must have shape (2,), got (3,)"),
        (2.0, "must have shape (2,), got ()"),
    ],
    ids=["bool", "str", "None", "complex", "huge-int", "numpy-bool", "wrong-shape", "scalar"],
)
@pytest.mark.parametrize("entry", list(POINT_ENTRIES))
def test_every_point_entry_refuses_what_run_refuses(entry, point, message):
    name, call = POINT_ENTRIES[entry]
    with pytest.raises(viscofix.InputError) as caught:
        call(point)
    assert str(caught.value) == f"{name} {message}"


@pytest.mark.parametrize("entry", list(POINT_ENTRIES))
def test_every_point_entry_takes_ints_and_float_arrays_to_one_float64_point(entry):
    _, call = POINT_ENTRIES[entry]
    given = [[2, -1], np.array([2, -1]), np.array([2.0, -1.0], dtype=np.float32),
             np.array([2.0, -1.0])]
    results = [call(v) for v in given]
    for result in results:
        assert type(result) is float or result.dtype == np.float64
    assert len({np.asarray(result).tobytes() for result in results}) == 1
