import importlib

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
