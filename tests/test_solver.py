import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import viscofix as vx
from viscofix import (
    AffineSpan,
    Ball,
    Box,
    ConfigurationError,
    GeneralizedContraction,
    InnerSolveError,
    InputError,
    NonexpansiveMap,
    NotConvergedError,
    SchemeKind,
    SolverConfig,
    Termination,
    TraceRow,
    compare_limits,
    compare_t16,
    custom_rational,
    eq75,
    euclidean,
    halpern_mix,
    inner_implicit_solve,
    linear_modulus,
    norm,
    read_trace_csv,
    run,
    schedule_eval,
    vi_residual,
    write_trace_csv,
)
from viscofix.config import load_run_config
from viscofix.problems import build_problem

SP1 = euclidean(1)
HALF = NonexpansiveMap(lambda x: 0.5 * x)
QUARTER = GeneralizedContraction(lambda x: 0.25 * x, linear_modulus(0.25))

# fixed single-index schedule matching eq75 at n = 2: (1/4, 1/4, 1/2), delta 1/3
FLAT_EQ75_2 = custom_rational(
    (0.25, 0, 0), (0.25, 0, 0), (0.5, 0, 0), (1.0 / 3.0, 0, 0)
)


def test_inner_solve_closed_form():
    # u = 1/16 + 1/4 + (1/2) T(1/6 + u/3) solves to u = 17/44
    cfg = SolverConfig(inner_tol=1e-13)
    u, iters = inner_implicit_solve(
        SP1, QUARTER, HALF, np.array([1.0]), (0.25, 0.25, 0.5), 1.0 / 3.0, cfg
    )
    assert abs(u[0] - 17.0 / 44.0) <= 1e-12
    assert 1 <= iters <= 30


def test_inner_solve_rate_certificate():
    # successive errors against the closed form shrink by at least the
    # contraction factor alpha3 * delta = 1/6 (the true factor here is 1/12)
    record = []
    cfg = SolverConfig(inner_tol=1e-13)
    inner_implicit_solve(
        SP1, QUARTER, HALF, np.array([1.0]), (0.25, 0.25, 0.5), 1.0 / 3.0, cfg, record
    )
    star = 17.0 / 44.0
    errors = [abs(1.0 - star)] + [abs(u[0] - star) for u in record]
    for prev, new in zip(errors, errors[1:]):
        assert new <= (1.0 / 6.0 + 1e-9) * prev


def test_inner_solve_identity_viscosity():
    # f = None substitutes the identity: u = 1/4 + 1/4 + (1/2) T(2/3 + u/3)
    # => u = 1/2 + (1/3 + u/6)/2 ... solves to u = 8/11
    cfg = SolverConfig(inner_tol=1e-13)
    u, _ = inner_implicit_solve(
        SP1, None, HALF, np.array([1.0]), (0.25, 0.25, 0.5), 1.0 / 3.0, cfg
    )
    assert abs(u[0] - 8.0 / 11.0) <= 1e-12


def test_inner_solve_constant_map_single_application():
    # alpha3 = 0 makes the inner map constant: exactly one application
    u, iters = inner_implicit_solve(
        SP1, QUARTER, HALF, np.array([1.0]), (0.5, 0.5, 0.0), 0.5, SolverConfig()
    )
    assert iters == 1
    assert u[0] == 0.5 * 0.25 + 0.5


def test_inner_solve_rejects_bad_weights():
    with pytest.raises(InputError):
        inner_implicit_solve(
            SP1, QUARTER, HALF, np.array([1.0]), (0.5, 0.5, 0.5), 0.5, SolverConfig()
        )
    with pytest.raises(InputError):
        inner_implicit_solve(
            SP1, QUARTER, HALF, np.array([1.0]), (0.25, 0.25, 0.5), 1.5, SolverConfig()
        )


def test_inner_solve_detects_false_nonexpansiveness():
    liar = NonexpansiveMap(lambda x: 3.0 * x)
    with pytest.raises(InnerSolveError):
        inner_implicit_solve(
            SP1, QUARTER, liar, np.array([1.0]), (0.05, 0.05, 0.9), 0.9, SolverConfig()
        )


def test_inner_solve_detects_a_liar_that_contracts_one_direction():
    # the second application's gap grows along the expanding axis, which
    # ends the mixing; plain Picard then runs past the certified budget
    liar = NonexpansiveMap(lambda x: np.array([3.0, 0.5]) * x)
    with pytest.raises(InnerSolveError, match="does not contract as declared"):
        inner_implicit_solve(
            euclidean(2), QUARTER, liar, np.array([1.0, 1.0]), (0.05, 0.05, 0.9), 0.9,
            SolverConfig(),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inner_solve_fails_fast_on_non_finite_map(bad):
    calls = []

    def broken(x):
        calls.append(x)
        return np.full_like(x, bad)

    T = NonexpansiveMap(broken)
    with pytest.raises(InnerSolveError, match="at application 1"):
        inner_implicit_solve(
            SP1, QUARTER, T, np.array([1.0]), (0.25, 0.25, 0.5), 0.5, SolverConfig()
        )
    assert len(calls) == 1


def _one_step(scheme, f=QUARTER, schedule=FLAT_EQ75_2):
    """The report of one outer step from ``x_1 = 1``."""
    cfg = SolverConfig(max_outer=1, inner_tol=1e-14)
    return run(SP1, scheme, f, HALF, schedule, np.array([1.0]), cfg)


def _step_value(scheme, f=QUARTER):
    report = _one_step(scheme, f)
    assert report.n_final == FLAT_EQ75_2.start_index + 1
    return report.final_point[0]


def test_step_three_term_closed_form():
    # x' = 1/16 + 1/4 + (1/2) T(x/3 + 2x'/3) solves to 19/40
    assert _step_value(SchemeKind.THREE_TERM) == pytest.approx(19.0 / 40.0, abs=1e-12)


def test_step_new_implicit_matches_inner_solve():
    assert _step_value(SchemeKind.NEW_IMPLICIT) == pytest.approx(17.0 / 44.0, abs=1e-12)


def test_step_explicit_collapses_weights():
    # a = a1/(a1 + a3) = 1/3: x' = (1/3) f(1) + (2/3) T(1) = 5/12
    assert _step_value(SchemeKind.EXPLICIT) == pytest.approx(5.0 / 12.0, abs=1e-15)


def test_step_midpoint_closed_form():
    # x' = (1/3)(1/4) + (2/3) T((1 + x')/2) solves to 3/10
    assert _step_value(SchemeKind.MIDPOINT) == pytest.approx(0.3, abs=1e-12)


def test_step_kema_closed_form():
    # x' = (1/3)(1/4) + (2/3) T(x/3 + 2x'/3) solves to 1/4
    assert _step_value(SchemeKind.KEMA) == pytest.approx(0.25, abs=1e-12)


def test_collapse_needs_positive_weight_mass():
    # alpha1 = alpha3 = 0 leaves the single-weight schemes undefined
    s = custom_rational((0, 0, 0), (1, 0, 0), (0, 0, 0), (0.5, 0, 0))
    report = _one_step(SchemeKind.EXPLICIT, schedule=s)
    assert report.termination is Termination.SCHEDULE_RANGE_VIOLATION
    assert "alpha1 + alpha3 = 0" in report.message
    assert report.n_final == s.start_index
    assert report.trace == []


@pytest.mark.parametrize(
    "scheme, schedule, message",
    [
        (
            SchemeKind.EXPLICIT,
            custom_rational((0, 0, 0), (1, 0, 0), (0, 0, 0), (0.5, 0, 0), start_index=3),
            "alpha1 + alpha3 = 0: the single-parameter schemes cannot consume the weights "
            "at n = 3",
        ),
        *(
            (
                scheme,
                custom_rational((0, 0, 0), (1, 0, 0), (0, 0, 0), (0.5, 0, 0)),
                "alpha1 + alpha3 = 0: the single-parameter schemes cannot consume the weights "
                "at n = 1",
            )
            for scheme in (SchemeKind.KEMA, SchemeKind.MIDPOINT, SchemeKind.MIDPOINT_MANN)
        ),
        # 1 - delta rounds to 1, so the inner map's factor alpha3 * (1 - delta) is 1
        (
            SchemeKind.THREE_TERM,
            custom_rational((0, 0, 0), (0, 0, 0), (1, 0, 0), (5e-324, 0, 0)),
            "inner map contraction factor 1 is not below 1 at n = 1",
        ),
        # the collapsed weight is 0, so the factor (1 - 0) * (1 - delta) is 1 too
        (
            SchemeKind.KEMA,
            custom_rational((0, 0, 0), (0, 0, 0), (1, 0, 0), (5e-324, 0, 0)),
            "inner map contraction factor 1 is not below 1 at n = 1",
        ),
        (
            SchemeKind.NEW_IMPLICIT,
            vx.Schedule("nan", 1, lambda n: (math.nan, 0.5, 0.5, 0.5)),
            "non-finite weights at n = 1",
        ),
    ],
    ids=[
        "collapsed-weight", "collapsed-weight-kema", "collapsed-weight-midpoint",
        "collapsed-weight-midpoint_mann", "inner-factor", "inner-factor-kema", "non-finite",
    ],
)
def test_schedule_range_failures_name_the_step(scheme, schedule, message):
    f = None if scheme in vx.solver.IDENTITY_SCHEMES else QUARTER
    report = _one_step(scheme, f, schedule)
    assert report.termination is Termination.SCHEDULE_RANGE_VIOLATION
    assert report.message == message
    assert (report.n_final, report.trace) == (schedule.start_index, [])


def test_identity_presets_refuse_viscosity_term():
    with pytest.raises(ConfigurationError, match="f=None"):
        _one_step(SchemeKind.MANN_IMPLICIT, QUARTER)
    with pytest.raises(ConfigurationError):
        _one_step(SchemeKind.NEW_IMPLICIT, None)


def test_mann_is_new_implicit_with_identity():
    ident = GeneralizedContraction(lambda x: x, linear_modulus(0.0))
    # the modulus is irrelevant to stepping; only the evaluator is used
    object.__setattr__(ident, "evaluator", lambda x: x)
    a = _one_step(SchemeKind.MANN_IMPLICIT, None)
    b = _one_step(SchemeKind.NEW_IMPLICIT, ident)
    assert a.final_point.tobytes() == b.final_point.tobytes()
    assert a.trace == b.trace


def test_midpoint_mann_hardwires_half():
    # x' = a x + (1 - a) T((x + x')/2) with a = 1/3: x' = 1/3 + (1 + x')/6
    assert _step_value(SchemeKind.MIDPOINT_MANN, None) == pytest.approx(0.6, abs=1e-12)


def test_run_converges_and_traces():
    cfg = SolverConfig(outer_tol=1e-6, max_outer=10_000)
    report = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, halpern_mix(), np.array([1.0]), cfg)
    assert report.termination is Termination.CONVERGED
    assert report.final_residual <= 1e-6
    assert abs(report.final_point[0]) <= 2e-6
    assert len(report.trace) == report.n_final - 1
    first = report.trace[0]
    assert first.n == 1
    assert (first.alpha1, first.alpha2, first.alpha3, first.delta) == tuple(
        schedule_eval(halpern_mix(), 1)
    )
    # residual recorded per row matches a recomputation from the trace tail
    assert report.trace[-1].residual == report.final_residual


def test_run_stops_immediately_at_fixed_point():
    ident = NonexpansiveMap(lambda x: x)
    report = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, ident, eq75(), np.array([4.0]), SolverConfig())
    assert report.termination is Termination.CONVERGED
    assert report.n_final == 2
    assert report.trace == []
    assert report.final_point[0] == 4.0


def test_run_schedule_range_violation():
    report = run(
        SP1,
        SchemeKind.NEW_IMPLICIT,
        QUARTER,
        HALF,
        eq75(start_index=1),
        np.array([1.0]),
        SolverConfig(),
    )
    assert report.termination is Termination.SCHEDULE_RANGE_VIOLATION
    assert "outside [0, 1]" in report.message
    assert report.n_final == 1


def test_run_max_iters():
    cfg = SolverConfig(outer_tol=1e-12, max_outer=5)
    report = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, halpern_mix(), np.array([1.0]), cfg)
    assert report.termination is Termination.MAX_ITERS
    assert "after 5 steps" in report.message
    assert len(report.trace) == 5


def test_run_stops_at_first_non_finite_residual():
    # T(x) = 3x is not the nonexpansive map it is declared to be, so the
    # explicit iterates grow until the residual overflows.
    tripled = NonexpansiveMap(lambda x: 3.0 * x)
    cfg = SolverConfig(max_outer=2000)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run(SP1, SchemeKind.EXPLICIT, QUARTER, tripled, halpern_mix(), np.array([1.0]), cfg)
    assert report.termination is Termination.NON_FINITE
    assert not math.isfinite(report.final_residual)
    residuals = [row.residual for row in report.trace]
    assert all(math.isfinite(r) for r in residuals[:-1])
    assert not math.isfinite(residuals[-1])
    assert report.n_final == report.trace[-1].n + 1
    assert report.n_final - halpern_mix().start_index < cfg.max_outer
    assert f"n = {report.n_final}" in report.message
    assert len(caught) <= 1


def test_run_checks_initial_point_is_finite():
    cfg = SolverConfig(max_outer=50)
    with np.errstate(invalid="ignore"):
        report = run(
            SP1, SchemeKind.EXPLICIT, QUARTER, HALF, halpern_mix(), np.array([np.inf]), cfg
        )
    assert report.termination is Termination.NON_FINITE
    assert report.n_final == halpern_mix().start_index
    assert report.trace == []
    assert f"n = {report.n_final}" in report.message


@pytest.mark.parametrize(
    "x1, message",
    [
        (["a"], "x1 must be real numbers, got 'a'"),
        ([10**400], f"x1 must be real numbers, got {10**400}"),
        ([True], "x1 must be real numbers, got True"),
        (np.array([True]), "x1 must be real numbers, got True"),
        (None, "x1 must be real numbers, got None"),
        ([1j], "x1 must be real numbers, got 1j"),
        ([1.0, 2.0], "x1 must have shape (1,), got (2,)"),
        (1.0, "x1 must have shape (1,), got ()"),
    ],
    ids=["string", "huge-int", "bool", "numpy-bool", "none", "complex", "too-long", "scalar"],
)
def test_run_refuses_a_start_point_that_is_not_reals(x1, message):
    # these used to escape as a bare ValueError or OverflowError, or (a bool) run from 1.0
    with pytest.raises(InputError) as caught:
        run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, halpern_mix(), x1, SolverConfig(max_outer=5))
    assert str(caught.value) == message


def test_run_takes_a_start_point_of_python_and_numpy_reals():
    cfg = SolverConfig(outer_tol=1e-8)
    want = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, halpern_mix(), np.array([1.0]), cfg)
    for x1 in ([1], [1.0], (np.float32(1.0),), np.array([1]), np.array([1.0], dtype=np.float32)):
        got = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, halpern_mix(), x1, cfg)
        assert got.final_point.tobytes() == want.final_point.tobytes()
        assert got.n_final == want.n_final


def test_run_is_deterministic_bitwise():
    cfg = SolverConfig(outer_tol=1e-8, max_outer=10_000)
    args = (SP1, SchemeKind.THREE_TERM, QUARTER, HALF, eq75(), np.array([1.0]), cfg)
    a = run(*args)
    b = run(*args)
    assert a.final_point.tobytes() == b.final_point.tobytes()
    assert a.trace == b.trace
    assert a.n_final == b.n_final


def test_run_observer_sees_every_state():
    seen = []
    cfg = SolverConfig(outer_tol=1e-6, max_outer=10_000)
    report = run(
        SP1, SchemeKind.KEMA, QUARTER, HALF, halpern_mix(), np.array([1.0]), cfg,
        observer=seen.append,
    )
    assert all(type(state) is vx.IterationState for state in seen)
    assert vx.IterationState._fields == ("n", "x", "last_inner_iters", "residual")
    assert seen[0].n == 1 and seen[0].x[0] == 1.0
    assert seen[-1].n == report.n_final
    assert len(seen) == report.n_final  # states n = 1 .. n_final
    assert all(b.n == a.n + 1 for a, b in zip(seen, seen[1:]))


def test_run_steps_shrink_at_convergence():
    cfg = SolverConfig(outer_tol=1e-8, max_outer=100_000)
    report = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, halpern_mix(), np.array([1.0]), cfg)
    assert report.termination is Termination.CONVERGED
    assert report.trace[-1].step_norm <= 10.0 * cfg.outer_tol


def _plane():
    sp = euclidean(2)
    line = AffineSpan(sp, base=np.zeros(2), directions=[[1.0, 0.0]])
    T = NonexpansiveMap(lambda x: line.project(sp, x))
    const = GeneralizedContraction(lambda x: np.array([3.0, 4.0]), linear_modulus(0.0))
    return sp, T, const


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_step_chain_reproduces_run_bitwise(scheme):
    # the observed state chain carries the trace rows and the final point
    sp, T, const = _plane()
    f = None if scheme in vx.solver.IDENTITY_SCHEMES else const
    cfg = SolverConfig(outer_tol=1e-2, max_outer=2000)
    seen = []
    report = run(sp, scheme, f, T, halpern_mix(), np.array([0.0, 5.0]), cfg, observer=seen.append)
    assert report.termination is Termination.CONVERGED
    assert len(report.trace) == len(seen) - 1 >= 1
    assert seen[0].n == halpern_mix().start_index and seen[0].last_inner_iters == 0
    for prev, state, row in zip(seen, seen[1:], report.trace):
        assert state.n == row.n + 1
        assert state.residual == row.residual
        assert state.last_inner_iters == row.inner_iters
        assert sp.norm(state.x - prev.x) == row.step_norm
    assert seen[-1].x.tobytes() == report.final_point.tobytes()
    assert seen[-1].residual == report.final_residual


@pytest.mark.parametrize("preset", [eq75, halpern_mix, compare_t16])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_a_run_resumed_from_its_report_is_the_uninterrupted_run_bitwise(scheme, preset):
    # split after k steps, then continue from n_final and final_point with
    # the rest of the budget: converged and max_iters runs alike
    sp, T, const = _plane()
    f = None if scheme in vx.solver.IDENTITY_SCHEMES else const
    x1, cfg = np.array([0.0, 5.0]), SolverConfig(outer_tol=1e-2, max_outer=1000)
    whole = run(sp, scheme, f, T, preset(), x1, cfg)
    k = len(whole.trace) // 2
    head = run(sp, scheme, f, T, preset(), x1, dataclasses.replace(cfg, max_outer=k))
    rest = dataclasses.replace(cfg, max_outer=cfg.max_outer - k)
    resumed = dataclasses.replace(preset(), start_index=head.n_final)
    tail = run(sp, scheme, f, T, resumed, head.final_point, rest)
    assert np.array([*head.trace, *tail.trace]).tobytes() == np.array(whole.trace).tobytes()
    assert tail.n_final == whole.n_final
    assert tail.final_point.tobytes() == whole.final_point.tobytes()
    assert tail.termination is whole.termination


def test_inner_solve_is_the_new_implicit_step_bitwise():
    sp, T, const = _plane()
    cfg = SolverConfig(max_outer=1)
    x = np.array([0.7, -2.5])
    for n in (1, 2, 10, 1000):
        a1, a2, a3, d = schedule_eval(halpern_mix(), n)
        u, iters = inner_implicit_solve(sp, const, T, x, (a1, a2, a3), d, cfg)
        report = run(sp, SchemeKind.NEW_IMPLICIT, const, T, halpern_mix(start_index=n), x, cfg)
        assert report.n_final == n + 1
        assert u.tobytes() == report.final_point.tobytes()
        assert [row.inner_iters for row in report.trace] == [iters]


class _Counted:
    """An evaluator that counts its calls, and the calls whose argument is
    bitwise the previous call's."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.calls = self.repeats = 0
        self._last = None

    def __call__(self, x):
        arg = x.tobytes()
        self.repeats += arg == self._last
        self._last = arg
        self.calls += 1
        return self.evaluator(x)


def _counting(T):
    counted = _Counted(T.evaluator)
    return dataclasses.replace(T, evaluator=counted), counted


@pytest.mark.parametrize(
    "scheme, expected_calls",
    [
        # T(x_n) is the previous residual's T(x_n): one call per step, plus x_1's
        ("explicit", lambda steps: steps + 1),
        # under delta = 1/2 the first inner argument is bitwise x_n, so a step
        # makes one fresh inner call and the residual's; n = 1 has alpha3 = 0,
        # a constant inner map, whose one application is the reused call
        ("kema", lambda steps: 2 * steps),
    ],
)
def test_run_reuses_the_residuals_T_value(scheme, expected_calls):
    sp, T, const = _plane()
    cfg = SolverConfig(outer_tol=1e-2)
    reports = []
    for _ in range(2):
        counted, calls = _counting(T)
        report = run(sp, scheme, const, counted, halpern_mix(), np.array([0.0, 5.0]), cfg)
        steps = report.n_final - halpern_mix().start_index
        assert report.termination is Termination.CONVERGED and steps > 100
        assert calls.calls == expected_calls(steps)
        reports.append(report)
    first, again = reports
    assert again.trace == first.trace
    assert again.final_point.tobytes() == first.final_point.tobytes()


# Exact counters of the seed-0 small-dim solves of perfbench: outer steps,
# total and largest inner applications, T calls, T calls repeating the
# previous argument bitwise, f calls.  Their sums, 52000 steps, 101101 inner
# applications, 128819 T calls and 1 repeat, are the benchmark's
# `--trace 1` counters.  A change to any of them is a change of behaviour.
SMALL_DIM_COUNTERS = {
    ("plane", "explicit"): (7999, 0, 0, 8000, 0, 7999),
    ("plane", "kema"): (7999, 15997, 2, 15998, 0, 7999),
    ("plane", "three_term"): (8001, 32001, 4, 32002, 0, 8001),
    ("plane", "new_implicit"): (8001, 16106, 4, 24108, 1, 8001),
    ("eq75", "new_implicit"): (10000, 16335, 3, 26336, 0, 10000),
    ("eq75", "three_term"): (10000, 20662, 3, 22375, 0, 10000),
}


def _run_counters(sp, scheme, f, T, schedule, x1, cfg):
    """Outer steps, total and largest inner applications, T calls, T repeats
    and f calls of one traced run."""
    T, t_calls = _counting(T)
    f, f_calls = (None, None) if f is None else _counting(f)
    report = run(sp, scheme, f, T, schedule, x1, dataclasses.replace(cfg, record_trace=True))
    inner = [row.inner_iters for row in report.trace]
    return (
        report.n_final - schedule.start_index, sum(inner), max(inner),
        t_calls.calls, t_calls.repeats, 0 if f_calls is None else f_calls.calls,
    )


@pytest.mark.parametrize("problem, scheme", list(SMALL_DIM_COUNTERS))
def test_small_dim_counters_are_pinned(problem, scheme):
    if problem == "plane":
        sp, T, f = _plane()
        schedule, x1, cfg = halpern_mix(), np.array([0.0, 5.0]), SolverConfig(outer_tol=1e-3)
    else:
        sp, T, f = SP1, HALF, QUARTER
        schedule, x1 = eq75(), np.array([1.0])
        cfg = SolverConfig(outer_tol=5e-9, max_outer=10_000)
    counters = _run_counters(sp, scheme, f, T, schedule, x1, cfg)
    assert counters == SMALL_DIM_COUNTERS[problem, scheme]


def _built(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    cfg = load_run_config(path)
    return cfg, build_problem(cfg)


# The same counters for the four seed-0 fredholm-grid solves of perfbench
# (mann_implicit, halpern-mix, outer_tol 1e-10; its seed-0 start is the
# x1 of build_problem).  Sums: 191 steps, 592 inner applications, 596 T calls,
# 4 repeats, no f calls.
FREDHOLM_GRID_COUNTERS = {
    ("separable-linear", 64): (45, 132, 3, 133, 1, 0),
    ("separable-linear", 256): (45, 132, 3, 133, 1, 0),
    ("separable-linear", 1024): (45, 132, 3, 133, 1, 0),
    ("sine", 256): (56, 196, 5, 197, 1, 0),
}


@pytest.mark.parametrize("kernel, m", list(FREDHOLM_GRID_COUNTERS))
def test_fredholm_grid_counters_are_pinned(tmp_path, kernel, m):
    cfg, setup = _built(
        tmp_path,
        f"[problem]\nkind = fredholm\nkernel = {kernel}\ngrid_size = {m}\n"
        "[scheme]\nname = mann_implicit\n[schedule]\npreset = halpern-mix\n"
        "[solver]\nouter_tol = 1e-10\nmax_outer = 10000\n",
    )
    counters = _run_counters(
        setup.space, cfg.scheme, None, setup.T, cfg.schedule, setup.x1, cfg.solver
    )
    assert counters == FREDHOLM_GRID_COUNTERS[kernel, m]


# The same counters for the 20 seed-0 trial solves of the diagnostics
# workload: the monotone ball under new_implicit and its custom schedule,
# started from default_rng(0) after the draw of the 3 audit seeds.  Sums:
# 1645 steps, 4529 inner applications, 6194 T calls, no repeats, 1645 f calls.
DIAGNOSTICS_TRIAL_COUNTERS = [
    (83, 230, 3, 314, 0, 83), (82, 226, 3, 309, 0, 82), (83, 228, 3, 312, 0, 83),
    (84, 232, 3, 317, 0, 84), (83, 228, 3, 312, 0, 83), (80, 220, 3, 301, 0, 80),
    (83, 229, 3, 313, 0, 83), (80, 220, 3, 301, 0, 80), (84, 230, 3, 315, 0, 84),
    (81, 221, 3, 303, 0, 81), (82, 226, 3, 309, 0, 82), (82, 226, 3, 309, 0, 82),
    (82, 226, 3, 309, 0, 82), (80, 220, 3, 301, 0, 80), (82, 226, 3, 309, 0, 82),
    (83, 229, 3, 313, 0, 83), (83, 228, 3, 312, 0, 83), (83, 229, 3, 313, 0, 83),
    (82, 226, 3, 309, 0, 82), (83, 229, 3, 313, 0, 83),
]

DIAGNOSTICS_CONFIG = """[problem]
kind = monotone
gamma = 0.5
set = ball
radius = 2.0
[scheme]
name = new_implicit
[schedule]
kind = custom-rational
n0 = 2
alpha1 = 0, 1, 1
alpha2 = 0.6, 0, 1
alpha3 = 0.4, -1, 1
delta = 0.7, -0.2, 1
[contraction]
kind = linear
c = 0.25
[solver]
outer_tol = 1e-12
max_outer = 10000
[space]
kind = euclidean
dim = 3
"""


def test_diagnostics_trial_counters_are_pinned(tmp_path):
    cfg, setup = _built(tmp_path, DIAGNOSTICS_CONFIG)
    rng = np.random.default_rng(0)
    rng.integers(0, 2**31, 3)
    starts = rng.uniform(-1.5, 1.5, (len(DIAGNOSTICS_TRIAL_COUNTERS), 3))
    counters = [
        _run_counters(setup.space, cfg.scheme, setup.f, setup.T, cfg.schedule, x1, cfg.solver)
        for x1 in starts
    ]
    assert counters == DIAGNOSTICS_TRIAL_COUNTERS


@pytest.mark.parametrize("scheme", ["explicit", "new_implicit"])
@pytest.mark.parametrize(
    "value, shape",
    [(lambda x: np.array([x[0] / 2.0]), "(1,)"), (lambda x: x[0] / 2.0, "()")],
    ids=["shape-1", "scalar"],
)
def test_run_rejects_a_T_value_that_is_not_a_point(scheme, value, shape):
    # a (1,)-shaped T value would broadcast against the 2-D iterate
    T = NonexpansiveMap(value)
    with pytest.raises(InputError) as caught:
        run(euclidean(2), scheme, QUARTER, T, halpern_mix(), np.array([1.0, 2.0]), SolverConfig())
    assert str(caught.value) == f"T(x1) must have shape (2,), got {shape}"


@pytest.mark.parametrize("scheme", ["explicit", "new_implicit"])
@pytest.mark.parametrize(
    "value, shape",
    [(lambda x: np.array([x[0] / 4.0]), "(1,)"), (lambda x: x[0] / 4.0, "()")],
    ids=["shape-1", "scalar"],
)
def test_run_rejects_an_f_value_that_is_not_a_point(scheme, value, shape):
    # before the check both schemes converged with the broadcast map x -> (x0/4, x0/4)
    T = NonexpansiveMap(lambda x: 0.5 * x)
    f = GeneralizedContraction(value, linear_modulus(0.25))
    with pytest.raises(InputError) as caught:
        run(euclidean(2), scheme, f, T, halpern_mix(), np.array([1.0, 2.0]), SolverConfig())
    assert str(caught.value) == f"f(x1) must have shape (2,), got {shape}"


def test_run_rejects_a_T_value_that_is_not_a_number():
    T = NonexpansiveMap(lambda x: "x")
    with pytest.raises(InputError) as caught:
        run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, T, halpern_mix(), [1.0], SolverConfig())
    assert str(caught.value) == "T(x1) must be real numbers, got 'x'"


def test_inner_solve_rejects_an_f_value_that_is_not_a_point():
    f = GeneralizedContraction(lambda x: x[0] / 4.0, linear_modulus(0.25))
    with pytest.raises(InputError) as caught:
        inner_implicit_solve(
            euclidean(2), f, HALF, [1.0, 2.0], (0.25, 0.25, 0.5), 0.5, SolverConfig()
        )
    assert str(caught.value) == "f(x_n) must have shape (2,), got ()"


def test_inner_solve_rejects_a_T_value_that_is_not_a_point():
    # unchecked, the broadcast map x -> (x0/2, x0/2) gave [0.3929, 0.7054]
    T = NonexpansiveMap(lambda x: np.array([x[0] / 2.0]))
    with pytest.raises(InputError) as caught:
        inner_implicit_solve(
            euclidean(2), QUARTER, T, [1.0, 2.0], (0.25, 0.25, 0.5), 0.5, SolverConfig()
        )
    assert str(caught.value) == "a value of T must have shape (2,), got (1,)"


def test_solver_config_validation():
    # an infinite tolerance certifies nothing, and a float cap is not a number of steps
    cases = [
        ({"outer_tol": 0.0}, "outer_tol must be finite and positive, got 0.0"),
        ({"inner_tol": -1e-9}, "inner_tol must be finite and positive, got -1e-09"),
        ({"max_outer": 0}, "max_outer must be >= 1, got 0"),
        ({"outer_tol": math.inf}, "outer_tol must be finite and positive, got inf"),
        ({"inner_tol": math.inf}, "inner_tol must be finite and positive, got inf"),
        ({"inner_tol": math.nan}, "inner_tol must be finite and positive, got nan"),
        ({"max_outer": 1e5}, "max_outer must be an integer, got 100000.0"),
        # a tolerance that is not a number, and a truthy string that is not a flag
        ({"outer_tol": "1e-6"}, "outer_tol must be finite and positive, got '1e-6'"),
        ({"inner_tol": None}, "inner_tol must be finite and positive, got None"),
        ({"record_trace": "no"}, "record_trace must be a bool, got 'no'"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SolverConfig(**kwargs)
    assert SolverConfig(max_outer=np.int64(3)).max_outer == 3


@pytest.mark.parametrize(
    "field, message",
    [
        ("outer_tol", "outer_tol must be finite and positive, got True"),
        ("inner_tol", "inner_tol must be finite and positive, got True"),
        ("max_outer", "max_outer must be an integer, got True"),
    ],
)
def test_solver_config_refuses_a_bool_for_a_number(field, message):
    # bool is a numbers.Real and operator.index(True) is 1: unchecked, True
    # passed for a tolerance of 1.0 or a one-step budget
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        SolverConfig(**{field: True})


# contraction factor 0.99 * 0.99 = 0.9801 at every step
SLOW_INNER = custom_rational((0.005, 0, 0), (0.005, 0, 0), (0.99, 0, 0), (0.99, 0, 0))


def test_inner_solve_budget_is_the_certified_count():
    # -x is affine, so the mixed (secant) point of the third application is
    # its fixed point; plain Picard needed [1409, 1097, 786] applications here
    flip = NonexpansiveMap(lambda x: -x)
    cfg = SolverConfig(outer_tol=1e-6)
    report = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, flip, SLOW_INNER, np.array([1.0]), cfg)
    assert report.termination is Termination.CONVERGED
    assert report.n_final == 4
    assert [row.inner_iters for row in report.trace] == [3, 3, 3]
    # a map that expands still fails: its iterate overflows within the
    # budget (the norm of a finite gap is finite up to the largest float),
    # and the run ends at the start point with a message naming the outer step
    liar = NonexpansiveMap(lambda x: 3.0 * x)
    with np.errstate(over="ignore"):
        failed = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, liar, SLOW_INNER, np.array([1.0]), cfg)
    assert failed.termination is Termination.INNER_SOLVE_FAILED
    assert failed.message == (
        "inner solve gap is inf at application 659: T or the starting point is "
        "not finite (outer step n = 1)"
    )
    assert (failed.n_final, failed.final_point.tolist(), failed.final_residual) == (1, [1.0], 2.0)
    assert failed.trace == []


def test_a_failed_inner_solve_ends_the_run_with_its_partial_report():
    # 3x is not nonexpansive: the inner solve of the step at n = 3 runs past
    # its certified budget, and the report holds x_3 as the run capped
    # after two steps does, bit for bit, with the trace of those two steps
    liar = NonexpansiveMap(lambda x: 3.0 * x)
    states = []
    report = run(SP1, "new_implicit", QUARTER, liar, halpern_mix(), [1.0], SolverConfig(),
                 observer=states.append)
    assert report.termination is Termination.INNER_SOLVE_FAILED
    assert str(report.termination) == "inner_solve_failed"
    assert report.message == (
        "inner solve exceeded 22 applications (certified budget for factor 0.125); "
        "the operator does not contract as declared (outer step n = 3)"
    )
    assert report.n_final == 3 and [state.n for state in states] == [1, 2, 3]
    assert [row.inner_iters for row in report.trace] == [1, 18]
    capped = run(SP1, "new_implicit", QUARTER, liar, halpern_mix(), [1.0],
                 SolverConfig(max_outer=2))
    assert capped.termination is Termination.MAX_ITERS and capped.n_final == 3
    assert report.final_point.tobytes() == capped.final_point.tobytes()
    assert report.final_point[0] == pytest.approx(0.5381944, abs=1e-7)
    assert report.final_residual == capped.final_residual == 1.0763888888914153
    assert report.trace == capped.trace


def test_inner_solve_long_honest_solve_stays_within_its_budget():
    # |x - 1| - 1 is nonexpansive with slopes +1 and -1 and fixes 0.  From
    # x = 5 the secant point of the third application crosses the kink and
    # does not shrink the gap by the factor, so it is dropped and the solve
    # ends as plain Picard: more than 1000 applications under factor 0.9801,
    # one more than plain Picard's 1409 and inside the certified budget.
    # Later steps start on the -1 piece, where the secant point is exact.
    kinked = NonexpansiveMap(lambda x: np.abs(x - 1.0) - 1.0)
    cfg = SolverConfig(outer_tol=1e-6)
    report = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, kinked, SLOW_INNER, np.array([5.0]), cfg)
    assert report.termination is Termination.CONVERGED
    assert report.n_final == 4
    assert [row.inner_iters for row in report.trace] == [1410, 3, 3]


def test_inner_solve_budget_survives_a_tiny_tolerance():
    # inner_tol / (factor * gap) underflows to 0 here; the certified budget
    # must still be computed and the solve end as it does at a usual tolerance
    x = np.array([1e150])
    tiny, tiny_iters = inner_implicit_solve(
        SP1, None, HALF, x, (0.25, 0.25, 0.5), 0.5, SolverConfig(inner_tol=1e-300)
    )
    usual, usual_iters = inner_implicit_solve(
        SP1, None, HALF, x, (0.25, 0.25, 0.5), 0.5, SolverConfig(inner_tol=1e-12)
    )
    assert tiny_iters == usual_iters == 4
    assert tiny[0] == usual[0] == pytest.approx(5e150 / 7, rel=1e-15)


@pytest.mark.parametrize("a1", [0.0, 0.0005, 0.001])
def test_mixing_survives_a_gap_at_the_rounding_of_the_image(a1):
    # T rotates by 3 rad and projects onto the unit ball.  The solution is
    # far smaller than the terms of g = base + coef T(...), so near the end a
    # mixed point is within their rounding of the plain image, and it must
    # not trip the gate: plain Picard under factor 0.998 would then take
    # about 900 applications, as half of these solves did before.
    sp = euclidean(2)
    c, s = math.cos(3.0), math.sin(3.0)
    ball = Ball(np.zeros(2), 1.0)
    T = NonexpansiveMap(lambda x: ball.project(sp, np.array([c * x[0] - s * x[1],
                                                               s * x[0] + c * x[1]])))
    cfg = SolverConfig()
    for angle in np.linspace(0.0, 2.0 * math.pi, 13)[:-1]:
        x = np.array([math.cos(angle), math.sin(angle)])
        alphas = (a1, 1 - 0.999 - a1, 0.999)
        u, iters = inner_implicit_solve(sp, QUARTER, T, x, alphas, 0.999, cfg)
        assert iters <= 30, (angle, iters)
        fx = 0.25 * x
        w = alphas[0] * fx + alphas[1] * x + 0.999 * T.evaluator(0.001 * fx + 0.999 * u)
        assert norm(sp, w - u) <= 2 * cfg.inner_tol


def _unit_floats(lo=-1.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _honest_inner_problems(draw):
    """A weighted space, a map nonexpansive in its norm, and inner-solve inputs.

    The map composes one to three pieces: a linear contraction or isometry
    ``D^-1 A D`` with ``||A||_2 <= 1`` and ``D = diag(sqrt(weights))``, a box
    or ball projection, each followed by a translation.
    """
    dim = draw(st.integers(1, 4))
    vec = st.lists(_unit_floats(), min_size=dim, max_size=dim).map(np.array)
    weights = np.array(draw(st.lists(_unit_floats(0.1, 10.0), min_size=dim, max_size=dim)))
    sp = vx.SpaceDescriptor(weights)
    d = np.sqrt(weights)
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["contraction", "rotation", "box", "ball"]))
        shift = 3.0 * draw(vec)
        if kind in ("contraction", "rotation"):
            a = np.array([draw(vec) for _ in range(dim)]) + np.eye(dim)
            if kind == "rotation":
                a = np.linalg.qr(a)[0]
            else:
                a *= draw(_unit_floats(0.0, 1.0)) / max(np.linalg.norm(a, 2), 1e-300)
            pieces.append(lambda x, a=a, b=shift: (a @ (d * x)) / d + b)
        elif kind == "box":
            lo = 2.0 * draw(vec)
            hi = lo + 2.0 * np.abs(draw(vec))
            pieces.append(lambda x, box=Box(lo, hi), b=shift: box.project(sp, x) + b)
        else:
            ball = Ball(2.0 * draw(vec), draw(_unit_floats(0.1, 3.0)))
            pieces.append(lambda x, ball=ball, b=shift: ball.project(sp, x) + b)

    def t(x):
        for piece in pieces:
            x = piece(x)
        return x

    c = draw(_unit_floats(0.0, 0.9))
    f = draw(st.sampled_from([None, "affine"]))
    if f is not None:
        f_shift = draw(vec)
        f = GeneralizedContraction(lambda x: c * x + f_shift, linear_modulus(c))
    x = 5.0 * draw(vec)
    a1, a2, a3 = (draw(_unit_floats(0.01, 1.0)) for _ in range(3))
    total = a1 + a2 + a3
    alphas = (a1 / total, a2 / total, 1.0 - a1 / total - a2 / total)
    delta = draw(_unit_floats(0.05, 0.95))
    return sp, t, f, x, alphas, delta


@settings(max_examples=150, deadline=None)
@given(problem=_honest_inner_problems())
def test_mixed_inner_solve_keeps_the_certificate(problem):
    sp, t, f, x, (a1, a2, a3), delta = problem
    cfg = SolverConfig()
    u, iters = inner_implicit_solve(sp, f, NonexpansiveMap(t), x, (a1, a2, a3), delta, cfg)

    fx = x if f is None else f.evaluator(x)

    def w(v):
        return a1 * fx + a2 * x + a3 * t((1.0 - delta) * fx + delta * v)

    # the recomputed residual carries the rounding of evaluating w near u
    rounding = 8.0 * np.finfo(float).eps * norm(sp, u)
    assert norm(sp, w(u) - u) <= cfg.inner_tol * (1.0 + 1e-9) + rounding
    # Every kept application shrinks the gap by the factor and at most one
    # mixed point is dropped, so in exact arithmetic the count is within the
    # certified one + 1.  Rounding can hold plain Picard on an isometry a
    # step or two past the certified count, so plain Picard's own count
    # (from x_n, same stopping rule) also bounds it.  Mixing can lose to
    # plain Picard: a mixed point may step off a projection's face that
    # plain Picard lands on exactly.
    factor = a3 * delta
    v, plain = x, 0
    while True:
        plain += 1
        g = w(v)
        gap = norm(sp, g - v)
        if plain == 1:
            first_gap = gap
        if factor * gap <= cfg.inner_tol:
            break
        v = g
    certified = 1
    if factor * first_gap > cfg.inner_tol:
        certified = math.ceil(
            (math.log(cfg.inner_tol) - math.log(factor * first_gap)) / math.log(factor)
        ) + 1
    assert iters <= max(certified, plain) + 1


def test_vi_residual_values():
    sp = euclidean(2)
    const = GeneralizedContraction(lambda x: np.array([3.0, 4.0]), linear_modulus(0.0))
    # p on the line, direction p - f(p) orthogonal to the line: pairing 0
    p = np.array([3.0, 0.0])
    samples = [np.array([s, 0.0]) for s in np.linspace(-10, 10, 41)]
    assert vi_residual(sp, p, const, samples) == pytest.approx(0.0, abs=1e-12)
    # a limit pulled off the characterization goes negative
    q = np.array([2.0, 0.0])
    assert vi_residual(sp, q, const, samples) < -1.0
    with pytest.raises(InputError):
        vi_residual(sp, p, const, [])


@pytest.mark.parametrize("order", [1, -1], ids=["number-first", "nan-first"])
def test_vi_residual_is_nan_for_a_nan_pairing_in_any_sample_order(order):
    # min() skipped a NaN that came after a number: this order used to give -0.5
    sp = euclidean(2)
    half = GeneralizedContraction(lambda x: 0.5 * x, linear_modulus(0.5))
    samples = [[0.0, 0.0], [math.nan, 1.0]][::order]
    assert math.isnan(vi_residual(sp, [1.0, 0.5], half, samples))
    # a None coordinate is no NaN: it is refused, naming the sample
    samples = [[0.0, 0.0], [None, 1.0]][::order]
    with pytest.raises(InputError, match=r"^samples\[[01]\] must be real numbers, got None$"):
        vi_residual(sp, [1.0, 0.5], half, samples)


def test_compare_limits_guards():
    cfg = SolverConfig(outer_tol=1e-8, max_outer=50_000)
    a = run(SP1, SchemeKind.THREE_TERM, QUARTER, HALF, halpern_mix(), np.array([1.0]), cfg)
    b = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, halpern_mix(), np.array([1.0]), cfg)
    d = compare_limits(a, b)
    assert 0.0 <= d <= 1e-7
    short = run(
        SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, halpern_mix(), np.array([1.0]),
        SolverConfig(outer_tol=1e-13, max_outer=3),
    )
    with pytest.raises(NotConvergedError):
        compare_limits(a, short)
    other = run(
        euclidean(2), SchemeKind.NEW_IMPLICIT,
        GeneralizedContraction(lambda x: 0.25 * x, linear_modulus(0.25)),
        NonexpansiveMap(lambda x: 0.5 * x), halpern_mix(), np.zeros(2), SolverConfig(),
    )
    with pytest.raises(InputError):
        compare_limits(a, other)


def test_trace_csv_round_trip(tmp_path):
    cfg = SolverConfig(outer_tol=1e-6, max_outer=10_000)
    report = run(SP1, SchemeKind.THREE_TERM, QUARTER, HALF, eq75(), np.array([1.0]), cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(report.trace, path)
    text = path.read_text().splitlines()
    assert text[0] == "n,residual,step_norm,inner_iters,alpha1,alpha2,alpha3,delta"
    back = read_trace_csv(path)
    assert back == report.trace


# inf, nan, -0.0, the smallest subnormal and 0.1 in one hand-built trace
EDGE_TRACE = [
    TraceRow(1, math.inf, 0.1, 0, 0.25, 0.25, 0.5, 1.0 / 3.0),
    TraceRow(2, math.nan, -0.0, 7, 5e-324, 0.0, 1.0, 0.5),
    TraceRow(10**6, 1e-300, -math.inf, 1409, 0.1, 0.2, 0.7, 0.9999999999999999),
]


def test_trace_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "edge.csv"
    write_trace_csv(EDGE_TRACE, path)
    assert path.read_bytes() == (
        b"n,residual,step_norm,inner_iters,alpha1,alpha2,alpha3,delta\r\n"
        b"1,inf,0.10000000000000001,0,0.25,0.25,0.5,0.33333333333333331\r\n"
        b"2,nan,-0,7,4.9406564584124654e-324,0,1,0.5\r\n"
        b"1000000,1e-300,-inf,1409,0.10000000000000001,0.20000000000000001,"
        b"0.69999999999999996,0.99999999999999989\r\n"
    )


def test_trace_csv_round_trips_edge_values(tmp_path):
    path = tmp_path / "edge.csv"
    write_trace_csv(EDGE_TRACE, path)
    back = read_trace_csv(path)
    # compared as float.hex because nan != nan
    def hexed(rows):
        return [tuple(float(v).hex() for v in row) for row in rows]

    assert hexed(back) == hexed(EDGE_TRACE)
    assert all(type(row.n) is int and type(row.inner_iters) is int for row in back)


def test_read_trace_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(InputError):
        read_trace_csv(path)


@pytest.mark.parametrize(
    "row",
    ["1,0,0,0,0,1,0", "1,abc,0,0,0,1,0,0", "1.5,0,0,0,0,1,0,0"],
    ids=["short", "residual-not-a-number", "n-not-an-integer"],
)
def test_read_trace_rejects_malformed_row(tmp_path, row):
    path = tmp_path / "malformed.csv"
    path.write_text("n,residual,step_norm,inner_iters,alpha1,alpha2,alpha3,delta\n" + row + "\n")
    with pytest.raises(InputError) as caught:
        read_trace_csv(path)
    assert str(caught.value) == f"malformed trace row: {row.split(',')!r}"


def test_a_trace_is_a_read_only_sequence_of_trace_rows(tmp_path):
    cfg = SolverConfig(outer_tol=1e-12, max_outer=6)
    report = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, eq75(), np.array([1.0]), cfg)
    trace, rows = report.trace, list(report.trace)
    assert len(trace) == len(rows) == 6
    assert all(type(row) is TraceRow for row in trace)
    assert all(type(row.n) is int and type(row.inner_iters) is int for row in trace)
    assert all(type(value) is float for row in trace for value in row[1:3] + row[4:])
    assert [trace[i] for i in range(-6, 6)] == rows + rows
    assert trace[1:4] == rows[1:4] and trace[::-2] == rows[::-2]
    assert type(trace[1:4]) is list
    assert trace == rows and rows == trace and trace != rows[:-1] and trace != rows[::-1]
    again = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, eq75(), np.array([1.0]), cfg)
    assert again.trace == trace
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert read_trace_csv(path) == trace
    with pytest.raises(IndexError):
        trace[6]
    with pytest.raises(TypeError):
        trace + trace
    for mutate in ("append", "extend", "insert", "pop", "__setitem__", "__delitem__"):
        assert not hasattr(trace, mutate)


def test_a_trace_holds_under_100_bytes_per_row():
    # the rows are typed columns, 64 bytes each: as named tuples of boxed
    # floats they took about 300
    cfg = SolverConfig(outer_tol=1e-12, max_outer=10_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, eq75(), np.array([1.0]), cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.trace) == 10_000
    assert held / len(report.trace) < 100


def test_a_trace_writes_the_bytes_of_its_list(tmp_path):
    cfg = SolverConfig(outer_tol=1e-8, max_outer=500)
    report = run(SP1, SchemeKind.THREE_TERM, QUARTER, HALF, eq75(), np.array([1.0]), cfg)
    write_trace_csv(report.trace, tmp_path / "trace.csv")
    write_trace_csv(list(report.trace), tmp_path / "list.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def test_a_trace_index_past_int64_is_refused_in_run():
    # the step at n = 2**63 - 1 is recorded; the next one's index does not fit
    schedule = eq75(start_index=2**63 - 1)
    cfg = SolverConfig(outer_tol=1e-12, max_outer=2)
    message = f"trace n = {2**63} is outside the 64-bit integer range"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, schedule, np.array([1.0]), cfg)
    untraced = dataclasses.replace(cfg, record_trace=False)
    report = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, schedule, np.array([1.0]), untraced)
    assert report.n_final == 2**63 + 1
    one = dataclasses.replace(cfg, max_outer=1)
    report = run(SP1, SchemeKind.NEW_IMPLICIT, QUARTER, HALF, schedule, np.array([1.0]), one)
    assert [row.n for row in report.trace] == [2**63 - 1]


@pytest.mark.parametrize(
    "row, message",
    [
        (f"{2**63},0,0,0,0,1,0,0", f"trace n = {2**63} is outside the 64-bit integer range"),
        (f"{-(2**63) - 1},0,0,0,0,1,0,0",
         f"trace n = {-(2**63) - 1} is outside the 64-bit integer range"),
        (f"1,0,0,{2**63},0,1,0,0",
         f"trace inner_iters = {2**63} is outside the 64-bit integer range"),
    ],
    ids=["n-above", "n-below", "inner_iters-above"],
)
def test_a_trace_csv_integer_past_int64_is_refused(tmp_path, row, message):
    path = tmp_path / "wide.csv"
    path.write_text(
        "n,residual,step_norm,inner_iters,alpha1,alpha2,alpha3,delta\n"
        f"{2**63 - 1},0,0,{2**63 - 1},0,1,0,0\n" + row + "\n"
    )
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        read_trace_csv(path)


def test_summable_t_weight_schedule_stalls_off_the_fixed_set():
    # with alpha3 = 1/n^2 the operator influence is summable while the
    # viscosity pull is not, so on the plane-projection problem the
    # iterates head to f's constant value (3, 4), which is not fixed:
    # the run must report non-convergence rather than a limit
    sp = euclidean(2)
    line = AffineSpan(sp, base=np.zeros(2), directions=[[1.0, 0.0]])
    T = NonexpansiveMap(lambda x: line.project(sp, x))
    const = GeneralizedContraction(lambda x: np.array([3.0, 4.0]), linear_modulus(0.0))
    cfg = SolverConfig(outer_tol=1e-4, max_outer=3000)
    report = run(sp, SchemeKind.NEW_IMPLICIT, const, T, compare_t16(), np.array([0.0, 5.0]), cfg)
    assert report.termination is Termination.MAX_ITERS
    assert norm(sp, report.final_point - np.array([3.0, 4.0])) <= 0.5
    assert report.final_residual >= 3.0
