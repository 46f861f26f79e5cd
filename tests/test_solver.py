import math
import warnings

import numpy as np
import pytest

import viscofix as vx
from viscofix import (
    AffineSpan,
    ConfigurationError,
    GeneralizedContraction,
    InnerSolveError,
    InputError,
    IterationState,
    NonexpansiveMap,
    NotConvergedError,
    SchemeKind,
    SolverConfig,
    Termination,
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
    step,
    vi_residual,
    write_trace_csv,
)

SP1 = euclidean(1)
HALF = NonexpansiveMap(lambda x: 0.5 * x, label="x/2")
QUARTER = GeneralizedContraction(lambda x: 0.25 * x, linear_modulus(0.25), label="x/4")

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
    liar = NonexpansiveMap(lambda x: 3.0 * x, label="3x declared nonexpansive")
    with pytest.raises(InnerSolveError):
        inner_implicit_solve(
            SP1, QUARTER, liar, np.array([1.0]), (0.05, 0.05, 0.9), 0.9, SolverConfig()
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inner_solve_fails_fast_on_non_finite_map(bad):
    calls = []

    def broken(x):
        calls.append(x)
        return np.full_like(x, bad)

    T = NonexpansiveMap(broken, label="non-finite")
    with pytest.raises(InnerSolveError, match="at application 1"):
        inner_implicit_solve(
            SP1, QUARTER, T, np.array([1.0]), (0.25, 0.25, 0.5), 0.5, SolverConfig()
        )
    assert len(calls) == 1


def _state(x=1.0, n=2):
    return IterationState(n=n, x=np.array([float(x)]), last_inner_iters=0, residual=0.5)


def _step_value(scheme, schedule=FLAT_EQ75_2, n=2):
    cfg = SolverConfig(inner_tol=1e-14)
    new = step(SP1, scheme, _state(n=n), QUARTER, HALF, schedule, cfg)
    assert new.n == n + 1
    return new.x[0]


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
    with pytest.raises(vx.solver.ScheduleRangeError):
        step(SP1, SchemeKind.EXPLICIT, _state(n=2), QUARTER, HALF, s, SolverConfig())


def test_identity_presets_refuse_viscosity_term():
    with pytest.raises(ConfigurationError, match="f=None"):
        step(SP1, SchemeKind.MANN_IMPLICIT, _state(), QUARTER, HALF, FLAT_EQ75_2, SolverConfig())
    with pytest.raises(ConfigurationError):
        step(SP1, SchemeKind.NEW_IMPLICIT, _state(), None, HALF, FLAT_EQ75_2, SolverConfig())


def test_mann_is_new_implicit_with_identity():
    cfg = SolverConfig(inner_tol=1e-14)
    ident = GeneralizedContraction(lambda x: x, linear_modulus(0.0), label="")
    # the modulus is irrelevant to stepping; only the evaluator is used
    object.__setattr__(ident, "evaluator", lambda x: x)
    a = step(SP1, SchemeKind.MANN_IMPLICIT, _state(), None, HALF, FLAT_EQ75_2, cfg)
    b = step(SP1, SchemeKind.NEW_IMPLICIT, _state(), ident, HALF, FLAT_EQ75_2, cfg)
    assert a.x[0] == b.x[0]


def test_midpoint_mann_hardwires_half():
    # x' = a x + (1 - a) T((x + x')/2) with a = 1/3: x' = 1/3 + (1 + x')/6
    cfg = SolverConfig(inner_tol=1e-14)
    new = step(SP1, SchemeKind.MIDPOINT_MANN, _state(), None, HALF, FLAT_EQ75_2, cfg)
    assert new.x[0] == pytest.approx(0.6, abs=1e-12)


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
    sp, T, const = _plane()
    f = None if scheme in vx.solver.IDENTITY_SCHEMES else const
    cfg = SolverConfig(outer_tol=1e-2, max_outer=2000)
    seen = []
    report = run(sp, scheme, f, T, halpern_mix(), np.array([0.0, 5.0]), cfg, observer=seen.append)
    assert report.termination is Termination.CONVERGED
    assert len(report.trace) == len(seen) - 1 >= 1
    state = seen[0]
    for expected, row in zip(seen[1:], report.trace):
        state = step(sp, scheme, state, f, T, halpern_mix(), cfg)
        assert state.n == expected.n
        assert state.x.tobytes() == expected.x.tobytes()
        assert state.residual == row.residual
        assert state.last_inner_iters == row.inner_iters
    assert state.x.tobytes() == report.final_point.tobytes()


def test_inner_solve_is_the_new_implicit_step_bitwise():
    sp, T, const = _plane()
    cfg = SolverConfig()
    x = np.array([0.7, -2.5])
    for n in (1, 2, 10, 1000):
        a1, a2, a3, d = schedule_eval(halpern_mix(), n)
        u, iters = inner_implicit_solve(sp, const, T, x, (a1, a2, a3), d, cfg)
        state = IterationState(n=n, x=x, last_inner_iters=0, residual=1.0)
        new = step(sp, SchemeKind.NEW_IMPLICIT, state, const, T, halpern_mix(), cfg)
        assert u.tobytes() == new.x.tobytes()
        assert iters == new.last_inner_iters


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(outer_tol=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(inner_tol=-1e-9)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_outer=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_inner=0)


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


def test_read_trace_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(InputError):
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
