"""An executable specification: ``run`` against the seven schemes as README's table writes them.

The reference takes each update literally from the table and solves each
implicit step by plain Picard iteration from ``x_n``, with no mixing and no
reuse of ``T(x_n)``.  Each exact step map is nonexpansive when ``T`` is and
``f`` contracts (for ``three_term`` the constant is
``(a1 c + a2 + a3 d) / (1 - a3 (1 - d))``, for ``new_implicit``
``(a1 c + a2 + a3 (1 - d) c) / (1 - a3 d)``, both at most 1), so the
per-step errors of the two solvers add up: after ``k`` steps the iterates
lie within ``sum_j (eps_run + eps_ref) / (1 - q_j)`` of each other, plus
rounding, where ``q_j`` is step ``j``'s inner contraction factor.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscofix import (
    IDENTITY_SCHEMES,
    Ball,
    Box,
    GeneralizedContraction,
    NonexpansiveMap,
    SchemeKind,
    SolverConfig,
    Termination,
    compare_t16,
    eq75,
    euclidean,
    halpern_mix,
    linear_modulus,
    run,
    schedule_eval,
)

EPS_REF = 1e-13  # the reference's inner tolerance
INNER_TOL = SolverConfig().inner_tol
MAX_OUTER = 60
# Rounding allowed per step, in units of the float64 epsilon times the
# step's magnitude: the two solvers evaluate the same update in different
# orders and stop at different points of the same rounding floor.
ROUNDING_ULPS = 64
_EPS = float(np.finfo(np.float64).eps)


def _reference(scheme, f, T, schedule, x1, outer_tol):
    """The iterates, their residuals and each step's inner factor ``q``."""
    xs, residuals, factors, n = [x1], [], [], schedule.start_index
    while True:
        x = xs[-1]
        residuals.append(np.linalg.norm(x - T(x)))
        if residuals[-1] <= outer_tol or len(factors) == MAX_OUTER:
            return xs, residuals, factors
        a1, a2, a3, d = schedule_eval(schedule, n)
        a = a1 / (a1 + a3)  # the single weight, collapsed from the three-term schedule
        fx = x if f is None else f(x)
        if scheme is SchemeKind.EXPLICIT:
            step, q = (lambda u: a * fx + (1 - a) * T(x)), 0.0
        elif scheme in (SchemeKind.MIDPOINT, SchemeKind.MIDPOINT_MANN):
            step, q = (lambda u: a * fx + (1 - a) * T((x + u) / 2)), (1 - a) / 2
        elif scheme is SchemeKind.KEMA:
            step, q = (lambda u: a * fx + (1 - a) * T(d * x + (1 - d) * u)), (1 - a) * (1 - d)
        elif scheme is SchemeKind.THREE_TERM:
            step, q = (lambda u: a1 * fx + a2 * x + a3 * T(d * x + (1 - d) * u)), a3 * (1 - d)
        else:  # new_implicit, and mann_implicit with f the identity
            step, q = (lambda u: a1 * fx + a2 * x + a3 * T((1 - d) * fx + d * u)), a3 * d
        u = x
        for _ in range(10_000):
            g = step(u)
            if q * np.linalg.norm(g - u) <= EPS_REF:  # then |g - exact| <= EPS_REF / (1 - q)
                break
            u = g
        else:
            raise AssertionError(f"plain Picard did not reach {EPS_REF} at q = {q}")
        xs.append(g)
        factors.append(q)
        n += 1


def _orthogonal(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)))[0]


@st.composite
def _problems(draw):
    """An affine nonexpansive ``T``, maybe projected onto a ball or a box, a linear ``f``, ``x1``."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.0, 1.0))
    matrix, shift = scale * _orthogonal(rng, dim), rng.uniform(-2.0, 2.0, dim)
    project = draw(st.sampled_from(["none", "ball", "box"]))
    space = euclidean(dim)
    lower = rng.uniform(-3.0, 0.0, dim)
    cset = {
        "none": None,
        "ball": Ball(rng.uniform(-1.0, 1.0, dim), rng.uniform(0.5, 3.0)),
        "box": Box(lower, lower + rng.uniform(0.0, 3.0, dim)),
    }[project]

    def T(x):
        y = matrix @ x + shift
        return y if cset is None else cset.project(space, y)

    c = draw(st.floats(0.0, 0.9))
    f_matrix, f_shift = c * _orthogonal(rng, dim), rng.uniform(-1.0, 1.0, dim)
    f = GeneralizedContraction(lambda x: f_matrix @ x + f_shift, linear_modulus(c))
    return space, NonexpansiveMap(T), f, rng.uniform(-5.0, 5.0, dim)


@pytest.mark.parametrize("make_schedule", [eq75, halpern_mix, compare_t16])
@pytest.mark.parametrize("scheme", list(SchemeKind), ids=str)
@settings(max_examples=25, deadline=None)
@given(problem=_problems(), outer_tol=st.sampled_from([1e-1, 1e-3, 1e-6]))
def test_run_follows_the_reference_within_the_accumulated_inner_bound(
    scheme, make_schedule, problem, outer_tol
):
    space, T, f, x1 = problem
    f = None if scheme in IDENTITY_SCHEMES else f
    schedule = make_schedule()
    states = []
    report = run(
        space, scheme, f, T, schedule, x1,
        SolverConfig(outer_tol=outer_tol, max_outer=MAX_OUTER, inner_tol=INNER_TOL),
        observer=lambda state: states.append(state),
    )
    f_eval = None if f is None else f.evaluator
    xs, residuals, factors = _reference(scheme, f_eval, T.evaluator, schedule, x1, outer_tol)
    magnitude = 1.0 + max(np.linalg.norm(x, np.inf) for x in xs)
    bound, near_tol = 0.0, False
    for k, (state, x, residual) in enumerate(zip(states, xs, residuals)):
        assert state.n == schedule.start_index + k
        gap = np.linalg.norm(state.x - x)
        assert gap <= bound, f"step {k}: |run - reference| = {gap:.3g} > bound {bound:.3g}"
        # the residual is 2-Lipschitz in x, so within 2 * bound of the run's
        near_tol |= abs(residual - outer_tol) <= 2.0 * bound + ROUNDING_ULPS * _EPS * magnitude
        if k < len(factors):
            q = factors[k]
            bound += ((INNER_TOL + EPS_REF) + ROUNDING_ULPS * _EPS * magnitude) / (1.0 - q)
    if not near_tol:
        steps = len(factors)
        assert report.n_final == schedule.start_index + steps
        converged = residuals[-1] <= outer_tol
        assert report.termination is (Termination.CONVERGED if converged else Termination.MAX_ITERS)
        assert len(states) == steps + 1
    assert math.isfinite(bound)
