import dataclasses
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from viscofix import (
    AuditReport,
    Ball,
    Box,
    ConfigurationError,
    FredholmProblem,
    GeneralizedContraction,
    InputError,
    MonotoneOperatorSpec,
    NonexpansiveMap,
    Termination,
    WholeSpace,
    average_pseudocontraction,
    check_contraction,
    check_inverse_strongly_monotone,
    check_nonexpansive,
    euclidean,
    forward_projected,
    fredholm_grid,
    fredholm_operator,
    linear_modulus,
    norm,
    rational_modulus,
    run,
    trapezoid,
    trapezoid_nodes,
)
from viscofix.config import load_run_config
from viscofix.problems import build_problem


# ---------------------------------------------------------------- modulus


def test_modulus_validation():
    with pytest.raises(ConfigurationError):
        linear_modulus(1.0)
    with pytest.raises(ConfigurationError):
        linear_modulus(-0.1)
    with pytest.raises(ConfigurationError):
        rational_modulus(0.0)
    from viscofix.maps import ContractionModulus

    with pytest.raises(ConfigurationError):
        ContractionModulus(kind="cubic", coefficient=1.0)


def test_modulus_values_and_gauge():
    m = linear_modulus(0.25)
    assert m.value(0.0) == 0.0
    assert m.value(4.0) == 1.0
    assert m.gauge(4.0) == 3.0
    r = rational_modulus(2.0)
    assert r.value(0.0) == 0.0
    assert r.value(3.0) == pytest.approx(3.0 / 7.0)
    # strictly increasing with positive gauge on a grid
    ts = np.linspace(0.0, 10.0, 101)
    for mod in (m, r):
        vals = np.array([mod.value(t) for t in ts])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals[1:] < ts[1:])  # m(t) < t for t > 0
    with pytest.raises(InputError):
        m.value(-1.0)


def test_gauge_inverse_round_trip():
    for mod in (linear_modulus(0.25), rational_modulus(2.0)):
        for s in (0.0, 1e-6, 0.5, 3.0, 40.0):
            t = mod.gauge_inverse(s)
            assert mod.gauge(t) == pytest.approx(s, abs=1e-9)
    # linear closed form: gauge(t) = (1 - c) t
    assert linear_modulus(0.5).gauge_inverse(2.0) == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(InputError):
        linear_modulus(0.5).gauge_inverse(-1.0)


def test_gauge_inverse_is_closed_form():
    # no bisection bracket to outgrow
    assert linear_modulus(0.5).gauge_inverse(1e13) == 2e13
    # rational gauge beta t^2 / (1 + beta t): 2/3 at t = 1 for beta = 2
    r = rational_modulus(2.0)
    assert r.gauge_inverse(2.0 / 3.0) == pytest.approx(1.0, rel=1e-15)
    for s in (1e-9, 1.0, 1e13):
        assert r.gauge(r.gauge_inverse(s)) == pytest.approx(s, rel=1e-12)


# -------------------------------------------------------- property checks


def test_check_nonexpansive_identity():
    sp = euclidean(2)
    report = check_nonexpansive(sp, NonexpansiveMap(lambda x: x))
    assert report.passed
    assert report.worst == pytest.approx(1.0, abs=1e-12)


def test_check_nonexpansive_linear_ratios():
    sp = euclidean(1)
    half = check_nonexpansive(sp, NonexpansiveMap(lambda x: 0.5 * x))
    assert half.passed
    assert half.worst == pytest.approx(0.5, abs=1e-12)
    double = check_nonexpansive(sp, NonexpansiveMap(lambda x: 2.0 * x))
    assert not double.passed
    assert double.worst == pytest.approx(2.0, abs=1e-12)
    assert double.witness is not None


def test_check_nonexpansive_respects_domain():
    # x -> x^2 contracts on [0, 0.4] (slope <= 0.8) but not on the line
    sp = euclidean(1)
    square = lambda x: x * x
    bounded = NonexpansiveMap(square, domain=Box([0.0], [0.4]))
    assert check_nonexpansive(sp, bounded).passed
    assert not check_nonexpansive(sp, NonexpansiveMap(square)).passed


audit_cases = pytest.mark.parametrize(
    "check, target",
    [
        (check_nonexpansive, NonexpansiveMap(lambda x: x)),
        (check_contraction, GeneralizedContraction(lambda x: 0.25 * x, linear_modulus(0.25))),
        (check_inverse_strongly_monotone, MonotoneOperatorSpec(lambda x: x, 1.0)),
    ],
    ids=["nonexpansive", "contraction", "inverse_strongly_monotone"],
)


@audit_cases
def test_check_rejects_bad_samples(check, target):
    with pytest.raises(InputError):
        check(euclidean(1), target, n_samples=0)


@audit_cases
def test_check_reports_its_inputs(check, target):
    report = check(euclidean(1), target, n_samples=7, seed=3)
    assert type(report) is AuditReport
    assert (report.passed, report.n_samples, report.seed) == (True, 7, 3)
    assert report.witness is not None


def test_check_contraction_linear():
    sp = euclidean(1)
    quarter = lambda x: 0.25 * x
    good = check_contraction(sp, GeneralizedContraction(quarter, linear_modulus(0.25)))
    assert good.passed
    assert good.worst >= -1e-10
    bad = check_contraction(sp, GeneralizedContraction(quarter, linear_modulus(0.1)))
    assert not bad.passed
    assert bad.witness is not None


def test_check_contraction_rational():
    # oracle first: |f(x) - f(y)| <= |x - y| / (1 + |x - y|) on a dense grid,
    # for the even map f(x) = |x| / (1 + |x|)
    def even(x):
        return np.abs(x) / (1.0 + np.abs(x))

    grid = np.linspace(-20.0, 20.0, 401)
    fvals = even(grid)
    for i, x in enumerate(grid):
        d = np.abs(x - grid)
        mask = d > 0.0
        lhs = np.abs(fvals[i] - fvals)[mask]
        assert np.all(lhs <= d[mask] / (1.0 + d[mask]) + 1e-12)

    sp = euclidean(1)
    report = check_contraction(sp, GeneralizedContraction(even, rational_modulus(1.0)))
    assert report.passed


def test_check_contraction_damped_map_modulus():
    # the odd damped map x / (1 + |x|) shrinks antipodal pairs only to
    # d / (1 + d/2): it fails coefficient 1 and passes coefficient 1/2
    def damped(x):
        return x / (1.0 + np.abs(x))

    # oracle for the failure: x = 1, y = -1 gives |fx - fy| = 1 > m(2) = 2/3
    assert abs(damped(np.array([1.0]))[0] - damped(np.array([-1.0]))[0]) == 1.0
    assert rational_modulus(1.0).value(2.0) == pytest.approx(2.0 / 3.0)

    sp = euclidean(1)
    assert not check_contraction(sp, GeneralizedContraction(damped, rational_modulus(1.0))).passed
    assert check_contraction(sp, GeneralizedContraction(damped, rational_modulus(0.5))).passed


def test_rational_contraction_from_config(tmp_path):
    path = tmp_path / "rational.cfg"
    path.write_text(
        "[problem]\nkind = fredholm\nkernel = sine\ngrid_size = 16\n"
        "[contraction]\nkind = rational\nbeta = 2.0\n"
        "[scheme]\nname = new_implicit\n[schedule]\npreset = halpern-mix\n"
    )
    setup = build_problem(load_run_config(path))
    sp, f = setup.space, setup.f
    assert not np.all(sp.weights == 1.0)
    assert check_contraction(sp, f).passed
    rng = np.random.default_rng(3)
    for x in [setup.x1, np.zeros(sp.dim)] + list(rng.standard_normal((5, sp.dim)) * 3.0):
        assert f(x).tobytes() == (x / (1.0 + 2.0 * norm(sp, x))).tobytes()


def test_check_inverse_strongly_monotone():
    sp = euclidean(2)
    good = check_inverse_strongly_monotone(sp, MonotoneOperatorSpec(lambda x: x, 1.0))
    assert good.passed
    # identity satisfies <u - v, u - v> = ||u - v||^2, so alpha > 1 fails
    bad = check_inverse_strongly_monotone(sp, MonotoneOperatorSpec(lambda x: x, 1.5))
    assert not bad.passed
    with pytest.raises(ConfigurationError):
        MonotoneOperatorSpec(lambda x: x, 0.0)


def _per_pair_audit(space, n_samples, seed, score, worse, start, bound, domain=None):
    """The audits' reference: one pair at a time, scored with the point-wise API."""
    xs, ys = np.random.default_rng(seed).standard_normal((2, n_samples, space.dim)) * 3.0
    worst, witness = start, None
    for x, y in zip(xs, ys):
        if domain is not None:
            x, y = domain.project(space, x), domain.project(space, y)
        dist = norm(space, x - y)
        if dist == 0.0:
            continue
        value = score(x, y, dist)
        if worse(value, worst):
            worst, witness = value, (x, y)
    return not worse(worst, bound), worst, witness


def _reference_nonexpansive(space, T, n_samples, seed):
    return _per_pair_audit(
        space, n_samples, seed, lambda x, y, dist: norm(space, T(x) - T(y)) / dist,
        operator.gt, 0.0, 1.0 + 1e-10, T.domain,
    )


def _reference_contraction(space, f, n_samples, seed):
    return _per_pair_audit(
        space, n_samples, seed,
        lambda x, y, dist: f.modulus.value(dist) - norm(space, f(x) - f(y)),
        operator.lt, np.inf, -1e-10,
    )


def _reference_inverse_strongly_monotone(space, A, n_samples, seed):
    def slack(u, v, _dist):
        du = A(u) - A(v)
        return float(space.inner(du, u - v)) - A.ism_alpha * norm(space, du) ** 2

    return _per_pair_audit(space, n_samples, seed, slack, operator.lt, np.inf, -1e-10)


def _on_box(dim):
    box = Box(np.full(dim, -0.4), np.full(dim, 0.4))
    return NonexpansiveMap(lambda x: x * x, domain=box)


# name -> (audit, per-pair reference, target built for a dimension)
_BATCH_CASES = {
    "sine": (check_nonexpansive, _reference_nonexpansive, lambda dim: NonexpansiveMap(np.sin)),
    "double": (
        check_nonexpansive, _reference_nonexpansive,
        lambda dim: NonexpansiveMap(lambda x: 2.0 * x),
    ),
    "square-on-box": (check_nonexpansive, _reference_nonexpansive, _on_box),
    # image gaps whose sums of squares overflow, though their norms do not
    "huge-expansion": (
        check_nonexpansive, _reference_nonexpansive,
        lambda dim: NonexpansiveMap(lambda x: 1e200 * x),
    ),
    "identity": (
        check_nonexpansive, _reference_nonexpansive, lambda dim: NonexpansiveMap(lambda x: x)
    ),
    "linear-contraction": (
        check_contraction, _reference_contraction,
        lambda dim: GeneralizedContraction(lambda x: 0.25 * x, linear_modulus(0.25)),
    ),
    "loose-contraction": (
        check_contraction, _reference_contraction,
        lambda dim: GeneralizedContraction(lambda x: 0.3 * x, linear_modulus(0.25)),
    ),
    "rational-contraction": (
        check_contraction, _reference_contraction,
        lambda dim: GeneralizedContraction(lambda x: x / (1.0 + np.abs(x)), rational_modulus(0.5)),
    ),
    "identity-ism": (
        check_inverse_strongly_monotone, _reference_inverse_strongly_monotone,
        lambda dim: MonotoneOperatorSpec(lambda x: x, 1.0),
    ),
    "tanh-ism": (
        check_inverse_strongly_monotone, _reference_inverse_strongly_monotone,
        lambda dim: MonotoneOperatorSpec(lambda x: 0.5 * x + np.tanh(x), 0.6),
    ),
    "identity-ism-too-strong": (
        check_inverse_strongly_monotone, _reference_inverse_strongly_monotone,
        lambda dim: MonotoneOperatorSpec(lambda x: x, 1.5),
    ),
}


@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
@pytest.mark.parametrize(
    "space", [euclidean(1), euclidean(2), euclidean(3), trapezoid(16)],
    ids=["euclidean1", "euclidean2", "euclidean3", "trapezoid16"],
)
def test_batched_audit_matches_the_per_pair_loop(case, space):
    check, reference, make_target = _BATCH_CASES[case]
    target = make_target(space.dim)
    for seed in (0, 1, 2):
        report = check(space, target, n_samples=400, seed=seed)
        passed, worst, witness = reference(space, target, 400, seed)
        assert report.passed == passed
        # a batched row sum may differ from a per-row dot in the last bit
        assert abs(report.worst - worst) <= 4 * np.spacing(abs(worst))
        assert (report.witness is None) == (witness is None)
        if witness is not None:
            for got, want in zip(report.witness, witness):
                assert got.tobytes() == want.tobytes()


def _first_pair(space, seed, keep=lambda x, y: True):
    xs, ys = np.random.default_rng(seed).standard_normal((2, 1000, space.dim)) * 3.0
    return next((x, y) for x, y in zip(xs, ys) if keep(x, y))


@pytest.mark.parametrize(
    "check, target",
    [
        (check_nonexpansive, NonexpansiveMap(lambda x: x * np.nan)),
        (check_contraction, GeneralizedContraction(lambda x: x * np.nan, linear_modulus(0.25))),
        (check_inverse_strongly_monotone, MonotoneOperatorSpec(lambda x: x * np.nan, 1.0)),
    ],
    ids=["nonexpansive", "contraction", "inverse_strongly_monotone"],
)
def test_audit_fails_on_a_nan_score(check, target):
    # before, NaN scores never beat the running worst: the first audit
    # passed with worst 0.0 and no witness, the other two with worst inf
    sp = euclidean(2)
    report = check(sp, target, seed=4)
    assert not report.passed
    assert np.isnan(report.worst)
    for got, want in zip(report.witness, _first_pair(sp, 4)):
        assert np.array_equal(got, want)


def test_audit_witness_is_the_first_non_finite_pair():
    sp = euclidean(2)
    far = lambda x: x[0] > 4.0
    T = NonexpansiveMap(lambda x: np.full(2, np.nan) if far(x) else 0.5 * x)
    report = check_nonexpansive(sp, T, seed=5)
    assert not report.passed
    assert np.isnan(report.worst)
    for got, want in zip(report.witness, _first_pair(sp, 5, lambda x, y: far(x) or far(y))):
        assert np.array_equal(got, want)
    # an inf score fails too, and is reported as the worst
    inf_f = GeneralizedContraction(
        lambda x: np.array([np.inf, 0.0]) if far(x) else 0.25 * x, linear_modulus(0.25)
    )
    report = check_contraction(sp, inf_f, seed=5)
    assert not report.passed
    assert report.worst == -np.inf
    # a square past the largest float is inf, not an OverflowError
    huge = MonotoneOperatorSpec(lambda x: 1e160 * x, 1.0)
    report = check_inverse_strongly_monotone(sp, huge, seed=5)
    assert (report.passed, report.worst) == (False, -np.inf)


_BAD_VALUES = {
    "shape-1": lambda x: x[:1],
    "scalar": lambda x: float(x[0]),
    "ragged": lambda x: x if x[0] < 0.0 else x[:1],
    "text": lambda x: "x",
}


@pytest.mark.parametrize("value", sorted(_BAD_VALUES))
@pytest.mark.parametrize(
    "check, wrap, name",
    [
        (check_nonexpansive, NonexpansiveMap, "T(x)"),
        (check_contraction, lambda ev: GeneralizedContraction(ev, linear_modulus(0.5)), "f(x)"),
        (check_inverse_strongly_monotone, lambda ev: MonotoneOperatorSpec(ev, 1.0), "A(x)"),
    ],
    ids=["nonexpansive", "contraction", "inverse_strongly_monotone"],
)
def test_audit_rejects_a_value_that_is_not_a_point(check, wrap, name, value):
    with pytest.raises(InputError) as caught:
        check(euclidean(2), wrap(_BAD_VALUES[value]), n_samples=50)
    assert str(caught.value).startswith(f"{name} is not a point of the space: ")


def test_audit_never_calls_the_map_on_a_zero_distance_pair():
    # on the box {0}^2 every pair coincides after projection
    calls = []
    T = NonexpansiveMap(lambda x: calls.append(x) or x, domain=Box([0.0, 0.0], [0.0, 0.0]))
    report = check_nonexpansive(euclidean(2), T, n_samples=20)
    assert (report.passed, report.worst, report.witness, calls) == (True, 0.0, None, [])


def test_modulus_value_is_elementwise_on_arrays():
    ts = np.array([0.0, 0.5, 3.0, 1e6])
    for mod in (linear_modulus(0.25), rational_modulus(2.0)):
        assert mod.value(ts).tolist() == [mod.value(float(t)) for t in ts]
        with pytest.raises(InputError):
            mod.value(np.array([1.0, -1e-300]))


# ------------------------------------------------- averaged pseudocontraction


def test_average_pseudocontraction_algebra():
    # S(x) = -x/3 averaged with theta = 1/2 gives x/3
    T = average_pseudocontraction(lambda x: -x / 3.0, lam=0.5, theta=0.5)
    xs = np.linspace(-5.0, 5.0, 21).reshape(-1, 1)
    for x in xs:
        assert T(x) == pytest.approx(x / 3.0, abs=1e-15)


def test_flip_map_strictness_constant():
    # oracle: S(x) = -k x satisfies
    #   ||Sx - Sy||^2 <= ||x - y||^2 - lam ||(I-S)x - (I-S)y||^2
    # with lam = (1 - k)/(1 + k), tight for every pair
    sp = euclidean(1)
    rng = np.random.default_rng(3)
    for k in (1.0 / 3.0, 0.7):
        lam = (1.0 - k) / (1.0 + k)
        S = lambda x, _k=k: -_k * x
        for _ in range(1000):
            x = rng.standard_normal(1) * 4.0
            y = rng.standard_normal(1) * 4.0
            d2 = norm(sp, x - y) ** 2
            s2 = norm(sp, S(x) - S(y)) ** 2
            r2 = norm(sp, (x - S(x)) - (y - S(y))) ** 2
            assert s2 <= d2 - lam * r2 + 1e-10


def test_average_pseudocontraction_is_nonexpansive():
    sp = euclidean(1)
    T = average_pseudocontraction(lambda x: -x / 3.0, lam=0.5, theta=0.5)
    report = check_nonexpansive(sp, T)
    assert report.passed
    assert report.worst <= 1.0 + 1e-9


def test_average_pseudocontraction_theta_range():
    S = lambda x: -x / 3.0
    average_pseudocontraction(S, lam=0.5, theta=0.5)  # boundary accepted
    with pytest.raises(ConfigurationError) as err:
        average_pseudocontraction(S, lam=0.5, theta=0.6)
    assert "(0, 0.5]" in str(err.value)
    with pytest.raises(ConfigurationError):
        average_pseudocontraction(S, lam=0.5, theta=0.0)
    with pytest.raises(ConfigurationError):
        average_pseudocontraction(S, lam=1.0, theta=0.5)  # lam must be < 1
    # smoothness constant rescales the admissible interval
    with pytest.raises(ConfigurationError) as err2:
        average_pseudocontraction(S, lam=0.5, theta=0.2, smooth_L=2.0)
    assert "(0, 0.125]" in str(err2.value)


def test_average_pseudocontraction_weight_stops_at_one():
    # S(x) = -x/3 meets lam = 0.5 with equality; with smooth_L = 0.5, lam / L^2 = 2,
    # and theta = 2 would build T(x) = 7x/3, which expands
    S = lambda x: -x / 3.0
    with pytest.raises(ConfigurationError) as err:
        average_pseudocontraction(S, lam=0.5, theta=2.0, smooth_L=0.5)
    assert "averaging weight must lie in (0, 1], got 2.0" in str(err.value)
    T = average_pseudocontraction(S, lam=0.5, theta=1.0, smooth_L=0.5)  # the identity
    assert check_nonexpansive(euclidean(1), T).passed


# --------------------------------------------------------- forward projected


def test_forward_projected_examples():
    sp = euclidean(2)
    ident = MonotoneOperatorSpec(lambda x: x, 1.0)
    T1 = forward_projected(sp, WholeSpace(), ident, gamma=1.0)
    x = np.array([3.0, -4.0])
    assert np.allclose(T1(x), [0.0, 0.0])
    T2 = forward_projected(sp, WholeSpace(), ident, gamma=2.0)
    assert np.allclose(T2(x), -x)
    report = check_nonexpansive(sp, T2)
    assert report.passed
    assert report.worst == pytest.approx(1.0, abs=1e-12)


def test_forward_projected_gamma_range():
    sp = euclidean(2)
    ident = MonotoneOperatorSpec(lambda x: x, 1.0)
    with pytest.raises(ConfigurationError) as err:
        forward_projected(sp, WholeSpace(), ident, gamma=3.0)
    assert "(0, 2]" in str(err.value)
    with pytest.raises(ConfigurationError):
        forward_projected(sp, WholeSpace(), ident, gamma=0.0)


def test_forward_projected_rejects_a_constraint_that_is_not_a_convex_set():
    # checked when the map is built, with the text the audit of a map on such a domain gives
    sp = euclidean(2)
    ident = MonotoneOperatorSpec(lambda x: x, 1.0)
    with pytest.raises(ConfigurationError) as built:
        forward_projected(sp, "ball", ident, gamma=0.5)
    with pytest.raises(ConfigurationError) as audited:
        check_nonexpansive(sp, NonexpansiveMap(lambda x: x, domain="ball"), n_samples=4)
    assert str(built.value) == str(audited.value) == "unsupported set kind: str"


def test_forward_projected_ball_fixed_point():
    sp = euclidean(2)
    ident = MonotoneOperatorSpec(lambda x: x, 1.0)
    T = forward_projected(sp, Ball(np.zeros(2), 2.0), ident, gamma=0.5)
    assert np.allclose(T(np.zeros(2)), np.zeros(2))
    x = np.array([5.0, 1.0])
    for _ in range(60):
        x = T(x)
    assert norm(sp, x) <= 1e-12


# ----------------------------------------------------------------- fredholm


def _separable(t, s, x):
    return (t * s / 2.0) * x


def test_fredholm_validation():
    with pytest.raises(ConfigurationError):
        FredholmProblem(g=lambda t: t, kernel=_separable, lipschitz_bound=1.5, grid_size=8)
    with pytest.raises(ConfigurationError):
        FredholmProblem(g=lambda t: t, kernel=_separable, lipschitz_bound=0.5, grid_size=1)


def test_fredholm_zero_kernel_is_constant_g():
    problem = FredholmProblem(
        g=lambda t: np.cos(t),
        kernel=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        lipschitz_bound=0.0,
        grid_size=6,
    )
    space, nodes = fredholm_grid(problem)
    T = fredholm_operator(problem)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(space.dim)
        assert np.allclose(T(x), np.cos(nodes), atol=1e-15)


@pytest.mark.parametrize("linear", [False, True])
def test_fredholm_matches_dense_matrix(linear):
    m = 16
    problem = FredholmProblem(
        g=lambda t: t, kernel=_separable, lipschitz_bound=0.5, grid_size=m, linear=linear
    )
    space, nodes = fredholm_grid(problem)
    T = fredholm_operator(problem)
    # independent dense quadrature matrix K[i, j] = w_j * t_i t_j / 2
    K = space.weights[None, :] * (nodes[:, None] * nodes[None, :]) / 2.0
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.standard_normal(space.dim) * 2.0
        assert np.max(np.abs(T(x) - (nodes + K @ x))) <= 1e-14


@pytest.mark.parametrize("linear", [False, True])
def test_fredholm_broadcasts_a_constant_source(linear):
    # g(t) = 2 gives one value for the whole grid; the operator spreads it over the nodes
    problem = FredholmProblem(
        g=lambda t: 2.0, kernel=_separable, lipschitz_bound=0.5, grid_size=8, linear=linear
    )
    space, nodes = fredholm_grid(problem)
    K = space.weights[None, :] * (nodes[:, None] * nodes[None, :]) / 2.0
    x = np.linspace(-1.0, 1.0, space.dim)
    assert np.max(np.abs(fredholm_operator(problem)(x) - (2.0 + K @ x))) <= 1e-14


def test_fredholm_linear_matrix_is_built_once_on_first_call():
    calls = []

    def counted(t, s, x):
        calls.append(np.broadcast(t, s, x).shape)
        return _separable(t, s, x)

    problem = FredholmProblem(
        g=lambda t: t, kernel=counted, lipschitz_bound=0.5, grid_size=8, linear=True
    )
    T = fredholm_operator(problem)
    assert (9, 9) not in calls  # the spot check samples, it builds no table
    x = np.linspace(-1.0, 1.0, 9)
    first = T(x)
    assert calls.count((9, 9)) == 1
    assert np.array_equal(T(x), first)
    assert calls.count((9, 9)) == 1


def test_fredholm_false_linear_declaration_raises():
    from viscofix.problems import sine_kernel

    problem = FredholmProblem(
        g=lambda t: t, kernel=sine_kernel, lipschitz_bound=0.5, grid_size=8, linear=True
    )
    with pytest.raises(ConfigurationError, match="declared linear"):
        fredholm_operator(problem)


def _gaussian(t, s, x):
    return (np.exp(-((t - s) ** 2)) / 2.0) * x


@settings(max_examples=60, deadline=None)
@given(
    kernel=st.sampled_from([_separable, _gaussian]),
    x=st.integers(2, 64).flatmap(
        lambda m: hnp.arrays(
            np.float64, m + 1, elements=st.floats(allow_nan=False, allow_infinity=False)
        )
    ),
)
def test_fredholm_linear_path_agrees_with_general_path(kernel, x):
    # The matrix-vector product reorders the quadrature sum, so the two
    # paths agree to rounding, not bitwise.
    m = x.size - 1
    general, fast = (
        fredholm_operator(
            FredholmProblem(g=np.cos, kernel=kernel, lipschitz_bound=0.5, grid_size=m, linear=lin)
        )
        for lin in (False, True)
    )
    gap = np.max(np.abs(fast(x) - general(x)))
    assert gap <= 1e-13 * (1.0 + np.max(np.abs(x)))


def test_fredholm_builtin_linear_solve_matches_general_path(tmp_path):
    from viscofix.problems import separable_linear_kernel

    path = tmp_path / "separable.cfg"
    path.write_text(
        "[problem]\nkind = fredholm\nkernel = separable-linear\ngrid_size = 64\n"
        "[scheme]\nname = mann_implicit\n[schedule]\npreset = halpern-mix\n"
        "[solver]\nouter_tol = 1e-10\nmax_outer = 10000\n"
    )
    cfg = load_run_config(path)
    setup = build_problem(cfg)
    general = fredholm_operator(
        FredholmProblem(
            g=lambda t: t, kernel=separable_linear_kernel, lipschitz_bound=0.5, grid_size=64
        )
    )
    solver = dataclasses.replace(cfg.solver, record_trace=True)
    reports = [
        run(setup.space, cfg.scheme, None, T, cfg.schedule, setup.x1, solver)
        for T in (setup.T, general)
    ]
    assert reports[0].termination is reports[1].termination is Termination.CONVERGED
    assert reports[0].n_final == reports[1].n_final
    assert len(reports[0].trace) > 10
    assert [r.inner_iters for r in reports[0].trace] == [r.inner_iters for r in reports[1].trace]
    assert np.max(np.abs(reports[0].final_point - reports[1].final_point)) <= 1e-14


def _min_kernel(t, s, x):
    return (np.minimum(t, s) / 2.0) * x


def _distance_kernel(t, s, x):
    return (np.abs(t - s) / 2.0) * x


def _linear_problem(kernel, m):
    """A declared-linear problem with ``g = cos``, its source values and its weighted table."""
    problem = FredholmProblem(
        g=np.cos, kernel=kernel, lipschitz_bound=0.5, grid_size=m, linear=True
    )
    space, nodes = fredholm_grid(problem)
    table = np.ascontiguousarray(kernel(nodes[:, None], nodes[None, :], space.weights[None, :]))
    return problem, np.cos(nodes), table


@pytest.mark.parametrize("scale", [1.0, 1.7e308])
@pytest.mark.parametrize("kernel", [_separable, _gaussian])
def test_fredholm_low_rank_table_agrees_with_the_dense_product(kernel, scale):
    # At m = 256 a degenerate (rank-1) or smooth kernel is applied through
    # factors; they agree with the dense product within its own forward-error
    # bound, and near the largest float they stay finite as it does.
    problem, gvals, table = _linear_problem(kernel, 256)
    T = fredholm_operator(problem)
    n = gvals.size
    bound = n * np.finfo(np.float64).eps * np.max(np.abs(table).sum(axis=1))
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, n) * scale
        assert np.max(np.abs(T(x) - (gvals + table @ x))) <= bound * np.max(np.abs(x))


@pytest.mark.parametrize(
    "kernel, m", [(_min_kernel, 256), (_distance_kernel, 256), (_separable, 64)]
)
def test_fredholm_table_kept_dense_is_applied_bit_for_bit(kernel, m):
    # a full-rank table, or one too small for factors to pay, keeps the dense product
    problem, gvals, table = _linear_problem(kernel, m)
    T = fredholm_operator(problem)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal(gvals.size)
        assert np.array_equal(T(x), gvals + table @ x)


@pytest.mark.parametrize("kernel", [_separable, _gaussian, _min_kernel])
def test_fredholm_operators_built_from_one_problem_agree_bitwise(kernel):
    problem, gvals, _ = _linear_problem(kernel, 256)
    first, second = fredholm_operator(problem), fredholm_operator(problem)
    x = np.random.default_rng(5).standard_normal(gvals.size)
    assert np.array_equal(first(x), second(x))


@pytest.mark.parametrize(
    "kernel, factored", [(_separable, True), (_gaussian, True), (_min_kernel, False)]
)
def test_fredholm_low_rank_operator_drops_the_dense_table(kernel, factored):
    problem, gvals, table = _linear_problem(kernel, 256)
    T = fredholm_operator(problem)
    x = np.linspace(-1.0, 1.0, gvals.size)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = T(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert value.shape == x.shape
    if factored:
        assert held < table.nbytes / 8  # O(m r) factors, r = 1 and 10 here
    else:
        assert held >= table.nbytes


def test_fredholm_grid_matches_space():
    problem = FredholmProblem(
        g=lambda t: t, kernel=_separable, lipschitz_bound=0.5, grid_size=10
    )
    space, nodes = fredholm_grid(problem)
    assert space.dim == 11
    assert np.array_equal(nodes, trapezoid_nodes(10))
    assert np.array_equal(space.weights, trapezoid(10).weights)


def test_fredholm_builtin_kernels_nonexpansive():
    from viscofix.problems import sine_kernel

    for kernel in (_separable, sine_kernel):
        problem = FredholmProblem(
            g=lambda t: t, kernel=kernel, lipschitz_bound=0.5, grid_size=32
        )
        space, _ = fredholm_grid(problem)
        report = check_nonexpansive(space, fredholm_operator(problem))
        assert report.passed
        assert report.worst <= 1.0 + 1e-9


def test_fredholm_lipschitz_spot_check_warns():
    problem = FredholmProblem(
        g=lambda t: t,
        kernel=lambda t, s, x: 2.0 * x,  # true slope 2
        lipschitz_bound=0.9,
        grid_size=8,
    )
    with pytest.warns(UserWarning, match="Lipschitz"):
        fredholm_operator(problem)
