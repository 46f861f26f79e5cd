import dataclasses
import math
import operator
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from viscofix import maps, problems
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
from viscofix.problems import build_problem, sine_kernel, zero_kernel
from viscofix.space import convex_set


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


@pytest.mark.parametrize("seed", range(5))
def test_ism_audit_of_the_identity_has_no_slack(seed):
    # both sides of <u - v, u - v> >= ||u - v||^2 are the one pairing of the
    # same gaps, so every slack is 0.0 exactly and the first pair is the witness
    sp = euclidean(3)
    report = check_inverse_strongly_monotone(
        sp, MonotoneOperatorSpec(lambda x: x, 1.0), n_samples=10_000, seed=seed
    )
    assert (report.passed, report.worst) == (True, 0.0)
    xs, ys = _audit_points(sp, 10_000, seed)
    assert report.witness[0].tobytes() == xs[0].tobytes()
    assert report.witness[1].tobytes() == ys[0].tobytes()


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
        return float(space.inner(du, u - v)) - A.ism_alpha * float(space.inner(du, du))

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


# name -> (a map value that is not a point of euclidean(2), the end of its message)
_BAD_VALUES = {
    "shape-1": (lambda x: x[:1], "must have shape (2,), got (1,)"),
    "scalar": (lambda x: float(x[0]), "must have shape (2,), got ()"),
    "ragged": (lambda x: x if x[0] < 0.0 else x[:1], "must have shape (2,), got (1,)"),
    "text": (lambda x: "x", "must be real numbers, got 'x'"),
    "bool": (lambda x: x > 0.0, "must be real numbers, got "),
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
    evaluator, message = _BAD_VALUES[value]
    with pytest.raises(InputError) as caught:
        check(euclidean(2), wrap(evaluator), n_samples=50)
    assert str(caught.value).startswith(f"{name} {message}")


def test_images_of_values_not_all_float64_points_take_each_value_by_the_point_rule():
    # float64 rows are stacked at once; float32 rows, lists and a mix go value by value
    sp = euclidean(3)
    points = np.random.default_rng(0).standard_normal((7, 3))
    for evaluator in (
        lambda x: x,
        lambda x: 2.0 * x,
        lambda x: x.astype(np.float32),
        lambda x: x.tolist(),
        lambda x: x if x[0] > 0.0 else x.astype(np.float32),
    ):
        got = maps._images(sp, evaluator, points, "T(x)")
        want = np.array([sp.point(evaluator(x), "T(x)") for x in points])
        assert (got.dtype, got.shape) == (np.float64, (7, 3))
        assert got.tobytes() == want.tobytes()


def test_audit_never_calls_the_map_on_a_zero_distance_pair():
    # on the box {0}^2 every pair coincides after projection
    calls = []
    T = NonexpansiveMap(lambda x: calls.append(x) or x, domain=Box([0.0, 0.0], [0.0, 0.0]))
    report = check_nonexpansive(euclidean(2), T, n_samples=20)
    assert (report.passed, report.worst, report.witness, calls) == (True, 0.0, None, [])


def _single_pass_audit(space, n_samples, seed, fn, name, score, worse, start, bound, domain=None):
    """The audits' single-pass reference: every pair drawn, projected and scored at once."""
    xs, ys = np.random.default_rng(seed).standard_normal((2, n_samples, space.dim)) * 3.0
    if domain is not None:
        project_rows = convex_set(domain)._project_rows
        xs, ys = project_rows(space, xs), project_rows(space, ys)
    diffs = xs - ys
    dists = space.row_norms(diffs)
    apart = dists != 0.0
    xs, ys, diffs, dists = xs[apart], ys[apart], diffs[apart], dists[apart]
    worst, witness, broken = start, None, False
    if dists.size:
        fx, fy = maps._images(space, fn, xs, name), maps._images(space, fn, ys, name)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = score(fx - fy, diffs, dists)
        nonfinite = ~np.isfinite(scores)
        broken = bool(nonfinite.any())
        if broken:
            i = int(np.argmax(nonfinite))
        else:
            i = int(np.argmax(scores) if worse is operator.gt else np.argmin(scores))
        if broken or worse(scores[i], start):
            worst, witness = scores[i], (xs[i].copy(), ys[i].copy())
    return AuditReport(not broken and not worse(worst, bound), float(worst), witness, n_samples,
                       seed)


def _assert_single_pass_report(monkeypatch, check, space, target, n_samples, seed):
    """``check``'s report, asserted equal to that of :func:`_single_pass_audit`."""
    got = check(space, target, n_samples=n_samples, seed=seed)
    with monkeypatch.context() as patched:
        patched.setattr(maps, "_audit", _single_pass_audit)
        want = check(space, target, n_samples=n_samples, seed=seed)
    assert (got.passed, got.n_samples, got.seed) == (want.passed, want.n_samples, want.seed)
    assert struct.pack("<d", got.worst) == struct.pack("<d", want.worst)
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        for got_point, want_point in zip(got.witness, want.witness):
            assert got_point.tobytes() == want_point.tobytes()
    return got


def _chunk(space):
    """Pairs per audit chunk in ``space``."""
    return max(1, maps._AUDIT_VALUES // space.dim)


def _audit_points(space, n_samples, seed):
    return np.random.default_rng(seed).standard_normal((2, n_samples, space.dim)) * 3.0


_SIN_TARGETS = [
    (check_nonexpansive, NonexpansiveMap(np.sin)),
    (check_contraction, GeneralizedContraction(lambda x: 0.25 * np.sin(x), linear_modulus(0.25))),
    (check_inverse_strongly_monotone, MonotoneOperatorSpec(lambda x: x + np.sin(x), 0.25)),
]


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("check, target", _SIN_TARGETS, ids=["T", "f", "A"])
def test_audit_in_chunks_is_the_single_pass_report_around_a_chunk(monkeypatch, check, target,
                                                                   offset):
    sp = euclidean(2)
    _assert_single_pass_report(monkeypatch, check, sp, target, _chunk(sp) + offset, seed=3)


def test_audit_keeps_the_first_of_a_tie_across_a_chunk_boundary(monkeypatch):
    # pairs chunk - 1 and chunk are doubled, every other pair halved: ratio 2 exactly at both
    sp = euclidean(2)
    c = _chunk(sp)
    xs, ys = _audit_points(sp, c + 5, 0)
    doubled = {p.tobytes() for p in (xs[c - 1], ys[c - 1], xs[c], ys[c])}
    T = NonexpansiveMap(lambda x: (2.0 if x.tobytes() in doubled else 0.5) * x)
    report = _assert_single_pass_report(monkeypatch, check_nonexpansive, sp, T, c + 5, 0)
    assert (report.passed, report.worst) == (False, 2.0)
    assert report.witness[0].tobytes() == xs[c - 1].tobytes()


def test_audit_reports_a_non_finite_score_of_a_later_chunk(monkeypatch):
    # a large finite ratio in the first chunk, then NaN in the second and the third
    sp = euclidean(2)
    c = _chunk(sp)
    xs, ys = _audit_points(sp, 2 * c + 10, 1)
    doubled, broken = {xs[3].tobytes()}, {xs[c + 5].tobytes(), ys[2 * c + 1].tobytes()}

    def T(x):
        key = x.tobytes()
        return np.full(2, np.nan) if key in broken else (2.0 if key in doubled else 0.5) * x

    report = _assert_single_pass_report(
        monkeypatch, check_nonexpansive, sp, NonexpansiveMap(T), 2 * c + 10, 1
    )
    assert not report.passed and np.isnan(report.worst)
    assert report.witness[0].tobytes() == xs[c + 5].tobytes()


def test_audit_in_chunks_drops_zero_distance_pairs_as_one_pass_does(monkeypatch):
    # on a tiny box almost every point lands on one of four corners: about a
    # quarter of the pairs coincide, in every chunk
    sp = euclidean(2)
    T = NonexpansiveMap(np.sin, domain=Box([0.0, 0.0], [1e-3, 1e-3]))
    report = _assert_single_pass_report(monkeypatch, check_nonexpansive, sp, T,
                                        2 * _chunk(sp) + 1, 2)
    assert report.witness is not None


def test_audit_raises_on_a_value_that_is_not_a_point_in_the_last_chunk():
    # only the second point of the last pair, alone in the third chunk, is mapped off the space
    sp = euclidean(2)
    n = 2 * _chunk(sp) + 1
    _, ys = _audit_points(sp, n, 0)
    last = ys[-1].tobytes()
    T = NonexpansiveMap(lambda x: x[:1] if x.tobytes() == last else 0.5 * x)
    with pytest.raises(InputError, match=re.escape("T(x) must have shape (2,), got (1,)")):
        check_nonexpansive(sp, T, n_samples=n)


@pytest.mark.parametrize("seed", range(5))
def test_audits_in_chunks_are_the_single_pass_reports(monkeypatch, diagnostics, fredholm_256,
                                                      seed):
    # the benchmark's diagnostics audits, and the same three on Fredholm m = 256
    # (257 values a point: 15 pairs a chunk)
    space, T, f = diagnostics
    A = MonotoneOperatorSpec(lambda x: x, ism_alpha=1.0)
    for check, target in [
        (check_nonexpansive, T), (check_contraction, f), (check_inverse_strongly_monotone, A)
    ]:
        _assert_single_pass_report(monkeypatch, check, space, target, 10_000, seed)
    space, T, f = fredholm_256
    A = MonotoneOperatorSpec(lambda x: x - T(x), ism_alpha=0.5)
    for check, target in [
        (check_nonexpansive, T), (check_contraction, f), (check_inverse_strongly_monotone, A)
    ]:
        _assert_single_pass_report(monkeypatch, check, space, target, 1000, seed)


def _fredholm_setup(grid_size, tmp_dir):
    path = tmp_dir / f"fredholm-{grid_size}.cfg"
    path.write_text(
        f"[problem]\nkind = fredholm\nkernel = separable-linear\ngrid_size = {grid_size}\n"
        "[contraction]\nkind = linear\nc = 0.25\n" + _TAIL
    )
    setup = build_problem(load_run_config(path))
    setup.T(np.zeros(setup.space.dim))  # the kernel's factors are read on the first call
    return setup.space, setup.T, setup.f


@pytest.fixture(scope="module")
def fredholm_256(tmp_path_factory):
    return _fredholm_setup(256, tmp_path_factory.mktemp("fredholm"))


def test_a_fredholm_audit_holds_its_first_points_and_little_more(tmp_path):
    # 4000 first points of 1025 values are 31.3 MiB; one pass over all the
    # pairs held about seven times as much
    space, T, _ = _fredholm_setup(1024, tmp_path)
    first_points = 4000 * space.dim * 8
    tracemalloc.start()
    try:
        report = check_nonexpansive(space, T, n_samples=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 1.2 * first_points, f"traced peak {peak / 2**20:.1f} MiB"


def test_modulus_value_is_elementwise_on_arrays():
    ts = np.array([0.0, 0.5, 3.0, 1e6])
    for mod in (linear_modulus(0.25), rational_modulus(2.0)):
        assert mod.value(ts).tolist() == [mod.value(float(t)) for t in ts]
        with pytest.raises(InputError):
            mod.value(np.array([1.0, -1e-300]))


# ---------------------------------------------------------------- stack forms

_TAIL = "[scheme]\nname = new_implicit\n[schedule]\npreset = halpern-mix\n"


def _euclidean_tail(dim):
    return f"[space]\nkind = euclidean\ndim = {dim}\n"


# name -> config of a catalog problem whose T and f the stack-form tests build
_CATALOG = {
    "builtin-linear": "[problem]\nkind = builtin-linear\nslope = -0.75\n"
    "[contraction]\nkind = linear\nc = 0.25\n",
    "pseudocontraction": "[problem]\nkind = pseudocontraction\nk = 0.5\nlambda = 0.5\n"
    "theta = 0.3\n[contraction]\nkind = rational\nbeta = 2.0\n",
    "line-projection": "[problem]\nkind = line-projection\n"
    "[contraction]\nkind = constant-point\npoint = 1.5, -2.0\n",
    # a rational f on the trapezoid weights of 4 nodes
    "fredholm": "[problem]\nkind = fredholm\nkernel = sine\ngrid_size = 3\n"
    "[contraction]\nkind = rational\nbeta = 0.5\n",
    **{
        f"monotone-whole-space-{dim}": "[problem]\nkind = monotone\ngamma = 0.5\n"
        "set = whole-space\n[contraction]\nkind = constant-point\npoint = "
        + ", ".join(str(0.5 - i) for i in range(dim)) + "\n" + _euclidean_tail(dim)
        for dim in (1, 2, 3, 4)
    },
    **{
        f"monotone-ball-{dim}": "[problem]\nkind = monotone\ngamma = 1.5\nset = ball\n"
        "radius = 2.0\n[contraction]\nkind = linear\nc = 0.25\n" + _euclidean_tail(dim)
        for dim in (1, 2, 3, 4)
    },
}


def _half(x):
    return 0.5 * x


def _special_rows(dim):
    """NaN rows, and rows the maps send to a ball's centre or sphere or onto a box face."""
    first = np.arange(dim) == 0
    rows = [np.zeros(dim), np.full(dim, np.nan), np.where(first, np.nan, 1.0)]
    for j in range(dim):
        # gamma = 1.5 sends 4 e_j to -2 e_j, on the catalog's sphere of radius 2
        rows += [4.0 * np.eye(dim)[j], -4.0 * np.eye(dim)[j]]
    # the forward step x -> x - x/2 sends twice a bound of the box onto it,
    # and these to the centre 0.125 (1, ..., 1) of the ball and to its sphere
    rows += [np.full(dim, -1.0), np.full(dim, 0.5), np.where(first, 0.5, 0.1)]
    rows += [np.full(dim, 0.25), np.where(first, 1.75, 0.25)]
    return rows


@pytest.fixture(scope="module")
def built_maps(tmp_path_factory):
    """name -> (space, map): the catalog's maps, and forward steps onto each set by hand."""
    folder = tmp_path_factory.mktemp("catalog")
    found = {}
    for name, text in _CATALOG.items():
        path = folder / f"{name}.cfg"
        path.write_text(text + _TAIL)
        setup = build_problem(load_run_config(path))
        found[f"{name}:T"] = (setup.space, setup.T)
        found[f"{name}:f"] = (setup.space, setup.f)
    half = MonotoneOperatorSpec(maps._with_rows(_half), 0.5)
    for dim in (1, 2, 3, 4):
        sp = euclidean(dim)
        for label, cset in [
            ("whole-space", WholeSpace()),
            ("box", Box(np.full(dim, -0.5), np.full(dim, 0.25))),
            ("ball", Ball(np.full(dim, 0.125), 0.75)),
        ]:
            found[f"forward-{label}-{dim}:T"] = (sp, forward_projected(sp, cset, half, gamma=1.0))
    return found


def test_the_stack_form_cases_cover_every_catalog_map():
    # a problem or contraction kind added to the catalog needs its case here
    def kinds(section):
        return {re.search(rf"\[{section}\]\nkind = (\S+)", t)[1] for t in _CATALOG.values()}

    assert kinds("problem") == set(problems._PROBLEMS)
    assert kinds("contraction") == set(problems._CONTRACTIONS)


_FORWARD_CASES = [
    f"forward-{label}-{dim}:T" for label in ("whole-space", "box", "ball") for dim in (1, 2, 3, 4)
]
_STACK_CASES = [f"{name}:{m}" for name in _CATALOG for m in "Tf"] + _FORWARD_CASES
# the built maps with a stack form: the monotone problem's forward step and
# the linear contraction; every other built map is called once per point
_STACKED = {
    "builtin-linear:f",
    *(f"monotone-{label}-{dim}:T" for label in ("whole-space", "ball") for dim in (1, 2, 3, 4)),
    *(f"monotone-ball-{dim}:f" for dim in (1, 2, 3, 4)),
    *_FORWARD_CASES,
}


@pytest.mark.parametrize("case", _STACK_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stack_form_is_the_per_point_values_bit_for_bit(built_maps, case, data):
    space, fn = built_maps[case]
    rows_fn = getattr(fn.evaluator, "_viscofix_rows", None)
    assert (rows_fn is not None) == (case in _STACKED)
    if rows_fn is None:
        return
    k = data.draw(st.integers(1, 6))
    # rows of ordinary size, subnormal size, and past the overflow of the squares
    scales = data.draw(
        hnp.arrays(np.float64, k, elements=st.sampled_from([1.0, 1e-160, 1e155, 1e300]))
    )
    rows = data.draw(
        hnp.arrays(np.float64, (k, space.dim), elements=st.floats(-8.0, 8.0, allow_subnormal=True))
    ) * scales[:, None]
    special = data.draw(st.lists(st.sampled_from(_special_rows(space.dim)), max_size=6))
    points = np.array(data.draw(st.permutations(list(rows) + special)))
    stacked = rows_fn(points)
    assert (type(stacked), stacked.dtype, stacked.shape) == (np.ndarray, np.float64, points.shape)
    assert stacked.tobytes() == np.array([fn(p) for p in points]).tobytes()


def _without_stack_form(target):
    return dataclasses.replace(target, evaluator=lambda x, _ev=target.evaluator: _ev(x))


@pytest.fixture(scope="module")
def diagnostics(tmp_path_factory):
    """Space, ``T`` and ``f`` of the benchmark's diagnostics problem."""
    path = tmp_path_factory.mktemp("diagnostics") / "monotone-ball.cfg"
    path.write_text(
        "[problem]\nkind = monotone\ngamma = 0.5\nset = ball\nradius = 2.0\n"
        "[contraction]\nkind = linear\nc = 0.25\n" + _euclidean_tail(3) + _TAIL
    )
    setup = build_problem(load_run_config(path))
    return setup.space, setup.T, setup.f


@pytest.mark.parametrize("seed", range(5))
def test_audits_through_the_stack_form_match_the_per_point_loop(diagnostics, seed):
    space, T, f = diagnostics
    A = MonotoneOperatorSpec(maps._with_rows(lambda x: x), 1.0)
    for check, target in [
        (check_nonexpansive, T), (check_contraction, f), (check_inverse_strongly_monotone, A)
    ]:
        assert hasattr(target.evaluator, "_viscofix_rows")
        stacked = check(space, target, n_samples=10_000, seed=seed)
        looped = check(space, _without_stack_form(target), n_samples=10_000, seed=seed)
        assert stacked.passed == looped.passed
        assert struct.pack("<d", stacked.worst) == struct.pack("<d", looped.worst)
        assert (stacked.witness is None) == (looped.witness is None)
        if looped.witness is not None:
            for got, want in zip(stacked.witness, looped.witness):
                assert got.tobytes() == want.tobytes()


def test_a_replaced_evaluator_is_called_once_per_point(diagnostics):
    space, T, _ = diagnostics
    calls = []
    counted = dataclasses.replace(T, evaluator=lambda x: calls.append(x.copy()) or T(x))
    check_nonexpansive(space, counted, n_samples=300, seed=3)
    xs, ys = np.random.default_rng(3).standard_normal((2, 300, space.dim)) * 3.0
    assert len(calls) == 600
    assert np.array(calls).tobytes() == np.concatenate([xs, ys]).tobytes()


class _UserMap:
    """A user's evaluator that has a ``rows`` of its own, which is not a stack form."""

    def __init__(self, rows):
        self.rows = rows
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return 0.5 * x


class _UserMapWithRowsMethod(_UserMap):
    def __init__(self):
        super().__init__(None)
        del self.rows

    def rows(self, xs):
        # unrelated to the map's values: it would halve the audit's ratio
        return 0.25 * xs


@pytest.mark.parametrize(
    "evaluator", [lambda: _UserMap(rows=3), _UserMapWithRowsMethod], ids=["int", "method"]
)
def test_a_user_evaluator_with_a_rows_attribute_is_called_once_per_point(evaluator):
    ev = evaluator()
    report = check_nonexpansive(euclidean(2), NonexpansiveMap(ev), n_samples=50, seed=4)
    assert (report.passed, report.worst, ev.calls) == (True, 0.5, 100)


@pytest.mark.parametrize(
    "rows_fn",
    [lambda xs: xs[:, :1], lambda xs: list(xs), lambda xs: xs.astype(np.float32)],
    ids=["shape", "list", "float32"],
)
def test_a_stack_form_value_that_is_not_a_stack_falls_back_to_the_per_point_loop(rows_fn):
    # the per-point loop then raises the first bad value's own error
    with pytest.raises(InputError, match=re.escape("T(x) must have shape (2,), got (1,)")):
        check_nonexpansive(
            euclidean(2), NonexpansiveMap(maps._with_rows(lambda x: x[:1], rows_fn)), n_samples=5
        )
    # and a good per-point value is used as it is
    report = check_nonexpansive(
        euclidean(2), NonexpansiveMap(maps._with_rows(_half, rows_fn)), n_samples=50
    )
    assert (report.passed, report.worst) == (True, 0.5)


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
    # the interval is (0, lam]
    with pytest.raises(ConfigurationError) as err2:
        average_pseudocontraction(S, lam=0.125, theta=0.2)
    assert "(0, 0.125]" in str(err2.value)


def test_average_pseudocontraction_weight_stops_at_one():
    # S(x) = -x/3 meets lam = 0.5 with equality; theta = 2 would build
    # T(x) = 7x/3, which expands, and the bound lam lies below 1
    S = lambda x: -x / 3.0
    with pytest.raises(ConfigurationError) as err:
        average_pseudocontraction(S, lam=0.5, theta=2.0)
    assert "averaging weight must lie in (0, 0.5], got 2.0" in str(err.value)
    with pytest.raises(ConfigurationError) as err:
        average_pseudocontraction(S, lam=0.99, theta=1.0)
    assert "averaging weight must lie in (0, 0.99], got 1.0" in str(err.value)
    T = average_pseudocontraction(S, lam=0.5, theta=0.5)  # T(x) = x/3
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


def _cosine_in_s(t, s, x):
    # linear, and its value does not vary with t: one row on the grid
    return (np.cos(s) / 2.0) * x


@settings(max_examples=60, deadline=None)
@given(
    kernel=st.sampled_from([_separable, _gaussian, _cosine_in_s]),
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


def _kernel_readers(kernel, m):
    """The weighted values ``Phi(t_i, t_j, w_j)`` as row blocks and as columns, never whole."""
    nodes = trapezoid_nodes(m)
    t, s, w = nodes[:, None], nodes[None, :], trapezoid(m).weights[None, :]

    def read_rows(b0, b1):
        return kernel(t[b0:b1], s, w)

    def read_column(j):
        return kernel(t, s[:, j : j + 1], w[:, j : j + 1])[:, 0]

    return read_rows, read_column


@pytest.mark.parametrize("scale", [1.0, 1.7e308])
@pytest.mark.parametrize("m", [256, 1024])
@pytest.mark.parametrize("kernel", [_separable, _gaussian])
def test_fredholm_factors_from_row_blocks_are_those_of_the_whole_table(kernel, m, scale):
    problem, gvals, table = _linear_problem(kernel, m)
    n = gvals.size
    streamed = maps._low_rank_factors(n, *_kernel_readers(kernel, m))
    whole = maps._low_rank_factors(n, lambda b0, b1: table[b0:b1], lambda j: table[:, j])
    assert whole is not None
    for got, want in zip(streamed, whole):
        assert got.tobytes() == want.tobytes()
    left, right = whole
    T = fredholm_operator(problem)
    rng = np.random.default_rng(10)
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, n) * scale
        assert np.array_equal(T(x), gvals + left @ (right @ x))


@pytest.mark.parametrize(
    "kernel, m, factored",
    [(_separable, 256, True), (_gaussian, 1024, True), (_separable, 64, False),
     (_min_kernel, 256, False), (_cosine_in_s, 256, False)],
)
def test_fredholm_declared_factors_are_the_ones_it_applies(kernel, m, factored):
    # the form reads the kernel itself on a fresh T, once, and then T applies
    # exactly g + L (R x); a dense table or a lone row declares no factors
    shapes = []

    def counted(t, s, x):
        shapes.append(np.broadcast(t, s, x).shape)
        return kernel(t, s, x)

    problem, gvals, table = _linear_problem(counted, m)
    T = fredholm_operator(problem)
    shapes.clear()
    form = T._factors()
    assert shapes
    calls = len(shapes)
    x = np.random.default_rng(11).standard_normal(gvals.size)
    value = T(x)
    assert len(shapes) == calls and (T._factors() is None) is (form is None)
    if not factored:
        assert form is None
        return
    g, left, right = form
    assert g.tobytes() == gvals.tobytes() and np.array_equal(value, g + left @ (right @ x))
    assert left.shape == right.T.shape and len(right) < math.isqrt(gvals.size)


def test_fredholm_general_path_declares_no_factors():
    problem = FredholmProblem(g=np.cos, kernel=sine_kernel, lipschitz_bound=0.5, grid_size=256)
    assert fredholm_operator(problem)._factors is None


def _first_call_peak(kernel, m):
    """Peak bytes traced during the first call of ``T``, and the bytes of its ``(m+1)^2`` table."""
    problem = FredholmProblem(
        g=np.cos, kernel=kernel, lipschitz_bound=0.5, grid_size=m, linear=True
    )
    T = fredholm_operator(problem)
    x = np.linspace(-1.0, 1.0, m + 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        T(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, x.size * x.nbytes


@pytest.mark.parametrize("kernel", [_separable, _gaussian])
def test_fredholm_kernel_that_factors_never_forms_its_table(kernel):
    # the factors come from row blocks and columns: O(m (block + r)) at a time
    peak, table_bytes = _first_call_peak(kernel, 1024)
    assert peak < table_bytes / 2


def test_fredholm_full_rank_table_is_filled_without_a_second_copy():
    peak, table_bytes = _first_call_peak(_min_kernel, 1024)
    assert peak <= 1.1 * table_bytes


def test_fredholm_kernel_that_factors_is_read_in_parts_on_the_first_call_only():
    shapes = []

    def counted(t, s, x):
        shapes.append(np.broadcast(t, s, x).shape)
        return _gaussian(t, s, x)

    problem = FredholmProblem(
        g=np.cos, kernel=counted, lipschitz_bound=0.5, grid_size=256, linear=True
    )
    T = fredholm_operator(problem)
    shapes.clear()  # the spot check's samples
    x = np.linspace(-1.0, 1.0, 257)
    first = T(x)
    # row blocks and columns, never the (257, 257) table
    assert shapes and all(rows < 257 or cols == 1 for rows, cols in shapes)
    calls = len(shapes)
    for _ in range(3):
        assert np.array_equal(T(x), first)
    assert len(shapes) == calls


@pytest.mark.parametrize("linear", [True, False])
def test_fredholm_kernel_that_does_not_vary_with_t_builds_no_table(linear):
    # The one-row value is applied as it is: the operator holds O(m), and
    # no (m+1)^2 table is made, not even for a moment.
    kernel = _cosine_in_s if linear else sine_kernel
    problem = FredholmProblem(
        g=np.cos, kernel=kernel, lipschitz_bound=0.5, grid_size=256, linear=linear
    )
    T = fredholm_operator(problem)
    x = np.linspace(-1.0, 1.0, problem.grid_size + 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = T(x)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert value.shape == x.shape
    assert held <= 4 * x.nbytes
    assert peak < x.size * x.nbytes / 8  # an eighth of the (m+1)^2 table


def test_fredholm_linear_one_row_table_is_applied_as_a_row_product():
    problem, gvals, row = _linear_problem(_cosine_in_s, 1024)
    assert row.shape == (1, gvals.size)
    T = fredholm_operator(problem)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal(gvals.size)
        assert np.array_equal(T(x), gvals + row[0] @ x)


def _wrongly_shaped(bad):
    """``t s x / 2``, which is linear, with ``bad`` applied to its values on the grid.

    The spot check samples 1-D arrays and sees the right values; only
    ``T`` evaluates the kernel on the 2-D grid.
    """

    def kernel(t, s, x):
        value = _separable(t, s, x)
        return value if np.ndim(value) < 2 else bad(value)

    return kernel


_BAD_SHAPES = {
    "(3,)": lambda v: v[0, :3],
    "(3, 9)": lambda v: v[:3],
    "(1, 9, 9)": lambda v: v[None],
}


@pytest.mark.parametrize("linear", [True, False])
@pytest.mark.parametrize("shape", list(_BAD_SHAPES))
def test_fredholm_kernel_value_of_the_wrong_shape_is_a_configuration_error(linear, shape):
    problem = FredholmProblem(
        g=np.cos,
        kernel=_wrongly_shaped(_BAD_SHAPES[shape]),
        lipschitz_bound=0.5,
        grid_size=8,
        linear=linear,
    )
    T = fredholm_operator(problem)  # the kernel is not evaluated on the grid at set-up
    message = f"shape {shape}, which does not broadcast to the (9, 9) table of the 9-node grid"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        T(np.zeros(9))


def test_fredholm_table_that_fails_part_way_is_never_applied():
    # at m = 129 the dense table is filled in row blocks of 126 and 4; a
    # kernel whose value for the last 4 rows has the wrong shape raises on
    # every call, where a half-filled table used to be kept and applied
    def kernel(t, s, x):
        value = _separable(t, s, x)
        return value[:3] if np.shape(value)[0] == 4 else value

    problem = FredholmProblem(
        g=np.cos, kernel=kernel, lipschitz_bound=0.5, grid_size=129, linear=True
    )
    T = fredholm_operator(problem)
    for _ in range(2):
        with pytest.raises(ConfigurationError, match=re.escape("shape (3, 130)")):
            T(np.zeros(130))


def _constant_kernel(t, s, x):
    return 0.25


def _flat_sine(t, s, x):
    # a 1-D (n,) value
    return 0.5 * np.sin(np.ravel(x))


def _general_problem(kernel, m):
    problem = FredholmProblem(g=np.cos, kernel=kernel, lipschitz_bound=0.5, grid_size=m)
    space, nodes = fredholm_grid(problem)
    return problem, space.weights, nodes, np.cos(nodes)


@pytest.mark.parametrize("m", [2, 8, 64, 256, 1024])
@pytest.mark.parametrize(
    "kernel",
    [sine_kernel, _constant_kernel, _flat_sine, zero_kernel],
    ids=["sine", "constant", "flat", "zero"],
)
def test_fredholm_kernel_that_does_not_vary_with_t_is_one_row_product(kernel, m):
    # T(x) = g + row . w with the kernel's own row: one O(m) product, not an
    # (m+1)^2 one over copies of the row.  That sums in another order than
    # the repeated rows did, so the integral agrees with an exactly rounded
    # sum of the terms within the product's forward-error bound, not bitwise.
    problem, weights, nodes, gvals = _general_problem(kernel, m)
    T = fredholm_operator(problem)
    n = nodes.size
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(n) * 3.0
        row = np.broadcast_to(kernel(nodes[:, None], nodes[None, :], x[None, :]), (1, n))[0]
        integral = row @ weights
        assert np.array_equal(T(x), gvals + integral)
        terms = weights * row
        bound = n * np.finfo(np.float64).eps * np.sum(np.abs(terms))
        assert abs(integral - math.fsum(terms)) <= bound


@pytest.mark.parametrize("m", [2, 64, 256])
def test_fredholm_kernel_that_varies_with_t_keeps_the_table_product(m):
    problem, weights, nodes, gvals = _general_problem(lambda t, s, x: t * np.sin(x) / 2.0, m)
    T = fredholm_operator(problem)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.standard_normal(nodes.size) * 3.0
        table = nodes[:, None] * np.sin(x[None, :]) / 2.0
        assert np.array_equal(T(x), gvals + table @ weights)


def test_fredholm_zero_kernel_gives_g_for_a_nan_point():
    problem, _, nodes, gvals = _general_problem(zero_kernel, 64)
    assert np.array_equal(fredholm_operator(problem)(np.full(nodes.size, np.nan)), gvals)


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


def _broadcast_rule(values, rows, cols, n):
    """The rule a kernel value was held to before it became one ``np.broadcast_to``.

    Returns the reduced value, broadcast along ``s`` only, or the refusal's message.
    """
    if values.ndim > 2 or not (
        set(values.shape[-1:]) <= {1, cols} and set(values.shape[:-1]) <= {1, rows}
    ):
        part = "" if (rows, cols) == (n, n) else f"the {(rows, cols)} part of "
        return (
            f"kernel value has shape {values.shape}, which does not broadcast to "
            f"{part}the ({n}, {n}) table of the {n}-node grid"
        )
    return np.broadcast_to(values, (values.shape[0] if values.ndim == 2 else 1, cols))


# m = 131 is the least grid that is factored: the first block has 124 of
# the n = 132 rows, and the factoring reads columns.
_N = 132
_VALUE_SHAPES = {
    "()": (), "(1,)": (1,), "(n,)": (_N,), "(1, 1)": (1, 1), "(1, n)": (1, _N),
    "(n, 1)": (_N, 1), "(n, n)": (_N, _N), "(3,)": (3,), "(3, n)": (3, _N), "(n, 3)": (_N, 3),
    "(1, 1, n)": (1, 1, _N),
}


@pytest.mark.parametrize("shape", list(_VALUE_SHAPES))
def test_fredholm_kernel_value_shapes_follow_one_broadcast_rule(monkeypatch, shape):
    # A value of each shape is read on the general path, as a row block and
    # as a column, and is taken or refused as the set-based rule took or
    # refused it, with the same bits or the same message.
    m, n = _N - 1, _N
    value = np.random.default_rng(11).standard_normal(_VALUE_SHAPES[shape])
    readers = []

    def spy(size, read_rows, read_column):
        readers.extend((read_rows, read_column))
        return None  # the dense table is filled, from the t * s kernel below

    monkeypatch.setattr(maps, "_low_rank_factors", spy)
    given = None

    def kernel(t, s, x):
        # the spot check samples 1-D arrays; on the grid, the value under test
        if np.ndim(t) < 2 or given is None:
            return t * s * x / 2.0
        return given

    def read(call, rows, cols):
        nonlocal given
        given = value
        try:
            want = _broadcast_rule(value, rows, cols, n)
            if isinstance(want, str):
                with pytest.raises(ConfigurationError) as caught:
                    call()
                assert str(caught.value) == want
                return None
            return call(), want
        finally:
            given = None

    x = np.random.default_rng(12).standard_normal(n)
    general = FredholmProblem(g=np.cos, kernel=kernel, lipschitz_bound=0.5, grid_size=m)
    space, nodes = fredholm_grid(general)
    got = read(lambda: fredholm_operator(general)(x), n, n)
    if got is not None:
        assert got[0].tobytes() == (np.cos(nodes) + got[1] @ space.weights).tobytes()

    linear = dataclasses.replace(general, linear=True)
    fredholm_operator(linear)(x)  # reads the t * s table, and hands the spy its readers
    read_rows, read_column = readers
    block = maps._row_block(n)
    got = read(lambda: read_rows(0, block), block, n)
    if got is not None:
        assert got[0].tobytes() == np.broadcast_to(got[1], (block, n)).tobytes()
    got = read(lambda: read_column(5), n, 1)
    if got is not None:
        assert got[0].tobytes() == np.broadcast_to(got[1], (n, 1))[:, 0].tobytes()


@pytest.mark.parametrize(
    "build, message",
    [
        # forward_projected(euclidean(1), WholeSpace(), A, gamma=1e300) took
        # this A, and its "nonexpansive" T sent 1 to -1e300
        (lambda: MonotoneOperatorSpec(lambda x: x, ism_alpha=math.inf),
         "inverse-strong-monotonicity constant must be finite and positive, got inf"),
        (lambda: MonotoneOperatorSpec(lambda x: x, ism_alpha=0.0),
         "inverse-strong-monotonicity constant must be finite and positive, got 0.0"),
        # rational_modulus(inf).value(0) was NaN, with a RuntimeWarning
        (lambda: rational_modulus(math.inf), "rational modulus coefficient must be finite, got inf"),
        (lambda: rational_modulus(math.nan), "rational modulus coefficient must be positive, got nan"),
        # a negative bound made fredholm_operator warn "exceeds the declared bound -1"
        (lambda: FredholmProblem(g=np.cos, kernel=_separable, lipschitz_bound=-1, grid_size=8),
         "kernel Lipschitz bound must lie in [0, 1], got -1"),
        (lambda: FredholmProblem(g=np.cos, kernel=_separable, lipschitz_bound=-math.inf,
                                 grid_size=8),
         "kernel Lipschitz bound must lie in [0, 1], got -inf"),
    ],
    ids=["ism-alpha-inf", "ism-alpha-0", "beta-inf", "beta-nan", "lipschitz--1", "lipschitz--inf"],
)
def test_declared_constants_must_be_finite_and_in_range(build, message):
    with pytest.raises(ConfigurationError) as caught:
        build()
    assert str(caught.value) == message
