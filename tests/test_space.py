import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from viscofix import (
    AffineSpan,
    Ball,
    Box,
    ConfigurationError,
    InputError,
    SpaceDescriptor,
    WholeSpace,
    euclidean,
    norm,
    trapezoid,
    trapezoid_nodes,
)
from viscofix.space import ConvexSetBase, convex_set


def test_inner_euclidean_values():
    sp = euclidean(2)
    assert sp.inner(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert sp.inner(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 25.0


def test_inner_trapezoid_constant_one():
    sp = trapezoid(2)
    assert np.allclose(sp.weights, [0.25, 0.5, 0.25])
    # weights sum to 1 = integral of 1 over [0, 1]
    assert sp.inner(np.ones(3), np.ones(3)) == pytest.approx(1.0, abs=1e-15)


def test_norm_values():
    assert norm(euclidean(2), [3.0, 4.0]) == 5.0
    assert norm(euclidean(3), np.zeros(3)) == 0.0
    assert norm(trapezoid(2), [0.0, 1.0, 0.0]) == pytest.approx(
        np.sqrt(0.5), abs=1e-15
    )


def test_trapezoid_nodes_are_uniform():
    m = 7
    nodes = trapezoid_nodes(m)
    assert nodes.shape == (m + 1,)
    assert np.allclose(nodes, np.arange(m + 1) / m)
    assert trapezoid(m).dim == m + 1


def test_dimension_mismatch_rejected():
    sp = euclidean(2)
    with pytest.raises(InputError):
        norm(sp, [1.0])
    with pytest.raises(InputError):
        sp.point([[1.0, 2.0]], "x")


def test_space_validation():
    with pytest.raises(ConfigurationError):
        euclidean(0)
    with pytest.raises(ConfigurationError):
        trapezoid(0)
    from viscofix.space import SpaceDescriptor

    with pytest.raises(ConfigurationError):
        SpaceDescriptor(np.array([1.0, 0.0]))
    with pytest.raises(ConfigurationError):
        SpaceDescriptor(np.array([1.0, np.inf]))


def test_weights_are_read_only():
    sp = euclidean(3)
    with pytest.raises(ValueError):
        sp.weights[0] = 2.0


def test_project_ball_examples():
    sp = euclidean(2)
    ball = Ball(np.zeros(2), 1.0)
    assert np.allclose(ball.project(sp, [3.0, 4.0]), [0.6, 0.8])
    inside = np.array([0.1, -0.2])
    assert np.array_equal(ball.project(sp, inside), inside)


def test_project_box_examples():
    sp = euclidean(2)
    box = Box([0.0, 0.0], [1.0, 1.0])
    assert np.allclose(box.project(sp, [0.5, 2.0]), [0.5, 1.0])
    assert np.allclose(box.project(sp, [-3.0, 0.25]), [0.0, 0.25])


def test_project_affine_span_line():
    sp = euclidean(2)
    line = AffineSpan(sp, base=np.zeros(2), directions=[[1.0, 0.0]])
    assert np.allclose(line.project(sp, [3.0, 4.0]), [3.0, 0.0])


def test_project_whole_space_is_identity():
    sp = euclidean(3)
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(WholeSpace().project(sp, x), x)


def test_project_rejects_unknown_set():
    with pytest.raises(ConfigurationError, match="^unsupported set kind: object$"):
        convex_set(object())


def _sample_sets(space):
    sets = [
        WholeSpace(),
        Box(-np.ones(space.dim), np.ones(space.dim)),
        Ball(np.full(space.dim, 0.3), 1.5),
    ]
    direction = np.zeros(space.dim)
    direction[0] = 1.0 / np.sqrt(space.weights[0])
    sets.append(AffineSpan(space, base=np.zeros(space.dim), directions=[direction]))
    return sets


@pytest.mark.parametrize("space", [euclidean(3), trapezoid(4)], ids=["euclid3", "trap4"])
def test_projection_properties_random_pairs(space):
    rng = np.random.default_rng(7)
    for cset in _sample_sets(space):
        for _ in range(1000):
            x = rng.standard_normal(space.dim) * 3.0
            y = rng.standard_normal(space.dim) * 3.0
            px = cset.project(space, x)
            py = cset.project(space, y)
            # nonexpansive
            assert norm(space, px - py) <= norm(space, x - y) + 1e-12
            # idempotent
            assert norm(space, cset.project(space, px) - px) <= 1e-12
            # obtuse angle against a member z of the set
            z = cset.project(space, rng.standard_normal(space.dim) * 3.0)
            assert space.inner(x - px, z - px) <= 1e-10


_coordinate = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _weighted_projection_cases(draw, kind):
    """A weighted space of dimension 1-6, a set of ``kind`` in it and three points."""
    dim = draw(st.integers(1, 6))
    vec = hnp.arrays(np.float64, dim, elements=_coordinate)
    space = SpaceDescriptor(draw(hnp.arrays(np.float64, dim, elements=st.floats(0.1, 10.0))))
    if kind == "whole":
        cset = WholeSpace()
    elif kind == "box":
        lower = draw(vec)
        cset = Box(lower, lower + draw(hnp.arrays(np.float64, dim, elements=st.floats(0.0, 5.0))))
    elif kind == "ball":
        cset = Ball(draw(vec), draw(st.floats(0.1, 5.0)))
    else:
        # orthonormal columns of Q, scaled by 1/sqrt(w), are w-orthonormal rows
        q, _ = np.linalg.qr(draw(hnp.arrays(np.float64, (dim, dim), elements=_coordinate)))
        k = draw(st.integers(1, dim))
        cset = AffineSpan(space, draw(vec), q[:, :k].T / np.sqrt(space.weights))
    return space, cset, draw(vec), draw(vec), draw(vec)


@pytest.mark.parametrize("kind", ["whole", "box", "ball", "affine"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_projection_properties_in_random_weighted_spaces(kind, data):
    space, cset, x, y, z = data.draw(_weighted_projection_cases(kind))
    px, py, pz = (cset.project(space, v) for v in (x, y, z))
    scale = 1.0 + max(norm(space, v) for v in (x, y, z, px, py, pz))
    assert norm(space, cset.project(space, px) - px) <= 1e-12 * scale
    assert norm(space, px - py) <= norm(space, x - y) + 1e-12 * scale
    # obtuse angle against the member pz of the set
    assert space.inner(x - px, pz - px) <= 1e-12 * scale * scale


@settings(max_examples=300, deadline=None)
@given(
    v=st.integers(1, 64).flatmap(
        lambda dim: hnp.arrays(
            np.float64, dim, elements=st.floats(-1e150, 1e150, allow_subnormal=True)
        )
    )
)
def test_unit_weight_norm_is_the_weighted_form_bit_for_bit(v):
    # below the overflow range the fast path drops only the product by 1.0
    space = euclidean(v.size)
    assert space.unit_weights
    weighted = math.sqrt(float(np.dot(space.weights * v, v)))
    assert space.norm(v) == weighted
    assert norm(space, v) == weighted


def test_norm_survives_an_overflowing_sum_of_squares():
    # the squares overflow although the norm is a float; no warning either
    sp = euclidean(2)
    assert sp.norm(np.array([1e155, 0.0])) == 1e155
    assert sp.norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
    assert sp.norm(np.array([1e308, 1e308])) == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
    assert sp.norm(np.array([1.7e308, 1.7e308])) == math.inf
    tr = trapezoid(4)
    assert not tr.unit_weights
    assert tr.norm(np.full(5, 1e200)) == pytest.approx(1e200, rel=1e-15)
    # an inf entry still gives inf and a NaN entry NaN
    assert sp.norm(np.array([math.inf, 1e300])) == math.inf
    assert sp.norm(np.array([-math.inf, 1.0])) == math.inf
    assert math.isnan(sp.norm(np.array([math.nan, 1e300])))
    assert math.isnan(sp.norm(np.array([math.inf, math.nan])))
    assert math.isnan(tr.norm(np.array([1e200, math.inf, math.nan, 0.0, 0.0])))


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@st.composite
def _spaces(draw):
    """A unit-weight or a randomly weighted space of dimension 1-40."""
    dim = draw(st.integers(1, 40))
    if draw(st.booleans()):
        return euclidean(dim)
    return SpaceDescriptor(draw(hnp.arrays(np.float64, dim, elements=st.floats(1e-3, 1e3))))


def _rows(space, k, bound):
    return hnp.arrays(
        np.float64, (k, space.dim), elements=st.floats(-bound, bound, allow_subnormal=True)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pairing_is_the_weighted_dot_bit_for_bit(data):
    space = data.draw(_spaces())
    k = data.draw(st.integers(1, 6))
    a, b = data.draw(_rows(space, k, 1e100)), data.draw(_rows(space, k, 1e100))
    stacked = space.inner(a, b)
    assert stacked.shape == (k,)
    for i in range(k):
        # each row as an array of its own, as every point the library builds is
        a_i, b_i = a[i].copy(), b[i].copy()
        expected = np.dot(space.weights * a_i, b_i)
        # np.dot returns a lone product as it is, while vecdot (like vdot)
        # adds it to +0.0: the pairings differ only in the sign of a zero
        # pairing in dimension 1
        expected = _bits(expected + 0.0 if space.dim == 1 else expected)
        assert _bits(space.inner(a_i, b_i)) == expected
        assert _bits(stacked[i]) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_norms_are_the_point_norms_bit_for_bit(data):
    space = data.draw(_spaces())
    k = data.draw(st.integers(1, 6))
    # rows of ordinary size, subnormal size, and past the overflow of the squares
    scales = data.draw(
        hnp.arrays(np.float64, k, elements=st.sampled_from([1.0, 1e-160, 1e155, 1e300]))
    )
    rows = data.draw(_rows(space, k, 1.0)) * scales[:, None]
    with np.errstate(over="ignore"):
        norms = space.row_norms(rows)
    # each row as an array of its own, as every point the library builds is
    assert _bits(norms) == _bits([space.norm(r.copy()) for r in rows])


@st.composite
def _row_projection_cases(draw, kind):
    """A space of dimension 1-4, a set of ``kind`` in it and a stack of rows to project.

    The rows are of ordinary size, subnormal size and past the overflow of
    the squares, with NaN rows, and rows at the ball's centre or on its
    sphere mixed in.
    """
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        space = euclidean(dim)
    else:
        weights = draw(hnp.arrays(np.float64, dim, elements=st.floats(0.1, 10.0)))
        space = SpaceDescriptor(weights)
    vec = hnp.arrays(np.float64, dim, elements=_coordinate)
    special = [np.full(dim, np.nan), np.where(np.arange(dim) == 0, np.nan, 1.0)]
    if kind == "whole":
        cset = WholeSpace()
    elif kind == "ball":
        center, on_sphere = draw(vec), draw(vec)
        radius = space.norm(on_sphere - center)
        if not 0.0 < radius < math.inf:
            radius = 1.0
        cset = Ball(center, radius)
        special += [center, on_sphere]
    else:
        # no array form: one project call per row
        cset = AffineSpan(space, np.zeros(dim), [np.eye(dim)[0] / np.sqrt(space.weights[0])])
    k = draw(st.integers(1, 6))
    scales = draw(hnp.arrays(np.float64, k, elements=st.sampled_from([1.0, 1e-160, 1e155, 1e300])))
    rows = draw(_rows(space, k, 8.0)) * scales[:, None]
    picked = draw(st.lists(st.sampled_from(special), max_size=5))
    return space, cset, np.array(draw(st.permutations(list(rows) + picked)))


@pytest.mark.parametrize("kind", ["whole", "ball", "affine"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_projection_is_the_point_projections_bit_for_bit(kind, data):
    space, cset, rows = data.draw(_row_projection_cases(kind))
    projected = cset._project_rows(space, rows)
    assert (projected.dtype, projected.shape) == (np.float64, rows.shape)
    assert _bits(projected) == _bits([cset.project(space, r) for r in rows])


def test_a_set_that_redefines_project_projects_a_stack_row_by_row():
    # an inherited array form never stands in for the subclass's own rule
    class Shifted(Ball):
        def project(self, space, x):
            return super().project(space, x) + 1.0

    class Checked(Ball):
        pass

    space, rows = euclidean(2), np.array([[3.0, 0.0], [0.25, 0.5]])
    shifted = Shifted(np.zeros(2), 1.0)
    assert _bits(shifted._project_rows(space, rows)) == _bits([[2.0, 1.0], [1.25, 1.5]])
    assert Checked._project_rows is Ball._project_rows
    assert Box._project_rows is AffineSpan._project_rows is ConvexSetBase._project_rows


def test_ball_row_projection_rejects_a_ball_of_another_dimension():
    with pytest.raises(InputError) as caught:
        Ball(np.zeros(2), 1.0)._project_rows(euclidean(3), np.zeros((2, 3)))
    assert str(caught.value) == "ball center does not match the space dimension"


def test_inner_symmetry_and_parallelogram():
    space = trapezoid(5)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = rng.standard_normal(space.dim) * 2.0
        y = rng.standard_normal(space.dim) * 2.0
        assert space.inner(x, y) == pytest.approx(space.inner(y, x), abs=1e-12)
        lhs = norm(space, x + y) ** 2 + norm(space, x - y) ** 2
        rhs = 2.0 * norm(space, x) ** 2 + 2.0 * norm(space, y) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_affine_span_validates_directions():
    sp = euclidean(2)
    with pytest.raises(ConfigurationError):
        AffineSpan(sp, base=np.zeros(2), directions=[[2.0, 0.0]])  # not unit
    with pytest.raises(ConfigurationError):
        AffineSpan(
            sp, base=np.zeros(2), directions=[[1.0, 0.0], [1.0, 0.0]]
        )  # not orthogonal
    # weighted space changes what counts as unit length
    tz = trapezoid(2)
    with pytest.raises(ConfigurationError):
        AffineSpan(tz, base=np.zeros(3), directions=[[1.0, 0.0, 0.0]])
    AffineSpan(tz, base=np.zeros(3), directions=[[2.0, 0.0, 0.0]])  # w0 = 1/4


def test_affine_span_rejects_other_space():
    sp = euclidean(2)
    line = AffineSpan(sp, base=np.zeros(2), directions=[[0.0, 1.0]])
    with pytest.raises(InputError):
        line.project(trapezoid(1), np.zeros(2))


def test_ball_and_halfspace_validation():
    with pytest.raises(ConfigurationError):
        Ball(np.zeros(2), 0.0)
    with pytest.raises(ConfigurationError):
        Ball(np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ConfigurationError):
        Box([0.0, 2.0], [1.0, 1.0])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SpaceDescriptor(np.ones((2, 2))), ConfigurationError,
         "weights must have shape (k,), got (2, 2)"),
        (lambda: SpaceDescriptor([]), ConfigurationError,
         "weights must be one or more strictly positive numbers"),
        (lambda: trapezoid_nodes(0), ConfigurationError, "intervals must be >= 1, got 0"),
        (lambda: Box([0.0, 0.0], [1.0, 1.0, 1.0]), ConfigurationError,
         "box upper bounds must have shape (2,), got (3,)"),
        (lambda: Box([[0.0]], [[1.0]]), ConfigurationError,
         "box lower bounds must have shape (k,), got (1, 1)"),
        (lambda: Box([0.0, -np.inf], [1.0, 1.0]), ConfigurationError,
         "box lower bounds must be finite real numbers, got -inf"),
        (lambda: Box([0.0, 0.0], [1.0, 1.0]).project(euclidean(3), np.zeros(3)), InputError,
         "box bounds do not match the space dimension"),
        (lambda: Ball(np.zeros(2), 1.0).project(euclidean(3), np.zeros(3)), InputError,
         "ball center does not match the space dimension"),
        (lambda: AffineSpan(euclidean(2), np.zeros(2), [1.0, 0.0]), ConfigurationError,
         "directions must have shape (k, 2), got (2,)"),
        (lambda: AffineSpan(euclidean(2), np.zeros(2), np.zeros((0, 2))), ConfigurationError,
         "affine span needs at least one direction"),
    ],
    ids=[
        "weights-shape", "weights-empty", "trapezoid-nodes-0", "box-unequal", "box-2d", "box-non-finite",
        "box-other-dim", "ball-other-dim", "span-directions-1d", "span-no-directions",
    ],
)
def test_constructors_and_projections_reject_outside_input(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_ball_projection_uses_weighted_norm():
    # under trapezoid(2) weights (1/4, 1/2, 1/4) the point (2,0,0) has norm 1
    sp = trapezoid(2)
    ball = Ball(np.zeros(3), 1.0)
    x = np.array([4.0, 0.0, 0.0])  # weighted norm 2
    px = ball.project(sp, x)
    assert np.allclose(px, [2.0, 0.0, 0.0])
    assert norm(sp, px) == pytest.approx(1.0, abs=1e-15)
