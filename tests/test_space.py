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
    Halfspace,
    InputError,
    SpaceDescriptor,
    WholeSpace,
    average_pseudocontraction,
    euclidean,
    inner,
    norm,
    project,
    trapezoid,
    trapezoid_nodes,
)


def test_inner_euclidean_values():
    sp = euclidean(2)
    assert inner(sp, [1.0, 0.0], [0.0, 1.0]) == 0.0
    assert inner(sp, [3.0, 4.0], [3.0, 4.0]) == 25.0


def test_inner_trapezoid_constant_one():
    sp = trapezoid(2)
    assert np.allclose(sp.weights, [0.25, 0.5, 0.25])
    # weights sum to 1 = integral of 1 over [0, 1]
    assert inner(sp, np.ones(3), np.ones(3)) == pytest.approx(1.0, abs=1e-15)


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
        inner(sp, [1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(InputError):
        norm(sp, [1.0])
    with pytest.raises(InputError):
        sp.point([[1.0, 2.0]])


def test_space_validation():
    with pytest.raises(ConfigurationError):
        euclidean(0)
    with pytest.raises(ConfigurationError):
        trapezoid(0)
    from viscofix.space import SpaceDescriptor

    with pytest.raises(ConfigurationError):
        SpaceDescriptor(dim=2, weights=np.array([1.0, 0.0]))
    with pytest.raises(ConfigurationError):
        SpaceDescriptor(dim=2, weights=np.array([1.0, np.inf]))


def test_weights_are_read_only():
    sp = euclidean(3)
    with pytest.raises(ValueError):
        sp.weights[0] = 2.0


def test_project_ball_examples():
    sp = euclidean(2)
    ball = Ball(np.zeros(2), 1.0)
    assert np.allclose(project(sp, ball, [3.0, 4.0]), [0.6, 0.8])
    inside = np.array([0.1, -0.2])
    assert np.array_equal(project(sp, ball, inside), inside)


def test_project_box_examples():
    sp = euclidean(2)
    box = Box([0.0, 0.0], [1.0, 1.0])
    assert np.allclose(project(sp, box, [0.5, 2.0]), [0.5, 1.0])
    assert np.allclose(project(sp, box, [-3.0, 0.25]), [0.0, 0.25])


def test_project_affine_span_line():
    sp = euclidean(2)
    line = AffineSpan(sp, base=np.zeros(2), directions=[[1.0, 0.0]])
    assert np.allclose(project(sp, line, [3.0, 4.0]), [3.0, 0.0])


def test_project_halfspace():
    sp = euclidean(2)
    hs = Halfspace([1.0, 0.0], 1.0)
    assert np.allclose(project(sp, hs, [3.0, 4.0]), [1.0, 4.0])
    assert np.allclose(project(sp, hs, [0.5, -2.0]), [0.5, -2.0])


def test_project_whole_space_is_identity():
    sp = euclidean(3)
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(project(sp, WholeSpace(), x), x)


def test_project_rejects_unknown_set():
    with pytest.raises(ConfigurationError):
        project(euclidean(1), object(), [0.0])


def _sample_sets(space):
    sets = [
        WholeSpace(),
        Box(-np.ones(space.dim), np.ones(space.dim)),
        Ball(np.full(space.dim, 0.3), 1.5),
        Halfspace(np.arange(1.0, space.dim + 1.0), 0.7),
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
            px = project(space, cset, x)
            py = project(space, cset, y)
            # nonexpansive
            assert norm(space, px - py) <= norm(space, x - y) + 1e-12
            # idempotent
            assert norm(space, project(space, cset, px) - px) <= 1e-12
            # obtuse angle against a member z of the set
            z = project(space, cset, rng.standard_normal(space.dim) * 3.0)
            assert inner(space, x - px, z - px) <= 1e-10


_coordinate = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _weighted_projection_cases(draw, kind):
    """A weighted space of dimension 1-6, a set of ``kind`` in it and three points."""
    dim = draw(st.integers(1, 6))
    vec = hnp.arrays(np.float64, dim, elements=_coordinate)
    space = SpaceDescriptor(dim, draw(hnp.arrays(np.float64, dim, elements=st.floats(0.1, 10.0))))
    if kind == "whole":
        cset = WholeSpace()
    elif kind == "box":
        lower = draw(vec)
        cset = Box(lower, lower + draw(hnp.arrays(np.float64, dim, elements=st.floats(0.0, 5.0))))
    elif kind == "ball":
        cset = Ball(draw(vec), draw(st.floats(0.1, 5.0)))
    elif kind == "halfspace":
        normal = draw(vec.filter(lambda n: np.max(np.abs(n)) >= 0.1))
        cset = Halfspace(normal, draw(_coordinate))
    else:
        # orthonormal columns of Q, scaled by 1/sqrt(w), are w-orthonormal rows
        q, _ = np.linalg.qr(draw(hnp.arrays(np.float64, (dim, dim), elements=_coordinate)))
        k = draw(st.integers(1, dim))
        cset = AffineSpan(space, draw(vec), q[:, :k].T / np.sqrt(space.weights))
    return space, cset, draw(vec), draw(vec), draw(vec)


@pytest.mark.parametrize("kind", ["whole", "box", "ball", "halfspace", "affine"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_projection_properties_in_random_weighted_spaces(kind, data):
    space, cset, x, y, z = data.draw(_weighted_projection_cases(kind))
    px, py, pz = (project(space, cset, v) for v in (x, y, z))
    scale = 1.0 + max(norm(space, v) for v in (x, y, z, px, py, pz))
    assert norm(space, project(space, cset, px) - px) <= 1e-12 * scale
    assert norm(space, px - py) <= norm(space, x - y) + 1e-12 * scale
    # obtuse angle against the member pz of the set
    assert inner(space, x - px, pz - px) <= 1e-12 * scale * scale


def test_inner_symmetry_and_parallelogram():
    space = trapezoid(5)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = rng.standard_normal(space.dim) * 2.0
        y = rng.standard_normal(space.dim) * 2.0
        assert inner(space, x, y) == pytest.approx(inner(space, y, x), abs=1e-12)
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
        Halfspace(np.zeros(2), 1.0)
    with pytest.raises(ConfigurationError):
        Box([0.0, 2.0], [1.0, 1.0])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SpaceDescriptor(dim=2, weights=np.ones(3)), ConfigurationError,
         "weights must have shape (2,), got (3,)"),
        (lambda: trapezoid_nodes(0), ConfigurationError, "intervals must be >= 1, got 0"),
        (lambda: Box([0.0, 0.0], [1.0, 1.0, 1.0]), ConfigurationError,
         "box bounds must be 1-d arrays of equal shape"),
        (lambda: Box([[0.0]], [[1.0]]), ConfigurationError,
         "box bounds must be 1-d arrays of equal shape"),
        (lambda: Box([0.0, -np.inf], [1.0, 1.0]), ConfigurationError, "box bounds must be finite"),
        (lambda: Box([0.0, 0.0], [1.0, 1.0]).project(euclidean(3), np.zeros(3)), InputError,
         "box bounds do not match the space dimension"),
        (lambda: Ball(np.zeros(2), 1.0).project(euclidean(3), np.zeros(3)), InputError,
         "ball center does not match the space dimension"),
        (lambda: Halfspace([1.0, 0.0], 0.0).project(euclidean(3), np.zeros(3)), InputError,
         "halfspace normal does not match the space dimension"),
        (lambda: Halfspace([np.inf, 0.0], 0.0), ConfigurationError,
         "halfspace normal must be a finite 1-d array"),
        (lambda: Halfspace([1.0, 0.0], np.nan), ConfigurationError,
         "halfspace offset must be finite"),
        (lambda: AffineSpan(euclidean(2), np.zeros(2), [1.0, 0.0]), ConfigurationError,
         "directions must have shape (k, 2), got (2,)"),
        (lambda: AffineSpan(euclidean(2), np.zeros(2), np.zeros((0, 2))), ConfigurationError,
         "affine span needs at least one direction"),
        (lambda: average_pseudocontraction(lambda x: -x, lam=0.5, theta=0.5, smooth_L=0.0),
         ConfigurationError, "smoothness constant must be positive, got 0.0"),
    ],
    ids=[
        "weights-shape", "trapezoid-nodes-0", "box-unequal", "box-2d", "box-non-finite",
        "box-other-dim", "ball-other-dim", "halfspace-other-dim", "halfspace-normal-non-finite",
        "halfspace-offset-non-finite", "span-directions-1d", "span-no-directions",
        "pseudocontraction-smooth-L-0",
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
    px = project(sp, ball, x)
    assert np.allclose(px, [2.0, 0.0, 0.0])
    assert norm(sp, px) == pytest.approx(1.0, abs=1e-15)
