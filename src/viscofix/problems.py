"""Builtin problem catalog wiring configs to spaces, operators, and starts.

Each problem kind assembles the target operator ``T``, a canonical
starting point, and whatever is known about the fixed-point set for
diagnostics.  The catalog is fixed; arbitrary user functions are out of
scope by design.

Problem kinds
-------------
``builtin-linear``
    1-d map ``T(x) = slope * x`` with ``|slope| <= 1``; fixed point 0
    (every point when slope = 1).  Start ``x = 1``.
``line-projection``
    The plane with ``T`` the orthogonal projection onto the first axis;
    the whole axis is fixed.  Start off the axis at (0, 5) so runs have
    to travel to the viscosity-selected fixed point.
``pseudocontraction``
    1-d ``S(x) = -k x`` averaged into ``T(x) = theta x + (1-theta) S(x)``
    under the admissibility bound on ``theta``.  Fixed point 0, start 1.
``monotone``
    Projected forward step ``x -> P_K(x - gamma x)`` of the identity
    operator over ``K`` (whole space or a ball at the origin).  Fixed
    point 0, start at the all-ones vector.
``fredholm``
    Quadrature discretization of a second-kind integral operator with one
    of the builtin kernels.  Start at the source term on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import maps, space as spc
from .config import RunConfig, SectionView
from .errors import ConfigurationError
from .maps import GeneralizedContraction, NonexpansiveMap

__all__ = [
    "ProblemSetup",
    "build_problem",
    "separable_linear_kernel",
    "sine_kernel",
    "zero_kernel",
    "separable_linear_solution",
]


def separable_linear_kernel(t, s, x):
    """Kernel ``(t s / 2) x``; Lipschitz bound 1/2 in ``x``."""
    return (t * s / 2.0) * x


def sine_kernel(t, s, x):
    """Kernel ``sin(x) / 2``; Lipschitz bound 1/2 in ``x``."""
    return 0.5 * np.sin(x)


def zero_kernel(t, s, x):
    """Identically-zero kernel; the operator degenerates to ``x -> g``."""
    return np.zeros_like(np.asarray(x, dtype=np.float64))


def separable_linear_solution(t):
    """Closed-form solution of the separable-linear problem with g(t) = t."""
    return 1.2 * t


# Builtin kernels for the source term g(t) = t: their FredholmProblem
# fields and the closed-form solution, when one is known.
_FREDHOLM_BUILTINS = {
    "separable-linear": (
        dict(kernel=separable_linear_kernel, lipschitz_bound=0.5, linear=True),
        separable_linear_solution,
    ),
    "sine": (dict(kernel=sine_kernel, lipschitz_bound=0.5), None),
    # Not declared linear: 0 * nan is nan, and the general path keeps T(x) = g for any x.
    "zero": (
        dict(kernel=zero_kernel, lipschitz_bound=0.0),
        lambda t: np.asarray(t, dtype=np.float64),
    ),
}


@dataclass(frozen=True, eq=False)
class ProblemSetup:
    """Everything a command needs to run one configured problem."""

    space: spc.SpaceDescriptor
    T: NonexpansiveMap
    f: Optional[GeneralizedContraction]
    x1: np.ndarray
    vi_samples: Optional[List[np.ndarray]] = None
    nodes: Optional[np.ndarray] = None
    closed_form: Optional[Callable] = None


# [space] kind -> (key giving its size, constructor, end of the size-mismatch message)
_SPACES = {
    "euclidean": ("dim", spc.euclidean, "the {problem} problem (needs {size})"),
    "trapezoid": ("grid_size", spc.trapezoid, "the problem's grid_size = {size}"),
}


def _space(cfg: RunConfig, needs: str, size: Optional[int] = None) -> spc.SpaceDescriptor:
    """The problem's space of the ``_SPACES`` kind ``needs``, checked against [space].

    With ``size = None`` the size comes from [space], or is 2 when there is
    no such section.
    """
    if cfg.space is None:
        return _SPACES[needs][1](2 if size is None else size)
    view = SectionView("space", cfg.space, cfg.origin)
    kind = view.str_value("kind", required=True, choices=_SPACES)
    key, make, mismatch = _SPACES[kind]
    declared = view.int_value(key)
    if declared is None:
        raise view.error(f"kind = {kind} needs '{key}'")
    view.finish()
    problem = cfg.problem["kind"].value
    if kind != needs:
        raise ConfigurationError(
            f"[space] kind = {kind} does not match the {problem} problem (needs {needs})"
        )
    if size is not None and declared != size:
        raise ConfigurationError(
            f"[space] {key} = {declared} does not match "
            + mismatch.format(problem=problem, size=size)
        )
    return make(declared)


def _linear_contraction(view: SectionView, space: spc.SpaceDescriptor) -> GeneralizedContraction:
    c = view.float_value("c", required=True)
    modulus = maps.linear_modulus(c)

    def scaled(x, _c=float(c)):
        return _c * x

    return GeneralizedContraction(scaled, modulus, label=f"linear c={c:g}")


def _rational_contraction(view: SectionView, space: spc.SpaceDescriptor) -> GeneralizedContraction:
    beta = view.float_value("beta", required=True)
    # worst pair for x / (1 + beta||x||) is antipodal, which halves the
    # effective modulus coefficient: ||fx - fy|| <= d / (1 + (beta/2) d)
    modulus = maps.rational_modulus(beta / 2.0)

    def damped(x, _b=float(beta), _norm=space.norm):
        return x / (1.0 + _b * _norm(x))

    return GeneralizedContraction(damped, modulus, label=f"rational beta={beta:g}")


def _constant_point(view: SectionView, space: spc.SpaceDescriptor) -> GeneralizedContraction:
    point = space.point(np.asarray(view.float_list("point"), dtype=np.float64))

    def constant(_x, _p=point):
        return _p

    return GeneralizedContraction(
        constant, maps.linear_modulus(0.0), label="constant point"
    )


_CONTRACTIONS = {
    "linear": _linear_contraction,
    "rational": _rational_contraction,
    "constant-point": _constant_point,
}


def _contraction(cfg: RunConfig, space: spc.SpaceDescriptor) -> Optional[GeneralizedContraction]:
    """The map ``f`` of the [contraction] section on ``space``; None without one."""
    if cfg.contraction is None:
        return None
    view = SectionView("contraction", cfg.contraction, cfg.origin)
    f = _CONTRACTIONS[view.str_value("kind", required=True, choices=_CONTRACTIONS)](view, space)
    view.finish()
    return f


def _fixed_at_origin(
    cfg: RunConfig, space: spc.SpaceDescriptor, T: NonexpansiveMap, known: bool = True
) -> ProblemSetup:
    """Setup started at the all-ones point for a ``T`` that fixes the origin.

    ``known = False`` when the origin is not the only fixed point.
    """
    zero = np.zeros(space.dim)
    return ProblemSetup(
        space=space,
        T=T,
        f=_contraction(cfg, space),
        x1=np.ones(space.dim),
        vi_samples=[zero] if known else None,
    )


def _builtin_linear(view: SectionView, cfg: RunConfig) -> ProblemSetup:
    slope = view.float_value("slope", required=True)
    if not (-1.0 <= slope <= 1.0):
        raise ConfigurationError(
            f"builtin-linear slope must lie in [-1, 1] to be nonexpansive, got {slope}"
        )
    space = _space(cfg, "euclidean", 1)

    def linear(x, _s=float(slope)):
        return _s * x

    T = NonexpansiveMap(evaluator=linear, label=f"linear slope={slope:g}")
    return _fixed_at_origin(cfg, space, T, known=slope != 1.0)


def _line_projection(view: SectionView, cfg: RunConfig) -> ProblemSetup:
    space = _space(cfg, "euclidean", 2)
    axis = spc.AffineSpan(space, base=np.zeros(2), directions=[[1.0, 0.0]])

    def onto_axis(x, _axis=axis, _space=space):
        return _axis.project(_space, x)

    T = NonexpansiveMap(evaluator=onto_axis, label="axis projection")
    samples = [np.array([s, 0.0]) for s in np.linspace(-10.0, 10.0, 41)]
    return ProblemSetup(
        space=space,
        T=T,
        f=_contraction(cfg, space),
        x1=np.array([0.0, 5.0]),
        vi_samples=samples,
    )


def _pseudocontraction(view: SectionView, cfg: RunConfig) -> ProblemSetup:
    k = view.float_value("k", required=True)
    lam = view.float_value("lambda", required=True)
    theta = view.float_value("theta", required=True)
    smooth_l = view.float_value("L", default=1.0)
    if not (0.0 < k < 1.0):
        raise ConfigurationError(
            f"pseudocontraction coefficient k must lie in (0, 1), got {k:g}"
        )
    space = _space(cfg, "euclidean", 1)

    def flipped(x, _k=float(k)):
        return -_k * x

    T = maps.average_pseudocontraction(
        flipped, lam=lam, theta=theta, smooth_L=smooth_l, label=f"averaged -{k:g}x"
    )
    return _fixed_at_origin(cfg, space, T)


def _monotone(view: SectionView, cfg: RunConfig) -> ProblemSetup:
    gamma = view.float_value("gamma", required=True)
    ball = view.str_value("set", required=True, choices={"whole-space", "ball"}) == "ball"
    radius = view.float_value("radius")
    if ball and radius is None:
        raise view.error("set = ball needs a 'radius' key")
    if not ball and radius is not None:
        raise view.error("'radius' only applies when set = ball")
    space = _space(cfg, "euclidean")
    constraint = spc.Ball(np.zeros(space.dim), radius) if ball else spc.WholeSpace()
    A = maps.MonotoneOperatorSpec(lambda x: x, ism_alpha=1.0, label="identity")
    T = maps.forward_projected(space, constraint, A, gamma=gamma)
    return _fixed_at_origin(cfg, space, T)


def _fredholm(view: SectionView, cfg: RunConfig) -> ProblemSetup:
    fields, solution = _FREDHOLM_BUILTINS[
        view.str_value("kernel", required=True, choices=_FREDHOLM_BUILTINS)
    ]
    grid_size = view.int_value("grid_size", required=True)
    problem = maps.FredholmProblem(g=lambda t: t, grid_size=grid_size, **fields)
    space = _space(cfg, "trapezoid", grid_size)
    nodes = spc.trapezoid_nodes(grid_size)
    return ProblemSetup(
        space=space,
        T=maps.fredholm_operator(problem),
        f=_contraction(cfg, space),
        x1=np.asarray(problem.g(nodes), dtype=np.float64),
        nodes=nodes,
        closed_form=solution,
    )


_PROBLEMS = {
    "builtin-linear": _builtin_linear,
    "line-projection": _line_projection,
    "pseudocontraction": _pseudocontraction,
    "monotone": _monotone,
    "fredholm": _fredholm,
}


def build_problem(cfg: RunConfig) -> ProblemSetup:
    """Assemble the configured problem, validating every precondition.

    Validates the [problem], [contraction] and [space] sections of ``cfg``
    (:func:`viscofix.config.load_run_config` validates the others): their
    keys and values, the ranges that make ``T`` nonexpansive and ``f`` a
    contraction, and that [space] describes the problem's space.
    """
    view = SectionView("problem", cfg.problem, cfg.origin)
    setup = _PROBLEMS[view.str_value("kind", required=True, choices=_PROBLEMS)](view, cfg)
    view.finish()
    return setup
