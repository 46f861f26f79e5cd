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
from .config import ContractionConfig, RunConfig
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


_FREDHOLM_BUILTINS = {
    "separable-linear": {
        "kernel": separable_linear_kernel,
        "g": lambda t: t,
        "lipschitz": 0.5,
        "solution": separable_linear_solution,
    },
    "sine": {
        "kernel": sine_kernel,
        "g": lambda t: t,
        "lipschitz": 0.5,
        "solution": None,
    },
    "zero": {
        "kernel": zero_kernel,
        "g": lambda t: t,
        "lipschitz": 0.0,
        "solution": lambda t: np.asarray(t, dtype=np.float64),
    },
}


@dataclass(frozen=True, eq=False)
class ProblemSetup:
    """Everything a command needs to run one configured problem."""

    space: spc.SpaceDescriptor
    T: NonexpansiveMap
    f: Optional[GeneralizedContraction]
    x1: np.ndarray
    known_fixed_point: Optional[np.ndarray] = None
    vi_samples: Optional[List[np.ndarray]] = None
    nodes: Optional[np.ndarray] = None
    closed_form: Optional[Callable] = None


def _build_contraction(
    cfg: Optional[ContractionConfig], space: spc.SpaceDescriptor
) -> Optional[GeneralizedContraction]:
    if cfg is None:
        return None
    if cfg.kind == "linear":
        c = cfg.params["c"]
        modulus = maps.linear_modulus(c)

        def scaled(x, _c=float(c)):
            return _c * x

        return GeneralizedContraction(scaled, modulus, label=f"linear c={c:g}")
    if cfg.kind == "rational":
        beta = cfg.params["beta"]
        # worst pair for x / (1 + beta||x||) is antipodal, which halves the
        # effective modulus coefficient: ||fx - fy|| <= d / (1 + (beta/2) d)
        modulus = maps.rational_modulus(beta / 2.0)

        def damped(x, _b=float(beta), _norm=space.norm):
            return x / (1.0 + _b * _norm(x))

        return GeneralizedContraction(damped, modulus, label=f"rational beta={beta:g}")
    point = space.point(np.asarray(cfg.params["point"], dtype=np.float64))

    def constant(_x, _p=point):
        return _p

    return GeneralizedContraction(
        constant, maps.linear_modulus(0.0), label="constant point"
    )


def _check_space_section(cfg: RunConfig, kind: str, dim=None, grid=None) -> None:
    if cfg.space_kind is None:
        return
    if cfg.space_kind != kind:
        raise ConfigurationError(
            f"[space] kind = {cfg.space_kind} does not match the "
            f"{cfg.problem.kind} problem (needs {kind})"
        )
    if dim is not None and cfg.space_dim not in (None, dim):
        raise ConfigurationError(
            f"[space] dim = {cfg.space_dim} does not match the "
            f"{cfg.problem.kind} problem (needs {dim})"
        )
    if grid is not None and cfg.space_grid_size not in (None, grid):
        raise ConfigurationError(
            f"[space] grid_size = {cfg.space_grid_size} does not match the "
            f"problem's grid_size = {grid}"
        )


def build_problem(cfg: RunConfig) -> ProblemSetup:
    """Assemble the configured problem, validating every precondition."""
    kind = cfg.problem.kind
    params = cfg.problem.params

    if kind == "builtin-linear":
        slope = params["slope"]
        if not (-1.0 <= slope <= 1.0):
            raise ConfigurationError(
                f"builtin-linear slope must lie in [-1, 1] to be nonexpansive, got {slope}"
            )
        _check_space_section(cfg, "euclidean", dim=1)
        space = spc.euclidean(1)
        fixed = None if slope == 1.0 else np.zeros(1)

        def linear(x, _s=float(slope)):
            return _s * x

        T = NonexpansiveMap(
            evaluator=linear,
            known_fixed_set=None if fixed is None else spc.Box(fixed, fixed),
            label=f"linear slope={slope:g}",
        )
        return ProblemSetup(
            space=space,
            T=T,
            f=_build_contraction(cfg.contraction, space),
            x1=np.ones(1),
            known_fixed_point=fixed,
            vi_samples=None if fixed is None else [np.zeros(1)],
        )

    if kind == "line-projection":
        _check_space_section(cfg, "euclidean", dim=2)
        space = spc.euclidean(2)
        axis = spc.AffineSpan(space, base=np.zeros(2), directions=[[1.0, 0.0]])

        def onto_axis(x, _axis=axis, _space=space):
            return _axis.project(_space, x)

        T = NonexpansiveMap(evaluator=onto_axis, known_fixed_set=axis, label="axis projection")
        f = _build_contraction(cfg.contraction, space)
        known = None
        if f is not None and cfg.contraction.kind == "constant-point":
            known = axis.project(space, f.evaluator(np.zeros(2)))
        samples = [np.array([s, 0.0]) for s in np.linspace(-10.0, 10.0, 41)]
        return ProblemSetup(
            space=space,
            T=T,
            f=f,
            x1=np.array([0.0, 5.0]),
            known_fixed_point=known,
            vi_samples=samples,
        )

    if kind == "pseudocontraction":
        k = params["k"]
        if not (0.0 < k < 1.0):
            raise ConfigurationError(
                f"pseudocontraction coefficient k must lie in (0, 1), got {k:g}"
            )
        lam = params["lambda"]
        theta = params["theta"]
        smooth_l = params.get("L", 1.0)
        _check_space_section(cfg, "euclidean", dim=1)
        space = spc.euclidean(1)

        def flipped(x, _k=float(k)):
            return -_k * x

        T = maps.average_pseudocontraction(
            flipped, lam=lam, theta=theta, smooth_L=smooth_l, label=f"averaged -{k:g}x"
        )
        zero = np.zeros(1)
        return ProblemSetup(
            space=space,
            T=T,
            f=_build_contraction(cfg.contraction, space),
            x1=np.ones(1),
            known_fixed_point=zero,
            vi_samples=[zero],
        )

    if kind == "monotone":
        dim = cfg.space_dim if cfg.space_dim is not None else 2
        _check_space_section(cfg, "euclidean", dim=dim)
        space = spc.euclidean(dim)
        if params["set"] == "ball":
            constraint = spc.Ball(np.zeros(dim), params["radius"])
        else:
            constraint = spc.WholeSpace()
        A = maps.MonotoneOperatorSpec(lambda x: x, ism_alpha=1.0, label="identity")
        T = maps.forward_projected(space, constraint, A, gamma=params["gamma"])
        zero = np.zeros(dim)
        return ProblemSetup(
            space=space,
            T=T,
            f=_build_contraction(cfg.contraction, space),
            x1=np.ones(dim),
            known_fixed_point=zero,
            vi_samples=[zero],
        )

    if kind == "fredholm":
        builtin = _FREDHOLM_BUILTINS[params["kernel"]]
        grid_size = params["grid_size"]
        _check_space_section(cfg, "trapezoid", grid=grid_size)
        problem = maps.FredholmProblem(
            g=builtin["g"],
            kernel=builtin["kernel"],
            lipschitz_bound=builtin["lipschitz"],
            grid_size=grid_size,
        )
        space, nodes = maps.fredholm_grid(problem)
        T = maps.fredholm_operator(problem)
        return ProblemSetup(
            space=space,
            T=T,
            f=_build_contraction(cfg.contraction, space),
            x1=np.asarray(builtin["g"](nodes), dtype=np.float64),
            nodes=nodes,
            closed_form=builtin["solution"],
        )

    raise ConfigurationError(f"unknown problem kind: {kind!r}")
