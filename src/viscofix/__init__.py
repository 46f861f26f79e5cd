"""Fixed points of nonexpansive maps by viscosity implicit iterations.

The package bundles a small Hilbert-space toolkit (weighted inner
products, convex projections), map wrappers with property spot-checks,
admissible parameter schedules, the implicit iteration engine, and a
config-driven command line.  Its public names are those of the
``__all__`` of :mod:`.errors`, :mod:`.maps`, :mod:`.schedules`,
:mod:`.solver` and :mod:`.space`, republished here.
"""

from . import errors, maps, schedules, solver, space
from .errors import *  # noqa: F403
from .maps import *  # noqa: F403
from .schedules import *  # noqa: F403
from .solver import *  # noqa: F403
from .space import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, maps, schedules, solver, space)
    for name in module.__all__
]
