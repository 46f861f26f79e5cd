"""The benchmark's workloads: generated inputs, operations and checks.

Every input the library receives is generated here from the workload seed,
as config text plus start points.  Seed 0 gives the acceptance-test inputs
exactly.  Other seeds perturb the start points, the plane's constant point
(its expected limit is recomputed from it), the Fredholm start (its limit
does not depend on it) and the audit seeds; schedules and tolerances never
change, so every seed does comparable work.

Each workload has a ``configs`` mapping (label -> config text), which the
benchmark loads and builds as its timed set-up, and a ``run_pass`` method
that makes one pass over its operations through a meter.  A pass records
each operation's result with a check; the checks run after the pass, so
that their cost stays out of the timed region.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Optional

import numpy as np
from viscofix import (
    MonotoneOperatorSpec,
    SchemeKind,
    Status,
    Termination,
    check_contraction,
    check_inverse_strongly_monotone,
    check_nonexpansive,
    compare_t16,
    eq75,
    halpern_mix,
    norm,
)

# Run lengths, fixed so that every commit does the same work.
PLANE_SCHEMES = ("explicit", "kema", "three_term", "new_implicit")
PLANE_TOL = 1e-3          # about 8000 steps per scheme
PLANE_LIMIT_TOL = 0.05
EQ75_SCHEMES = ("new_implicit", "three_term")
EQ75_STEPS = 10_000
FREDHOLM_GRIDS = (64, 256, 1024)
FREDHOLM_TOL = 1e-10
FREDHOLM_ORACLE_TOL = 1e-8
VALIDATE_HORIZON = 1_000_000
AUDIT_SAMPLES = 10_000
TRIAL_STARTS = 20
TRIAL_TOL = 1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class Solve:
    """One ``run`` call with its inputs, ready to be timed."""

    label: str
    space: object
    scheme: SchemeKind
    f: object
    T: object
    schedule: object
    x1: np.ndarray
    solver: object


class PassLog:
    """Operations attempted and failed, with the durations of the current pass.

    Results are checked by :meth:`check` once a pass is over.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.durations = {}
        self._pending = []

    def attempt(self, label: str, fn: Callable, check: Callable[[object], Optional[str]]):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        # An operation that raises is a failed operation, not a failed benchmark.
        except Exception as exc:  # noqa: BLE001
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None
        self.durations[label] = time.perf_counter() - t0
        self._pending.append((label, check, result))
        return result

    def verify(self, label: str, ok: bool, problem: str) -> bool:
        """Count one check made outside an operation; return ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {problem}")
        return ok

    def check(self):
        for label, check, result in self._pending:
            problem = check(result)
            if problem:
                self.failures.append(f"{label}: {problem}")
        self._pending = []


def _fmt(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _config(problem: str, scheme: str, schedule: str, solver: str = "",
            contraction: str = "", space: str = "") -> str:
    parts = [f"[problem]\n{problem}", f"[scheme]\nname = {scheme}", f"[schedule]\n{schedule}"]
    if contraction:
        parts.append(f"[contraction]\n{contraction}")
    if solver:
        parts.append(f"[solver]\n{solver}")
    if space:
        parts.append(f"[space]\n{space}")
    return "\n".join(parts) + "\n"


def _expect_termination(report, kind: Termination) -> Optional[str]:
    if report.termination is not kind:
        return f"termination {report.termination} ({report.message}), expected {kind}"
    return None


class SmallDim:
    """Overhead-bound: each step is mostly Python around a 1-D or 2-D ``T``."""

    name = "small-dim"

    def __init__(self, seed: int, work_dir):
        rng = np.random.default_rng(seed)
        scale = 0.0 if seed == 0 else 1.0
        # Only the constant point's first coordinate moves: the second one sets
        # the residual's 1/n constant, and so the step count to tolerance.
        self.point = np.array([3.0 + scale * rng.uniform(-1.0, 1.0), 4.0])
        self.plane_start = np.array([0.0, 5.0]) + scale * rng.uniform(-1.0, 1.0, 2)
        self.line_start = np.array([1.0]) + scale * rng.uniform(-0.5, 0.5, 1)
        self.work_dir = work_dir
        self.configs = {}
        for scheme in PLANE_SCHEMES:
            self.configs[f"plane-{scheme}"] = _config(
                "kind = line-projection",
                scheme,
                "preset = halpern-mix",
                f"outer_tol = {PLANE_TOL!r}\nmax_outer = 100000",
                f"kind = constant-point\npoint = {_fmt(self.point)}",
            )
        for scheme in EQ75_SCHEMES:
            self.configs[f"eq75-{scheme}"] = _config(
                "kind = builtin-linear\nslope = 0.5",
                scheme,
                "preset = eq75",
                f"outer_tol = 5e-9\nmax_outer = {EQ75_STEPS}",
                "kind = linear\nc = 0.25",
            )

    def prepare(self, built):
        self.plane, self.line = [], []
        for label, (cfg, setup) in built.items():
            plane = label.startswith("plane-")
            solver = dataclasses.replace(cfg.solver, record_trace=plane)
            x1 = self.plane_start if plane else self.line_start
            s = Solve(label, setup.space, cfg.scheme, setup.f, setup.T, cfg.schedule, x1, solver)
            (self.plane if plane else self.line).append(s)
        # The constant point's projection onto the axis is the selected limit.
        self.limit = np.array([self.point[0], 0.0])

    def _check_plane(self, report) -> Optional[str]:
        bad = _expect_termination(report, Termination.CONVERGED)
        if bad:
            return bad
        dist = float(np.linalg.norm(report.final_point - self.limit))
        if not dist <= PLANE_LIMIT_TOL:
            return f"limit {report.final_point} is {dist:.3g} from {self.limit}"
        if not report.final_residual <= PLANE_TOL:
            return f"residual {report.final_residual:.3g} above {PLANE_TOL}"
        return None

    @staticmethod
    def _check_line(report, start_index: int) -> Optional[str]:
        bad = _expect_termination(report, Termination.MAX_ITERS)
        if bad:
            return bad
        steps = report.n_final - start_index
        if steps != EQ75_STEPS:
            return f"stopped after {steps} steps, expected {EQ75_STEPS}"
        if not np.all(np.isfinite(report.final_point)):
            return f"non-finite final point {report.final_point}"
        return None

    def run_pass(self, meter, log: PassLog) -> None:
        for s in self.plane:
            report = log.attempt(s.label, lambda s=s: meter.solve(s), self._check_plane)
            if report is None:
                continue
            path = self.work_dir / f"{s.label}.csv"
            log.attempt(
                f"{s.label}/trace-csv",
                lambda: meter.trace_roundtrip(report.trace, path),
                lambda rows, trace=report.trace: None if rows == trace
                else "read_trace_csv(write_trace_csv(trace)) differs from trace",
            )
        for s in self.line:
            log.attempt(
                s.label,
                lambda s=s: meter.solve(s),
                lambda report, n0=s.schedule.start_index: self._check_line(report, n0),
            )


def _trapezoid(m: int):
    nodes = np.arange(m + 1) / m
    weights = np.full(m + 1, 1.0 / m)
    weights[[0, -1]] = 0.5 / m
    return nodes, weights


def _separable_oracle(m: int) -> np.ndarray:
    """Discrete Picard iteration of ``x = t + t/2 sum_j w_j t_j x_j``."""
    nodes, w = _trapezoid(m)
    x = nodes.copy()
    for _ in range(300):
        nxt = nodes + nodes * (0.5 * np.sum(w * nodes * x))
        if np.max(np.abs(nxt - x)) <= 1e-14:
            return nxt
        x = nxt
    return x


def _sine_oracle(m: int) -> np.ndarray:
    """``x = t + c`` with the scalar fixed point ``c = 1/2 sum_j w_j sin(t_j + c)``."""
    nodes, w = _trapezoid(m)
    c = 0.0
    for _ in range(200):
        nxt = 0.5 * float(np.sum(w * np.sin(nodes + c)))
        if abs(nxt - c) <= 1e-15:
            break
        c = nxt
    return nodes + c


class FredholmGrid:
    """Operator-bound: few steps, each a few ``(m+1)^2`` kernel evaluations."""

    name = "fredholm-grid"

    def __init__(self, seed: int, work_dir):
        rng = np.random.default_rng(seed)
        scale = 0.0 if seed == 0 else 1.0
        # Start perturbation a sin(k pi t + phase); the limit does not depend on it.
        self.bump = (scale * rng.uniform(-0.05, 0.05), int(rng.integers(1, 4)),
                     rng.uniform(0.0, math.pi))
        self.configs = {}
        cases = [(f"fredholm-m{m}", "separable-linear", m) for m in FREDHOLM_GRIDS]
        cases.append(("fredholm-sine-m256", "sine", 256))
        for label, kernel, m in cases:
            self.configs[label] = _config(
                f"kind = fredholm\nkernel = {kernel}\ngrid_size = {m}",
                "mann_implicit",
                "preset = halpern-mix",
                f"outer_tol = {FREDHOLM_TOL!r}\nmax_outer = 10000",
            )
        self.oracles = {
            label: (_separable_oracle(m) if kernel == "separable-linear" else _sine_oracle(m))
            for label, kernel, m in cases
        }

    def prepare(self, built):
        amp, k, phase = self.bump
        self.solves = []
        for label, (cfg, setup) in built.items():
            x1 = setup.x1 + amp * np.sin(k * math.pi * setup.nodes + phase)
            self.solves.append(Solve(label, setup.space, cfg.scheme, None, setup.T,
                                     cfg.schedule, x1, cfg.solver))
        self.nodes = {label: setup.nodes for label, (_, setup) in built.items()}

    def _checker(self, label: str):
        oracle = self.oracles[label]
        nodes = self.nodes[label]
        m = nodes.size - 1

        def check(report) -> Optional[str]:
            bad = _expect_termination(report, Termination.CONVERGED)
            if bad:
                return bad
            x = report.final_point
            err = float(np.max(np.abs(x - oracle)))
            if not err <= FREDHOLM_ORACLE_TOL:
                return f"sup error {err:.3g} vs the discrete Picard oracle"
            if "sine" not in label:
                # Trapezoid error of the integral of t^2 is h^2/6; the fixed
                # point amplifies it by at most 3/4, so |x - 1.2 t| <= h^2/8.
                bound = 1.0 / (8.0 * m * m) + FREDHOLM_ORACLE_TOL
                err = float(np.max(np.abs(x - 1.2 * nodes)))
                if not err <= bound:
                    return f"sup error {err:.3g} vs 1.2 t above the trapezoid bound {bound:.3g}"
            return None

        return check

    def run_pass(self, meter, log: PassLog) -> None:
        for s in self.solves:
            log.attempt(s.label, lambda s=s: meter.solve(s), self._checker(s.label))


# Criterion 7 of the acceptance tests fixes the eq75 row; the others follow
# from each preset's declared facts, and, for the custom schedule, from the
# numeric heuristics: drift -> 0.12 and alpha3 -> 0.4 stay away from 0.
_SAT, _VIO, _INC = Status.SATISFIED, Status.VIOLATED, Status.INCONCLUSIVE
EXPECTED_STATUSES = {
    "eq75": ({"i": _SAT, "ii": _SAT, "iii": _VIO, "iv": _VIO, "v": _SAT}, [1]),
    "halpern-mix": ({"i": _SAT, "ii": _VIO, "iii": _SAT, "iv": _VIO, "v": _SAT}, []),
    "compare-t16": ({"i": _SAT, "ii": _SAT, "iii": _VIO, "iv": _SAT, "v": _SAT}, [1]),
    "custom-rational": ({"i": _SAT, "ii": _VIO, "iii": _INC, "iv": _VIO, "v": _SAT}, [1]),
}

CUSTOM_SCHEDULE = """kind = custom-rational
n0 = 2
alpha1 = 0, 1, 1
alpha2 = 0.6, 0, 1
alpha3 = 0.4, -1, 1
delta = 0.7, -0.2, 1"""


class Diagnostics:
    """Check before you solve: schedule validator, property audits, trial solves."""

    name = "diagnostics"

    def __init__(self, seed: int, work_dir):
        rng = np.random.default_rng(seed)
        self.audit_seeds = [int(v) for v in rng.integers(0, 2**31, 3)]
        self.trial_starts = rng.uniform(-1.5, 1.5, (TRIAL_STARTS, 3))
        self.configs = {
            "monotone-ball": _config(
                "kind = monotone\ngamma = 0.5\nset = ball\nradius = 2.0",
                "new_implicit",
                CUSTOM_SCHEDULE,
                f"outer_tol = {TRIAL_TOL!r}\nmax_outer = 10000",
                "kind = linear\nc = 0.25",
                "kind = euclidean\ndim = 3",
            )
        }

    def prepare(self, built):
        cfg, setup = built["monotone-ball"]
        self.space = setup.space
        self.T, self.f = setup.T, setup.f
        self.A = MonotoneOperatorSpec(lambda x: x, ism_alpha=1.0, label="identity")
        self.schedules = {
            "eq75": eq75(), "halpern-mix": halpern_mix(), "compare-t16": compare_t16(),
            "custom-rational": cfg.schedule,
        }
        self.trials = [
            Solve(f"trial-{i}", setup.space, cfg.scheme, setup.f, setup.T,
                  cfg.schedule, x1, cfg.solver)
            for i, x1 in enumerate(self.trial_starts)
        ]

    @staticmethod
    def _status_checker(kind: str):
        statuses, ranges = EXPECTED_STATUSES[kind]

        def check(report) -> Optional[str]:
            got = {key: finding.status for key, finding in report.conditions.items()}
            if got != statuses or report.range_violations != ranges:
                return f"statuses {got}, range violations {report.range_violations[:8]}"
            return None

        return check

    def _check_trial(self, report) -> Optional[str]:
        bad = _expect_termination(report, Termination.CONVERGED)
        if bad:
            return bad
        dist = norm(self.space, report.final_point)
        return None if dist <= 10 * TRIAL_TOL else f"limit {dist:.3g} away from 0"

    def run_pass(self, meter, log: PassLog) -> None:
        for kind, schedule in self.schedules.items():
            log.attempt(
                f"validate-{kind}",
                lambda schedule=schedule: meter.validate(schedule, VALIDATE_HORIZON),
                self._status_checker(kind),
            )
        audits = (
            (check_nonexpansive, self.T), (check_contraction, self.f),
            (check_inverse_strongly_monotone, self.A),
        )
        for (check, target), seed in zip(audits, self.audit_seeds):
            log.attempt(
                check.__name__,
                lambda check=check, target=target, seed=seed:
                    meter.audit(check, self.space, target, AUDIT_SAMPLES, seed),
                lambda report: None if report.passed else "audit failed",
            )
        for s in self.trials:
            log.attempt(s.label, lambda s=s: meter.solve(s), self._check_trial)


WORKLOADS = {w.name: w for w in (SmallDim, FredholmGrid, Diagnostics)}
