"""Command-line front end.

Commands
--------
``solve --config PATH [--trace PATH]``
    Run the configured scheme until the fixed-point residual meets the
    tolerance; print the outcome and optionally write the iteration trace
    as CSV.
``validate-schedule (--preset NAME | --config PATH) --horizon N``
    Print the admissibility report of a schedule, one line per condition.
``compare --config PATH --schemes A,B``
    Run two implicit schemes on the same problem and schedule and print
    the distance between their limits.
``fredholm --config PATH [--out PATH]``
    Solve the configured integral equation and print the grid solution.

Exit codes: 0 on success (converged, or findings printed), 1 on
configuration problems (including schedule range violations), 2 when a
run stops without converging (iteration budget reached, a non-finite
iterate, or an implicit step's inner solve failing).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional

import numpy as np

from . import __version__
from .config import (
    SectionView,
    load_run_config,
    read_sections,
    schedule_from_section,
    schedule_preset,
)
from .errors import ConfigurationError, InnerSolveError, ViscofixError
from .problems import ProblemSetup, build_problem
from .schedules import Status, validate_assumption12
from .solver import (
    IDENTITY_SCHEMES,
    SchemeKind,
    SolveReport,
    Termination,
    compare_limits,
    run,
    vi_residual,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2

_WARN_HORIZON = 1000


def _format_point(x: np.ndarray) -> str:
    if x.size <= 8:
        return "(" + ", ".join(f"{v:.12g}" for v in x) + ")"
    head = ", ".join(f"{v:.12g}" for v in x[:3])
    return f"({head}, ..., {x[-1]:.12g}) [{x.size} components]"


def _print_schedule_warnings(schedule) -> None:
    horizon = max(_WARN_HORIZON, schedule.start_index + 100)
    report = validate_assumption12(schedule, horizon)
    for key in ("ii", "iii", "iv", "v"):
        finding = report.conditions[key]
        if finding.status is Status.VIOLATED:
            print(
                f"warning: schedule condition ({key}) violated: {finding.detail}",
                file=sys.stderr,
            )


def _run_configured(
    setup: ProblemSetup, scheme: SchemeKind, schedule, solver_cfg
) -> SolveReport:
    f = None if scheme in IDENTITY_SCHEMES else setup.f
    if scheme not in IDENTITY_SCHEMES and f is None:
        raise ViscofixError(
            f"scheme {scheme} needs a [contraction] section for the viscosity term"
        )
    return run(setup.space, scheme, f, setup.T, schedule, setup.x1, solver_cfg)


def _termination_exit(report: SolveReport) -> int:
    if report.termination is Termination.CONVERGED:
        return EXIT_OK
    if report.termination in (Termination.MAX_ITERS, Termination.NON_FINITE):
        return EXIT_NOT_CONVERGED
    return EXIT_CONFIG


def cmd_solve(args) -> int:
    cfg = load_run_config(args.config)
    trace_path = args.trace if args.trace is not None else cfg.trace_path
    solver_cfg = dataclasses.replace(cfg.solver, record_trace=trace_path is not None)
    setup = build_problem(cfg)
    _print_schedule_warnings(cfg.schedule)
    report = _run_configured(setup, cfg.scheme, cfg.schedule, solver_cfg)

    print(f"termination: {report.termination}")
    if report.message:
        print(f"note: {report.message}")
    print(f"iterations: {report.n_final - cfg.schedule.start_index}")
    print(f"final point: {_format_point(report.final_point)}")
    print(f"final residual: {report.final_residual:.6g}")
    if setup.vi_samples and setup.f is not None and cfg.scheme not in IDENTITY_SCHEMES:
        value = vi_residual(setup.space, report.final_point, setup.f, setup.vi_samples)
        print(f"variational-inequality residual: {value:.6g}")
    if trace_path is not None:
        write_trace_csv(report.trace, trace_path)
        print(f"trace written: {trace_path} ({len(report.trace)} rows)")
    return _termination_exit(report)


def cmd_validate_schedule(args) -> int:
    if args.preset is not None:
        schedule = schedule_preset(args.preset)()
    else:
        sections = read_sections(args.config)
        if "schedule" not in sections:
            raise ConfigurationError(f"{args.config}: missing [schedule] section")
        schedule = schedule_from_section(
            SectionView("schedule", sections["schedule"], str(args.config))
        )
    report = validate_assumption12(schedule, args.horizon)
    print(f"schedule: {schedule.kind} (start index {schedule.start_index})")
    print(report.render())
    return EXIT_OK


def cmd_compare(args) -> int:
    names = [part.strip() for part in args.schemes.split(",")]
    if len(names) != 2:
        raise ConfigurationError("--schemes needs exactly two comma-separated names")
    schemes = []
    for name in names:
        try:
            scheme = SchemeKind(name)
        except ValueError:
            known = ", ".join(kind.value for kind in SchemeKind)
            raise ConfigurationError(f"unknown scheme {name!r} (known: {known})") from None
        if scheme is SchemeKind.EXPLICIT:
            raise ConfigurationError(
                f"compare needs implicit-capable schemes; {name!r} is the explicit scheme"
            )
        schemes.append(scheme)

    cfg = load_run_config(args.config)
    setup = build_problem(cfg)
    _print_schedule_warnings(cfg.schedule)
    solver_cfg = dataclasses.replace(cfg.solver, record_trace=False)
    reports = []
    for scheme in schemes:
        report = _run_configured(setup, scheme, cfg.schedule, solver_cfg)
        print(
            f"{scheme}: termination {report.termination}, "
            f"final {_format_point(report.final_point)}, "
            f"residual {report.final_residual:.6g}",
        )
        reports.append(report)
    if any(r.termination is Termination.SCHEDULE_RANGE_VIOLATION for r in reports):
        print("error: schedule evaluated outside its valid range", file=sys.stderr)
        return EXIT_CONFIG
    not_converged = [
        (scheme, report)
        for scheme, report in zip(schemes, reports)
        if report.termination is not Termination.CONVERGED
    ]
    if not_converged:
        which = ", ".join(str(scheme) for scheme, _ in not_converged)
        print(f"error: run did not converge for: {which}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    distance = compare_limits(reports[0], reports[1])
    print(f"limit distance: {distance:.6g}")
    return EXIT_OK


def cmd_fredholm(args) -> int:
    cfg = load_run_config(args.config)
    setup = build_problem(cfg)
    if setup.nodes is None:
        raise ConfigurationError(
            f"{args.config}: the fredholm command needs a fredholm problem "
            f"section, got kind = {cfg.problem['kind'].value}"
        )
    _print_schedule_warnings(cfg.schedule)
    solver_cfg = dataclasses.replace(cfg.solver, record_trace=False)
    report = _run_configured(setup, cfg.scheme, cfg.schedule, solver_cfg)
    print(f"termination: {report.termination}")
    print(f"final residual: {report.final_residual:.6g}")
    if setup.closed_form is not None:
        exact = setup.closed_form(setup.nodes)
        sup_error = float(np.max(np.abs(report.final_point - exact)))
        print(f"sup error vs closed form: {sup_error:.6g}")
    table = "t,x\n" + "".join(
        f"{t:.17g},{x:.17g}\n" for t, x in zip(setup.nodes, report.final_point)
    )
    print(table, end="")
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(table)
        print(f"solution written: {args.out}")
    return _termination_exit(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscofix",
        description="Fixed points of nonexpansive maps by viscosity implicit iterations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one configured solve")
    solve.add_argument("--config", required=True, help="path to the config file")
    solve.add_argument("--trace", help="write the iteration trace CSV here")
    solve.set_defaults(handler=cmd_solve)

    validate = sub.add_parser("validate-schedule", help="check schedule admissibility")
    group = validate.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="preset name")
    group.add_argument("--config", help="config file with a [schedule] section")
    validate.add_argument("--horizon", type=int, required=True, help="largest index checked")
    validate.set_defaults(handler=cmd_validate_schedule)

    compare = sub.add_parser("compare", help="run two schemes and compare limits")
    compare.add_argument("--config", required=True, help="path to the config file")
    compare.add_argument(
        "--schemes", required=True, help="two comma-separated scheme names"
    )
    compare.set_defaults(handler=cmd_compare)

    fredholm = sub.add_parser("fredholm", help="solve the configured integral equation")
    fredholm.add_argument("--config", required=True, help="path to the config file")
    fredholm.add_argument("--out", help="write the grid solution CSV here")
    fredholm.set_defaults(handler=cmd_fredholm)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InnerSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (ViscofixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
