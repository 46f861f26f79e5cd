#!/usr/bin/env python3
"""viscofix benchmark: time to a solution of stated accuracy, per workload.

Run from the root of a checkout (it imports the library from ``src/``):

    python3 perfbench/run.py --workload small-dim --seed 0 --seconds 20 --trace 0

Workloads are ``small-dim``, ``fredholm-grid`` and ``diagnostics`` (see
``workloads.py``).  A run sets every problem up and makes one untimed
warm-up pass.  Then, for ``--seconds`` seconds, it repeats passes over the
workload's operations, one operation at a time, with a few timed set-ups
of every problem before each pass.  Every operation's result is checked.

Every time is kept as its fastest value across passes, and a solve's
time as the sum of its outer steps' fastest times (see ``measure``).  A
per-layer value is its minimum across traced passes.

With ``--trace 0`` the passes are untraced and the metrics are the
end-to-end ones of ``BENCHMARK.json``.  With ``--trace 1`` traced and
untraced passes alternate, and the metrics are the per-layer ones,
measured from outside the library (see ``probe.py``); the spans are
written under ``perfbench/out/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed check is listed on standard error and makes the
exit code 1; a checkout without the library source gives exit code 2.
"""

import os

# Pin the BLAS thread count before numpy is loaded, so that every commit
# is measured with the same threading.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "out"

SETUP_WARMUP = 2
SETUP_REPS_PER_PASS = 5
MIN_PASSES = 5
PASS_TIME_CAP_S = 120.0
PER_SOLVE_PREFIXES = ("maps.T_per_step.", "maps.T_us_per_eval.", "solver.inner_per_step.")

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(paths, reps, probe=None):
    """Load and build every configured problem ``reps`` times.

    Returns the problems of the last repetition and, per repetition, a
    mapping from config label to its (load, build) times.
    """
    from viscofix.config import load_run_config
    from viscofix.problems import build_problem

    def timed(name, fn, arg):
        if probe is None:
            t0 = clock()
            result = fn(arg)
            return result, clock() - t0
        span = probe.begin(name)
        result = fn(arg)
        return result, probe.end(span)

    times = []
    for _ in range(reps):
        built, rep = {}, {}
        for label, path in paths.items():
            cfg, dt_load = timed("config.load_run_config", load_run_config, path)
            setup, dt_build = timed("problems.build_problem", build_problem, cfg)
            built[label] = (cfg, setup)
            rep[label] = (dt_load, dt_build)
        times.append(rep)
    return built, times


def solve_counts(meter):
    """Exact counters per solve; they must repeat bitwise from pass to pass."""
    return [
        (label, sp.steps, sp.inner_iters, sp.inner_iters_max, sp.T_calls,
         sp.T_repeats, sp.f_calls, sp.schedule_calls)
        for label, sp, _ in meter.solves
    ]


class Fastest:
    """Running minimum per label of a time (or array of times) that recurs each pass."""

    def __init__(self):
        self.best = {}

    def add(self, label, value):
        old = self.best.get(label)
        self.best[label] = value if old is None else np.minimum(old, value)

    def total(self, labels=None):
        return float(sum(np.sum(self.best[k]) for k in (self.best if labels is None else labels)))


@dataclasses.dataclass
class Measurement:
    load: Fastest = dataclasses.field(default_factory=Fastest)
    build: Fastest = dataclasses.field(default_factory=Fastest)
    ops: Fastest = dataclasses.field(default_factory=Fastest)
    traced_ops: Fastest = dataclasses.field(default_factory=Fastest)
    steps: Fastest = dataclasses.field(default_factory=Fastest)
    step_count: int = 0
    passes: int = 0
    layer_passes: list = dataclasses.field(default_factory=list)


def measure(workload, paths, seconds, probe, log):
    """Set up and warm up, then repeat passes until ``seconds`` have elapsed.

    Set-up repetitions are spread between the passes, so that set-up and
    pass times sample the same stretches of machine load.  With a probe,
    untraced and traced passes alternate.

    Times are kept as their fastest value across passes.  Runs are
    deterministic, so step ``n`` of a solve is the same work in every
    pass, and a solve's time is the sum of its steps' fastest times.
    Neighbours on a shared machine slow the program in bursts: a 30 us
    to 30 ms step often misses them where a whole solve never does, so
    these sums are the stable estimate of what the program itself costs.
    """
    from probe import Meter, TracedMeter

    built, _ = set_up(paths, SETUP_WARMUP, probe)
    workload.prepare(built)
    workload.run_pass(Meter(), log)
    log.check()
    m = Measurement()
    reference_counts = None
    start = clock()
    while True:
        for rep in set_up(paths, SETUP_REPS_PER_PASS, probe)[1]:
            for label, (load_s, build_s) in rep.items():
                m.load.add(label, load_s)
                m.build.add(label, build_s)
        for traced in (False, True) if probe is not None else (False,):
            meter = TracedMeter(probe) if traced else Meter()
            log.durations = {}
            workload.run_pass(meter, log)
            log.check()
            for label, dt in log.durations.items():
                (m.traced_ops if traced else m.ops).add(label, dt)
            if traced:
                meter.close()
                m.layer_passes.append(traced_pass_metrics(meter))
                counts = solve_counts(meter)
                if reference_counts is None:
                    reference_counts = counts
                else:
                    log.verify("exact-count self-check", counts == reference_counts,
                               "solve counters differ from the first traced pass")
                continue
            for label, times in meter.step_times.items():
                old = m.steps.best.get(label)
                if old is None or log.verify(label, old.size == times.size,
                                             "step count differs from an earlier pass"):
                    m.steps.add(label, times)
            m.step_count = meter.steps
            m.passes += 1
        elapsed = clock() - start
        if elapsed >= PASS_TIME_CAP_S or (elapsed >= seconds and m.passes >= MIN_PASSES):
            return m


def end_to_end_metrics(m, log):
    solves = list(m.steps.best)
    run_s = m.steps.total()
    return {
        "setup_s": m.load.total() + m.build.total(),
        "wall_s": run_s + m.ops.total([k for k in m.ops.best if k not in solves]),
        "run_us_per_step": run_s / m.step_count * 1e6,
        "ok_frac": (log.attempted - len(log.failures)) / log.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass_metrics(meter):
    """Per-layer values of one traced pass."""
    solves = meter.solves
    total = {key: sum(getattr(sp, key) for _, sp, _ in solves) for key in (
        "steps", "inner_iters", "T_calls", "T_s", "T_repeats", "f_calls", "f_s",
        "schedule_calls", "schedule_s", "observer_s",
    )}
    run_s = sum(r for _, _, r in solves)
    step_us = np.array([s for _, sp, _ in solves for s in sp.step_s]) * 1e6
    layers = meter.layers
    out = {
        "solver.outer_steps": total["steps"],
        "solver.inner_iters": total["inner_iters"],
        "solver.inner_iters_max": max((sp.inner_iters_max for _, sp, _ in solves), default=0),
        "solver.self_s": run_s - total["T_s"] - total["f_s"] - total["schedule_s"]
        - total["observer_s"],
        "solver.step_us_p50": float(np.percentile(step_us, 50)) if step_us.size else 0.0,
        "solver.step_us_p99": float(np.percentile(step_us, 99)) if step_us.size else 0.0,
        "solver.trace_write_s": layers["trace_write_s"],
        "solver.trace_read_s": layers["trace_read_s"],
        "solver.trace_rows": layers["trace_rows"],
        "maps.T_evals": total["T_calls"],
        "maps.T_s": total["T_s"],
        "maps.T_us_per_eval": total["T_s"] / total["T_calls"] * 1e6 if total["T_calls"] else 0.0,
        "maps.T_repeat_evals": total["T_repeats"],
        "maps.T_unique_ratio": 1.0 - total["T_repeats"] / total["T_calls"]
        if total["T_calls"] else 0.0,
        "maps.f_evals": total["f_calls"],
        "maps.f_s": total["f_s"],
        "maps.audit_pairs": layers["audit_pairs"],
        "maps.audit_s": layers["audit_s"],
        "schedules.evals": total["schedule_calls"],
        "schedules.s": total["schedule_s"],
        "schedules.validate_indices": layers["validate_indices"],
        "schedules.validate_s": layers["validate_s"],
    }
    for label, sp, _ in solves:
        out[f"maps.T_per_step.{label}"] = sp.T_calls / sp.steps if sp.steps else 0.0
        out[f"maps.T_us_per_eval.{label}"] = sp.T_s / sp.T_calls * 1e6 if sp.T_calls else 0.0
        out[f"solver.inner_per_step.{label}"] = sp.inner_iters / sp.steps if sp.steps else 0.0
    return out


def per_layer_metrics(m):
    out = {
        key: min(p[key] for p in m.layer_passes if key in p) for key in m.layer_passes[0]
    }
    out["config.load_s"] = m.load.total()
    out["problems.build_s"] = m.build.total()
    out["trace_overhead_frac"] = m.traced_ops.total() / m.ops.total() - 1.0
    return out


def select(declared, values):
    """Order ``values`` as ``BENCHMARK.json`` declares them, with units."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.startswith(PER_SOLVE_PREFIXES):
            value = 0.0  # this workload has no solve with that label
        else:
            raise KeyError(f"metric {name} declared in BENCHMARK.json was not measured")
        out[name] = {"value": float(value), "unit": spec["unit"]}
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "viscofix" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no viscofix source under {SRC} or no BENCHMARK.json in {ROOT}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import viscofix
    from probe import Probe
    from workloads import WORKLOADS, PassLog

    if Path(viscofix.__file__).resolve().parent != SRC / "viscofix":
        print(f"perfbench: imported viscofix from {viscofix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORK)
    paths = {}
    for label, text in workload.configs.items():
        paths[label] = WORK / f"{args.workload}-{label}.cfg"
        paths[label].write_text(text, encoding="ascii")

    probe = Probe() if args.trace else None
    log = PassLog()
    m = measure(workload, paths, args.seconds, probe, log)

    if probe is None:
        metrics = select(spec["end_to_end"], end_to_end_metrics(m, log))
    else:
        metrics = select(spec["per_layer"], per_layer_metrics(m))
        stem = WORK / f"trace-{args.workload}-seed{args.seed}"
        probe.write(stem)
        print(f"spans written to {stem}.spans.jsonl and {stem}.steps.npy")

    print(f"workload {args.workload}, seed {args.seed}, BLAS threads {BLAS_THREADS}: "
          f"{m.passes} untraced and {len(m.layer_passes)} traced passes after one warm-up "
          f"pass, {SETUP_REPS_PER_PASS} set-ups before each")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for failure in log.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(log.failures)
    print(json.dumps({
        "correct": failed == 0, "attempted": log.attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
