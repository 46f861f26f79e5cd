"""Tracing for the benchmark's traced run, from outside the library only.

Nothing here reaches into viscofix internals.  A solve is instrumented
through the callables the library already accepts: the ``evaluator`` of
the ``NonexpansiveMap`` and of the ``GeneralizedContraction``, the
``formula`` of the ``Schedule`` and the ``observer`` hook of ``run``.
Other layers are timed around calls into their public functions.

Spans (name, start, end, parent, solve id) are kept in memory and written
out when the benchmark ends.  ``T`` is called more than 10^5 times per
pass on the small problems, so calls inside a solve are not spans of
their own: they are summed per outer step into one row of ``steps``
(columns ``STEP_COLUMNS``), which keeps the volume proportional to the
number of steps.
"""

from __future__ import annotations

import dataclasses
import json
import time
from array import array

import numpy as np
from viscofix import read_trace_csv, run, validate_assumption12, write_trace_csv

clock = time.perf_counter

STEP_COLUMNS = (
    "solve_id", "n", "start", "end", "inner_iters",
    "T_calls", "T_s", "f_calls", "f_s", "schedule_calls", "schedule_s",
)


class Probe:
    """In-memory span store for one traced benchmark run."""

    def __init__(self):
        self.spans = []
        self.steps = array("d")
        self._next_id = 1

    def begin(self, name, parent=0):
        span = [self._next_id, parent, name, clock(), None]
        self._next_id += 1
        self.spans.append(span)
        return span

    @staticmethod
    def end(span):
        span[4] = clock()
        return span[4] - span[3]

    def write(self, stem):
        """Write the spans as JSON lines and the step rows as a .npy array."""
        with open(f"{stem}.spans.jsonl", "w") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                ) + "\n")
        rows = np.frombuffer(self.steps, dtype=np.float64).reshape(-1, len(STEP_COLUMNS))
        np.save(f"{stem}.steps.npy", rows)


class SolveProbe:
    """Counting, timing wrappers and an observer for one ``run`` call."""

    def __init__(self, probe, solve_id):
        self._probe = probe
        self._solve_id = solve_id
        self.T_calls = 0
        self.T_s = 0.0
        self.T_repeats = 0
        self._T_last_arg = None
        self.f_calls = 0
        self.f_s = 0.0
        self.schedule_calls = 0
        self.schedule_s = 0.0
        self.observer_s = 0.0
        self.steps = 0
        self.inner_iters = 0
        self.inner_iters_max = 0
        self.step_s = []
        self._last = (0, 0.0, 0, 0.0, 0, 0.0)
        self._seen_initial = False
        self._t_last = clock()

    def wrap_T(self, T):
        inner = T.evaluator

        def timed(x):
            arg = x.tobytes()
            if arg == self._T_last_arg:
                self.T_repeats += 1
            self._T_last_arg = arg
            t0 = clock()
            y = inner(x)
            self.T_s += clock() - t0
            self.T_calls += 1
            return y

        return dataclasses.replace(T, evaluator=timed)

    def wrap_f(self, f):
        if f is None:
            return None
        inner = f.evaluator

        def timed(x):
            t0 = clock()
            y = inner(x)
            self.f_s += clock() - t0
            self.f_calls += 1
            return y

        return dataclasses.replace(f, evaluator=timed)

    def wrap_schedule(self, schedule):
        inner = schedule.formula

        def timed(n):
            t0 = clock()
            y = inner(n)
            self.schedule_s += clock() - t0
            self.schedule_calls += 1
            return y

        return dataclasses.replace(schedule, formula=timed)

    def observe(self, state):
        now = clock()
        counts = (
            self.T_calls, self.T_s, self.f_calls, self.f_s,
            self.schedule_calls, self.schedule_s,
        )
        deltas = tuple(c - p for c, p in zip(counts, self._last))
        self._probe.steps.extend(
            (self._solve_id, state.n, self._t_last, now, state.last_inner_iters) + deltas
        )
        # The first call carries the initial state; every later call closes a step.
        if self._seen_initial:
            self.steps += 1
            self.inner_iters += state.last_inner_iters
            self.inner_iters_max = max(self.inner_iters_max, state.last_inner_iters)
            self.step_s.append(now - self._t_last)
        self._seen_initial = True
        self._last = counts
        self._t_last = now
        self.observer_s += clock() - now


class Meter:
    """Makes the library calls of one untraced pass.

    ``run`` gets an observer that only reads the clock, so that each solve
    yields its intervals: from the call to the initial state, one per
    outer step, and from the last step to the return.
    """

    def __init__(self):
        self.step_times = {}
        self.steps = 0

    def solve(self, s):
        stamps = [clock()]
        report = run(
            s.space, s.scheme, s.f, s.T, s.schedule, s.x1, s.solver,
            observer=lambda _state, _stamp=stamps.append: _stamp(clock()),
        )
        stamps.append(clock())
        self.step_times[s.label] = np.diff(stamps)
        self.steps += report.n_final - s.schedule.start_index
        return report

    def trace_roundtrip(self, trace, path):
        write_trace_csv(trace, path)
        return read_trace_csv(path)

    def validate(self, schedule, horizon):
        return validate_assumption12(schedule, horizon)

    def audit(self, check, space, target, n_samples, seed):
        return check(space, target, n_samples=n_samples, seed=seed)


class TracedMeter(Meter):
    """A :class:`Meter` that records spans and per-layer counts and times."""

    def __init__(self, probe):
        super().__init__()
        self.probe = probe
        self.pass_span = probe.begin("pass")
        self.solves = []
        self.layers = dict.fromkeys(
            ("trace_write_s", "trace_read_s", "trace_rows", "validate_s",
             "validate_indices", "audit_s", "audit_pairs"),
            0,
        )

    def _timed(self, name, key, fn, *args, **kwargs):
        span = self.probe.begin(name, self.pass_span[0])
        result = fn(*args, **kwargs)
        self.layers[key] += self.probe.end(span)
        return result

    def solve(self, s):
        span = self.probe.begin("solver.run", self.pass_span[0])
        sp = SolveProbe(self.probe, span[0])
        report = run(
            s.space, s.scheme, sp.wrap_f(s.f), sp.wrap_T(s.T),
            sp.wrap_schedule(s.schedule), s.x1, s.solver, observer=sp.observe,
        )
        self.solves.append((s.label, sp, self.probe.end(span)))
        return report

    def trace_roundtrip(self, trace, path):
        self._timed("solver.write_trace_csv", "trace_write_s", write_trace_csv, trace, path)
        rows = self._timed("solver.read_trace_csv", "trace_read_s", read_trace_csv, path)
        self.layers["trace_rows"] += len(rows)
        return rows

    def validate(self, schedule, horizon):
        self.layers["validate_indices"] += horizon
        return self._timed(
            "schedules.validate_assumption12", "validate_s",
            validate_assumption12, schedule, horizon,
        )

    def audit(self, check, space, target, n_samples, seed):
        self.layers["audit_pairs"] += n_samples
        return self._timed(
            f"maps.{check.__name__}", "audit_s",
            check, space, target, n_samples=n_samples, seed=seed,
        )

    def close(self):
        self.probe.end(self.pass_span)
