"""Strict line-oriented config files: ``[section]`` headers, ``key = value``.

The format is deliberately small: ASCII text, ``#`` starts a comment
(whole line or trailing), one ``key = value`` per line under the most
recent ``[section]`` header.  Parsing is strict in both directions: every
syntax problem and every key outside the known vocabulary is an error
naming the offending line, and missing required keys are errors naming
the section.  The run-level sections are validated here; [problem],
[contraction] and [space] are validated by :mod:`viscofix.problems`,
which builds from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .errors import ConfigurationError
from .schedules import Schedule, compare_t16, custom_rational, eq75, halpern_mix
from .solver import SchemeKind, SolverConfig

__all__ = [
    "RawValue",
    "SectionView",
    "parse_sections",
    "read_sections",
    "RunConfig",
    "load_run_config",
    "schedule_from_section",
    "schedule_preset",
    "SCHEDULE_PRESETS",
]


@dataclass(frozen=True)
class RawValue:
    value: str
    line: int


def parse_sections(text: str, origin: str) -> Dict[str, Dict[str, RawValue]]:
    """Parse config text into ``{section: {key: RawValue}}`` with line info."""
    sections: Dict[str, Dict[str, RawValue]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigurationError(f"{origin}: empty section name (line {lineno})")
            if name in sections:
                raise ConfigurationError(
                    f"{origin}: duplicate section [{name}] (line {lineno})"
                )
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{origin}: expected 'key = value' (line {lineno}): {raw.strip()!r}"
            )
        if current is None:
            raise ConfigurationError(
                f"{origin}: key outside any [section] (line {lineno})"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigurationError(f"{origin}: empty key (line {lineno})")
        if key in sections[current]:
            raise ConfigurationError(
                f"{origin}: duplicate key '{key}' in [{current}] (line {lineno})"
            )
        sections[current][key] = RawValue(value=value, line=lineno)
    return sections


def _finite(*values) -> Optional[str]:
    """The complaint about ``values`` unless every one of them is finite."""
    return None if all(map(math.isfinite, values)) else "must be finite"


class SectionView:
    """Typed access to one section; tracks consumption for strict mode."""

    def __init__(self, name: str, data: Dict[str, RawValue], origin: str):
        self.name = name
        self._data = dict(data)
        self._origin = origin

    def _take(self, key: str, required: bool, convert: Callable, what: str = "", check=None):
        """Pop ``key`` and return ``convert`` of its text (None when absent and not required).

        Text that ``convert`` rejects with ``ValueError`` is not ``what``; ``check``
        returns a complaint about the converted value, or None."""
        raw = self._data.pop(key, None)
        if raw is None:
            if required:
                raise self.error(f"missing required key '{key}'")
            return None
        try:
            value = convert(raw.value)
        except ValueError:
            raise self.error(
                f"key '{key}' is not {what}: {raw.value!r} (line {raw.line})"
            ) from None
        complaint = None if check is None else check(value)
        if complaint is not None:
            raise self.error(f"key '{key}' {complaint} (line {raw.line})")
        return value

    def error(self, message: str) -> ConfigurationError:
        return ConfigurationError(f"{self._origin}: [{self.name}] {message}")

    def str_value(self, key: str, choices=None, required: bool = False):
        def outside(value):
            if choices is None or value in choices:
                return None
            return f"must be one of {{{', '.join(sorted(choices))}}}, got {value!r}"

        return self._take(key, required, str, check=outside)

    def float_value(self, key: str, default=None, required: bool = False):
        value = self._take(key, required, float, "a number", _finite)
        return default if value is None else value

    def int_value(self, key: str, required: bool = False):
        return self._take(key, required, int, "an integer")

    def float_list(self, key: str, count=None):
        """The numbers of the required key ``key``; ``count`` of them when given."""

        def misfit(values):
            if count is None or len(values) == count:
                return _finite(*values)
            return _finite(*values) or f"needs {count} comma-separated numbers, got {len(values)}"

        def numbers(text):
            return [float(part) for part in text.split(",")]

        return self._take(key, True, numbers, "a comma-separated number list", misfit)

    def finish(self) -> None:
        if self._data:
            key, raw = next(iter(self._data.items()))
            raise ConfigurationError(
                f"{self._origin}: unknown key '{key}' in [{self.name}] (line {raw.line})"
            )


SCHEDULE_PRESETS = {
    "eq75": eq75,
    "halpern-mix": halpern_mix,
    "compare-t16": compare_t16,
}


def schedule_preset(name: str, error=ConfigurationError) -> Callable[..., Schedule]:
    """The builder of the preset ``name``; an unknown name raises ``error(message)``."""
    builder = SCHEDULE_PRESETS.get(name)
    if builder is None:
        known = ", ".join(sorted(SCHEDULE_PRESETS))
        raise error(f"unknown preset {name!r} (known: {known})")
    return builder


def schedule_from_section(view: SectionView) -> Schedule:
    preset = view.str_value("preset")
    kind = view.str_value("kind")
    n0 = view.int_value("n0")
    if preset is not None and kind is not None:
        raise view.error("give either 'preset' or 'kind = custom-rational', not both")
    if preset is not None:
        builder = schedule_preset(preset, view.error)
        view.finish()
        return builder() if n0 is None else builder(start_index=n0)
    if kind != "custom-rational":
        raise view.error(
            "needs 'preset = <name>' or 'kind = custom-rational' with coefficients"
        )
    triples = {}
    for key in ("alpha1", "alpha2", "alpha3", "delta"):
        triples[key] = tuple(view.float_list(key, count=3))
    view.finish()
    return custom_rational(start_index=1 if n0 is None else n0, **triples)


@dataclass(frozen=True)
class RunConfig:
    """Validated, typed form of a config file's run-level sections.

    ``problem``, ``contraction`` and ``space`` hold those sections as parsed
    (``None`` when absent); :func:`viscofix.problems.build_problem` validates them.
    """

    problem: Dict[str, RawValue]
    contraction: Optional[Dict[str, RawValue]]
    space: Optional[Dict[str, RawValue]]
    scheme: SchemeKind
    schedule: Schedule
    solver: SolverConfig
    trace_path: Optional[str]
    origin: str


def read_sections(path) -> Dict[str, Dict[str, RawValue]]:
    """Read an ASCII config file and parse it with :func:`parse_sections`."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config {path} is not ASCII: {exc}") from None
    return parse_sections(text, origin=str(path))


def load_run_config(path) -> RunConfig:
    """Read a config file into a :class:`RunConfig`.

    Validates the file syntax, the section names, the presence of
    [problem], [scheme] and [schedule], and the run-level sections
    [scheme], [schedule], [solver] and [output].  The [problem],
    [contraction] and [space] sections are passed on as parsed; their keys
    and values are validated by :func:`viscofix.problems.build_problem`.
    """
    origin = str(path)
    sections = read_sections(path)

    known = {"space", "problem", "contraction", "scheme", "schedule", "solver", "output"}
    for name, data in sections.items():
        if name not in known:
            first = min(data.values(), key=lambda raw: raw.line) if data else None
            where = f" (line {first.line})" if first else ""
            raise ConfigurationError(f"{origin}: unknown section [{name}]{where}")
    for name in ("problem", "scheme", "schedule"):
        if name not in sections:
            raise ConfigurationError(f"{origin}: missing required section [{name}]")

    def section(name: str) -> SectionView:
        return SectionView(name, sections.get(name, {}), origin)

    scheme_view = section("scheme")
    scheme_name = scheme_view.str_value(
        "name", required=True, choices={kind.value for kind in SchemeKind}
    )
    scheme_view.finish()
    scheme = SchemeKind(scheme_name)

    schedule = schedule_from_section(section("schedule"))

    # an absent [solver] or [output] section reads as an empty one
    solver_view = section("solver")
    given = {
        "outer_tol": solver_view.float_value("outer_tol"),
        "max_outer": solver_view.int_value("max_outer"),
        "inner_tol": solver_view.float_value("inner_tol"),
    }
    solver = SolverConfig(record_trace=False, **{k: v for k, v in given.items() if v is not None})
    solver_view.finish()

    output_view = section("output")
    trace_path = output_view.str_value("trace")
    output_view.finish()

    return RunConfig(
        problem=sections["problem"],
        contraction=sections.get("contraction"),
        space=sections.get("space"),
        scheme=scheme,
        schedule=schedule,
        solver=solver,
        trace_path=trace_path,
        origin=origin,
    )
