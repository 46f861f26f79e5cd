import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import viscofix
from viscofix import read_trace_csv
from viscofix.cli import main

LINEAR_BASE = """
[problem]
kind = builtin-linear
slope = 0.5

[contraction]
kind = linear
c = 0.25

[scheme]
name = new_implicit

[schedule]
preset = halpern-mix

[solver]
outer_tol = 1e-6
max_outer = 50000
"""


def _config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_linear_problem(tmp_path, capsys):
    cfg = _config(tmp_path, LINEAR_BASE)
    assert main(["solve", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "termination: converged" in out
    assert "final residual:" in out
    final = float(out.split("final point: (")[1].split(")")[0])
    assert abs(final) <= 2e-6


def test_solve_writes_trace(tmp_path, capsys):
    cfg = _config(tmp_path, LINEAR_BASE)
    trace_path = tmp_path / "trace.csv"
    assert main(["solve", "--config", cfg, "--trace", str(trace_path)]) == 0
    rows = read_trace_csv(trace_path)
    assert len(rows) >= 10
    assert rows[0].n == 1
    assert "trace written" in capsys.readouterr().out


def test_solve_trace_path_from_output_section(tmp_path, capsys):
    trace_path = tmp_path / "from_config.csv"
    cfg = _config(tmp_path, LINEAR_BASE + f"\n[output]\ntrace = {trace_path}\n")
    assert main(["solve", "--config", cfg]) == 0
    assert trace_path.exists()


def test_unknown_key_cites_line(tmp_path, capsys):
    text = LINEAR_BASE.replace("slope = 0.5", "slope = 0.5\nslop = 1.0")
    cfg = _config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'slop'" in err
    assert "line 5" in err


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = _config(tmp_path, LINEAR_BASE + "\n[plotting]\nstyle = dots\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "unknown section [plotting]" in capsys.readouterr().err


def test_missing_required_section(tmp_path, capsys):
    cfg = _config(tmp_path, "[problem]\nkind = builtin-linear\nslope = 0.5\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "missing required section [scheme]" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_gamma_range_error(tmp_path, capsys):
    text = """
[problem]
kind = monotone
gamma = 3.0
set = whole-space

[scheme]
name = mann_implicit

[schedule]
preset = halpern-mix
"""
    cfg = _config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "(0, 2]" in err


def test_theta_range_error(tmp_path, capsys):
    text = """
[problem]
kind = pseudocontraction
k = 0.333333
lambda = 0.5
theta = 0.6

[scheme]
name = mann_implicit

[schedule]
preset = halpern-mix
"""
    cfg = _config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 1
    assert "(0, 0.5]" in capsys.readouterr().err


def test_identity_map_converges_at_first_check(tmp_path, capsys):
    text = """
[problem]
kind = builtin-linear
slope = 1.0

[scheme]
name = mann_implicit

[schedule]
preset = halpern-mix
"""
    cfg = _config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "iterations: 0" in out
    assert "final residual: 0" in out


def test_viscosity_scheme_requires_contraction_section(tmp_path, capsys):
    text = LINEAR_BASE.replace("[contraction]\nkind = linear\nc = 0.25\n", "")
    cfg = _config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 1
    assert "[contraction]" in capsys.readouterr().err


def test_non_convergence_exit_code(tmp_path, capsys):
    text = LINEAR_BASE.replace("max_outer = 50000", "max_outer = 3")
    cfg = _config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 2
    assert "max_iters" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_run_exit_code(tmp_path, capsys):
    # f's constant point is so large that the residual's norm overflows
    # after the first explicit step.
    text = """
[problem]
kind = line-projection

[contraction]
kind = constant-point
point = 0, 1e200

[scheme]
name = explicit

[schedule]
preset = halpern-mix

[solver]
max_outer = 1000
"""
    cfg = _config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "termination: non_finite" in out
    assert "at n = 2" in out


def test_schedule_range_violation_exit_code(tmp_path, capsys):
    text = LINEAR_BASE.replace(
        "preset = halpern-mix", "preset = eq75\nn0 = 1"
    )
    cfg = _config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 1
    assert "schedule_range_violation" in capsys.readouterr().out


def test_solve_warns_on_violated_conditions(tmp_path, capsys):
    cfg = _config(tmp_path, LINEAR_BASE)
    main(["solve", "--config", cfg])
    err = capsys.readouterr().err
    assert "warning: schedule condition (ii) violated" in err
    assert "warning: schedule condition (iv) violated" in err


def test_space_section_mismatch(tmp_path, capsys):
    cfg = _config(tmp_path, LINEAR_BASE + "\n[space]\nkind = euclidean\ndim = 3\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "dim" in capsys.readouterr().err


# LINEAR_BASE lines: 3 [problem] kind, 4 slope, 7 [contraction] kind, 8 c,
# 11 [scheme] name, 14 [schedule] preset, 17 outer_tol, 18 max_outer
_IDENTITY_TAIL = "[scheme]\nname = mann_implicit\n[schedule]\npreset = halpern-mix\n"
_MONOTONE = "[problem]\nkind = monotone\ngamma = 1.0\nset = whole-space\n" + _IDENTITY_TAIL
_FREDHOLM = "[problem]\nkind = fredholm\nkernel = zero\ngrid_size = 8\n" + _IDENTITY_TAIL
_PSEUDO = (
    "[problem]\nkind = pseudocontraction\nk = 0.5\nlambda = 0.5\ntheta = 0.3\n" + _IDENTITY_TAIL
)
_LINE = (
    "[problem]\nkind = line-projection\n[contraction]\nkind = constant-point\n"
    "point = 3, 4\n[scheme]\nname = new_implicit\n[schedule]\npreset = halpern-mix\n"
)
_RATIONAL = (
    "kind = custom-rational\nalpha1 = 0, 0.5, 0\nalpha2 = 1, -1.5, 0\n"
    "alpha3 = 0, 1, 0\ndelta = 0.5, -0.5, 1"
)


def _swap(old, new, base=LINEAR_BASE):
    assert old in base
    return base.replace(old, new, 1)


MALFORMED_CONFIGS = [
    # file syntax
    ("duplicate-section", LINEAR_BASE + "[scheme]\nname = kema\n",
     "duplicate section [scheme] (line 19)"),
    ("duplicate-key", _swap("slope = 0.5", "slope = 0.5\nslope = 0.7"),
     "duplicate key 'slope' in [problem] (line 5)"),
    ("key-outside-section", "slope = 0.5\n" + LINEAR_BASE, "key outside any [section] (line 1)"),
    ("empty-key", _swap("c = 0.25", "c = 0.25\n= 3"), "empty key (line 9)"),
    ("empty-section-name", LINEAR_BASE + "[ ]\n", "empty section name (line 19)"),
    ("no-equals", _swap("slope = 0.5", "slope 0.5"), "expected 'key = value' (line 4)"),
    ("not-ascii", _swap("slope = 0.5", "slope = 0.5  # ½"), "is not ASCII"),
    ("unknown-section", LINEAR_BASE + "[plotting]\nstyle = dots\n",
     "unknown section [plotting] (line 20)"),
    ("unknown-key-contraction", _swap("c = 0.25", "c = 0.25\nbeta = 1"),
     "unknown key 'beta' in [contraction] (line 9)"),
    ("unknown-key-space", LINEAR_BASE + "[space]\nkind = euclidean\ndim = 1\nsize = 1\n",
     "unknown key 'size' in [space] (line 22)"),
    # missing pieces
    ("missing-problem-section", _swap("[problem]\nkind = builtin-linear\nslope = 0.5\n", ""),
     "missing required section [problem]"),
    ("missing-schedule-section", _swap("[schedule]\npreset = halpern-mix\n", ""),
     "missing required section [schedule]"),
    ("missing-problem-kind", _swap("kind = builtin-linear\n", ""),
     "[problem] missing required key 'kind'"),
    ("missing-slope", _swap("slope = 0.5\n", ""), "[problem] missing required key 'slope'"),
    ("missing-c", _swap("c = 0.25\n", ""), "[contraction] missing required key 'c'"),
    ("missing-theta", _swap("theta = 0.3\n", "", _PSEUDO),
     "[problem] missing required key 'theta'"),
    ("missing-triple",
     _swap("preset = halpern-mix", _RATIONAL.replace("\ndelta = 0.5, -0.5, 1", "")),
     "[schedule] missing required key 'delta'"),
    # values
    ("not-a-number", _swap("slope = 0.5", "slope = half"),
     "[problem] key 'slope' is not a number: 'half' (line 4)"),
    ("nan", _swap("slope = 0.5", "slope = nan"), "[problem] key 'slope' must be finite (line 4)"),
    ("inf", _swap("c = 0.25", "c = -inf"), "[contraction] key 'c' must be finite (line 8)"),
    ("not-an-integer", _swap("max_outer = 50000", "max_outer = 5e4"),
     "[solver] key 'max_outer' is not an integer: '5e4' (line 18)"),
    ("grid-not-an-integer", _swap("grid_size = 8", "grid_size = 8.0", _FREDHOLM),
     "[problem] key 'grid_size' is not an integer: '8.0' (line 4)"),
    ("not-a-number-list", _swap("preset = halpern-mix", _RATIONAL.replace("0, 0.5, 0", "0, x, 0")),
     "[schedule] key 'alpha1' is not a comma-separated number list: '0, x, 0' (line 15)"),
    ("short-number-list", _swap("preset = halpern-mix", _RATIONAL.replace("0, 0.5, 0", "0, 0.5")),
     "[schedule] key 'alpha1' needs 3 comma-separated numbers, got 2 (line 15)"),
    ("point-not-a-list", _swap("point = 3, 4", "point = 3; 4", _LINE),
     "[contraction] key 'point' is not a comma-separated number list: '3; 4' (line 5)"),
    # choices
    ("problem-kind", _swap("kind = builtin-linear", "kind = quadratic"),
     "[problem] key 'kind' must be one of {builtin-linear, fredholm, line-projection, "
     "monotone, pseudocontraction}, got 'quadratic' (line 3)"),
    ("kernel", _swap("kernel = zero", "kernel = cosine", _FREDHOLM),
     "[problem] key 'kernel' must be one of {separable-linear, sine, zero}, got 'cosine' (line 3)"),
    ("monotone-set", _swap("set = whole-space", "set = cube", _MONOTONE),
     "[problem] key 'set' must be one of {ball, whole-space}, got 'cube' (line 4)"),
    ("contraction-kind", _swap("kind = linear", "kind = affine"),
     "[contraction] key 'kind' must be one of {constant-point, linear, rational}, "
     "got 'affine' (line 7)"),
    ("space-kind", LINEAR_BASE + "[space]\nkind = sphere\n",
     "[space] key 'kind' must be one of {euclidean, trapezoid}, got 'sphere' (line 20)"),
    ("scheme-name", _swap("name = new_implicit", "name = newton"),
     "[scheme] key 'name' must be one of {explicit, kema, "),
    ("preset-and-kind",
     _swap("preset = halpern-mix", "preset = halpern-mix\nkind = custom-rational"),
     "[schedule] give either 'preset' or 'kind = custom-rational', not both"),
    ("unknown-preset", _swap("preset = halpern-mix", "preset = nope"),
     "[schedule] unknown preset 'nope' (known: compare-t16, eq75, halpern-mix)"),
    ("no-preset-or-kind", _swap("preset = halpern-mix", "n0 = 2"),
     "[schedule] needs 'preset = <name>' or 'kind = custom-rational' with coefficients"),
    # section rules
    ("ball-without-radius", _swap("set = whole-space", "set = ball", _MONOTONE),
     "[problem] set = ball needs a 'radius' key"),
    ("radius-without-ball", _swap("set = whole-space", "set = whole-space\nradius = 2", _MONOTONE),
     "[problem] 'radius' only applies when set = ball"),
    ("euclidean-without-dim", LINEAR_BASE + "[space]\nkind = euclidean\n",
     "[space] kind = euclidean needs 'dim'"),
    ("trapezoid-without-grid-size", _FREDHOLM + "[space]\nkind = trapezoid\n",
     "[space] kind = trapezoid needs 'grid_size'"),
    ("space-kind-mismatch", LINEAR_BASE + "[space]\nkind = trapezoid\ngrid_size = 4\n",
     "[space] kind = trapezoid does not match the builtin-linear problem (needs euclidean)"),
    ("space-kind-mismatch-fredholm", _FREDHOLM + "[space]\nkind = euclidean\ndim = 9\n",
     "[space] kind = euclidean does not match the fredholm problem (needs trapezoid)"),
    ("space-dim-mismatch", _LINE + "[space]\nkind = euclidean\ndim = 3\n",
     "[space] dim = 3 does not match the line-projection problem (needs 2)"),
    ("space-grid-mismatch", _FREDHOLM + "[space]\nkind = trapezoid\ngrid_size = 16\n",
     "[space] grid_size = 16 does not match the problem's grid_size = 8"),
    # ranges
    ("slope-range", _swap("slope = 0.5", "slope = 1.5"),
     "builtin-linear slope must lie in [-1, 1] to be nonexpansive, got 1.5"),
    ("k-range", _swap("k = 0.5", "k = 1.0", _PSEUDO),
     "pseudocontraction coefficient k must lie in (0, 1), got 1"),
    # lambda / L^2 = 2, but a weight past 1 extrapolates: T(x) = (7/3) x
    ("theta-above-one",
     _swap("k = 0.5\nlambda = 0.5\ntheta = 0.3", "k = 0.333333\nlambda = 0.5\ntheta = 2\nL = 0.5",
           _PSEUDO),
     "averaging weight must lie in (0, 1], got 2.0"),
    ("grid-size-range", _swap("grid_size = 8", "grid_size = 1", _FREDHOLM),
     "grid_size must be >= 2, got 1"),
    ("monotone-dim-range", _MONOTONE + "[space]\nkind = euclidean\ndim = 0\n",
     "dimension must be >= 1, got 0"),
    ("contraction-c-range", _swap("c = 0.25", "c = 1.5"),
     "linear modulus coefficient must lie in [0, 1), got 1.5"),
    ("contraction-beta-range", _swap("kind = linear\nc = 0.25", "kind = rational\nbeta = 0"),
     "rational modulus coefficient must be positive, got 0.0"),
    ("constant-point-dimension", _swap("point = 3, 4", "point = 3, 4, 5", _LINE),
     "expected a point of dimension 2, got shape (3,)"),
    ("triple-non-finite",
     _swap("preset = halpern-mix", _RATIONAL.replace("0, 0.5, 0", "0, nan, 0")),
     "must be finite"),
]


@pytest.mark.parametrize(
    "text, fragment",
    [case[1:] for case in MALFORMED_CONFIGS],
    ids=[case[0] for case in MALFORMED_CONFIGS],
)
def test_malformed_config_exits_1(tmp_path, capsys, text, fragment):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("point", ["nan, 1", "0, inf"])
def test_number_list_must_be_finite(tmp_path, capsys, point):
    cfg = _config(tmp_path, _swap("point = 3, 4", f"point = {point}", _LINE))
    assert main(["solve", "--config", cfg]) == 1
    assert "[contraction] key 'point' must be finite (line 5)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, fragment",
    [
        (LINEAR_BASE + "[space]\nkind = euclidean\ndim = 1\ngrid_size = 99\n",
         "unknown key 'grid_size' in [space] (line 22)"),
        (_FREDHOLM + "[space]\nkind = trapezoid\ngrid_size = 8\ndim = 9\n",
         "unknown key 'dim' in [space] (line 12)"),
    ],
    ids=["grid_size-under-euclidean", "dim-under-trapezoid"],
)
def test_space_rejects_keys_of_the_other_kind(tmp_path, capsys, text, fragment):
    cfg = _config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 1
    assert fragment in capsys.readouterr().err


def test_pseudocontraction_solve(tmp_path, capsys):
    cfg = _config(tmp_path, _PSEUDO)
    assert main(["solve", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "termination: converged\niterations: 34\n" in out
    final = float(out.split("final point: (")[1].split(")")[0])
    assert abs(final) <= 1e-8


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_inner_solve_error_exit_code(tmp_path, capsys):
    # the same config as test_non_finite_run_exit_code under an implicit
    # scheme: the inner solve's gap overflows at its first application
    text = _swap("point = 3, 4", "point = 0, 1e200", _LINE)
    cfg = _config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 2
    assert "error: inner solve gap is inf at application 1" in capsys.readouterr().err


def test_readme_config_example(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```ini\n")
    assert len(blocks) == 2, "README should hold exactly one ini block"
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, blocks[1].split("```", 1)[0])
    assert main(["solve", "--config", cfg]) == 0
    assert "termination: converged" in capsys.readouterr().out
    assert (tmp_path / "trace.csv").exists()


def test_validate_schedule_preset(capsys):
    assert main(["validate-schedule", "--preset", "eq75", "--horizon", "10000"]) == 0
    out = capsys.readouterr().out
    assert "(i) satisfied" in out
    assert "(ii) satisfied" in out
    assert "(iii) violated" in out
    assert "(iv) violated" in out
    assert "(v) satisfied" in out
    assert "range violations at n = 1" in out


def test_validate_schedule_halpern(capsys):
    assert main(["validate-schedule", "--preset", "halpern-mix", "--horizon", "1000"]) == 0
    assert "(ii) violated" in capsys.readouterr().out


def test_validate_schedule_unknown_preset(capsys):
    assert main(["validate-schedule", "--preset", "nope", "--horizon", "1000"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_validate_schedule_from_config(tmp_path, capsys):
    text = """
[schedule]
kind = custom-rational
alpha1 = 0, 0.5, 0
alpha2 = 1, -1.5, 0
alpha3 = 0, 1, 0
delta = 0.5, -0.5, 1
n0 = 2
"""
    cfg = _config(tmp_path, text)
    assert main(["validate-schedule", "--config", cfg, "--horizon", "1000"]) == 0
    out = capsys.readouterr().out
    assert "custom-rational" in out
    assert "satisfied" not in out.split("(ii)")[1].split("\n")[0]


def test_validate_schedule_config_not_ascii(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("[schedule]\npreset = eq75  # é\n", encoding="utf-8")
    assert main(["validate-schedule", "--config", str(path), "--horizon", "1000"]) == 1
    assert "is not ASCII" in capsys.readouterr().err


def test_validate_schedule_config_without_schedule(tmp_path, capsys):
    cfg = _config(tmp_path, "[problem]\nkind = builtin-linear\nslope = 0.5\n")
    assert main(["validate-schedule", "--config", cfg, "--horizon", "1000"]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: missing [schedule] section\n"


def test_validate_schedule_horizon_gate(capsys):
    assert main(["validate-schedule", "--preset", "eq75", "--horizon", "50"]) == 1
    assert "horizon" in capsys.readouterr().err


def test_compare_scheme_against_itself(tmp_path, capsys):
    cfg = _config(tmp_path, LINEAR_BASE)
    assert main(["compare", "--config", cfg, "--schemes", "new_implicit,new_implicit"]) == 0
    assert "limit distance: 0\n" in capsys.readouterr().out


def test_compare_1d_same_limit(tmp_path, capsys):
    text = LINEAR_BASE.replace("preset = halpern-mix", "preset = compare-t16").replace(
        "outer_tol = 1e-6", "outer_tol = 1e-4"
    )
    cfg = _config(tmp_path, text)
    assert main(["compare", "--config", cfg, "--schemes", "three_term,new_implicit"]) == 0
    out = capsys.readouterr().out
    distance = float(out.rsplit("limit distance: ", 1)[1])
    assert distance <= 1e-5


def test_compare_line_projection_same_limit(tmp_path, capsys):
    text = """
[problem]
kind = line-projection

[contraction]
kind = constant-point
point = 3.0, 4.0

[scheme]
name = new_implicit

[schedule]
preset = halpern-mix

[solver]
outer_tol = 1e-3
max_outer = 100000
"""
    cfg = _config(tmp_path, text)
    assert main(["compare", "--config", cfg, "--schemes", "kema,new_implicit"]) == 0
    out = capsys.readouterr().out
    distance = float(out.rsplit("limit distance: ", 1)[1])
    assert distance <= 1e-2


def test_compare_rejects_explicit_scheme(tmp_path, capsys):
    cfg = _config(tmp_path, LINEAR_BASE)
    assert main(["compare", "--config", cfg, "--schemes", "explicit,new_implicit"]) == 1
    assert "explicit" in capsys.readouterr().err


def test_compare_needs_two_schemes(tmp_path, capsys):
    cfg = _config(tmp_path, LINEAR_BASE)
    assert main(["compare", "--config", cfg, "--schemes", "kema"]) == 1
    assert main(["compare", "--config", cfg, "--schemes", "kema,kema,kema"]) == 1


def test_compare_unknown_scheme(tmp_path, capsys):
    cfg = _config(tmp_path, LINEAR_BASE)
    assert main(["compare", "--config", cfg, "--schemes", "kema,warp"]) == 1
    assert "unknown scheme" in capsys.readouterr().err


def test_compare_non_convergence_exits_2(tmp_path, capsys):
    # summable operator weights stall the plane-projection runs off the
    # fixed set, so the comparison must refuse to report a distance
    text = """
[problem]
kind = line-projection

[contraction]
kind = constant-point
point = 3.0, 4.0

[scheme]
name = new_implicit

[schedule]
preset = compare-t16

[solver]
outer_tol = 1e-4
max_outer = 2000
"""
    cfg = _config(tmp_path, text)
    assert main(["compare", "--config", cfg, "--schemes", "kema,new_implicit"]) == 2
    captured = capsys.readouterr()
    assert "did not converge" in captured.err
    assert "limit distance" not in captured.out


def test_compare_schedule_range_violation_exits_1(tmp_path, capsys):
    text = LINEAR_BASE.replace("preset = halpern-mix", "preset = eq75\nn0 = 1")
    cfg = _config(tmp_path, text)
    assert main(["compare", "--config", cfg, "--schemes", "new_implicit,three_term"]) == 1
    captured = capsys.readouterr()
    assert "new_implicit: termination schedule_range_violation" in captured.out
    assert "error: schedule evaluated outside its valid range" in captured.err
    assert "limit distance" not in captured.out


def test_fredholm_zero_kernel(tmp_path, capsys):
    text = """
[problem]
kind = fredholm
kernel = zero
grid_size = 8

[scheme]
name = mann_implicit

[schedule]
preset = halpern-mix
"""
    cfg = _config(tmp_path, text)
    assert main(["fredholm", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "sup error vs closed form: 0" in out
    # solution table equals the source term t on the grid
    lines = out.splitlines()
    start = lines.index("t,x") + 1
    for line in lines[start : start + 9]:
        t, x = (float(v) for v in line.split(","))
        assert x == t


def test_fredholm_separable_writes_csv(tmp_path, capsys):
    text = """
[problem]
kind = fredholm
kernel = separable-linear
grid_size = 32

[scheme]
name = mann_implicit

[schedule]
preset = halpern-mix

[solver]
outer_tol = 1e-8
"""
    cfg = _config(tmp_path, text)
    out_path = tmp_path / "solution.csv"
    assert main(["fredholm", "--config", cfg, "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,x"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert data.shape == (33, 2)
    # closed form 6t/5 up to quadrature error O(h^2)
    assert np.max(np.abs(data[:, 1] - 1.2 * data[:, 0])) <= 1e-3
    sup = float(capsys.readouterr().out.split("sup error vs closed form: ")[1].split("\n")[0])
    assert sup <= 1e-3


def test_fredholm_sine_matches_picard_oracle(tmp_path, capsys):
    text = """
[problem]
kind = fredholm
kernel = sine
grid_size = 128

[scheme]
name = mann_implicit

[schedule]
preset = halpern-mix

[solver]
outer_tol = 1e-10
"""
    cfg = _config(tmp_path, text)
    assert main(["fredholm", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "termination: converged" in out
    lines = out.splitlines()
    start = lines.index("t,x") + 1
    data = np.array([[float(v) for v in line.split(",")] for line in lines[start : start + 129]])
    # independent Picard oracle on the same grid: x = g + sum_j w_j sin(x_j)/2,
    # a 1/2-contraction, iterated to well below the comparison tolerance
    nodes = np.linspace(0.0, 1.0, 129)
    w = np.full(129, 1.0 / 128.0)
    w[0] = w[-1] = 0.5 / 128.0
    v = nodes.copy()
    for _ in range(200):
        v_next = nodes + np.sum(w * 0.5 * np.sin(v))
        if np.max(np.abs(v_next - v)) <= 1e-14:
            v = v_next
            break
        v = v_next
    assert np.max(np.abs(data[:, 1] - v)) <= 1e-8


def test_fredholm_command_needs_fredholm_problem(tmp_path, capsys):
    cfg = _config(tmp_path, LINEAR_BASE)
    assert main(["fredholm", "--config", cfg]) == 1
    assert "fredholm" in capsys.readouterr().err


def _declared_console_script(name):
    """The ``(module, attribute)`` that ``[project.scripts]`` declares for ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return module.strip(), attr.strip()


def _run_console_script(name, args, cwd):
    """Run the declared entry point the way an installed console script does.

    The wrapper is the one pip writes for ``[project.scripts]``: import the
    target, then ``sys.exit(target())``, so the returned int becomes the
    process exit status. The child imports the same ``viscofix`` package
    that this test imported.
    """
    module, attr = _declared_console_script(name)
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.argv[0] = {name!r}\n"
        f"sys.exit({attr}())\n"
    )
    package_root = str(Path(viscofix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_console_script_end_to_end(tmp_path):
    cfg = _config(tmp_path, LINEAR_BASE)
    result = _run_console_script("viscofix", ["solve", "--config", cfg], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "termination: converged" in result.stdout

    # main()'s exit code becomes the process exit status, both for a
    # configuration error and for a run that stops at its budget
    bad = _config(tmp_path, LINEAR_BASE + "\n[plotting]\nstyle = dots\n", "bad.cfg")
    result = _run_console_script("viscofix", ["solve", "--config", bad], tmp_path)
    assert result.returncode == 1, result.stderr
    assert "unknown section [plotting]" in result.stderr

    short = _config(
        tmp_path, LINEAR_BASE.replace("max_outer = 50000", "max_outer = 3"), "short.cfg"
    )
    result = _run_console_script("viscofix", ["solve", "--config", short], tmp_path)
    assert result.returncode == 2, result.stderr
    assert "max_iters" in result.stdout


@pytest.mark.skipif(
    shutil.which("viscofix") is None, reason="viscofix console script not installed"
)
def test_installed_console_script_on_path(tmp_path):
    cfg = _config(tmp_path, LINEAR_BASE)
    result = subprocess.run(
        ["viscofix", "solve", "--config", cfg], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "termination: converged" in result.stdout
