"""Tests of the benchmark's oracle and of its checks.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402

P = oracle.PROBLEMS
F1 = checks.Constants(A=0.1, B=0.5, fx_lower=-0.25)


@pytest.mark.parametrize("n", [8, 64, 512])
def test_quadratic_reference_is_exact_to_roundoff(n):
    t = np.arange(n + 1) / n
    assert np.max(np.abs(oracle.reference_solution(P["quadratic"], n) - (t * t - t))) <= 1e-13


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_f1_sin_error_times_n_squared_stays_near_0_82(n):
    p = P["f1_sin"]
    error = np.max(np.abs(oracle.reference_solution(p, n) - p.x_star(np.arange(n + 1) / n)))
    assert 0.81 <= error * n**2 <= 0.83
    assert error * n**2 <= p.truncation_constant(F1.fx_lower)


@pytest.mark.parametrize("name", list(P))
def test_fx_is_the_x_derivative_of_f(name):
    p = P[name]
    t = np.linspace(0.0, 1.0, 11)[:, None]
    x = np.linspace(-3.0, 3.0, 13)[None, :]
    h = 1e-6
    fd = (p.f(t, x + h) - p.f(t, x - h)) / (2 * h)
    assert np.allclose(p.fx(t, x) + 0 * t, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("name", [name for name, p in P.items() if p.x_star is not None])
def test_manufactured_forcing_makes_x_star_a_solution(name):
    p = P[name]
    t = np.linspace(0.05, 0.95, 19)
    h = 1e-4
    second = (p.x_star(t + h) - 2 * p.x_star(t) + p.x_star(t - h)) / h**2
    assert np.allclose(second, p.f(t, p.x_star(t)) + p.v(t), atol=1e-6)


@pytest.mark.parametrize("name", list(P))
def test_reference_solves_the_discrete_problem(name):
    x = oracle.reference_solution(P[name], 1000)
    assert np.max(np.abs(oracle.residual(P[name], x))) <= 1e-15


def test_reference_passes_its_own_check():
    ref = oracle.reference_solution(P["f1"], 64)
    out = checks.check_solution(P["f1"], F1, 64, ref, ref, converged=True)
    assert not out.failed and not out.faults


def test_perturbed_solution_is_rejected():
    n = 64
    ref = oracle.reference_solution(P["f1"], n)
    bad = ref.copy()
    bad[n // 2] += 10 * oracle.solve_tolerance(n)
    out = checks.check_solution(P["f1"], F1, n, bad, ref, converged=True)
    assert out.failed and out.faults


def test_early_stop_fails_without_a_fault():
    # A smooth offset with a residual below dirbvp's stopping threshold is
    # what the residual rule lets through at large N.
    n = 10_000
    p = P["f1_sin"]
    ref = oracle.reference_solution(p, n)
    stopped = ref + 1e-6 * np.sin(np.pi * np.arange(n + 1) / n)
    stopped[-1] = 0.0
    out = checks.check_solution(p, F1, n, stopped, ref, converged=True)
    assert out.failed and not out.faults


def test_unconverged_status_is_a_fault():
    ref = oracle.reference_solution(P["f1"], 64)
    out = checks.check_solution(P["f1"], F1, 64, ref, ref, converged=False)
    assert out.failed and out.faults


def _dirbvp_check(config: Path, output: Path):
    sys.path.insert(0, str(HERE.parent / "src"))
    from dirbvp import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", "--config", str(config), "--output", str(output)])
    return code, json.loads(output.read_text(encoding="utf-8"))


def test_wrong_violation_count_is_rejected(tmp_path):
    tight = checks.Constants(A=0.1, B=0.1537, fx_lower=-0.25)
    config = tmp_path / "f1_tight.txt"
    config.write_text("f = (t + sin(x))/(2*x^2 + 4)\nv = 1\nA = 0.1\nB = 0.1537\nfx_lower = -0.25\n")
    code, report = _dirbvp_check(config, tmp_path / "report.json")
    growth, _ = oracle.box_counts(P["f1"], tight.A, tight.B, tight.fx_lower, report["x_range"])
    assert code == 1 and report["growth"]["violation_count"] == growth.strict == growth.loose > 0
    assert not checks.check_box_report(P["f1"], tight, code, report).faults

    report["growth"]["violation_count"] += 1
    out = checks.check_box_report(P["f1"], tight, code, report)
    assert out.failed and out.faults


def test_wrong_exit_code_is_rejected(tmp_path):
    config = tmp_path / "f2.txt"
    config.write_text((HERE.parent / "configs" / "f2.txt").read_text())
    code, report = _dirbvp_check(config, tmp_path / "report.json")
    c = checks.Constants(A=0.12, B=4.3, fx_lower=-0.9567860817362277)
    assert code == 0 and not checks.check_box_report(P["f2"], c, code, report).faults
    assert checks.check_box_report(P["f2"], c, 1, report).faults
