import re
from dataclasses import replace

import numpy as np
import pytest

from dirbvp import corpus
from dirbvp.convergence import (
    ConvergenceRow,
    ConvergenceTable,
    StudyError,
    manufacture,
    run_study,
)
from dirbvp.expr import NonDifferentiableError, evaluate, parse
from dirbvp.grid import GridFunction
from dirbvp.problem import ProblemSpec, make_spec
from dirbvp.solver import multi_start_uniqueness, newton_solve

F1 = "(t + sin(x))/(2*x^2 + 4)"


def test_manufacture_quadratic_forcing():
    problem = manufacture("0", "t^2 - t", A=0.1, B=0.1, fx_lower=0.0)
    for t in np.linspace(0, 1, 21):
        np.testing.assert_allclose(evaluate(problem.v, t, 0.0), 2.0, rtol=1e-15)


def test_manufacture_linear_f_forcing():
    # f(t,x) = x with x* = sin(pi t) needs v = -pi^2 sin(pi t) - sin(pi t)
    problem = manufacture("x", "sin(pi*t)", A=1.1, B=0.1, fx_lower=0.9)
    for t in np.linspace(0, 1, 21):
        expected = -(np.pi**2) * np.sin(np.pi * t) - np.sin(np.pi * t)
        np.testing.assert_allclose(evaluate(problem.v, t, 0.0), expected, atol=1e-12)


def test_manufacture_rejects_bad_boundary():
    with pytest.raises(ValueError, match="boundary"):
        manufacture("0", "t", A=0.1, B=0.1, fx_lower=0.0)


def test_manufacture_rejects_non_smooth_solution():
    with pytest.raises(NonDifferentiableError):
        manufacture("0", "abs(t)*(t - 1)", A=0.1, B=0.1, fx_lower=0.0)


def test_manufacture_rejects_x_in_solution():
    with pytest.raises(ValueError, match="t only"):
        manufacture("0", "x*(t - 1)", A=0.1, B=0.1, fx_lower=0.0)


def test_run_study_quadratic_exact():
    problem = manufacture("0", "t^2 - t", A=0.1, B=0.1, fx_lower=0.0)
    table = run_study(problem, [4, 8, 16], problem_id="quadratic")
    assert table.reference == "manufactured"
    assert [row.n for row in table.rows] == [4, 8, 16]
    for row in table.rows:
        assert row.sup_error <= 1e-13


def test_run_study_zero_problem():
    problem = manufacture("sin(x)/4", "0", A=0.25, B=0.01, fx_lower=-0.25)
    table = run_study(problem, [4, 8])
    for row in table.rows:
        assert row.sup_error == 0.0
        assert row.derivative_bound == 0.0
        assert row.empirical_order is None  # undefined when the errors vanish
    assert max(row.derivative_bound for row in table.rows) == 0.0


def test_run_study_second_order_on_smooth_problem():
    problem = manufacture(F1, "sin(pi*t)", A=0.1, B=0.5, fx_lower=-0.25)
    table = run_study(problem, [8, 16, 32, 64, 128])
    errors = [row.sup_error for row in table.rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    for row in table.rows[1:]:
        assert 1.8 <= row.empirical_order <= 2.2


def test_run_study_fine_grid_reference():
    spec = make_spec(F1, "1", A=0.1, B=0.5, fx_lower=-0.25)
    table = run_study(spec, [8, 16, 32], problem_id="f1")
    assert table.reference == "fine-grid"
    errors = [row.sup_error for row in table.rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("name", corpus.names())
def test_reference_follows_x_star(name):
    spec = corpus.build(name)
    assert isinstance(spec, ProblemSpec)
    assert (spec.x_star is not None) == (name in ("quadratic", "zero", "f1_sin"))
    if spec.x_star is not None:
        assert run_study(spec, [8, 16]).reference == "manufactured"
    # without x_star the same problem is studied against a finer grid
    assert run_study(replace(spec, x_star=None), [8, 16]).reference == "fine-grid"


@pytest.mark.parametrize(
    "x_star, message",
    [
        ("t", "x_star(1.0) = 1.0 violates the zero boundary condition"),
        ("x*t", "x_star must be an expression in t only"),
    ],
)
def test_replaced_x_star_is_checked(x_star, message):
    # a study against x* = t has sup_error 1 on every row, and x* = x*t is
    # taken at x = 0; the spec refuses both, as manufacture does
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(corpus.build("f1_sin"), x_star=parse(x_star))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        manufacture(F1, x_star, A=0.1, B=0.5, fx_lower=-0.25)


def test_derivative_bound_quadratic_closed_form():
    # x(k) = (k^2 - Nk)/N^2 gives N |dx(k-1)| = |2k - 1 - N| / N <= 1
    problem = manufacture("0", "t^2 - t", A=0.1, B=0.1, fx_lower=0.0)
    table = run_study(problem, [4, 10, 100])
    for row in table.rows:
        np.testing.assert_allclose(row.derivative_bound, (row.n - 1) / row.n, rtol=1e-12)
    assert max(row.derivative_bound for row in table.rows) <= 1.0


def test_derivative_bound_stays_flat_for_f1():
    spec = make_spec(F1, "1", A=0.1, B=0.5, fx_lower=-0.25)
    table = run_study(spec, [8, 16, 32, 64, 128, 256])
    bounds = [row.derivative_bound for row in table.rows]
    assert max(bounds) <= 2.0 * bounds[0]


def test_derivative_bound_ratio_across_corpus():
    for name in corpus.names():
        table = run_study(corpus.build(name), [8, 16, 32, 64], problem_id=name)
        bounds = [row.derivative_bound for row in table.rows]
        if max(bounds) == 0.0:
            continue  # identically-zero solutions carry no scaled differences
        assert max(bounds) <= 10.0 * min(bounds), name


def test_run_study_aborts_with_partial_table():
    # fx = -128 zeroes the Jacobian diagonal exactly at N = 8
    spec = make_spec("-128*x", "1", A=128.1, B=0.1, fx_lower=-128.1)
    with pytest.raises(StudyError) as info:
        run_study(spec, [4, 8])
    assert "N=8" in str(info.value)
    assert [row.n for row in info.value.partial.rows] == [4]


def test_run_study_validates_grid_sizes():
    spec = make_spec("0", "2", A=0.1, B=0.1, fx_lower=0.0)
    with pytest.raises(ValueError):
        run_study(spec, [])
    with pytest.raises(ValueError):
        run_study(spec, [1, 4])
    with pytest.raises(ValueError):
        run_study(spec, [4, 4])
    with pytest.raises(ValueError, match="divide"):
        run_study(spec, [7, 9])
    # int() would truncate these to 8 and 16 and report rows for sizes never asked for
    for ns in ([8.7, 16.2], [8.0, 16], [True, 4]):
        with pytest.raises(ValueError, match="integer"):
            run_study(corpus.build("f1_sin"), ns)
    # the grid functions the solves build hold to the same rule
    for n in (2.0, True, 1):
        with pytest.raises(ValueError, match="grid size must be"):
            GridFunction(n, [0.0, 0.5, 0.0])
    for solve in (newton_solve, multi_start_uniqueness):
        with pytest.raises(ValueError, match="^grid size must be an integer, got 2.5$"):
            solve(spec, 2.5)


def test_empirical_order_only_for_doubled_sizes():
    problem = manufacture(F1, "sin(pi*t)", A=0.1, B=0.5, fx_lower=-0.25)
    table = run_study(problem, [8, 12, 24])
    assert table.rows[0].empirical_order is None
    assert table.rows[1].empirical_order is None  # 12 is not 2 * 8
    assert table.rows[2].empirical_order is not None


def test_table_row_order_invariant():
    rows = (
        ConvergenceRow(8, 1.0, None, 1.0),
        ConvergenceRow(4, 2.0, None, 1.0),
    )
    with pytest.raises(ValueError):
        ConvergenceTable("bad", "manufactured", rows)
