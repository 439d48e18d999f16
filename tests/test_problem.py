import functools
import math
import re
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirbvp import corpus
from dirbvp import expr as expr_module
from dirbvp import problem as problem_module
from dirbvp.convergence import manufacture
from dirbvp.expr import (
    BinOp,
    Call,
    EvalError,
    Neg,
    NonDifferentiableError,
    Num,
    Var,
    NestingError,
    diff,
    evaluate,
    format_expr,
    parse,
)
from dirbvp.problem import (
    _BLOCK_ROWS,
    _WITNESS_CAP,
    ConditionReport,
    ProblemSpec,
    apriori_bound,
    check_fx_lower,
    check_growth,
    classify,
    make_spec,
)
from dirbvp.solver import CONVERGED, newton_solve

F1 = "(t + sin(x))/(2*x^2 + 4)"
F2 = "x*exp(t - pi) - atan(x) + exp(t)"


def test_make_spec_validates_constants():
    with pytest.raises(ValueError):
        make_spec("x", "0", A=0.0, B=0.5, fx_lower=-0.5)
    with pytest.raises(ValueError):
        make_spec("x", "0", A=0.5, B=-1.0, fx_lower=-0.5)
    # a bool would pass as 1.0 or 0.0
    constants = {"A": 0.5, "B": 0.5, "fx_lower": -0.5}
    for constant in constants:
        for bad in (True, False, np.True_):
            with pytest.raises(ValueError, match="not booleans"):
                make_spec("x", "0", **{**constants, constant: bad})


@pytest.mark.parametrize("constant", ["A", "B", "fx_lower"])
def test_make_spec_rejects_non_finite_constant(constant):
    # a NaN bound compares false everywhere, so no sample could falsify it
    constants = {"A": 0.5, "B": 0.5, "fx_lower": -0.5}
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            make_spec("x", "0", **{**constants, constant: bad})


def test_make_spec_rejects_v_depending_on_x():
    with pytest.raises(ValueError, match="t only"):
        make_spec("0", "x + 1", A=0.5, B=0.5, fx_lower=0.0)


@pytest.mark.parametrize(
    "build, f, g, name",
    [(make_spec, "0", None, "v"), (make_spec, "0", 2.0, "v"), (make_spec, None, "1", "f"),
     (manufacture, "0", None, "x_star"), (manufacture, None, "t^2 - t", "f")],
)
def test_builders_take_only_expressions(build, f, g, name):
    # a value of another type would otherwise fail later, far from the call that took it
    with pytest.raises(TypeError, match=f"^{name} must be an expression string or tree, got "):
        build(f, g, A=0.1, B=0.1, fx_lower=0.0)


@pytest.mark.parametrize("name", sorted(corpus.ENTRIES))
def test_corpus_fx_matches_finite_differences(name):
    # make_spec trusts the symbolic f_x; check it against centred differences
    spec = corpus.build(name)
    step = 1e-6
    checked = 0
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        for x in (-0.93, -0.41, 0.17, 0.58, 0.94):
            try:
                analytic = evaluate(spec.fx, t, x)
                fd = (evaluate(spec.f, t, x + step) - evaluate(spec.f, t, x - step)) / (2 * step)
            except EvalError:
                continue
            assert abs(analytic - fd) <= 1e-5 * (1.0 + abs(analytic)), (t, x)
            checked += 1
    assert checked > 0


def test_check_growth_f1_clean():
    # |t + sin(x)| <= 2 and 2x^2 + 4 >= 4, so |f1| <= 1/2 <= 0.1|x| + 0.5
    spec = make_spec(F1, "1", A=0.1, B=0.5, fx_lower=-0.25)
    report = check_growth(spec, x_range=100.0)
    assert not report.violated
    assert report.violation_count == 0
    assert report.samples_t == 201 and report.samples_x == 2001


def test_check_growth_linear_violation():
    spec = make_spec("x", "0", A=0.5, B=0.1, fx_lower=0.9)
    report = check_growth(spec, x_range=10.0)
    assert report.violated
    assert report.witnesses
    t, x, lhs, rhs = report.witnesses[0]
    assert abs(x) > 0.2  # |x| > B/(1-A) is where the bound fails
    assert lhs > rhs


def test_check_growth_zero_function():
    spec = make_spec("0", "0", A=0.3, B=0.2, fx_lower=-0.1)
    assert not check_growth(spec, x_range=50.0).violated


def test_check_growth_reflexive_on_the_bound_itself():
    # f literally equal to A|x| + B can never violate its own bound; a spec
    # cannot differentiate abs, but sqrt(x*x) is |x| exactly in round-to-nearest
    spec = make_spec("0.3*sqrt(x*x) + 0.2", "0", A=0.3, B=0.2, fx_lower=-0.3)
    assert not check_growth(spec, x_range=25.0).violated


def test_check_fx_lower_f2_clean():
    # f2_x = exp(t - pi) - 1/(1 + x^2) attains its infimum exp(-pi) - 1 at (0, 0)
    lower = float(np.exp(-np.pi) - 1.0)
    spec = make_spec(F2, "1", A=0.12, B=4.3, fx_lower=lower)
    report = check_fx_lower(spec, x_range=10.0)
    assert not report.violated


def test_check_fx_lower_violated_everywhere():
    spec = make_spec("-2*x", "0", A=2.5, B=0.1, fx_lower=-1.0)
    report = check_fx_lower(spec, x_range=10.0)
    assert report.violated
    assert report.violation_count == 201 * 2001
    t, x, lhs, rhs = report.witnesses[0]
    assert lhs == -2.0 and rhs == -1.0


def test_check_fx_lower_zero_function():
    spec = make_spec("0", "0", A=0.3, B=0.2, fx_lower=-0.5)
    assert not check_fx_lower(spec, x_range=10.0).violated


@pytest.mark.parametrize("x_range", [True, np.True_])
@pytest.mark.parametrize("check", [check_growth, check_fx_lower])
def test_check_rejects_a_boolean_sample_box(check, x_range):
    # True would pass as a box of half-width 1
    spec = make_spec("x/4", "1", A=0.5, B=1.0, fx_lower=-0.5)
    with pytest.raises(ValueError, match="^x_range must be a number, not a boolean, got "):
        check(spec, x_range)


@pytest.mark.parametrize("x_range", [math.inf, math.nan, 1e308])
@pytest.mark.parametrize("check", [check_growth, check_fx_lower])
def test_check_rejects_a_sample_box_that_is_not_finite(check, x_range):
    # 2*x_range, the width of the x grid, overflows for 1e308
    spec = make_spec("x/4", "1", A=0.5, B=1.0, fx_lower=-0.5)
    with pytest.raises(ValueError, match="x_range must be finite"):
        check(spec, x_range=x_range)


def test_check_reports_eval_failure_with_location():
    spec = make_spec("1/(x - 1)", "0", A=0.5, B=0.5, fx_lower=-10.0)
    with pytest.raises(EvalError, match=r"sample point \(t=0\.0, x=1\.0\)"):
        check_growth(spec, x_range=2.0)


def _full_box_report(spec, condition, x_range, samples_t=201, samples_x=2001):
    """The report built from one whole-box evaluation and whole-mask counts."""
    t_grid = np.linspace(0.0, 1.0, samples_t)
    x_grid = np.linspace(-x_range, x_range, samples_x)
    if condition == "growth":
        lhs = np.abs(evaluate(spec.f, t_grid[:, None], x_grid[None, :]))
        rhs = np.broadcast_to(spec.declared_A * np.abs(x_grid) + spec.declared_B, lhs.shape)
        bad = lhs > rhs
    else:
        lhs = evaluate(spec.fx, t_grid[:, None], x_grid[None, :])
        rhs = np.full(lhs.shape, spec.declared_fx_lower)
        bad = lhs < rhs
    rows, cols = np.nonzero(bad)
    witnesses = tuple(
        (float(t_grid[i]), float(x_grid[j]), float(lhs[i, j]), float(rhs[i, j]))
        for i, j in zip(rows[:10], cols[:10])
    )
    return int(np.count_nonzero(bad)), witnesses


def _check_on_rows(check, spec, x_range, samples_t):
    """``check``'s report, or on samples_t rows of t its scan with its own bound and test.

    The checks sample 201 rows; other row counts reach block boundaries
    that 201 rows do not, such as a whole number of 8-row blocks.
    """
    if samples_t == 201:
        return check(spec, x_range)
    t_grid = np.linspace(0.0, 1.0, samples_t)
    x_grid = np.linspace(-x_range, x_range, 2001)
    if check is check_growth:
        rhs = spec.declared_A * np.abs(x_grid) + spec.declared_B
        return problem_module._scan("growth", spec.f, t_grid, x_grid, rhs,
                                    lambda f: np.abs(f, out=f) > rhs)
    rhs = np.full(x_grid.size, spec.declared_fx_lower)
    return problem_module._scan("fx_lower", spec.fx, t_grid, x_grid, rhs, lambda fx: fx < rhs)


@pytest.mark.parametrize(
    "f, A, B, fx_lower, condition, x_range, samples_t",
    [
        # only rows 195..200 violate: the end of the 25th block and the last, one-row block
        ("-t", 1e-3, 0.97, -1.0, "growth", 1.0, 201),
        # rows 31..33 near x = 0: 9 witnesses in row 31, the last of the fourth
        # block, and the tenth in row 32, the first of the fifth
        ("x*(t - 0.16)^2 + x^3/3", 1.0, 1.0, 5e-5, "fx_lower", 1.0, 201),
        # only row 32, the last block's one row
        ("-t", 1e-3, 0.97, -1.0, "growth", 1.0, 33),
        # every point, so the cap is reached inside the first row
        ("-2*x", 2.5, 0.1, -1.0, "fx_lower", 10.0, 201),
        ("x + 20", 0.5, 0.1, 0.0, "growth", 10.0, 201),
        # |x| > B/(1 - A) in every row of eight full blocks
        ("x", 0.5, 0.1, 0.0, "growth", 10.0, 64),
    ],
)
def test_check_witnesses_and_count_match_full_box(f, A, B, fx_lower, condition, x_range, samples_t):
    spec = make_spec(f, "0", A=A, B=B, fx_lower=fx_lower)
    check = check_growth if condition == "growth" else check_fx_lower
    report = _check_on_rows(check, spec, x_range, samples_t)
    count, witnesses = _full_box_report(spec, condition, x_range, samples_t)
    assert count > 0
    assert report.violation_count == count
    assert report.witnesses == witnesses
    assert report.violated and report.condition == condition


def _reference_scan(condition, expr, t_grid, x_grid, rhs, violates) -> ConditionReport:
    """The scan that evaluates every condition on the whole t-by-x block."""
    count = 0
    witnesses = []
    for start in range(0, t_grid.size, _BLOCK_ROWS):
        t_block = t_grid[start : start + _BLOCK_ROWS]
        try:
            lhs = evaluate(expr, t_block[:, None], x_grid[None, :])
        except EvalError as exc:
            problem_module._locate_failure(expr, t_grid[start:], x_grid, exc)
        bad = violates(lhs)
        found = int(np.count_nonzero(bad))
        if found and len(witnesses) < _WITNESS_CAP:
            rows, cols = np.nonzero(bad)
            for i, j in zip(rows[: _WITNESS_CAP - len(witnesses)], cols):
                witnesses.append(
                    (float(t_block[i]), float(x_grid[j]), float(lhs[i, j]), float(rhs[j]))
                )
        count += found
    return ConditionReport(
        condition=condition,
        witnesses=tuple(witnesses),
        violation_count=count,
        samples_t=t_grid.size,
        samples_x=x_grid.size,
    )


def _report_bits(check, *args, **box):
    """A report with its witnesses spelled bit for bit, or the message of its EvalError."""
    try:
        report = check(*args, **box)
    except EvalError as exc:
        return str(exc)
    witnesses = tuple(tuple(value.hex() for value in w) for w in report.witnesses)
    return (report.condition, report.verdict, report.violation_count, witnesses,
            report.samples_t, report.samples_x)


def _assert_scan_matches_reference(spec, **box):
    for check in (check_growth, check_fx_lower):
        got = _report_bits(check, spec, **box)
        with mock.patch.object(problem_module, "_scan", _reference_scan):
            want = _report_bits(check, spec, **box)
        assert got == want, check.__name__


def _trees_over(names):
    """Trees of the shapes test_expr draws whose variables are among ``names``."""
    variables = [st.sampled_from([Var(name) for name in names])] * 2 if names else []
    leaves = st.one_of(st.floats(-3.0, 3.0).map(Num), st.just(Num(0.0)), *variables)
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
            st.builds(BinOp, st.just("^"), sub,
                      st.sampled_from([-2.0, -1.0, 0.5, 2.0, 3.0]).map(Num)),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp", "atan", "sqrt", "abs"]), sub),
            st.builds(Neg, sub),
        ),
        max_leaves=8,
    )


def _trees_using(names):
    """Trees that use exactly the variables ``names``."""
    trees = _trees_over(names)
    for name in names:
        op = st.sampled_from("+-*/")
        trees = (st.builds(BinOp, op, trees, st.just(Var(name)))
                 | st.builds(BinOp, op, st.just(Var(name)), trees))
    return trees


_GROWTH_A = 0.25


def _bound_below(values, level):
    """A bound that ``values`` exceed nowhere, at a few points, or everywhere."""
    if level == "none":
        return values.max()
    if level == "sparse":
        return np.nextafter(np.quantile(values, 0.997, method="higher"), -np.inf)
    return np.nextafter(values.min(), -np.inf)


@settings(max_examples=300, deadline=None, database=None)
@given(
    expr=st.sampled_from([(), ("t",), ("x",), ("t", "x")]).flatmap(_trees_using),
    level=st.sampled_from(["none", "sparse", "dense"]),
    samples_t=st.sampled_from([2, 33, 70]),
    samples_x=st.sampled_from([2, 7, 101]),
)
def test_scan_along_used_axes_matches_full_box_scan(expr, level, samples_t, samples_x):
    t_grid = np.linspace(0.0, 1.0, samples_t)
    x_grid = np.linspace(-2.0, 2.0, samples_x)
    try:
        lhs = evaluate(expr, t_grid[:, None], x_grid[None, :])
    except EvalError:
        lhs = np.zeros(1)  # both scans raise; the bounds do not matter
    # growth fails where |lhs| - A|x| > B, fx_lower where -lhs > -fx_lower; expr
    # need not be differentiable, so it is scanned as both bounds' left side,
    # with the bounds and tests that check_growth and check_fx_lower make
    B = float(_bound_below(np.abs(lhs) - _GROWTH_A * np.abs(x_grid), level))
    growth = _GROWTH_A * np.abs(x_grid) + B
    fx_lower = np.full(samples_x, -float(_bound_below(-lhs, level)))
    for args in (("growth", expr, t_grid, x_grid, growth, lambda f: np.abs(f, out=f) > growth),
                 ("fx_lower", expr, t_grid, x_grid, fx_lower, lambda fx: fx < fx_lower)):
        got = _report_bits(problem_module._scan, *args)
        assert got == _report_bits(_reference_scan, *args), args[0]


@pytest.mark.parametrize(
    "f, v, A, B, fx_lower, x_range",
    [
        ("sqrt(x)", "1", 0.5, 0.5, -10.0, 6.0),  # fails at the first sample, x = -x_range
        ("x/4 + sin(7*t)", "1", 0.5, 1.5, 0.3, 6.0),  # constant f_x below its bound
        ("x/4 + 1/(t - 0.5)", "1", 0.5, 0.5, -10.0, 6.0),  # the pole at t = 0.5
        ("x^3/100", "1", 0.01, 0.01, -10.0, 2.0404),
        ("0.7", "t", 0.5, 0.5, -10.0, 6.0),
        ("x*t - 2*t", "1", 0.5, 0.5, 0.2, 6.0),
        # x only, two violations a row, at x = -1 and 1: the witnesses fill rows 0 to 4
        ("x^2", "0", 1e-3, 0.9985, -10.0, 1.0),
        # a t-only term that overflows from row 178 on, where the once-per-scan
        # column fails but 22 blocks before it scan clean
        ("x + exp(800*t)", "1", 0.5, 0.5, -10.0, 6.0),
    ],
)
def test_scan_along_used_axes_matches_full_box_scan_on_edge_configs(f, v, A, B, fx_lower, x_range):
    spec = make_spec(f, v, A=A, B=B, fx_lower=fx_lower)
    _assert_scan_matches_reference(spec, x_range=x_range)


@pytest.mark.parametrize(
    "name, check, fn, sizes",
    [
        # f1's sin(x), in f and in f_x, on the x row
        ("f1", check_growth, "sin", [2001]),
        ("f1", check_fx_lower, "sin", [2001]),
        # f2's exp(t - pi) and exp(t) in f, and exp(t - pi) in f_x, on the t column
        ("f2", check_growth, "exp", [201, 201]),
        ("f2", check_fx_lower, "exp", [201]),
        # f3's sin(t), on the column
        ("f3", check_growth, "sin", [201]),
    ],
)
def test_scan_runs_each_single_variable_step_once(monkeypatch, name, check, fn, sizes):
    calls = []

    def counting(value, original=expr_module._CALLS[fn]):
        calls.append(np.size(value))
        return original(value)

    monkeypatch.setitem(expr_module._CALLS, fn, counting)
    spec = corpus.build(name)  # new trees, compiled with the counting function
    check(spec, x_range=10.0)
    assert calls == sizes


def test_witnesses_of_an_x_only_condition_continue_past_the_first_row():
    spec = make_spec("x^2", "0", A=1e-3, B=0.9985, fx_lower=-10.0)
    report = check_growth(spec, x_range=1.0)
    assert report.violation_count == 2 * 201
    t_grid = np.linspace(0.0, 1.0, 201)
    assert [(t, x) for t, x, _, _ in report.witnesses] == [
        (t, x) for t in t_grid[:5] for x in (-1.0, 1.0)
    ]


def _first_failure(failing, samples_t, x_range, samples_x=2001):
    t_grid = np.linspace(0.0, 1.0, samples_t)
    x_grid = np.linspace(-x_range, x_range, samples_x)
    with np.errstate(all="ignore"):
        mask = np.broadcast_to(failing(t_grid[:, None], x_grid[None, :]), (samples_t, samples_x))
    i, j = np.unravel_index(np.argmax(mask), mask.shape)
    assert mask[i, j]
    return t_grid[i], x_grid[j]


@pytest.mark.parametrize(
    "f, failing, samples_t, check",
    [
        # row 100 of 201, in the 13th 8-row block
        ("1/(t - 0.5)", lambda t, x: t == 0.5, 201, check_growth),
        ("1/(t - 0.5)", lambda t, x: t == 0.5, 201, check_fx_lower),
        ("1/(t - 1)", lambda t, x: t == 1.0, 2, check_growth),
        ("1/(t - 1)", lambda t, x: t == 1.0, 33, check_growth),
        ("1/(t - 1)", lambda t, x: t == 1.0, 201, check_fx_lower),
        # first fails at row 51 (seventh block), inside the x range
        ("sqrt((x - 1)^2 + 1 - 4*t)", lambda t, x: (x - 1) ** 2 + 1 - 4 * t < 0, 201, check_growth),
    ],
)
def test_check_names_first_failing_point_in_a_later_block(f, failing, samples_t, check):
    spec = make_spec(f, "0", A=0.5, B=0.5, fx_lower=-10.0)
    t, x = _first_failure(failing, samples_t, x_range=2.0)
    with pytest.raises(EvalError) as info:
        _check_on_rows(check, spec, 2.0, samples_t)
    assert str(info.value).startswith(f"evaluation failed at sample point (t={t}, x={x}): ")


def _reference_locate(expr, t_grid, x_grid, cause,
                      where="evaluation failed at sample point (t={t}, x={x})"):
    """The scalar rescan that halving replaced: row by row, then x by x in a failing row."""
    for t in t_grid:
        try:
            evaluate(expr, float(t), x_grid)
        except EvalError:
            for x in x_grid:
                try:
                    evaluate(expr, float(t), float(x))
                except EvalError as exc:
                    raise EvalError(f"{where.format(t=t, x=x)}: {exc}") from exc
    raise cause


def _located(locate, expr, t_grid, x_grid, **where):
    """The message ``locate`` raises after expr fails on the box, or None where it does not fail."""
    try:
        evaluate(expr, t_grid[:, None], x_grid[None, :])
    except EvalError as cause:
        with pytest.raises(EvalError) as info:
            locate(expr, t_grid, x_grid, cause, **where)
        return str(info.value)
    return None


def _with_pole(tree, op, pole, t0, x0):
    """``tree op pole``, where the pole fails at t0, at x0, at (t0, x0), or at every t >= t0."""
    dt, dx = BinOp("-", Var("t"), Num(t0)), BinOp("-", Var("x"), Num(x0))
    pole = {
        "t": BinOp("/", Num(1.0), dt),
        "x": BinOp("/", Num(1.0), dx),
        "point": BinOp("/", Num(1.0), BinOp("+", BinOp("^", dt, Num(2.0)),
                                            BinOp("^", dx, Num(2.0)))),
        "after": BinOp("/", Num(1.0), Call("sqrt", BinOp("-", Num(t0), Var("t")))),
    }[pole]
    return BinOp(op, tree, pole)


def _index(where, size):
    return round(where * (size - 1))


_WHERE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None, database=None)
@given(
    tree=_trees_over(("t", "x")),
    op=st.sampled_from("+-*"),
    pole=st.sampled_from(["t", "x", "point", "after"]),
    samples_t=st.sampled_from([2, 33, 201]),
    samples_x=st.sampled_from([2, 7, 101]),
    where_t=_WHERE,
    where_x=_WHERE,
)
# the first row, the last row, and the last sample point
@example(tree=Num(1.0), op="+", pole="t", samples_t=201, samples_x=101, where_t=0.0, where_x=0.0)
@example(tree=Num(1.0), op="+", pole="t", samples_t=201, samples_x=101, where_t=1.0, where_x=0.0)
@example(tree=Var("x"), op="*", pole="point", samples_t=201, samples_x=101, where_t=1.0,
         where_x=1.0)
def test_halving_names_the_point_of_the_scalar_rescan(tree, op, pole, samples_t, samples_x,
                                                       where_t, where_x):
    t_grid = np.linspace(0.0, 1.0, samples_t)
    x_grid = np.linspace(-2.0, 2.0, samples_x)
    t0, x0 = t_grid[_index(where_t, samples_t)], x_grid[_index(where_x, samples_x)]
    expr = _with_pole(tree, op, pole, float(t0), float(x0))
    want = _located(_reference_locate, expr, t_grid, x_grid)
    assert want is not None
    assert _located(problem_module._locate_failure, expr, t_grid, x_grid) == want


@settings(max_examples=200, deadline=None, database=None)
@given(
    tree=_trees_over(("t",)),
    op=st.sampled_from("+-*"),
    pole=st.sampled_from(["t", "after"]),
    n=st.sampled_from([2, 3, 64, 1000]),
    where_t=_WHERE,
)
# v fails at the first node and at the last node
@example(tree=Num(1.0), op="+", pole="t", n=1000, where_t=0.0)
@example(tree=Num(1.0), op="+", pole="t", n=1000, where_t=1.0)
def test_halving_names_the_t_of_v_that_the_scalar_rescan_names(tree, op, pole, n, where_t):
    t_grid = np.arange(1, n) / n
    t0 = t_grid[_index(where_t, t_grid.size)]
    expr = _with_pole(tree, op, pole, float(t0), 0.0)
    where = {"where": "v cannot be evaluated at t={t}"}
    want = _located(_reference_locate, expr, t_grid, np.zeros(1), **where)
    assert want is not None
    assert _located(problem_module._locate_failure, expr, t_grid, np.zeros(1), **where) == want


def test_naming_where_v_fails_copies_no_nodes():
    # v fails only at the last of the 10^6 interior nodes.  The halving reads
    # the nodes and x = 0 through views, so its peak is about that of v on
    # half the nodes: its difference, its zero mask and its quotient.
    t = np.arange(1, 10**6) / 10**6
    v = parse("1/(t - 0.999999)")
    with pytest.raises(EvalError) as failed:
        evaluate(v, t, 0.0)
    where = "v cannot be evaluated at t={t}"
    tracemalloc.start()
    try:
        with pytest.raises(EvalError, match=r"^v cannot be evaluated at t=0.999999: division by zero$"):
            problem_module._locate_failure(v, t, np.zeros(1), failed.value, where)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * t.nbytes


@pytest.mark.parametrize("check", [check_growth, check_fx_lower])
def test_check_memory_stays_below_one_full_box_array(check):
    spec = corpus.build("f1")
    check(spec, x_range=10.0)  # compile the trees outside the traced run
    tracemalloc.start()
    try:
        check(spec, x_range=10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 201 * 2001 * 8


def test_check_rejects_bad_sampling():
    spec = make_spec("0", "0", A=0.3, B=0.2, fx_lower=-0.5)
    for check in (check_growth, check_fx_lower):
        with pytest.raises(ValueError, match="^x_range must be positive$"):
            check(spec, x_range=-1.0)


def test_classify_examples():
    flags = classify(make_spec("0", "0", A=0.1, B=0.5, fx_lower=-0.9))
    assert flags.continuous_theorem_applies and flags.discrete_theorem_applies

    flags = classify(make_spec("0", "0", A=2.0, B=0.5, fx_lower=-0.5))
    assert flags.continuous_theorem_applies and not flags.discrete_theorem_applies

    flags = classify(make_spec("0", "0", A=0.5, B=0.5, fx_lower=-20.0))
    assert not flags.continuous_theorem_applies and not flags.discrete_theorem_applies


def test_classify_discrete_implies_continuous():
    rng = np.random.default_rng(5)
    for _ in range(200):
        spec = make_spec(
            "0",
            "0",
            A=float(rng.uniform(0.01, 15.0)),
            B=0.5,
            fx_lower=float(rng.uniform(-15.0, 5.0)),
        )
        flags = classify(spec)
        assert flags.continuous_theorem_applies or not flags.discrete_theorem_applies


def test_apriori_bound():
    spec = make_spec("0", "0", A=0.1, B=0.5, fx_lower=0.0)
    np.testing.assert_allclose(apriori_bound(spec, 1.0), 5.0 / 3.0)

    tiny = make_spec("0", "0", A=1e-9, B=1e-9, fx_lower=0.0)
    assert apriori_bound(tiny, 0.0) < 1e-8

    at_one = make_spec("0", "0", A=1.0, B=0.5, fx_lower=0.0)
    with pytest.raises(ValueError):
        apriori_bound(at_one, 1.0)
    # the bound of a nonnegative finite sup|v|, else no bound; True would pass as 1
    for bad in (-1.0, -np.inf, np.nan, np.inf, True, False, np.True_):
        with pytest.raises(ValueError, match="v_sup must be finite and nonnegative"):
            apriori_bound(spec, bad)


def test_spec_fields_and_positional_order():
    # f_x is no field: it is derived from f, and the constants are stored as floats
    assert [field.name for field in fields(ProblemSpec)] == [
        "f", "v", "declared_A", "declared_B", "declared_fx_lower", "x_star"]
    # with x_star, a None v is derived as x_star'' - f(t, x_star)
    spec = ProblemSpec(parse("x/4"), None, 1, np.float64(0.5), -1, parse("t*(t - 1)"))
    constants = (spec.declared_A, spec.declared_B, spec.declared_fx_lower)
    assert constants == (1.0, 0.5, -1.0) and all(type(c) is float for c in constants)
    assert spec.fx == diff(parse("x/4"), "x")
    assert spec.x_star == parse("t*(t - 1)")
    assert spec.v == parse("(1 + 1) - t*(t - 1)/4")


def test_replaced_f_takes_its_own_fx():
    # f_x follows f, so the fx_lower check reads the f_x of -x/2, -0.5, which is
    # below f1's declared -0.25, as it is for the same f through make_spec
    spec = replace(corpus.build("f1"), f=parse("-x/2"))
    built = make_spec("-x/2", "1", A=0.1, B=0.5, fx_lower=-0.25)
    assert spec == built and spec.fx == built.fx
    assert evaluate(spec.fx, 0.5, 1.0) == -0.5
    for report in (check_fx_lower(spec, 2.0), check_fx_lower(built, 2.0)):
        assert report.verdict == "violated"
    # and a replaced f must be differentiable, as make_spec's must
    with pytest.raises(NonDifferentiableError, match="abs is not differentiable"):
        replace(corpus.build("f1"), f=parse("abs(x)"))


def _solve_bits(spec, n=32):
    report = newton_solve(spec, n)
    return (report.status, report.iterations, report.residual_norm.hex(), report.step_trace,
            report.solution.values.tobytes())


@pytest.mark.parametrize(
    "build",
    [lambda: ProblemSpec("x/4", "1", 0.1, 0.5, -0.25), lambda: replace(corpus.build("f1"), f="x/4")],
    ids=["constructor", "replace"],
)
def test_source_text_fields_build_as_make_spec_does(build):
    # the text was kept as it was, and f_x of the string 'x/4' did not derive
    spec, built = build(), make_spec("x/4", "1", A=0.1, B=0.5, fx_lower=-0.25)
    assert spec == built
    bits = _solve_bits(spec)
    assert bits[0] == CONVERGED and bits == _solve_bits(built)


@pytest.mark.parametrize(
    "name, change, error, message",
    [
        # a float v built, and newton_solve then raised AttributeError on it
        ("f1", {"v": 3.0}, TypeError, "v must be an expression string or tree, got 3.0"),
        # a text x_star raised AttributeError inside the constructor
        ("f1_sin", {"x_star": "t"}, ValueError,
         "x_star(1.0) = 1.0 violates the zero boundary condition"),
    ],
    ids=["float v", "text x_star"],
)
def test_replace_parses_and_checks_expression_fields(name, change, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        replace(corpus.build(name), **change)


def test_manufactured_v_is_derived_and_kept_by_replace():
    spec = corpus.build("f1_sin")
    derived = ProblemSpec(spec.f, None, 0.1, 0.5, -0.25, spec.x_star)
    assert format_expr(derived.v) == format_expr(spec.v)
    replaced = replace(spec, declared_A=0.2)
    assert replaced.v is spec.v and replaced.declared_A == 0.2
    # a v given with x_star must be the derived one, and a None v needs x_star
    with pytest.raises(ValueError, match="^v must be x_star'' - f"):
        ProblemSpec(spec.f, "1", 0.1, 0.5, -0.25, spec.x_star)
    with pytest.raises(TypeError, match="^v must be an expression string or tree, got None$"):
        ProblemSpec(spec.f, None, 0.1, 0.5, -0.25)


@functools.cache
def deepest_manufactured_spec():
    """The deepest spec that builds whose x_star is a left-deep sum of k copies of t(t - 1)."""
    q = parse("t*(t - 1)")

    def manufactured(k):
        x_star = functools.reduce(lambda e, _: BinOp("+", e, q), range(k - 1), q)
        return manufacture("x/4", x_star, A=0.5, B=1, fx_lower=-0.5)

    def builds(k):
        try:
            manufactured(k)
        except NestingError:
            return False
        return True

    # double k until it fails to build, then halve the gap to the deepest that builds
    lo, hi = 1, 2
    while builds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if builds(mid) else (lo, mid)
    return manufactured(lo)


def test_deepest_manufactured_spec_can_be_replaced():
    # the spec compares a given v by its text, as tree == recursed too deep to
    # compare v at this depth
    spec = deepest_manufactured_spec()
    assert replace(spec, declared_A=0.25).v is spec.v
    assert format_expr(replace(spec, v=None).v) == format_expr(spec.v)


def test_deepest_manufactured_spec_equals_and_hashes_as_its_copy():
    # == and hash of the trees recurse several frames per level and overflowed
    # Python's stack on this spec; the spec compares and hashes their text
    spec = deepest_manufactured_spec()
    copy = replace(spec, v=None)
    assert copy.v is not spec.v
    assert spec == copy and not spec != copy
    assert hash(spec) == hash(copy)


def test_specs_that_differ_in_one_field_are_unequal():
    # each change derives v again, so the two specs share no v tree to
    # compare by identity
    spec = deepest_manufactured_spec()
    changes = [
        {"f": "x/5"},
        {"x_star": BinOp("*", Num(2.0), spec.x_star)},
        {"declared_A": 0.25},
        {"declared_B": 2.0},
        {"declared_fx_lower": -0.25},
    ]
    for change in changes:
        other = replace(spec, v=None, **change)
        assert spec != other and not spec == other, change
    # v alone differs where no x_star fixes it
    f1 = corpus.build("f1")
    assert f1 == corpus.build("f1") and f1 != replace(f1, v="2")
    assert f1 != "f1" and f1 != format_expr(f1.f)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"v": parse("x + 1")}, "the forcing term v must depend on t only"),
        ({"declared_B": math.nan}, "declared constants A, B and fx_lower must be finite"),
        ({"declared_fx_lower": math.nan}, "declared constants A, B and fx_lower must be finite"),
        ({"declared_A": -0.5}, "growth constants A and B must be positive"),
        ({"declared_B": True},
         "declared constants A, B and fx_lower must be numbers, not booleans"),
        # text, which the check that v is in t only once skipped
        ({"v": "x"}, "the forcing term v must depend on t only"),
    ],
)
def test_replace_checks_the_spec_it_builds(change, message):
    # replace refuses each change as make_spec does, with the same message; a
    # spec with one would take v at x = 0 or hold a bound that compares false
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(corpus.build("f1"), **change)
    args = {"f": F1, "v": "1", "A": 0.1, "B": 0.5, "fx_lower": -0.25}
    renamed = {"declared_A": "A", "declared_B": "B", "declared_fx_lower": "fx_lower"}
    args.update({renamed.get(key, key): value for key, value in change.items()})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_spec(**args)


def test_condition_report_invariant():
    with pytest.raises(ValueError, match="must carry at least one witness"):
        ConditionReport(
            condition="growth",
            witnesses=(),
            violation_count=3,
            samples_t=2,
            samples_x=2,
        )


def test_condition_report_verdict_follows_its_count():
    # no field of a report can contradict its count: the verdict is read off it
    witness = ((0.0, 1.0, 2.0, 1.5),)
    violated = ConditionReport("growth", witness, 5, 2, 2)
    assert violated.violated and violated.verdict == "violated"
    clean = ConditionReport("growth", (), 0, 2, 2)
    assert not clean.violated and clean.verdict == "no-violation-found"
    assert "verdict" not in {field.name for field in fields(ConditionReport)}
