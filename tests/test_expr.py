import functools
import gc
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirbvp import corpus
from dirbvp import expr as expr_module
from dirbvp.expr import (
    BinOp,
    Call,
    EvalError,
    Expr,
    Neg,
    NestingError,
    NonDifferentiableError,
    Num,
    ParseError,
    Var,
    diff,
    evaluate,
    format_expr,
    parse,
    substitute,
)
from dirbvp.problem import check_growth, make_spec
from dirbvp.solver import EVAL_ERROR, newton_solve

F1 = "(t + sin(x))/(2*x^2 + 4)"
F2 = "x*exp(t - pi) - atan(x) + exp(t)"

# Fixed corpus: each entry must evaluate exactly like the reference lambda.
CORPUS = [
    ("t", lambda t, x: t),
    ("x", lambda t, x: x),
    ("pi", lambda t, x: math.pi),
    ("e", lambda t, x: math.e),
    ("2.5e-1", lambda t, x: 0.25),
    ("t + x*2", lambda t, x: t + x * 2),
    ("t - x - 1", lambda t, x: t - x - 1),
    ("2*t/4", lambda t, x: 2 * t / 4),
    ("t^2 + x^3", lambda t, x: t**2 + x**3),
    ("-t^2", lambda t, x: -(t**2)),
    ("x^-2", lambda t, x: x**-2),
    (F1, lambda t, x: (t + math.sin(x)) / (2 * x**2 + 4)),
    (F2, lambda t, x: x * math.exp(t - math.pi) - math.atan(x) + math.exp(t)),
    (
        "(x^3 + x^2 - x)/(2*x^2 + 5) + t^3 - sin(t)",
        lambda t, x: (x**3 + x**2 - x) / (2 * x**2 + 5) + t**3 - math.sin(t),
    ),
    ("sqrt(x^2 + 1)", lambda t, x: math.sqrt(x**2 + 1)),
    ("abs(x - t)", lambda t, x: abs(x - t)),
    ("cos(pi*t)^2", lambda t, x: math.cos(math.pi * t) ** 2),
    ("sin(cos(exp(t)))", lambda t, x: math.sin(math.cos(math.exp(t)))),
    ("1/(1 + x^2)", lambda t, x: 1 / (1 + x**2)),
    ("t*x - x/2 + 3", lambda t, x: t * x - x / 2 + 3),
    ("atan(t*x)", lambda t, x: math.atan(t * x)),
]

SAMPLE_POINTS = [(0.0, 0.7), (0.3, -1.2), (0.5, 0.4), (0.9, 2.1), (1.0, -0.6)]


def test_parse_tree_shape():
    assert parse("t + sin(x)") == BinOp("+", Var("t"), Call("sin", Var("x")))


def test_parse_corpus_round_trip():
    for text, ref in CORPUS:
        expr = parse(text)
        for t, x in SAMPLE_POINTS:
            np.testing.assert_allclose(evaluate(expr, t, x), ref(t, x), rtol=1e-14)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("x e")  # no implicit multiplication
    with pytest.raises(ParseError):
        parse("x +")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("foo(3)")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("t + y")
    with pytest.raises(ParseError, match="exactly one argument"):
        parse("sin(x, t)")
    with pytest.raises(ParseError):
        parse("sin()")
    with pytest.raises(ParseError):
        parse("sin + 1")  # function name used as a value
    with pytest.raises(ParseError, match="constant"):
        parse("x^t")
    with pytest.raises(ParseError):
        parse("(t + 1")
    with pytest.raises(ParseError):
        parse("1 @ 2")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse("x e")
    assert info.value.position == 2


def test_eval_paper_examples():
    assert evaluate(parse(F1), 0.0, 0.0) == 0.0
    assert evaluate(parse(F2), 0.0, 0.0) == 1.0


def test_eval_domain_errors():
    with pytest.raises(EvalError, match="division by zero"):
        evaluate(parse("1/x"), 0.0, 0.0)
    with pytest.raises(EvalError, match="sqrt"):
        evaluate(parse("sqrt(x)"), 0.0, -1.0)
    with pytest.raises(EvalError):
        evaluate(parse("x^-1"), 0.0, 0.0)
    with pytest.raises(EvalError, match="non-positive base"):
        evaluate(parse("x^0.5"), 0.0, -2.0)
    with pytest.raises(EvalError):
        evaluate(parse("exp(x)"), 0.0, 1000.0)  # overflow must not return inf


@pytest.mark.parametrize(
    "f, t, x, message",
    [
        ("x/(t - 0.5)", 0.5, -2.0, "division by zero"),
        ("0/(x - x)", 0.0, -2.0, "division by zero"),
        ("sqrt(x - 3)", 0.0, -2.0, "sqrt of a negative value"),
        ("x^-2", 0.0, 0.0, "zero base with a negative exponent"),
    ],
)
def test_domain_faults_are_named_through_evaluate_newton_and_check(f, t, x, message):
    # each operand is checked only once its operation trips one of evaluate's
    # traps; (t, x) is the first point of check's row-major box on [-2, 2]
    # where f fails, and the zero start fails too
    tree = parse(f)
    for point in ((t, x), (np.array([t, t]), np.array([x, x]))):
        with pytest.raises(EvalError) as info:
            evaluate(tree, *point)
        assert str(info.value) == message
        # raised after the trap's handler, so nothing of the trapped error is kept
        assert info.value.__context__ is None and info.value.__cause__ is None
    spec = make_spec(f, "1", A=0.5, B=1.0, fx_lower=-0.5)
    report = newton_solve(spec, 16)
    assert (report.status, report.iterations) == (EVAL_ERROR, 0)
    assert math.isnan(report.residual_norm)
    with pytest.raises(EvalError) as info:
        check_growth(spec, x_range=2.0)
    assert str(info.value) == f"evaluation failed at sample point (t={t}, x={x}): {message}"


def test_overflow_in_a_divide_is_not_a_division_by_zero():
    # the divide traps, but on no zero denominator: the trapped flag is named
    tree = parse("1e300/(x*1e-300)")
    with pytest.raises(EvalError, match=r"^non-finite result: overflow encountered in divide$"):
        evaluate(tree, 0.0, np.array([1.0]))
    with pytest.raises(EvalError, match=r"^non-finite result: overflow encountered in scalar divide$"):
        evaluate(tree, 0.0, 1.0)
    with pytest.raises(EvalError, match=r"^non-finite result: overflow encountered in divide$"):
        evaluate(parse("x^-1"), 0.0, np.array([1e-310]))


def test_eval_integer_power_of_negative_base():
    assert evaluate(parse("x^3"), 0.0, -2.0) == -8.0
    assert evaluate(parse("x^0"), 0.0, 0.0) == 1.0


def test_odd_integer_power_is_odd_bitwise():
    x = np.random.default_rng(3).uniform(0.1, 60.0, 100_000)
    cube = parse("x^3")
    assert np.array_equal(evaluate(cube, 0.0, -x).view(np.int64), (-evaluate(cube, 0.0, x)).view(np.int64))


def test_square_is_bitwise_np_power_two():
    bits = np.random.default_rng(4).integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    with np.errstate(all="ignore"):
        x = x[np.isfinite(x) & np.isfinite(np.power(x, 2.0))]
    assert x.size > 400_000
    expected = np.power(x, 2.0)
    assert np.array_equal(evaluate(parse("x^2"), 0.0, x).view(np.int64), expected.view(np.int64))


def _cpu_dispatch():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


def test_solve_csv_does_not_depend_on_simd_dispatch(tmp_path):
    dispatch = _cpu_dispatch()
    if not dispatch:
        pytest.skip("this numpy dispatches to no SIMD target at run time")
    root = Path(__file__).resolve().parents[1]
    csvs = []
    for name, disabled in (("usual", None), ("baseline", " ".join(dispatch))):
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        out = tmp_path / f"{name}.csv"
        subprocess.run(
            [sys.executable, "-m", "dirbvp.cli", "solve", "--config", str(root / "configs" / "f3.txt"),
             "--n", "10000", "--output", str(out)],
            env=env, check=True, capture_output=True,
        )
        csvs.append(out.read_bytes())
    # f3's negative solution runs x^3 and x^2 on negative bases, where numpy's
    # pow differs between its SIMD targets in the last bit
    assert csvs[0] == csvs[1]


def test_integer_power_edge_cases():
    assert evaluate(parse("x^-2"), 0.0, 1e200) == 0.0  # underflow, not an overflow of 1e200^2
    with pytest.raises(EvalError, match="non-finite"):
        evaluate(parse("x^-2"), 0.0, 1e-200)
    with pytest.raises(EvalError, match="zero base with a negative exponent"):
        evaluate(parse("x^-1"), 0.0, 0.0)
    with pytest.raises(EvalError, match="non-finite"):
        evaluate(parse("x^3"), 0.0, 1e103)
    huge = parse("x^1e300")
    assert evaluate(huge, 0.0, 0.5) == 0.0
    assert evaluate(huge, 0.0, 1.0) == 1.0
    with pytest.raises(EvalError, match="non-finite"):
        evaluate(huge, 0.0, 2.0)


def _trapped_chain_power(base, c):
    """_chain_power under evaluate's checks and traps: a value, or evaluate's message."""
    if c < 0 and np.count_nonzero(base == 0.0):
        return "zero base with a negative exponent"
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            return _chain_power(base, c)
    except FloatingPointError as exc:
        return f"non-finite result: {exc}"


def test_integer_power_is_the_chain_bitwise():
    rng = np.random.default_rng(17)
    messages = set()
    for c in [*range(-12, 0), *range(1, 13), 2**31 + 1, 2**53, 1e300, -1e300]:
        tree = BinOp("^", Var("x"), Num(float(c)))
        signs = rng.choice([-1.0, 1.0], 48)
        spread = signs * 10.0 ** rng.uniform(-160.0, 160.0, 48)
        spread[:16] = signs[:16] * (1.0 + rng.integers(-8, 9, 16) * 2.0**-52)
        # 1e120^7: the product p^2 * p overflows before the square p^4 would
        fixed = [0.0, -0.0, 5e-324, 0.5, -2.0, 1e120, -1e120]
        moderate = signs * np.exp(rng.uniform(-1.0, 1.0, 48) * (300.0 / abs(c)))
        assert not isinstance(_trapped_chain_power(moderate, c), str)
        for x in [*spread, *fixed, spread, moderate]:
            expected = _trapped_chain_power(np.float64(x) if np.ndim(x) == 0 else x, c)
            got = _message_or_value(evaluate, tree, 0.0, x)
            if isinstance(expected, str):
                assert got == expected, (c, x)
                messages.add(expected)
            else:
                assert not isinstance(got, str), (c, x, got)
                assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(expected).view(np.int64))
    assert "zero base with a negative exponent" in messages
    for ufunc in ("square", "multiply", "divide"):
        assert any(message.endswith(ufunc) for message in messages), ufunc
    tiny = BinOp("^", Var("x"), Num(-1e300))
    assert evaluate(tiny, 0.0, 2.0) == 0.0
    with pytest.raises(EvalError, match="overflow encountered in square"):
        evaluate(tiny, 0.0, 0.5)


def test_eval_broadcasts_arrays():
    expr = parse("t + x^2")
    t = np.array([0.0, 0.5, 1.0])
    out = evaluate(expr, t, 2.0)
    np.testing.assert_allclose(out, t + 4.0)
    out = evaluate(parse("3"), t, 0.0)
    np.testing.assert_allclose(out, np.full(3, 3.0))


def test_diff_polynomial_plus_sine():
    d = diff(parse("x^2 + sin(x)"), "x")
    for x in np.linspace(-3, 3, 100):
        np.testing.assert_allclose(evaluate(d, 0.0, x), 2 * x + math.cos(x), rtol=1e-13)


def test_diff_f2_matches_hand_derivative():
    d = diff(parse(F2), "x")
    for t, x in SAMPLE_POINTS:
        expected = math.exp(t - math.pi) - 1 / (1 + x**2)
        np.testing.assert_allclose(evaluate(d, t, x), expected, rtol=1e-13)


def test_second_t_derivative_of_sine():
    d2 = diff(diff(parse("sin(pi*t)"), "t"), "t")
    for t in np.linspace(0, 1, 50):
        np.testing.assert_allclose(
            evaluate(d2, t, 0.0), -math.pi**2 * math.sin(math.pi * t), rtol=1e-12, atol=1e-12
        )


@pytest.mark.parametrize(
    "source, var, derivative",
    [
        ("t*x + 2", "x", "t"),  # 0*x + t*1 + 0
        ("x*exp(t - pi) - atan(x) + exp(t)", "x", "(exp((t - 3.141592653589793)) - (1.0 / (1.0 + (x ^ 2.0))))"),
        ("t - sin(x)", "x", "(-cos(x))"),  # 0 - cos(x)*1
        ("t - cos(x)", "x", "sin(x)"),  # 0 - (-sin(x))*1
        ("sin(pi*t)", "t", "(cos((3.141592653589793 * t)) * 3.141592653589793)"),
        ("t^2 - t", "t", "((2.0 * (t ^ 1.0)) - 1.0)"),
        ("(t + x)^1", "x", "1.0"),  # 1*(t + x)^0*(0 + 1)
        # a zero numerator keeps the quotient rule's division, and its traps
        ("1/(t - 0.5)", "x", "(0.0 / ((t - 0.5) ^ 2.0))"),
        ("atan(t)", "x", "(0.0 / (1.0 + (t ^ 2.0)))"),
        ("sqrt(t)", "x", "(0.0 / (2.0 * sqrt(t)))"),
    ],
)
def test_diff_builds_no_zero_term_or_factor_of_one(source, var, derivative):
    assert format_expr(diff(parse(source), var)) == derivative


def test_diff_rejects_abs():
    with pytest.raises(NonDifferentiableError):
        diff(parse("abs(x)"), "x")
    with pytest.raises(ValueError):
        diff(parse("x"), "y")


def _random_expr(rng, depth):
    if depth == 0 or rng.integers(0, 4) == 0:
        choice = rng.integers(0, 3)
        if choice == 0:
            return Num(float(rng.uniform(-2.0, 2.0)))
        return Var("t" if choice == 1 else "x")
    kind = rng.integers(0, 7)
    if kind <= 2:
        op = "+-*"[kind]
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 3:
        # keep denominators away from zero so the derivative stays tame
        denom = BinOp("+", BinOp("^", _random_expr(rng, depth - 1), Num(2.0)), Num(1.0))
        return BinOp("/", _random_expr(rng, depth - 1), denom)
    if kind == 4:
        return BinOp("^", _random_expr(rng, depth - 1), Num(float(rng.integers(2, 4))))
    if kind == 5:
        return Call(str(rng.choice(["sin", "cos", "atan", "exp"])), _random_expr(rng, depth - 1))
    return Neg(_random_expr(rng, depth - 1))


def test_diff_matches_finite_differences_on_random_expressions():
    rng = np.random.default_rng(2024)
    h = 1e-6
    compared = 0
    for _ in range(150):
        expr = _random_expr(rng, 3)
        try:
            d = diff(expr, "x")
        except NonDifferentiableError:
            continue
        for _ in range(3):
            t = float(rng.uniform(0.0, 1.0))
            x = float(rng.uniform(-1.0, 1.0))
            try:
                analytic = evaluate(d, t, x)
                fd = (evaluate(expr, t, x + h) - evaluate(expr, t, x - h)) / (2 * h)
            except EvalError:
                continue
            if abs(analytic) > 1e3:
                continue  # finite differences are unreliable at steep points
            assert abs(analytic - fd) <= 1e-5 * (1.0 + abs(analytic))
            compared += 1
    assert compared >= 150


def test_substitute():
    f = parse(F1)
    target = parse("t^2 - t")
    composed = substitute(f, "x", target)
    for t in np.linspace(0, 1, 20):
        expected = evaluate(f, t, evaluate(target, t, 0.0))
        np.testing.assert_allclose(evaluate(composed, t, 0.0), expected, rtol=1e-14)


def test_format_expr_round_trips_through_parse():
    for text, _ in CORPUS:
        expr = parse(text)
        again = parse(format_expr(expr))
        for t, x in SAMPLE_POINTS:
            np.testing.assert_allclose(evaluate(again, t, x), evaluate(expr, t, x), rtol=1e-14)


def _chain_power(base, c):
    """base^c for an integer c != 0, by the chain that defines integer '^'.

    p is base for c > 0 and 1/base for c < 0.  Squaring upward runs p
    through p, p^2, p^4, ...; the first of them at a set bit of |c| starts
    the product and each later one at a set bit multiplies it as
    square * product.  Plain IEEE products, written as a loop; a square is
    np.square, bitwise p*p, so that an overflow there names the same ufunc.
    """
    p = base if c > 0 else 1.0 / base
    k = int(abs(c))
    product = None
    while True:
        if k & 1:
            product = p if product is None else p * product
        k >>= 1
        if not k:
            return product
        p = np.square(p)


# Reference: the tree walk that checks every node's result for finiteness,
# kept verbatim from before evaluate trapped floating-point flags instead,
# apart from '^' with an integer exponent other than 0, which is defined by
# _chain_power in place of np.power.
_REFERENCE_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "atan": np.arctan,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


def _reference_operand(value):
    if isinstance(value, np.ndarray):
        return value.astype(float, copy=False)
    return float(value)


def _reference_check_finite(value, what):
    if not np.all(np.isfinite(value)):
        raise EvalError(f"non-finite result in {what}")
    return value


def _reference_eval(node, t, x):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t if node.name == "t" else x
    if isinstance(node, Neg):
        return -_reference_eval(node.arg, t, x)
    if isinstance(node, BinOp):
        left = _reference_eval(node.left, t, x)
        if node.op == "^":
            return _reference_eval_power(left, node.right)
        right = _reference_eval(node.right, t, x)
        if node.op == "+":
            return _reference_check_finite(left + right, "'+'")
        if node.op == "-":
            return _reference_check_finite(left - right, "'-'")
        if node.op == "*":
            return _reference_check_finite(left * right, "'*'")
        if node.op == "/":
            if np.any(right == 0.0):
                raise EvalError("division by zero")
            return _reference_check_finite(left / right, "'/'")
        raise EvalError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        arg = _reference_eval(node.arg, t, x)
        if node.fn == "sqrt" and np.any(arg < 0.0):
            raise EvalError("sqrt of a negative value")
        return _reference_check_finite(_REFERENCE_FUNCTIONS[node.fn](arg), node.fn)
    raise EvalError(f"unknown node {node!r}")


def _reference_eval_power(base, exponent):
    if not isinstance(exponent, Num):
        raise EvalError("exponent must be a constant")
    c = exponent.value
    if c == round(c):
        if c < 0 and np.any(base == 0.0):
            raise EvalError("zero base with a negative exponent")
        value = _chain_power(base, c) if c != 0 else np.power(base, c)
        return _reference_check_finite(value, "'^'")
    if np.any(base <= 0.0):
        raise EvalError("non-integer power of a non-positive base")
    return _reference_check_finite(np.power(base, c), "'^'")


def _reference_evaluate(expr, t=0.0, x=0.0):
    t = _reference_operand(t)
    x = _reference_operand(x)
    with np.errstate(all="ignore"):
        result = _reference_eval(expr, t, x)
    shape = np.broadcast_shapes(np.shape(t), np.shape(x))
    if shape == ():
        return float(result)
    return np.broadcast_to(np.asarray(result, dtype=float), shape).copy()


def _domain_random_expr(rng, depth):
    """Random trees that also reach the domain checks: bare division, sqrt,
    abs, negative and fractional powers, and the constant 0."""
    if depth == 0 or rng.integers(0, 4) == 0:
        choice = rng.integers(0, 4)
        if choice == 0:
            return Num(float(rng.uniform(-3.0, 3.0)))
        if choice == 1:
            return Num(0.0)
        return Var("t" if choice == 2 else "x")
    kind = rng.integers(0, 6)
    if kind <= 3:
        op = "+-*/"[kind]
        return BinOp(op, _domain_random_expr(rng, depth - 1), _domain_random_expr(rng, depth - 1))
    if kind == 4:
        c = float(rng.choice([-2.0, -1.0, 0.0, 0.5, 1.5, 3.0, 7.0]))
        return BinOp("^", _domain_random_expr(rng, depth - 1), Num(c))
    fn = str(rng.choice(list(_REFERENCE_FUNCTIONS)))
    return Call(fn, _domain_random_expr(rng, depth - 1))


def _outcome(fn, expr, t, x):
    try:
        return fn(expr, t, x)
    except EvalError:
        return EvalError


def test_evaluate_matches_checked_reference_on_random_trees():
    rng = np.random.default_rng(7)
    xs = np.concatenate([[0.0, -1e3, 1e3], rng.uniform(-1e3, 1e3, 20), rng.uniform(-2, 2, 20)])
    ts = rng.uniform(0.0, 1.0, xs.size)
    points = [(float(t), float(x)) for t, x in zip(ts[::7], xs[::7])]
    points += [(ts, xs), (0.5, xs), (ts[:, None], xs[None, :8])]
    raised = values = 0
    for i in range(600):
        maker = _random_expr if i % 2 == 0 else _domain_random_expr
        expr = maker(rng, 4)
        for t, x in points:
            expected = _outcome(_reference_evaluate, expr, t, x)
            got = _outcome(evaluate, expr, t, x)
            if expected is EvalError:
                assert got is EvalError, format_expr(expr)
                raised += 1
                continue
            assert got is not EvalError, format_expr(expr)
            assert type(got) is type(expected)
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(expected).view(np.int64))
            values += 1
    assert raised >= 100 and values >= 1000


def test_evaluate_traps_overflow_of_scalars():
    # Python-float arithmetic would give inf here without a flag
    with pytest.raises(EvalError):
        evaluate(parse("atan(1e200*1e200)"))
    with pytest.raises(EvalError):
        evaluate(parse("atan(x*x)"), 0.0, 1e200)


def test_evaluate_traps_overflow_hidden_by_a_later_node():
    # atan(inf) is finite, so only the trap at exp catches the overflow
    with pytest.raises(EvalError):
        evaluate(parse("atan(exp(x))"), 0.0, 1000.0)
    with pytest.raises(EvalError):
        evaluate(parse("atan(exp(x))"), 0.0, np.array([0.0, 1000.0]))


def test_evaluate_underflow_is_zero():
    assert evaluate(parse("exp(x)"), 0.0, -1000.0) == 0.0
    assert np.all(evaluate(parse("exp(x)"), 0.0, np.array([-1000.0, -800.0])) == 0.0)


def test_evaluate_rejects_non_finite_input():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(EvalError, match="non-finite input"):
            evaluate(parse("x + 1"), 0.0, bad)
        with pytest.raises(EvalError, match="non-finite input"):
            evaluate(parse("x + 1"), np.array([0.0, bad]), 0.0)


def test_parse_rejects_out_of_range_number():
    # an overflowing literal would enter evaluation as inf, where no flag is set
    with pytest.raises(ParseError, match="out of range"):
        parse("1e400*x")


# Second reference: the trapped tree walk that evaluate ran before it
# compiled trees, kept verbatim apart from the names and from '^' with an
# integer exponent other than 0, which is _chain_power in place of np.power.
def _walk_eval(node, t, x):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return t if node.name == "t" else x
    if isinstance(node, Neg):
        return -_walk_eval(node.arg, t, x)
    if isinstance(node, BinOp):
        left = _walk_eval(node.left, t, x)
        if node.op == "^":
            return _walk_eval_power(left, node.right)
        right = _walk_eval(node.right, t, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if np.any(right == 0.0):
                raise EvalError("division by zero")
            return left / right
        raise EvalError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        arg = _walk_eval(node.arg, t, x)
        if node.fn == "sqrt" and np.any(arg < 0.0):
            raise EvalError("sqrt of a negative value")
        return _REFERENCE_FUNCTIONS[node.fn](arg)
    raise EvalError(f"unknown node {node!r}")


def _walk_eval_power(base, exponent):
    if not isinstance(exponent, Num):
        raise EvalError("exponent must be a constant")
    c = exponent.value
    if c == round(c):
        if c < 0 and np.any(base == 0.0):
            raise EvalError("zero base with a negative exponent")
        if c != 0:
            return _chain_power(base, c)
    elif np.any(base <= 0.0):
        raise EvalError("non-integer power of a non-positive base")
    return np.power(base, c)


def _walk_operand(value):
    if isinstance(value, np.ndarray):
        return value.astype(float, copy=False)
    return np.float64(value)


def _walk_evaluate(expr, t=0.0, x=0.0):
    t = _walk_operand(t)
    x = _walk_operand(x)
    if not (np.isfinite(t).all() and np.isfinite(x).all()):
        raise EvalError("non-finite input")
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            result = _walk_eval(expr, t, x)
    except FloatingPointError as exc:
        raise EvalError(f"non-finite result: {exc}") from exc
    shape = np.broadcast_shapes(np.shape(t), np.shape(x))
    if shape == ():
        return float(result)
    return np.broadcast_to(np.asarray(result, dtype=float), shape).copy()


# Trees of the shape _domain_random_expr draws, so every domain check is reached.
_leaves = st.one_of(
    st.floats(-3.0, 3.0).map(Num), st.just(Num(0.0)), st.sampled_from([Var("t"), Var("x")])
)
_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(
            BinOp, st.just("^"), sub,
            st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.5, 3.0, 7.0]).map(Num),
        ),
        st.builds(Call, st.sampled_from(sorted(_REFERENCE_FUNCTIONS)), sub),
        st.builds(Neg, sub),
    ),
    max_leaves=12,
)
_coordinates = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
_points = st.one_of(
    st.tuples(st.floats(0.0, 1.0), _coordinates),
    st.lists(st.tuples(st.floats(0.0, 1.0), _coordinates), min_size=1, max_size=6).map(
        lambda pairs: tuple(np.array(column) for column in zip(*pairs))
    ),
    st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        st.lists(_coordinates, min_size=1, max_size=4),
    ).map(lambda lists: (np.array(lists[0])[:, None], np.array(lists[1])[None, :])),
)


def _message_or_value(fn, expr, t, x):
    try:
        return fn(expr, t, x)
    except EvalError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, database=None)
@given(expr=_trees, point=_points)
# both operands fail, at different entries: the left one's error must win
@example(expr=parse("sqrt(x)/(1/x)"), point=(0.5, np.array([-1.0, 0.0])))
@example(expr=parse("sqrt(x) - x^-1"), point=(0.5, np.array([-1.0, 0.0])))
def test_evaluate_matches_trapped_walk(expr, point):
    t, x = point
    expected = _message_or_value(_walk_evaluate, expr, t, x)
    got = _message_or_value(evaluate, expr, t, x)
    assert type(got) is type(expected)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(expected).view(np.int64))


def test_evaluate_compiles_a_tree_on_first_use():
    # parse evaluates each constant exponent, a tree no one evaluated before
    tree = parse("x^(3 - 1/2)")
    assert tree == BinOp("^", Var("x"), Num(2.5))
    assert "_program" not in vars(tree)
    assert evaluate(tree, 0.0, 4.0) == 32.0
    assert "_program" in vars(tree) and "_program" not in vars(tree.left)
    assert tree == BinOp("^", Var("x"), Num(2.5)) and hash(tree) == hash(BinOp("^", Var("x"), Num(2.5)))
    assert repr(tree) == "BinOp(op='^', left=Var(name='x'), right=Num(value=2.5))"


_COLUMN = np.array([[0.0], [-0.0], [1.0]])
_ROW = np.array([[-0.0, 0.0, 2.0]])
_FULL = np.array([[-0.0, 0.5, 0.0], [1.0, -0.0, -2.0], [0.0, 3.0, -0.0]])


@pytest.mark.parametrize(
    "source, reference",
    [
        ("2", lambda t, x: np.float64(2.0)),
        ("-0", lambda t, x: -np.float64(0.0)),
        ("t", lambda t, x: t),
        ("x", lambda t, x: x),
        ("-x", lambda t, x: -x),
        ("-t", lambda t, x: -t),
        ("t*x - x", lambda t, x: t * x - x),
        ("-(t + x)", lambda t, x: -(t + x)),
    ],
)
@pytest.mark.parametrize(
    "t, x",
    [
        (_COLUMN, _ROW),
        (_FULL, _FULL),
        (_FULL, -0.0),
        (0.0, _FULL),
        (_FULL, _FULL.copy()),
        (np.asfortranarray(_FULL), np.asfortranarray(_FULL.T)),
    ],
)
def test_evaluate_result_is_never_an_input(source, reference, t, x):
    saved_t, saved_x = np.array(t), np.array(x)
    out = evaluate(parse(source), t, x)
    shape = np.broadcast(t, x).shape
    assert out.shape == shape and out.flags.c_contiguous
    for operand in (t, x):
        assert out is not operand and not np.shares_memory(out, operand)
    expected = np.broadcast_to(reference(np.asarray(t, float), np.asarray(x, float)), shape)
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))  # keeps -0.0
    out[...] = 7.0
    assert np.array_equal(np.asarray(t).view(np.int64), np.asarray(saved_t).view(np.int64))
    assert np.array_equal(np.asarray(x).view(np.int64), np.asarray(saved_x).view(np.int64))


# Trees of the _trees kind that also hold identity constants (1.0, signed
# zeros, and the exponent 1.0, which binary powering makes free) and subtrees
# shared by identity, as diff builds them.
_fold_leaves = _leaves | st.sampled_from([Num(1.0), Num(-1.0), Num(-0.0)])
_shared_trees = st.recursive(
    _fold_leaves,
    lambda sub: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(
            BinOp, st.just("^"), sub,
            st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 3.0, 7.0]).map(Num),
        ),
        st.builds(Call, st.sampled_from(sorted(_REFERENCE_FUNCTIONS)), sub),
        st.builds(Neg, sub),
        st.builds(
            lambda op, shared, other: BinOp(op, BinOp("*", shared, other), shared),
            st.sampled_from("+-*/"), sub, sub,
        ),
    ),
    max_leaves=12,
)
# one 1-d t and three x of its length; the third x is the first again
_grids = st.integers(1, 5).flatmap(
    lambda size: st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size),
        st.lists(_coordinates, min_size=size, max_size=size),
        st.lists(_coordinates, min_size=size, max_size=size),
    )
).map(lambda columns: (np.array(columns[0]), np.array(columns[1]), np.array(columns[2])))


def _grid(t, *xs):
    return (np.array(t), *(np.array(x) for x in xs), np.array(xs[0]))


@settings(max_examples=400, deadline=None, database=None)
@given(expr=_shared_trees, grid=_grids)
# identities keep the sign of zero: y*1.0 and its kin run, y^1.0 is y
@example(expr=parse("x*1.0"), grid=_grid([0.5], [-0.0], [2.0]))
@example(expr=parse("1.0*x"), grid=_grid([0.5], [-0.0], [2.0]))
@example(expr=parse("x/1.0"), grid=_grid([0.5], [-0.0], [2.0]))
@example(expr=parse("x-0.0"), grid=_grid([0.5], [-0.0], [2.0]))
@example(expr=parse("x^1.0"), grid=_grid([0.5], [-0.0], [2.0]))
# no fold: 0.0*(-0.0) + 0.0 is +0.0, where dropping the terms would give -0.0
@example(expr=parse("0.0*x + 0.0"), grid=_grid([0.5, 0.25], [-0.0, -3.0], [0.0, 1.0]))
# no fold: y*0.0 still traps where y overflows
@example(expr=parse("exp(x)*0.0"), grid=_grid([0.5], [1000.0], [1.0]))
# operations on constants run at each evaluation, with the walk's bits and errors
@example(expr=parse("1e200*1e200 + x"), grid=_grid([0.5], [1.0], [2.0]))
@example(expr=parse("2*3 + x"), grid=_grid([0.5], [-0.0], [2.0]))
@example(expr=parse("x*(-1.0)"), grid=_grid([0.5], [0.0], [-0.0]))
@example(expr=parse("(0.1 + 0.2)*x"), grid=_grid([0.5], [1.0], [3.0]))
@example(expr=parse("sqrt(0 - 1) + x"), grid=_grid([0.5], [1.0], [2.0]))
# an x-free term that fails, then one that succeeds
@example(expr=parse("sqrt(t - 0.5)*x"), grid=_grid([0.25, 0.75], [1.0, 2.0], [3.0, 4.0]))
@example(expr=parse("sqrt(t - 0.5)*x"), grid=_grid([0.75, 1.0], [1.0, 2.0], [3.0, 4.0]))
def test_bound_evaluation_matches_evaluate_and_the_walk(expr, grid):
    t, *xs = grid
    for x in xs:  # every call runs the whole program, with nothing kept from the last
        expected = _message_or_value(_walk_evaluate, expr, t, x)
        got = _message_or_value(evaluate, expr, t, x)
        assert type(got) is type(expected)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.shape == t.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize(
    "source, steps",
    [
        # y^1.0 is y by binary powering; the parser computes a constant exponent
        ("x^1.0", 0), ("x^(3 - 2)", 0),
        # operations on constants run, as at each evaluation of the walk
        ("2*3 + x", 2), ("(2*3 - 5)*x", 3), ("x-(-0.0)", 2), ("x*(-1.0)", 2),
        ("1/0 + x", 2), ("1e200*1e200 + x", 2),
        # no identity fold: diff builds none of these, so each runs
        ("x*1.0", 1), ("1.0*x", 1), ("x/1.0", 1), ("x-0.0", 1),
        # no fold: the sign of zero, a negative zero, or a trap would change
        ("0.0*x", 1), ("x*0.0", 1), ("x+0.0", 1), ("0.0+x", 1), ("0.0-x", 1),
    ],
)
def test_compiled_program_folds_only_what_keeps_every_bit(source, steps):
    assert len(parse(source)._program.steps) == steps


@functools.cache
def _corpus_trees():
    # f, f_x and v of each corpus problem: 18 trees
    specs = [corpus.build(name) for name in corpus.names()]
    return [tree for spec in specs for tree in (spec.f, spec.fx, spec.v)]


@settings(max_examples=200, deadline=None, database=None)
@given(expr=_shared_trees)
@example(expr=parse("2*3 + x"))
def test_compiling_runs_no_arithmetic(expr):
    trees = (expr, *_corpus_trees())  # built, with their evaluations, before the count
    calls = []

    def run(steps, env):
        calls.append(steps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr_module, "_run", run)
        for tree in trees:
            expr_module._Program(tree)
    assert calls == []


def test_shared_subtree_runs_once_per_evaluation():
    f = parse("(t + sin(x))/(2*x^2 + 4)")
    fx = diff(f, "x")
    # A walk over fx, which diff builds without zero terms or factors of
    # 1.0, runs 17 operations.  The program skips the second run of the
    # three in 2*x^2 + 4, which diff shares between two places, and x^1.0
    # is x by binary powering.
    assert len(fx._program.steps) == 17 - 3 - 1
    u = parse("2*x^2 + 4")
    assert len(BinOp("/", u, BinOp("^", u, Num(2.0)))._program.steps) == 3 + 2


def test_equal_subtrees_run_once_per_evaluation():
    # two x^2 nodes built apart are one value: one square, then the sum
    tree = parse("x^2 + x^2")
    assert tree.left is not tree.right
    assert [function for function, *_ in tree._program.steps] == [np.square, operator.add]
    assert evaluate(tree, 0.0, 3.0) == 18.0


def test_constants_are_equal_only_bit_for_bit():
    # 0.0 == -0.0, but x*0.0 and x*(-0.0) differ at x = -1: two products,
    # the negation of 0.0 and the sum
    tree = parse("x*0.0 + x*(-0.0)")
    assert [function for function, *_ in tree._program.steps].count(operator.mul) == 2
    assert len(tree._program.steps) == 4
    got = evaluate(tree, 0.0, -1.0)
    expected = _walk_evaluate(tree, 0.0, -1.0)
    assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)
    assert math.copysign(1.0, got) == 1.0  # -0.0 + 0.0


# The step counts of f, f_x and v of each corpus problem
_CORPUS_STEPS = {
    "quadratic": (0, 0, 0),
    "zero": (2, 4, 3),
    "f1": (6, 13, 0),
    "f1_sin": (6, 13, 12),
    "f2": (7, 6, 0),
    "f3": (12, 16, 0),
}


@pytest.mark.parametrize("name", corpus.names())
def test_corpus_program_sizes(name):
    spec = corpus.build(name)
    steps = tuple(len(tree._program.steps) for tree in (spec.f, spec.fx, spec.v))
    assert steps == _CORPUS_STEPS[name]


# The step counts of the one program of f and f_x that Newton runs
_CORPUS_JOINT_STEPS = {"quadratic": 0, "zero": 6, "f1": 14, "f1_sin": 14, "f2": 11, "f3": 22}


@pytest.mark.parametrize("name", corpus.names())
def test_corpus_joint_program_sizes(name):
    spec = corpus.build(name)
    program = spec._program
    assert len(program.steps) == _CORPUS_JOINT_STEPS[name]
    # f's steps come first, as many as in f's own program; f_x's complete the list
    assert [end for _, _, end in program.roots] == [len(spec.f._program.steps), len(program.steps)]


@pytest.mark.parametrize("name", corpus.names())
def test_compiling_leaves_no_cyclic_garbage(name):
    # What a compile allocates is freed when its last reference goes, with
    # no collector run, also when the tree is malformed
    spec = corpus.build(name)
    malformed = BinOp("%", spec.f, Var("x"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for trees in ((spec.f, spec.fx), (spec.f,), (spec.fx,), (spec.v,), (malformed,)):
            try:
                expr_module._Program(*trees)
            except EvalError:
                pass
            assert gc.collect() == 0, trees
    finally:
        if enabled:
            gc.enable()


def _roots_in_turn(program, t, x):
    """The values of ``program``'s roots at (t, x), run in turn on one list of
    values under evaluate's traps, up to the first that fails."""
    values = []
    try:
        with np.errstate(**expr_module._TRAPS):
            env = expr_module._point(program, t, x)
            for k in range(len(program.roots)):
                values.append(expr_module._root(program, env, k))
    except (EvalError, FloatingPointError):
        pass
    return values


@settings(max_examples=300, deadline=None, database=None)
@given(first=_shared_trees, second=_shared_trees, grid=_grids)
@example(first=parse(F1), second=diff(parse(F1), "x"), grid=_grid([0.5], [1.0], [-2.0]))
# f_x alone fails at x = 0, where f is 0
@example(first=parse("x*sqrt(x^2)"), second=diff(parse("x*sqrt(x^2)"), "x"),
         grid=_grid([0.5, 0.25], [0.0, 1.0], [1.0, 2.0]))
@example(first=parse("exp(x)"), second=diff(parse("exp(x)"), "x"), grid=_grid([0.5], [1.0], [2.0]))
def test_joint_program_runs_each_root_as_evaluate(first, second, grid):
    # a third root made of the first two shares all their steps
    roots = (first, second, BinOp("*", second, first))
    program = expr_module._Program(*roots)
    for result, _, end in program.roots:
        assert all(out != result for *_, out in program.steps[end:])
    t, *xs = grid
    for x in xs:
        expected = []
        for tree in roots:
            value = _message_or_value(evaluate, tree, t, x)
            if isinstance(value, str):
                break
            expected.append(value)
        got = _roots_in_turn(program, t, x)
        assert len(got) == len(expected)
        for value, want in zip(got, expected):
            assert value.shape == t.shape
            assert np.array_equal(value.view(np.int64), want.view(np.int64))


# The derivative by the full rules, which build every zero term and every
# factor of 1.0: diff's tree must evaluate to the same bits wherever this
# one evaluates, up to the sign of an exact zero.
def _diff(node: Expr, var: str) -> Expr:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.arg, var))
    if isinstance(node, BinOp):
        u, v = node.left, node.right
        du = _diff(u, var)
        if node.op in "+-":
            return BinOp(node.op, du, _diff(v, var))
        if node.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, _diff(v, var)))
        if node.op == "/":
            dv = _diff(v, var)
            numerator = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
            return BinOp("/", numerator, BinOp("^", v, Num(2.0)))
        if node.op == "^":
            c = v.value if isinstance(v, Num) else None
            if c is None:
                raise NonDifferentiableError("power with a non-constant exponent")
            if c == 0.0:
                # u^0 is constant 1; the power-rule tree would divide by u.
                return Num(0.0)
            return BinOp("*", BinOp("*", Num(c), BinOp("^", u, Num(c - 1.0))), du)
        raise NonDifferentiableError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        u = node.arg
        du = _diff(u, var)
        if node.fn == "sin":
            return BinOp("*", Call("cos", u), du)
        if node.fn == "cos":
            return BinOp("*", Neg(Call("sin", u)), du)
        if node.fn == "exp":
            return BinOp("*", Call("exp", u), du)
        if node.fn == "atan":
            return BinOp("/", du, BinOp("+", Num(1.0), BinOp("^", u, Num(2.0))))
        if node.fn == "sqrt":
            return BinOp("/", du, BinOp("*", Num(2.0), Call("sqrt", u)))
        raise NonDifferentiableError(f"{node.fn} is not differentiable")
    raise NonDifferentiableError(f"unknown node {node!r}")


_DERIVATIVES = {
    "d/dx": lambda differentiate, tree: differentiate(tree, "x"),
    "d/dt": lambda differentiate, tree: differentiate(tree, "t"),
    # the second t-derivative that manufacture takes of x_star
    "d2/dt2": lambda differentiate, tree: differentiate(differentiate(tree, "t"), "t"),
}


def _assert_diff_is_the_full_rules(expr, point, derivative):
    # but for omitted traps and signs of zero
    take = _DERIVATIVES[derivative]
    t, x = point
    try:
        full = take(_diff, expr)
    except NonDifferentiableError:
        with pytest.raises(NonDifferentiableError):
            take(diff, expr)
        return
    expected = _message_or_value(evaluate, full, t, x)
    got = _message_or_value(evaluate, take(diff, expr), t, x)
    if isinstance(got, str):
        assert isinstance(expected, str)  # raises only where the full rules raise
    elif not isinstance(expected, str):
        assert type(got) is type(expected)
        got, expected = np.asarray(got), np.asarray(expected)
        assert got.shape == expected.shape
        same_bits = got.view(np.int64) == expected.view(np.int64)
        assert np.all(same_bits | ((got == 0.0) & (expected == 0.0)))


# _shared_trees draws the shapes of _trees over _fold_leaves, whose 1.0,
# -1.0 and -0.0 reach the branches that omit terms
@settings(max_examples=400, deadline=None, database=None)
@given(expr=_shared_trees, point=_points, derivative=st.sampled_from(sorted(_DERIVATIVES)))
# the full rules trap in exp(1000*t)*(0*t + 1000*0); diff computes no such term
@example(expr=parse("exp(1000*t) + x"), point=(1.0, 2.0), derivative="d/dx")
# the full rules give (-0.0)*(-1.0) + (-t) = +0.0; diff gives -t = -0.0
@example(expr=parse("-t*x"), point=(0.0, -1.0), derivative="d/dx")
# a zero numerator keeps the division, and the trap, of f's denominator
@example(expr=parse("x + 1/(t - 0.5)"), point=(0.5, 1.0), derivative="d/dx")
@example(expr=parse("atan(t)*x + sqrt(t - 0.5)"), point=(0.25, 1.0), derivative="d/dx")
@example(expr=parse("sin(pi*t)"), point=(np.array([0.0, 0.5, 1.0]), 0.0), derivative="d2/dt2")
def test_diff_is_the_full_rules_but_for_omitted_traps_and_signs_of_zero(expr, point, derivative):
    _assert_diff_is_the_full_rules(expr, point, derivative)


_SWEEP_LEAVES = [Var("t"), Var("x"), Num(0.0), Num(-0.0), Num(1.0), Num(-1.0), Num(2.5)]
_SWEEP_POINT = (np.array([[0.0], [0.5], [1.0]]), np.array([[-1.0, -0.0, 0.0, 2.0]]))


@pytest.mark.parametrize("derivative", sorted(_DERIVATIVES))
@pytest.mark.parametrize("op", "+-*/")
def test_diff_is_the_full_rules_on_every_operation_of_two_leaves(op, derivative):
    for left in _SWEEP_LEAVES:
        for right in _SWEEP_LEAVES:
            node = BinOp(op, left, right)
            for expr in (node, Neg(node), BinOp("*", node, Var("t")), BinOp("*", Var("x"), node)):
                _assert_diff_is_the_full_rules(expr, _SWEEP_POINT, derivative)


def test_corpus_derivative_programs_add_and_multiply_no_zero():
    for name in corpus.names():
        spec = corpus.build(name)
        trees = {"fx": spec.fx}
        if spec.x_star is not None:
            trees["v"] = spec.v
        for label, tree in trees.items():
            program = tree._program
            for function, i, j, _ in program.steps:
                if function in (operator.add, operator.sub, operator.mul):
                    for slot in (i, j):
                        value = program.template[slot]
                        assert not (type(value) is np.float64 and value == 0.0), (name, label)


# The functions a compiled program calls: every step is one of these
# module-level functions, with its operands in slots, so an evaluator over
# other numbers (intervals, say) can map each of them.
_INSTRUCTIONS = {
    operator.add, operator.sub, operator.mul, operator.neg, expr_module._divide,
    np.sin, np.cos, np.exp, np.arctan, expr_module._sqrt, np.abs,
    np.square, expr_module._reciprocal, np.power, expr_module._real_power,
}


def _instructions(tree):
    return {function for function, *_ in tree._program.steps}


def test_corpus_programs_use_only_the_fixed_instructions():
    used = set()
    for name in corpus.names():
        spec = corpus.build(name)
        for tree in (spec.f, spec.fx, spec.v):
            used |= _instructions(tree)
    assert used <= _INSTRUCTIONS
    assert np.square in used and operator.mul in used


@settings(max_examples=200, deadline=None, database=None)
@given(expr=_shared_trees)
@example(expr=parse("x^-7 + x^2.5 + x^0 + (2*x)^(2^53)"))
def test_programs_use_only_the_fixed_instructions(expr):
    assert _instructions(expr) <= _INSTRUCTIONS


def _replayed_reads(program):
    """What each step of ``program`` reads, and what its first root reads, by a replay.

    The steps run in order over what each slot holds: 1 for t, 2 for x, 3
    for both and 0 for neither, the OR of a step's operands'.
    """
    held = [0] * len(program.template)
    held[0], held[1] = 1, 2
    reads = []
    for _, i, j, k in program.steps:
        held[k] = held[i] | (0 if j is None else held[j])
        reads.append(held[k])
    return reads, held[program.roots[0][0]]


@settings(max_examples=300, deadline=None, database=None)
@given(expr=_shared_trees)
@example(expr=parse("t"))
@example(expr=parse("x^1.0"))
@example(expr=parse("2*3 - 5"))
@example(expr=parse("1/0 + t*1.0"))
@example(expr=parse("sin(t)*x + sin(t)^2 - sin(x)"))
def test_compiler_records_what_each_step_reads(expr):
    program = expr._program
    assert (program.reads, program.roots[0][1]) == _replayed_reads(program)
    uses = expr_module.uses_var(expr, "t") + 2 * expr_module.uses_var(expr, "x")
    assert program.roots[0][1] == uses


def test_binding_runs_every_step_per_call(monkeypatch):
    calls = []

    def counting_sin(value, original=np.sin):
        calls.append(np.size(value))
        return original(value)

    monkeypatch.setitem(expr_module._CALLS, "sin", counting_sin)
    t = np.linspace(0.1, 0.9, 5)
    tree = parse("sin(t)*x + sin(t)^2 - sin(x)")  # two sin(t) nodes, one sin(x)
    for k in range(4):
        x = np.full(5, float(k))
        np.testing.assert_array_equal(evaluate(tree, t, x), _walk_evaluate(tree, t, x))
    # each evaluate call runs every step: sin(t), which the two equal nodes
    # share, and sin(x); nothing on t alone is kept from the call before
    assert len(calls) == 4 * 2


def test_binding_keeps_no_arrays_between_calls():
    f = parse(F2)
    fx = diff(f, "x")
    n = 100_000
    t = np.arange(1, n) / n
    x = np.linspace(-1.0, 1.0, n - 1)
    for tree in (f, fx):
        evaluate(tree, t, x)  # compile outside the traced run
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for tree in (f, fx):
            for _ in range(2):
                evaluate(tree, t, x)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # f2's exp(t - pi) and exp(t), and f_x's terms on them, are t-only arrays
    # of 0.8 MB each; evaluate keeps none of them
    assert after - before < 64 * 1024


_CHAIN = "+".join(["x"] * 3000)  # a left-deep sum, 3000 levels


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse("(" * 1000 + "x" + ")" * 1000),
        lambda: evaluate(parse(_CHAIN), 0.0, 1.0),
        lambda: diff(parse(_CHAIN), "x"),
        lambda: expr_module.uses_var(parse(_CHAIN), "t"),
        lambda: substitute(parse(_CHAIN), "x", Var("t")),
        lambda: format_expr(parse(_CHAIN)),
        lambda: make_spec(_CHAIN, "0", A=0.1, B=0.1, fx_lower=-0.5),
        lambda: corpus.build_problem(
            corpus.ProblemConfig(name="deep", f=_CHAIN, v="1", A=0.5, B=1.0, fx_lower=-2.0)),
        lambda: corpus.build_problem(corpus.ProblemConfig(
            name="deep", f="0", x_star=_CHAIN.replace("x", "t"), A=0.5, B=1.0, fx_lower=-2.0)),
    ],
    ids=["parentheses", "evaluate", "diff", "uses_var", "substitute", "format_expr",
         "make_spec", "build_problem", "manufacture"],
)
def test_deep_expressions_raise_nesting_error(call):
    # every walk recurses once per level; past Python's limit it is an EvalError
    with pytest.raises(NestingError, match="^expression nested too deeply$"):
        call()
