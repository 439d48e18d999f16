import math

import numpy as np
import pytest

from dirbvp.expr import (
    BinOp,
    Call,
    EvalError,
    Neg,
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


def test_eval_integer_power_of_negative_base():
    assert evaluate(parse("x^3"), 0.0, -2.0) == -8.0
    assert evaluate(parse("x^0"), 0.0, 0.0) == 1.0


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


# Reference: the tree walk that checks every node's result for finiteness,
# kept verbatim from before evaluate trapped floating-point flags instead.
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
        return _reference_check_finite(np.power(base, c), "'^'")
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
