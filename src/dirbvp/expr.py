"""Parsing, evaluation, and symbolic differentiation of scalar expressions.

Expressions use the variables t and x, the constants pi and e, and the
functions sin, cos, exp, atan, sqrt, abs.  Grammar (no implicit
multiplication)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 't' | 'x' | 'pi' | 'e' | NAME '(' expr ')' | '(' expr ')'

Exponents must be constant (variable-free) subexpressions, so the power
rule of differentiation applies verbatim.  Derivative trees omit the
terms the rules make identically zero and the factors of one, and are not
otherwise simplified; expression equality is a matter of evaluation, not
of normal form.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ParseError",
    "EvalError",
    "NonDifferentiableError",
    "parse",
    "evaluate",
    "bind",
    "diff",
    "substitute",
    "uses_var",
    "format_expr",
]


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    """Raised when an expression cannot be evaluated to a finite real value."""


class NonDifferentiableError(ExprError):
    """Raised when a derivative of a non-smooth node is requested."""


class _computed_once:
    """An attribute computed on first use and then kept in the instance dict.

    It writes the dict past a frozen dataclass's __setattr__, as
    functools.cached_property does, without taking a lock; dataclass
    equality, hashing and repr read the fields only.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class _Node:
    """Base of the tree nodes: holds each node's compiled forms once built."""

    @_computed_once
    def _kernel(self):
        # what this node computes, folded; shared by every tree holding it
        return _compile(self)

    @_computed_once
    def _program(self):
        # the steps that evaluate the tree rooted here
        return _Program(self._kernel)


@dataclass(frozen=True)
class Num(_Node):
    value: float

    @property
    def _kernel(self):
        # a leaf is not worth keeping compiled
        return np.float64(self.value)


@dataclass(frozen=True)
class Var(_Node):
    name: str  # "t" or "x"

    @property
    def _kernel(self):
        return _T if self.name == "t" else _X


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call(_Node):
    fn: str  # one of sin cos exp atan sqrt abs
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

_CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            shown = text if text else "end of input"
            raise ParseError(f"expected {symbol!r}, found {shown!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expression()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", pos)
        return node

    def expression(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.unary()
            if uses_var(exponent, "t") or uses_var(exponent, "x"):
                raise ParseError("exponent must be a constant expression", pos)
            try:
                # a constant tree compiles to its value, unless computing it traps
                value = exponent._kernel
                if type(value) is not np.float64:
                    value = evaluate(exponent)
            except EvalError as exc:
                raise ParseError(f"cannot evaluate constant exponent: {exc}", pos) from exc
            return BinOp("^", base, Num(float(value)))
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is out of range", pos)
            return Num(value)
        if kind == "name":
            if text in ("t", "x"):
                return Var(text)
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text])
            if text in _CALLS:
                self.expect_op("(")
                arg = self.expression()
                k, sym, p = self.peek()
                if k == "op" and sym == ",":
                    raise ParseError(f"{text} takes exactly one argument", p)
                self.expect_op(")")
                return Call(text, arg)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        shown = text if text else "end of input"
        raise ParseError(f"unexpected token {shown!r}", pos)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree."""
    return _Parser(text).parse()


def _operand(value):
    if isinstance(value, np.ndarray):
        return value.astype(float, copy=False)
    return np.float64(value)


def _execute(steps, env):
    """Run ``steps`` on the list of values ``env``, trapping every flag but underflow.

    A step (function, i, j, k) sets env[k] to function(env[i]), or to
    function(env[i], env[j]) when j is not None.  From finite inputs and
    constants only an operation that sets the overflow, invalid or
    divide-by-zero flag yields inf or NaN.  Every operand is numpy:
    Python-float arithmetic sets no flags.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            for function, i, j, k in steps:
                env[k] = function(env[i]) if j is None else function(env[i], env[j])
    except FloatingPointError as exc:
        raise EvalError(f"non-finite result: {exc}") from exc


def _divide(numerator, denominator):
    if np.count_nonzero(denominator == 0.0):
        raise EvalError("division by zero")
    return numerator / denominator


def _sqrt(value):
    if np.count_nonzero(value < 0.0):
        raise EvalError("sqrt of a negative value")
    return np.sqrt(value)


def _reciprocal(value):
    if np.count_nonzero(value == 0.0):
        raise EvalError("zero base with a negative exponent")
    return 1.0 / value


def _real_power(value, c):
    if np.count_nonzero(value <= 0.0):
        raise EvalError("non-integer power of a non-positive base")
    return np.power(value, c)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
_CALLS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "atan": np.arctan,
    "sqrt": _sqrt,
    "abs": np.abs,
}

# A kernel is what a node computes once folded: a constant, as np.float64,
# or a pair (function, operand kernels).  The variables are the pairs _T
# and _X, which have no function.
_T = (None, "t")
_X = (None, "x")


def _fold(function, args):
    """The kernel of ``function`` on the kernels ``args``.

    It is the value when every operand is a constant and computing it
    traps nothing; otherwise an op, which raises at evaluation where
    computing it raised here.
    """
    for arg in args:
        if type(arg) is not np.float64:
            break
    else:
        env = [*args, None]
        try:
            _execute(((function, 0, 1 if len(args) == 2 else None, len(args)),), env)
        except EvalError:
            pass
        else:
            if type(env[-1]) is np.float64:
                return env[-1]
    return (function, args)


def _compile(node: Expr):
    """The kernel of ``node``.

    Only folds that keep every bit and every trap are made: an operation on
    constants becomes its value unless computing it traps, and y*1.0,
    1.0*y, y/1.0 and y-(+0.0) become y, as y^1.0 is.  0.0*y, y+0.0, 0.0+y
    and 0.0-y stay, for the sign of zero and the traps of y.  A malformed
    tree (an unknown operator or a variable exponent) raises EvalError
    here, before any arithmetic.
    """
    if isinstance(node, BinOp):
        op = node.op
        left = node.left._kernel
        if op == "^":
            if not isinstance(node.right, Num):
                raise EvalError("exponent must be a constant")
            return _power(left, node.right.value)
        right = node.right._kernel
        if op not in _BINARY:
            raise EvalError(f"unknown operator {op!r}")
        if type(right) is np.float64 and (
            right == 1.0 and (op == "*" or op == "/")
            or right == 0.0 and op == "-" and math.copysign(1.0, right) == 1.0
        ):
            return left
        if type(left) is np.float64 and left == 1.0 and op == "*":
            return right
        return _fold(_BINARY[op], (left, right))
    if isinstance(node, Call):
        return _fold(_CALLS[node.fn], (node.arg._kernel,))
    if isinstance(node, Neg):
        return _fold(operator.neg, (node.arg._kernel,))
    raise TypeError(f"unknown node {node!r}")


def _power(base, c):
    # The kernel of base^c.  An integer c != 0 is binary powering (Knuth, TAOCP
    # vol. 2, 4.6.3) of base, or of 1/base after the zero-base check when c < 0,
    # as np.square and products; product * square is bitwise square * product
    # and makes a walk run the steps in this loop's order.  Else np.power.
    if c != round(c):
        return _fold(_real_power, (base, np.float64(c)))
    if c == 0:
        return _fold(np.power, (base, np.float64(c)))
    if c < 0:
        base = _fold(_reciprocal, (base,))
    k = int(abs(c))
    product = None
    while True:
        if k & 1:
            product = base if product is None else _fold(operator.mul, (product, base))
        k >>= 1
        if not k:
            return product
        base = _fold(np.square, (base,))


class _Program:
    """The steps of one compiled tree, in the order of a walk over it.

    Each distinct op runs once per evaluation, at its first place in the
    walk, so values and errors are those of the walk.  Values live in a
    list: t, x, the constants, then the results.  A result holds its slot
    from its op to its last user, and other results use the slot outside
    that span.
    """

    def __init__(self, root):
        template = [None, None]
        slots = {id(_T): 0, id(_X): 1}
        order = []

        if type(root) is np.float64:
            slots[id(root)] = len(template)
            template.append(root)
        elif root[0] is not None:
            # A walk with a stack of (op, its operands not yet seen): a chain
            # of powers nests ops deeper than Python's recursion limit.
            stack = [(root, iter(root[1]))]
            while stack:
                op, args = stack[-1]
                for arg in args:
                    key = id(arg)
                    if key in slots:
                        continue
                    if type(arg) is np.float64:
                        slots[key] = len(template)
                        template.append(arg)
                    else:
                        stack.append((arg, iter(arg[1])))
                        break
                else:
                    stack.pop()
                    slots[id(op)] = None  # visited; its slot is chosen below
                    order.append(op)
            slots[id(root)] = len(template)
            template.append(None)
        # Backwards from the last op: a result takes a slot at its last user
        # and gives it up at its own op, to the ops before.
        free = []
        steps = []
        for op in reversed(order):
            function, args = op
            out = slots[id(op)]
            free.append(out)
            inputs = []
            for arg in args:
                key = id(arg)
                slot = slots[key]
                if slot is None:
                    if free:
                        slot = free.pop()
                    else:
                        slot = len(template)
                        template.append(None)
                    slots[key] = slot
                inputs.append(slot)
            steps.append((function, inputs[0], inputs[1] if len(inputs) == 2 else None, out))
        steps.reverse()
        self.template = template
        self.steps = steps
        self.result = slots[id(root)]


def _run(program, t, x, shape):
    """Run ``program`` on the checked operands t and x of broadcast shape ``shape``."""
    env = program.template.copy()
    env[0] = t
    env[1] = x
    _execute(program.steps, env)
    result = env[program.result]
    if shape == ():
        return float(result)
    # A fresh full-shape array is the caller's alone; an input, a scalar or
    # a partial broadcast is not, and is copied.
    fresh = isinstance(result, np.ndarray) and result is not t and result is not x
    if fresh and result.shape == shape and result.flags.c_contiguous:
        return result
    out = np.empty(shape)
    np.copyto(out, result)  # keeps -0.0, as a copy does
    return out


def evaluate(expr: Expr, t=0.0, x=0.0):
    """Evaluate ``expr`` at (t, x).

    Scalars in give a float back; numpy arrays broadcast and give an
    array of the broadcast shape.  Domain failures (division by zero,
    sqrt of a negative, invalid powers, overflow) and non-finite t or x
    raise EvalError rather than propagating NaN or infinity.  Underflow
    to zero is not an error.  A tree is compiled on its first
    evaluation and its compiled form is kept on the tree.
    """
    t = _operand(t)
    x = _operand(x)
    if np.count_nonzero(np.isfinite(t)) < t.size or np.count_nonzero(np.isfinite(x)) < x.size:
        raise EvalError("non-finite input")
    return _run(expr._program, t, x, np.broadcast(t, x).shape)


def bind(expr: Expr, t) -> Callable[[np.ndarray], np.ndarray]:
    """``expr`` at a fixed 1-D array t, as a function of x of t's shape.

    Calling the result gives ``evaluate(expr, t, x)`` bit for bit, and
    raises where evaluate raises.  t is checked here, once; each call
    checks only x and then runs the whole program, as evaluate does.
    Between calls a binding keeps only the tree and t.
    """
    t = _operand(t)
    if t.ndim != 1:
        raise ValueError(f"t must be a 1-d array, got shape {t.shape}")
    if np.count_nonzero(np.isfinite(t)) < t.size:
        raise EvalError("non-finite input")
    shape = t.shape

    def bound(x) -> np.ndarray:
        x = _operand(x)
        if x.shape != shape:
            raise ValueError(f"x must have the shape {shape} of t, got {x.shape}")
        if np.count_nonzero(np.isfinite(x)) < x.size:
            raise EvalError("non-finite input")
        return _run(expr._program, t, x, shape)

    return bound


def diff(expr: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative of ``expr`` with respect to ``var``.

    The tree omits the terms that the rules make identically zero and the
    factors of one: 0*y and y*0 become 0; y*1, 1*y, y + 0, 0 + y and y - 0
    become y; 0 - y becomes -y, and -(-y) becomes y; u^1 differentiates to
    du, without the factor 1*u^0.  Where the tree of the full rules
    evaluates, this one gives the same bits, except that an exact zero may
    have the other sign.  It raises only where that tree raises, and not
    where only an omitted term, such as exp(1000*t)*0, traps.  The quotient
    rule keeps its / v^2, and the atan and sqrt rules their divisions, when
    the numerator is 0, so a derivative still raises where a denominator of
    ``expr`` vanishes.  abs is rejected since its derivative is
    discontinuous.
    """
    if var not in ("t", "x"):
        raise ValueError(f"var must be 't' or 'x', got {var!r}")
    return _diff(expr, var)


def _is(node: Expr, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _neg(u: Expr) -> Expr:
    if _is(u, 0.0):
        return Num(0.0)
    return u.arg if isinstance(u, Neg) else Neg(u)


def _add(u: Expr, v: Expr) -> Expr:
    if _is(v, 0.0):
        return u
    return v if _is(u, 0.0) else BinOp("+", u, v)


def _sub(u: Expr, v: Expr) -> Expr:
    if _is(v, 0.0):
        return u
    return _neg(v) if _is(u, 0.0) else BinOp("-", u, v)


def _mul(u: Expr, v: Expr) -> Expr:
    if _is(u, 0.0) or _is(v, 0.0):
        return Num(0.0)
    if _is(v, 1.0):
        return u
    return v if _is(u, 1.0) else BinOp("*", u, v)


def _diff(node: Expr, var: str) -> Expr:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, var))
    if isinstance(node, BinOp):
        u, v = node.left, node.right
        du = _diff(u, var)
        if node.op == "+":
            return _add(du, _diff(v, var))
        if node.op == "-":
            return _sub(du, _diff(v, var))
        if node.op == "*":
            return _add(_mul(du, v), _mul(u, _diff(v, var)))
        if node.op == "/":
            dv = _diff(v, var)
            numerator = _sub(_mul(du, v), _mul(u, dv))
            return BinOp("/", numerator, BinOp("^", v, Num(2.0)))
        if node.op == "^":
            c = v.value if isinstance(v, Num) else None
            if c is None:
                raise NonDifferentiableError("power with a non-constant exponent")
            if c == 0.0:
                # u^0 is constant 1; the power-rule tree would divide by u.
                return Num(0.0)
            power = Num(1.0) if c == 1.0 else BinOp("^", u, Num(c - 1.0))
            return _mul(_mul(Num(c), power), du)
        raise NonDifferentiableError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        u = node.arg
        du = _diff(u, var)
        if node.fn == "sin":
            return _mul(Call("cos", u), du)
        if node.fn == "cos":
            return _mul(Neg(Call("sin", u)), du)
        if node.fn == "exp":
            return _mul(Call("exp", u), du)
        if node.fn == "atan":
            return BinOp("/", du, BinOp("+", Num(1.0), BinOp("^", u, Num(2.0))))
        if node.fn == "sqrt":
            return BinOp("/", du, BinOp("*", Num(2.0), Call("sqrt", u)))
        raise NonDifferentiableError(f"{node.fn} is not differentiable")
    raise NonDifferentiableError(f"unknown node {node!r}")


def substitute(expr: Expr, var: str, replacement: Expr) -> Expr:
    """Replace every occurrence of variable ``var`` by ``replacement``."""
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Var):
        return replacement if expr.name == var else expr
    if isinstance(expr, Neg):
        return Neg(substitute(expr.arg, var, replacement))
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            substitute(expr.left, var, replacement),
            substitute(expr.right, var, replacement),
        )
    if isinstance(expr, Call):
        return Call(expr.fn, substitute(expr.arg, var, replacement))
    raise TypeError(f"unknown node {expr!r}")


def uses_var(expr: Expr, var: str) -> bool:
    """True if variable ``var`` occurs anywhere in the tree."""
    if isinstance(expr, Var):
        return expr.name == var
    if isinstance(expr, Neg):
        return uses_var(expr.arg, var)
    if isinstance(expr, BinOp):
        return uses_var(expr.left, var) or uses_var(expr.right, var)
    if isinstance(expr, Call):
        return uses_var(expr.arg, var)
    return False


def format_expr(expr: Expr) -> str:
    """Render a tree back to parseable text (fully parenthesized)."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{format_expr(expr.arg)})"
    if isinstance(expr, BinOp):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, Call):
        return f"{expr.fn}({format_expr(expr.arg)})"
    raise TypeError(f"unknown node {expr!r}")
