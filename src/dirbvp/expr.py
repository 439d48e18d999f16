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
rule of differentiation applies verbatim.  Derivative trees are built
without algebraic simplification; expression equality is a matter of
evaluation, not of normal form.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Union

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


class _Node:
    """Base of the tree nodes: holds each node's compiled form once built."""

    @functools.cached_property
    def _kernel(self):
        # cached_property writes the instance __dict__, past the frozen
        # __setattr__; dataclass equality, hashing and repr read fields only.
        return _compile(self)


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str  # "t" or "x"


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

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "atan": np.arctan,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

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
            if text in _FUNCTIONS:
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


def _compile(node: Expr):
    """Closure computing ``node`` from numpy operands ``(t, x)``.

    It performs the operations of a walk over the tree, in the order of
    that walk, so its results are those of the walk bit for bit.  The
    power branch is chosen here, once; a malformed tree (an unknown
    operator or a variable exponent) raises EvalError here, before any
    arithmetic.
    """
    if isinstance(node, Num):
        value = np.float64(node.value)
        return lambda t, x: value
    if isinstance(node, Var):
        if node.name == "t":
            return lambda t, x: t
        return lambda t, x: x
    if isinstance(node, Neg):
        arg = node.arg._kernel
        return lambda t, x: -arg(t, x)
    if isinstance(node, BinOp):
        left = node.left._kernel
        if node.op == "^":
            return _compile_power(left, node.right)
        right = node.right._kernel
        if node.op == "+":
            return lambda t, x: left(t, x) + right(t, x)
        if node.op == "-":
            return lambda t, x: left(t, x) - right(t, x)
        if node.op == "*":
            return lambda t, x: left(t, x) * right(t, x)
        if node.op == "/":

            def divide(t, x):
                numerator = left(t, x)
                denominator = right(t, x)
                if np.count_nonzero(denominator == 0.0):
                    raise EvalError("division by zero")
                return numerator / denominator

            return divide
        raise EvalError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        arg = node.arg._kernel
        function = _FUNCTIONS[node.fn]
        if node.fn == "sqrt":

            def root(t, x):
                value = arg(t, x)
                if np.count_nonzero(value < 0.0):
                    raise EvalError("sqrt of a negative value")
                return function(value)

            return root
        return lambda t, x: function(arg(t, x))
    raise TypeError(f"unknown node {node!r}")


def _compile_power(base, exponent: Expr):
    if not isinstance(exponent, Num):
        raise EvalError("exponent must be a constant")
    c = exponent.value
    if c != round(c):

        def power(t, x):
            value = base(t, x)
            if np.count_nonzero(value <= 0.0):
                raise EvalError("non-integer power of a non-positive base")
            return np.power(value, c)

    elif c < 0:

        def power(t, x):
            value = base(t, x)
            if np.count_nonzero(value == 0.0):
                raise EvalError("zero base with a negative exponent")
            return np.power(value, c)

    else:

        def power(t, x):
            return np.power(base(t, x), c)

    return power


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
    # From finite inputs and constants only an operation that sets the
    # overflow, invalid or divide-by-zero flag yields inf or NaN.  Every
    # operand is numpy: Python-float arithmetic sets no flags.
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            result = expr._kernel(t, x)
    except FloatingPointError as exc:
        raise EvalError(f"non-finite result: {exc}") from exc
    shape = np.broadcast(t, x).shape
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


def diff(expr: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative of ``expr`` with respect to ``var``.

    The returned tree is not simplified; its correctness is defined by
    evaluation.  abs is rejected since its derivative is discontinuous.
    """
    if var not in ("t", "x"):
        raise ValueError(f"var must be 't' or 'x', got {var!r}")
    return _diff(expr, var)


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
