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

A tree is evaluated by a program of numpy steps, made on its first
evaluation by one walk over it that numbers each value: t, x, a constant
by its bits, and an operation by its function and operand numbers.  An
operation runs once per evaluation however often the tree holds it.  One
program can also hold several trees, such as f and f_x, which then share
their common operations and run one after another at a point.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
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
    "NestingError",
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


class NestingError(EvalError):
    """Raised when an expression is nested deeper than the walks over it can recurse."""


def _walk(walker, *args):
    """``walker(*args)``, where a walk past Python's recursion limit raises NestingError.

    parse, diff, substitute, uses_var, format_expr and the compiler recurse
    once per level of a tree, as ``x+x+...+x`` or ``((...(x)...))`` nests it.
    """
    try:
        return walker(*args)
    except RecursionError:
        raise NestingError("expression nested too deeply") from None


class _Node:
    """Base of the tree nodes: a tree's root keeps its program once built."""

    @functools.cached_property
    def _program(self):
        # the steps that evaluate the tree rooted here
        return _Program(self)


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
            if isinstance(exponent, Num):
                return BinOp("^", base, exponent)
            try:
                value = evaluate(exponent)
            except EvalError as exc:
                raise ParseError(f"cannot evaluate constant exponent: {exc}", pos) from exc
            return BinOp("^", base, Num(value))
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
    return _walk(_Parser(text).parse)


def _operand(value):
    if isinstance(value, np.ndarray):
        return value.astype(float, copy=False)
    return np.float64(value)


def _finite(value):
    """``value`` as a numpy operand; EvalError unless every element is finite."""
    value = _operand(value)
    if np.count_nonzero(np.isfinite(value)) < value.size:
        raise EvalError("non-finite input")
    return value


# The floating-point traps of an evaluation: every flag but underflow.  From
# finite inputs and constants only an operation that sets the overflow,
# invalid or divide-by-zero flag yields inf or NaN.
_TRAPS = {"divide": "raise", "over": "raise", "invalid": "raise", "under": "ignore"}


def _run(steps, env):
    """Run ``steps`` on the list of values ``env``, under the caller's traps.

    A step (function, i, j, k) sets env[k] to function(env[i]), or to
    function(env[i], env[j]) when j is not None.  Every operand is numpy:
    Python-float arithmetic sets no flags.  A domain fault (division by
    zero, the sqrt of a negative, a zero base with a negative exponent) is
    named as an EvalError only under _TRAPS, whose flags it trips; under
    other traps it may give inf or NaN.
    """
    for function, i, j, k in steps:
        env[k] = function(env[i]) if j is None else function(env[i], env[j])


def _execute(steps, env):
    """Run ``steps`` on ``env`` under _TRAPS; a trapped flag raises EvalError."""
    try:
        with np.errstate(**_TRAPS):
            _run(steps, env)
    except FloatingPointError as exc:
        raise EvalError(f"non-finite result: {exc}") from exc


# The domain checks run only when the operation trips a trap.  Under _TRAPS
# x/0 trips divide, 0/0 and the sqrt of a negative trip invalid, and 1/0
# trips divide, so an operation that reaches a zero or negative operand
# always raises; any other trapped flag is raised again as it is.  The
# EvalError is raised after the handler, so the trapped error and its
# frames are not kept as its context.


def _divide(numerator, denominator):
    try:
        return numerator / denominator
    except FloatingPointError:
        if not np.count_nonzero(denominator == 0.0):
            raise
    raise EvalError("division by zero")


def _sqrt(value):
    try:
        return np.sqrt(value)
    except FloatingPointError:
        if not np.count_nonzero(value < 0.0):
            raise
    raise EvalError("sqrt of a negative value")


def _reciprocal(value):
    try:
        return 1.0 / value
    except FloatingPointError:
        if not np.count_nonzero(value == 0.0):
            raise
    raise EvalError("zero base with a negative exponent")


def _real_power(value, c):
    # checked first: np.power(0.0, 0.5) trips nothing
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


class _Program:
    """The steps that evaluate one or more trees, in the order of a walk over them.

    One pass over the trees numbers their values (Cocke and Schwartz, 1970):
    t is 0 and x is 1, a constant is numbered by its bits, and an
    operation by its function and operand numbers.  An operation runs
    once per evaluation, at the first place in the walk where its number
    is made, so equal subtrees run once and values and errors are those of
    the walk.  Compiling does no arithmetic: every operation runs, 2*3 as
    y*1.0 and 0.0*y do, and y^1.0 is y by binary powering.  A malformed
    tree (an unknown operator or a variable exponent) raises EvalError
    here.

    With each number the walk records what its value reads: 1 for t, 2
    for x, 3 for both and 0 for neither, the OR of its operands'.  ``reads[s]`` is
    that of ``steps[s]``.

    Values live in a list: t, x, the roots' results, then the constants
    and the other results.  A result holds its slot from its operation to
    its last user, and other results use the slot outside that span.

    The roots are walked in turn with one numbering, so a root's steps
    follow those of the roots before it, and it runs only the operations
    they do not.  ``roots`` holds, per root, its result slot, what it
    reads and the number of steps that complete it.  No step after a
    root's operation reuses its slot.
    """

    def __init__(self, *roots):
        # by number: None for t and x, a constant (np.float64), or an
        # operation (function, a, b) on the numbers a and b, b None if unary
        values = [None, None]
        reads = [1, 2]  # by number: what the value reads
        numbers = {}  # a constant's bits, or an operation -> its number
        walked = {}  # id(node) -> number, so that a shared node is walked once

        def number(value, read=0):
            # value's number: a constant is keyed by its bits, so -0.0 is not 0.0
            key = value.hex() if type(value) is np.float64 else value
            n = numbers.get(key)
            if n is None:
                n = numbers[key] = len(values)
                values.append(value)
                reads.append(read)
            return n

        def operation(function, a, b=None):
            return number((function, a, b), reads[a] | (0 if b is None else reads[b]))

        def power(base, c):
            # base^c.  An integer c != 0 is binary powering (Knuth, TAOCP vol.
            # 2, 4.6.3) of base, or of 1/base after the zero-base check when
            # c < 0, as squares and products, low bits first; else np.power.
            if c != round(c):
                return operation(_real_power, base, number(np.float64(c)))
            if c == 0:
                return operation(np.power, base, number(np.float64(c)))
            if c < 0:
                base = operation(_reciprocal, base)
            k = int(abs(c))
            product = None
            while True:
                if k & 1:
                    product = base if product is None else operation(operator.mul, product, base)
                k >>= 1
                if not k:
                    return product
                base = operation(np.square, base)

        def walk(node):
            if isinstance(node, Var):
                return 0 if node.name == "t" else 1
            if isinstance(node, Num):
                return number(np.float64(node.value))
            n = walked.get(id(node))
            if n is not None:
                return n
            if isinstance(node, BinOp):
                op = node.op
                left = walk(node.left)
                if op == "^":
                    if not isinstance(node.right, Num):
                        raise EvalError("exponent must be a constant")
                    n = power(left, node.right.value)
                else:
                    right = walk(node.right)
                    if op not in _BINARY:
                        raise EvalError(f"unknown operator {op!r}")
                    n = operation(_BINARY[op], left, right)
            elif isinstance(node, Call):
                n = operation(_CALLS[node.fn], walk(node.arg))
            elif isinstance(node, Neg):
                n = operation(operator.neg, walk(node.arg))
            else:
                raise TypeError(f"unknown node {node!r}")
            walked[id(node)] = n
            return n

        # each root's number, and how many values are numbered once it is walked
        try:
            walks = [(_walk(walk, root), len(values)) for root in roots]
        finally:
            # walk calls itself through its closure cell, a cycle that would
            # keep it and every table above alive until the collector runs
            del walk
        template = [None, None]
        slots = {0: 0, 1: 1}
        free = []

        def slot(n):
            # n's slot, chosen at its last use: a freed one for a result
            # when there is one, else a new one
            if n not in slots:
                value = values[n]
                if type(value) is tuple and free:
                    slots[n] = free.pop()
                else:
                    slots[n] = len(template)
                    template.append(value if type(value) is np.float64 else None)
            return slots[n]

        # The roots take their slots first, as at a use after the last step.
        # Backwards from the last operation: a result takes a slot at its
        # last use and gives it up at its own operation, to those before.
        results = [slot(n) for n, _ in walks]
        steps = []
        for n in range(len(values) - 1, 1, -1):
            if type(values[n]) is tuple:
                function, a, b = values[n]
                out = slots[n]
                free.append(out)
                i = slot(a)
                steps.append((function, i, None if b is None else slot(b), out))
        steps.reverse()
        self.template = template
        self.steps = steps
        self.reads = [reads[n] for n in range(2, len(values)) if type(values[n]) is tuple]
        # the steps of the operations numbered before each root's end
        operations = [n for n in range(2, len(values)) if type(values[n]) is tuple]
        self.roots = [
            (result, reads[n], bisect.bisect_left(operations, made))
            for result, (n, made) in zip(results, walks)
        ]


def evaluate(expr: Expr, t=0.0, x=0.0):
    """Evaluate ``expr`` at (t, x).

    Scalars in give a float back; numpy arrays broadcast and give an
    array of the broadcast shape.  Domain failures (division by zero,
    sqrt of a negative, invalid powers, overflow) and non-finite t or x
    raise EvalError rather than propagating NaN or infinity.  Underflow
    to zero is not an error.  A tree is compiled on its first
    evaluation and its compiled form is kept on the tree; each call runs
    the whole program and keeps nothing between calls.
    """
    t = _finite(t)
    program = expr._program
    try:
        with np.errstate(**_TRAPS):
            return _root(program, _point(program, t, x), 0)
    except FloatingPointError as exc:
        raise EvalError(f"non-finite result: {exc}") from exc


def _point(program, t, x):
    """``program``'s values at (t, x) before its first step, for ``_root`` to run.

    t and x are numpy operands.  x must be finite, as in evaluate; t is not
    checked here, but once by the caller for all the points that share it.
    """
    env = program.template.copy()
    env[0] = t
    env[1] = _finite(x)
    return env


def _root(program, env, k):
    """Root k of ``program`` at the point of ``env``: a float, or an array of the point's shape.

    Roots 0..k-1 must have run on env.  This runs only the steps that root
    k adds to theirs, under the caller's traps (evaluate's are _TRAPS), so
    a trapped flag raises FloatingPointError.  Where two roots are one
    value, they are given as one array.
    """
    result, _, end = program.roots[k]
    _run(program.steps[program.roots[k - 1][2] if k else 0 : end], env)
    t, x, result = env[0], env[1], env[result]
    shape = x.shape if t.shape == x.shape else np.broadcast(t, x).shape
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


def _blocks(expr: Expr, t: np.ndarray, x: np.ndarray):
    """``expr`` on the box t[:, None] by x[None, :] of finite 1-d grids, by row blocks.

    Returns (uses_t, block): whether the result depends on t, and a
    function that gives the result on rows start:stop of the box, stop at
    most t.size.  block(start, stop) is a fresh array of stop - start rows,
    or of one row where the result does not use t, and of x.size columns,
    or of one where it does not use x.  By the program's ``reads``, the
    steps on t alone, x alone or neither run here, once, on the column
    t[:, None] and the row x[None, :], each into a slot that no step
    reuses; each block runs only the steps on both, on rows start:stop of
    the t-only values.  So values and errors are evaluate's, but an error
    of a step on one variable is raised here, whatever its row.  Nothing
    is kept on the tree.
    """
    program = expr._program
    env = _point(program, t[:, None], x[None, :])
    where = list(range(len(env)))  # a program slot -> the slot of its value now
    t_only = [0]  # the slots of the values on t alone
    once, each = [], []
    for (function, i, j, k), reads in zip(program.steps, program.reads):
        i, j = where[i], None if j is None else where[j]
        if reads == 3:
            where[k] = k
            each.append((function, i, j, k))
        else:
            where[k] = len(env)
            env.append(None)
            once.append((function, i, j, where[k]))
            if reads == 1:
                t_only.append(where[k])
    _execute(once, env)
    columns = [(k, env[k]) for k in t_only]
    result, depends, _ = program.roots[0]
    result = where[result]

    def block(start: int, stop: int) -> np.ndarray:
        for k, column in columns:
            env[k] = column[start:stop]
        _execute(each, env)
        if depends == 3:
            return env[result]  # a step's fresh result, of the block's shape
        out = np.empty((stop - start if depends & 1 else 1, x.size if depends & 2 else 1))
        np.copyto(out, env[result])  # t, x, a constant or a t-only column is not the caller's
        return out

    return bool(depends & 1), block


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
    return _walk(_diff, expr, var)


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
    return _walk(_substitute, expr, var, replacement)


def _substitute(expr: Expr, var: str, replacement: Expr) -> Expr:
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Var):
        return replacement if expr.name == var else expr
    if isinstance(expr, Neg):
        return Neg(_substitute(expr.arg, var, replacement))
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _substitute(expr.left, var, replacement),
            _substitute(expr.right, var, replacement),
        )
    if isinstance(expr, Call):
        return Call(expr.fn, _substitute(expr.arg, var, replacement))
    raise TypeError(f"unknown node {expr!r}")


def uses_var(expr: Expr, var: str) -> bool:
    """True if variable ``var`` occurs anywhere in the tree."""
    return _walk(_uses_var, expr, var)


def _uses_var(expr: Expr, var: str) -> bool:
    if isinstance(expr, Var):
        return expr.name == var
    if isinstance(expr, Neg):
        return _uses_var(expr.arg, var)
    if isinstance(expr, BinOp):
        return _uses_var(expr.left, var) or _uses_var(expr.right, var)
    if isinstance(expr, Call):
        return _uses_var(expr.arg, var)
    return False


def format_expr(expr: Expr) -> str:
    """Render a tree back to parseable text (fully parenthesized)."""
    return _walk(_format, expr)


def _format(expr: Expr) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{_format(expr.arg)})"
    if isinstance(expr, BinOp):
        return f"({_format(expr.left)} {expr.op} {_format(expr.right)})"
    if isinstance(expr, Call):
        return f"{expr.fn}({_format(expr.arg)})"
    raise TypeError(f"unknown node {expr!r}")
