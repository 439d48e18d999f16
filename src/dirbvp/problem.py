"""Problem declaration and falsification checks for the solvability conditions.

A problem is the pair of expressions f(t, x) and v(t) together with
user-declared constants: a growth bound |f(t,x)| <= A|x| + B and a lower
bound on the partial derivative f_x, and for a manufactured problem the
exact solution x*(t) that v was derived from.  The checks here sample
those conditions on a grid and report violations; a clean report is
falsification-based evidence, not a proof.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expr import (
    EvalError, Expr, _blocks, _Program, _sub, diff, evaluate, format_expr, parse, substitute,
    uses_var,
)
from .grid import is_integer

__all__ = [
    "ProblemSpec",
    "ConditionReport",
    "TheoremClassification",
    "make_spec",
    "as_expr",
    "check_growth",
    "check_fx_lower",
    "classify",
    "apriori_bound",
]

_WITNESS_CAP = 10
# 8 x 2001 doubles is 125 KiB, under glibc's default 128 KiB mmap threshold, so
# a block's temporaries come from the heap and reuse its pages, block after block
_BLOCK_ROWS = 8
# How many grid sizes a spec keeps the nodes and v (or v's failure) of, the most recently used
_GRIDS = 8
# the head of the message that names the first t where v fails
_V_FAILS = "v cannot be evaluated at t={t}"
# how far from zero x_star may be at t = 0 and t = 1
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """Right-hand side f, forcing v, declared constants, and x*; f_x is derived from f.

    Every spec makes and checks its own fields when it is built, by the
    constructor, ``make_spec``, ``manufacture`` or ``dataclasses.replace``.
    f, v and x_star are source text, which is parsed, or trees; anything
    else is a ``TypeError`` naming the field, and v may be None only with
    x_star.  With x_star set, the manufactured forcing x_star'' - f(t,
    x_star) is derived first, so ``abs`` in x_star raises
    ``NonDifferentiableError``; x_star is an expression in t that vanishes
    at t = 0 and t = 1 (within 1e-12); and a None v becomes that forcing,
    while a given v must be the same tree, else ``ValueError``.  Then A, B
    and fx_lower are finite numbers, not booleans, stored as floats, with
    A and B positive; v is an expression in t; and f is differentiable in
    x.  The first failing check raises, in that order.  To change f or
    x_star of a manufactured spec with ``replace``, pass ``v=None`` too.
    """

    f: Expr
    v: Expr
    declared_A: float
    declared_B: float
    declared_fx_lower: float
    x_star: Expr | None = None  # the exact solution; None when it is not known

    def __post_init__(self):
        f = as_expr(self.f, "f")
        v = None if self.v is None and self.x_star is not None else as_expr(self.v, "v")
        x_star = None if self.x_star is None else as_expr(self.x_star, "x_star")
        if x_star is not None:
            # derived first, so an abs in x_star is named before any other fault of x_star
            derived = _sub(diff(diff(x_star, "t"), "t"), substitute(f, "x", x_star))
            if uses_var(x_star, "x"):
                raise ValueError("x_star must be an expression in t only")
            for endpoint in (0.0, 1.0):
                value = evaluate(x_star, endpoint, 0.0)
                if abs(value) > _BOUNDARY_TOL:
                    raise ValueError(
                        f"x_star({endpoint}) = {value} violates the zero boundary condition"
                    )
            # format_expr, not ==, which recurses deeper per level than diff
            if v is None:
                v = derived
            elif format_expr(v) != format_expr(derived):
                raise ValueError("v must be x_star'' - f(t, x_star); give v=None to derive it")
        A, B, fx_lower = self.declared_A, self.declared_B, self.declared_fx_lower
        if any(isinstance(c, (bool, np.bool_)) for c in (A, B, fx_lower)):
            raise ValueError("declared constants A, B and fx_lower must be numbers, not booleans")
        if not all(math.isfinite(c) for c in (A, B, fx_lower)):
            raise ValueError("declared constants A, B and fx_lower must be finite")
        if A <= 0.0 or B <= 0.0:
            raise ValueError("growth constants A and B must be positive")
        if uses_var(v, "x"):
            raise ValueError("the forcing term v must depend on t only")
        fields = (("f", f), ("v", v), ("declared_A", float(A)), ("declared_B", float(B)),
                  ("declared_fx_lower", float(fx_lower)), ("x_star", x_star))
        for name, value in fields:
            object.__setattr__(self, name, value)
        self.fx  # a non-differentiable f fails here, not at its first solve

    @functools.cached_property
    def fx(self) -> Expr:
        """The symbolic derivative of f in x, taken once per spec."""
        return diff(self.f, "x")

    @functools.cached_property
    def _program(self):
        # f and then f_x as one program, as Newton runs them at each point;
        # compiled on the first solve and kept on the spec
        return _Program(self.f, self.fx)

    @functools.cached_property
    def _grids(self) -> dict:
        # n -> _grid(n), or the message of its EvalError; oldest use first
        return {}

    def _grid(self, n: int) -> tuple[np.ndarray, np.ndarray, float]:
        """The interior nodes k/n, k = 1..n-1, v there and sup|v| there.

        v is evaluated once per n, which checks the nodes finite, and both
        arrays are read-only.  Where v fails on the nodes, this raises an
        EvalError that names the first failing t.  The spec keeps either
        outcome for the _GRIDS most recently used n, so a later call for
        a kept n evaluates nothing.
        """
        grids = self._grids
        grid = grids.pop(n, None)
        if grid is None:
            t = np.arange(1, n) / n
            try:
                v_vals = _evaluate_v(self.v, t)
            except EvalError as exc:
                grid = str(exc)
            else:
                t.flags.writeable = v_vals.flags.writeable = False
                grid = (t, v_vals, float(np.max(np.abs(v_vals))))
            if len(grids) >= _GRIDS:
                del grids[next(iter(grids))]
        grids[n] = grid
        if isinstance(grid, str):
            raise EvalError(grid)
        return grid


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of sampling one condition over a (t, x) box.

    Witnesses are (t, x, lhs, rhs) tuples for up to the first few
    violations; ``violation_count`` is the total number found.
    """

    condition: str
    verdict: str  # "no-violation-found" | "violated"
    witnesses: tuple[tuple[float, float, float, float], ...]
    violation_count: int
    samples_t: int
    samples_x: int

    def __post_init__(self):
        if self.verdict not in ("no-violation-found", "violated"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "violated" and not self.witnesses:
            raise ValueError("a violated verdict must carry at least one witness")

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"


@dataclass(frozen=True)
class TheoremClassification:
    continuous_theorem_applies: bool
    discrete_theorem_applies: bool


def as_expr(value, name: str) -> Expr:
    """Parse a source string, pass an expression tree through, and reject anything else."""
    if isinstance(value, str):
        return parse(value)
    if not isinstance(value, Expr):
        raise TypeError(f"{name} must be an expression string or tree, got {value!r}")
    return value


def make_spec(f, v, *, A: float, B: float, fx_lower: float, x_star=None) -> ProblemSpec:
    """Build a problem from expression trees or source strings; ``ProblemSpec`` checks it.

    f_x is always the symbolic derivative of f, and there is no way to
    supply one.  ``abs`` is therefore usable in v only; in f it raises
    ``NonDifferentiableError``.  x_star, the exact solution, is None
    unless given; with it, v=None derives v = x_star'' - f(t, x_star),
    and a given v must be that tree.
    """
    return ProblemSpec(f, v, A, B, fx_lower, x_star)


def _locate_failure(expr: Expr, t_grid: np.ndarray, x_grid: np.ndarray, cause: EvalError,
                    where: str = "evaluation failed at sample point (t={t}, x={x})"):
    """Raise an EvalError naming the first point of t_grid by x_grid, row-major, where expr fails.

    ``cause`` is expr's error on the whole box.  A set of points fails
    where one of its points fails, so halving the points in row-major
    order finds the first failing one in about log2 of their count
    evaluations.  The message is ``where`` at that t and x, then expr's
    error on scalars there; where those do not fail, this raises ``cause``.
    """
    # views where the box has one row or one column, as v's has
    shape = (t_grid.size, x_grid.size)
    t = np.broadcast_to(t_grid[:, None], shape).reshape(-1)
    x = np.broadcast_to(x_grid[None, :], shape).reshape(-1)
    # the first failure lies in [lo, hi), and none before lo
    lo, hi = 0, t.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            evaluate(expr, t[lo:mid], x[lo:mid])
        except EvalError:
            hi = mid
        else:
            lo = mid
    try:
        evaluate(expr, float(t[lo]), float(x[lo]))
    except EvalError as exc:
        raise EvalError(f"{where.format(t=t[lo], x=x[lo])}: {exc}") from exc
    raise cause


def _evaluate_v(v: Expr, t: np.ndarray) -> np.ndarray:
    """v on the nodes ``t``; where it fails, an EvalError that names the first failing t."""
    try:
        return evaluate(v, t, 0.0)
    except EvalError as cause:
        _locate_failure(v, t, np.zeros(1), cause, _V_FAILS)


def _sample_grids(x_range: float, samples_t: int, samples_x: int):
    # True would pass as a box of half-width 1
    if isinstance(x_range, (bool, np.bool_)):
        raise ValueError(f"x_range must be a number, not a boolean, got {x_range!r}")
    if x_range <= 0.0:
        raise ValueError("x_range must be positive")
    # the grid spans 2*x_range, which must be a float too
    if not math.isfinite(2.0 * float(x_range)):
        raise ValueError(f"x_range must be finite and 2*x_range must not overflow, got {x_range!r}")
    if not (is_integer(samples_t) and is_integer(samples_x)) or min(samples_t, samples_x) < 2:
        raise ValueError(
            f"sample counts must be integers of at least 2, got {samples_t!r}, {samples_x!r}"
        )
    t_grid = np.linspace(0.0, 1.0, samples_t)
    x_grid = np.linspace(-x_range, x_range, samples_x)
    return t_grid, x_grid


def _scan(condition, expr, t_grid, x_grid, rhs, violates) -> ConditionReport:
    """Evaluate ``expr`` in row blocks and report where it breaks the bound ``rhs``.

    ``expr``'s terms in t alone are evaluated once on the t column, and
    those in x alone once on the x row; each block of rows evaluates only
    the terms in both.  A result without x is one column, and one without
    t is one row that stands for every row, in a single block.  A variable
    that ``expr`` does not use changes no bit of its value and raises no
    trap, so the report is the one of the full box.  ``violates(block)``
    may first turn the block into the left-hand side in place; it returns
    the mask of violations of ``rhs[j]``, the bound at ``x_grid[j]``,
    broadcast against ``rhs``.  Witnesses are the first violations in
    row-major order.
    """
    try:
        uses_t, block = _blocks(expr, t_grid, x_grid)
    except EvalError as exc:
        _locate_failure(expr, t_grid, x_grid, exc)
    block_rows = _BLOCK_ROWS if uses_t else t_grid.size
    count = 0
    witnesses = []
    for start in range(0, t_grid.size, block_rows):
        t_block = t_grid[start : start + block_rows]
        try:
            lhs = block(start, start + t_block.size)
        except EvalError as exc:
            _locate_failure(expr, t_grid[start:], x_grid, exc)
        bad = violates(lhs)
        # a one-row mask stands for every row of the block
        found = int(np.count_nonzero(bad)) * (t_block.size // bad.shape[0])
        if found and len(witnesses) < _WITNESS_CAP:
            # each row with a violation holds at least one witness
            hit = np.broadcast_to(bad.any(axis=1), t_block.shape)
            rows = np.flatnonzero(hit)[: _WITNESS_CAP - len(witnesses)]
            bad = np.broadcast_to(bad, (t_block.size, x_grid.size))
            lhs = np.broadcast_to(lhs, bad.shape)
            picked, cols = np.nonzero(bad[rows])
            for i, j in zip(rows[picked[: _WITNESS_CAP - len(witnesses)]], cols):
                witnesses.append(
                    (float(t_block[i]), float(x_grid[j]), float(lhs[i, j]), float(rhs[j]))
                )
        count += found
    return ConditionReport(
        condition=condition,
        verdict="violated" if count else "no-violation-found",
        witnesses=tuple(witnesses),
        violation_count=count,
        samples_t=t_grid.size,
        samples_x=x_grid.size,
    )


def check_growth(
    spec: ProblemSpec, x_range: float, samples_t: int = 201, samples_x: int = 2001
) -> ConditionReport:
    """Sample |f(t,x)| <= A|x| + B on [0,1] x [-x_range, x_range]."""
    t_grid, x_grid = _sample_grids(x_range, samples_t, samples_x)
    rhs = spec.declared_A * np.abs(x_grid) + spec.declared_B
    return _scan("growth", spec.f, t_grid, x_grid, rhs, lambda f: np.abs(f, out=f) > rhs)


def check_fx_lower(
    spec: ProblemSpec, x_range: float, samples_t: int = 201, samples_x: int = 2001
) -> ConditionReport:
    """Sample f_x(t,x) >= declared_fx_lower on [0,1] x [-x_range, x_range]."""
    t_grid, x_grid = _sample_grids(x_range, samples_t, samples_x)
    rhs = np.full(samples_x, spec.declared_fx_lower)
    return _scan("fx_lower", spec.fx, t_grid, x_grid, rhs, lambda fx: fx < rhs)


def classify(spec: ProblemSpec) -> TheoremClassification:
    """Which solvability theorem the declared constants fall under.

    The continuous problem needs A < pi^2 and inf f_x > -pi^2; the
    discrete one needs the strictly smaller constants A < 1 and
    inf f_x > -1, so discrete applicability implies continuous.
    """
    pi2 = np.pi**2
    return TheoremClassification(
        continuous_theorem_applies=bool(
            spec.declared_A < pi2 and spec.declared_fx_lower > -pi2
        ),
        discrete_theorem_applies=bool(
            spec.declared_A < 1.0 and spec.declared_fx_lower > -1.0
        ),
    )


def apriori_bound(spec: ProblemSpec, v_sup: float) -> float:
    """Uniform bound M = (sup|v| + B) / (1 - A) on every discrete solution.

    v_sup is a finite nonnegative number, not a boolean.
    """
    # True and False would pass as 1 and 0
    if isinstance(v_sup, (bool, np.bool_)) or not 0.0 <= v_sup < math.inf:
        raise ValueError(f"v_sup must be finite and nonnegative, got {v_sup}")
    if spec.declared_A >= 1.0:
        raise ValueError("a-priori bound undefined: requires declared_A < 1")
    return (v_sup + spec.declared_B) / (1.0 - spec.declared_A)
