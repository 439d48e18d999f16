"""Problem declaration and falsification checks for the solvability conditions.

A problem is the pair of expressions f(t, x) and v(t) together with
user-declared constants: a growth bound |f(t,x)| <= A|x| + B and a lower
bound on the partial derivative f_x.  The checks here sample those
conditions on a grid and report violations; a clean report is
falsification-based evidence, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import EvalError, Expr, diff, evaluate, parse, uses_var

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


@dataclass(frozen=True)
class ProblemSpec:
    """Right-hand side f, its x-derivative, forcing v, and declared constants."""

    f: Expr
    fx: Expr
    v: Expr
    declared_A: float
    declared_B: float
    declared_fx_lower: float


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


def make_spec(f, v, *, A: float, B: float, fx_lower: float) -> ProblemSpec:
    """Build a validated problem.

    f and v may be expression trees or source strings.  f must be
    differentiable in x: f_x is always its symbolic derivative, and there
    is no way to supply one.  ``abs`` is therefore usable in v only; in f
    it raises ``NonDifferentiableError``.
    """
    f = as_expr(f, "f")
    v = as_expr(v, "v")
    if not all(math.isfinite(c) for c in (A, B, fx_lower)):
        raise ValueError("declared constants A, B and fx_lower must be finite")
    if A <= 0.0 or B <= 0.0:
        raise ValueError("growth constants A and B must be positive")
    if uses_var(v, "x"):
        raise ValueError("the forcing term v must depend on t only")
    return ProblemSpec(f, diff(f, "x"), v, float(A), float(B), float(fx_lower))


def _locate_failure(expr: Expr, t_grid: np.ndarray, x_grid: np.ndarray, cause: EvalError):
    """Rescan after a vectorized failure to name the first failing point."""
    for t in t_grid:
        try:
            evaluate(expr, float(t), x_grid)
        except EvalError:
            for x in x_grid:
                try:
                    evaluate(expr, float(t), float(x))
                except EvalError as exc:
                    raise EvalError(
                        f"evaluation failed at sample point (t={t}, x={x}): {exc}"
                    ) from exc
    raise cause


def _sample_grids(x_range: float, samples_t: int, samples_x: int):
    if x_range <= 0.0:
        raise ValueError("x_range must be positive")
    if samples_t < 2 or samples_x < 2:
        raise ValueError("need at least two samples per axis")
    t_grid = np.linspace(0.0, 1.0, samples_t)
    x_grid = np.linspace(-x_range, x_range, samples_x)
    return t_grid, x_grid


def _report(condition, t_grid, x_grid, bad, lhs, rhs) -> ConditionReport:
    """Report where the mask ``bad`` holds; ``rhs`` broadcasts against ``lhs``."""
    count = int(np.count_nonzero(bad))
    witnesses = []
    if count:
        rows, cols = np.nonzero(bad)
        rhs = np.broadcast_to(rhs, lhs.shape)
        for i, j in zip(rows[:_WITNESS_CAP], cols[:_WITNESS_CAP]):
            witnesses.append(
                (float(t_grid[i]), float(x_grid[j]), float(lhs[i, j]), float(rhs[i, j]))
            )
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
    try:
        f_vals = evaluate(spec.f, t_grid[:, None], x_grid[None, :])
    except EvalError as exc:
        _locate_failure(spec.f, t_grid, x_grid, exc)
    lhs = np.abs(f_vals)
    rhs = spec.declared_A * np.abs(x_grid) + spec.declared_B
    return _report("growth", t_grid, x_grid, lhs > rhs, lhs, rhs)


def check_fx_lower(
    spec: ProblemSpec, x_range: float, samples_t: int = 201, samples_x: int = 2001
) -> ConditionReport:
    """Sample f_x(t,x) >= declared_fx_lower on [0,1] x [-x_range, x_range]."""
    t_grid, x_grid = _sample_grids(x_range, samples_t, samples_x)
    try:
        fx_vals = evaluate(spec.fx, t_grid[:, None], x_grid[None, :])
    except EvalError as exc:
        _locate_failure(spec.fx, t_grid, x_grid, exc)
    rhs = spec.declared_fx_lower
    return _report("fx_lower", t_grid, x_grid, fx_vals < rhs, fx_vals, rhs)


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
    """Uniform bound M = (sup|v| + B) / (1 - A) on every discrete solution."""
    if v_sup < 0.0:
        raise ValueError("v_sup must be nonnegative")
    if spec.declared_A >= 1.0:
        raise ValueError("a-priori bound undefined: requires declared_A < 1")
    return (v_sup + spec.declared_B) / (1.0 - spec.declared_A)
