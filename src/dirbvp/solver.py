"""Damped Newton iteration for the discrete Dirichlet problem.

Each step solves the tridiagonal linearization for the Newton direction
and backtracks on the least-squares merit 0.5*||residual||^2 until the
Armijo condition holds.  Under the growth and derivative conditions the
discrete problem has exactly one solution, which multi-start runs are
expected to reproduce from any initial guess.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .discrete_op import SingularJacobianError, _residual, jacobian, residual, solve_tridiagonal
from .expr import EvalError, evaluate
from .grid import GridFunction, is_integer, random_element
from .problem import ProblemSpec

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SolverError",
    "merit",
    "merit_gradient",
    "newton_solve",
    "multi_start_uniqueness",
]

CONVERGED = "converged"
MAX_ITER = "max_iter"
SINGULAR_JACOBIAN = "singular_jacobian"
EVAL_ERROR = "eval_error"

# Armijo line search: sufficient-decrease constant, shrink factor, smallest step
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-14


class SolverError(RuntimeError):
    """A solve that was required to converge did not."""


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 100
    initial_guess: GridFunction | None = None

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        # a NaN limit compares false with every count and is never reached
        if not is_integer(self.max_iter) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")


@dataclass(frozen=True)
class SolveReport:
    solution: GridFunction
    residual_norm: float
    iterations: int
    step_trace: tuple[tuple[int, float, float], ...]
    status: str


def merit(spec: ProblemSpec, x: GridFunction) -> float:
    """Least-squares merit 0.5 * ||residual||^2."""
    return 0.5 * residual(spec, x).norm ** 2


def merit_gradient(spec: ProblemSpec, x: GridFunction) -> np.ndarray:
    """Gradient of the merit with respect to the interior values: J^T r = J r."""
    r = residual(spec, x).vector
    return jacobian(spec, x).matvec(r)


def newton_solve(spec: ProblemSpec, n: int, cfg: SolverConfig | None = None) -> SolveReport:
    """Solve the discrete problem on n subintervals by damped Newton.

    The step h solves J h = -residual; Armijo backtracking on the merit
    guards each update.  Iteration stops once the residual norm falls
    below tol * (1 + sup|v| * sqrt(n) / n^2).
    """
    cfg = cfg or SolverConfig()
    x = cfg.initial_guess if cfg.initial_guess is not None else GridFunction.zeros(n)
    if x.n != n:
        raise ValueError(f"initial guess lives on n={x.n}, expected n={n}")

    trace: list[tuple[int, float, float]] = []

    def report(status, x, res_norm, iterations):
        return SolveReport(
            solution=x,
            residual_norm=res_norm,
            iterations=iterations,
            step_trace=tuple(trace),
            status=status,
        )

    # v(t_k) is fixed for the solve; scaling tol by its size keeps the stopping
    # test from getting harsher on finer grids, as residuals carry a 1/N^2 factor.
    t = np.arange(1, n) / n
    try:
        v_vals = evaluate(spec.v, t, 0.0)
        threshold = cfg.tol * (1.0 + float(np.max(np.abs(v_vals))) * math.sqrt(n) / n**2)
        r = _residual(spec, t, v_vals, x.values)
    except EvalError:
        return report(EVAL_ERROR, x, math.nan, 0)

    trial = np.zeros(n + 1)  # line-search point; GridFunction copies the accepted one
    iterations = 0
    while r.norm > threshold:
        if iterations >= cfg.max_iter:
            return report(MAX_ITER, x, r.norm, iterations)
        try:
            step = solve_tridiagonal(jacobian(spec, x), -r.vector)
        except SingularJacobianError:
            return report(SINGULAR_JACOBIAN, x, r.norm, iterations)
        except EvalError:
            return report(EVAL_ERROR, x, r.norm, iterations)

        merit_0 = 0.5 * r.norm**2
        slope = -2.0 * merit_0  # gradient . step = -||r||^2 for an exact Newton step
        lam = 1.0
        while True:
            trial[1:-1] = x.interior + lam * step
            try:
                r_new = _residual(spec, t, v_vals, trial)
                ok = 0.5 * r_new.norm**2 <= merit_0 + _ARMIJO_C * lam * slope
            except EvalError:
                ok = False  # treat an unevaluable trial point as a failed step
            if ok:
                break
            lam *= _BACKTRACK_FACTOR
            if lam < _MIN_STEP:
                return report(MAX_ITER, x, r.norm, iterations)

        x, r = GridFunction(n, trial), r_new
        iterations += 1
        trace.append((iterations, r.norm, lam))

    return report(CONVERGED, x, r.norm, iterations)


def multi_start_uniqueness(
    spec: ProblemSpec,
    n: int,
    cfg: SolverConfig | None = None,
    starts: int = 5,
    amplitude: float = 10.0,
    seed: int = 0,
) -> float:
    """Max pairwise sup-distance between solutions from random starts.

    Runs ``starts`` solves with interior initial values uniform in
    [-amplitude, amplitude]; when the uniqueness conditions hold all
    converged solutions coincide, so the returned distance should be tiny.
    """
    if starts < 2:
        raise ValueError("need at least two starts")
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(seed)
    solutions = []
    for i in range(starts):
        guess = random_element(n, rng, amplitude)
        rep = newton_solve(spec, n, replace(cfg, initial_guess=guess))
        if rep.status != CONVERGED:
            raise SolverError(
                f"start {i} ended with status {rep.status} "
                f"(residual norm {rep.residual_norm:.3e})"
            )
        solutions.append(rep.solution.values)
    return max(
        (float(np.max(np.abs(a - b))) for a, b in itertools.combinations(solutions, 2)),
        default=0.0,
    )
