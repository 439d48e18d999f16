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

from .discrete_op import (
    SingularJacobianError,
    _interior_nodes,
    _jacobian,
    _residual,
    jacobian,
    residual,
    solve_tridiagonal,
)
from .expr import EvalError, bind, evaluate
from .grid import GridFunction, grid_size, is_integer, random_element
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
        # True and False would pass as 1.0 and 0.0
        if isinstance(self.tol, (bool, np.bool_)) or not 0.0 < self.tol < math.inf:
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
    if cfg.initial_guess is None:
        values = np.zeros(grid_size(n) + 1)
    elif cfg.initial_guess.n != n:
        raise ValueError(f"initial guess lives on n={cfg.initial_guess.n}, expected n={n}")
    else:
        values = cfg.initial_guess.values.copy()

    trace: list[tuple[int, float, float]] = []

    def report(status, values, res_norm, iterations):
        return SolveReport(
            solution=GridFunction(n, values),
            residual_norm=res_norm,
            iterations=iterations,
            step_trace=tuple(trace),
            status=status,
        )

    # t_k, f and f_x bound to it, and v(t_k) are fixed for the solve; scaling
    # tol by the size of v keeps the stopping test from getting harsher on
    # finer grids, as residuals carry a 1/N^2 factor.
    t = _interior_nodes(n)
    f = bind(spec.f, t)
    fx = bind(spec.fx, t)
    try:
        v_vals = evaluate(spec.v, t, 0.0)
        threshold = cfg.tol * (1.0 + float(np.max(np.abs(v_vals))) * math.sqrt(n) / n**2)
        r, r_norm = _residual(f, v_vals, values)
    except EvalError:
        return report(EVAL_ERROR, values, math.nan, 0)

    # the line-search point; the iterate and it swap when it is accepted
    trial = np.zeros(n + 1)
    iterations = 0
    while r_norm > threshold:
        if iterations >= cfg.max_iter:
            return report(MAX_ITER, values, r_norm, iterations)
        try:
            # r is not used again, so it is negated in place
            step = solve_tridiagonal(_jacobian(fx, values), np.negative(r, out=r))
        except SingularJacobianError:
            return report(SINGULAR_JACOBIAN, values, r_norm, iterations)
        except EvalError:
            return report(EVAL_ERROR, values, r_norm, iterations)

        merit_0 = 0.5 * r_norm**2
        slope = -2.0 * merit_0  # gradient . step = -||r||^2 for an exact Newton step
        lam = 1.0
        while True:
            np.add(values[1:-1], lam * step, out=trial[1:-1])
            try:
                r_new, r_new_norm = _residual(f, v_vals, trial)
                ok = 0.5 * r_new_norm**2 <= merit_0 + _ARMIJO_C * lam * slope
            except EvalError:
                ok = False  # treat an unevaluable trial point as a failed step
            if ok:
                break
            lam *= _BACKTRACK_FACTOR
            if lam < _MIN_STEP:
                return report(MAX_ITER, values, r_norm, iterations)

        values, trial = trial, values
        r, r_norm = r_new, r_new_norm
        iterations += 1
        trace.append((iterations, r_norm, lam))

    return report(CONVERGED, values, r_norm, iterations)


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
    if not is_integer(starts) or starts < 2:
        raise ValueError(f"starts must be an integer of at least 2, got {starts!r}")
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
