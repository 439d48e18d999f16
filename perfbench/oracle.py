"""Independent oracle for the six corpus problems.

Everything here is written from the problem statements alone: f, f_x, v
and the exact solutions are hand-written numpy closed forms, and the
reference discrete solutions come from a Newton iteration of our own on
``scipy.linalg.solve_banded``.  Nothing in this file imports dirbvp.

The discrete problem on n subintervals is

    x(k+1) - 2 x(k) + x(k-1) = (f(k/n, x(k)) + v(k/n)) / n^2,  x(0) = x(n) = 0.

Run as a script, the module computes reference solutions in a process of
its own, so that scipy's memory never counts against the benchmark
process that runs dirbvp:

    python3 perfbench/oracle.py f1:10000 f2:256 ...   # npz archive on stdout
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

PI = math.pi

# Solver allowance: a solve passes when its sup distance to the reference
# discrete solution is at most SOLVE_FRACTION * h^2 + ROUNDOFF_FLOOR.  The
# scheme is second order, so h^2 is the scale of its discretization error;
# the floor covers the roundoff by which two correct solvers disagree at
# N = 10^5 (about 2e-12 measured).
SOLVE_FRACTION = 0.01
ROUNDOFF_FLOOR = 1e-11

# Relative band within which a sampled condition is too close to call, so
# that the tree-walking evaluator and these closed forms may disagree.
BOX_BAND = 1e-12
BOX_SAMPLES_T = 201
BOX_SAMPLES_X = 2001
V_SAMPLES = 1001

# The stopping rule dirbvp documents: ||r||_2 <= tol * (1 + sup|v| sqrt(n) / n^2).
DIRBVP_TOL = 1e-10


def _f1(t, x):
    return (t + np.sin(x)) / (2.0 * x * x + 4.0)


def _f1_x(t, x):
    d = 2.0 * x * x + 4.0
    return (np.cos(x) * d - (t + np.sin(x)) * 4.0 * x) / (d * d)


def _f3(t, x):
    return (x**3 + x**2 - x) / (2.0 * x * x + 5.0) + t**3 - np.sin(t)


def _f3_x(t, x):
    d = 2.0 * x * x + 5.0
    return ((3.0 * x * x + 2.0 * x - 1.0) * d - (x**3 + x**2 - x) * 4.0 * x) / (d * d)


def _one(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _zero2(t, x):
    return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)))


@dataclass(frozen=True)
class Problem:
    """Closed forms of one corpus problem.

    ``x4_sup`` bounds |x_star''''| on [0, 1] for the truncation-error
    constant; ``source`` holds the expressions the config file must
    declare for these closed forms to describe it.
    """

    name: str
    f: Callable
    fx: Callable
    v: Callable
    source: dict
    x_star: Callable | None = None
    x4_sup: float | None = None

    def truncation_constant(self, fx_lower: float) -> float:
        """C with max|x_N - x_star| <= C h^2, from the truncation error.

        The local error is h^2/12 max|x''''|; the discrete operator
        -D2 + f_x with f_x >= L > -8 has sup-norm inverse at most
        1 / (8 - max(0, -L)) on the unit interval.
        """
        if self.x4_sup is None:
            raise ValueError(f"{self.name} has no exact solution")
        return self.x4_sup / 12.0 / (8.0 - max(0.0, -fx_lower))


def _f1_sin_v(t):
    s = np.sin(PI * t)
    return -PI * PI * s - _f1(t, s)


PROBLEMS: dict[str, Problem] = {
    p.name: p
    for p in (
        Problem(
            "quadratic",
            f=_zero2,
            fx=_zero2,
            v=lambda t: 2.0 * _one(t),
            source={"f": "0", "x_star": "t^2 - t"},
            x_star=lambda t: t * t - t,
            x4_sup=0.0,
        ),
        Problem(
            "zero",
            f=lambda t, x: np.sin(x) / 4.0 + 0.0 * t,
            fx=lambda t, x: np.cos(x) / 4.0 + 0.0 * t,
            v=lambda t: 0.0 * _one(t),
            source={"f": "sin(x)/4", "x_star": "0"},
            x_star=lambda t: 0.0 * _one(t),
            x4_sup=0.0,
        ),
        Problem("f1", f=_f1, fx=_f1_x, v=_one, source={"f": "(t + sin(x))/(2*x^2 + 4)", "v": "1"}),
        Problem(
            "f1_sin",
            f=_f1,
            fx=_f1_x,
            v=_f1_sin_v,
            source={"f": "(t + sin(x))/(2*x^2 + 4)", "x_star": "sin(pi*t)"},
            x_star=lambda t: np.sin(PI * t),
            x4_sup=PI**4,
        ),
        Problem(
            "f2",
            f=lambda t, x: x * np.exp(t - PI) - np.arctan(x) + np.exp(t),
            fx=lambda t, x: np.exp(t - PI) - 1.0 / (1.0 + x * x),
            v=_one,
            source={"f": "x*exp(t - pi) - atan(x) + exp(t)", "v": "1"},
        ),
        Problem(
            "f3",
            f=_f3,
            fx=_f3_x,
            v=_one,
            source={"f": "(x^3 + x^2 - x)/(2*x^2 + 5) + t^3 - sin(t)", "v": "1"},
        ),
    )
}


def solve_tolerance(n: int) -> float:
    """Largest sup distance to the reference that a correct solve may have."""
    return SOLVE_FRACTION / n**2 + ROUNDOFF_FLOOR


def interior_nodes(n: int) -> np.ndarray:
    return np.arange(1, n) / n


def residual(p: Problem, values: np.ndarray) -> np.ndarray:
    """Defect of the discrete equation at the interior nodes of ``values``."""
    n = values.size - 1
    t = interior_nodes(n)
    x = values[1:-1]
    return values[2:] - 2.0 * x + values[:-2] - (p.f(t, x) + p.v(t)) / n**2


def stop_threshold(p: Problem, n: int) -> float:
    """Residual norm below which dirbvp's documented rule stops iterating."""
    v_sup = float(np.max(np.abs(p.v(interior_nodes(n)))))
    return DIRBVP_TOL * (1.0 + v_sup * math.sqrt(n) / n**2)


def apriori_bound(p: Problem, A: float, B: float) -> float:
    """The paper's bound M = (sup|v| + B) / (1 - A) on every discrete solution."""
    v_sup = float(np.max(np.abs(p.v(np.linspace(0.0, 1.0, V_SAMPLES)))))
    return (v_sup + B) / (1.0 - A)


def reference_solution(p: Problem, n: int, max_iter: int = 60) -> np.ndarray:
    """The discrete solution on n subintervals, Newton run to the roundoff floor.

    Iterates from zero until the Newton step stops shrinking (it is at
    roundoff) or vanishes, so the result is as close to the exact
    discrete solution as float64 allows.
    """
    from scipy.linalg import solve_banded

    t = interior_nodes(n)
    x = np.zeros(n + 1)
    bands = np.ones((3, n - 1))
    previous = math.inf
    for _ in range(max_iter):
        bands[1] = -2.0 - p.fx(t, x[1:-1]) / n**2
        step = solve_banded((1, 1), bands, -residual(p, x))
        size = float(np.max(np.abs(step)))
        x[1:-1] += step
        if size <= 1e-15 * (1.0 + float(np.max(np.abs(x)))):
            return x
        if size < 1e-9 and size > 0.5 * previous:
            return x
        previous = size
    raise RuntimeError(f"reference Newton for {p.name} at n={n} did not converge")


@dataclass(frozen=True)
class BoxCount:
    """Violations of one sampled condition: ``strict`` are clear-cut,
    ``loose`` also counts points within the roundoff band."""

    strict: int
    loose: int


def box_grids(x_range: float):
    t = np.linspace(0.0, 1.0, BOX_SAMPLES_T)
    x = np.linspace(-x_range, x_range, BOX_SAMPLES_X)
    return t, x


def growth_values(p: Problem, A: float, B: float, t, x):
    """(|f(t,x)|, A|x| + B): the growth condition holds where lhs <= rhs."""
    return np.abs(p.f(t, x)), A * np.abs(x) + B + 0.0 * t


def box_counts(p: Problem, A: float, B: float, fx_lower: float, x_range: float):
    """Count growth and f_x violations on the (201 x 2001) sample box."""
    t, x = box_grids(x_range)
    lhs, rhs = growth_values(p, A, B, t[:, None], x[None, :])
    growth = _count(lhs - rhs, np.abs(lhs) + np.abs(rhs))
    fx = p.fx(t[:, None], x[None, :]) + 0.0 * t[:, None]
    fx_low = _count(fx_lower - fx, np.abs(fx) + abs(fx_lower))
    return growth, fx_low


def _count(margin, scale) -> BoxCount:
    band = BOX_BAND * scale
    return BoxCount(strict=int(np.count_nonzero(margin > band)),
                    loose=int(np.count_nonzero(margin > -band)))


def _main(argv) -> int:
    arrays = {}
    for item in argv:
        name, _, n = item.partition(":")
        arrays[item] = reference_solution(PROBLEMS[name], int(n))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    sys.stdout.buffer.write(buffer.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
