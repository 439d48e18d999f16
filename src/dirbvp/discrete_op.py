"""The nonlinear difference operator, its tridiagonal linearization, and
the quadratic functional used as an independent oracle for the linear solve.

For a grid function x the operator value at an interior node k is

    (D x)(k) = x(k+1) - 2 x(k) + x(k-1) - f(k/N, x(k)) / N^2

and the discrete problem asks D x = v(./N) / N^2 at every interior node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import evaluate
from .grid import GridFunction, forward_difference
from .problem import ProblemSpec

__all__ = [
    "Tridiagonal",
    "Residual",
    "SingularJacobianError",
    "residual",
    "jacobian",
    "solve_tridiagonal",
    "linearized_solve",
    "phi_N",
]

_PIVOT_REL_TOL = 1e-12


class SingularJacobianError(RuntimeError):
    """Raised when elimination meets a vanishing pivot.

    With f_x > -1 the (negated) Jacobian is symmetric positive definite,
    so pivots stay positive; a near-zero pivot signals a genuine
    derivative-bound violation rather than roundoff.
    """


@dataclass(frozen=True)
class Tridiagonal:
    """The matrix tridiag(1, diag, 1) of order diag.size.

    Unit off-diagonals are all the discrete operator's Jacobian has, so
    only the diagonal is stored.
    """

    diag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError(f"diag must be a non-empty vector, got shape {diag.shape}")
        if not np.isfinite(diag).all():
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "diag", diag)

    @property
    def order(self) -> int:
        return self.diag.size

    def matvec(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        if h.shape != (self.order,):
            raise ValueError(f"expected vector of length {self.order}, got {h.shape}")
        out = self.diag * h
        out[:-1] += h[1:]
        out[1:] += h[:-1]
        return out


@dataclass(frozen=True)
class Residual:
    vector: np.ndarray
    norm: float


def _interior_nodes(n: int) -> np.ndarray:
    return np.arange(1, n) / n


def residual(spec: ProblemSpec, x: GridFunction) -> Residual:
    """Defect of the discrete equation at the interior nodes.

    The vector is (D x)(k) - v(k/N)/N^2 for k = 1..N-1 and its norm is
    the plain Euclidean norm; x solves the problem iff the vector is 0.
    """
    t = _interior_nodes(x.n)
    return _residual(spec, t, evaluate(spec.v, t, 0.0), x.values)


def _residual(spec: ProblemSpec, t, v_vals, values) -> Residual:
    # ``residual`` of all N+1 grid values (zero ends), given t_k and v(t_k)
    f_vals = evaluate(spec.f, t, values[1:-1])
    second_diff = values[2:] - 2.0 * values[1:-1] + values[:-2]
    vector = second_diff - (f_vals + v_vals) / (values.size - 1) ** 2
    return Residual(vector=vector, norm=float(np.linalg.norm(vector)))


def jacobian(spec: ProblemSpec, x: GridFunction) -> Tridiagonal:
    """Derivative of the operator at x: tridiag(1, -2 - f_x(k/N, x(k))/N^2, 1)."""
    t = _interior_nodes(x.n)
    fx_vals = evaluate(spec.fx, t, x.interior)
    return Tridiagonal(diag=-2.0 - fx_vals / x.n**2)


def solve_tridiagonal(matrix: Tridiagonal, rhs) -> np.ndarray:
    """Solve matrix @ h = rhs by elimination without pivoting.

    Pivoting is unnecessary here: the negated Jacobian tridiag(-1, 2 +
    f_x/N^2, -1) is symmetric positive definite whenever f_x > -1, so
    elimination pivots stay bounded away from zero.  A pivot at or below
    1e-12 times its row scale, max(|d|, 1) (|d| at order 1), is reported
    as singular.  The loop runs on Python floats, which do the same IEEE
    operations as numpy scalars at a fraction of the cost.
    """
    rhs = np.asarray(rhs, dtype=float)
    m = matrix.order
    if rhs.shape != (m,):
        raise ValueError(f"expected right-hand side of length {m}, got {rhs.shape}")
    d = matrix.diag
    floor = 1.0 if m > 1 else 0.0
    limit = (_PIVOT_REL_TOL * np.maximum(np.abs(d), floor)).tolist()

    w = d.tolist()
    g = rhs.tolist()
    for i in range(1, m):
        pivot = w[i - 1]
        if abs(pivot) <= limit[i - 1]:
            raise SingularJacobianError(f"vanishing pivot at row {i - 1}")
        factor = 1.0 / pivot
        w[i] -= factor
        g[i] -= factor * g[i - 1]
    if abs(w[-1]) <= limit[-1]:
        raise SingularJacobianError(f"vanishing pivot at row {m - 1}")

    # back substitution overwrites g with the solution
    g[-1] /= w[-1]
    for i in range(m - 2, -1, -1):
        g[i] = (g[i] - g[i + 1]) / w[i]
    return np.array(g)


def linearized_solve(spec: ProblemSpec, x: GridFunction, a) -> GridFunction:
    """The unique h with jacobian(spec, x) @ h_interior = a and zero boundary."""
    a = np.asarray(a, dtype=float)
    if a.shape != (x.n - 1,):
        raise ValueError(f"expected {x.n - 1} interior entries, got {a.shape}")
    h = solve_tridiagonal(jacobian(spec, x), a)
    return GridFunction.from_interior(h)


def phi_N(spec: ProblemSpec, x: GridFunction, a, h: GridFunction) -> float:
    """Quadratic functional whose unique critical point is the linearized solve.

        Phi(h) = 1/2 sum |dh(k-1)|^2
               + 1/(2 N^2) sum f_x(k/N, x(k)) h(k)^2
               + sum h(k) a(k)

    It is strictly convex and coercive when f_x > -1, which is what makes
    it usable as an independent check on linearized_solve.
    """
    a = np.asarray(a, dtype=float)
    if x.n != h.n:
        raise ValueError(f"x and h live on different grids: {x.n} vs {h.n}")
    if a.shape != (x.n - 1,):
        raise ValueError(f"expected {x.n - 1} interior entries, got {a.shape}")
    t = _interior_nodes(x.n)
    fx_vals = evaluate(spec.fx, t, x.interior)
    dh = forward_difference(h)
    quad = 0.5 * np.sum(dh**2) + 0.5 / x.n**2 * np.sum(fx_vals * h.interior**2)
    return float(quad + np.sum(h.interior * a))
