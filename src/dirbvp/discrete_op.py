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
from .grid import GridFunction, forward_difference, second_difference
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
    """Tridiagonal matrix of order m: sub/sup diagonals have length m-1."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        sub = np.asarray(self.sub, dtype=float)
        diag = np.asarray(self.diag, dtype=float)
        sup = np.asarray(self.sup, dtype=float)
        m = diag.size
        if m < 1 or sub.size != m - 1 or sup.size != m - 1:
            raise ValueError(
                f"inconsistent band lengths: sub={sub.size}, diag={m}, sup={sup.size}"
            )
        for band in (sub, diag, sup):
            if not np.isfinite(band).all():
                raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sup", sup)

    @property
    def order(self) -> int:
        return self.diag.size

    def matvec(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        if h.shape != (self.order,):
            raise ValueError(f"expected vector of length {self.order}, got {h.shape}")
        out = self.diag * h
        out[:-1] += self.sup * h[1:]
        out[1:] += self.sub * h[:-1]
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
    f_vals = evaluate(spec.f, t, x.interior)
    v_vals = evaluate(spec.v, t, 0.0)
    vector = second_difference(x) - (f_vals + v_vals) / x.n**2
    return Residual(vector=vector, norm=float(np.linalg.norm(vector)))


def jacobian(spec: ProblemSpec, x: GridFunction) -> Tridiagonal:
    """Derivative of the operator at x: tridiag(1, -2 - f_x(k/N, x(k))/N^2, 1)."""
    t = _interior_nodes(x.n)
    fx_vals = evaluate(spec.fx, t, x.interior)
    m = x.n - 1
    return Tridiagonal(
        sub=np.ones(m - 1),
        diag=-2.0 - fx_vals / x.n**2,
        sup=np.ones(m - 1),
    )


def solve_tridiagonal(matrix: Tridiagonal, rhs) -> np.ndarray:
    """Solve matrix @ h = rhs by elimination without pivoting.

    Pivoting is unnecessary here: the negated Jacobian tridiag(-1, 2 +
    f_x/N^2, -1) is symmetric positive definite whenever f_x > -1, so
    elimination pivots stay bounded away from zero.  A pivot below
    1e-12 times the row scale is reported as singular.
    """
    rhs = np.asarray(rhs, dtype=float)
    m = matrix.order
    if rhs.shape != (m,):
        raise ValueError(f"expected right-hand side of length {m}, got {rhs.shape}")
    scale = np.abs(matrix.diag).copy()
    if m > 1:
        scale[:-1] = np.maximum(scale[:-1], np.abs(matrix.sup))
        scale[1:] = np.maximum(scale[1:], np.abs(matrix.sub))

    w = matrix.diag.copy()
    g = rhs.copy()
    sub, sup = matrix.sub, matrix.sup
    for i in range(1, m):
        pivot = w[i - 1]
        if abs(pivot) <= _PIVOT_REL_TOL * scale[i - 1]:
            raise SingularJacobianError(f"vanishing pivot at row {i - 1}")
        factor = sub[i - 1] / pivot
        w[i] -= factor * sup[i - 1]
        g[i] -= factor * g[i - 1]
    if abs(w[-1]) <= _PIVOT_REL_TOL * scale[-1]:
        raise SingularJacobianError(f"vanishing pivot at row {m - 1}")

    h = np.empty(m)
    h[-1] = g[-1] / w[-1]
    for i in range(m - 2, -1, -1):
        h[i] = (g[i] - sup[i] * h[i + 1]) / w[i]
    return h


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
