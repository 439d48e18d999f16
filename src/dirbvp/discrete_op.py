"""The nonlinear difference operator, its tridiagonal linearization, and
the quadratic functional used as an independent oracle for the linear solve.

For a grid function x the operator value at an interior node k is

    (D x)(k) = x(k+1) - 2 x(k) + x(k-1) - f(k/N, x(k)) / N^2

and the discrete problem asks D x = v(./N) / N^2 at every interior node.
"""

from __future__ import annotations

import math
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
    "phi_N",
]

_PIVOT_REL_TOL = 1e-12
# Thomas elimination up to this order, cyclic reduction above it (the two
# cross near order 950 on a 2-core x86-64 with numpy 2.4; small solves stay
# bitwise those of Thomas)
_THOMAS_MAX_ORDER = 2048


class SingularJacobianError(RuntimeError):
    """Raised when elimination meets a vanishing pivot, or cyclic reduction
    a vanishing pivot or a non-finite result.

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

    @classmethod
    def _adopt(cls, diag: np.ndarray) -> "Tridiagonal":
        # Takes ``diag`` as it is, with no copy and no check: a non-empty
        # vector of finite floats
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "diag", diag)
        return matrix

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


def residual(spec: ProblemSpec, x: GridFunction) -> Residual:
    """Defect of the discrete equation at the interior nodes.

    The vector is (D x)(k) - v(k/N)/N^2 for k = 1..N-1 and its norm is
    the plain Euclidean norm; x solves the problem iff the vector is 0.
    The nodes and v there are the spec's, kept per grid size and shared
    with ``jacobian``, ``phi_N`` and ``newton_solve``.
    """
    t, v_vals, _ = spec._grid(x.n)
    vector, norm = _residual(evaluate(spec.f, t, x.interior), v_vals, x.values)
    return Residual(vector=vector, norm=norm)


def _residual(f_vals, v_vals, values) -> tuple[np.ndarray, float]:
    # ``residual`` of all N+1 grid values (zero ends) as (vector, norm), given
    # f and v at the interior nodes.  The norm sums the squares, written over
    # second_diff, by numpy's pairwise reduction: BLAS ddot's last bit depends
    # on its thread count
    second_diff = values[2:] - 2.0 * values[1:-1] + values[:-2]
    vector = second_diff - (f_vals + v_vals) / (values.size - 1) ** 2
    return vector, math.sqrt(np.add.reduce(np.multiply(vector, vector, out=second_diff)))


def jacobian(spec: ProblemSpec, x: GridFunction) -> Tridiagonal:
    """Derivative of the operator at x: tridiag(1, -2 - f_x(k/N, x(k))/N^2, 1).

    Its nodes are the spec's, as ``residual``'s are, so it raises EvalError
    where v fails on them too.
    """
    return _jacobian(evaluate(spec.fx, spec._grid(x.n)[0], x.interior))


def _jacobian(fx_vals) -> Tridiagonal:
    # ``jacobian`` given f_x at the N-1 interior nodes, an array of finite
    # floats as evaluate and Newton's trapped steps return it.  The diagonal
    # is then finite too (|f_x|/N^2 is at most a quarter of the largest
    # double), so Tridiagonal's checks are not run again.
    return Tridiagonal._adopt(-2.0 - fx_vals / (fx_vals.size + 1) ** 2)


def solve_tridiagonal(matrix: Tridiagonal, rhs) -> np.ndarray:
    """Solve matrix @ h = rhs by elimination without pivoting.

    Pivoting is unnecessary here: the negated Jacobian tridiag(-1, 2 +
    f_x/N^2, -1) is symmetric positive definite whenever f_x > -1, so
    elimination pivots stay bounded away from zero.

    Orders up to 2048 run Thomas elimination, a loop on Python floats,
    which do the same IEEE operations as numpy scalars at a fraction of
    the cost.  A pivot at or below 1e-12 times its row scale, max(|d|, 1)
    (|d| at order 1), is reported as singular.  The rule is applied after
    the sweep, to all pivots at once, and names the first row that fails.

    Larger orders run odd-even cyclic reduction on numpy arrays, which
    does the same elimination in another order, so its results differ
    from Thomas's in the last bits (more so as the condition number,
    about N^2 for the Jacobian, grows).  Each row's pivot is its diagonal
    when the row is eliminated; it is reported as singular when at or
    below 1e-12 times the scale, max(|d|, |couplings|), of the row it was
    reduced from (max(|d|, 1) for an original row).

    On either route a non-finite result, from overflow past pivots that
    pass the rule, is reported as singular too, and the error names the
    original row.
    """
    rhs = np.asarray(rhs, dtype=float)
    m = matrix.order
    if rhs.shape != (m,):
        raise ValueError(f"expected right-hand side of length {m}, got {rhs.shape}")
    if m > _THOMAS_MAX_ORDER:
        return _cyclic_reduction(matrix.diag, rhs)
    d = matrix.diag
    w = d.tolist()
    g = rhs.tolist()
    # The sweep keeps the running pivot and right-hand side in locals and
    # tests no row.  A tiny pivot gives a huge or infinite factor, which
    # Python floats carry on with; an exact zero stops it, and no row after
    # it is read.
    pivot, r = w[0], g[0]
    try:
        for i in range(1, m):
            factor = 1.0 / pivot
            w[i] = pivot = w[i] - factor
            g[i] = r = g[i] - factor * r
    except ZeroDivisionError:
        pass
    # The rule on all pivots at once: each pivot up to the first that fails
    # is the one a test inside the loop would see, so the same row is named.
    scale = np.maximum(np.abs(d), 1.0 if m > 1 else 0.0)
    ok = np.abs(np.fromiter(w, float, m)) > _PIVOT_REL_TOL * scale
    if np.count_nonzero(ok) < m:
        raise SingularJacobianError(f"vanishing pivot at row {ok.argmin()}")

    # back substitution overwrites g with the solution; the pivots are finite
    # and nonzero, so a non-finite entry makes every entry before it
    # non-finite, and row 0 is finite only if the whole solution is
    g[-1] /= w[-1]
    for i in range(m - 2, -1, -1):
        g[i] = (g[i] - g[i + 1]) / w[i]
    if not math.isfinite(g[0]):
        raise SingularJacobianError("non-finite solution at row 0")
    return np.fromiter(g, float, m)


def _cyclic_reduction(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row j of level l is original row (j + 1)·2^l - 1 and couples to its
    # neighbours through the symmetric off-diagonal e (ones at level 0).  Each
    # level eliminates its even rows into its odd ones, down to one row.
    e = np.ones(d.size - 1)
    scale = np.maximum(np.abs(d), 1.0)
    levels = []
    with np.errstate(all="ignore"):  # overflow and NaN are caught by the checks
        while True:
            # ``not >`` also catches a NaN pivot
            bad = np.flatnonzero(~(np.abs(d[0::2]) > _PIVOT_REL_TOL * scale[0::2]))
            if bad.size:
                row = (2 * bad[0] + 1) * 2 ** len(levels) - 1
                raise SingularJacobianError(f"vanishing pivot at row {row}")
            if d.size == 1:
                break
            de, be, dk = d[0::2], b[0::2], d[1::2]
            el, er = e[0::2], e[1::2]  # couplings of the odd rows, left and right
            k, r = el.size, er.size
            ql, qr = el / de[:k], er / de[1 : r + 1]
            d = dk - ql * el
            d[:r] -= qr * er
            b = b[1::2] - ql * be[:k]
            b[:r] -= qr * be[1 : r + 1]
            scale = np.maximum(np.abs(dk), np.abs(el))
            np.maximum(scale[:r], np.abs(er), out=scale[:r])
            e = -qr[: k - 1] * el[1:]
            levels.append((de, be, el, er))

        x = b / d
        for de, be, el, er in reversed(levels):
            xe = be.copy()
            xe[: x.size] -= el * x
            xe[1 : er.size + 1] -= er * x[: er.size]
            xe /= de
            level_x = np.empty(de.size + x.size)
            level_x[0::2], level_x[1::2] = xe, x
            x = level_x
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise SingularJacobianError(f"non-finite solution at row {bad[0]}")
    return x


def phi_N(spec: ProblemSpec, x: GridFunction, a, h: GridFunction) -> float:
    """Quadratic functional whose unique critical point is the linearized solve.

        Phi(h) = 1/2 sum |dh(k-1)|^2
               + 1/(2 N^2) sum f_x(k/N, x(k)) h(k)^2
               + sum h(k) a(k)

    It is strictly convex and coercive when f_x > -1, which is what makes
    it usable as an independent check on solve_tridiagonal: the critical
    point has zero ends and interior solve_tridiagonal(jacobian(spec, x), a).
    """
    a = np.asarray(a, dtype=float)
    if x.n != h.n:
        raise ValueError(f"x and h live on different grids: {x.n} vs {h.n}")
    if a.shape != (x.n - 1,):
        raise ValueError(f"expected {x.n - 1} interior entries, got {a.shape}")
    fx_vals = evaluate(spec.fx, spec._grid(x.n)[0], x.interior)
    dh = forward_difference(h)
    quad = 0.5 * np.sum(dh**2) + 0.5 / x.n**2 * np.sum(fx_vals * h.interior**2)
    return float(quad + np.sum(h.interior * a))
