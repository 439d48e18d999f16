"""Zero-boundary grid functions, difference operators, and their norms.

A grid function stores samples x(0), ..., x(N) on the uniform grid
t_k = k/N with the Dirichlet constraint x(0) = x(N) = 0.  Everything in
this module is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "is_integer",
    "grid_size",
    "GridFunction",
    "GridNorms",
    "forward_difference",
    "second_difference",
    "norms",
    "random_element",
]


def is_integer(value) -> bool:
    """True for an integer that is not a bool; a float never counts, even 20.0."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def grid_size(n):
    """Return n if it is a grid size, an integer of at least 2; else raise ValueError."""
    if not is_integer(n):
        raise ValueError(f"grid size must be an integer, got {n!r}")
    if n < 2:
        raise ValueError("grid size must be at least 2")
    return n


@dataclass(frozen=True)
class GridFunction:
    """Samples on k/N for k = 0..n, vanishing at both endpoints.

    ``values`` has length n + 1; entry k is the value at node t = k/n.
    The boundary entries must be exactly zero and every entry finite.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        grid_size(self.n)
        values = np.asarray(self.values, dtype=float).copy()
        if values.shape != (self.n + 1,):
            raise ValueError(
                f"expected {self.n + 1} values for n={self.n}, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("grid values must all be finite")
        if values[0] != 0.0 or values[-1] != 0.0:
            raise ValueError("boundary values x(0) and x(N) must be exactly zero")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def _adopt(cls, n: int, values: np.ndarray) -> "GridFunction":
        # Takes ``values`` as it is, with no copy and no check, and makes it
        # read-only: the caller's own float array of n + 1 finite entries
        # with zero ends, which no one else holds, for a grid size n.
        values.flags.writeable = False
        x = object.__new__(cls)
        object.__setattr__(x, "n", n)
        object.__setattr__(x, "values", values)
        return x

    @classmethod
    def zeros(cls, n: int) -> "GridFunction":
        return cls(n, np.zeros(grid_size(n) + 1))

    @classmethod
    def from_interior(cls, interior) -> "GridFunction":
        """Build a grid function from its n-1 interior values."""
        interior = np.asarray(interior, dtype=float)
        if interior.ndim != 1 or interior.size < 1:
            raise ValueError("interior must be a 1-d array with at least one entry")
        values = np.zeros(interior.size + 2)
        values[1:-1] = interior
        return cls(interior.size + 1, values)

    @property
    def interior(self) -> np.ndarray:
        """Values at the interior nodes k = 1..n-1."""
        return self.values[1:-1]

    @property
    def nodes(self) -> np.ndarray:
        """Grid points k/n for k = 0..n."""
        return np.arange(self.n + 1) / self.n


@dataclass(frozen=True)
class GridNorms:
    n_norm: float
    delta_norm: float
    e_norm: float
    sup_norm: float


def forward_difference(x: GridFunction) -> np.ndarray:
    """All N forward differences x(k) - x(k-1), k = 1..N."""
    return np.diff(x.values)


def second_difference(x: GridFunction) -> np.ndarray:
    """Second differences x(k+1) - 2x(k) + x(k-1) at interior k = 1..N-1."""
    v = x.values
    return v[2:] - 2.0 * v[1:-1] + v[:-2]


def norms(x: GridFunction) -> GridNorms:
    """The four norms controlling a zero-boundary grid function.

    n_norm is the Euclidean norm of the interior values, delta_norm the
    Euclidean norm of all forward differences, e_norm the Euclidean norm
    of the second differences, and sup_norm the max absolute value.  The
    sums of squares are numpy's pairwise sums, not BLAS, whose result
    depends on its thread count.
    """
    return GridNorms(
        n_norm=_euclidean(x.interior),
        delta_norm=_euclidean(forward_difference(x)),
        e_norm=_euclidean(second_difference(x)),
        sup_norm=float(np.max(np.abs(x.values))),
    )


def _euclidean(v: np.ndarray) -> float:
    return math.sqrt(np.add.reduce(v * v))


def random_element(n: int, rng: np.random.Generator, amplitude: float = 1.0) -> GridFunction:
    """Random grid function with interior values uniform in [-amplitude, amplitude].

    amplitude is a nonnegative number whose double is finite, the width of
    the range; True and False would pass as 1 and 0, and are rejected.
    """
    if isinstance(amplitude, (bool, np.bool_)) or not (
        amplitude >= 0.0 and math.isfinite(2.0 * float(amplitude))
    ):
        raise ValueError(
            f"amplitude must be nonnegative and 2*amplitude finite, got {amplitude!r}"
        )
    return GridFunction.from_interior(rng.uniform(-amplitude, amplitude, grid_size(n) - 1))
