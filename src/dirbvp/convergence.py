"""Manufactured solutions and grid-refinement studies.

A manufactured problem fixes the exact solution x*(t) first and builds
the forcing v = x*'' - f(t, x*) symbolically, so refinement errors can
be measured against a known answer; it is a ``ProblemSpec`` whose
``x_star`` is set.  For problems without a known solution (``x_star``
is None) a fine-grid solve stands in as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .expr import _sub, diff, evaluate, substitute
from .grid import grid_size
from .problem import ProblemSpec, as_expr, make_spec
from .solver import CONVERGED, SolverConfig, newton_solve

# Not called here; kept because the benchmark's tracer patches the name on this module.
from .expr import parse  # noqa: F401

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "StudyError",
    "manufacture",
    "run_study",
]

_REF_FACTOR = 8


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    sup_error: float
    empirical_order: float | None
    derivative_bound: float


@dataclass(frozen=True)
class ConvergenceTable:
    problem_id: str
    reference: str  # "manufactured" | "fine-grid"
    rows: tuple[ConvergenceRow, ...]

    def __post_init__(self):
        ns = [row.n for row in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("rows must have strictly increasing n")


class StudyError(RuntimeError):
    """A refinement study aborted at grid size ``n``; carries the partial table."""

    def __init__(self, message: str, partial: ConvergenceTable, n: int):
        super().__init__(message)
        self.partial = partial
        self.n = n


def manufacture(f, x_star, *, A: float, B: float, fx_lower: float) -> ProblemSpec:
    """Build a problem whose continuous solution is x_star by construction.

    x_star must be an expression in t alone, vanish at t = 0 and t = 1
    (within 1e-12), and be twice differentiable; the forcing becomes
    v = x_star'' - f(t, x_star(t)), composed symbolically by diff's rule for
    a difference, so a zero x_star'' gives v = -f(t, x_star(t)).  x_star is
    differentiated twice in t here, and f once in x when the spec derives
    its f_x, so ``abs`` in either raises ``NonDifferentiableError``.  The
    spec returned by ``make_spec`` carries x_star and checks it with the
    rest of its fields.
    """
    f, x_star = as_expr(f, "f"), as_expr(x_star, "x_star")
    x_star_dd = diff(diff(x_star, "t"), "t")
    v = _sub(x_star_dd, substitute(f, "x", x_star))
    return make_spec(f, v, A=A, B=B, fx_lower=fx_lower, x_star=x_star)


def _solve_or_abort(spec, n, cfg, rows, problem_id, reference):
    rep = newton_solve(spec, n, cfg)
    if rep.status != CONVERGED:
        partial = ConvergenceTable(problem_id, reference, tuple(rows))
        raise StudyError(f"solver failed at N={n} with status {rep.status}", partial, n)
    return rep.solution


def run_study(
    spec: ProblemSpec, ns, cfg: SolverConfig | None = None, problem_id: str = ""
) -> ConvergenceTable:
    """Solve at each grid size and tabulate sup errors against the reference.

    When ``spec.x_star`` is set the reference is the exact solution
    sampled at the shared nodes; when it is None it is a solve on a grid
    8x finer than max(ns), which every n must divide.  The empirical
    order between consecutive rows with doubled n is log2(e_n / e_2n).
    """
    ns = list(ns)
    if not ns:
        raise ValueError("ns must be nonempty")
    ns = sorted(int(grid_size(n)) for n in ns)
    if len(set(ns)) != len(ns):
        raise ValueError("grid sizes must be distinct")
    cfg = replace(cfg, initial_guess=None) if cfg is not None else SolverConfig()

    if spec.x_star is not None:
        reference = "manufactured"
    else:
        reference = "fine-grid"
        n_ref = _REF_FACTOR * max(ns)
        bad = [n for n in ns if n_ref % n]
        if bad:
            raise ValueError(f"grid sizes {bad} do not divide the reference size {n_ref}")
        ref_values = _solve_or_abort(spec, n_ref, cfg, [], problem_id, reference).values

    rows: list[ConvergenceRow] = []
    for n in ns:
        solution = _solve_or_abort(spec, n, cfg, rows, problem_id, reference)
        if spec.x_star is not None:
            exact = evaluate(spec.x_star, solution.nodes, 0.0)
        else:
            exact = ref_values[:: n_ref // n]
        sup_error = float(np.max(np.abs(exact - solution.values)))
        derivative_bound = float(n * np.max(np.abs(np.diff(solution.values))))
        order = None
        if rows and n == 2 * rows[-1].n and rows[-1].sup_error > 0.0 and sup_error > 0.0:
            order = float(np.log2(rows[-1].sup_error / sup_error))
        rows.append(ConvergenceRow(n, sup_error, order, derivative_bound))

    return ConvergenceTable(problem_id=problem_id, reference=reference, rows=tuple(rows))
