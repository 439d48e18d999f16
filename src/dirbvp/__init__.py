"""Solver library for nonlinear Dirichlet difference equations.

The discrete problem on n subintervals of [0, 1] is

    x(k+1) - 2 x(k) + x(k-1) = (f(k/n, x(k)) + v(k/n)) / n^2,
    x(0) = x(n) = 0,

solved by damped Newton on its tridiagonal linearization.  The package
also checks the growth and derivative conditions under which the
problem is uniquely solvable, and runs grid-refinement studies against
manufactured or fine-grid reference solutions.
"""

from .convergence import (
    ConvergenceRow,
    ConvergenceTable,
    StudyError,
    manufacture,
    run_study,
)
from .discrete_op import (
    Residual,
    SingularJacobianError,
    Tridiagonal,
    jacobian,
    phi_N,
    residual,
    solve_tridiagonal,
)
from .expr import (
    EvalError,
    Expr,
    ExprError,
    NestingError,
    NonDifferentiableError,
    ParseError,
    diff,
    evaluate,
    format_expr,
    parse,
    substitute,
)
from .grid import (
    GridFunction,
    GridNorms,
    forward_difference,
    norms,
    random_element,
    second_difference,
)
from .problem import (
    ConditionReport,
    ProblemSpec,
    TheoremClassification,
    apriori_bound,
    check_fx_lower,
    check_growth,
    classify,
    make_spec,
    sample_range,
)
from .solver import (
    SolveReport,
    SolverConfig,
    SolverError,
    merit,
    merit_gradient,
    multi_start_uniqueness,
    newton_solve,
)

__version__ = "0.1.0"
