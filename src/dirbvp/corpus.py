"""Problem declarations, their one builder, and the built-in corpus.

A config file and a corpus entry declare a problem the same way, as a
``ProblemConfig``, built to a ``ProblemSpec`` that keeps any x_star.
The corpus constants were pinned by dense numerical scans over
[0,1] x [-60, 60] with comfortable margins; the condition checkers
re-falsify them in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convergence import manufacture
from .expr import ExprError, NestingError, ParseError
from .problem import ProblemSpec, as_expr, make_spec
from .solver import SolverConfig

__all__ = ["ConfigError", "ProblemConfig", "build_problem", "ENTRIES", "names", "build"]


class ConfigError(ValueError):
    """A problem configuration is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class ProblemConfig:
    name: str
    f: str
    A: float
    B: float
    fx_lower: float
    v: str | None = None
    x_star: str | None = None
    n: int | None = None
    ns: tuple[int, ...] | None = None
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if self.v is None and self.x_star is None:
            raise ConfigError("missing field: v (or x_star, from which v is derived)")
        if self.v is not None and self.x_star is not None:
            raise ConfigError("give either v or x_star, not both: v is derived from x_star")
        if self.solver.initial_guess is not None:
            raise ConfigError("a problem config takes no initial guess; pass it to newton_solve")


def build_problem(config: ProblemConfig) -> ProblemSpec:
    """Turn a config into a ProblemSpec, deriving v from x_star when it is given.

    Every failure to build, a non-differentiable f or x_star included, is
    a ``ConfigError``, and a syntax error names the field it is in; an
    expression nested too deeply raises ``NestingError`` as it is.
    """
    trees = {}
    for key in ("f", "v", "x_star"):
        source = getattr(config, key)
        if source is not None:
            try:
                trees[key] = as_expr(source, key)
            except ParseError as exc:
                raise ConfigError(f"field {key!r}: {exc}")
    constants = dict(A=config.A, B=config.B, fx_lower=config.fx_lower)
    try:
        if config.x_star is not None:
            return manufacture(trees["f"], trees["x_star"], **constants)
        return make_spec(trees["f"], trees["v"], **constants)
    except NestingError:
        raise  # no one field's fault, so as the walk raised it
    except (ExprError, ValueError) as exc:
        raise ConfigError(f"config {config.name!r}: {exc}")


ENTRIES: dict[str, ProblemConfig] = {
    entry.name: entry
    for entry in (
        # exact solution t^2 - t; the discretization is exact on quadratics
        ProblemConfig(name="quadratic", f="0", x_star="t^2 - t", A=0.1, B=0.1, fx_lower=0.0),
        # f(t,0) = 0 and zero forcing, so the solution is identically zero
        ProblemConfig(name="zero", f="sin(x)/4", x_star="0", A=0.25, B=0.01, fx_lower=-0.25),
        ProblemConfig(
            name="f1", f="(t + sin(x))/(2*x^2 + 4)", v="1", A=0.1, B=0.5, fx_lower=-0.25
        ),
        ProblemConfig(
            name="f1_sin",
            f="(t + sin(x))/(2*x^2 + 4)",
            x_star="sin(pi*t)",
            A=0.1,
            B=0.5,
            fx_lower=-0.25,
        ),
        ProblemConfig(
            name="f2",
            f="x*exp(t - pi) - atan(x) + exp(t)",
            v="1",
            A=0.12,
            B=4.3,
            # the infimum of f_x, attained at t=0, x=0
            fx_lower=float(np.exp(-np.pi) - 1.0),
        ),
        ProblemConfig(
            name="f3",
            f="(x^3 + x^2 - x)/(2*x^2 + 5) + t^3 - sin(t)",
            v="1",
            A=0.6,
            B=0.5,
            fx_lower=-0.3,
        ),
    )
}


def names() -> list[str]:
    return list(ENTRIES)


def build(name: str) -> ProblemSpec:
    """Instantiate a corpus problem; manufactured entries carry their x_star."""
    try:
        entry = ENTRIES[name]
    except KeyError:
        raise KeyError(f"unknown corpus problem {name!r}; known: {', '.join(ENTRIES)}")
    return build_problem(entry)
