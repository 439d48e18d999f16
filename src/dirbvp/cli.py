"""Command-line front end: problem configs in, reports and CSV tables out.

Config files are flat ``key = value`` text, one field per line, with
expression values running unquoted to the end of the line, whatever the
file's extension.  CSV output uses '.' decimals at full round-trip
precision, so identical inputs produce byte-identical files.

Exit codes: 0 success, 1 a checked condition is violated, 2 solver or
configuration failure (an expression nested too deeply and a sample box
that overflows among them), an output that cannot be written, or a grid
too large for the memory left.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .convergence import ConvergenceTable, StudyError, run_study
from .corpus import ConfigError, ProblemConfig, build_problem
from .expr import EvalError, ParseError, evaluate
from .grid import grid_size, norms, random_element
from .problem import (
    ProblemSpec,
    _interior_nodes,
    _locate_failure,
    apriori_bound,
    check_fx_lower,
    check_growth,
    classify,
)
from .solver import CONVERGED, EVAL_ERROR, SolverConfig, newton_solve

# Not called here; kept because the benchmark's tracer patches these names on this module.
from .convergence import manufacture  # noqa: F401
from .expr import parse  # noqa: F401
from .problem import make_spec  # noqa: F401

__all__ = ["ProblemConfig", "ConfigError", "load_config", "build_problem", "run", "main"]

_COMMANDS = ("check", "solve", "converge", "norms")

_DEFAULT_NORMS_NS = (2, 4, 8, 16, 32, 64)
_NORMS_SAMPLES = 5
# rows of the solve CSV formatted into one string per write
_CSV_BLOCK_ROWS = 4096


def _parse_flat(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        value = value.strip()
        if key in fields:
            raise ConfigError(f"line {lineno}: duplicate field {key!r}")
        fields[key] = value
    return fields


def _parse_ns(value: str) -> tuple[int, ...]:
    parts = [part.strip() for part in value.split(",")] if value.strip() else []
    if "" in parts:
        raise ValueError(f"empty entry in the list {value!r}")
    try:
        ns = tuple(map(int, parts))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {value!r}")
    if not ns:
        raise ValueError("list is empty")
    return tuple(map(grid_size, ns))


def _convert(label: str, convert, value):
    """``convert(value)``, with its TypeError or ValueError as a ConfigError naming ``label``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}")


def load_config(path) -> ProblemConfig:
    """Read a problem configuration file and validate its fields.

    Expressions stay source strings: their syntax and semantic errors,
    such as a v that uses x, surface when ``run`` builds the problem.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")

    fields = _parse_flat(text)
    known = {"name", "f", "v", "A", "B", "fx_lower", "x_star", "N", "Ns", "tol", "max_iter"}
    unknown = set(fields) - known
    if unknown:
        raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}")

    def take(key, convert, default=None):
        return _convert(f"field {key!r}", convert, fields[key]) if key in fields else default

    for key in ("f", "A", "B", "fx_lower"):
        if key not in fields:
            raise ConfigError(f"missing field: {key}")

    solver = SolverConfig()
    for key, convert in (("tol", float), ("max_iter", int)):
        solver = take(key, lambda value: replace(solver, **{key: convert(value)}), solver)
    config = ProblemConfig(
        name=fields.get("name", path.stem),
        f=fields["f"],
        v=fields.get("v"),
        x_star=fields.get("x_star"),
        A=take("A", float),
        B=take("B", float),
        fx_lower=take("fx_lower", float),
        n=take("N", lambda value: grid_size(int(value))),
        ns=take("Ns", _parse_ns),
        solver=solver,
    )
    return config


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit(chunks, output) -> None:
    """Write the strings in ``chunks`` to the output file, or to stdout without one."""
    if output is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(output, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {output}: {exc}")


def _report_dict(report) -> dict:
    return {
        "condition": report.condition,
        "verdict": report.verdict,
        "violation_count": report.violation_count,
        "samples_t": report.samples_t,
        "samples_x": report.samples_x,
        "witnesses": [
            {"t": t, "x": x, "lhs": lhs, "rhs": rhs} for t, x, lhs, rhs in report.witnesses
        ],
    }


# the head of the message that names the first t where v fails
_V_FAILS = "v cannot be evaluated at t={t}"


def _evaluate_v(spec: ProblemSpec, t_grid: np.ndarray) -> np.ndarray:
    """v on ``t_grid``; where it fails, an EvalError that names the first failing t."""
    try:
        return evaluate(spec.v, t_grid, 0.0)
    except EvalError as cause:
        _locate_failure(spec.v, t_grid, np.zeros(1), cause, _V_FAILS)


def _report_failing_v(spec: ProblemSpec, n: int) -> None:
    """Write an ``error:`` line to stderr if v fails on the interior nodes of n subintervals."""
    try:
        # kept by the solve, so this evaluates v only where it failed there
        spec._grid(n)
    except EvalError as cause:
        try:
            _locate_failure(spec.v, _interior_nodes(n), np.zeros(1), cause, _V_FAILS)
        except EvalError as exc:
            sys.stderr.write(f"error: {exc}\n")


def _sample_range(spec: ProblemSpec) -> float:
    """The half-width in x of the box that ``check`` samples."""
    v_sup = float(np.max(np.abs(_evaluate_v(spec, np.linspace(0.0, 1.0, 1001)))))
    # Solutions live in [-M, M]; sample twice that box when M exists.
    if spec.declared_A < 1.0:
        return 2.0 * apriori_bound(spec, v_sup)
    return 10.0


def _run_check(config: ProblemConfig, spec: ProblemSpec, output) -> int:
    x_range = _sample_range(spec)
    growth = check_growth(spec, x_range)
    fx_low = check_fx_lower(spec, x_range)
    flags = classify(spec)

    lines = [f"problem: {config.name}", f"sample box: [0,1] x [{-x_range:g}, {x_range:g}]"]
    for report in (growth, fx_low):
        lines.append(f"{report.condition}: {report.verdict} "
                     f"({report.samples_t} x {report.samples_x} samples)")
        for t, x, lhs, rhs in report.witnesses:
            lines.append(f"  witness t={t:.6g} x={x:.6g} lhs={lhs:.6g} rhs={rhs:.6g}")
        if report.violation_count > len(report.witnesses):
            lines.append(f"  ... {report.violation_count} violations in total")
    lines.append(f"continuous theorem applies: {flags.continuous_theorem_applies}")
    lines.append(f"discrete theorem applies: {flags.discrete_theorem_applies}")
    sys.stdout.write("\n".join(lines) + "\n")

    machine = json.dumps(
        {
            "problem": config.name,
            "x_range": x_range,
            "growth": _report_dict(growth),
            "fx_lower": _report_dict(fx_low),
            "classification": {
                "continuous_theorem_applies": flags.continuous_theorem_applies,
                "discrete_theorem_applies": flags.discrete_theorem_applies,
            },
        },
        indent=2,
    )
    _emit([machine, "\n"], output)

    return 1 if (growth.violated or fx_low.violated) else 0


def _run_solve(config: ProblemConfig, spec: ProblemSpec, output) -> int:
    if config.n is None:
        raise ConfigError("solve requires N (config field N or --n)")
    report = newton_solve(spec, config.n, config.solver)

    _emit(_solution_csv(report.solution), output)

    sys.stdout.write(
        f"status: {report.status}\n"
        f"iterations: {report.iterations}\n"
        f"residual_norm: {report.residual_norm:.6e}\n"
        f"sup_norm: {float(np.max(np.abs(report.solution.values))):.6e}\n"
    )
    if report.status == CONVERGED:
        return 0
    if report.status == EVAL_ERROR:
        _report_failing_v(spec, config.n)
    return 2


def _solution_csv(x):
    """The ``k,t,x`` CSV of ``x``, one string per block of rows."""
    # imported on first use: the other commands need not load the kernel
    from ._g17 import csv_rows

    yield "k,t,x\n"
    nodes, values = x.nodes, x.values
    for lo in range(0, x.n + 1, _CSV_BLOCK_ROWS):
        hi = lo + _CSV_BLOCK_ROWS
        yield csv_rows(lo, nodes[lo:hi], values[lo:hi])


def _table_csv(table: ConvergenceTable) -> str:
    rows = ["N,sup_error,empirical_order,derivative_bound"]
    for row in table.rows:
        order = "" if row.empirical_order is None else _fmt(row.empirical_order)
        rows.append(f"{row.n},{_fmt(row.sup_error)},{order},{_fmt(row.derivative_bound)}")
    return "\n".join(rows) + "\n"


def _run_converge(config: ProblemConfig, spec: ProblemSpec, output) -> int:
    if not config.ns:
        raise ConfigError("converge requires Ns (config field Ns or --ns)")
    try:
        table = run_study(spec, config.ns, config.solver, problem_id=config.name)
    except StudyError as exc:
        _emit([_table_csv(exc.partial)], output)
        sys.stderr.write(f"error: {exc}\n")
        _report_failing_v(spec, exc.n)
        return 2
    _emit([_table_csv(table)], output)
    return 0


def _run_norms(output, seed: int, n: int | None) -> int:
    rng = _convert("option '--seed'", np.random.default_rng, seed)
    ns = (n,) if n is not None else _DEFAULT_NORMS_NS
    rows = [
        "N,sample,quarter_e_norm,half_delta_norm,n_norm,sqrtN_sup_norm,N_delta_norm,N2_e_norm,chain_holds"
    ]
    for size in ns:
        for sample in range(_NORMS_SAMPLES):
            m = norms(random_element(size, rng))
            chain = (
                0.25 * m.e_norm,
                0.5 * m.delta_norm,
                m.n_norm,
                np.sqrt(size) * m.sup_norm,
                size * m.delta_norm,
                size**2 * m.e_norm,
            )
            holds = all(a <= b + 1e-12 for a, b in zip(chain, chain[1:]))
            rows.append(
                f"{size},{sample},"
                + ",".join(_fmt(value) for value in chain)
                + f",{str(holds).lower()}"
            )
    _emit(["\n".join(rows), "\n"], output)
    return 0


def run(command: str, config: ProblemConfig | None, output=None, seed: int = 0,
        n: int | None = None) -> int:
    """Execute one CLI command; returns the process exit status.

    ``n`` is the ``--n`` option: the grid size of ``norms``, and for the
    other commands an override of the config's ``N``.  A config is built,
    and so fully checked, before anything else, by ``norms`` too, which
    then does not use it.
    """
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    spec = None if config is None else build_problem(config)
    if n is not None:
        _convert("option '--n'", grid_size, n)
    if command == "norms":
        return _run_norms(output, seed, n)
    if config is None:
        raise ConfigError(f"{command} requires --config")
    if n is not None:
        config = replace(config, n=n)
    if command == "check":
        return _run_check(config, spec, output)
    if command == "solve":
        return _run_solve(config, spec, output)
    return _run_converge(config, spec, output)


def _grid_sizes(command: str, config: ProblemConfig | None, n: int | None) -> str:
    """' at N = ...' or ' at Ns = ...', the grid sizes ``command`` ran at, or ''."""
    if command == "converge" and config is not None and config.ns:
        return " at Ns = " + ",".join(map(str, config.ns))
    if n is None and config is not None:
        n = config.n
    return "" if n is None else f" at N = {n}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirbvp",
        description="Check, solve, and run refinement studies for nonlinear "
        "Dirichlet difference equations.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="problem config file (flat key = value text)")
    parser.add_argument("--output", help="write the primary artifact to this file")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized demos")
    parser.add_argument("--n", type=int, help="override the config grid size N")
    parser.add_argument("--ns", help="override the config list Ns (comma separated)")
    args = parser.parse_args(argv)

    try:
        config = None
        if args.config is not None:
            config = load_config(args.config)
            if args.ns is not None:
                config = replace(config, ns=_convert("option '--ns'", _parse_ns, args.ns))
        code = run(args.command, config, output=args.output, seed=args.seed, n=args.n)
        sys.stdout.flush()
        return code
    except (ConfigError, ParseError, EvalError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        # numpy's, for an array larger than the memory left, as at N = 10^9
        sys.stderr.write(f"error: out of memory{_grid_sizes(args.command, config, args.n)}\n")
        return 2
    except BrokenPipeError as exc:
        # The reader closed stdout early, as `| head` does.  What is left in
        # the buffer goes to os.devnull, so the exit flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write(f"error: cannot write standard output: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
