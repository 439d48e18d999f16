"""Checks of dirbvp's outputs against the oracle and the paper's properties.

Each check returns an ``Outcome``.  ``failed`` says the operation gave a
wrong answer; ``faults`` lists what makes the run incorrect.  The one
failure that is not a fault is the known early stop: the status says
converged and the residual is below dirbvp's stopping threshold, but the
iterate is still farther from the discrete solution than the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import oracle

# Relative slack for comparing values that dirbvp prints or recomputes.
_REL = 1e-9


@dataclass
class Outcome:
    failed: bool = False
    faults: list[str] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Constants:
    A: float
    B: float
    fx_lower: float


def check_solution(p: oracle.Problem, c: Constants, n: int, values, reference,
                   converged: bool) -> Outcome:
    """Judge one solve: ``values`` holds x(0..n), ``reference`` the oracle's."""
    out = Outcome()
    values = np.asarray(values, dtype=float)
    if values.shape != (n + 1,) or not np.isfinite(values).all():
        out.failed = True
        out.faults.append(f"solution has shape {values.shape} or non-finite entries")
        return out
    if values[0] != 0.0 or values[-1] != 0.0:
        out.failed = True
        out.faults.append("boundary values are not zero")
        return out
    if not converged:
        out.failed = True
        out.faults.append("status is not converged")

    bound = oracle.apriori_bound(p, c.A, c.B)
    sup = float(np.max(np.abs(values)))
    if sup > bound * (1.0 + _REL):
        out.failed = True
        out.faults.append(f"sup|x| = {sup:.6g} exceeds the a-priori bound M = {bound:.6g}")

    tol = oracle.solve_tolerance(n)
    distance = float(np.max(np.abs(values - reference)))
    if distance > tol:
        out.reasons.append(f"{distance:.3g} from the discrete solution (tolerance {tol:.3g})")
    if p.x_star is not None:
        nodes = np.arange(n + 1) / n
        error = float(np.max(np.abs(values - p.x_star(nodes))))
        allowed = p.truncation_constant(c.fx_lower) / n**2 + tol
        if error > allowed:
            out.reasons.append(f"{error:.3g} from x_star (allowed {allowed:.3g})")

    if out.reasons:
        out.failed = True
        if converged and not _early_stop(p, c, n, values, distance):
            out.faults.append("wrong answer not explained by the residual stopping rule: "
                              + "; ".join(out.reasons))
    return out


def _early_stop(p, c, n, values, distance) -> bool:
    """True when a small residual accounts for the distance to the solution.

    The residual must pass dirbvp's stopping threshold, and the distance
    must respect ||x - x_N||_2 <= n^2 ||r||_2 / (4 + L), which holds since
    -J is symmetric with smallest eigenvalue at least (4 + L)/n^2 when
    f_x >= L > -4.
    """
    r = float(np.linalg.norm(oracle.residual(p, values)))
    if r > oracle.stop_threshold(p, n) * (1.0 + 1e-6):
        return False
    return distance <= n**2 * r / (4.0 + c.fx_lower) + oracle.solve_tolerance(n)


def parse_solve_csv(path, n: int) -> np.ndarray:
    """Read back a ``k,t,x`` table, checking the k and t columns.

    numpy reads the file in chunks, so the check needs less memory than
    the solve that wrote it and leaves the process's peak to dirbvp.
    """
    with open(path, encoding="utf-8") as csv:
        header = csv.readline()
    if header != "k,t,x\n":
        raise ValueError(f"unexpected CSV header {header!r}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (n + 1, 3):
        raise ValueError(f"expected {n + 1} CSV rows of 3 fields, got shape {table.shape}")
    k = np.arange(n + 1)
    if not np.array_equal(table[:, 0], k):
        raise ValueError("k column is not 0..N")
    if np.max(np.abs(table[:, 1] - k / n)) > 1e-15:
        raise ValueError("t column is not k/N")
    return table[:, 2]


def parse_solve_summary(text: str) -> dict[str, str]:
    """The ``key: value`` lines ``dirbvp solve`` prints."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def check_solve_command(p, c, n, exit_code, stdout, csv_path, reference) -> Outcome:
    """Judge one ``dirbvp solve`` run from its exit code, summary and CSV."""
    summary = parse_solve_summary(stdout)
    try:
        values = parse_solve_csv(csv_path, n)
    except (OSError, ValueError) as exc:
        return Outcome(failed=True, faults=[f"CSV: {exc}"])
    converged = exit_code == 0 and summary.get("status") == "converged"
    out = check_solution(p, c, n, values, reference, converged)
    try:
        sup_printed = float(summary["sup_norm"])
    except (KeyError, ValueError):
        out.failed = True
        out.faults.append(f"no sup_norm in the summary {stdout!r}")
        return out
    if not math.isclose(sup_printed, float(np.max(np.abs(values))), rel_tol=1e-6, abs_tol=1e-300):
        out.failed = True
        out.faults.append(f"printed sup_norm {sup_printed} disagrees with the CSV")
    return out


def check_box_report(p: oracle.Problem, c: Constants, exit_code: int, report: dict) -> Outcome:
    """Judge one ``dirbvp check`` run against the oracle's own sampling."""
    out = Outcome()

    def fault(message):
        out.failed = True
        out.faults.append(message)

    x_range = 2.0 * oracle.apriori_bound(p, c.A, c.B)
    if not math.isclose(report.get("x_range", math.nan), x_range, rel_tol=1e-12):
        fault(f"x_range {report.get('x_range')} != 2M = {x_range}")
        return out
    growth, fx_low = oracle.box_counts(p, c.A, c.B, c.fx_lower, x_range)
    t_grid, x_grid = oracle.box_grids(x_range)
    violated = False
    for key, expected in (("growth", growth), ("fx_lower", fx_low)):
        part = report.get(key, {})
        count = part.get("violation_count", -1)
        if not expected.strict <= count <= expected.loose:
            fault(f"{key}: {count} violations, oracle finds {expected.strict}..{expected.loose}")
            continue
        verdict = "violated" if count else "no-violation-found"
        if part.get("verdict") != verdict:
            fault(f"{key}: verdict {part.get('verdict')!r} with {count} violations")
        if (part.get("samples_t"), part.get("samples_x")) != (t_grid.size, x_grid.size):
            fault(f"{key}: sampled {part.get('samples_t')} x {part.get('samples_x')}")
        witnesses = part.get("witnesses", [])
        if len(witnesses) != min(count, 10):
            fault(f"{key}: {len(witnesses)} witnesses for {count} violations")
        for w in witnesses:
            message = _witness_fault(p, c, key, w)
            if message:
                fault(f"{key}: {message}")
                break
        violated = violated or count > 0

    if exit_code != (1 if violated else 0):
        fault(f"exit code {exit_code} with violations={violated}")
    classes = report.get("classification", {})
    expected_classes = {
        "continuous_theorem_applies": c.A < math.pi**2 and c.fx_lower > -math.pi**2,
        "discrete_theorem_applies": c.A < 1.0 and c.fx_lower > -1.0,
    }
    if classes != expected_classes:
        fault(f"classification {classes} != {expected_classes}")
    return out


def _witness_fault(p, c, key, w) -> str | None:
    t, x, lhs, rhs = w["t"], w["x"], w["lhs"], w["rhs"]
    if key == "growth":
        want_lhs, want_rhs = (float(v) for v in oracle.growth_values(p, c.A, c.B, t, x))
        holds = lhs > rhs
    else:
        want_lhs, want_rhs = float(p.fx(t, x)), c.fx_lower
        holds = lhs < rhs
    close = all(math.isclose(got, want, rel_tol=_REL, abs_tol=1e-12)
                for got, want in ((lhs, want_lhs), (rhs, want_rhs)))
    if not (close and holds):
        return f"witness {w} is not a violation (oracle lhs={want_lhs}, rhs={want_rhs})"
    return None
