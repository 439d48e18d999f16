import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dirbvp import corpus, discrete_op, expr, problem, solver
from dirbvp.discrete_op import SingularJacobianError, jacobian, residual, solve_tridiagonal
from dirbvp.expr import EvalError, evaluate, parse
from dirbvp.grid import GridFunction, norms, random_element, second_difference
from dirbvp.problem import ProblemSpec, apriori_bound, make_spec
from dirbvp.solver import (
    CONVERGED,
    EVAL_ERROR,
    MAX_ITER,
    SINGULAR_JACOBIAN,
    SolverConfig,
    SolverError,
    merit,
    merit_gradient,
    multi_start_uniqueness,
    newton_solve,
)
from test_discrete_op import general_band_solve

F1 = "(t + sin(x))/(2*x^2 + 4)"
F1_SPEC = make_spec(F1, "1", A=0.1, B=0.5, fx_lower=-0.25)
QUAD = make_spec("0", "2", A=0.1, B=0.1, fx_lower=0.0)
ODD = make_spec("sin(x)", "0", A=1.1, B=0.1, fx_lower=-1.1)  # f(t,0) = 0, v = 0
# Problems whose full Newton steps overshoot, so the line search backtracks:
# on the Armijo test for the cubic, and on trials below the branch point
# x = -1, which f cannot evaluate, for the square root.
CUBIC = make_spec("x^3", "1000", A=1.0, B=1.0, fx_lower=0.0)
SQRT = make_spec("sqrt(x + 1)", "7.5", A=1.0, B=1.0, fx_lower=0.0)


def quadratic_solution(n):
    k = np.arange(n + 1)
    return GridFunction(n, (k**2 - n * k) / n**2)


def test_merit_at_solution_and_hand_value():
    assert merit(QUAD, quadratic_solution(10)) <= 1e-28
    # residual for x = 0, v = 1, f(t,0) = 0 is nine entries of -0.01
    spec = make_spec("sin(x)", "1", A=1.1, B=0.1, fx_lower=-1.1)
    value = merit(spec, GridFunction.zeros(10))
    np.testing.assert_allclose(value, 0.5 * 0.03**2, rtol=1e-14)
    assert merit(spec, GridFunction.zeros(10)) == value  # deterministic


def test_merit_gradient_zero_at_solution():
    g = merit_gradient(QUAD, quadratic_solution(10))
    assert np.max(np.abs(g)) <= 1e-15


def test_merit_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    n = 12
    x = random_element(n, rng)
    analytic = merit_gradient(F1_SPEC, x)
    h = 1e-6
    for i in range(n - 1):
        bump = np.zeros(n - 1)
        bump[i] = h
        up = merit(F1_SPEC, GridFunction.from_interior(x.interior + bump))
        down = merit(F1_SPEC, GridFunction.from_interior(x.interior - bump))
        fd = (up - down) / (2 * h)
        assert abs(fd - analytic[i]) <= 1e-5 * (1.0 + abs(analytic[i]))


def test_merit_gradient_symmetric_jacobian():
    rng = np.random.default_rng(4)
    x = random_element(10, rng)
    r = residual(QUAD, x).vector
    np.testing.assert_allclose(
        merit_gradient(QUAD, x), jacobian(QUAD, x).matvec(r), rtol=1e-14
    )


def test_newton_linear_problem_single_step():
    report = newton_solve(QUAD, 10)
    assert report.status == CONVERGED
    assert report.iterations == 1
    assert report.step_trace[0][2] == 1.0  # full step accepted
    np.testing.assert_allclose(
        report.solution.values, quadratic_solution(10).values, atol=1e-14
    )


def test_newton_zero_solution_without_iterating():
    report = newton_solve(ODD, 16)
    assert report.status == CONVERGED
    assert report.iterations == 0
    assert np.all(report.solution.values == 0.0)


def test_newton_f1():
    report = newton_solve(F1_SPEC, 100)
    assert report.status == CONVERGED
    threshold = 1e-10 * (1.0 + 1.0 * np.sqrt(100) / 100**2)
    assert report.residual_norm <= threshold
    assert norms(report.solution).sup_norm <= apriori_bound(F1_SPEC, 1.0)


def test_newton_monotone_merit():
    cfg = SolverConfig(initial_guess=GridFunction.from_interior(
        np.random.default_rng(0).uniform(-5, 5, 49)
    ))
    report = newton_solve(F1_SPEC, 50, cfg)
    assert report.status == CONVERGED
    norms_seq = [residual(F1_SPEC, cfg.initial_guess).norm]
    norms_seq += [entry[1] for entry in report.step_trace]
    assert all(b < a for a, b in zip(norms_seq, norms_seq[1:]))


def test_newton_max_iter_status():
    report = newton_solve(F1_SPEC, 50, SolverConfig(max_iter=1))
    assert report.status == MAX_ITER
    assert report.iterations == 1


def test_newton_singular_jacobian_status():
    # fx = -32 makes the diagonal -2 - (-32)/16 = 0 at N = 4
    spec = make_spec("-32*x", "1", A=32.1, B=0.1, fx_lower=-32.1)
    report = newton_solve(spec, 4)
    assert report.status == SINGULAR_JACOBIAN


def test_newton_eval_error_status():
    spec = make_spec("1/(x - 1)", "1", A=0.5, B=0.5, fx_lower=-10.0)
    guess = GridFunction.from_interior(np.ones(9))  # f is singular on x = 1
    report = newton_solve(spec, 10, SolverConfig(initial_guess=guess))
    assert report.status == EVAL_ERROR


def test_newton_rejects_mismatched_guess():
    with pytest.raises(ValueError):
        newton_solve(QUAD, 10, SolverConfig(initial_guess=GridFunction.zeros(8)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    # a NaN or infinite threshold would report converged without iterating
    # True would pass as 1.0, and False as 0.0
    for tol in (math.nan, math.inf, True, False, np.True_):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)
    # a NaN limit is never reached, so the solve would not stop; only
    # construct these configs, never solve with them
    for max_iter in (0, math.nan, 2.5, True):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=max_iter)


def reference_newton_solve(spec, n, cfg=None):
    """The earlier newton_solve loop, kept as the bitwise reference.

    It evaluates v in the stopping threshold and in every residual, builds
    a GridFunction for every line-search trial, and returns the report as
    (status, iterations, residual norm, step trace, solution bytes).
    """
    cfg = cfg or SolverConfig()
    x = cfg.initial_guess if cfg.initial_guess is not None else GridFunction.zeros(n)
    trace = []

    def res(x):
        t = np.arange(1, x.n) / x.n
        f_vals = evaluate(spec.f, t, x.interior)
        v_vals = evaluate(spec.v, t, 0.0)
        vector = second_difference(x) - (f_vals + v_vals) / x.n**2
        return vector, math.sqrt(np.add.reduce(vector * vector))

    def report(status, x, res_norm, iterations):
        return (status, iterations, res_norm, tuple(trace), x.values.tobytes())

    try:
        t = np.arange(1, n) / n
        v_sup = float(np.max(np.abs(evaluate(spec.v, t, 0.0))))
        threshold = cfg.tol * (1.0 + v_sup * math.sqrt(n) / n**2)
        r, r_norm = res(x)
    except EvalError:
        return report(EVAL_ERROR, x, math.nan, 0)

    iterations = 0
    while r_norm > threshold:
        if iterations >= cfg.max_iter:
            return report(MAX_ITER, x, r_norm, iterations)
        try:
            step = solve_tridiagonal(jacobian(spec, x), -r)
        except SingularJacobianError:
            return report(SINGULAR_JACOBIAN, x, r_norm, iterations)
        except EvalError:
            return report(EVAL_ERROR, x, r_norm, iterations)

        merit_0 = 0.5 * r_norm**2
        slope = -2.0 * merit_0
        lam = 1.0
        while True:
            try:
                candidate = GridFunction.from_interior(x.interior + lam * step)
                r_new, r_new_norm = res(candidate)
                ok = 0.5 * r_new_norm**2 <= merit_0 + 1e-4 * lam * slope
            except (EvalError, ValueError):
                ok = False
            if ok:
                break
            lam *= 0.5
            if lam < 1e-14:
                return report(MAX_ITER, x, r_norm, iterations)

        x, r, r_norm = candidate, r_new, r_new_norm
        iterations += 1
        trace.append((iterations, r_norm, lam))

    return report(CONVERGED, x, r_norm, iterations)


def test_residual_norm_does_not_depend_on_the_blas_thread_count():
    # BLAS ddot's last bit changes with OpenBLAS's thread count at this size
    root = Path(__file__).resolve().parents[1]
    script = (
        "from dirbvp import corpus, solver\n"
        "print(solver.newton_solve(corpus.build('f2'), 100_000).residual_norm.hex())"
    )
    norms = []
    for threads in (None, "1"):
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        norms.append(run.stdout)
    assert norms[0] == norms[1]


def assert_matches_reference(spec, n, cfg=None):
    got = newton_solve(spec, n, cfg)
    want = reference_newton_solve(spec, n, cfg)
    assert (
        got.status, got.iterations, got.residual_norm, got.step_trace,
        got.solution.values.tobytes(),
    ) == want, n
    return got


def test_newton_solve_matches_reference_bitwise():
    sizes = list(range(2, 34)) + [50, 64, 100, 127, 256, 500, 1000, 1024, 4096]
    specs = [corpus.build(name) for name in corpus.names()]
    statuses = set()
    backtracked = False
    for spec in specs + [CUBIC, SQRT]:
        for n in sizes:
            rng = np.random.default_rng(n)
            guesses = [None] + [
                GridFunction.from_interior(rng.uniform(-a, a, n - 1)) for a in (1.0, 30.0)
            ]
            for guess in guesses:
                got = assert_matches_reference(spec, n, SolverConfig(initial_guess=guess))
                statuses.add(got.status)
                backtracked |= any(lam < 1.0 for _, _, lam in got.step_trace)
    assert backtracked
    assert CONVERGED in statuses and EVAL_ERROR in statuses  # SQRT from wide starts


def test_newton_failure_statuses_match_reference():
    steep = make_spec("-32*x", "1", A=32.1, B=0.1, fx_lower=-32.1)
    pole = make_spec("1/(x - 1)", "1", A=0.5, B=0.5, fx_lower=-10.0)
    beyond = make_spec("sqrt(x + 1)", "8", A=1.0, B=1.0, fx_lower=0.0)  # reaches x = -1
    cases = [
        (F1_SPEC, 50, SolverConfig(max_iter=1), MAX_ITER),
        (F1_SPEC, 64, SolverConfig(tol=1e-300, max_iter=50), MAX_ITER),  # roundoff floor
        (steep, 4, None, SINGULAR_JACOBIAN),
        (pole, 10, SolverConfig(initial_guess=GridFunction.from_interior(np.ones(9))),
         EVAL_ERROR),
        (beyond, 16, None, EVAL_ERROR),
        # a constant that overflows builds, and fails the first evaluation
        (make_spec("1e200*1e200 + x", "1", A=1.0, B=1.0, fx_lower=0.0), 8, None, EVAL_ERROR),
    ]
    for spec, n, cfg, status in cases:
        assert assert_matches_reference(spec, n, cfg).status == status


def test_newton_fx_that_fails_alone_ends_in_eval_error():
    # f = x*sqrt(x^2) is 0 at the zero start, and f_x = sqrt(x^2) + x*x/sqrt(x^2)
    # divides by zero there: the start is evaluated, its Jacobian is not
    spec = make_spec("x*sqrt(x^2)", "1", A=0.5, B=0.5, fx_lower=-10.0)
    report = assert_matches_reference(spec, 16)
    assert (report.status, report.iterations) == (EVAL_ERROR, 0)
    assert report.residual_norm == pytest.approx(0.01513, rel=1e-3)


def test_newton_tree_that_cannot_be_compiled_is_eval_error():
    # A spec built by hand may hold a tree that the compiler rejects: an f
    # nested past Python's recursion limit, or an f_x with a variable
    # exponent.  f and f_x compile as one program, before the start.
    deep = parse("+".join(["x"] * 3000))
    malformed = expr.BinOp("^", expr.Var("x"), expr.Var("x"))
    for f, fx in ((deep, expr.Num(1.0)), (parse("x/4"), malformed)):
        report = newton_solve(ProblemSpec(f, fx, expr.Num(1.0), 1.0, 1.0, 0.0), 8)
        assert (report.status, report.iterations) == (EVAL_ERROR, 0)
        assert math.isnan(report.residual_norm)


def test_newton_residual_that_overflows_is_eval_error():
    # v = 1e200 makes each residual entry about 4e197 at the zero start,
    # whose square overflows: the start cannot be evaluated, with no warning
    spec = make_spec("x/4", "1e200", A=0.5, B=1.0, fx_lower=-0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = newton_solve(spec, 16)
    assert (report.status, report.iterations) == (EVAL_ERROR, 0)
    assert math.isnan(report.residual_norm)


def test_newton_trial_whose_residual_overflows_fails():
    # The first Newton step of f = -9.8*atan(x) from zero is about 1e157, and
    # the residual's norm overflows at steps 1 .. 2^-7 of it.  Those trials
    # fail, with no warning, and 2^-8 is accepted, with the reference's bits.
    spec = make_spec("-9.8*atan(x)", "1e155", A=9.8, B=1.0, fx_lower=-9.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = newton_solve(spec, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference's overflows
        want = reference_newton_solve(spec, 16)
    assert report.status == CONVERGED and report.step_trace[0][2] == 2.0**-8
    assert (
        report.status, report.iterations, report.residual_norm, report.step_trace,
        report.solution.values.tobytes(),
    ) == want


def count_evaluations(monkeypatch):
    """Record what the solver evaluates: a tree for each evaluate call, and
    "f" or "fx" for each run of root 0 or 1 of the spec's joint program."""
    calls = []
    for module in (solver, discrete_op, problem):
        def evaluate(expr, t=0.0, x=0.0, original=module.evaluate):
            calls.append(expr)
            return original(expr, t, x)

        monkeypatch.setattr(module, "evaluate", evaluate)

    def root(program, env, k, original=solver._root):
        calls.append(("f", "fx")[k])
        return original(program, env, k)

    monkeypatch.setattr(solver, "_root", root)
    return calls


def test_newton_exhausted_line_search_matches_reference(monkeypatch):
    # an uphill direction fails the Armijo test at every step length
    def uphill(matrix, rhs):
        return -discrete_op.solve_tridiagonal(matrix, rhs)

    monkeypatch.setattr(solver, "solve_tridiagonal", uphill)
    monkeypatch.setitem(globals(), "solve_tridiagonal", uphill)
    calls = count_evaluations(monkeypatch)
    report = assert_matches_reference(F1_SPEC, 16)
    assert report.status == MAX_ITER and report.iterations == 0
    # the start, then step lengths 1, 1/2, ..., 2^-46; the next is below 1e-14
    assert calls.count("f") == 1 + 47
    assert calls.count("fx") == 1


def report_bits(report):
    """A report as bytes and hex, so that equal means bitwise equal."""
    return (
        report.status, report.iterations, report.residual_norm.hex(),
        tuple((k, norm.hex(), lam.hex()) for k, norm, lam in report.step_trace),
        report.solution.values.tobytes(),
    )


def test_newton_evaluates_v_once(monkeypatch):
    # A spec keeps each grid's nodes and v(t_k): its first solve at N
    # evaluates v once, later solves at N not at all, and no trial does.
    # Fresh specs, so no earlier test has filled their tables.
    calls = count_evaluations(monkeypatch)
    for f, v in (("x^3", "1000"), ("sqrt(x + 1)", "7.5")):  # CUBIC and SQRT
        spec = make_spec(f, v, A=1.0, B=1.0, fx_lower=0.0)
        bits = {}
        for n, v_evaluations in ((64, 1), (64, 0), (32, 1), (64, 0)):
            calls.clear()
            report = newton_solve(spec, n)
            assert report.status == CONVERGED
            assert any(lam < 1.0 for _, _, lam in report.step_trace)  # trials were rejected
            assert sum(expr is spec.v for expr in calls) == v_evaluations
            assert calls.count("f") > report.iterations + 1
            assert calls.count("fx") == report.iterations
            assert not any(expr is spec.f or expr is spec.fx for expr in calls)
            # cold and warm solves, and one on a new spec, give the same bits
            bits.setdefault(n, set()).add(report_bits(report))
        again = make_spec(f, v, A=1.0, B=1.0, fx_lower=0.0)
        bits[64].add(report_bits(newton_solve(again, 64)))
        assert [len(reports) for reports in bits.values()] == [1, 1]
        # residual and jacobian take the kept nodes and v too
        calls.clear()
        residual(spec, GridFunction.zeros(64))
        jacobian(spec, GridFunction.zeros(64))
        assert not any(expr is spec.v for expr in calls)


def test_grid_table_keeps_the_most_recent_sizes_read_only(monkeypatch):
    calls = count_evaluations(monkeypatch)
    spec = make_spec("x^3", "1000*t", A=1.0, B=1.0, fx_lower=0.0)
    bound = problem._GRIDS
    sizes = range(2, 2 + bound + 3)
    for n in sizes:
        newton_solve(spec, n)
        assert len(spec._grids) <= bound
    assert list(spec._grids) == list(sizes[-bound:])
    # a solve at a kept size makes it the most recent, so the next new size
    # drops the oldest other one
    newton_solve(spec, sizes[-bound])
    newton_solve(spec, 2)
    assert list(spec._grids) == [*sizes[-bound + 2 :], sizes[-bound], 2]
    assert sum(expr is spec.v for expr in calls) == len(sizes) + 1
    for n, (t, v_vals, v_sup) in spec._grids.items():
        assert np.array_equal(t, np.arange(1, n) / n)
        assert v_sup == float(np.max(np.abs(v_vals)))
        for array in (t, v_vals):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def test_grid_table_keeps_the_failure_of_v(monkeypatch):
    # t = 5/10 is a node of N = 10, where v divides by zero
    calls = count_evaluations(monkeypatch)
    spec = make_spec("x", "1/(t - 0.5)", A=1.0, B=1.0, fx_lower=0.0)
    # v on the 9 nodes, then halving them: nodes 1..4, 5..6 and 5, then the
    # scalar at t = 0.5
    for v_evaluations in (5, 0, 0):
        calls.clear()
        report = newton_solve(spec, 10)
        assert report.status == EVAL_ERROR and math.isnan(report.residual_norm)
        assert sum(expr is spec.v for expr in calls) == v_evaluations
        assert list(spec._grids) == [10]
    calls.clear()
    for operation in (residual, jacobian):
        with pytest.raises(EvalError, match=r"^v cannot be evaluated at t=0.5: division by zero$"):
            operation(spec, GridFunction.zeros(10))
    assert not any(expr is spec.v for expr in calls)
    assert newton_solve(spec, 9).status == CONVERGED
    assert list(spec._grids) == [10, 9]


def tree_nodes(tree):
    """Every node object of a tree, a shared subtree once."""
    found = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in found:
            found[id(node)] = node
            stack.extend(
                child for child in (getattr(node, field.name) for field in fields(node))
                if isinstance(child, (expr.Num, expr.Var, expr.Neg, expr.BinOp, expr.Call))
            )
    return found


def test_newton_solve_compiles_each_tree_once(monkeypatch):
    programs = []

    def counting_program(*trees, original=expr._Program):
        programs.append(tuple(map(id, trees)))
        return original(*trees)

    spec = corpus.build("f3")
    nodes = {**tree_nodes(spec.f), **tree_nodes(spec.fx), **tree_nodes(spec.v)}
    # building leaves the trees and the spec uncompiled; the first solve compiles them
    assert not any("_program" in vars(node) for node in nodes.values())
    assert "_program" not in vars(spec)
    monkeypatch.setattr(expr, "_Program", counting_program)
    monkeypatch.setattr(problem, "_Program", counting_program)
    first = newton_solve(spec, 64, SolverConfig(initial_guess=random_element(64, np.random.default_rng(3))))
    assert first.status == CONVERGED and first.iterations >= 2
    # one program for f and f_x, kept on the spec, and one for v, kept on its root
    assert sorted(programs) == sorted([(id(spec.f), id(spec.fx)), (id(spec.v),)])
    assert "_program" not in vars(spec.f) and "_program" not in vars(spec.fx)

    programs.clear()
    again = newton_solve(spec, 64, SolverConfig(initial_guess=random_element(64, np.random.default_rng(3))))
    assert programs == []
    assert again.solution.values.tobytes() == first.solution.values.tobytes()


@pytest.mark.parametrize("name", ["f1", "f2", "f3"])
def test_newton_large_n_steps_by_cyclic_reduction(monkeypatch, name):
    # at N = 10^4 each linear solve reduces; the solve ends where one whose
    # steps come from elimination ends, to well within tol
    spec = corpus.build(name)
    reduced = newton_solve(spec, 10_000)

    def eliminate(matrix, rhs):
        ones = np.ones(matrix.order - 1)
        return general_band_solve(ones, matrix.diag, ones, rhs)

    monkeypatch.setattr(solver, "solve_tridiagonal", eliminate)
    eliminated = newton_solve(spec, 10_000)
    for report in (reduced, eliminated):
        assert (report.status, report.iterations) == (CONVERGED, 2)
    assert np.max(np.abs(reduced.solution.values - eliminated.solution.values)) <= 1e-9


def test_multi_start_agreement_f1():
    distance = multi_start_uniqueness(F1_SPEC, 50, starts=5, amplitude=10.0, seed=7)
    assert distance <= 1e-8


def test_multi_start_linear_problem():
    distance = multi_start_uniqueness(QUAD, 20, starts=4, amplitude=50.0, seed=1)
    assert distance <= 1e-12


def test_multi_start_identical_guesses():
    assert multi_start_uniqueness(QUAD, 10, starts=2, amplitude=0.0, seed=5) == 0.0


def test_multi_start_deterministic_in_seed():
    a = multi_start_uniqueness(F1_SPEC, 20, starts=3, amplitude=5.0, seed=11)
    b = multi_start_uniqueness(F1_SPEC, 20, starts=3, amplitude=5.0, seed=11)
    assert a == b


def test_multi_start_validates_and_propagates():
    with pytest.raises(ValueError):
        multi_start_uniqueness(QUAD, 10, starts=1)
    # range() would raise TypeError on a float count, even a whole one
    for starts in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="starts"):
            multi_start_uniqueness(QUAD, 10, starts=starts)
    # True would seed as 1, and numpy's message for -1 does not name seed
    for seed in (True, -1, 1.0):
        with pytest.raises(ValueError, match="seed"):
            multi_start_uniqueness(QUAD, 10, seed=seed)
    for amplitude in (np.nan, np.inf, -1.0, True):
        with pytest.raises(ValueError, match="amplitude"):
            multi_start_uniqueness(QUAD, 10, amplitude=amplitude)
    spec = make_spec("-32*x", "1", A=32.1, B=0.1, fx_lower=-32.1)
    with pytest.raises(SolverError, match="start 0"):
        multi_start_uniqueness(spec, 4, starts=2, amplitude=1.0, seed=0)
