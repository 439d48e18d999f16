"""Acceptance suite: each test exercises one release criterion at its
stated tolerance and prints a single pass line (visible with pytest -s/-v)."""

import time

import numpy as np
import pytest

from dirbvp import corpus
from dirbvp.cli import load_config, run
from dirbvp.convergence import run_study
from dirbvp.discrete_op import jacobian, phi_N, residual
from dirbvp.expr import evaluate
from dirbvp.grid import GridFunction, norms, random_element
from dirbvp.problem import apriori_bound, check_fx_lower, make_spec
from dirbvp.solver import (
    CONVERGED,
    merit,
    merit_gradient,
    multi_start_uniqueness,
    newton_solve,
)

STUDY_NS = (8, 16, 32, 64, 128)


@pytest.fixture(scope="module")
def f1_sin_study():
    start = time.monotonic()
    table = run_study(corpus.build("f1_sin"), STUDY_NS, problem_id="f1_sin")
    return table, time.monotonic() - start


def test_criterion_01_norm_chain():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for n in range(2, 65):
        for _ in range(1000):
            m = norms(random_element(n, rng, amplitude=2.0))
            chain = (
                0.25 * m.e_norm,
                0.5 * m.delta_norm,
                m.n_norm,
                np.sqrt(n) * m.sup_norm,
                n * m.delta_norm,
                n**2 * m.e_norm,
            )
            for lhs, rhs in zip(chain, chain[1:]):
                assert rhs - lhs >= -1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 1 (norm chain, N=2..64 x 1000): PASS in {elapsed:.2f}s")


def test_criterion_02_quadratic_exactness():
    spec = make_spec("0", "2", A=0.1, B=0.1, fx_lower=0.0)
    for n in (4, 10, 100):
        report = newton_solve(spec, n)
        assert report.status == CONVERGED
        k = np.arange(n + 1)
        closed_form = (k**2 - n * k) / n**2
        assert np.max(np.abs(report.solution.values - closed_form)) <= 1e-12
        t = report.solution.nodes
        continuous = t**2 - t
        assert np.max(np.abs(report.solution.values - continuous)) <= 1e-12
    print("criterion 2 (quadratic exactness, N in {4,10,100} <= 1e-12): PASS")


def test_criterion_03_jacobian_and_merit_directional_derivatives():
    spec = corpus.build("f1")
    rng = np.random.default_rng(103)
    n = 32
    eps = 1e-6
    for _ in range(100):
        x = random_element(n, rng)
        h = random_element(n, rng)
        bumped = GridFunction(n, x.values + eps * h.values)

        fd_residual = (residual(spec, bumped).vector - residual(spec, x).vector) / eps
        analytic = jacobian(spec, x).matvec(h.interior)
        assert np.linalg.norm(fd_residual - analytic) <= 1e-5 * (
            1.0 + np.linalg.norm(analytic)
        )

        lowered = GridFunction(n, x.values - eps * h.values)
        fd_merit = (merit(spec, bumped) - merit(spec, lowered)) / (2 * eps)
        slope = float(np.dot(merit_gradient(spec, x), h.interior))
        assert abs(fd_merit - slope) <= 1e-5 * (1.0 + abs(slope))
    print("criterion 3 (derivative checks, 100 pairs at N=32, 1e-5): PASS")


def test_criterion_04_uniqueness_from_random_starts():
    for name, seed in (("f1", 104), ("f2", 204)):
        spec = corpus.build(name)
        distance = multi_start_uniqueness(spec, 50, starts=5, amplitude=10.0, seed=seed)
        assert distance <= 1e-8
    print("criterion 4 (multi-start agreement <= 1e-8 for f1, f2): PASS")


def test_criterion_05_apriori_bound_across_corpus():
    for name in corpus.names():
        spec = corpus.build(name)
        for n in (8, 16, 32, 64, 128, 256):
            report = newton_solve(spec, n)
            assert report.status == CONVERGED, f"{name} failed at N={n}"
            v_sup = float(np.max(np.abs(evaluate(spec.v, report.solution.nodes, 0.0))))
            bound = apriori_bound(spec, v_sup)
            assert norms(report.solution).sup_norm <= bound + 1e-8
    print("criterion 5 (sup_norm <= (sup|v|+B)/(1-A) + 1e-8, N=8..256): PASS")


def test_criterion_06_non_spurious_convergence(f1_sin_study):
    table, elapsed = f1_sin_study
    errors = [row.sup_error for row in table.rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3
    assert table.rows[-1].empirical_order >= 1.8
    assert elapsed < 10.0
    print(
        "criterion 6 (sup_error decreasing, final "
        f"{errors[-1]:.2e} <= 1e-3, order {table.rows[-1].empirical_order:.3f} >= 1.8, "
        f"{elapsed:.2f}s < 10s): PASS"
    )


def test_criterion_07_derivative_boundedness(f1_sin_study):
    table, _ = f1_sin_study
    bounds = [row.derivative_bound for row in table.rows]
    assert max(bounds) <= 10.0 * min(bounds)
    print(
        f"criterion 7 (N|dx| within factor 10: {min(bounds):.3f}..{max(bounds):.3f}): PASS"
    )


def test_criterion_08_condition_falsifier():
    steep = make_spec("-2*x", "0", A=2.5, B=0.1, fx_lower=-1.0)
    report = check_fx_lower(steep, x_range=10.0)
    assert report.violated and report.witnesses

    f2 = corpus.build("f2")
    assert f2.declared_fx_lower == float(np.exp(-np.pi) - 1.0)
    clean = check_fx_lower(f2, x_range=10.0)
    assert not clean.violated
    print("criterion 8 (falsifier: -2x violated with witness, f2 clean): PASS")


def test_criterion_09_strict_convexity_oracle():
    rng = np.random.default_rng(109)
    n = 32
    checked = []
    for name in corpus.names():
        spec = corpus.build(name)
        if spec.declared_fx_lower <= -1.0:
            continue
        checked.append(name)
        for _ in range(100):
            x = random_element(n, rng, amplitude=3.0)
            a = rng.normal(size=n - 1)
            u = random_element(n, rng, amplitude=2.0)
            w = random_element(n, rng, amplitude=2.0)
            mid = GridFunction(n, 0.5 * (u.values + w.values))
            gap = (
                0.5 * phi_N(spec, x, a, u)
                + 0.5 * phi_N(spec, x, a, w)
                - phi_N(spec, x, a, mid)
            )
            dist = norms(GridFunction(n, u.values - w.values)).delta_norm
            # midpoint gap of the half-weighted functional: the quarter-strength
            # convexity estimate carries an extra factor 1/2
            assert gap >= 0.25 * (1.0 + spec.declared_fx_lower) * dist**2 * 0.5 - 1e-10
    assert checked  # the corpus must contain problems under the derivative bound
    print(f"criterion 9 (convexity gap on {', '.join(checked)}; 100 pairs each): PASS")


def test_criterion_10_deterministic_csv(tmp_path):
    config_text = """\
name = f1_sin
f = (t + sin(x))/(2*x^2 + 4)
x_star = sin(pi*t)
A = 0.1
B = 0.5
fx_lower = -0.25
Ns = 8,16,32
"""
    path = tmp_path / "f1_sin.txt"
    path.write_text(config_text, encoding="utf-8")
    config = load_config(path)
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert run("converge", config, output=str(first), seed=5) == 0
    assert run("converge", config, output=str(second), seed=5) == 0
    assert first.read_bytes() == second.read_bytes()
    print("criterion 10 (byte-identical converge CSV): PASS")
