import numpy as np
import pytest

from dirbvp.discrete_op import (
    SingularJacobianError,
    Tridiagonal,
    jacobian,
    phi_N,
    residual,
    solve_tridiagonal,
)
from dirbvp.grid import GridFunction, norms, random_element, second_difference
from dirbvp.problem import make_spec

F1 = "(t + sin(x))/(2*x^2 + 4)"

ZERO_F = make_spec("0", "0", A=0.1, B=0.1, fx_lower=0.0)
QUAD = make_spec("0", "2", A=0.1, B=0.1, fx_lower=0.0)
F1_SPEC = make_spec(F1, "1", A=0.1, B=0.5, fx_lower=-0.25)
F1_UNFORCED = make_spec(F1, "0", A=0.1, B=0.5, fx_lower=-0.25)


def general_band_solve(sub, diag, sup, rhs):
    """No-pivot elimination for arbitrary bands, as solve_tridiagonal did
    before the Jacobian's unit off-diagonals were built in; the reference
    the unit-band solve must match bit for bit.
    """
    sub, diag, sup, rhs = (np.asarray(a, dtype=float) for a in (sub, diag, sup, rhs))
    m = diag.size
    scale = np.abs(diag).copy()
    if m > 1:
        scale[:-1] = np.maximum(scale[:-1], np.abs(sup))
        scale[1:] = np.maximum(scale[1:], np.abs(sub))

    w = diag.copy()
    g = rhs.copy()
    for i in range(1, m):
        pivot = w[i - 1]
        if abs(pivot) <= 1e-12 * scale[i - 1]:
            raise SingularJacobianError(f"vanishing pivot at row {i - 1}")
        factor = sub[i - 1] / pivot
        w[i] -= factor * sup[i - 1]
        g[i] -= factor * g[i - 1]
    if abs(w[-1]) <= 1e-12 * scale[-1]:
        raise SingularJacobianError(f"vanishing pivot at row {m - 1}")

    h = np.empty(m)
    h[-1] = g[-1] / w[-1]
    for i in range(m - 2, -1, -1):
        h[i] = (g[i] - sup[i] * h[i + 1]) / w[i]
    return h


def dense(tri):
    return np.column_stack([tri.matvec(e) for e in np.eye(tri.order)])


def quadratic_solution(n):
    k = np.arange(n + 1)
    return GridFunction(n, (k**2 - n * k) / n**2)


def test_residual_reduces_to_second_difference_without_f():
    rng = np.random.default_rng(1)
    x = random_element(12, rng)
    out = residual(ZERO_F, x).vector
    np.testing.assert_allclose(out, second_difference(x), rtol=1e-15)


def test_residual_quadratic_without_forcing():
    out = residual(ZERO_F, quadratic_solution(10)).vector
    np.testing.assert_allclose(out, np.full(9, 0.02), atol=1e-16)


def test_residual_quadratic_is_exact():
    r = residual(QUAD, quadratic_solution(10))
    assert np.max(np.abs(r.vector)) <= 1e-14


def test_apply_dn_zero_input():
    # an f vanishing at x = 0 maps the zero grid function to zero; with v = 0
    # the residual is D_N x
    spec = make_spec("sin(x)", "0", A=1.1, B=0.1, fx_lower=-1.1)
    assert np.all(residual(spec, GridFunction.zeros(8)).vector == 0.0)


def test_residual_zero_everywhere():
    spec = make_spec("sin(x)", "0", A=1.1, B=0.1, fx_lower=-1.1)
    r = residual(spec, GridFunction.zeros(10))
    assert r.norm == 0.0


def test_residual_constant_forcing():
    spec = make_spec("0", "1", A=0.1, B=0.1, fx_lower=0.0)
    r = residual(spec, GridFunction.zeros(10))
    np.testing.assert_allclose(r.vector, np.full(9, -0.01), rtol=1e-15)
    np.testing.assert_allclose(r.norm, 0.03, rtol=1e-15)


def test_jacobian_linear_f():
    spec = make_spec("3*x", "0", A=3.1, B=0.1, fx_lower=2.9)
    x = GridFunction.zeros(10)
    tri = jacobian(spec, x)
    np.testing.assert_allclose(tri.diag, np.full(9, -2.0 - 3.0 / 100.0), rtol=1e-15)
    assert np.array_equal(dense(tri), np.diag(tri.diag) + np.eye(9, k=1) + np.eye(9, k=-1))


def test_jacobian_n3_matrix():
    tri = jacobian(ZERO_F, GridFunction.zeros(3))
    np.testing.assert_allclose(tri.diag, [-2.0, -2.0])
    assert np.array_equal(dense(tri), [[-2.0, 1.0], [1.0, -2.0]])


def test_jacobian_matches_directional_derivative():
    rng = np.random.default_rng(42)
    eps = 1e-6
    for _ in range(20):
        x = random_element(16, rng)
        h = random_element(16, rng)
        tri = jacobian(F1_SPEC, x)
        bumped = GridFunction(16, x.values + eps * h.values)
        fd = (residual(F1_SPEC, bumped).vector - residual(F1_SPEC, x).vector) / eps
        analytic = tri.matvec(h.interior)
        assert np.linalg.norm(fd - analytic) <= 1e-5 * (1.0 + np.linalg.norm(analytic))


def test_solve_tridiagonal_2x2():
    tri = Tridiagonal(diag=[-2.0, -2.0])
    np.testing.assert_allclose(
        solve_tridiagonal(tri, [1.0, 0.0]), [-2.0 / 3.0, -1.0 / 3.0], rtol=1e-14
    )


def test_solve_tridiagonal_quadratic_closed_form():
    # h_k = (k^2 - N k)/N^2 has second difference 2/N^2 and zero boundary
    n = 40
    k = np.arange(1, n)
    h = solve_tridiagonal(Tridiagonal(diag=np.full(n - 1, -2.0)), np.full(n - 1, 2.0 / n**2))
    np.testing.assert_allclose(h, (k**2 - n * k) / n**2, rtol=1e-12, atol=1e-15)


def test_solve_tridiagonal_residual_oracle():
    rng = np.random.default_rng(9)
    tri = Tridiagonal(diag=np.full(50, -2.0))
    for _ in range(10):
        rhs = rng.normal(size=50)
        h = solve_tridiagonal(tri, rhs)
        assert np.linalg.norm(tri.matvec(h) - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))


def test_solve_tridiagonal_singular():
    with pytest.raises(SingularJacobianError):
        solve_tridiagonal(Tridiagonal(diag=[1.0, 1.0]), [1.0, 0.0])
    with pytest.raises(SingularJacobianError):
        solve_tridiagonal(Tridiagonal(diag=[0.0, 1.0]), [1.0, 0.0])


def test_solve_tridiagonal_matches_general_band_reference():
    # diagonals of both signs over six decades, with zero and 1e-13 entries
    # mixed in, so that each order sees solves and singular pivots
    rng = np.random.default_rng(2024)
    for m in (1, 2, 3, 17, 1000, 2048):
        outcomes = set()
        for _ in range(40):
            diag = rng.normal(scale=3.0, size=m) * rng.choice([1e-3, 1.0, 1e3], size=m)
            special = rng.random(m)
            diag[special < 0.05] = 0.0
            diag[(special >= 0.05) & (special < 0.1)] = 1e-13 * rng.choice([-1.0, 1.0])
            rhs = rng.normal(size=m)
            ones = np.ones(m - 1)
            try:
                expected = general_band_solve(ones, diag, ones, rhs)
            except SingularJacobianError:
                with pytest.raises(SingularJacobianError):
                    solve_tridiagonal(Tridiagonal(diag=diag), rhs)
                outcomes.add("singular")
                continue
            got = solve_tridiagonal(Tridiagonal(diag=diag), rhs)
            assert got.tobytes() == expected.tobytes()
            outcomes.add("solved")
        assert outcomes == {"solved", "singular"}, m


def jacobian_like(rng, m, kind):
    """The diagonal -2 - g/N^2 (N = m + 1) of a Jacobian with f_x = g >= -0.9."""
    g = rng.uniform(-0.9, 3.0, size=m) if kind == "uniform" else rng.choice([-0.9, 2.5], size=m)
    return -2.0 - g / (m + 1) ** 2, g


def test_solve_tridiagonal_order_2048_is_still_elimination():
    # the largest order Thomas elimination solves, bit for bit
    rng = np.random.default_rng(2048)
    ones = np.ones(2047)
    for kind in ("uniform", "two-valued"):
        diag, _ = jacobian_like(rng, 2048, kind)
        rhs = rng.normal(size=2048)
        got = solve_tridiagonal(Tridiagonal(diag=diag), rhs)
        assert got.tobytes() == general_band_solve(ones, diag, ones, rhs).tobytes()


@pytest.mark.parametrize("m", [2049, 4097, 65537])
@pytest.mark.parametrize("kind", ["uniform", "two-valued"])
def test_cyclic_reduction_is_backward_stable(m, kind):
    # above order 2048 the solve reduces; it is backward stable, so it agrees
    # with elimination to within the condition number times eps
    rng = np.random.default_rng(m)
    eps = np.finfo(float).eps
    diag, g = jacobian_like(rng, m, kind)
    tri = Tridiagonal(diag=diag)
    n = m + 1
    norm_j = 2.0 + np.max(np.abs(diag))
    # smallest eigenvalue of -J, from f_x >= min(g)
    mu = (4.0 * n**2 * np.sin(np.pi / (2 * n)) ** 2 + g.min()) / n**2
    ones = np.ones(m - 1)
    for rhs in (rng.normal(size=m), np.full(m, 1.0 / n**2)):
        h = solve_tridiagonal(tri, rhs)
        assert np.isfinite(h).all()
        assert np.linalg.norm(tri.matvec(h) - rhs) <= 4.0 * eps * norm_j * np.linalg.norm(h)
        expected = general_band_solve(ones, diag, ones, rhs)
        kappa = norm_j / mu
        assert np.linalg.norm(h - expected) <= kappa * eps * np.linalg.norm(expected)


def reduced_pivot_vanishes(m, row):
    """-2 on the diagonal, changed so that row ``row``'s pivot is zero.

    Cyclic reduction eliminates row 1 at level 1 and row 3 at level 2;
    their reduced diagonals are d1 + 1 and d3 + 1 + 0.5.
    """
    diag = np.full(m, -2.0)
    diag[row] = {1: -1.0, 3: -1.5}[row]
    return diag


def pivot_small_against_one_coupling(m, side):
    """-2 on the diagonal, changed so that row 3's pivot is small only
    against one coupling, on ``side``, of the row it is reduced from.

    At level 1 row 3 has diagonal 1 and couplings 10 on ``side`` and 0.5 on
    the other, its neighbour on ``side`` has diagonal 1e6 + 10.5, and the
    other neighbour's diagonal is set so that row 3's level-2 pivot is
    5e-12: below 1e-12 times 10 but above 1e-12 times 1.
    """
    big, small = (1, 5) if side == "left" else (5, 1)
    diag = np.full(m, -2.0)
    diag[3], diag[(big + 3) // 2], diag[big] = -9.5, -0.1, 1e6
    diag[small] = 0.25 / (1.0 - 100.0 / (1e6 + 10.5) - 5e-12) - 1.0
    return diag


@pytest.mark.parametrize(
    "m, diag, row",
    [(4097, np.where(np.arange(4097) == 100, 0.0, -2.0), 100),
     (4097, np.where(np.arange(4097) == 100, 1e-13, -2.0), 100),
     (4097, reduced_pivot_vanishes(4097, 1), 1),
     (4097, reduced_pivot_vanishes(4097, 3), 3),
     (4097, pivot_small_against_one_coupling(4097, "left"), 3),
     (4097, pivot_small_against_one_coupling(4097, "right"), 3),
     (2049, reduced_pivot_vanishes(2049, 1), 1),
     # the same matrix at order 2048 goes to elimination, whose zero pivot is row 2
     (2048, reduced_pivot_vanishes(2048, 1), 2)],
    ids=["zero", "tiny", "level1", "level2", "left_coupling", "right_coupling", "order2049",
         "order2048"],
)
def test_solve_tridiagonal_names_the_vanishing_pivot(m, diag, row):
    with pytest.raises(SingularJacobianError, match=f"^vanishing pivot at row {row}$"):
        solve_tridiagonal(Tridiagonal(diag=diag), np.ones(m))


def test_elimination_names_the_first_vanishing_pivot():
    # the rule runs on all pivots after the sweep, and must name the row a
    # test inside the loop named: an exact zero stops the sweep, a tiny
    # pivot does not, and a later row may fail too
    tiny = 1.0 + 1e-13
    again = 1.0 / (tiny - 1.0)  # makes the pivot after the tiny one exactly zero
    cases = [
        [1.0, 1.0, 5.0],  # a zero pivot in the middle of the sweep
        [1.0, tiny, 5.0],  # a tiny nonzero pivot there
        [1.0, 1.0, 0.0, 5.0],  # a zero pivot, then a zero entry the sweep never reaches
        [1.0, tiny, 5.0, 0.0],  # a tiny pivot, then another
        [1.0, tiny, again, 5.0],  # a tiny pivot, then a zero one
    ]
    for diag in cases:
        with pytest.raises(SingularJacobianError, match="^vanishing pivot at row 1$"):
            solve_tridiagonal(Tridiagonal(diag=diag), np.ones(len(diag)))


def test_cyclic_reduction_overflow_is_singular():
    # pivots of 1e-11 pass the rule but scale the right-hand side by 1e11
    with pytest.raises(SingularJacobianError, match="non-finite solution"):
        solve_tridiagonal(Tridiagonal(diag=np.full(4097, 1e-11)), np.full(4097, 1e300))


@pytest.mark.parametrize("m", [10, 2049])
def test_overflow_is_singular_on_both_routes(m):
    # elimination (order 10) overflows on Python floats without a warning;
    # it must raise as cyclic reduction (order 2049) does, not return NaN
    with pytest.raises(SingularJacobianError, match="^non-finite solution at row 0$"):
        solve_tridiagonal(Tridiagonal(diag=np.full(m, 1e-11)), np.full(m, 1e300))


def test_elimination_never_returns_non_finite():
    # elimination checks only row 0 of its result: a non-finite entry must
    # reach row 0 through the back substitution
    with pytest.raises(SingularJacobianError, match="^non-finite solution at row 0$"):
        # overflow in the back substitution alone: row 1 is finite (1e304)
        solve_tridiagonal(Tridiagonal(diag=[1e-6, 1e6 + 1e-4]), [0.0, 1e300])
    rng = np.random.default_rng(2048)
    outcomes = set()
    for m in (1, 2, 10, 257, 2048):
        for _ in range(30):
            diag = rng.normal(scale=3.0, size=m) * rng.choice([1e-3, 1.0, 1e3, 1e150], size=m)
            diag[rng.random(m) < 0.001] = 0.0
            rhs = rng.normal(size=m) * rng.choice([1.0, 1e300], size=m)
            rhs[rng.random(m) < 0.01] = rng.choice([np.inf, -np.inf, np.nan])
            try:
                h = solve_tridiagonal(Tridiagonal(diag=diag), rhs)
            except SingularJacobianError as exc:
                outcomes.add(str(exc).split(" at ")[0])
                continue
            assert np.isfinite(h).all()
            outcomes.add("solved")
    assert outcomes == {"solved", "vanishing pivot", "non-finite solution"}


def test_cyclic_reduction_never_returns_non_finite():
    # diagonals of both signs over many decades, with zero and 1e-13 entries
    # mixed in: each solve raises or returns a finite vector
    rng = np.random.default_rng(4097)
    outcomes = set()
    for m in (2049, 2050, 4097):
        for _ in range(30):
            diag = rng.normal(scale=3.0, size=m) * rng.choice([1e-3, 1.0, 1e3, 1e150], size=m)
            special = rng.random(m)
            diag[special < 0.001] = 0.0
            diag[(special >= 0.001) & (special < 0.002)] = 1e-13
            rhs = rng.normal(size=m) * rng.choice([1.0, 1e300])
            try:
                h = solve_tridiagonal(Tridiagonal(diag=diag), rhs)
            except SingularJacobianError:
                outcomes.add("singular")
                continue
            assert np.isfinite(h).all()
            outcomes.add("solved")
    assert outcomes == {"solved", "singular"}


def test_solve_tridiagonal_dimension_mismatch():
    tri = Tridiagonal(diag=[-2.0, -2.0])
    with pytest.raises(ValueError):
        solve_tridiagonal(tri, [1.0, 0.0, 0.0])


def test_linearized_solve_zero_rhs():
    x = GridFunction.zeros(8)
    h = GridFunction.from_interior(solve_tridiagonal(jacobian(F1_SPEC, x), np.zeros(7)))
    assert np.all(h.values == 0.0)


def test_linearized_solve_n3():
    x = GridFunction.zeros(3)
    h = GridFunction.from_interior(solve_tridiagonal(jacobian(ZERO_F, x), [1.0, 0.0]))
    np.testing.assert_allclose(h.interior, [-2.0 / 3.0, -1.0 / 3.0], rtol=1e-14)


def test_linearized_solve_accuracy():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = random_element(32, rng, amplitude=2.0)
        a = rng.normal(size=31)
        tri = jacobian(F1_SPEC, x)
        h = GridFunction.from_interior(solve_tridiagonal(tri, a))
        assert np.linalg.norm(tri.matvec(h.interior) - a) <= 1e-10 * (1 + np.linalg.norm(a))


def test_linearized_solve_is_critical_point_of_phi():
    rng = np.random.default_rng(33)
    x = random_element(16, rng)
    a = rng.normal(size=15)
    h_star = GridFunction.from_interior(solve_tridiagonal(jacobian(F1_SPEC, x), a))
    base = phi_N(F1_SPEC, x, a, h_star)
    for _ in range(100):
        delta = rng.normal(scale=0.3, size=15)
        perturbed = GridFunction.from_interior(h_star.interior + delta)
        assert phi_N(F1_SPEC, x, a, perturbed) > base


def test_phi_zero_argument():
    x = GridFunction.zeros(8)
    assert phi_N(F1_SPEC, x, np.zeros(7), GridFunction.zeros(8)) == 0.0


def test_phi_without_f_is_half_delta_norm_squared():
    rng = np.random.default_rng(4)
    h = random_element(12, rng)
    value = phi_N(ZERO_F, GridFunction.zeros(12), np.zeros(11), h)
    np.testing.assert_allclose(value, 0.5 * norms(h).delta_norm ** 2, rtol=1e-14)


def test_phi_midpoint_convexity_gap():
    # for the half-weighted functional the midpoint gap is
    # (1/8) [ ||d(u-w)||^2 + fx-weighted term ] >= (1/8)(1 + lower)||u-w||_delta^2
    rng = np.random.default_rng(8)
    n = 32
    for spec in (F1_SPEC, QUAD):
        lower = spec.declared_fx_lower
        for _ in range(50):
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
            assert gap >= 0.125 * (1.0 + lower) * dist**2 - 1e-10


def test_phi_coercivity_surrogate():
    # Phi(h) >= (1 + B)/2 ||h||_delta^2 - N ||a|| ||h||_delta with B = min(lower, 0)
    rng = np.random.default_rng(12)
    n = 16
    for spec in (F1_SPEC, QUAD):
        b_hat = min(spec.declared_fx_lower, 0.0)
        for _ in range(100):
            x = random_element(n, rng, amplitude=2.0)
            a = rng.normal(size=n - 1)
            h = random_element(n, rng, amplitude=5.0)
            dn = norms(h).delta_norm
            bound = 0.5 * (1.0 + b_hat) * dn**2 - n * np.linalg.norm(a) * dn
            assert phi_N(spec, x, a, h) >= bound - 1e-10


def test_operator_coercivity_lower_bound():
    # ||D x|| >= (1 - A) ||x||_E - B / N^(3/2) wherever the growth bound holds;
    # with v = 0 the residual is D x
    rng = np.random.default_rng(21)
    for n in (4, 16, 64):
        for _ in range(50):
            x = random_element(n, rng, amplitude=5.0)
            m = norms(x)
            lhs = residual(F1_UNFORCED, x).norm
            rhs = (1.0 - F1_UNFORCED.declared_A) * m.e_norm - F1_UNFORCED.declared_B / n**1.5
            assert lhs >= rhs - 1e-10


def test_tridiagonal_validation():
    with pytest.raises(ValueError):
        Tridiagonal(diag=[1.0, np.inf])
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        Tridiagonal(diag=[np.inf])
