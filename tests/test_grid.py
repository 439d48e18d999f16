import numpy as np
import pytest

from dirbvp.grid import (
    GridFunction,
    forward_difference,
    norms,
    random_element,
    second_difference,
)


def test_forward_difference_hand_values():
    assert np.array_equal(forward_difference(GridFunction(2, [0, 3, 0])), [3, -3])
    assert np.array_equal(
        forward_difference(GridFunction(4, [0, 1, 4, 3, 0])), [1, 3, -1, -3]
    )


def test_forward_difference_zero():
    assert np.array_equal(forward_difference(GridFunction.zeros(7)), np.zeros(7))


def test_second_difference_hand_values():
    assert np.array_equal(second_difference(GridFunction(4, [0, 1, 4, 3, 0])), [2, -4, -2])
    assert np.array_equal(second_difference(GridFunction.zeros(5)), np.zeros(4))


def test_second_difference_exact_on_quadratic():
    # (k+1)^2 - 2k^2 + (k-1)^2 = 2, so the second difference of
    # (k^2 - 10k)/100 is exactly 2/100 at every interior node.
    k = np.arange(11)
    x = GridFunction(10, (k**2 - 10 * k) / 100)
    np.testing.assert_allclose(second_difference(x), np.full(9, 0.02), rtol=1e-13)


def test_second_difference_is_iterated_forward_difference():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 17):
        x = random_element(n, rng)
        np.testing.assert_allclose(
            second_difference(x), np.diff(forward_difference(x)), rtol=1e-14
        )


def test_norms_hand_values():
    m = norms(GridFunction(2, [0, 3, 0]))
    assert m.n_norm == 3.0
    np.testing.assert_allclose(m.delta_norm, 3 * np.sqrt(2.0))
    assert m.e_norm == 6.0  # second difference is 0 - 6 + 0
    assert m.sup_norm == 3.0

    m = norms(GridFunction(4, [0, 1, 4, 3, 0]))
    np.testing.assert_allclose(m.n_norm, np.sqrt(26.0))
    np.testing.assert_allclose(m.delta_norm, np.sqrt(20.0))
    np.testing.assert_allclose(m.e_norm, np.sqrt(24.0))
    assert m.sup_norm == 4.0

    m = norms(GridFunction.zeros(6))
    assert (m.n_norm, m.delta_norm, m.e_norm, m.sup_norm) == (0.0, 0.0, 0.0, 0.0)


def test_norms_absolutely_homogeneous_and_definite():
    rng = np.random.default_rng(11)
    for n in (2, 4, 9, 33):
        x = random_element(n, rng)
        scaled = GridFunction(n, -2.5 * x.values)
        a, b = norms(x), norms(scaled)
        np.testing.assert_allclose(
            [b.n_norm, b.delta_norm, b.e_norm, b.sup_norm],
            [2.5 * a.n_norm, 2.5 * a.delta_norm, 2.5 * a.e_norm, 2.5 * a.sup_norm],
            rtol=1e-14,
        )
        assert min(a.n_norm, a.delta_norm, a.e_norm, a.sup_norm) > 0.0


def test_norm_chain():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 5, 8, 13, 21, 32, 64):
        for _ in range(50):
            m = norms(random_element(n, rng, amplitude=3.0))
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


def summation_by_parts_defect(a, b):
    """Absolute defect of summation by parts for a_1..a_{m+1}, b_1..b_{m+1}:

        sum_{k=1}^{m} a_k (b_{k+1} - b_k)
            = a_{m+1} b_{m+1} - a_1 b_1 - sum_{k=1}^{m} (a_{k+1} - a_k) b_{k+1}

    holds exactly, so the defect is zero up to roundoff.
    """
    lhs = np.sum(a[:-1] * np.diff(b))
    rhs = a[-1] * b[-1] - a[0] * b[0] - np.sum(np.diff(a) * b[1:])
    return abs(float(lhs - rhs))


def test_summation_by_parts_hand_case():
    k = np.arange(1.0, 5.0)  # a_k = b_k = k for k = 1..4, m = 3
    assert summation_by_parts_defect(k, k) == 0.0


def test_summation_by_parts_constant_a():
    rng = np.random.default_rng(3)
    b = rng.normal(size=6)
    assert summation_by_parts_defect(np.full(6, 4.2), b) <= 1e-14


def test_summation_by_parts_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = int(rng.integers(1, 51))
        scale = 10.0 ** rng.integers(-2, 3)
        a = rng.normal(scale=scale, size=m + 1)
        b = rng.normal(scale=scale, size=m + 1)
        bound = 1e-10 * (1.0 + m * np.max(np.abs(a)) * np.max(np.abs(b)))
        assert summation_by_parts_defect(a, b) <= bound


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(1, [0, 0])
    with pytest.raises(ValueError):
        GridFunction(3, [0, 1, 2])  # wrong length
    with pytest.raises(ValueError):
        GridFunction(2, [0, np.nan, 0])
    with pytest.raises(ValueError):
        GridFunction(2, [0, -np.inf, 0])
    with pytest.raises(ValueError):
        GridFunction(2, [0.1, 1, 0])
    with pytest.raises(ValueError):
        GridFunction(2, [0, 1, -0.3])


def test_grid_function_accessors():
    x = GridFunction.from_interior([2.0, -1.0, 0.5])
    assert x.n == 4
    assert np.array_equal(x.interior, [2.0, -1.0, 0.5])
    np.testing.assert_allclose(x.nodes, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        x.values[1] = 9.0  # stored values are read-only
    given = np.array([0.0, 1.0, 0.0])
    assert not np.shares_memory(GridFunction(2, given).values, given)  # and a copy


@pytest.mark.parametrize(
    "amplitude", [np.nan, np.inf, -np.inf, 1e308, np.float64(1e308), -1.0, -0.5, True, np.bool_(False)]
)
def test_random_element_rejects_bad_amplitude(amplitude):
    # numpy's own errors named high - low, and True passed as 1
    with pytest.raises(ValueError, match="amplitude"):
        random_element(4, np.random.default_rng(0), amplitude)
