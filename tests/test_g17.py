"""The CSV kernel must spell every float exactly as ``'%.17g'`` does."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dirbvp._g17 import csv_rows


def assert_spelled(values) -> None:
    """Each value reads as '%.17g' writes it, in the t and in the x column."""
    values = np.asarray(values, dtype=np.float64)
    # blocks as the CSV writer uses them keep the kernel's temporaries small;
    # the x column takes each block reversed
    for lo in range(0, values.size, 4096):
        t = values[lo : lo + 4096]
        x = t[::-1]
        got = csv_rows(lo, t, x).splitlines(keepends=True)
        expected = list(map("%d,%.17g,%.17g\n".__mod__,
                            zip(range(lo, lo + t.size), t.tolist(), x.tolist())))
        assert len(got) == len(expected)
        bad = [(row, want) for row, want in zip(got, expected) if row != want]
        assert not bad, bad[:5]


def neighbours(centres, steps: int) -> np.ndarray:
    """Each centre and the ``steps`` floats on either side of it."""
    centres = np.asarray(centres, dtype=np.float64)
    out = [centres]
    up = down = centres
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_random_bit_patterns():
    bits = np.random.default_rng(20170417).integers(0, 2**64, 1_002_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:1_000_000]
    assert values.size == 1_000_000
    assert_spelled(values)


@settings(deadline=None, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats(values):
    assert_spelled(values)


def test_zeros_subnormals_and_non_finite():
    tiny = 5e-324
    assert_spelled([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                    2.2250738585072009e-308, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308])


def test_powers_of_ten_and_two_with_neighbours():
    powers = 10.0 ** np.arange(-300, 301)
    assert_spelled(np.concatenate([neighbours(powers, 1), -powers]))
    assert_spelled(neighbours(2.0 ** np.arange(-1074, 1024), 1))


def test_notation_switches():
    # '%.17g' turns scientific below 1e-4 and from 1e17 on, judged after
    # rounding, so floats just below each switch can round across it
    assert_spelled(neighbours([1e-5, 1e-4, 1e16, 1e17], 300))
    assert_spelled(neighbours([-1e-5, -1e-4, -1e16, -1e17], 300))


def test_grid_nodes():
    # k/2^18 has 18 significant digits ending in 5 for k odd above 0.1:
    # ties, which '%.17g' rounds to even
    for n in (3, 7, 10, 1000, 2**18, 10**6):
        assert_spelled(np.arange(n + 1) / n)


def test_ties_round_to_even():
    values = np.array([12345678901234.5625, 12345678901234.5635 - 0.001, 0.5 + 2.0**-53,
                       1 / 2**18 * 131071, 3 / 2**18 + 0.25])
    assert_spelled(np.concatenate([values, -values]))


def test_dot_among_the_digits():
    # 10 <= |v| < 1e16: the dot falls among d1..d15, so the digit words
    # move up one byte from there, into the exponent word
    values = [10.0, 99.99999999999999, 100.0, 123456789012345.0, 9999999999999998.0, 1e15 + 0.5]
    assert_spelled(values + [-v for v in values])


def test_each_inner_exponent_with_each_digit_count():
    digits = "12345678923456789"
    values = [float(f"{digits[0]}.{digits[1:nsig]}e{x}")
              for x in range(1, 16) for nsig in range(1, 18)]
    assert_spelled(values + [-v for v in values])


def test_pinned_spellings():
    # fl(1e-280), the least value in range, has the exponent -281
    assert (csv_rows(0, [1e-280], [-1e-280])
            == "0,9.9999999999999996e-281,-9.9999999999999996e-281\n")
    # the digit moved out by the dot comes before the x column's newline
    assert csv_rows(7, [1e15 + 0.5], [1e15 + 0.5]) == "7,1000000000000000.5,1000000000000000.5\n"
    assert csv_rows(7, [0.5], [-123456789.12345679]) == "7,0.5,-123456789.12345679\n"
    assert csv_rows(8, [0.0], [-0.0]) == "8,0,-0\n"


def test_rows_across_digit_counts():
    rng = np.random.default_rng(7)
    for first, count in ((0, 12), (9990, 20), (99_998, 5), (999_990, 30), (12_345_670, 3),
                         (99_999_998, 4)):
        t = rng.normal(size=count) * rng.choice([1e-300, 1e-7, 1.0, 1e20], size=count)
        x = -np.abs(rng.normal(size=count)) * 1e-6
        expected = "".join(map("%d,%.17g,%.17g\n".__mod__,
                               zip(range(first, first + count), t.tolist(), x.tolist())))
        assert csv_rows(first, t, x) == expected
