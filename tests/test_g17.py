"""The CSV kernel must spell every float exactly as ``'%.17g'`` does."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dirbvp import _g17
from dirbvp._g17 import csv_rows


def reference_fields(values: np.ndarray) -> np.ndarray:
    text = "".join(map("%-24.17g".__mod__, values.tolist())).encode("ascii")
    padded = np.frombuffer(text, dtype=np.uint8).reshape(values.size, 24)
    return np.where(padded == ord(" "), 0, padded)


def assert_spelled(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    # blocks as the CSV writer uses them keep the kernel's temporaries small
    got = np.concatenate([_g17._fields(values[lo : lo + 4096])
                          for lo in range(0, values.size, 4096)])
    bad = np.flatnonzero((got != reference_fields(values)).any(axis=1))
    assert bad.size == 0, [
        (float(values[i]), got[i].tobytes().rstrip(b"\0"), "%.17g" % values[i]) for i in bad[:5]
    ]


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


def test_rows_across_digit_counts():
    rng = np.random.default_rng(7)
    for first, count in ((0, 12), (9990, 20), (99_998, 5), (999_990, 30), (12_345_670, 3)):
        t = rng.normal(size=count) * rng.choice([1e-300, 1e-7, 1.0, 1e20], size=count)
        x = -np.abs(rng.normal(size=count)) * 1e-6
        expected = "".join(map("%d,%.17g,%.17g\n".__mod__,
                               zip(range(first, first + count), t.tolist(), x.tolist())))
        assert csv_rows(first, t, x) == expected
