"""The CSV writers' '%.17g' kernel against '%' itself, value by value."""
import numpy as np

from polycbf import csvtext


def kernel_text(values) -> bytes:
    """',' + '%.17g' of each value, as the kernel lays them out."""
    return csvtext.text(csvtext.g17_slots(np.asarray(values, dtype=np.float64)))


def oracle_text(values) -> bytes:
    return b"".join(b",%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist())


def assert_kernel_matches(values):
    values = np.asarray(values, dtype=np.float64)
    if kernel_text(values) != oracle_text(values):
        slots = csvtext.g17_slots(values)
        wrong = [(v.hex(), slot.tobytes().replace(b"\0", b""), b",%.17g" % v)
                 for v, slot in zip(values.tolist(), slots)
                 if slot.tobytes().replace(b"\0", b"") != b",%.17g" % v]
        raise AssertionError(f"{len(wrong)} values differ, among them {wrong[:5]}")


def test_random_bit_patterns():
    # every exponent is drawn, so subnormals, NaN payloads and both infinities
    # appear among the random words; the named ones are added as well
    bits = np.random.default_rng(32).integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    named = np.array([0, 1, 0x000FFFFFFFFFFFFF, 0x7FF0000000000000, 0x7FF0000000000001,
                      0x7FF8000000000000, 0x7FFFFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF],
                     dtype=np.uint64)
    values = np.concatenate([bits, named, named | np.uint64(1 << 63)]).view(np.float64)
    assert (values == 0).any() and np.isnan(values).any() and np.isinf(values).any()
    assert ((np.abs(values) < 2.2250738585072014e-308) & (values != 0)).any()
    assert_kernel_matches(values)


def test_fixed_notation_range_at_random():
    rng = np.random.default_rng(33)
    exponents = rng.uniform(-4.5, 17.5, 200_000)
    assert_kernel_matches(np.where(rng.random(200_000) < 0.5, -1.0, 1.0) * 10.0 ** exponents)


def test_powers_of_ten_and_their_neighbours():
    # log10 rounds to the power itself next to it, so the first guess at the
    # exponent is off by one there; 1e-4 and 1e17 bound the fixed notation
    powers = np.array([10.0 ** k for k in range(-5, 19)] + [1e-4, 1e17])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_kernel_matches(np.concatenate([near, -near]))
    assert kernel_text([9.9999999999999991e-05, 1e-4, 99999999999999984.0, 1e17]) == \
        b",9.9999999999999991e-05,0.0001,99999999999999984,1e+17"


def test_seventeen_digit_ties_round_to_even():
    # x * 10**k lands exactly halfway between two 17-digit integers
    assert kernel_text([1000000000000000.25, 1000000000000000.75, -1000000000000000.25]) == \
        b",1000000000000000.2,1000000000000000.8,-1000000000000000.2"
    quarters = 1e15 + np.arange(1, 40_000) * 0.25
    eighths = np.random.default_rng(34).integers(2 ** 53, 2 ** 54, 40_000) / 8.0
    assert_kernel_matches(np.concatenate([quarters, eighths, -quarters]))


def test_zeros_short_fractions_and_integers():
    ints = np.arange(-20_000, 20_000, dtype=np.float64)
    short = np.arange(1, 20_000) / np.array([2.0, 4.0, 8.0, 1e4])[:, None]
    assert_kernel_matches(np.concatenate([ints, short.ravel(), [0.0, -0.0, 0.5, -0.5]]))
    assert kernel_text([0.0, -0.0, 1.0, 0.1, 12345.0]) == b",0,-0,1,0.10000000000000001,12345"


def test_empty_input():
    assert csvtext.g17_slots(np.zeros(0)).shape == (0, 8)
    assert kernel_text([]) == b""


def test_tables_are_the_groups_text():
    groups = csvtext._GROUPS.view(np.uint8).reshape(3, 10000, 4)
    for g in (0, 7, 40, 305, 1200, 9999):
        digits = b"%04d" % g
        leading = (b"%d" % g if g else b"").rjust(4, b"\0")
        assert groups[0, g].tobytes() == leading
        assert groups[1, g].tobytes() == digits
        assert groups[2, g].tobytes() == digits.rstrip(b"0").ljust(4, b"\0")
