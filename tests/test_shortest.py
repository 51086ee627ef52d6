from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcgrid import shortest
from dcgrid.shortest import BLOCK_ROWS, csv_rows


def reference(table):
    """The bytes the kernel must reproduce: each value's repr."""
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in table.tolist()).encode()


tables = st.tuples(st.integers(0, 40), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, shape,
                         elements=st.floats(allow_nan=True,
                                            allow_infinity=True,
                                            allow_subnormal=True)))


@given(tables)
@settings(max_examples=100, deadline=None)
@example(np.array([[0.0], [-0.0], [np.nan], [np.inf], [-np.inf], [5e-324],
                   [0.1], [-2.5e-05]]))
def test_same_text_as_repr(table):
    assert csv_rows(table) == reference(table)


def _ulp_neighbours(values):
    values = np.concatenate([values, -values])
    return np.concatenate([values, np.nextafter(values, np.inf),
                           np.nextafter(values, -np.inf)])


# Doubles read from short decimal strings: their scaled products lie near
# integers, and some are exact, where the certificate must refuse.
decimals = st.builds(
    lambda digits, exponent: float(f"{digits}e{exponent}"),
    st.integers(1, 17).flatmap(lambda n: st.integers(-10**n + 1, 10**n - 1)),
    st.integers(-340, 320))


@given(st.lists(decimals, min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_decimal_strings_same_text_as_repr(values):
    table = np.array(values).reshape(-1, 1)
    assert csv_rows(table) == reference(table)


def bulk_table():
    """Every power of two and of ten and their neighbours, both notation
    edges, the end of exact integers and random bit patterns, over more
    than one block."""
    rng = np.random.default_rng(2024)
    edges = _ulp_neighbours(np.concatenate([
        2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309),
        [2.0**53 - 1, 2.0**53 + 1, 1e-5, 1e-4, 1e15, 1e16, 2.0**50]]))
    bits = rng.integers(0, 2**64, size=40_000, dtype=np.uint64)
    values = np.concatenate([edges, bits.view(np.float64),
                             rng.standard_normal(10_000),
                             np.exp(rng.uniform(-745, 40, 10_000))])
    return values[:len(values) // 7 * 7].reshape(-1, 7)


def test_bulk_edges_across_blocks():
    table = bulk_table()
    assert len(table) > BLOCK_ROWS
    assert csv_rows(table) == reference(table)


def test_uncertain_values_fall_back_to_repr(monkeypatch):
    # a margin past one half certifies no floor, so every value but the
    # zeros written in place takes the repr path
    monkeypatch.setattr(shortest, "MARGIN", 0.6)
    table = bulk_table()
    assert csv_rows(table) == reference(table)


def test_scale_table_is_a_double_double():
    # C = 5^i / 2^q within 2^-104 C, Ch split into two halves of at most
    # 26 bits (Dekker's two-product is exact then), and mv Ch < 2^62 for
    # every mv < 2^55, so its int64 conversion cannot overflow
    scale = shortest._tables()[0]
    for exp2 in range(1, 1073):
        e2, q = shortest._decimal_scale(exp2)
        c = Fraction(5 ** (-e2 - q), 2**q)
        ch, hi, lo, cl = (Fraction(float(v)) for v in scale[:, exp2])
        assert abs(ch + cl - c) <= c / 2**104
        assert hi + lo == ch
        assert abs(hi.numerator).bit_length() <= 26
        assert abs(lo.numerator).bit_length() <= 26
    assert 2.0**55 * scale[0, 1:].max() < 2.0**62
