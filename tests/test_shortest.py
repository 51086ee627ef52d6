import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcgrid.shortest import BLOCK_ROWS, csv_rows


def reference(table):
    """The text the kernel must reproduce: each value's repr."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


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


def test_bulk_edges_across_blocks():
    # every power of two and of ten and their neighbours, both notation
    # edges, the end of exact integers and random bit patterns, over more
    # than one block
    rng = np.random.default_rng(2024)
    edges = _ulp_neighbours(np.concatenate([
        2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309),
        [2.0**53 - 1, 2.0**53 + 1, 1e-5, 1e-4, 1e15, 1e16, 2.0**50]]))
    bits = rng.integers(0, 2**64, size=40_000, dtype=np.uint64)
    values = np.concatenate([edges, bits.view(np.float64),
                             rng.standard_normal(10_000),
                             np.exp(rng.uniform(-745, 40, 10_000))])
    table = values[:len(values) // 7 * 7].reshape(-1, 7)
    assert len(table) > BLOCK_ROWS
    assert csv_rows(table) == reference(table)
