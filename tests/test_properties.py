"""Property-based invariants over randomly generated connected networks."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcgrid.network import (
    build_network,
    generate_hfuzz,
    generate_lattice,
    laplacian,
    lattice_box,
    reduced_laplacian,
)
from dcgrid.numerics import eig_sym
from dcgrid.resistance import kstar, reff_matrix
from dcgrid.systems import (
    ControllerParams,
    assemble_dapi,
    assemble_droop,
    assemble_slack,
    h2_closed_form_dapi,
    h2_closed_form_droop,
    h2_closed_form_slack,
    h2_lyapunov,
)


@st.composite
def connected_networks(draw, n_min=2, n_max=8):
    """Random spanning tree plus extra chords, with varied resistances."""
    n = draw(st.integers(n_min, n_max))
    resist = st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)
    edges = {}
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges[(u, v)] = draw(resist)
    extras = draw(st.integers(0, n))
    for _ in range(extras):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            key = (min(u, v), max(u, v))
            if key not in edges:
                edges[key] = draw(resist)
    return build_network(n, [(u, v, r) for (u, v), r in edges.items()])


positive_params = st.builds(
    ControllerParams,
    c=st.floats(0.1, 10.0),
    k_p=st.floats(0.01, 5.0),
    k=st.floats(0.1, 200.0),
    gamma=st.floats(0.1, 2000.0),
)


@given(connected_networks())
@settings(max_examples=50, deadline=None)
def test_laplacian_rows_sum_to_zero(net):
    lap = laplacian(net)
    assert np.array_equal(lap, lap.T)
    scale = max(np.abs(lap).max(), 1.0)
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * scale


def loop_laplacian(net):
    """Reference Laplacian, accumulated one edge at a time."""
    lap = np.zeros((net.node_count, net.node_count))
    for i, j, r in net.edges:
        g = 1.0 / r
        lap[i, j] -= g
        lap[j, i] -= g
        lap[i, i] += g
        lap[j, j] += g
    return lap


@given(connected_networks(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_build_network_canonical_order(net, rand):
    # the same edges shuffled and with random endpoint order build the same
    # network: sorted (i, j, R) triples with i < j
    edges = [(j, i, r) if rand.random() < 0.5 else (i, j, r)
             for i, j, r in net.edges]
    rand.shuffle(edges)
    rebuilt = build_network(net.node_count, edges)
    expected = tuple(sorted((min(i, j), max(i, j), float(r))
                            for i, j, r in edges))
    assert rebuilt.edges == expected
    assert rebuilt == net and hash(rebuilt) == hash(net)


@given(connected_networks())
@settings(max_examples=50, deadline=None)
def test_laplacian_matches_edge_loop(net):
    lap, ref = laplacian(net), loop_laplacian(net)
    assert np.abs(lap - ref).max() <= 1e-15 * np.abs(ref).max()


@given(connected_networks(n_min=3), st.data())
@settings(max_examples=50, deadline=None)
def test_reduced_spectrum_interlaces(net, data):
    ground = data.draw(st.integers(0, net.node_count - 1))
    lam = eig_sym(laplacian(net))
    red = eig_sym(reduced_laplacian(laplacian(net), ground))
    # Cauchy interlacing: lambda_i <= mu_i <= lambda_{i+1}
    for i, mu in enumerate(red):
        assert lam[i] - 1e-9 <= mu <= lam[i + 1] + 1e-9
    assert red[0] > 0


@given(connected_networks(n_max=6), positive_params)
@example(build_network(2, [(0, 1, 0.25)]),
         ControllerParams(c=8.0, k_p=0.01, k=0.1, gamma=755.5))
@settings(max_examples=25, deadline=None)
def test_closed_forms_match_lyapunov(net, params):
    # relative, as criterion 1 bounds the oracle: H2 values here reach
    # about 500, and the pinned draw's DAPI oracle (H2 = 200) is off by
    # 5.3e-9 relative from cond(A), its closed form by 9e-18 (mpmath)
    pairs = [(assemble_slack(net, params, ground=0),
              h2_closed_form_slack(net, params, 0)),
             (assemble_droop(net, params), h2_closed_form_droop(net, params)),
             (assemble_dapi(net, params), h2_closed_form_dapi(net, params))]
    for model, closed in pairs:
        assert abs(h2_lyapunov(model) - closed) <= 1e-6 * closed


@given(connected_networks(), positive_params)
@settings(max_examples=50, deadline=None)
def test_dapi_never_exceeds_droop(net, params):
    droop = h2_closed_form_droop(net, params)
    dapi = h2_closed_form_dapi(net, params)
    assert dapi <= droop * (1 + 1e-12)


@given(connected_networks(), st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_slack_lower_bounded_by_kstar(net, c):
    params = ControllerParams(c=c)
    slack = h2_closed_form_slack(net, params, ground=0)
    assert slack >= 0.5 * c * kstar(net) * (1 - 1e-10)


@given(connected_networks())
@settings(max_examples=50, deadline=None)
def test_hfuzz_radius_one_is_identity(net):
    assert generate_hfuzz(net, 1).edges == net.edges


@given(connected_networks())
@settings(max_examples=30, deadline=None)
def test_effective_resistance_is_a_metric(net):
    reff = reff_matrix(net)
    n = net.node_count
    assert np.allclose(reff, reff.T, atol=1e-10)
    assert np.all(np.diag(reff) <= 1e-10)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert reff[i, j] <= reff[i, k] + reff[k, j] + 1e-9


@given(st.lists(st.integers(2, 8), min_size=1, max_size=3),
       st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_lattice_spectrum_matches_eigh(sides, r):
    net = generate_lattice(len(sides), sides, r)
    assert lattice_box(net) == (tuple(sides), 1.0 / r)
    spec = net.spectrum
    lap = laplacian(net)
    ref = np.linalg.eigvalsh(lap)
    assert spec.values[0] == 0.0
    assert np.abs(spec.values - ref).max() <= 1e-12 * ref[-1]
    # the rows of L^+ at the corner ground and the far corner against the
    # dense pinv
    pinv = np.linalg.pinv(lap)
    n = net.node_count
    rows = spec.pinv(np.arange(n))[[0, n - 1]]
    assert np.allclose(rows, pinv[[0, n - 1]], rtol=1e-9,
                       atol=1e-9 * np.abs(pinv).max())
