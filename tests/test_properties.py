"""Property-based invariants over randomly generated connected networks."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcgrid import numerics
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

from .conftest import block_shapes, count_eig_sym


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


@st.composite
def mirrored_networks(draw, n_max=16):
    """A random connected network with each edge (i, j) joined by its
    mirror image (n - 1 - j, n - 1 - i) at the same resistance."""
    net = draw(connected_networks(n_max=n_max))
    n = net.node_count
    edges = {}
    for i, j, r in net.edges:
        edges[i, j] = edges[n - 1 - j, n - 1 - i] = r
    return build_network(n, [(i, j, r) for (i, j), r in edges.items()])


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


def _split_spectrum(net, sides, symmetries):
    """The dense route's spectrum of ``net`` under the group ``symmetries``
    of the box ``sides`` and the shapes of the matrices that
    :func:`eig_sym` saw on the way."""
    with pytest.MonkeyPatch.context() as patch:
        shapes = count_eig_sym(patch)
        spec = numerics.laplacian_spectrum(net.ends, net.resistance, sides,
                                           symmetries)
    return spec, shapes


@given(mirrored_networks())
@settings(max_examples=50, deadline=None)
def test_mirror_split_matches_eigh(net):
    n = net.node_count
    assert numerics._symmetries((n,), net.ends, net.resistance) == ((0,),
                                                                   False)
    spec, shapes = _split_spectrum(net, (n,), ((0,), False))
    assert shapes == block_shapes((n,))
    ref = np.linalg.eigvalsh(laplacian(net))
    assert spec.values[0] == 0.0
    assert np.abs(spec.values - ref).max() <= 1e-12 * ref[-1]


def _reflect(node, sides, axis):
    """``node`` of the row-major box ``sides`` with ``axis`` reversed."""
    coords = list(np.unravel_index(node, sides))
    coords[axis] = sides[axis] - 1 - coords[axis]
    return int(np.ravel_multi_index(coords, sides))


def _symmetric_axes(edges, sides):
    """The axes of ``sides`` whose reversal maps the {(i, j): R} edges, i < j,
    onto themselves with equal resistances, by brute force."""
    def image(axis, i, j):
        a, b = _reflect(i, sides, axis), _reflect(j, sides, axis)
        return min(a, b), max(a, b)
    return [axis for axis in range(len(sides))
            if {image(axis, i, j): r for (i, j), r in edges.items()} == edges]


def _swap(node, sides):
    """``node`` of the row-major box ``sides`` with axes 0 and 1 swapped,
    ``sides[0] == sides[1]``."""
    coords = list(np.unravel_index(node, sides))
    coords[0], coords[1] = coords[1], coords[0]
    return int(np.ravel_multi_index(coords, sides))


def _swap_symmetric(edges, sides):
    """Whether the swap of axes 0 and 1 of ``sides`` maps the {(i, j): R}
    edges, i < j, onto themselves with equal resistances, by brute force;
    False unless the box has two equal first sides."""
    if len(sides) < 2 or sides[0] != sides[1]:
        return False
    return {tuple(sorted((_swap(i, sides), _swap(j, sides)))): r
            for (i, j), r in edges.items()} == edges


@st.composite
def reversal_symmetric_networks(draw):
    """A random box of 1 to 3 sides of 2 to 6 nodes, its first two sides
    made equal in about half the draws, and a random connected network on
    its nodes joined by its images under the group that the reversals of
    a random subset of the box's axes and, on equal first sides, perhaps
    the swap of axes 0 and 1 generate, one resistance on each orbit."""
    sides = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    if len(sides) > 1 and draw(st.booleans()):
        sides[1] = sides[0]
    sides = tuple(sides)
    maps = [lambda v, k=k: _reflect(v, sides, k)
            for k in draw(st.sets(st.integers(0, len(sides) - 1)))]
    if len(sides) > 1 and sides[0] == sides[1] and draw(st.booleans()):
        maps.append(lambda v: _swap(v, sides))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = math.prod(sides)
    pairs = [(int(rng.integers(v)), v) for v in range(1, n)]  # a tree
    pairs += [tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
              for _ in range(int(rng.integers(0, n + 1)))]
    edges = {}
    for pair in pairs:
        orbit, grown = set(), {pair}
        while grown != orbit:  # close the orbit under the maps
            orbit = grown
            grown = orbit | {tuple(sorted(map(g, edge)))
                             for g in maps for edge in orbit}
        if pair not in edges:
            edges.update(dict.fromkeys(orbit, float(rng.uniform(0.25, 4.0))))
    net = build_network(n, [(i, j, r) for (i, j), r in edges.items()])
    return (net, sides, _symmetric_axes(edges, sides),
            _swap_symmetric(edges, sides))


@given(reversal_symmetric_networks())
@settings(max_examples=80, deadline=None)
def test_reversal_split_matches_eigh(case):
    net, sides, axes, swap = case
    n = net.node_count
    ref = np.linalg.eigvalsh(laplacian(net))
    # the group decided from the edges is the one found by brute force
    assert numerics._symmetries(sides, net.ends, net.resistance) == (
        tuple(axes), swap)
    spec, shapes = _split_spectrum(net, sides, (tuple(axes), swap))
    assert shapes == block_shapes(sides, axes, swap)
    assert spec.values[0] == 0.0
    assert np.abs(spec.values - ref).max() <= 1e-12 * ref[-1]
    # the whole-graph hint (n,) sees at most the reversal of every axis at
    # once: the same values from no more blocks
    edges = {(i, j): r for i, j, r in net.edges}
    mirror = _symmetric_axes(edges, (n,))
    assert numerics._symmetries((n,), net.ends, net.resistance) == (
        tuple(mirror), False)
    wrong, wrong_shapes = _split_spectrum(net, (n,), (tuple(mirror), False))
    assert wrong_shapes == block_shapes((n,), mirror, False)
    assert len(wrong_shapes) <= len(shapes)
    assert np.abs(wrong.values - ref).max() <= 1e-12 * ref[-1]


@given(reversal_symmetric_networks(), st.integers(1, 3),
       st.sampled_from([None, 0.3]))
@settings(max_examples=50, deadline=None)
def test_fuzz_group_is_its_own(case, h, r_fuzz):
    # a fuzz of a base that is no box has the group that its own edges
    # decide under the base's ``sides``: taken from the base when the base
    # has the full group, else decided from the fuzz's edges. The base's
    # automorphisms keep hop distance, so that group holds the base's.
    net, sides, axes, swap = case
    assume(net.box is None)
    net.__dict__["sides"] = sides
    assert net.symmetries == (tuple(axes), swap)
    fuzz = generate_hfuzz(net, h, r_fuzz)
    own_axes, own_swap = numerics._symmetries(sides, fuzz.ends,
                                              fuzz.resistance)
    assert fuzz.symmetries == (own_axes, own_swap)
    assert set(axes) <= set(own_axes) and own_swap >= swap
    ref = np.linalg.eigvalsh(laplacian(fuzz))
    assert fuzz.spectrum.values[0] == 0.0
    assert np.abs(fuzz.spectrum.values - ref).max() <= 1e-12 * ref[-1]
