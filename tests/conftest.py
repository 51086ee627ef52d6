import math

import numpy as np
import pytest

from dcgrid import ControllerParams, build_network, network, numerics


@pytest.fixture
def k2():
    return build_network(2, [(0, 1, 1.0)])


@pytest.fixture
def p3():
    return build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def triangle():
    return build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.fixture
def unit_params():
    return ControllerParams(c=1.0, k_p=1.0, k=1.0, gamma=1.0)


@pytest.fixture
def paper_params():
    # the radial simulation study's gains with c rescaled to 1 F
    return ControllerParams(c=1.0, k_p=0.1, k=100.0, gamma=1000.0)


def random_connected_network(rng, n_min=3, n_max=12, edge_prob=0.5,
                             r_low=0.5, r_high=2.0):
    """Erdos-Renyi resistor network, redrawn until connected."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        edges = [(i, j, float(rng.uniform(r_low, r_high)))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < edge_prob]
        try:
            return build_network(n, edges)
        except Exception:
            continue


def count_eig_sym(patch):
    """Make ``numerics.eig_sym`` record the shape of every matrix it is
    given, through the monkeypatch ``patch``; returns that list."""
    calls = []
    eig_sym = numerics.eig_sym

    def counting(mat):
        calls.append(mat.shape)
        return eig_sym(mat)

    patch.setattr(numerics, "eig_sym", counting)
    return calls


def dense_twin(net, monkeypatch):
    """An equal copy of ``net`` whose cached spectrum comes from the dense
    eigh/Cholesky route even when ``net`` is a box lattice, and the shapes
    of the matrices that the dense eigensolver saw on the way: the blocks
    of :func:`block_shapes` over ``net``'s sides, since every axis reversal
    of a box, and the swap of its first two axes when they are equal,
    maps it onto itself. The twin is built while the box test is
    patched out, since a network decides its box at build and keeps it,
    and it is handed ``net``'s sides as :func:`generate_hfuzz` hands on its
    base's."""
    with monkeypatch.context() as patch:
        patch.setattr(network, "lattice_box", lambda _: None)
        twin = build_network(net.node_count, net.edges)
        twin.__dict__["sides"] = net.sides
        calls = count_eig_sym(patch)
        twin.spectrum
    return twin, calls


def block_shapes(sides, axes=None, swap=None):
    """The eigensolves of the dense route's split of a Laplacian over the
    reversals of ``axes`` (default: every axis) of the row-major box
    ``sides`` and, when ``swap`` (default: when ``sides[0] == sides[1]``),
    the swap of its axes 0 and 1, in call order. ``(n,)`` gives the
    whole-graph mirror's two halves.

    One block per character, a sign on each reversed axis, the characters
    taken in increasing order of their bit masks (bit k set for the sign
    - on axis k). A reversed axis of m slices keeps ceil(m/2) of them
    where its sign is + and floor(m/2) where it is -. Under the swap the
    characters with equal signs on axes 0 and 1 come first, each with the
    swap's sign + and then -, on t(t+1)/2 and t(t-1)/2 of the t x t
    slices of those axes, none for t = 1; the blocks of signs (+, -) on
    axes 0 and 1 follow, each solved once for two, and those of (-, +)
    are not solved."""
    axes = range(len(sides)) if axes is None else axes
    swap = len(sides) > 1 and sides[0] == sides[1] if swap is None else swap

    def slices(s):
        return [(m // 2 if s >> k & 1 else m - m // 2) if k in axes else m
                for k, m in enumerate(sides)]

    signs = [s for s in range(2 ** len(sides))
             if all(k in axes for k in range(len(sides)) if s >> k & 1)]
    if not swap:
        sizes = [math.prod(slices(s)) for s in signs]
    else:
        sizes = []
        for s in signs:
            if s & 1 == s >> 1 & 1:
                t, rest = slices(s)[0], math.prod(slices(s)[2:])
                sizes += [t * (t + 1) // 2 * rest, t * (t - 1) // 2 * rest]
        sizes += [math.prod(slices(s)) for s in signs if s & 3 == 2]
    return [(k, k) for k in sizes if k]


def path_laplacian_eigenvalues(n):
    """Known spectrum of the unit-resistance path Laplacian."""
    return 2.0 * (1.0 - np.cos(np.pi * np.arange(n) / n))
