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

    The split keeps stacks of blocks of one shape. A reversed axis of m
    slices leaves ceil(m/2) of them in the symmetric blocks and floor(m/2)
    in the antisymmetric ones; when these differ, it splits every stack in
    two, the symmetric one first, and else it doubles every stack. The
    swap folds the blocks whose two signs on axes 0 and 1 agree, each
    stack into one of its symmetric blocks, on t(t+1)/2 of the t x t
    slices of those axes, and one of its antisymmetric blocks, on
    t(t-1)/2, none for t = 1; the blocks of signs (+, -) come last, once
    each, and those of (-, +) are not solved."""
    axes = range(len(sides)) if axes is None else axes
    swap = len(sides) > 1 and sides[0] == sides[1] if swap is None else swap
    # each stack: the slices on each axis, its block count, its signs on
    # the folded axes (None where the stack has both)
    stacks = [([(m + 1) // 2 if k in axes else m
                for k, m in enumerate(sides)], 1, ())]
    for k in axes:
        folded = []
        for grid, count, signs in stacks:
            if sides[k] % 2:
                cut = grid[:k] + [grid[k] - 1] + grid[k + 1:]
                folded += [(grid, count, signs + (0,)),
                           (cut, count, signs + (1,))]
            else:
                folded.append((grid, 2 * count, signs + (None,)))
        stacks = folded
    if swap:
        same, pairs = [], []
        for grid, count, signs in stacks:
            if 0 not in axes:
                same.append((grid, count))
            elif signs[0] is None:
                same.append((grid, count // 2))
                pairs.append((grid, count // 4))
            elif signs[0] == signs[1]:
                same.append((grid, count))
            elif signs[0] == 0:
                pairs.append((grid, count))
        stacks = []
        for grid, count in same:
            t, rest = grid[0], grid[2:]
            stacks += [([t * (t + 1) // 2] + rest, count, ()),
                       ([t * (t - 1) // 2] + rest, count, ())]
        stacks += [(grid, count, ()) for grid, count in pairs]
    return [(math.prod(grid),) * 2 for grid, count, _ in stacks
            if math.prod(grid) for _ in range(count)]


def path_laplacian_eigenvalues(n):
    """Known spectrum of the unit-resistance path Laplacian."""
    return 2.0 * (1.0 - np.cos(np.pi * np.arange(n) / n))
