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
    of a box maps it onto itself. The twin is built while the box test is
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


def block_shapes(sides, axes=None):
    """The eigensolves of the dense route's split of a Laplacian over the
    reversals of ``axes`` (default: every axis) of the row-major box
    ``sides``, in call order, the character order: the first axis
    slowest, its symmetric half (ceil(m/2) slices) before its
    antisymmetric one (floor(m/2)); an axis left out keeps its m slices.
    ``(n,)`` gives the whole-graph mirror's two halves."""
    sizes = [1]
    for k, m in enumerate(sides):
        halves = ((m + 1) // 2, m // 2) if axes is None or k in axes else (m,)
        sizes = [size * half for size in sizes for half in halves]
    return [(size, size) for size in sizes]


def path_laplacian_eigenvalues(n):
    """Known spectrum of the unit-resistance path Laplacian."""
    return 2.0 * (1.0 - np.cos(np.pi * np.arange(n) / n))
