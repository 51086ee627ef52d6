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


def dense_twin(net, monkeypatch):
    """An equal copy of ``net`` whose cached spectrum comes from the dense
    eigh/Cholesky route even when ``net`` is a box lattice, and the shapes
    of the matrices that the dense eigensolver saw on the way."""
    calls = []
    eig_sym = numerics.eig_sym

    def counting(mat):
        calls.append(mat.shape)
        return eig_sym(mat)

    twin = build_network(net.node_count, net.edges)
    with monkeypatch.context() as patch:
        patch.setattr(network, "lattice_box", lambda _: None)
        patch.setattr(numerics, "eig_sym", counting)
        twin.spectrum
    return twin, calls


def path_laplacian_eigenvalues(n):
    """Known spectrum of the unit-resistance path Laplacian."""
    return 2.0 * (1.0 - np.cos(np.pi * np.arange(n) / n))
