import tracemalloc

import numpy as np
import pytest

from dcgrid import errors
from dcgrid.network import (
    build_network,
    generate_hfuzz,
    generate_lattice,
    laplacian,
)
from dcgrid.numerics import (
    eig_sym,
    lattice_spectrum,
    laplacian_spectrum,
    solve_lyapunov,
)

from .conftest import random_connected_network


class TestEigSym:
    def test_diagonal(self):
        assert np.allclose(eig_sym(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_k2_laplacian(self):
        values = eig_sym(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(values, [0, 2], atol=1e-12)

    def test_p3_laplacian(self):
        lap = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])
        # roots of lambda (lambda - 1)(lambda - 3)
        assert np.allclose(eig_sym(lap), [0, 1, 3], atol=1e-12)

    @pytest.mark.parametrize("n", [5, 40, 200])
    def test_reconstruction(self, n):
        # the values are those of the full eigendecomposition, which
        # rebuilds the matrix
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        m = m + m.T
        got = eig_sym(m)
        values, vectors = np.linalg.eigh(m)
        ref = np.linalg.norm(m, "fro")
        assert np.abs(got - values).max() <= 1e-10 * ref
        rebuilt = (vectors * got) @ vectors.T
        assert np.linalg.norm(m - rebuilt, "fro") <= 1e-10 * ref
        assert np.all(np.diff(got) >= 0)


class TestLatticeEig:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sides", [(2,), (7,), (1000,), (3, 5), (32, 32),
                                       (2, 3, 4), (10, 10, 10)])
    def test_matches_eigh(self, sides, r):
        lap = laplacian(generate_lattice(len(sides), sides, r))
        spec = lattice_spectrum(sides, 1.0 / r)
        ref, vectors = np.linalg.eigh(lap)
        scale = ref[-1]
        assert np.all(np.diff(spec.values) >= 0)
        assert np.abs(spec.values - ref).max() <= 1e-12 * scale
        # the lattice route's L^+ rows against eigh's, which are accurate
        # only to about cond(L) eps (4e-11 on path:1000)
        n = lap.shape[0]
        nodes = np.unique([0, n // 3, n - 1])
        block = spec.pinv(nodes)
        rows = vectors[nodes, 1:]
        pinv = (rows / ref[1:]) @ rows.T
        assert np.abs(block - pinv).max() <= 1e-9 * np.abs(pinv).max()

    @pytest.mark.parametrize("sides", [(6,), (3, 5), (2, 3, 4)])
    def test_kronecker_reference(self, sides):
        # per-axis values combined by np.add.outer, and per-axis eigh pairs
        # by np.add.outer and np.kron
        values, eig_values, vectors = np.zeros(1), np.zeros(1), np.ones((1, 1))
        for m in sides:
            path = lattice_spectrum((m,), 1.0).values
            values = np.add.outer(values, path).ravel()
            lam, modes = np.linalg.eigh(laplacian(generate_lattice(1, m)))
            eig_values = np.add.outer(eig_values, lam).ravel()
            vectors = np.kron(vectors, modes)
        assert np.array_equal(lattice_spectrum(sides, 1.0).values,
                              np.sort(values))
        nonzero = np.argsort(eig_values)[1:]
        modes = vectors[:, nonzero]
        pinv = (modes / eig_values[nonzero]) @ modes.T
        n = pinv.shape[0]
        assert np.allclose(lattice_spectrum(sides, 1.0).pinv(np.arange(n)),
                           pinv, rtol=0.0, atol=1e-12)

    def test_smallest_eigenvalue_full_precision(self):
        # 2 - 2 cos(x) would lose about 1e-11 of it to cancellation
        x = np.pi / 2000
        series = x**2 - x**4 / 12 + x**6 / 360
        values = lattice_spectrum((2000,), 1.0).values
        assert values[0] == 0.0
        assert abs(values[1] - series) <= 2e-16 * series


class TestSolveLyapunov:
    def test_scalar(self):
        sol = solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))
        assert np.allclose(sol.P, [[0.5]])

    def test_decoupled_diagonal(self):
        sol = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(sol.P, np.diag([0.5, 0.25]))

    def test_hand_solved_2x2(self):
        # hand solution of the three scalar equations in p11, p12, p22
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        sol = solve_lyapunov(a, np.eye(2))
        assert np.allclose(sol.P, [[1.5, 0.5], [0.5, 1.0]])

    def test_not_hurwitz(self):
        with pytest.raises(errors.NotHurwitz):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_marginally_stable_rejected(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # pure oscillator
        with pytest.raises(errors.NotHurwitz):
            solve_lyapunov(a, np.eye(2))

    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_residual_bound_random_stable(self, n):
        rng = np.random.default_rng(100 + n)
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2 - (n + 1) * np.eye(n)  # shifted symmetric, stable
        q = rng.standard_normal((n, n))
        q = q @ q.T
        sol = solve_lyapunov(a, q)
        bound = 1e-8 * (np.linalg.norm(a, "fro") * np.linalg.norm(sol.P, "fro")
                        + np.linalg.norm(q, "fro"))
        assert sol.residual <= bound
        assert np.array_equal(sol.P, sol.P.T)


def _pinv(lap):
    return laplacian_spectrum(lap).pinv(np.arange(len(lap)))


class TestPinvLaplacian:
    def test_k2_closed_form(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        expected = 0.25 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(_pinv(lap), expected)

    def test_pseudoinverse_property_p3(self):
        lap = laplacian(build_network(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        pinv = _pinv(lap)
        assert np.linalg.norm(lap @ pinv @ lap - lap) <= 1e-10
        assert np.linalg.norm(pinv @ lap @ pinv - pinv) <= 1e-10

    def test_p3_series_resistance(self):
        lap = laplacian(build_network(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        e = np.array([1.0, 0.0, -1.0])
        assert np.isclose(e @ _pinv(lap) @ e, 2.0)

    def test_disconnected_rejected(self):
        lap = np.array([[1.0, -1, 0, 0], [-1, 1, 0, 0],
                        [0, 0, 1, -1], [0, 0, -1, 1]])
        with pytest.raises(errors.DisconnectedGraph):
            _pinv(lap)


class TestLaplacianSpectrum:
    def test_zero_mode_set_exactly(self):
        lap = laplacian(build_network(3, [(0, 1, 0.3), (1, 2, 0.7)]))
        spec = laplacian_spectrum(lap)
        assert spec.values[0] == 0.0
        assert np.array_equal(spec.values[1:], eig_sym(lap)[1:])

    def test_no_zero_mode_rejected(self):
        with pytest.raises(errors.DisconnectedGraph):
            laplacian_spectrum(np.diag([1.0, 2.0]))


def _exact_pinv_diagonal(net, node):
    """L^+_node,node of the network's exact Laplacian: a dense solve of
    (L + 11^T/n) x = e_node - 1/n, refined against a residual formed in
    long double from the edges, so the rounded diagonal of a float64
    Laplacian does not enter."""
    n = net.node_count
    exact = np.zeros((n, n), dtype=np.longdouble)
    for i, j, r in net.edges:
        g = 1 / np.longdouble(r)
        exact[i, j] -= g
        exact[j, i] -= g
        exact[i, i] += g
        exact[j, j] += g
    exact += 1 / np.longdouble(n)
    rounded = exact.astype(float)
    rhs = np.full(n, -1 / np.longdouble(n))
    rhs[node] += 1
    x = np.linalg.solve(rounded, rhs.astype(float)).astype(np.longdouble)
    for _ in range(4):
        x += np.linalg.solve(rounded, (rhs - exact @ x).astype(float))
    return float(x[node])


def _star(n, centre):
    return build_network(n, [(min(centre, k), max(centre, k), 1.0 + k / n)
                             for k in range(n) if k != centre])


class TestGroundedBand:
    """The dense route's L^+ blocks and R_eff come from a banded Cholesky
    factor of L grounded at node 0; they must match the dense
    pseudoinverse on any graph, whatever its bandwidth."""

    @staticmethod
    def _nets():
        rng = np.random.default_rng(12)
        wide = [random_connected_network(rng, n_min=20, n_max=60,
                                         edge_prob=p) for p in (0.1, 0.5)]
        fuzzes = [generate_hfuzz(generate_lattice(2, 9, 0.4), 2),
                  generate_hfuzz(generate_lattice(1, 30), 3),
                  generate_hfuzz(generate_lattice(3, 4, 2.0), 2)]
        # bandwidth 0 (node 0 is the hub) and n - 1 (node 0 is a leaf)
        return wide + fuzzes + [_star(12, 0), _star(12, 11)]

    def test_pinv_and_reff_match_dense_pinv(self):
        for net in self._nets():
            lap = laplacian(net)
            ref = np.linalg.pinv(lap)
            spec = laplacian_spectrum(lap)
            n = net.node_count
            scale = np.abs(ref).max()
            assert np.abs(spec.pinv(np.arange(n)) - ref).max() <= 1e-10 * scale
            for g in (1, n // 2, n - 1):  # grounds other than node 0
                got = spec.pinv([g])[0, 0]
                assert abs(got - ref[g, g]) <= 1e-10 * ref[g, g]
            for i, j in ((0, n - 1), (n - 1, 0), (1, n // 2), (n - 1, 2)):
                expected = ref[i, i] + ref[j, j] - 2 * ref[i, j]
                assert abs(spec.reff(i, j) - expected) <= 1e-10 * expected

    @pytest.mark.parametrize("node", [0, 7])
    def test_full_precision_against_exact_laplacian(self, node):
        # the float64 band's rounded diagonal makes an unrefined grounded
        # solve miss L^+_00 by 3e-13 here (grounding at node 0 leaves the
        # smallest eigenvalue at 3.4e-5, 4x below lambda_1)
        net = generate_hfuzz(generate_lattice(1, 1000), 3)
        got = laplacian_spectrum(laplacian(net)).pinv([node])[0, 0]
        exact = _exact_pinv_diagonal(net, node)
        assert abs(got - exact) <= 1e-14 * exact

    def test_no_n_by_n_array_for_one_node(self):
        # the banded factor holds (b + 1)(n - 1) doubles, b = 90 here; a
        # dense factor of L + s 11^T / n would take n^2 * 8 bytes
        net = generate_hfuzz(generate_lattice(2, 45), 2)
        n = net.node_count
        spec = net.spectrum  # the eigensolve is not what is measured
        assert spec.values.size == n
        tracemalloc.start()
        try:
            spec.pinv([n // 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 10
