import numpy as np
import pytest

from dcgrid import errors
from dcgrid.network import build_network, generate_lattice, laplacian
from dcgrid.numerics import (
    eig_sym,
    lattice_spectrum,
    laplacian_spectrum,
    solve_lyapunov,
)


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

    def test_not_symmetric(self):
        with pytest.raises(errors.NotSymmetric):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

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
