import numpy as np
import pytest

from dcgrid import errors
from dcgrid.network import build_network, generate_lattice, laplacian
from dcgrid.numerics import (
    eig_sym,
    is_hurwitz,
    lattice_eig,
    laplacian_spectrum,
    pinv_laplacian,
    solve_lyapunov,
)


class TestEigSym:
    def test_diagonal(self):
        dec = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.values, [1, 2, 3])

    def test_k2_laplacian(self):
        dec = eig_sym(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(dec.values, [0, 2], atol=1e-12)
        v0 = dec.vectors[:, 0]
        assert np.allclose(np.abs(v0), 1 / np.sqrt(2))

    def test_p3_laplacian(self):
        lap = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])
        # roots of lambda (lambda - 1)(lambda - 3)
        assert np.allclose(eig_sym(lap).values, [0, 1, 3], atol=1e-12)

    def test_not_symmetric(self):
        with pytest.raises(errors.NotSymmetric):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", [5, 40, 200])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        m = m + m.T
        dec = eig_sym(m)
        rebuilt = (dec.vectors * dec.values) @ dec.vectors.T
        ref = np.linalg.norm(m, "fro")
        assert np.linalg.norm(m - rebuilt, "fro") <= 1e-10 * ref
        assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(n),
                              "fro") <= 1e-10
        assert np.all(np.diff(dec.values) >= 0)


class TestLatticeEig:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sides", [(2,), (7,), (1000,), (3, 5), (32, 32),
                                       (2, 3, 4), (10, 10, 10)])
    def test_matches_eigh(self, sides, r):
        lap = laplacian(generate_lattice(len(sides), sides, r))
        dec = lattice_eig(sides, 1.0 / r)
        ref = eig_sym(lap)
        scale = ref.values[-1]
        assert np.all(np.diff(dec.values) >= 0)
        assert np.abs(dec.values - ref.values).max() <= 1e-12 * scale
        residual = lap @ dec.vectors - dec.vectors * dec.values
        assert np.abs(residual).max() <= 1e-12 * scale
        n = lap.shape[0]
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(n)).max() <= 1e-12

    @pytest.mark.parametrize("sides", [(6,), (3, 5), (2, 3, 4)])
    def test_kronecker_reference(self, sides):
        # per-axis eigenpairs combined by np.add.outer and np.kron, then sorted
        values, vectors = np.zeros(1), np.ones((1, 1))
        for m in sides:
            axis = lattice_eig((m,), 1.0)
            values = np.add.outer(values, axis.values).ravel()
            vectors = np.kron(vectors, axis.vectors)
        order = np.argsort(values, kind="stable")
        dec = lattice_eig(sides, 1.0)
        assert np.array_equal(dec.values, values[order])
        assert np.array_equal(dec.vectors, vectors[:, order])

    def test_smallest_eigenvalue_full_precision(self):
        # 2 - 2 cos(x) would lose about 1e-11 of it to cancellation
        x = np.pi / 2000
        series = x**2 - x**4 / 12 + x**6 / 360
        dec = lattice_eig((2000,), 1.0)
        assert dec.values[0] == 0.0
        assert abs(dec.values[1] - series) <= 2e-16 * series


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


class TestIsHurwitz:
    def test_stable(self):
        assert is_hurwitz(np.diag([-1.0, -0.01]))

    def test_unstable(self):
        assert not is_hurwitz(np.diag([-1.0, 0.0]))


def _pinv(lap):
    return pinv_laplacian(laplacian_spectrum(eig_sym(lap)))


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
        dec = eig_sym(lap)
        spec = laplacian_spectrum(dec)
        assert spec.values[0] == 0.0
        assert np.array_equal(spec.values[1:], dec.values[1:])

    def test_no_zero_mode_rejected(self):
        with pytest.raises(errors.DisconnectedGraph):
            laplacian_spectrum(eig_sym(np.diag([1.0, 2.0])))
