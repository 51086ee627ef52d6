import tracemalloc

import numpy as np
import pytest

from dcgrid import errors, numerics, resistance, systems
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

from .conftest import block_shapes, count_eig_sym, random_connected_network


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

    @pytest.mark.parametrize("a, q, error", [
        (np.array([[np.nan, 0.0], [0.0, -1.0]]), np.eye(2),
         errors.NonFiniteState),
        # gees alone spends seconds of QR sweeps on this one
        (np.full((30, 30), np.nan), np.eye(30), errors.NonFiniteState),
        (-np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]]),
         errors.NonFiniteState),
        (-np.eye(2), np.eye(3), errors.InvalidSize),
        (-np.ones(2), np.eye(2), errors.InvalidSize),
        (-np.ones((2, 3)), np.eye(2), errors.InvalidSize),
        (np.zeros((0, 0)), np.zeros((0, 0)), errors.InvalidSize),
        (-(1 + 1j) * np.eye(2), np.eye(2), errors.NonFiniteState),
        (-np.eye(2), (1 + 1j) * np.eye(2), errors.NonFiniteState),
        (-np.eye(2, dtype=object), np.eye(2), errors.NonFiniteState),
    ], ids=["nan-a", "nan-a-30", "inf-q", "q-3x3", "a-1d", "a-2x3",
            "a-0x0", "complex-a", "complex-q", "object-a"])
    def test_bad_input_is_refused_before_lapack(self, a, q, error,
                                                monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gees saw input it should not")
        # the module the kernels read their routines off
        monkeypatch.setattr(numerics._lapack(), "dgees", refuse)
        with pytest.raises(error):
            solve_lyapunov(a, q)
        # and a good input does reach the patched gees
        with pytest.raises(AssertionError, match="gees saw"):
            solve_lyapunov(-np.eye(2), np.eye(2))

    def test_real_input_of_any_real_dtype(self):
        sol = solve_lyapunov(-np.eye(2, dtype=np.int64), np.eye(2, dtype=bool))
        assert np.array_equal(sol.P, 0.5 * np.eye(2))

    def test_qr_failure_is_singular(self, monkeypatch):
        # no input makes gees's QR iteration fail reliably, so its info of
        # 1 (the first eigenvalue not found) is put in by hand
        lapack = numerics._lapack()
        dgees = lapack.dgees

        def failing(*args, **kwargs):
            return *dgees(*args, **kwargs)[:-1], 1
        monkeypatch.setattr(lapack, "dgees", failing)
        with pytest.raises(errors.SingularSystem, match="info 1"):
            solve_lyapunov(-np.eye(3), np.eye(3))


def _spectrum(net):
    """The dense route's spectrum under the network's own group, even on a
    box lattice."""
    return laplacian_spectrum(net.ends, net.resistance, net.sides,
                              net.symmetries)


def _pinv(ends, resistance, n):
    """L^+ under the group of whole-graph reversals that the edges show."""
    group = numerics._symmetries((n,), ends, resistance)
    return laplacian_spectrum(ends, resistance, (n,), group
                              ).pinv(np.arange(n))


class TestPinvLaplacian:
    def test_k2_closed_form(self):
        expected = 0.25 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(_pinv(np.array([[0, 1]]), np.ones(1), 2),
                           expected)

    def test_pseudoinverse_property_p3(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
        lap = laplacian(net)
        pinv = _pinv(net.ends, net.resistance, 3)
        assert np.linalg.norm(lap @ pinv @ lap - lap) <= 1e-10
        assert np.linalg.norm(pinv @ lap @ pinv - pinv) <= 1e-10

    def test_p3_series_resistance(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
        e = np.array([1.0, 0.0, -1.0])
        pinv = _pinv(net.ends, net.resistance, 3)
        assert np.isclose(e @ pinv @ e, 2.0)

    def test_disconnected_rejected(self):
        with pytest.raises(errors.DisconnectedGraph):
            _pinv(np.array([[0, 1], [2, 3]]), np.ones(2), 4)


class TestLaplacianSpectrum:
    def test_zero_mode_set_exactly(self):
        net = build_network(3, [(0, 1, 0.3), (1, 2, 0.7)])
        spec = _spectrum(net)
        assert spec.values[0] == 0.0
        assert np.array_equal(spec.values[1:], eig_sym(laplacian(net))[1:])

    def test_no_zero_mode_rejected(self):
        # a negative conductance leaves the spectrum at -2 and 0: its lowest
        # eigenvalue is no zero mode
        with pytest.raises(errors.DisconnectedGraph):
            laplacian_spectrum(np.array([[0, 1]]), np.array([-1.0]), (2,),
                               ((0,), False))


def _counted_spectrum(net, monkeypatch):
    """The dense route's spectrum of ``net`` and the shapes of the
    matrices that :func:`eig_sym` saw on the way."""
    with monkeypatch.context() as patch:
        calls = count_eig_sym(patch)
        spec = _spectrum(net)
    return spec, calls


def _mirrored_path(n, resistance):
    """A unit path's 3-fuzz with path edge (k, k + 1) and its mirror image
    (n - 2 - k, n - 1 - k) both set to ``resistance[k]``."""
    net = generate_hfuzz(generate_lattice(1, n), 3)
    edges = {(i, j): r for i, j, r in net.edges}
    for k, r in enumerate(resistance):
        edges[k, k + 1] = edges[n - 2 - k, n - 1 - k] = r
    return build_network(n, [(i, j, r) for (i, j), r in edges.items()])


class TestMirrorSplit:
    """A graph that the reversal of each axis of its sides maps onto itself,
    resistances included, gets its eigenvalues from 2^d blocks, and from
    the finer blocks of the swap of axes 0 and 1 when that maps it onto
    itself too; the whole-graph reversal i -> n - 1 - i is the case
    ``sides = (n,)``."""

    FUZZES = [
        # odd n; on the 17 x 9 grid lap != lap[::-1, ::-1] in the diagonal's
        # last bits, though the edges are exactly mirrored
        (generate_lattice(1, 999, 0.37), 3, 0.37),
        (generate_lattice(2, (17, 9), 0.37), 2, 0.37),
        (generate_lattice(3, (4, 5, 6), 2.0), 2, None),  # even n
        (generate_lattice(2, (8, 8)), 3, 1.5),
    ]
    FUZZ_IDS = ["path999", "grid17x9", "grid4x5x6", "grid8x8"]

    @pytest.mark.parametrize("base, h, r_fuzz", FUZZES, ids=FUZZ_IDS)
    def test_values_match_full_solve(self, base, h, r_fuzz, monkeypatch):
        net = generate_hfuzz(base, h, r_fuzz)
        spec, calls = _counted_spectrum(net, monkeypatch)
        assert calls == block_shapes(base.box[0])
        full = np.linalg.eigvalsh(laplacian(net))
        assert spec.values[0] == 0.0
        assert np.abs(spec.values - full).max() <= 1e-12 * full[-1]

    def test_matrix_check_would_miss_symmetry(self, monkeypatch):
        net = generate_hfuzz(generate_lattice(2, (17, 9), 0.37), 2)
        lap = laplacian(net)
        assert not np.array_equal(lap, lap[::-1, ::-1])
        assert _counted_spectrum(net, monkeypatch)[1] == block_shapes((17, 9))

    @pytest.mark.parametrize("base, h, r_fuzz", FUZZES, ids=FUZZ_IDS)
    def test_closed_forms_match_full_solve(self, base, h, r_fuzz,
                                           monkeypatch):
        params = systems.ControllerParams(c=0.7, k_p=0.3, k=50.0, gamma=200.0)
        quantities = (
            lambda net: systems.h2_closed_form_slack(net, params),
            lambda net: systems.h2_closed_form_droop(net, params),
            lambda net: systems.h2_closed_form_dapi(net, params),
            resistance.kstar)
        split = generate_hfuzz(base, h, r_fuzz)
        full = generate_hfuzz(base, h, r_fuzz)
        # the full side gets the trivial group: one eigensolve of L itself
        full.__dict__["symmetries"] = ((), False)
        n = full.node_count
        for net, shapes in ((split, block_shapes(base.box[0])),
                            (full, [(n, n)])):
            with monkeypatch.context() as patch:
                calls = count_eig_sym(patch)
                net.spectrum
            assert calls == shapes
        for quantity in quantities:
            assert np.isclose(quantity(split), quantity(full), rtol=1e-10,
                              atol=0.0)

    def test_trace_against_grounded_solve(self):
        # sum 1/lambda = tr L^+, which the refined grounded solve gives to
        # full precision; measured 4.1e-12 off for the split and 7.2e-12
        # for the full eigensolve
        net = generate_hfuzz(generate_lattice(1, 999, 0.37), 3, 0.37)
        spec = _spectrum(net)
        trace = np.trace(spec.pinv(np.arange(net.node_count)))
        assert abs(np.sum(1.0 / spec.values[1:]) - trace) <= 1e-11 * trace

    def test_one_mirrored_resistance_off_keeps_full_solve(self, monkeypatch):
        n = 200
        net = _mirrored_path(n, [2.0])
        assert _counted_spectrum(net, monkeypatch)[1] == block_shapes((n,))
        edges = {(i, j): r for i, j, r in net.edges}
        edges[0, 1] = np.nextafter(2.0, 3.0)  # its mirror keeps 2.0
        net = build_network(n, [(i, j, r) for (i, j), r in edges.items()])
        assert _counted_spectrum(net, monkeypatch)[1] == [(n, n)]

    @pytest.mark.parametrize("m", [7, 8])
    def test_anisotropic_square_keeps_reversal_blocks(self, m, monkeypatch):
        # R = 1 along axis 0 and 2 along axis 1: each reversal maps the
        # fuzz onto itself, the swap does not, though the hint is square
        base = generate_lattice(2, m)
        base = build_network(m * m, [(i, j, 1.0 if j - i == m else 2.0)
                                     for i, j, _ in base.edges])
        # the hint goes to the base, whose group the fuzz takes
        base.__dict__["sides"] = (m, m)
        net = generate_hfuzz(base, 2)
        assert net.symmetries == numerics._symmetries(
            (m, m), net.ends, net.resistance) == ((0, 1), False)
        spec, calls = _counted_spectrum(net, monkeypatch)
        assert calls == block_shapes((m, m), swap=False)
        full = np.linalg.eigvalsh(laplacian(net))
        assert np.abs(spec.values - full).max() <= 1e-12 * full[-1]

    def test_mirrored_resistances_split(self, monkeypatch):
        n = 101
        net = _mirrored_path(n, np.linspace(0.5, 2.0, 20))
        spec, calls = _counted_spectrum(net, monkeypatch)
        assert calls == block_shapes((n,))
        full = np.linalg.eigvalsh(laplacian(net))
        assert np.abs(spec.values - full).max() <= 1e-12 * full[-1]


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
            ref = np.linalg.pinv(laplacian(net))
            spec = _spectrum(net)
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
        got = _spectrum(net).pinv([node])[0, 0]
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
