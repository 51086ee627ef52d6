import numpy as np
import pytest

from dcgrid import errors, resistance
from dcgrid.network import (
    build_network,
    generate_hfuzz,
    generate_lattice,
    laplacian,
)
from dcgrid.numerics import eig_sym
from dcgrid.resistance import (
    effective_resistance,
    kirchhoff_index,
    kstar,
    rayleigh_check,
    reff_matrix,
    scaling_sweep,
)
from dcgrid.systems import (
    ControllerParams,
    h2_closed_form_dapi,
    h2_closed_form_droop,
    h2_closed_form_slack,
)
from .conftest import block_shapes, dense_twin, random_connected_network


class TestEffectiveResistance:
    def test_k2(self, k2):
        assert np.isclose(effective_resistance(k2, 0, 1), 1.0)

    def test_p3_series(self, p3):
        assert np.isclose(effective_resistance(p3, 0, 2), 2.0)

    def test_triangle_parallel(self, triangle):
        for i, j in [(0, 1), (1, 2), (0, 2)]:
            assert np.isclose(effective_resistance(triangle, i, j), 2 / 3)

    def test_same_node(self, p3):
        with pytest.raises(errors.SameNode):
            effective_resistance(p3, 1, 1)

    @pytest.mark.parametrize("i, j", [(0, 3), (3, 0), (-1, 0), (0, -3)])
    def test_index_out_of_range(self, p3, i, j):
        with pytest.raises(errors.IndexOutOfRange):
            effective_resistance(p3, i, j)

    def test_matches_reff_matrix(self):
        net = random_connected_network(np.random.default_rng(4))
        reff = reff_matrix(net)
        n = net.node_count
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert np.isclose(effective_resistance(net, i, j),
                                      reff[i, j], rtol=1e-10)

    @pytest.mark.parametrize("n, dense", [
        (1000, False), (100000, False), (1000, True)])
    def test_path_pairs_keep_their_digits(self, n, dense, monkeypatch):
        # R_eff on a unit path is the hop distance; near pairs are small
        # against L^+_ii, so P_ii + P_jj - 2 P_ij lost up to 2.3e-10 here
        net = generate_lattice(1, n)
        if dense:  # the dense Cholesky route
            net, calls = dense_twin(net, monkeypatch)
            assert calls == block_shapes((n,))
        near = [(0, 1), (n // 2 - 1, n // 2), (n - 1, n - 2)]
        far = [(0, n - 1), (n // 4, 3 * n // 4)]
        # the dense route's far pairs are limited by cond(L) ~ n^2
        far_rtol = 1e-9 if dense else 1e-13
        for pairs, rtol in ((near, 1e-13), (far, far_rtol)):
            for i, j in pairs:
                assert np.isclose(effective_resistance(net, i, j),
                                  abs(j - i), rtol=rtol, atol=0.0)

    def test_metric_properties(self):
        rng = np.random.default_rng(2)
        net = random_connected_network(rng)
        reff = reff_matrix(net)
        assert np.allclose(reff, reff.T)
        assert np.allclose(np.diag(reff), 0.0, atol=1e-12)
        n = net.node_count
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert reff[i, j] <= reff[i, k] + reff[k, j] + 1e-10


class TestKirchhoffIndex:
    def test_k2(self, k2):
        assert np.isclose(kirchhoff_index(k2), 1.0)

    def test_p3(self, p3):
        assert np.isclose(kirchhoff_index(p3), 4.0)

    def test_triangle(self, triangle):
        assert np.isclose(kirchhoff_index(triangle), 2.0)


@pytest.mark.filterwarnings("error")
class TestOverflow:
    """Resistances near the largest float overflow the indices; each
    raises NonFiniteState, on both spectrum routes, without a warning."""

    @pytest.mark.parametrize("spec", ["path", "fuzz"])
    def test_kirchhoff_index(self, spec):
        net = generate_lattice(1, 4, 1e308)
        if spec == "fuzz":
            net = generate_hfuzz(net, 2)
        with pytest.raises(errors.NonFiniteState, match="Kirchhoff"):
            kirchhoff_index(net)
        with pytest.raises(errors.NonFiniteState):
            kstar(net)

    def test_effective_resistance(self):
        net = generate_lattice(1, 4, 1e308)
        with pytest.raises(errors.NonFiniteState, match="effective"):
            effective_resistance(net, 0, 3)
        # one step's resistance is still a float
        assert effective_resistance(net, 0, 1) == pytest.approx(1e308)

    def test_sweep_raises_before_its_records(self):
        with pytest.raises(errors.NonFiniteState, match="Kirchhoff"):
            scaling_sweep("path", [3, 4], ControllerParams(c=1.0),
                          resistance=1e308)

    def test_sweep_fit_of_underflowed_norms(self):
        # every slack norm rounds to 0 or one subnormal step: the fit's
        # r^2 is 0 / 0, which once ended in NaN or ZeroDivisionError
        with pytest.raises(errors.NonFiniteState, match="fit"):
            scaling_sweep("path", [3, 4], ControllerParams(c=5e-324))


class TestKStar:
    def test_k2(self, k2):
        assert np.isclose(kstar(k2), 0.25)

    def test_p3(self, p3):
        assert np.isclose(kstar(p3), 4 / 9)

    def test_equals_kirchhoff_over_n_squared(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            net = random_connected_network(rng)
            assert np.isclose(kstar(net),
                              kirchhoff_index(net) / net.node_count**2,
                              rtol=1e-9)


class TestGutmanIdentity:
    def test_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            net = random_connected_network(rng)
            lam = eig_sym(laplacian(net))
            spectral = net.node_count * float(np.sum(1.0 / lam[1:]))
            pairwise = float(np.sum(np.triu(reff_matrix(net), k=1)))
            assert np.isclose(pairwise, spectral, rtol=1e-8)
            assert np.isclose(kirchhoff_index(net), spectral, rtol=1e-8)


class TestRayleigh:
    def test_triangle_edge_removal(self, triangle):
        rep = rayleigh_check(triangle, (0, 2))
        assert rep.min_delta >= -1e-10
        # the (0, 2) pair goes from 2/3 (parallel) to 2 (series)
        before = reff_matrix(triangle)
        after = reff_matrix(build_network(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        assert np.isclose(after[0, 2] - before[0, 2], 2 - 2 / 3)
        assert np.isclose(rep.max_delta, 2 - 2 / 3)

    def test_bridge_removal(self, p3):
        with pytest.raises(errors.DisconnectedGraph, match=r"\(0, 1\)"):
            rayleigh_check(p3, (0, 1))

    def test_resistance_increase(self, triangle):
        rep = rayleigh_check(triangle, (0, 1), new_resistance=2.0)
        assert rep.min_delta >= -1e-10
        assert rep.new_resistance == 2.0

    def test_missing_edge(self, p3):
        with pytest.raises(errors.InvalidEdge):
            rayleigh_check(p3, (0, 2))

    def test_megohm_rounding_is_no_violation(self):
        # R_eff matrices formed as d_i + d_j - 2 P_ij round in proportion to
        # their entries: on 1 Mohm lines a 1e-12 raise of one edge once
        # read as decreases of up to 3e-9 ohm, past an absolute 1e-10 gate
        rng = np.random.default_rng(0)
        for n in range(5, 30):
            chords = {tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
                      for _ in range(n)}
            pairs = sorted({(i, i + 1) for i in range(n - 1)} | chords)
            net = build_network(n, [(i, j, float(r)) for (i, j), r in zip(
                pairs, rng.uniform(0.5e6, 2e6, len(pairs)))])
            i, j, r = net.edges[0]
            rep = rayleigh_check(net, (i, j), new_resistance=r * (1 + 1e-12))
            assert rep.max_delta > 0

    def test_violation_raises(self, triangle, monkeypatch):
        # a second matrix smaller than the first must be reported, not
        # asserted (python -O strips asserts)
        calls = []

        def fake_reff(net):
            calls.append(net)
            return np.full((3, 3), 1.0 if len(calls) == 1 else 0.5)

        monkeypatch.setattr(resistance, "reff_matrix", fake_reff)
        with pytest.raises(errors.RayleighViolation):
            rayleigh_check(triangle, (0, 1), new_resistance=2.0)
        assert len(calls) == 2


class TestEmbeddingBound:
    def test_subgraph_has_larger_kirchhoff(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            net = random_connected_network(rng, n_min=5, n_max=8,
                                           edge_prob=0.7)
            kf = kirchhoff_index(net)
            for drop in range(net.edge_count):
                kept = [e for idx, e in enumerate(net.edges) if idx != drop]
                try:
                    sub = build_network(net.node_count, kept)
                except errors.DisconnectedGraph:
                    continue
                assert kirchhoff_index(sub) >= kf - 1e-10


class TestScalingSweep:
    def test_path_golden_values(self):
        p = ControllerParams(c=1.0, k_p=0.1)
        res = scaling_sweep("path", [10, 20, 40], p)
        assert np.allclose([r.h2_slack for r in res.records],
                           [2.25, 4.75, 9.75])

    def test_droop_dapi_bounded(self):
        p = ControllerParams(c=1.0, k_p=0.1, k=100, gamma=1000)
        for family, sizes in [("path", [10, 40]), ("grid2d", [4, 6]),
                              ("grid3d", [3, 4]), ("hfuzz", [4, 6])]:
            res = scaling_sweep(family, sizes, p)
            for rec in res.records:
                assert rec.h2_droop <= 5.0
                assert rec.h2_dapi <= 5.0

    def test_grid2d_log_band(self):
        p = ControllerParams(c=1.0, k_p=0.1)
        res = scaling_sweep("grid2d", [5, 10, 20], p)
        ratio = np.array([r.h2_slack / np.log(r.n) for r in res.records])
        spread = (ratio.max() - ratio.min()) / 2
        assert spread <= 0.2 * ratio.mean()

    def test_fit_diagnostics_path(self):
        p = ControllerParams(c=1.0, k_p=0.1)
        res = scaling_sweep("path", [10, 20, 40, 80], p)
        assert res.fit.x_kind == "n"
        assert np.isclose(res.fit.slope, 0.25, atol=1e-9)
        assert res.fit.r_squared > 0.999999

    def test_sizes_must_ascend(self):
        with pytest.raises(errors.InvalidSize):
            scaling_sweep("path", [20, 10], ControllerParams(c=1.0))

    @pytest.mark.parametrize("sizes", [[], [10], [10, 10], [5, 10, 10]])
    def test_needs_two_strictly_ascending_sizes(self, sizes):
        with pytest.raises(errors.InvalidSize):
            scaling_sweep("path", sizes, ControllerParams(c=1.0))

    def test_records_match_closed_forms(self):
        p = ControllerParams(c=2.0, k_p=0.3, k=50.0, gamma=10.0)
        res = scaling_sweep("hfuzz", [3, 4], p, ground=2)
        for rec, side in zip(res.records, [3, 4]):
            net = generate_hfuzz(generate_lattice(2, side), 2)
            assert rec.h2_slack == h2_closed_form_slack(net, p, 2)
            assert rec.h2_droop == h2_closed_form_droop(net, p)
            assert rec.h2_dapi == h2_closed_form_dapi(net, p)
            assert rec.kstar == kstar(net)

    def test_numpy_sizes(self):
        p = ControllerParams(c=1.0)
        assert (scaling_sweep("path", np.array([3, 5]), p)
                == scaling_sweep("path", [3, 5], p))

    def test_unknown_family(self):
        with pytest.raises(errors.InvalidSize):
            scaling_sweep("torus", [4], ControllerParams(c=1.0))

    def test_side_of_one_is_refused(self):
        # no family builds a network of side 1: a path needs two nodes
        with pytest.raises(errors.InvalidSize):
            resistance.sweep_sizes([1, 2])

    def test_csv_format(self):
        p = ControllerParams(c=1.0, k_p=0.1)
        res = scaling_sweep("path", [5, 10], p)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "family,n,h2_slack,h2_droop,h2_dapi,kstar,kirchhoff"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "path" and int(first[1]) == 5

    def test_kstar_consistency_in_records(self):
        p = ControllerParams(c=1.0, k_p=0.1)
        rec = scaling_sweep("grid2d", [4, 5], p).records[0]
        assert np.isclose(rec.kstar, rec.kirchhoff / rec.n**2, rtol=1e-12)
        net = generate_lattice(2, 4)
        assert np.isclose(rec.kirchhoff, kirchhoff_index(net), rtol=1e-8)
