import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcgrid import errors, kstar
from dcgrid.network import (
    build_network,
    generate_hfuzz,
    generate_lattice,
    laplacian,
    reduced_laplacian,
)
from dcgrid.systems import (
    ControllerParams,
    StateSpaceModel,
    assemble_dapi,
    assemble_droop,
    assemble_slack,
    compare_controllers,
    dapi_modal_gain,
    h2_closed_form_dapi,
    h2_closed_form_droop,
    h2_closed_form_slack,
    h2_lyapunov,
)
from .conftest import path_laplacian_eigenvalues, random_connected_network


# boundary draws for each ControllerParams field: only the four real
# numbers that are positive and finite as floats are accepted
ACCEPTED = [5e-324, 1e308, np.float64(2.0), np.int64(3)]
BOUNDARY_VALUES = [0, -1, np.nan, np.inf, -np.inf, "1", None, True,
                   (1.0, 2.0), np.array(1.0)] + ACCEPTED
FIELDS = ("c", "k_p", "k", "gamma")


class TestControllerParams:
    def test_positive_required(self):
        with pytest.raises(errors.InvalidParams):
            ControllerParams(c=-1.0)
        with pytest.raises(errors.InvalidParams):
            ControllerParams(gamma=0.0)
        # positive, but 0.0 as a float where long double is wider
        with pytest.raises(errors.InvalidParams):
            ControllerParams(k=np.longdouble("1e-4000"))

    @pytest.mark.parametrize("kwargs", [
        {"c": np.inf}, {"k_p": np.inf}, {"k": np.inf}, {"gamma": np.inf},
        {"c": np.nan}, {"c": (1.0, np.inf)}, {"k": (np.inf, 2.0)},
        {"k_p": (0.1, np.nan)}])
    def test_nonfinite_rejected(self, kwargs):
        # a per-node tuple is not one number, so it is refused as well
        with pytest.raises(errors.InvalidParams):
            ControllerParams(**kwargs)

    @given(st.fixed_dictionaries(
        {name: st.sampled_from(BOUNDARY_VALUES) for name in FIELDS}))
    @settings(max_examples=200, deadline=None)
    def test_boundary_values(self, kwargs):
        # "1" and np.array(1.0) once ended in a TypeError
        if all(any(v is ok for ok in ACCEPTED) for v in kwargs.values()):
            p = ControllerParams(**kwargs)
            for name, value in kwargs.items():
                assert type(getattr(p, name)) is float
                assert getattr(p, name) == float(value)
        else:
            with pytest.raises(errors.InvalidParams):
                ControllerParams(**kwargs)

    def test_int_and_float_print_the_same(self, p3):
        as_int = compare_controllers(p3, ControllerParams(c=1, k=100))
        as_float = compare_controllers(p3, ControllerParams(c=1.0, k=100.0))
        assert as_int.to_json() == as_float.to_json()
        assert json.loads(as_int.to_json())["params"] == {
            "c": 1.0, "k_p": 0.1, "k": 100.0, "gamma": 1000.0}


def reference_a(kind, net, p, ground=0):
    """The system matrix as assembled from per-node parameter arrays, the
    form every trajectory CSV was written from; the scalar assemblers must
    reproduce it bit for bit."""
    n = net.node_count
    lap = laplacian(net)
    c_inv = 1.0 / np.full(n, p.c)
    kp = np.full(n, p.k_p)
    if kind == "slack":
        keep = [i for i in range(n) if i != ground]
        return -c_inv[keep][:, None] * reduced_laplacian(lap, ground)
    if kind == "droop":
        return -c_inv[:, None] * (lap + np.diag(kp))
    k_inv = 1.0 / np.full(n, p.k)
    return np.block([
        [-k_inv[:, None] * (p.gamma * lap), np.diag(k_inv)],
        [-np.diag(c_inv), -c_inv[:, None] * (lap + np.diag(kp))],
    ])


class TestAssembly:
    def test_slack_p3(self, p3):
        m = assemble_slack(p3, ControllerParams(c=1.0), ground=0)
        assert np.allclose(m.a, [[-2, 1], [1, -1]])
        assert m.state_labels == ("V1", "V2")

    def test_slack_k2_scalar(self, k2):
        m = assemble_slack(k2, ControllerParams(c=2.0), ground=0)
        assert np.allclose(m.a, [[-0.5]])
        assert np.allclose(m.b, [[1.0]])
        assert np.allclose(m.h, [[1 / np.sqrt(2)]])

    def test_droop_k2(self, k2):
        m = assemble_droop(k2, ControllerParams(c=2.0, k_p=0.5))
        assert np.allclose(m.a, [[-0.75, 0.5], [0.5, -0.75]])

    def test_droop_p3(self, p3):
        m = assemble_droop(p3, ControllerParams(c=1.0, k_p=0.1))
        assert np.allclose(m.a, -(laplacian(p3) + 0.1 * np.eye(3)))

    def test_dapi_k2_unit_params(self, k2, unit_params):
        m = assemble_dapi(k2, unit_params)
        expected = [[-1, 1, 1, 0], [1, -1, 0, 1],
                    [-1, 0, -2, 1], [0, -1, 1, -2]]
        assert np.allclose(m.a, expected)
        assert m.state_labels == ("z0", "z1", "V0", "V1")

    def test_dapi_disturbance_enters_voltages_only(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        assert np.array_equal(m.b[:3], np.zeros((3, 3)))
        assert np.array_equal(m.b[3:], np.eye(3))

    def test_dapi_zero_mode_block(self, p3):
        # projecting each block on the all-ones vector recovers the
        # 2x2 zero-eigenvalue subsystem [[0, 1/k], [-1/c, -k_p/c]]
        c, k_p, k = 2.0, 0.3, 5.0
        m = assemble_dapi(p3, ControllerParams(c=c, k_p=k_p, k=k, gamma=1.0))
        u = np.ones(3) / np.sqrt(3)
        block = np.array([[u @ m.a[:3, :3] @ u, u @ m.a[:3, 3:] @ u],
                          [u @ m.a[3:, :3] @ u, u @ m.a[3:, 3:] @ u]])
        assert np.allclose(block, [[0, 1 / k], [-1 / c, -k_p / c]])

    @pytest.mark.parametrize("params", [
        ControllerParams(c=0.7, k_p=0.3, k=37.0, gamma=120.0),
        ControllerParams(c=1e-3, k_p=0.1, k=100.0, gamma=1000.0)],
        ids=["c0.7", "c1mF"])
    @pytest.mark.parametrize("graph", ["fuzz:2:grid2:4x4", "random"])
    def test_matches_reference_formula(self, graph, params):
        # bit-identical A keeps every sim and fig2 CSV byte-stable
        if graph == "random":
            net = random_connected_network(np.random.default_rng(19),
                                           n_min=6)
        else:
            net = generate_hfuzz(generate_lattice(2, (4, 4)), 2)
        for kind, model, ground in (
                ("slack", assemble_slack(net, params, 0), 0),
                ("slack", assemble_slack(net, params, 3), 3),
                ("droop", assemble_droop(net, params), 0),
                ("dapi", assemble_dapi(net, params), 0)):
            ref = reference_a(kind, net, params, ground)
            assert np.array_equal(model.a, ref)
            assert np.array_equal(np.signbit(model.a), np.signbit(ref))

    @pytest.mark.parametrize("seed", range(8))
    def test_in_place_assembly_matches_block_formulas(self, seed):
        # the assemblers fill A, B and H in place; the np.block, vstack and
        # hstack forms they replace give the same bytes, signed zeros
        # included, at gains 10^U(-4, 4)
        rng = np.random.default_rng(400 + seed)
        net = random_connected_network(rng)
        p = ControllerParams(*(10 ** rng.uniform(-4, 4, size=4)))
        n = net.node_count
        ground = int(rng.integers(n))
        lap, eye = laplacian(net), np.eye(n)
        c_inv, k_inv = 1.0 / p.c, 1.0 / p.k
        red = reduced_laplacian(lap, ground)
        expected = {
            "slack": (-(1.0 / p.c) * red, np.eye(n - 1),
                      np.eye(n - 1) / np.sqrt(n)),
            "droop": (-(1.0 / p.c) * (lap + p.k_p * eye), eye,
                      eye / np.sqrt(n)),
            "dapi": (np.block([
                [-k_inv * (p.gamma * lap), k_inv * eye],
                [-(c_inv * eye), -c_inv * (lap + p.k_p * eye)]]),
                np.vstack([np.zeros((n, n)), eye]),
                np.hstack([np.zeros((n, n)), eye / np.sqrt(n)]))}
        for model in (assemble_slack(net, p, ground), assemble_droop(net, p),
                      assemble_dapi(net, p)):
            for got, want in zip((model.a, model.b, model.h),
                                 expected[model.kind]):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_assembled_matrices_hurwitz(self, triangle, paper_params):
        for m in (assemble_slack(triangle, paper_params),
                  assemble_droop(triangle, paper_params),
                  assemble_dapi(triangle, paper_params)):
            assert np.max(np.linalg.eigvals(m.a).real) < 0


class TestClosedForms:
    def test_slack_p3(self, p3):
        assert np.isclose(h2_closed_form_slack(p3, ControllerParams(c=1.0), 0),
                          0.5)

    def test_slack_k2(self, k2):
        assert np.isclose(h2_closed_form_slack(k2, ControllerParams(c=1.0), 0),
                          0.25)

    def test_slack_path10(self, paper_params):
        net = generate_lattice(1, 10)
        assert np.isclose(h2_closed_form_slack(net, paper_params, 0), 2.25)

    def test_droop_k2(self, k2, unit_params):
        assert np.isclose(h2_closed_form_droop(k2, unit_params), 1 / 3)

    def test_droop_p3(self, p3):
        p = ControllerParams(c=1.0, k_p=0.1)
        expected = (1 / 0.1 + 1 / 1.1 + 1 / 3.1) / 6
        assert np.isclose(h2_closed_form_droop(p3, p), expected, rtol=1e-12)
        assert np.isclose(expected, 1.871945, atol=1e-6)

    def test_droop_upper_bound(self, paper_params):
        rng = np.random.default_rng(5)
        for _ in range(5):
            net = random_connected_network(rng)
            assert h2_closed_form_droop(net, paper_params) < 1.0 / (2 * 0.1)

    def test_dapi_zero_mode_term(self, k2):
        # at lambda = 0 the inner fraction vanishes, leaving c/(2 n k_p)
        p = ControllerParams(c=3.0, k_p=0.25, k=7.0, gamma=2.0)
        huge_kp_free = h2_closed_form_dapi(k2, p)
        lam = 2.0  # K2 nonzero eigenvalue
        inner = (3 * 2 * lam) / (3 * 4 * lam**2 + 7 * 2 * lam**2
                                 + 7 * 0.25 * 2 * lam + 7)
        expected = 3 / 4 * (1 / 0.25 + 1 / (lam + 0.25 + inner))
        assert np.isclose(huge_kp_free, expected, rtol=1e-12)

    def test_dapi_p3_paper_gains(self, p3, paper_params):
        value = h2_closed_form_dapi(p3, paper_params)
        # evaluate the three modal terms 10, 0.908347, 0.322549 directly
        terms = [10.0, 1 / (1.1 + 1000 / 1110100.0),
                 1 / (3.1 + 3000 / 9930100.0)]
        assert np.isclose(value, sum(terms) / 6, rtol=1e-12)

    def test_dapi_k2_unit_params(self, k2, unit_params):
        expected = 0.25 * (1 + 1 / (3 + 2 / 11))
        assert np.isclose(h2_closed_form_dapi(k2, unit_params), expected,
                          rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("resistance, params, what", [
        (1.0, ControllerParams(c=1e308), "droop"),
        (1.0, ControllerParams(k_p=5e-324), "droop"),
        (1e308, ControllerParams(), "slack"),
    ], ids=["c-1e308", "kp-5e-324", "resistance-1e308"])
    def test_overflow_is_nonfinite_state(self, resistance, params, what):
        # each once returned inf or nan, some with a numpy warning
        net = generate_lattice(1, 3, resistance)
        with pytest.raises(errors.NonFiniteState, match=what):
            compare_controllers(net, params)
        if what == "droop":
            with pytest.raises(errors.NonFiniteState, match="DAPI"):
                h2_closed_form_dapi(net, params)


class TestLyapunovOracle:
    def test_scalar(self):
        m = StateSpaceModel(np.array([[-1.0]]), np.eye(1), np.eye(1),
                            ("V0",), "droop")
        assert np.isclose(h2_lyapunov(m), 0.5)

    def test_matches_droop_closed_form(self, p3):
        p = ControllerParams(c=1.0, k_p=0.1)
        assert np.isclose(h2_lyapunov(assemble_droop(p3, p)),
                          h2_closed_form_droop(p3, p), atol=1e-8)

    def test_matches_slack_closed_form(self, p3):
        p = ControllerParams(c=1.0)
        assert np.isclose(h2_lyapunov(assemble_slack(p3, p, 0)), 0.5,
                          atol=1e-8)

    def test_matches_dapi_closed_form(self, p3, paper_params):
        assert np.isclose(h2_lyapunov(assemble_dapi(p3, paper_params)),
                          h2_closed_form_dapi(p3, paper_params), atol=1e-8)

    @pytest.mark.parametrize("n", [40, 100])
    def test_large_dapi_matches_closed_form(self, n, paper_params):
        # state dimension 2n: 80 and 200
        net = generate_lattice(1, n)
        assert np.isclose(h2_lyapunov(assemble_dapi(net, paper_params)),
                          h2_closed_form_dapi(net, paper_params), rtol=1e-9,
                          atol=0.0)

    @pytest.mark.parametrize("d, sides", [(1, 40), (2, (5, 7)),
                                          (3, (3, 3, 4))])
    def test_lattice_closed_forms_match_oracle(self, d, sides, paper_params):
        # analytic Kronecker-sum spectrum against the Schur-form oracle
        net = generate_lattice(d, sides)
        for model, closed in (
                (assemble_slack(net, paper_params, 0),
                 h2_closed_form_slack(net, paper_params, 0)),
                (assemble_droop(net, paper_params),
                 h2_closed_form_droop(net, paper_params)),
                (assemble_dapi(net, paper_params),
                 h2_closed_form_dapi(net, paper_params))):
            assert np.isclose(h2_lyapunov(model), closed, rtol=1e-9,
                              atol=0.0)

    def test_near_marginal_droop_is_singular(self):
        # k_P = 1e-17 puts an eigenvalue of A at about -1e-17; the solve
        # would perturb the equation and return a negative H2 norm
        net = generate_lattice(1, 5)
        model = assemble_droop(net, ControllerParams(c=1.0, k_p=1e-17))
        with pytest.raises(errors.SingularSystem):
            h2_lyapunov(model)

    def test_slack_equals_trace_of_inverse(self, paper_params):
        # third route: direct linear solves instead of eigenvalues
        from dcgrid.network import laplacian, reduced_laplacian
        rng = np.random.default_rng(31)
        nets = [generate_lattice(2, 3)] + [
            random_connected_network(rng) for _ in range(8)]
        for net in nets:
            n = net.node_count
            for ground in range(n):
                red = reduced_laplacian(laplacian(net), ground)
                trace_inv = np.trace(np.linalg.solve(red, np.eye(n - 1)))
                assert np.isclose(
                    h2_closed_form_slack(net, paper_params, ground),
                    trace_inv / (2 * n), rtol=1e-9)

    def test_non_finite_h_is_refused(self):
        m = StateSpaceModel(-np.eye(2), np.eye(2),
                            np.array([[1.0, np.nan]]), ("V0", "V1"), "droop")
        with pytest.raises(errors.NonFiniteState):
            h2_lyapunov(m)

    def test_overflowed_value_is_refused(self):
        # finite A, B and Q whose tr(B^T P B) overflows
        m = StateSpaceModel(-np.eye(2), 1e300 * np.eye(2), np.eye(2),
                            ("V0", "V1"), "droop")
        with pytest.raises(errors.NonFiniteState, match="Lyapunov H2"):
            h2_lyapunov(m)

    @pytest.mark.parametrize("ground", [-1, -3, 3])
    def test_slack_ground_out_of_range(self, p3, paper_params, ground):
        with pytest.raises(errors.IndexOutOfRange):
            h2_closed_form_slack(p3, paper_params, ground)

    @pytest.mark.parametrize("k, gamma", [(100.0, 1e200), (1e-300, 1e100),
                                          (1e300, 1e-300)])
    def test_dapi_extreme_gains_finite(self, k, gamma):
        net = generate_lattice(1, 10)
        p = ControllerParams(c=1e-3, k_p=0.1, k=k, gamma=gamma)
        gain = dapi_modal_gain(net.spectrum.values, p)
        assert np.all(np.isfinite(gain))
        assert gain[0] == 0.1
        dapi = h2_closed_form_dapi(net, p)
        assert 0 < dapi <= h2_closed_form_droop(net, p)


class TestStateSpaceModelShapes:
    LABELS = ("V0", "V1")

    @pytest.mark.parametrize("a, b, h, labels", [
        (-np.eye(2), np.eye(3), np.eye(2), LABELS),
        (-np.eye(2), np.eye(2), np.eye(3), LABELS),
        (-np.ones((2, 3)), np.eye(2), np.eye(2), LABELS),
        (-np.ones(2), np.eye(2), np.eye(2), LABELS),
        (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)), ()),
        (-np.eye(2), np.ones(2), np.eye(2), LABELS),
        (-np.eye(2), np.eye(2), np.eye(2), ("V0",)),
        (-np.eye(2), np.eye(2), np.eye(2), ("V0", "V1", "V2")),
    ], ids=["b-rows", "h-columns", "a-2x3", "a-1d", "a-0x0", "b-1d",
            "short-labels", "long-labels"])
    def test_bad_shape_is_invalid_size(self, a, b, h, labels):
        with pytest.raises(errors.InvalidSize):
            StateSpaceModel(a, b, h, labels, "droop")

    def test_any_input_and_output_count(self):
        # B may have any number of columns and H any number of rows
        m = StateSpaceModel(-np.eye(2), np.ones((2, 1)), np.ones((3, 2)),
                            ("V0", "V1"), "droop")
        assert np.isclose(h2_lyapunov(m), 6.0)  # P = H^T H / 2


class TestCompareControllers:
    def test_path10_paper_params(self, paper_params):
        net = generate_lattice(1, 10)
        rep = compare_controllers(net, paper_params, ground=0)
        assert np.isclose(rep.value_slack, 2.25)
        lam = path_laplacian_eigenvalues(10)
        droop = float(np.sum(1.0 / (lam + 0.1))) / 20
        assert np.isclose(rep.value_droop, droop, rtol=1e-10)
        assert np.isclose(rep.value_droop, 1.02765, atol=1e-5)
        assert rep.value_dapi <= rep.value_droop
        assert rep.droop_lt_slack

    def test_p3_counterexample(self, p3):
        # small graph + small droop gain: droop exceeds slack, so the
        # full ordering chain cannot be asserted in general
        rep = compare_controllers(p3, ControllerParams(c=1.0, k_p=0.1), 0)
        assert rep.value_droop > rep.value_slack
        assert not rep.droop_lt_slack
        assert rep.dapi_le_droop

    def test_dapi_le_droop_always(self, paper_params):
        rng = np.random.default_rng(17)
        for _ in range(10):
            net = random_connected_network(rng)
            rep = compare_controllers(net, paper_params, 0)
            assert rep.dapi_le_droop

    def test_json_fields(self, p3, paper_params):
        doc = json.loads(compare_controllers(p3, paper_params, 0).to_json())
        assert set(doc) == {"n", "slack", "droop", "dapi", "method",
                            "params", "ground", "ordering_flags"}
        assert doc["method"] == "closed_form"
        assert doc["params"]["k_p"] == 0.1


class TestSlackLowerBound:
    def test_kstar_bound(self, paper_params):
        rng = np.random.default_rng(23)
        for _ in range(10):
            net = random_connected_network(rng)
            slack = h2_closed_form_slack(net, paper_params, 0)
            assert slack >= 0.5 * kstar(net) * (1 - 1e-12)
