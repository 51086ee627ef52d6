import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from dcgrid import errors, simulation
from dcgrid.network import generate_hfuzz, generate_lattice
from dcgrid.numerics import solve_lyapunov
from dcgrid.simulation import (
    default_dt,
    export_trajectory,
    monte_carlo_h2,
    sample_initial,
    simulate,
    slowest_time_constant,
    spectral_radius_bound,
    noise_step,
    stream,
    white_noise_variance,
)
from dcgrid.systems import (
    ControllerParams,
    StateSpaceModel,
    assemble_dapi,
    assemble_droop,
    assemble_slack,
    h2_closed_form_dapi,
    h2_closed_form_droop,
    h2_closed_form_slack,
)

from .conftest import random_connected_network

PAPER = ControllerParams(c=1e-3, k_p=0.1, k=100.0, gamma=1000.0)


def scalar_model(rate=1.0):
    return StateSpaceModel(np.array([[-rate]]), np.eye(1), np.eye(1),
                           ("V0",), "droop")


def gramian(model):
    """The observability Gramian's (G, steps, doublings) of a model."""
    return simulation._gramian(model.a, model.h, model.kind)


class TestStepControl:
    def test_spectral_radius_bound(self, p3, paper_params):
        m = assemble_droop(p3, paper_params)
        rho = spectral_radius_bound(m.a)
        assert rho >= np.abs(np.linalg.eigvals(m.a)).max()
        assert np.isclose(default_dt(m), 0.1 / rho)

    def test_slowest_time_constant_scalar(self):
        assert np.isclose(slowest_time_constant(scalar_model(4.0)), 0.25)

    @pytest.mark.parametrize("a, h", [
        ([[0.0]], [[1.0]]), ([[1.0]], [[1.0]]),
        ([[-1.0, 0.0], [0.0, 0.5]], [[1.0, 0.0]]),
        ([[-1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]])],
        ids=["0.0", "-1.0", "unseen-0.5", "unseen-0.0"])
    def test_not_hurwitz(self, a, h):
        # the stochastic routes' stability decision; in the unseen cases
        # the output decays, but the Gramian's Phi^(2^d) grows until it
        # overflows or keeps norm 1 up to the doubling cap
        m = StateSpaceModel(np.array(a), np.eye(len(a)), np.array(h),
                            ("V0", "V1")[:len(a)], "droop")
        with pytest.raises(errors.NotHurwitz):
            slowest_time_constant(m)
        with pytest.raises(errors.NotHurwitz):
            monte_carlo_h2(m, samples=10)
        with pytest.raises(errors.NotHurwitz):
            white_noise_variance(m, T=10.0)

    def test_gramian_overflow_is_non_finite(self):
        # a stable mode whose output energy, 1e400 / 2, passes the doubles
        m = StateSpaceModel(np.array([[-1.0]]), np.eye(1),
                            np.array([[1e200]]), ("V0",), "droop")
        with pytest.raises(errors.NonFiniteState):
            monte_carlo_h2(m, samples=10)

    def test_energy_overflow_is_non_finite(self):
        # G = 1.3e154^2 / 2 = 8.45e307 is finite, but the samples' energies
        # overflow: the estimate once read mean inf, stderr nan
        m = StateSpaceModel(np.array([[-1.0]]), np.eye(1),
                            np.array([[1.3e154]]), ("V0",), "droop")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.NonFiniteState):
                monte_carlo_h2(m, samples=10)

    def test_row_sum_bound_overflows(self):
        # every entry of A is finite but a row's sum is not: no finite step
        # (once 0.1 / inf = 0 and a ZeroDivisionError), and no warning
        m = assemble_slack(generate_lattice(1, 3),
                           ControllerParams(c=1.5e-308), ground=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_radius_bound(m.a) == np.inf
            assert default_dt(m) == 0.0
            with pytest.raises(errors.InvalidSize, match="row-sum bound"):
                simulate(m, np.ones(m.dim), T=1e-300, rows=10)

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(errors.NonFiniteState):
            scalar_model(np.inf)

    @pytest.mark.parametrize("rate", [0.0, 1e-320])
    def test_no_finite_default_step(self, rate, monkeypatch):
        # an A that underflowed sets no time scale to step by: its step is
        # infinite, and simulate refuses it before any propagator is made
        assert default_dt(scalar_model(rate)) == np.inf

        def refuse(*args, **kwargs):
            raise AssertionError("propagator ran for an infinite step")

        monkeypatch.setattr(simulation, "propagator", refuse)
        with pytest.raises(errors.InvalidSize):
            simulate(scalar_model(rate), [1.0], T=1.0, rows=10)

    def test_step_too_large(self):
        # the scalar model's default step is 0.1
        with pytest.raises(errors.InvalidSize):
            simulate(scalar_model(), [1.0], T=0.05, rows=10)

    def test_step_count_overflows(self):
        # T / dt = 1e10 / 2.5e-302 is past the largest float
        m = assemble_slack(generate_lattice(1, 4), ControllerParams(c=1e-300),
                           ground=0)
        with pytest.raises(errors.InvalidSize):
            simulate(m, np.ones(3), T=1e10, rows=10)

    def test_step_with_no_finite_halvings(self):
        # rho tau / 2 = 1e10 * 1e300 / 2 overflows, and ceil(log2(inf))
        # ended in a builtin OverflowError; now the step is refused
        m = StateSpaceModel(np.diag([-1e10, -1e-300]), np.eye(2), np.eye(2),
                            ("V0", "V1"), "droop")
        with pytest.raises(errors.InvalidSize, match="halvings"):
            white_noise_variance(m, T=1e303)

    def test_step_of_1024_halvings(self):
        # rho h = 1.5e308 takes k = 1024 halvings, and h / 2.0**k overflowed
        # in a builtin OverflowError before the series ran
        minus_one = np.array([[-1.0]])
        assert np.array_equal(simulation.propagator(minus_one, 1.5e308),
                              [[0.0]])
        phi, q_d = noise_step(scalar_model(), 1.5e308)
        assert np.array_equal(phi, [[0.0]]) and np.isclose(q_d[0, 0], 0.5)
        # white noise at rho tau / 2 = 1.25e308: the propagator takes its
        # 1024 halvings, but scaled by its largest entry the slow rate is
        # subnormal and the Gramian refuses it (once its chain means near
        # 3e299 were finite, and their stderr's squares overflowed)
        m = StateSpaceModel(np.diag([-1e10, -4e-299]), np.eye(2), np.eye(2),
                            ("V0", "V1"), "droop")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.NotHurwitz,
                               match="decay rate is lost below rounding"):
                white_noise_variance(m, T=1e300)

    @pytest.mark.parametrize("rows", [0, -1])
    def test_rows_below_one(self, rows):
        with pytest.raises(errors.InvalidSize):
            simulate(scalar_model(), [1.0], T=1.0, rows=rows)

    @pytest.mark.parametrize("T, rows, error", [
        ("1", 10, errors.InvalidSize), (10**400, 10, errors.InvalidSize),
        (True, 10, errors.InvalidSize), (1.0, 2.5, errors.InvalidSize),
        (1.0, "3", errors.InvalidSize), (1.0, True, errors.InvalidSize)],
        ids=["T-str", "T-huge-int", "T-bool", "rows-float", "rows-str",
             "rows-bool"])
    def test_wrong_type_horizon_or_rows(self, T, rows, error):
        # a bool ran as 1; the others ended in a TypeError or OverflowError;
        # a bad horizon and a bad row count are both an InvalidSize
        with pytest.raises(error):
            simulate(scalar_model(), [1.0], T=T, rows=rows)

    @pytest.mark.parametrize("T", [np.nan, np.inf, -1.0, 0.0])
    def test_non_finite_or_non_positive_rejected(self, T):
        with pytest.raises(errors.InvalidSize):
            simulate(scalar_model(), [1.0], T=T, rows=10)
        with pytest.raises(errors.InvalidSize):
            white_noise_variance(scalar_model(), T=T)


def assert_row_by_row(model, traj):
    """The states match the recurrence x <- prop x from the first row, to
    1e-12 of the largest |state|."""
    prop = simulation.propagator(model.a, traj.dt)
    x = traj.states[0]
    expected = [x]
    for _ in traj.times[1:]:
        x = prop @ x
        expected.append(x)
    scale = np.abs(traj.states).max()
    assert np.abs(traj.states - expected).max() <= 1e-12 * scale


def expm_gap(model, h):
    """Largest |propagator - scipy's expm| over the largest |expm|, and
    the propagator's count of halvings."""
    ref = expm(model.a * h)
    gap = np.abs(simulation.propagator(model.a, h) - ref).max()
    bound = spectral_radius_bound(model.a)
    return gap / np.abs(ref).max(), simulation._halvings(bound, h)


class TestPropagator:
    def test_recording_steps(self):
        # the six runs of fig2 --n 10 --T 0.05 (1 mF over 0.05 s, 1 F over
        # 50 s) and sim --gen path:100 --kind dapi --T 0.3, at their
        # recording steps; the worst gap measured was 5.8e-16 (DAPI at
        # 1 F, the one step halved), the others at most 1.1e-16
        cases = []
        for n, c, T in ((10, 1e-3, 0.05), (10, 1.0, 50.0), (100, 1e-3, 0.3)):
            net = generate_lattice(1, n)
            params = ControllerParams(c=c, k_p=0.1, k=100.0, gamma=1000.0)
            models = ([assemble_dapi(net, params)] if n == 100 else
                      [assemble_slack(net, params, ground=0),
                       assemble_droop(net, params),
                       assemble_dapi(net, params)])
            for m in models:
                h = simulate(m, np.zeros(m.dim), T, rows=1500).dt
                cases.append(expm_gap(m, h))
        assert [k for _, k in cases] == [0, 0, 0, 0, 0, 1, 0]
        assert max(gap for gap, _ in cases) <= 2e-15

    @pytest.mark.parametrize("n", [10, 100])
    def test_halved_steps(self, n):
        # rho h from 10 to 1e6, 4 to 20 halvings. Each squaring about
        # doubles the relative error, and the gap measured stayed below
        # 2^k * 1e-16 (9.7e-11 at k = 20 on path:100, where the same
        # halving and squaring around scipy's expm itself gave 2.0e-10)
        m = assemble_dapi(generate_lattice(1, n), PAPER)
        rho = spectral_radius_bound(m.a)
        halvings = []
        for scaled in 10.0 ** np.arange(1, 7):
            gap, k = expm_gap(m, scaled / rho)
            assert gap <= 2.0**k * 1e-15
            halvings.append(k)
        assert halvings == [4, 7, 10, 14, 17, 20]

    def test_step_past_every_decay(self):
        # at h = 1e40 the Hurwitz propagator underflows to exactly 0 in its
        # squarings, with no NaN and no warning (scipy's expm of A h gives
        # NaN past ||A h|| of about 1e38)
        m = assemble_dapi(generate_lattice(1, 10), PAPER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prop = simulation.propagator(m.a, 1e40)
        assert np.isfinite(prop).all() and not prop.any()

    def test_zero_matrix_is_identity(self):
        assert np.array_equal(simulation.propagator(np.zeros((3, 3)), 2.0),
                              np.eye(3))

    def test_memory(self):
        # X to X^4, the sum and one product or block of terms: 6.0 dim^2
        # doubles traced at dim 400, where scipy's expm took 8.0
        m = assemble_dapi(generate_lattice(1, 200), PAPER)
        h = 10.0 / spectral_radius_bound(m.a)
        tracemalloc.start()
        try:
            simulation.propagator(m.a, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.dim == 400
        assert peak <= 7.5 * 8 * m.dim**2


class TestSimulate:
    def test_zero_initial_state_stays_zero(self, k2, paper_params):
        m = assemble_droop(k2, paper_params)
        traj = simulate(m, np.zeros(2), T=1.0, rows=100)
        assert np.array_equal(traj.states, np.zeros_like(traj.states))

    def test_k2_slack_exponential(self, k2):
        # grounded K2 with c = 1 is dV/dt = -V: V(1) = e^{-1}
        m = assemble_slack(k2, ControllerParams(c=1.0), ground=0)
        traj = simulate(m, [1.0], T=1.0, rows=10)
        assert np.isclose(traj.times[-1], 1.0)
        assert np.isclose(traj.states[-1, 0], np.exp(-traj.times[-1]),
                          atol=1e-6)

    def test_droop_zero_mode_decay(self, p3):
        # a uniform voltage profile sees only the droop gain: rate k_p / c
        c, k_p = 2.0, 0.4
        m = assemble_droop(p3, ControllerParams(c=c, k_p=k_p))
        traj = simulate(m, np.ones(3), T=2.0, rows=100)
        assert np.allclose(traj.states[-1],
                           np.exp(-k_p / c * traj.times[-1]), atol=1e-6)

    def test_record_every(self):
        # 100 default steps of 0.01 over 10 rows: every 10th step recorded
        traj = simulate(scalar_model(10.0), [1.0], T=1.0, rows=10)
        assert len(traj.times) == 11
        assert np.isclose(traj.dt, 0.1)
        # a row target past the step count records every step
        assert len(simulate(scalar_model(10.0), [1.0], T=1.0,
                            rows=1000).times) == 101

    def test_deterministic(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        x0 = np.arange(6, dtype=float)
        a = simulate(m, x0, T=1.0, rows=100)
        b = simulate(m, x0, T=1.0, rows=100)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("every", [1, 7])
    def test_matches_propagator_at_large_dt(self, p3, paper_params, every):
        # a recording step of 40 default steps (every = 1) is 8 times the
        # 0.5 / rho(A) that bounded RK4
        m = assemble_dapi(p3, paper_params)
        x0 = np.arange(1.0, 7.0)
        traj = simulate(m, x0, T=300 * 40 * default_dt(m), rows=300 // every)
        assert len(traj.times) == 300 // every + 1
        assert traj.dt >= 40 * default_dt(m)
        for t, state in zip(traj.times, traj.states):
            assert np.allclose(state, expm(m.a * t) @ x0, rtol=1e-9,
                               atol=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 3, 16, 23])
    def test_blocks_match_row_by_row(self, p3, paper_params, count):
        # b = isqrt(count) rows one at a time, then blocks of b: count 1 to
        # 3 has b = 1, 16 ends on a whole block, 23 on a ragged one of 3
        m = assemble_dapi(p3, paper_params)
        traj = simulate(m, np.arange(1.0, 7.0), T=count * 40 * default_dt(m),
                        rows=count)
        assert len(traj.times) == count + 1
        assert_row_by_row(m, traj)

    def test_paper_gain_dapi_path100_row_by_row(self):
        # the sim op's trajectory: 39 rows one at a time, then blocks of 39
        m = assemble_dapi(generate_lattice(1, 100), PAPER)
        traj = simulate(m, sample_initial(m, 0, 1)[:, 0], T=0.3, rows=1500)
        assert len(traj.times) == 1531
        assert_row_by_row(m, traj)

    def test_rows_past_memory_budget(self, monkeypatch):
        # 10^12 rows of one state: refused before the propagator is formed
        def no_propagator(a, h):
            raise AssertionError("propagator computed")
        monkeypatch.setattr(simulation, "propagator", no_propagator)
        with pytest.raises(errors.InvalidSize, match="memory budget"):
            simulate(scalar_model(), [1.0], T=1e12, rows=10**12)

    def test_memory_budget_edge(self, monkeypatch):
        # 10 steps of 0.1 and 11 rows of 8 bytes: exactly at a budget of
        # 88 bytes, one byte past one of 87
        monkeypatch.setattr(simulation, "MEMORY_BUDGET_BYTES", 88)
        assert len(simulate(scalar_model(), [1.0], T=1.0, rows=10).times) == 11
        monkeypatch.setattr(simulation, "MEMORY_BUDGET_BYTES", 87)
        with pytest.raises(errors.InvalidSize):
            simulate(scalar_model(), [1.0], T=1.0, rows=10)

    def test_labels_carried(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        traj = simulate(m, np.zeros(6), T=0.1, rows=10)
        assert traj.state_labels == m.state_labels

    @pytest.mark.parametrize("x0", [np.zeros(5), np.zeros(7),
                                    np.zeros((6, 1)), 1.0])
    def test_initial_state_of_wrong_size(self, p3, paper_params, x0):
        # one value per state, or InvalidSize (once a matmul ValueError)
        with pytest.raises(errors.InvalidSize):
            simulate(assemble_dapi(p3, paper_params), x0, T=0.1, rows=10)


class TestStreams:
    def test_same_key_same_draws(self):
        a = stream(7).standard_normal(5)
        b = stream(7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = stream(7).standard_normal(5)
        c = stream(8).standard_normal(5)
        assert not np.array_equal(a, c)

    def test_numpy_integer_seed(self):
        top = 2**64 - 1
        assert np.array_equal(stream(np.uint64(top)).standard_normal(3),
                              stream(top).standard_normal(3))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 1.0, True, "1"])
    def test_bad_seed(self, k2, unit_params, seed):
        # numpy's Philox refused -1 and 2^64 with a ValueError; 1.5 ran as 1
        m = assemble_droop(k2, unit_params)
        for call in (lambda: stream(seed),
                     lambda: sample_initial(m, seed, 3),
                     lambda: monte_carlo_h2(m, samples=10, seed=seed),
                     lambda: white_noise_variance(m, T=100.0, seed=seed)):
            with pytest.raises(errors.IndexOutOfRange, match="seed"):
                call()


class TestSampleInitial:
    def test_deterministic(self, p3, paper_params):
        m = assemble_droop(p3, paper_params)
        assert np.array_equal(sample_initial(m, 1, 4),
                              sample_initial(m, 1, 4))

    def test_prefix_stable(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        assert np.array_equal(sample_initial(m, 5, 4),
                              sample_initial(m, 5, 9)[:, :4])

    def test_wrong_type_count_or_horizon(self, k2, unit_params):
        # each once ended in numpy's ValueError or TypeError
        m = assemble_droop(k2, unit_params)
        for call in (lambda: sample_initial(m, 0, -1),
                     lambda: sample_initial(m, 0, 2.5),
                     lambda: monte_carlo_h2(m, 2.5),
                     lambda: monte_carlo_h2(m, "3")):
            with pytest.raises(errors.InvalidSize):
                call()
        with pytest.raises(errors.InvalidSize):
            white_noise_variance(m, T="1")

    def test_first_sample_keeps_seed_key(self, p3, paper_params):
        # sample 0 reads the stream keyed (seed << 64) | 0 from its start
        m = assemble_dapi(p3, paper_params)
        rng = np.random.Generator(np.random.Philox(key=(5 << 64) | 0))
        x0 = sample_initial(m, 5, 3)[:, 0]
        assert np.array_equal(x0[3:], rng.standard_normal(3))

    def test_paper_fig2_integrators_zero(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        x0 = sample_initial(m, 0, 1)[:, 0]
        assert np.array_equal(x0[:3], np.zeros(3))
        assert np.all(x0[3:] != 0)

    @staticmethod
    def _network(name):
        if name == "path:7":
            return generate_lattice(1, 7)
        if name == "fuzz:2:grid2:4x4":
            return generate_hfuzz(generate_lattice(2, 4), 2)
        return random_connected_network(np.random.default_rng(3), n_min=8)

    @pytest.mark.parametrize("net_name", ["path:7", "fuzz:2:grid2:4x4",
                                          "random"])
    @pytest.mark.parametrize("kind", ["slack-0", "slack-interior", "droop",
                                      "dapi"])
    def test_b_xi_is_unit_voltages(self, net_name, kind):
        # the radial study's law, built here as it once was in the library:
        # unit normals on the voltage states in label order, zeros on
        # every integrator, drawn sample after sample from one stream
        net = self._network(net_name)
        if kind.startswith("slack"):
            ground = 0 if kind == "slack-0" else net.node_count // 2
            m = assemble_slack(net, PAPER, ground)
        else:
            m = (assemble_droop if kind == "droop" else assemble_dapi)(
                net, PAPER)
        seed, samples = 9, 4
        volt = m.voltage_indices()
        reference = np.zeros((m.dim, samples))
        reference[volt] = stream(seed).standard_normal(
            (samples, len(volt))).T
        assert np.array_equal(sample_initial(m, seed, samples), reference)

    def test_bb_star_covariance(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        draws = sample_initial(m, 0, 4000)
        cov = draws @ draws.T / draws.shape[1]
        assert np.allclose(cov, m.b @ m.b.T, atol=0.12)


class TestMonteCarloH2:
    def test_droop_k2_matches_closed_form(self, k2, unit_params):
        m = assemble_droop(k2, unit_params)
        est = monte_carlo_h2(m, samples=400, seed=11)
        target = h2_closed_form_droop(k2, unit_params)
        assert est.converged
        assert abs(est.mean - target) <= 3 * est.stderr

    def test_slack_p3_matches_closed_form(self, p3):
        p = ControllerParams(c=1.0)
        m = assemble_slack(p3, p, ground=0)
        est = monte_carlo_h2(m, samples=400, seed=11)
        assert abs(est.mean - h2_closed_form_slack(p3, p, 0)) <= 3 * est.stderr

    def test_needs_two_samples(self, k2, unit_params):
        m = assemble_droop(k2, unit_params)
        for samples in (1, 0, -5):
            with pytest.raises(errors.InvalidSize):
                monte_carlo_h2(m, samples=samples)

    def test_deterministic(self, p3, paper_params):
        m = assemble_droop(p3, paper_params)
        a = monte_carlo_h2(m, samples=20, seed=3)
        b = monte_carlo_h2(m, samples=20, seed=3)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_stiff_dapi_runs_fast(self, paper_params):
        # 1 mF capacitances make the DAPI system stiff; the Gramian's
        # doublings must still finish a realistic run in seconds
        net = generate_lattice(1, 10)
        m = assemble_dapi(net, paper_params)
        est = monte_carlo_h2(m, samples=50, seed=2)
        assert est.converged
        assert est.mean > 0

    @pytest.mark.parametrize("case, samples", [
        ("droop K2", 2000), ("slack P3", 2000), ("dapi path:10", 200),
        ("dapi path:100", 200)])
    def test_mean_is_exact_quadratic_form(self, k2, p3, unit_params, case,
                                          samples):
        # each sample's output energy is x0^T P x0 with A^T P + P A = -H^T H;
        # the doubled Gramian is P to rounding, with no horizon cut
        if case == "droop K2":
            m = assemble_droop(k2, unit_params)
        elif case == "slack P3":
            m = assemble_slack(p3, ControllerParams(c=1.0), ground=0)
        else:
            n = int(case.split(":")[1])
            m = assemble_dapi(generate_lattice(1, n), PAPER)
        est = monte_carlo_h2(m, samples=samples, seed=4)
        x0 = sample_initial(m, 4, samples)
        p = solve_lyapunov(m.a, m.h.T @ m.h).P
        exact = np.mean(np.sum(x0 * (p @ x0), axis=0))
        assert est.converged
        assert np.isclose(est.mean, exact, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("net_name", ["path:10", "path:100", "grid:6x7"])
    @pytest.mark.parametrize("kind", ["slack", "droop", "dapi"])
    def test_gramian_trace_matches_closed_form(self, net_name, kind):
        # tr(B^T G B) is the squared H2 norm, from the dynamics alone
        if net_name == "grid:6x7":
            net = generate_lattice(2, (6, 7))
        else:
            net = generate_lattice(1, int(net_name.split(":")[1]))
        if kind == "slack":
            m = assemble_slack(net, PAPER, 0)
            target = h2_closed_form_slack(net, PAPER, 0)
        else:
            m = (assemble_droop if kind == "droop" else assemble_dapi)(
                net, PAPER)
            target = (h2_closed_form_droop if kind == "droop"
                      else h2_closed_form_dapi)(net, PAPER)
        gram = gramian(m)[0]
        assert np.isclose(np.trace(m.b.T @ gram @ m.b), target, rtol=1e-12,
                          atol=0.0)
        # the dual (A^T, B^T) gives the controllability Gramian W, and
        # tr(H W H^T) is the same norm
        dual = simulation._gramian(m.a.T, m.b.T, m.kind)[0]
        assert np.isclose(np.trace(m.h @ dual @ m.h.T), target, rtol=1e-12,
                          atol=0.0)

    def test_calls_no_eigensolver(self, p3, paper_params, monkeypatch):
        # the Gramian's doublings certify decay; no slowest rate is needed
        def refuse(model):
            raise AssertionError("slowest_time_constant called")

        monkeypatch.setattr(simulation, "slowest_time_constant", refuse)
        est = monte_carlo_h2(assemble_dapi(p3, paper_params), samples=20)
        assert est.converged and est.mean > 0

    @pytest.mark.parametrize("case, doublings", [
        ("droop K2", 3), ("slack P3", 4), ("dapi path:100", 8)])
    def test_gramian_doublings_from_no_series(self, k2, p3, unit_params,
                                              case, doublings, monkeypatch):
        # the trapezoid cycle starts the doublings exactly, with no Taylor
        # series; on the benchmark's models a single step at the shift
        # 2 rho took 6, 8 and 21 doublings
        def refuse(*args, **kwargs):
            raise AssertionError("propagator called")

        monkeypatch.setattr(simulation, "propagator", refuse)
        if case == "droop K2":
            m = assemble_droop(k2, unit_params)
        elif case == "slack P3":
            m = assemble_slack(p3, unit_params, ground=0)
        else:
            m = assemble_dapi(generate_lattice(1, 100), PAPER)
        assert gramian(m)[2] == doublings

    @pytest.mark.parametrize("rate", [1e300, 5e307, 1.7e308])
    def test_gramian_of_extreme_rate(self, rate):
        # unscaled, the trapezoid start's 4 rho overflows or its
        # Y Y^T = 1 / (3 rho)^2 underflows; 1 / (2 rate) would overflow too
        gram = gramian(scalar_model(rate))[0]
        assert np.isclose(gram[0, 0], 0.5 / rate, rtol=1e-12, atol=0.0)

    def test_gramian_scale_ignores_row_sums(self):
        # at c = 2e-308 A's row sums overflow though the model is Hurwitz;
        # the largest entry sets the scale, so nothing overflows (the
        # row-sum scale once gave NotHurwitz "of t = 0")
        net = generate_lattice(1, 3)
        params = ControllerParams(c=2e-308)
        m = assemble_droop(net, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = gramian(m)[0]
            est = monte_carlo_h2(m, samples=10, seed=1)
        assert np.isclose(np.trace(m.b.T @ gram @ m.b),
                          h2_closed_form_droop(net, params), rtol=1e-14,
                          atol=0.0)
        assert 0.0 < est.mean < np.inf

    def test_gramian_of_subnormal_matrix(self):
        # 1 / rho overflowed for a subnormal A, which was taken for zero;
        # frexp scales it exactly, and G = h^2 / (2 rate) is 5.0e307
        rates = np.array([1e-320, 1e-320])
        m = StateSpaceModel(np.diag(-rates), np.eye(2), 1e-6 * np.eye(2),
                            ("V0", "V1"), "droop")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = gramian(m)[0]
        assert np.allclose(gram, np.diag(0.5e-12 / rates), rtol=1e-12,
                           atol=0.0)

    def test_stderr_of_energies_near_underflow(self):
        # at c = 2e-308 the energies lie near the bottom of the doubles:
        # their squared deviations underflowed to a stderr of 0.0, beside a
        # mean of 4.07e-308 against the closed form 3.74e-308
        net = generate_lattice(1, 3)
        params = ControllerParams(c=2e-308)
        est = monte_carlo_h2(assemble_droop(net, params), samples=10)
        assert est.stderr > 0.0
        assert (abs(est.mean - h2_closed_form_droop(net, params))
                <= 5 * est.stderr)

    def test_mean_stderr_unchanged_in_normal_range(self):
        # scaling by a power of two is exact, so the plain formulas agree
        # to the bit
        values = 3.0 * stream(2).random(50)
        assert simulation._mean_stderr(values, "values") == (
            float(np.mean(values)),
            float(np.std(values, ddof=1) / np.sqrt(values.size)))

    def test_tiny_capacitance_keeps_its_energy(self):
        # rho = 4e300: an unscaled start's Y Y^T underflowed to a zero G
        m = assemble_slack(generate_lattice(1, 4), ControllerParams(c=1e-300),
                           ground=0)
        est = monte_carlo_h2(m, samples=10, seed=1)
        assert 0.0 < est.mean < np.inf

    def test_slow_mode_loses_no_more_than_rounding(self):
        # the cycle's small shift resolves a decay rate r far below rho,
        # which a single step at 2 rho lost to 9.1e-8, 8.0e-4 and 9.9e-2
        # of its energy 1 / (2 r); measured now: 6.0e-14, 3.3e-13, 1.1e-13
        for rate, bound in ((1e-10, 1e-13), (1e-14, 5e-13), (3e-16, 2e-13)):
            m = StateSpaceModel(np.diag([-1.0, -rate]), np.eye(2), np.eye(2),
                                ("V0", "V1"), "droop")
            gram = gramian(m)[0]
            assert abs(gram[1, 1] * 2.0 * rate - 1.0) <= bound
            assert abs(gram[0, 0] * 2.0 - 1.0) <= bound

    @staticmethod
    def _transient_model(coupling):
        # ||x(t)|| grows like coupling t e^-t before it decays, so the
        # row-sum bound rho is about coupling times the decay rate
        a = np.array([[-1.0, coupling], [0.0, -1.0]])
        return StateSpaceModel(a, np.eye(2), np.eye(2), ("V0", "V1"),
                               "droop")

    def test_transient_gramian_matches_lyapunov(self):
        m = self._transient_model(1e3)
        gram, steps, doublings = gramian(m)
        p = solve_lyapunov(m.a, m.h.T @ m.h).P
        assert np.allclose(gram, p, rtol=1e-12, atol=0.0)
        # 1 / ||A^-1|| = 1 / 1001 and rho = 1001 put the shifts at
        # 1001^(-1/2) and 1001^(1/2), steps of 2 / shift
        root = np.sqrt(1001.0)
        assert np.allclose(steps, [2.0 * root, 2.0 / root], rtol=1e-15,
                           atol=0.0)
        assert doublings < simulation.MAX_DOUBLINGS
        est = monte_carlo_h2(m, samples=10, seed=1)
        assert est.converged
        assert est.dt == min(steps) and est.T == sum(steps) * 2.0**doublings

    def test_decay_far_below_rho_matches_exact_gramian(self):
        # the rate 1 is below eps rho = 2.2e2, so a single trapezoid step
        # at 2 rho lost it and hit the doubling cap; the cycle's small
        # shift keeps it, to a measured 2.6e-8 of every entry
        coupling = 1e18
        gram = gramian(self._transient_model(coupling))[0]
        exact = np.array([[0.5, coupling / 4.0],
                          [coupling / 4.0, coupling**2 / 4.0 + 0.5]])
        assert np.allclose(gram, exact, rtol=3e-8, atol=0.0)

    def test_marginal_pair_hits_doubling_cap(self):
        # eigenvalues +-i: both shifts sit at |lambda|, where the cycle's
        # Phi is an exact rotation, so no doubling within the cap decays
        m = StateSpaceModel(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2),
                            np.eye(2), ("V0", "V1"), "droop")
        with pytest.raises(errors.NotHurwitz,
                           match=f"{simulation.MAX_DOUBLINGS} doublings"):
            monte_carlo_h2(m, samples=10, seed=1)

    @pytest.mark.parametrize("a, cause", [
        (np.diag([-1.0, 0.0]), "singular"),
        # scaled by its largest entry, the small rate underflows to zero
        (np.diag([-1e300, -1e-300]), "singular"),
        (np.diag([-1.0, -1e-320]), "inverse overflows"),
        # the shifts 1/||A^-1|| and rho are both 1, A's one eigenvalue
        (np.eye(2), "eigenvalue at the shift 1")],
        ids=["zero-rate", "underflowed-rate", "subnormal-rate", "at-shift"])
    def test_gramian_names_its_failure(self, a, cause):
        m = StateSpaceModel(a, np.eye(2), np.eye(2), ("V0", "V1"), "droop")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.NotHurwitz, match=cause):
                gramian(m)

    def test_random_models_match_closed_forms(self):
        # tr(B^T G B) against the spectral closed forms on 60 random
        # connected networks at gains U(0.1, 10), all three controllers:
        # the worst measured is 8.2e-15 (a single step at 2 rho: 2.3e-14)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(60):
            net = random_connected_network(rng)
            params = ControllerParams(*(float(v) for v in
                                        rng.uniform(0.1, 10.0, size=4)))
            for m, target in (
                    (assemble_slack(net, params, 0),
                     h2_closed_form_slack(net, params, 0)),
                    (assemble_droop(net, params),
                     h2_closed_form_droop(net, params)),
                    (assemble_dapi(net, params),
                     h2_closed_form_dapi(net, params))):
                gram = gramian(m)[0]
                worst = max(worst, abs(np.trace(m.b.T @ gram @ m.b) - target)
                            / target)
        assert worst <= 1e-14


class TestWhiteNoise:
    def test_scalar_variance(self):
        # dx = -x dt + dW has stationary variance 1/2
        est = white_noise_variance(scalar_model(), T=4000.0, seed=5)
        assert abs(est.mean - 0.5) <= 3 * est.stderr
        assert est.mode == "white_noise"

    def test_droop_k2(self, k2, unit_params):
        m = assemble_droop(k2, unit_params)
        est = white_noise_variance(m, T=3000.0, seed=9)
        assert abs(est.mean - 1 / 3) <= 3 * est.stderr

    def test_zero_output_map(self, k2, unit_params):
        m = assemble_droop(k2, unit_params)
        silent = StateSpaceModel(m.a, m.b, np.zeros_like(m.h),
                                 m.state_labels, m.kind)
        est = white_noise_variance(silent, T=50.0)
        assert est.mean == 0.0

    def test_horizon_too_short(self, k2, unit_params):
        m = assemble_droop(k2, unit_params)
        with pytest.raises(errors.InvalidSize):
            white_noise_variance(m, T=0.1)

    @pytest.mark.parametrize("budgets", [1.01, 1e290])
    def test_horizon_past_step_budget(self, budgets, monkeypatch):
        # tau = 1, so T holds `budgets` times the budgeted steps per chain
        # (1e290 makes T = 1.2e298); it is refused before the noise step is
        # even made
        T = budgets * (simulation.WHITE_NOISE_MAX_STEPS
                       * simulation.WHITE_NOISE_CHAINS
                       * simulation.WHITE_NOISE_STEP)

        def refuse(*args, **kwargs):
            raise AssertionError("noise step made past the step budget")

        monkeypatch.setattr(simulation, "noise_step", refuse)
        with pytest.raises(errors.InvalidSize, match="budget"):
            white_noise_variance(scalar_model(), T=T)

    def test_reports_chains_step_and_horizon(self):
        # tau = 1: T = 4000 is 4000 / (chains h) steps per chain, rounded
        est = white_noise_variance(scalar_model(), T=4000.0, seed=5)
        chains = simulation.WHITE_NOISE_CHAINS
        h = simulation.WHITE_NOISE_STEP
        assert (est.samples, est.dt) == (chains, h)
        assert est.T == round(4000.0 / (chains * h)) * chains * h

    def test_noise_blocks_keep_the_draws(self, p3, paper_params, monkeypatch):
        # the stream is read step after step whatever the block length
        m = assemble_dapi(p3, paper_params)
        tau = slowest_time_constant(m)
        whole = white_noise_variance(m, T=100 * tau, seed=4)
        monkeypatch.setattr(simulation, "NOISE_BLOCK", 5 * m.dim
                            * simulation.WHITE_NOISE_CHAINS)
        assert white_noise_variance(m, T=100 * tau, seed=4) == whole

    def test_matches_one_chain_at_a_time(self, p3, paper_params):
        # reference: each chain stepped alone on its column of the draws
        m = assemble_dapi(p3, paper_params)
        tau = slowest_time_constant(m)
        est = white_noise_variance(m, T=100 * tau, seed=4)
        chains = est.samples
        kept = round(est.T / (chains * est.dt))
        warmup = round(simulation.WARMUP_CONSTANTS
                       / simulation.WHITE_NOISE_STEP)
        phi, q_d = noise_step(m, est.dt)
        factor = np.linalg.cholesky(q_d)
        draws = stream(4).standard_normal((warmup + kept, m.dim, chains))
        means = []
        for c in range(chains):
            x = np.zeros(m.dim)
            energy = 0.0
            for k in range(warmup + kept):
                x = phi @ x + factor @ draws[k, :, c]
                if k >= warmup:
                    energy += float(np.sum((m.h @ x) ** 2))
            means.append(energy / kept)
        assert np.isclose(est.mean, np.mean(means), rtol=1e-12, atol=0.0)
        assert np.isclose(est.stderr, np.std(means, ddof=1) / np.sqrt(chains),
                          rtol=1e-10, atol=0.0)

    def test_seed_that_missed_by_5_6_stderr(self, k2, unit_params):
        # contiguous batches of one chain put this seed 5.6 stderr off 1/3
        m = assemble_droop(k2, unit_params)
        tau = slowest_time_constant(m)
        est = white_noise_variance(m, T=200 * tau, seed=245584351)
        assert abs(est.mean - 1 / 3) <= 5 * est.stderr

    def test_z_scores_over_200_seeds(self, k2, p3, unit_params):
        # the criterion-7 cases at T = 200 tau: no seed misses by 5 stderr
        cases = [(assemble_droop(k2, unit_params), 1 / 3),
                 (assemble_slack(p3, ControllerParams(c=1.0), 0), 0.5)]
        for m, target in cases:
            tau = slowest_time_constant(m)
            z = [(est.mean - target) / est.stderr for est in (
                white_noise_variance(m, T=200 * tau, seed=seed)
                for seed in range(200))]
            assert max(map(abs, z)) <= 5.0

    def test_paper_gain_dapi_path100(self):
        # 28 steps of tau / 2 at dim 200: the peak is the noise step's, Phi
        # and the Gramian's nine dim x dim arrays (3.2 MB measured), above
        # the three noise blocks of NOISE_BLOCK doubles alive at once
        net = generate_lattice(1, 100)
        m = assemble_dapi(net, PAPER)
        tau = slowest_time_constant(m)
        tracemalloc.start()
        try:
            est = white_noise_variance(m, T=200 * tau, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(est.mean - h2_closed_form_dapi(net, PAPER)) <= 3 * est.stderr
        assert peak < 4e6

    def test_memory_does_not_grow_with_horizon(self):
        # 2100 steps in two noise blocks; at the hand-over three blocks of
        # NOISE_BLOCK doubles (0.5 MiB each) are alive
        tracemalloc.start()
        try:
            white_noise_variance(scalar_model(), T=1e5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_noise_factor_is_stable(self, monkeypatch):
        # a 2e-16 relative change in every entry of Q_d (kappa about 7e10
        # at paper gains) barely moves the seeded estimate
        m = assemble_dapi(generate_lattice(1, 100), PAPER)
        tau = slowest_time_constant(m)
        base = white_noise_variance(m, T=200 * tau, seed=3)
        exact = simulation.noise_step
        signs = np.where(stream(0).random((m.dim, m.dim)) < 0.5, -1.0, 1.0)
        signs = np.triu(signs) + np.triu(signs, 1).T

        def perturbed(model, h):
            phi, q_d = exact(model, h)
            return phi, q_d * (1.0 + 2e-16 * signs)
        monkeypatch.setattr(simulation, "noise_step", perturbed)
        moved = white_noise_variance(m, T=200 * tau, seed=3)
        assert abs(moved.mean / base.mean - 1.0) < 1e-11

    def test_slow_mode_lost_by_propagator(self):
        # at rate 1e-16 the propagator loses the slow decay (on the
        # diagonal model Phi's slow entry is exactly 1, and the singular
        # W - Phi W Phi^T is refused); the block exponential's Q_d gave
        # 0.147 times the variance on this rotation (z = -95) and 26.5
        # times it on the diagonal model (z = +4.6); measured now: z = -2.1
        rot = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]
        m = StateSpaceModel(rot @ np.diag([-1.0, -1e-16]) @ rot.T, np.eye(2),
                            np.eye(2), ("V0", "V1"), "droop")
        exact = 0.5 + 0.5e16
        try:
            est = white_noise_variance(
                m, T=200 * slowest_time_constant(m), seed=1)
        except errors.DCGridError:
            return
        assert abs(est.mean - exact) <= 5 * est.stderr

    def test_singular_noise_covariance(self):
        # the noise never reaches the second state: Q_d has no Cholesky
        # factor
        m = StateSpaceModel(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]),
                            np.eye(2), ("V0", "V1"), "droop")
        with pytest.raises(errors.SingularSystem, match="Q_d"):
            white_noise_variance(m, T=100.0)

    @pytest.mark.parametrize("b, h", [(1e200, 1.0), (1.0, 1e200)],
                             ids=["noise", "output"])
    def test_overflow(self, b, h):
        m = StateSpaceModel(np.array([[-1.0]]), np.array([[b]]),
                            np.array([[h]]), ("V0",), "droop")
        with pytest.raises(errors.NonFiniteState):
            white_noise_variance(m, T=100.0)


def noise_model(a, b):
    """A model of dx = a x dt + b dW, for ``noise_step``."""
    labels = tuple(f"V{i}" for i in range(a.shape[0]))
    return StateSpaceModel(a, b, np.eye(a.shape[0]), labels, "droop")


class TestVanLoan:
    """noise_step against the Lyapunov difference and Van Loan's block
    exponential."""

    @pytest.mark.parametrize("case", ["droop_k2", "dapi_path10"])
    @pytest.mark.parametrize("steps", [1, 1000])
    def test_matches_lyapunov_difference(self, k2, unit_params, case, steps):
        # the stationary covariance P solves A P + P A^T + B B^T = 0, and
        # one exact step keeps it: P = Phi P Phi^T + Q_d
        if case == "droop_k2":
            m = assemble_droop(k2, unit_params)
        else:
            m = assemble_dapi(generate_lattice(1, 10), ControllerParams(
                c=1e-3, k_p=0.1, k=100.0, gamma=1000.0))
        bbt = m.b @ m.b.T
        p = solve_lyapunov(m.a.T, bbt).P
        h = steps * default_dt(m)
        phi, q_d = noise_step(m, h)
        assert np.allclose(phi, expm(m.a * h), rtol=1e-10, atol=1e-14)
        expected = p - phi @ p @ phi.T
        assert (np.linalg.norm(q_d - expected)
                <= 1e-10 * np.linalg.norm(expected))

    @pytest.mark.parametrize("rate", [1e-8, 1e-12, 1e-15])
    def test_chain_keeps_the_gramian(self, rate):
        # the stationary covariance P = Phi P Phi^T + Q_d of the chain is
        # W = diag(1/2, 1 / (2 rate)), whatever error the slow entry of
        # Phi carries (3.7e-9 here); the block exponential's Q_d put P's
        # slow entry 7.4e-9 off
        m = noise_model(np.diag([-1.0, -rate]), np.eye(2))
        phi, q_d = noise_step(m, 0.5 / rate)
        p = np.linalg.solve(np.eye(4) - np.kron(phi, phi), q_d.ravel())
        assert np.allclose(p, [0.5, 0.0, 0.0, 0.5 / rate], rtol=1e-12,
                           atol=0.0)

    @staticmethod
    def _block_reference(a, q, h):
        # Van Loan's 2 dim x 2 dim block exponential, taken where both
        # norms of a h0 are at most 1 and doubled back to h
        n = a.shape[0]
        scaled = max(np.abs(a).sum(axis=0).max(), np.abs(a).sum(axis=1).max())
        k = max(0, int(np.ceil(np.log2(scaled * h))))
        e = expm(np.block([[-a, q], [np.zeros_like(a), a.T]]) * (h / 2.0**k))
        phi = e[n:, n:].T
        q_d = phi @ e[:n, n:]
        for _ in range(k):
            q_d = q_d + phi @ q_d @ phi.T
            phi = phi @ phi
        return phi, q_d

    @staticmethod
    def _dapi_path100():
        m = assemble_dapi(generate_lattice(1, 100), PAPER)
        return m, 10.0 * slowest_time_constant(m)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_dim_200_matches_block_exponential(self, transpose):
        m, h = self._dapi_path100()
        a = m.a.T if transpose else m.a
        q = m.h.T @ m.h
        phi, q_d = noise_step(noise_model(a, m.h.T), h)
        ref_phi, ref_q_d = self._block_reference(a, q, h)
        assert m.dim == 200
        assert (np.linalg.norm(phi - ref_phi)
                <= 1e-10 * np.linalg.norm(ref_phi))
        assert (np.linalg.norm(q_d - ref_q_d)
                <= 1e-10 * np.linalg.norm(ref_q_d))

    def test_dim_200_memory(self):
        # the 400 x 400 block and expm's work arrays took 9.8 MB; Phi
        # beside the dual Gramian's work arrays measure 3.2 MB
        m, h = self._dapi_path100()
        model = noise_model(m.a.T, m.h.T)
        tracemalloc.start()
        try:
            noise_step(model, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestEnergyDecay:
    def test_droop_capacitive_energy_monotone(self, p3):
        # x^T C x is a Lyapunov function for the droop dynamics
        c = 2.0
        m = assemble_droop(p3, ControllerParams(c=c, k_p=0.3))
        traj = simulate(m, [1.0, -2.0, 0.5], T=5.0, rows=50)
        energy = c * np.sum(traj.states**2, axis=1)
        assert np.all(np.diff(energy) <= 1e-12)


class TestExportTrajectory:
    def test_header_and_roundtrip(self, p3, paper_params):
        m = assemble_droop(p3, paper_params)
        traj = simulate(m, [0.3, -0.1, 0.7], T=0.5, rows=10)
        text = export_trajectory(traj, [0, 2])
        lines = text.strip().split(b"\n")
        assert lines[0] == b"t,V_0,V_2"
        parsed = np.array([[float(v) for v in ln.split(b",")]
                           for ln in lines[1:]])
        assert np.array_equal(parsed[:, 0], traj.times)
        assert np.array_equal(parsed[:, 1], traj.states[:, 0])
        assert np.array_equal(parsed[:, 2], traj.states[:, 2])

    def test_same_text_as_per_value_repr(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        traj = simulate(m, np.arange(1.0, 7.0), T=1.0, rows=150)
        lines = ["t,V_2,V_0"]
        for row, t in enumerate(traj.times):
            lines.append(",".join([repr(float(t))] + [
                repr(float(traj.states[row, col])) for col in (5, 3)]))
        assert (export_trajectory(traj, [2, 0])
                == ("\n".join(lines) + "\n").encode())

    def test_empty_subset(self, k2, paper_params):
        m = assemble_droop(k2, paper_params)
        traj = simulate(m, [1.0, 0.0], T=0.5, rows=10)
        assert export_trajectory(traj, []).split(b"\n")[0] == b"t"

    def test_grounded_bus_rejected(self, p3, paper_params):
        m = assemble_slack(p3, paper_params, ground=0)
        traj = simulate(m, [1.0, 0.0], T=0.5, rows=10)
        with pytest.raises(errors.IndexOutOfRange):
            export_trajectory(traj, [0])

    def test_integrator_states_not_exported(self, k2, paper_params):
        m = assemble_dapi(k2, paper_params)
        traj = simulate(m, np.zeros(4), T=0.1, rows=10)
        text = export_trajectory(traj, [0, 1])
        assert text.split(b"\n")[0] == b"t,V_0,V_1"
