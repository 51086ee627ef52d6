import numpy as np
import pytest
from scipy.linalg import expm

from dcgrid import errors
from dcgrid.network import generate_lattice
from dcgrid.numerics import solve_lyapunov
from dcgrid.simulation import (
    default_dt,
    export_trajectory,
    monte_carlo_h2,
    sample_initial,
    simulate,
    slowest_time_constant,
    spectral_radius_bound,
    stream,
    van_loan,
    white_noise_variance,
)
from dcgrid.systems import (
    ControllerParams,
    StateSpaceModel,
    assemble_dapi,
    assemble_droop,
    assemble_slack,
    h2_closed_form_droop,
    h2_closed_form_slack,
)


def scalar_model(rate=1.0):
    return StateSpaceModel(np.array([[-rate]]), np.eye(1), np.eye(1),
                           ("V0",), "droop")


class TestStepControl:
    def test_spectral_radius_bound(self, p3, paper_params):
        m = assemble_droop(p3, paper_params)
        rho = spectral_radius_bound(m.a)
        assert rho >= np.abs(np.linalg.eigvals(m.a)).max()
        assert np.isclose(default_dt(m), 0.1 / rho)

    def test_slowest_time_constant_scalar(self):
        assert np.isclose(slowest_time_constant(scalar_model(4.0)), 0.25)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_not_hurwitz(self, rate):
        # the stochastic routes' stability decision
        with pytest.raises(errors.NotHurwitz):
            slowest_time_constant(scalar_model(rate))
        with pytest.raises(errors.NotHurwitz):
            monte_carlo_h2(scalar_model(rate), samples=10)
        with pytest.raises(errors.NotHurwitz):
            white_noise_variance(scalar_model(rate), T=10.0, dt=0.1)

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(errors.NonFiniteState):
            scalar_model(np.inf)

    @pytest.mark.parametrize("rate", [0.0, 1e-320])
    def test_no_finite_default_step(self, rate):
        # an A that underflowed sets no time scale to step by
        with pytest.raises(errors.StepTooLarge):
            default_dt(scalar_model(rate))

    def test_step_too_large(self):
        with pytest.raises(errors.StepTooLarge):
            simulate(scalar_model(), [1.0], T=1.0, dt=10.0)

    def test_negative_dt(self):
        with pytest.raises(errors.StepTooLarge):
            simulate(scalar_model(), [1.0], T=1.0, dt=-0.1)

    @pytest.mark.parametrize("dt, T", [
        (0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan),
        (0.1, np.inf), (0.1, -1.0),
    ])
    def test_non_finite_or_non_positive_rejected(self, dt, T):
        with pytest.raises(errors.StepTooLarge):
            simulate(scalar_model(), [1.0], T=T, dt=dt)
        with pytest.raises(errors.StepTooLarge):
            white_noise_variance(scalar_model(), T=T, dt=dt)


class TestSimulate:
    def test_zero_initial_state_stays_zero(self, k2, paper_params):
        m = assemble_droop(k2, paper_params)
        traj = simulate(m, np.zeros(2), T=1.0)
        assert np.array_equal(traj.states, np.zeros_like(traj.states))

    def test_k2_slack_exponential(self, k2):
        # grounded K2 with c = 1 is dV/dt = -V: V(1) = e^{-1}
        m = assemble_slack(k2, ControllerParams(c=1.0), ground=0)
        traj = simulate(m, [1.0], T=1.0, dt=1e-3)
        assert np.isclose(traj.states[-1, 0], np.exp(-1.0), atol=1e-6)

    def test_droop_zero_mode_decay(self, p3):
        # a uniform voltage profile sees only the droop gain: rate k_p / c
        c, k_p = 2.0, 0.4
        m = assemble_droop(p3, ControllerParams(c=c, k_p=k_p))
        traj = simulate(m, np.ones(3), T=2.0, dt=1e-3)
        assert np.allclose(traj.states[-1], np.exp(-k_p / c * 2.0), atol=1e-6)

    def test_record_every(self):
        traj = simulate(scalar_model(), [1.0], T=1.0, dt=0.01, record_every=10)
        assert len(traj.times) == 11
        assert np.isclose(traj.dt, 0.1)

    def test_deterministic(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        x0 = np.arange(6, dtype=float)
        a = simulate(m, x0, T=0.01, dt=1e-5)
        b = simulate(m, x0, T=0.01, dt=1e-5)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_matches_propagator_at_large_dt(self, p3, paper_params,
                                            record_every):
        # 40 times default_dt is 8 times the 0.5 / rho(A) that bounded RK4
        m = assemble_dapi(p3, paper_params)
        x0 = np.arange(1.0, 7.0)
        dt = 40 * default_dt(m)
        traj = simulate(m, x0, T=300 * dt, dt=dt, record_every=record_every)
        assert len(traj.times) == 300 // record_every + 1
        for t, state in zip(traj.times, traj.states):
            assert np.allclose(state, expm(m.a * t) @ x0, rtol=1e-9,
                               atol=1e-12)

    def test_labels_carried(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        traj = simulate(m, np.zeros(6), T=0.001, dt=1e-5)
        assert traj.state_labels == m.state_labels
        assert traj.kind == "dapi"


class TestStreams:
    def test_same_key_same_draws(self):
        a = stream(7).standard_normal(5)
        b = stream(7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = stream(7).standard_normal(5)
        c = stream(8).standard_normal(5)
        assert not np.array_equal(a, c)


class TestSampleInitial:
    def test_deterministic(self, p3, paper_params):
        m = assemble_droop(p3, paper_params)
        assert np.array_equal(sample_initial(m, 1, 4),
                              sample_initial(m, 1, 4))

    @pytest.mark.parametrize("mode", ["bb_star", "paper_fig2"])
    def test_prefix_stable(self, p3, paper_params, mode):
        m = assemble_dapi(p3, paper_params)
        assert np.array_equal(sample_initial(m, 5, 4, mode),
                              sample_initial(m, 5, 9, mode)[:, :4])

    def test_first_sample_keeps_seed_key(self, p3, paper_params):
        # sample 0 reads the stream keyed (seed << 64) | 0 from its start
        m = assemble_dapi(p3, paper_params)
        rng = np.random.Generator(np.random.Philox(key=(5 << 64) | 0))
        x0 = sample_initial(m, 5, 3, mode="paper_fig2")[:, 0]
        assert np.array_equal(x0[3:], rng.standard_normal(3))

    def test_paper_fig2_integrators_zero(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        x0 = sample_initial(m, 0, 1, mode="paper_fig2")[:, 0]
        assert np.array_equal(x0[:3], np.zeros(3))
        assert np.all(x0[3:] != 0)

    def test_bb_star_covariance(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        draws = sample_initial(m, 0, 4000)
        cov = draws @ draws.T / draws.shape[1]
        assert np.allclose(cov, m.b @ m.b.T, atol=0.12)

    def test_unknown_mode(self, k2, paper_params):
        m = assemble_droop(k2, paper_params)
        with pytest.raises(ValueError):
            sample_initial(m, 0, 1, mode="uniform")


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
        with pytest.raises(ValueError):
            monte_carlo_h2(assemble_droop(k2, unit_params), samples=1)

    def test_deterministic(self, p3, paper_params):
        m = assemble_droop(p3, paper_params)
        a = monte_carlo_h2(m, samples=20, seed=3)
        b = monte_carlo_h2(m, samples=20, seed=3)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_truncation_flag(self, k2, unit_params):
        m = assemble_droop(k2, unit_params)
        est = monte_carlo_h2(m, samples=10, t_max=0.05)
        assert not est.converged
        with pytest.raises(errors.TruncationNotConverged):
            monte_carlo_h2(m, samples=10, t_max=0.05, strict=True)

    def test_stiff_dapi_runs_fast(self, paper_params):
        # 1 mF capacitances make the DAPI system stiff; the adaptive
        # propagator must still finish a realistic run in seconds
        net = generate_lattice(1, 10)
        m = assemble_dapi(net, paper_params)
        est = monte_carlo_h2(m, samples=50, seed=2, mode="paper_fig2")
        assert est.converged
        assert est.mean > 0


class TestWhiteNoise:
    def test_scalar_variance(self):
        # dx = -x dt + dW has stationary variance 1/2
        est = white_noise_variance(scalar_model(), T=4000.0, dt=0.01, seed=5)
        assert abs(est.mean - 0.5) <= 3 * est.stderr
        assert est.mode == "white_noise"

    def test_droop_k2(self, k2, unit_params):
        m = assemble_droop(k2, unit_params)
        est = white_noise_variance(m, T=3000.0, dt=0.005, seed=9)
        assert abs(est.mean - 1 / 3) <= 3 * est.stderr

    def test_zero_output_map(self, k2, unit_params):
        m = assemble_droop(k2, unit_params)
        silent = StateSpaceModel(m.a, m.b, np.zeros_like(m.h),
                                 m.state_labels, m.kind)
        est = white_noise_variance(silent, T=50.0, dt=0.01)
        assert est.mean == 0.0

    def test_horizon_too_short(self, k2, unit_params):
        m = assemble_droop(k2, unit_params)
        with pytest.raises(errors.StepTooLarge):
            white_noise_variance(m, T=0.1, dt=0.01)


class TestVanLoan:
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
        phi, q_d = van_loan(m.a, bbt, h)
        assert np.allclose(phi, expm(m.a * h), rtol=1e-10, atol=1e-14)
        expected = p - phi @ p @ phi.T
        assert (np.linalg.norm(q_d - expected)
                <= 1e-10 * np.linalg.norm(expected))


class TestEnergyDecay:
    def test_droop_capacitive_energy_monotone(self, p3):
        # x^T C x is a Lyapunov function for the droop dynamics
        c = 2.0
        m = assemble_droop(p3, ControllerParams(c=c, k_p=0.3))
        traj = simulate(m, [1.0, -2.0, 0.5], T=5.0, dt=1e-3, record_every=100)
        energy = c * np.sum(traj.states**2, axis=1)
        assert np.all(np.diff(energy) <= 1e-12)


class TestExportTrajectory:
    def test_header_and_roundtrip(self, p3, paper_params):
        m = assemble_droop(p3, paper_params)
        traj = simulate(m, [0.3, -0.1, 0.7], T=0.001, dt=1e-4)
        text = export_trajectory(traj, [0, 2])
        lines = text.strip().split("\n")
        assert lines[0] == "t,V_0,V_2"
        parsed = np.array([[float(v) for v in ln.split(",")]
                           for ln in lines[1:]])
        assert np.array_equal(parsed[:, 0], traj.times)
        assert np.array_equal(parsed[:, 1], traj.states[:, 0])
        assert np.array_equal(parsed[:, 2], traj.states[:, 2])

    def test_empty_subset(self, k2, paper_params):
        m = assemble_droop(k2, paper_params)
        traj = simulate(m, [1.0, 0.0], T=0.001, dt=1e-4)
        assert export_trajectory(traj, []).split("\n")[0] == "t"

    def test_grounded_bus_rejected(self, p3, paper_params):
        m = assemble_slack(p3, paper_params, ground=0)
        traj = simulate(m, [1.0, 0.0], T=0.001, dt=1e-5)
        with pytest.raises(errors.IndexOutOfRange):
            export_trajectory(traj, [0])

    def test_integrator_states_not_exported(self, k2, paper_params):
        m = assemble_dapi(k2, paper_params)
        traj = simulate(m, np.zeros(4), T=0.0001, dt=1e-6)
        text = export_trajectory(traj, [0, 1])
        assert text.split("\n")[0] == "t,V_0,V_1"
