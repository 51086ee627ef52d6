import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from dcgrid import errors, simulation
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
    h2_closed_form_dapi,
    h2_closed_form_droop,
    h2_closed_form_slack,
)

PAPER = ControllerParams(c=1e-3, k_p=0.1, k=100.0, gamma=1000.0)


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
            white_noise_variance(scalar_model(rate), T=10.0)

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
        # white noise takes no dt; T = 1 is too short for its chains
        with pytest.raises(errors.StepTooLarge):
            white_noise_variance(scalar_model(), T=T)


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
        # 1 mF capacitances make the DAPI system stiff; the chunked
        # propagator must still finish a realistic run in seconds
        net = generate_lattice(1, 10)
        m = assemble_dapi(net, paper_params)
        est = monte_carlo_h2(m, samples=50, seed=2, mode="paper_fig2")
        assert est.converged
        assert est.mean > 0

    @pytest.mark.parametrize("case, mode, samples", [
        ("droop K2", "bb_star", 2000), ("slack P3", "bb_star", 2000),
        ("dapi path:10", "bb_star", 200), ("dapi path:10", "paper_fig2", 200),
        ("dapi path:100", "bb_star", 200),
        ("dapi path:100", "paper_fig2", 200)])
    def test_mean_is_exact_quadratic_form(self, k2, p3, unit_params, case,
                                          mode, samples):
        # each sample's output energy is x0^T P x0 with A^T P + P A = -H^T H;
        # the chunk energies add up to it with no step bias
        if case == "droop K2":
            m = assemble_droop(k2, unit_params)
        elif case == "slack P3":
            m = assemble_slack(p3, ControllerParams(c=1.0), ground=0)
        else:
            n = int(case.split(":")[1])
            m = assemble_dapi(generate_lattice(1, n), PAPER)
        est = monte_carlo_h2(m, samples=samples, seed=4, mode=mode)
        x0 = sample_initial(m, 4, samples, mode)
        p = solve_lyapunov(m.a, m.h.T @ m.h).P
        exact = np.mean(np.sum(x0 * (p @ x0), axis=0))
        assert est.converged
        assert np.isclose(est.mean, exact, rtol=1e-7, atol=0.0)

    @staticmethod
    def _transient_model(coupling=1e18):
        # ||x(t)|| grows like coupling t e^-t before it decays, so the tail
        # test still fails after 50 time constants
        a = np.array([[-1.0, coupling], [0.0, -1.0]])
        return StateSpaceModel(a, np.eye(2), np.eye(2), ("V0", "V1"),
                               "droop")

    def test_default_horizon_is_five_chunks(self):
        m = self._transient_model()
        tau = slowest_time_constant(m)
        est = monte_carlo_h2(m, samples=10, seed=1)
        assert not est.converged
        assert est.dt == 10.0 * tau
        assert est.T == 5 * est.dt
        with pytest.raises(errors.TruncationNotConverged):
            monte_carlo_h2(m, samples=10, seed=1, strict=True)

    def test_horizon_rounds_up_to_whole_chunks(self):
        m = self._transient_model()
        est = monte_carlo_h2(m, samples=10, t_max=25.0)
        assert (est.dt, est.T) == (10.0, 30.0)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, np.nan, np.inf])
    def test_bad_horizon_rejected(self, k2, unit_params, t_max):
        with pytest.raises(errors.StepTooLarge):
            monte_carlo_h2(assemble_droop(k2, unit_params), samples=10,
                           t_max=t_max)


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
        with pytest.raises(errors.StepTooLarge):
            white_noise_variance(m, T=0.1)

    @pytest.mark.parametrize("budgets", [1.01, 1e290])
    def test_horizon_past_step_budget(self, budgets, monkeypatch):
        # tau = 1, so T holds `budgets` times the budgeted steps per chain
        # (1e290 makes T = 1.2e298); it is refused before the step matrices
        # are even made
        T = budgets * (simulation.WHITE_NOISE_MAX_STEPS
                       * simulation.WHITE_NOISE_CHAINS
                       * simulation.WHITE_NOISE_STEP)

        def refuse(*args, **kwargs):
            raise AssertionError("van_loan ran past the step budget")

        monkeypatch.setattr(simulation, "van_loan", refuse)
        with pytest.raises(errors.StepTooLarge, match="budget"):
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
        phi, q_d = van_loan(m.a, m.b @ m.b.T, est.dt)
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
        # 28 steps of tau / 2 at dim 200: the peak is the Van Loan terms
        # plus at most three noise blocks of NOISE_BLOCK doubles (2.9 MB)
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
        exact = simulation.van_loan
        signs = np.where(stream(0).random((m.dim, m.dim)) < 0.5, -1.0, 1.0)
        signs = np.triu(signs) + np.triu(signs, 1).T

        def perturbed(a, q, h):
            phi, q_d = exact(a, q, h)
            return phi, q_d * (1.0 + 2e-16 * signs)
        monkeypatch.setattr(simulation, "van_loan", perturbed)
        moved = white_noise_variance(m, T=200 * tau, seed=3)
        assert abs(moved.mean / base.mean - 1.0) < 1e-11

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
        phi, q_d = van_loan(a, q, h)
        ref_phi, ref_q_d = self._block_reference(a, q, h)
        assert m.dim == 200
        assert (np.linalg.norm(phi - ref_phi)
                <= 1e-10 * np.linalg.norm(ref_phi))
        assert (np.linalg.norm(q_d - ref_q_d)
                <= 1e-10 * np.linalg.norm(ref_q_d))

    def test_dim_200_memory(self):
        # the 400 x 400 block and expm's work arrays took 9.8 MB
        m, h = self._dapi_path100()
        q = m.h.T @ m.h
        tracemalloc.start()
        try:
            van_loan(m.a.T, q, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


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

    def test_same_text_as_per_value_repr(self, p3, paper_params):
        m = assemble_dapi(p3, paper_params)
        traj = simulate(m, np.arange(1.0, 7.0), T=1.0, dt=1e-3,
                        record_every=7)
        lines = ["t,V_2,V_0"]
        for row, t in enumerate(traj.times):
            lines.append(",".join([repr(float(t))] + [
                repr(float(traj.states[row, col])) for col in (5, 3)]))
        assert export_trajectory(traj, [2, 0]) == "\n".join(lines) + "\n"

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
