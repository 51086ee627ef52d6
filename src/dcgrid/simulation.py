"""Time-domain simulation of the closed-loop systems.

Every route steps the LTI system dx = Ax dt + B dW exactly, so no step
size is too large for stability and none is refined or doubled.
``simulate(model, x0, T, rows)`` lays out its own trajectory grid from
``default_dt`` and the row target, and advances each recorded row by the
propagator expm(A h). The expected output energy route to the H2 norm
advances random initial conditions by whole chunks and adds each chunk's
output energy exactly, as a quadratic form in the chunk's observability
Gramian. The steady-state output variance route runs independent
white-noise chains side by side from x = 0, adds the exact discrete
noise at a step of half the slowest time constant, and averages each
chain's output after a warm-up. The Gramian and the noise covariance
both come from Van Loan's block exponential (``van_loan``).
Each estimate draws its randomness from one counter-based Philox stream
per seed, sample after sample, so sample i depends only on (seed, i).
``scipy.linalg`` is imported on first use, inside ``propagator``, the
one caller of its ``expm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    NonFiniteState,
    NotHurwitz,
    SingularSystem,
    StepTooLarge,
)
from .systems import StateSpaceModel

TAIL_THRESHOLD = 1e-8  # terminal ||x||^2 relative to initial, per sample mean
T_MAX_CONSTANTS = 50.0  # default horizon cap in slowest time constants
CHUNK_CONSTANTS = 10.0  # Monte Carlo chunk length in slowest time constants
VAN_LOAN_TERMS = 20  # Taylor terms of van_loan's series at norm <= 1
# White noise, in slowest time constants tau. Averaging a mode of time
# constant tau at samples h apart has (h/tau) coth(h/tau) times the variance
# of averaging it continuously over the same time: 1.08 at h = tau/2 (the
# stderr 4% above the continuous limit), 1.31 at h = tau and 1.02 at
# h = tau/4, which doubles the steps. A chain started at x = 0 falls short
# of the stationary covariance by a factor below e^(-2t/tau), so a 10 tau
# warm-up leaves a relative bias below 2e-9. The chain count is the one
# whose z-scores over seeds 0-199 on the criterion-7 models at T = 200 tau
# came nearest the t law of C - 1 degrees of freedom, with the fewest
# beyond 3 and none beyond 5, among 8 to 64 chains.
WHITE_NOISE_STEP = 0.5  # step in tau
WARMUP_CONSTANTS = 10.0  # each chain's discarded start in tau
WHITE_NOISE_CHAINS = 48  # independent chains behind the mean and stderr
# Kept steps per chain that a horizon may ask for: about a minute at the
# fastest rate measured, 8.4e4 steps per second on a scalar model (48
# chains at once, one core of a 2-vCPU x86 machine). A 200-state DAPI
# model steps at 2e3 per second, so at the budget it takes about 40 min.
WHITE_NOISE_MAX_STEPS = 5_000_000
NOISE_BLOCK = 1 << 16  # normal draws held at once (512 KiB)


def spectral_radius_bound(a: np.ndarray) -> float:
    """Row-sum (infinity-norm) upper bound on the spectral radius."""
    return float(np.abs(a).sum(axis=1).max())


def default_dt(model: StateSpaceModel) -> float:
    """A tenth of 1 / rho(A), rho from the row-sum bound; StepTooLarge
    when A is so small (say, underflowed to zero) that this is not
    finite."""
    rho = spectral_radius_bound(model.a)
    dt = 0.1 / rho if rho > 0.0 else np.inf
    if dt == np.inf:
        raise StepTooLarge(f"A's row-sum bound {rho} sets no finite default "
                           "step")
    return dt


def slowest_time_constant(model: StateSpaceModel) -> float:
    """Reciprocal of the slowest decay rate of A; NotHurwitz when some
    mode of A does not decay (the stochastic routes' stability check)."""
    rate = float(np.min(-np.linalg.eigvals(model.a).real))
    if not rate > 0.0:
        raise NotHurwitz(f"{model.kind} system matrix is not Hurwitz")
    return 1.0 / rate


def stream(seed: int) -> np.random.Generator:
    """Counter-based Philox RNG stream of one seed (key seed * 2^64)."""
    return np.random.Generator(np.random.Philox(key=int(seed) << 64))


def _halvings(bound: float, h: float) -> int:
    """Least k with bound h / 2^k <= 1, for a norm bound of a matrix."""
    scaled = bound * h
    return int(np.ceil(np.log2(scaled))) if scaled > 1.0 else 0


def propagator(a: np.ndarray, h: float) -> np.ndarray:
    """expm(a h), taken at h / 2^k and squared k times (k from
    ``_halvings`` of the row-sum bound). expm itself returns NaN once
    ||a h|| passes about 1e38; the squarings of a Hurwitz a's propagator
    underflow to 0."""
    from scipy.linalg import expm

    k = _halvings(spectral_radius_bound(a), h)
    phi = expm(a * (h / 2.0**k))
    for _ in range(k):
        phi = phi @ phi
    return phi


def van_loan(a: np.ndarray, q: np.ndarray, h: float):
    """Exact discretization of dx = a x dt + dW with cov(dW) = q dt.

    Returns (Phi, Q_d): Phi = expm(a h) and Q_d, the integral over
    [0, h] of e^{a s} q e^{a^T s}, the covariance that one step of length
    h adds. Van Loan's block exponential (IEEE TAC 1978) of
    M = [[-a, q], [0, a^T]] holds E = expm(a^T h) in its lower right block
    and F with Q_d = E^T F in its upper right one. Only those two blocks
    are summed, as the Taylor series of expm(M h0), term j + 1 from term
    j: F <- (q E - a F) h0 / (j + 1), E <- a^T E h0 / (j + 1). At
    h0 = h / 2^k, with ||a h0|| <= 1 in the 1- and infinity-norms, the
    ``VAN_LOAN_TERMS`` terms take the truncation below rounding, and no
    2 dim x 2 dim block is formed (the upper left block expm(-a h0) is
    never needed, and it overflows for stiff a at large h). The step is
    then doubled k times: Q_d(2h) = Q_d(h) + Phi(h) Q_d(h) Phi(h)^T.
    """
    k = _halvings(max(spectral_radius_bound(a), spectral_radius_bound(a.T)),
                  h)
    h0 = h / 2.0**k
    e_term = np.eye(a.shape[0])
    f_term = np.zeros_like(a)
    e_sum = e_term.copy()
    f_sum = f_term.copy()
    for j in range(1, VAN_LOAN_TERMS + 1):
        f_term = q @ e_term - a @ f_term
        f_term *= h0 / j
        e_term = a.T @ e_term
        e_term *= h0 / j
        e_sum += e_term
        f_sum += f_term
    phi = e_sum.T
    q_d = phi @ f_sum
    for _ in range(k):
        q_d += phi @ q_d @ phi.T
        phi = phi @ phi
    return phi, 0.5 * (q_d + q_d.T)


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of one deterministic run on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray  # (len(times), dim)
    dt: float
    state_labels: tuple[str, ...]


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate of an H2-type quantity with its standard error."""

    mean: float
    stderr: float
    samples: int
    mode: str
    seed: int
    T: float
    dt: float
    converged: bool


def simulate(model: StateSpaceModel, x0, T: float, rows: int) -> Trajectory:
    """Solve dx/dt = Ax from x0 over [0, T], recording about ``rows`` rows.

    The grid: round(T / dt) steps of dt = ``default_dt``, one row every
    stride = max(1, steps // rows) of them, steps // stride + 1 rows in
    all. Each row is one step of the exact propagator expm(A dt stride)
    (see ``propagator``); the Trajectory's dt is that recording interval.
    StepTooLarge when T is not finite and at least one step, T / dt is not
    a finite count, or rows < 1. Deterministic: identical arguments give
    identical output.
    """
    dt = default_dt(model)
    if not (np.isfinite(T / dt) and T >= dt):
        raise StepTooLarge(f"horizon T={T} must hold a finite count of at "
                           f"least one step dt={dt}")
    if not rows >= 1:
        raise StepTooLarge(f"rows must be at least 1, got {rows}")
    steps = int(round(T / dt))
    stride = max(1, steps // rows)
    rec_dt = dt * stride
    prop = propagator(model.a, rec_dt)
    x = np.asarray(x0, dtype=float)
    recorded = [x]
    for _ in range(steps // stride):
        x = prop @ x
        recorded.append(x)
    states = np.array(recorded)
    if not np.isfinite(states).all():
        raise NonFiniteState("trajectory overflowed to non-finite values")
    times = rec_dt * np.arange(len(recorded))
    return Trajectory(times, states, rec_dt, model.state_labels)


def sample_initial(model: StateSpaceModel, seed: int, samples: int,
                   mode: str = "bb_star") -> np.ndarray:
    """Random initial states, one column per Monte Carlo sample.

    All columns come from the one stream of ``seed``, sample after
    sample, so column i depends only on (seed, i).
    bb_star: x0 = B xi with xi standard normal, so cov(x0) = B B^T.
    paper_fig2: unit normal voltages, integrators started at zero.
    """
    if mode == "bb_star":
        xi = stream(seed).standard_normal((samples, model.b.shape[1]))
        return model.b @ xi.T
    if mode == "paper_fig2":
        x0 = np.zeros((model.dim, samples))
        volt = model.voltage_indices()
        x0[volt] = stream(seed).standard_normal((samples, len(volt))).T
        return x0
    raise ValueError(f"unknown initial-condition mode {mode!r}")


def monte_carlo_h2(model: StateSpaceModel, samples: int, seed: int = 0,
                   mode: str = "bb_star", t_max: float | None = None
                   ) -> McEstimate:
    """Estimate the expected output energy integral over random initial
    conditions.

    Advances all samples together by whole chunks of length
    h = min(``CHUNK_CONSTANTS`` slowest time constants, t_max). Each
    chunk adds its output energy exactly, as the quadratic form x^T G x
    with the Gramian G = int_0^h e^{A^T s} H^T H e^{A s} ds, and then
    steps x <- expm(A h) x; G and expm(A^T h) come from one ``van_loan``
    call. Chunks run until the mean squared state has decayed below a
    small fraction of its initial value or the horizon reaches ``t_max``
    (default 50 slowest time constants), rounded up to whole chunks;
    stopping at the cap flags the estimate as unconverged. The estimate's
    T is the horizon run and its dt the chunk length.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    tau = slowest_time_constant(model)
    if t_max is None:
        t_max = T_MAX_CONSTANTS * tau
    if not (np.isfinite(t_max) and t_max > 0):
        raise StepTooLarge(f"horizon t_max={t_max} must be positive and "
                           "finite")
    h = min(CHUNK_CONSTANTS * tau, t_max)
    # a t_max within rounding of whole chunks adds no extra chunk
    max_chunks = int(np.ceil(t_max / h * (1.0 - 4.0 * np.finfo(float).eps)))
    phi_t, gram = van_loan(model.a.T, model.h.T @ model.h, h)
    prop = phi_t.T

    x = sample_initial(model, seed, samples, mode)
    initial_ms = float(np.mean(np.sum(x * x, axis=0)))
    energy = np.zeros(samples)
    chunks = 0
    converged = initial_ms == 0.0
    while not converged and chunks < max_chunks:
        energy += np.sum(x * (gram @ x), axis=0)
        x = prop @ x
        chunks += 1
        if not np.isfinite(x).all():
            raise NonFiniteState("Monte Carlo state overflowed")
        converged = (float(np.mean(np.sum(x * x, axis=0)))
                     < TAIL_THRESHOLD * initial_ms)
    mean = float(np.mean(energy))
    stderr = float(np.std(energy, ddof=1) / np.sqrt(samples))
    return McEstimate(mean, stderr, samples, "initial_condition",
                      seed, chunks * h, h, converged)


def white_noise_variance(model: StateSpaceModel, T: float, seed: int = 0
                         ) -> McEstimate:
    """Steady-state output variance under white-noise input.

    Runs ``WHITE_NOISE_CHAINS`` independent chains of dx = Ax dt + B dW,
    each from x = 0, stepped exactly as x <- Phi x + w with Phi and
    cov(w) = Q_d from ``van_loan`` at the step h = ``WHITE_NOISE_STEP``
    slowest time constants. The chains' states form one dim x chains
    block, advanced by one matrix product per step. Each chain discards
    a warm-up of ``WARMUP_CONSTANTS`` slowest time constants and then
    averages ||H x||^2 over its share of the horizon T; the estimate is
    the mean of the chain means and its stderr their standard error.
    The noise comes from the one stream of ``seed``, step after step in
    blocks of at most ``NOISE_BLOCK`` draws, so memory is O(dim x chains)
    whatever T is.

    The estimate's samples is the chain count, dt the step h and T the
    horizon averaged, summed over the chains (T rounded to whole steps
    per chain). Only a Hurwitz A has a steady state (else NotHurwitz);
    T must be finite and hold at least one step per chain, and at most
    ``WHITE_NOISE_MAX_STEPS`` (else StepTooLarge, before any stepping);
    Q_d must have a Cholesky factor (else SingularSystem).
    """
    tau = slowest_time_constant(model)
    chains = WHITE_NOISE_CHAINS
    h = WHITE_NOISE_STEP * tau
    if not (np.isfinite(T) and T > 0):
        raise StepTooLarge(f"horizon T={T} must be positive and finite")
    per_chain = T / (chains * h)
    if not per_chain <= WHITE_NOISE_MAX_STEPS:
        raise StepTooLarge(f"horizon T={T} needs {per_chain:.3g} steps h={h} "
                           f"per chain, past the budget of "
                           f"{WHITE_NOISE_MAX_STEPS}")
    kept = int(round(per_chain))
    if kept < 1:
        raise StepTooLarge(f"horizon T={T} holds less than one step h={h} "
                           f"for each of {chains} chains")
    warmup = int(np.ceil(WARMUP_CONSTANTS / WHITE_NOISE_STEP))
    steps = warmup + kept
    block = max(1, NOISE_BLOCK // (model.dim * chains))
    # overflow shows as a non-finite Q_d or energy, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        phi, q_d = van_loan(model.a, model.b @ model.b.T, h)
        if not np.isfinite(q_d).all():
            raise NonFiniteState("white-noise step covariance Q_d "
                                 "overflowed")
        try:
            factor = np.linalg.cholesky(q_d)  # Q_d = F F^T, F lower
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("white-noise step covariance Q_d is not "
                                 "numerically positive definite") from exc
        rng = stream(seed)
        x = np.zeros((model.dim, chains))
        energy = np.zeros(chains)
        for start in range(0, steps, block):
            noise = factor @ rng.standard_normal(
                (min(block, steps - start), model.dim, chains))
            for k, w in enumerate(noise, start):
                x = phi @ x
                x += w
                if k >= warmup:
                    y = model.h @ x
                    energy += np.sum(y * y, axis=0)
    chain_means = energy / kept
    if not np.isfinite(chain_means).all():
        raise NonFiniteState("white-noise trajectory overflowed")
    mean = float(chain_means.mean())
    stderr = float(np.std(chain_means, ddof=1) / np.sqrt(chains))
    return McEstimate(mean, stderr, chains, "white_noise", seed,
                      kept * chains * h, h, True)


def export_trajectory(traj: Trajectory, node_subset) -> str:
    """CSV of selected bus voltages over time, full float precision."""
    label_to_col = {lbl: k for k, lbl in enumerate(traj.state_labels)}
    cols = []
    for node in node_subset:
        key = f"V{node}"
        if key not in label_to_col:
            raise IndexOutOfRange(f"no voltage state for bus {node}")
        cols.append(label_to_col[key])
    header = ",".join(["t"] + [f"V_{node}" for node in node_subset])
    # repr of a listed Python float is the shortest round-trip string
    table = np.column_stack([traj.times, traj.states[:, cols]]).tolist()
    lines = [header] + [",".join(map(repr, row)) for row in table]
    return "\n".join(lines) + "\n"
