"""Time-domain simulation of the closed-loop systems.

Every route steps the LTI system dx = Ax dt + B dW exactly, so no step
size is too large for stability. Deterministic runs advance by the
propagator expm(A h): recorded trajectories, and random initial
conditions for the expected output energy route to the H2 norm. The
white-noise run adds the exact discrete noise, whose covariance comes
from Van Loan's block exponential (steady-state output variance route).
Each estimate draws its randomness from one counter-based Philox stream
per seed, sample after sample, so sample i depends only on (seed, i).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    IndexOutOfRange,
    NonFiniteState,
    NotHurwitz,
    StepTooLarge,
    TruncationNotConverged,
)
from .systems import StateSpaceModel

TAIL_THRESHOLD = 1e-8  # terminal ||x||^2 relative to initial, per sample mean
T_MAX_CONSTANTS = 50.0  # default horizon cap in slowest time constants
WARMUP_FRACTION = 0.2


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


def _halvings(a: np.ndarray, h: float) -> int:
    """Least k with rho(a) h / 2^k <= 1, rho from the row-sum bound."""
    scaled = spectral_radius_bound(a) * h
    return int(np.ceil(np.log2(scaled))) if scaled > 1.0 else 0


def propagator(a: np.ndarray, h: float) -> np.ndarray:
    """expm(a h), taken at h / 2^k and squared k times (k from
    ``_halvings``). expm itself returns NaN once ||a h|| passes about
    1e38; the squarings of a Hurwitz a's propagator underflow to 0."""
    k = _halvings(a, h)
    phi = expm(a * (h / 2.0**k))
    for _ in range(k):
        phi = phi @ phi
    return phi


def van_loan(a: np.ndarray, q: np.ndarray, h: float):
    """Exact discretization of dx = a x dt + dW with cov(dW) = q dt.

    Returns (Phi, Q_d): Phi = expm(a h) and Q_d, the covariance that one
    step of length h adds, from Van Loan's block exponential of
    [[-a, q], [0, a^T]] (IEEE TAC 1978). That block holds expm(-a h),
    which overflows for stiff a at large h, so it is taken over
    h0 = h / 2^k (``_halvings``) and then doubled k times:
    Q_d(2h) = Q_d(h) + Phi(h) Q_d(h) Phi(h)^T.
    """
    n = a.shape[0]
    k = _halvings(a, h)
    block = np.block([[-a, q], [np.zeros_like(a), a.T]]) * (h / 2.0**k)
    e = expm(block)
    phi = e[n:, n:].T
    q_d = phi @ e[:n, n:]
    for _ in range(k):
        q_d = q_d + phi @ q_d @ phi.T
        phi = phi @ phi
    return phi, 0.5 * (q_d + q_d.T)


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of one deterministic run on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray  # (len(times), dim)
    kind: str
    seed: int
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

    def to_json(self) -> str:
        return json.dumps({
            "mean": self.mean, "stderr": self.stderr, "samples": self.samples,
            "mode": self.mode, "seed": self.seed, "T": self.T, "dt": self.dt,
            "converged": self.converged,
        }, indent=2, sort_keys=True)


def _check_step(dt: float, T: float) -> int:
    """Number of steps of length dt in [0, T], which must hold at least one."""
    if not (np.isfinite(dt) and dt > 0):
        raise StepTooLarge(f"dt must be positive and finite, got {dt}")
    if not (np.isfinite(T) and T >= dt):
        raise StepTooLarge(f"horizon T={T} must be finite and at least one "
                           f"step dt={dt}")
    return int(round(T / dt))


def simulate(model: StateSpaceModel, x0, T: float, dt: float | None = None,
             record_every: int = 1, seed: int = 0) -> Trajectory:
    """Solve dx/dt = Ax from x0 over [0, T] on a grid of step dt.

    Every ``record_every``-th step is recorded; each recorded row is one
    application of the exact propagator expm(A dt record_every) (see
    ``propagator``). The Trajectory's dt is the recording interval.
    Deterministic: identical arguments give identical output.
    """
    if dt is None:
        dt = default_dt(model)
    steps = _check_step(dt, T)
    rec_dt = dt * record_every
    prop = propagator(model.a, rec_dt)
    x = np.asarray(x0, dtype=float)
    recorded = [x]
    for _ in range(steps // record_every):
        x = prop @ x
        recorded.append(x)
    states = np.array(recorded)
    if not np.isfinite(states).all():
        raise NonFiniteState("trajectory overflowed to non-finite values")
    times = rec_dt * np.arange(len(recorded))
    return Trajectory(times, states, model.kind, seed, rec_dt,
                      model.state_labels)


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
                   mode: str = "bb_star", t_max: float | None = None,
                   strict: bool = False) -> McEstimate:
    """Estimate the expected output energy integral over random initial
    conditions.

    Integrates all samples simultaneously, accumulating the trapezoidal
    integral of y^T y per sample. States advance by the exact one-step
    propagator expm(A h); the step starts at ``default_dt`` and doubles
    once the modes it was resolving have died out (h never exceeds a
    tenth of the slowest time constant), which keeps stiff systems
    tractable without biasing the integral. The horizon extends until the
    mean squared state has decayed below a small fraction of its initial
    value or ``t_max`` (default 50 slowest time constants) is hit;
    hitting the cap flags the estimate as unconverged (and raises when
    strict).
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    tau = slowest_time_constant(model)
    dt = default_dt(model)
    if t_max is None:
        t_max = T_MAX_CONSTANTS * tau

    x = sample_initial(model, seed, samples, mode)
    initial_ms = float(np.mean(np.sum(x * x, axis=0)))
    integral = np.zeros(samples)
    y = model.h @ x
    w_prev = np.sum(y * y, axis=0)
    t = 0.0
    h = dt
    h_cap = max(dt, tau / 10.0)
    prop = propagator(model.a, h)
    converged = initial_ms == 0.0
    target = min(10.0 * tau, t_max)
    while not converged and t < t_max:
        while t < target:
            # a mode with rate >= 1/h has decayed by e^-100 once t >= 100 h,
            # so doubling the step no longer costs trapezoid accuracy
            if t >= 100.0 * h and 2.0 * h <= h_cap:
                h *= 2.0
                prop = propagator(model.a, h)
            x = prop @ x
            y = model.h @ x
            w = np.sum(y * y, axis=0)
            integral += 0.5 * h * (w_prev + w)
            w_prev = w
            t += h
        if not np.isfinite(x).all():
            raise NonFiniteState("Monte Carlo state overflowed")
        tail = float(np.mean(np.sum(x * x, axis=0)))
        if tail < TAIL_THRESHOLD * initial_ms:
            converged = True
        else:
            target = min(t + 10.0 * tau, t_max)  # extend and keep going
            if target <= t:
                break
    if strict and not converged:
        raise TruncationNotConverged(
            f"tail still above threshold at t_max={t_max}")
    mean = float(np.mean(integral))
    stderr = float(np.std(integral, ddof=1) / np.sqrt(samples))
    return McEstimate(mean, stderr, samples, "initial_condition",
                      seed, t, dt, converged)


def white_noise_variance(model: StateSpaceModel, T: float,
                         dt: float | None = None, seed: int = 0,
                         batches: int = 10) -> McEstimate:
    """Steady-state output variance under white-noise input.

    Steps dx = Ax dt + B dW exactly from x = 0 as x <- Phi x + w, with
    Phi and cov(w) from ``van_loan``; the first fifth of the steps is
    discarded as warmup and the remainder is time-averaged, with the
    standard error taken across contiguous batches. Only a Hurwitz A has
    a steady state (else NotHurwitz).
    """
    slowest_time_constant(model)
    if dt is None:
        dt = default_dt(model)
    steps = _check_step(dt, T)
    if steps < 10 * batches:
        raise StepTooLarge(f"horizon T={T} too short for {batches} batches")
    phi, q_d = van_loan(model.a, model.b @ model.b.T, dt)
    values, vectors = np.linalg.eigh(q_d)
    factor = vectors * np.sqrt(np.maximum(values, 0.0))  # Q_d = F F^T
    # row k holds w_k, then is overwritten with the state after step k
    path = stream(seed).standard_normal((steps, model.dim)) @ factor.T
    for k in range(1, steps):
        path[k] += phi @ path[k - 1]
    y = path[int(WARMUP_FRACTION * steps):] @ model.h.T
    kept = np.sum(y * y, axis=1)
    if not np.isfinite(kept).all():
        raise NonFiniteState("white-noise trajectory overflowed")
    batch_means = kept[: (kept.size // batches) * batches].reshape(
        batches, -1).mean(axis=1)
    mean = float(kept.mean())
    stderr = float(np.std(batch_means, ddof=1) / np.sqrt(batches))
    return McEstimate(mean, stderr, batches, "white_noise", seed, T, dt, True)


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
    lines = [header]
    for row, t in enumerate(traj.times):
        values = [repr(float(t))]
        values += [repr(float(traj.states[row, col])) for col in cols]
        lines.append(",".join(values))
    return "\n".join(lines) + "\n"
