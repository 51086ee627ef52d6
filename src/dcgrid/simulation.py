"""Time-domain simulation of the closed-loop systems.

Every route steps the LTI system dx = Ax dt + B dW exactly, so no step
size is too large for stability and none is refined for accuracy.
``simulate(model, x0, T, rows)`` lays out its own trajectory grid from
``default_dt`` and the row target and fills one preallocated array: row r
is expm(A h)^r x0, its first sqrt(count) rows advanced one at a time by
the propagator expm(A h) and each later block of as many rows by one
product with that propagator's power, so it matches the row-by-row
recurrence to rounding. The expected output energy route to the H2 norm
draws random initial conditions x0 = B xi, xi standard normal, so that
cov(x0) = B B^T: unit normal bus voltages with any integrator at zero,
since B's columns are the voltage states. Each sample's output energy is
x0^T G x0, G the infinite-horizon observability Gramian, doubled to
convergence from a cycle of trapezoid (Cayley) steps whose shifts span
A's spectrum from 1 / ||A^-1|| to its row-sum bound (Penzl's cyclic
Smith iteration); the cycle's Stein fixed point is G itself, with no
eigensolve. The steady-state output variance route runs independent
white-noise chains side by side from x = 0, adds the exact discrete
noise at a step of half the slowest time constant, and averages each
chain's output after a warm-up. Its step covariance is
Q_d = W - Phi W Phi^T (``noise_step``), W the controllability Gramian,
the same Gramian routine's on the dual system (A^T, B^T), so a chain's
stationary covariance is W to rounding whatever error Phi carries. Each
estimate draws its randomness from one counter-based Philox stream per
seed, sample after sample, so sample i depends only on (seed, i); a seed
is an integer in [0, 2^64). The module needs numpy alone: ``propagator``
sums expm's Taylor series itself, by the Paterson-Stockmeyer scheme.
``export_trajectory`` returns CSV bytes, each value the same text as its
``repr``, formatted in 1024-row blocks by ``shortest.csv_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidSize,
    NonFiniteState,
    NotHurwitz,
    SingularSystem,
)
from .network import MEMORY_BUDGET_BYTES, check_index
from .numerics import as_array, integer_in, positive_real, real_array
from .shortest import csv_rows
from .systems import StateSpaceModel

# Penzl's cyclic Smith(l): the Gramian's l trapezoid steps spread their
# shifts over the spectrum before the squaring starts. On DAPI path:100 at
# the paper's gains (decay rates 0.1 to 4099), best of 30 rounds of 8
# calls with one BLAS thread on a 2-vCPU x86 machine: l = 2 takes 8
# doublings and 12.7 ms, l = 1 (the geometric-mean shift) 13 doublings and
# 14.3 ms, l = 3 6 doublings and 14.1 ms (each step costs an inverse), and
# a single step at the shift 2 rho 21 doublings and 20.2 ms.
CYCLE_STEPS = 2  # trapezoid steps in the Gramian's cycle
# A decay rate below about 2^-52 times the cycle's smallest shift rounds
# away in its steps; any rate above it has decayed past rounding by 2^58
# cycles, 58 of these doublings.
MAX_DOUBLINGS = 64  # Gramian horizon doublings of the cycle, 6 to spare
# At norm <= 1 the Taylor series of expm past degree 20 sums to about
# 1/21! = 2e-20, under rounding; 20 is a multiple of the four powers that
# propagator's Paterson-Stockmeyer scheme keeps.
TAYLOR_DEGREE = 20  # degree of propagator's series
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
    """Row-sum (infinity-norm) upper bound on the spectral radius; inf,
    with no warning, when a row's sum overflows."""
    with np.errstate(over="ignore"):
        return float(np.abs(a).sum(axis=1).max())


def default_dt(model: StateSpaceModel) -> float:
    """A tenth of 1 / rho(A), rho from the row-sum bound; inf when A is so
    small (say, underflowed to zero) that this overflows, and 0 when rho
    does: steps no horizon holds a finite count of, so ``simulate``
    refuses the model with InvalidSize."""
    rho = spectral_radius_bound(model.a)
    return 0.1 / rho if rho > 0.0 else math.inf


def slowest_time_constant(model: StateSpaceModel) -> float:
    """Reciprocal of the slowest decay rate of A; NotHurwitz when some
    mode of A does not decay (the stochastic routes' stability check)."""
    rate = float(np.min(-np.linalg.eigvals(model.a).real))
    if not rate > 0.0:
        raise NotHurwitz(f"{model.kind} system matrix is not Hurwitz")
    return 1.0 / rate


def stream(seed: int) -> np.random.Generator:
    """Counter-based Philox RNG stream of one seed (key seed * 2^64); the
    one check of every seed: IndexOutOfRange unless it is an integer in
    [0, 2^64)."""
    seed = check_index(seed, 2**64, "seed")
    return np.random.Generator(np.random.Philox(key=seed << 64))


def _halvings(bound: float, h: float) -> int:
    """Least k with bound h / 2^k <= 1, for a norm bound of a matrix;
    InvalidSize when bound h overflows, so no count of halvings is
    finite."""
    scaled = bound * h
    if not math.isfinite(scaled):
        raise InvalidSize(f"step h={h} times the norm bound {bound} has no "
                          "finite count of halvings")
    return int(np.ceil(np.log2(scaled))) if scaled > 1.0 else 0


def propagator(a: np.ndarray, h: float) -> np.ndarray:
    """expm(a h): its degree-``TAYLOR_DEGREE`` Taylor polynomial at
    X = a h / 2^k, squared k times, with k from ``_halvings`` of the
    row-sum bound so that ||X|| <= 1 and the truncation stays below
    rounding at any h (the squarings of a Hurwitz a's propagator
    underflow to 0). The polynomial is Horner's rule in X^4 over blocks
    of four terms in I, X, X^2 and X^3 (Paterson and Stockmeyer 1973):
    7 products where the term-by-term sum takes 19. Each block's X to X^3
    terms are one product of its three coefficients with those powers
    stacked, and its identity term is added on the diagonal, so at most
    six dim x dim arrays are alive at once."""
    k = _halvings(spectral_radius_bound(a), h)
    dim = a.shape[0]
    powers = np.empty((3, dim, dim))
    x, x2, x3 = powers
    np.multiply(a, math.ldexp(h, -k), out=x)
    np.matmul(x, x, out=x2)
    np.matmul(x2, x, out=x3)
    x4 = x2 @ x2
    stacked = powers.reshape(3, -1)
    coef = np.array([1.0 / math.factorial(j)
                     for j in range(TAYLOR_DEGREE + 1)])
    phi = coef[TAYLOR_DEGREE] * x4
    for start in range(TAYLOR_DEGREE - 4, -1, -4):
        phi += (coef[start + 1:start + 4] @ stacked).reshape(dim, dim)
        phi.reshape(-1)[::dim + 1] += coef[start]  # a view: phi is C-order
        if start:
            phi = x4 @ phi
    for _ in range(k):
        phi = phi @ phi
    return phi


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
    T: float  # Gramian's cycle span sum(2 / p_i) times 2^doublings, or
    # white noise's averaged time
    dt: float  # Gramian's shortest trapezoid step 2 / max(p_i), or the
    # white-noise step
    converged: bool  # always True: both routes run to their own end


def simulate(model: StateSpaceModel, x0, T: float, rows: int) -> Trajectory:
    """Solve dx/dt = Ax from x0 over [0, T], recording about ``rows`` rows.

    The grid: round(T / dt) steps of dt = ``default_dt``, one row every
    stride = max(1, steps // rows) of them, count = steps // stride and
    count + 1 rows in all. Row r is P^r x0 for the exact propagator
    P = expm(A dt stride) (see ``propagator``); the Trajectory's dt is
    that recording interval. The first b = isqrt(count) rows are advanced
    one at a time by P, and each later block of up to b rows by one
    product with P^b from the block before it, so a trajectory takes
    about 2 sqrt(count) products and matches the row-by-row recurrence
    x <- P x to rounding. InvalidSize when x0 is not one value per state
    (a ragged list included, ``numerics.as_array``),
    rows is not an integer of at least 1 (``integer_in``), T is not one
    positive finite number (``positive_real``) of at least one step (no T
    holds the infinite step of a zero A) or T / dt is not a finite count
    (the zero step of an A whose row-sum bound overflows included), or
    the (count + 1) x dim doubles of the states pass
    ``network.MEMORY_BUDGET_BYTES``, all checked before P is computed;
    NonFiniteState when x0 is not real (``numerics.real_array``).
    Deterministic: identical arguments give identical output.
    """
    x = as_array(x0, "initial state")
    if x.shape != (model.dim,):
        raise InvalidSize(f"initial state of shape {x.shape} for a "
                          f"model of {model.dim} states")
    x = real_array(x, "initial state")
    if not integer_in(rows, 1):
        raise InvalidSize(f"rows must be an integer of at least 1, got "
                          f"{rows!r}")
    dt = default_dt(model)
    if dt == 0.0:
        raise InvalidSize(f"{model.kind} system matrix's row-sum bound "
                          "overflows, so it sets no finite step count")
    if not (positive_real(T) and np.isfinite(T / dt) and T >= dt):
        raise InvalidSize(f"horizon T={T} must hold a finite count of at "
                          f"least one step dt={dt}")
    steps = int(round(T / dt))
    stride = max(1, steps // rows)
    count = steps // stride
    if (count + 1) * model.dim * 8 > MEMORY_BUDGET_BYTES:
        raise InvalidSize(f"{count + 1} rows of {model.dim} states pass the "
                          f"memory budget of {MEMORY_BUDGET_BYTES} bytes")
    rec_dt = dt * stride
    prop = propagator(model.a, rec_dt)
    states = np.empty((count + 1, model.dim))
    states[0] = x
    block = math.isqrt(count)  # count >= 1: T holds at least one step
    for r in range(1, block + 1):
        states[r] = prop @ states[r - 1]
    jump = np.linalg.matrix_power(prop, block).T
    for r in range(block + 1, count + 1, block):
        top = min(r + block, count + 1)
        np.matmul(states[r - block:top - block], jump, out=states[r:top])
    if not np.isfinite(states).all():
        raise NonFiniteState("trajectory overflowed to non-finite values")
    times = rec_dt * np.arange(count + 1)
    return Trajectory(times, states, rec_dt, model.state_labels)


def _check_samples(model: StateSpaceModel, samples, low: int) -> None:
    """InvalidSize unless ``samples`` is an integer from ``low`` to the most
    samples within the memory budget (``network.MEMORY_BUDGET_BYTES``):
    :func:`monte_carlo_h2` holds three samples x dim arrays of doubles at
    once (x, G x and their product)."""
    high = MEMORY_BUDGET_BYTES // (3 * 8 * model.dim)
    if not integer_in(samples, low, high):
        raise InvalidSize(f"samples must be an integer in [{low}, {high}] "
                          f"for {model.dim} states, got {samples!r}")


def sample_initial(model: StateSpaceModel, seed: int, samples: int
                   ) -> np.ndarray:
    """Random initial states x0 = B xi, xi standard normal, one column per
    Monte Carlo sample, so cov(x0) = B B^T.

    B's columns are the voltage states in label order, so these are unit
    normal bus voltages with any integrator at zero. All columns come from
    the one stream of ``seed``, sample after sample, so column i depends
    only on (seed, i). InvalidSize unless ``samples`` is an integer from 1
    to the memory budget's bound (``_check_samples``).
    """
    _check_samples(model, samples, 1)
    xi = stream(seed).standard_normal((samples, model.b.shape[1]))
    return model.b @ xi.T


def _gramian(a: np.ndarray, output: np.ndarray, kind: str
             ) -> tuple[np.ndarray, list[float], int]:
    """(G, steps, d): G = int_0^inf e^{A^T s} H^T H e^{A s} ds, the
    observability Gramian of (A, H = ``output``) (of the dual (A^T, B^T),
    the controllability one), by Penzl's cyclic Smith iteration (SIAM J.
    Sci. Comput. 21(4), 2000), squared; ``kind`` names A in the errors. A
    is first scaled, exactly, by the power of two that takes its largest
    |a_ij| into [1/2, 1), so no row sum, inverse or shift leaves the
    doubles' range. A cycle of ``CYCLE_STEPS`` trapezoid (Cayley) steps
    follows, with shifts p_i log-spaced over [1 / ||A^-1||_inf, rho]
    (rho the row-sum bound), each the midpoint of its share of that
    interval in log scale. Step i is Phi_i = -I + 2 p_i (p_i I - A)^-1,
    of length 2 / p_i, and it folds into G0 <- Phi_i^T G0 Phi_i
    + 2 p_i Y_i Y_i^T with Y_i = (p_i I - A)^-T H^T, kept as the factor
    of G0 = Z Z^T. With Phi the cycle's product, G is exactly the Stein
    fixed point G = Phi^T G Phi + G0. d doublings G <- G + Phi^T G Phi,
    Phi <- Phi^2 run until ||Phi||_1 < 1 (a Hurwitz certificate) and G
    keeps its bits. steps are the cycle's step lengths 2 / p_i in A's
    time unit. NotHurwitz when A is zero or singular, A^-1 overflows, A
    has an eigenvalue at a shift, Phi's powers overflow or
    ``MAX_DOUBLINGS`` pass; NonFiniteState when G overflows while Phi
    contracts."""
    top = float(np.abs(a).max())
    exponent = math.frexp(top)[1]  # top = mantissa 2^exponent
    a = np.ldexp(a, -exponent)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        try:
            low = 1.0 / np.linalg.norm(np.linalg.inv(a), np.inf)
        except np.linalg.LinAlgError as exc:
            raise NotHurwitz(f"{kind} system matrix is singular in working "
                             "precision") from exc
        if not low > 0.0:
            raise NotHurwitz(f"{kind} system matrix's inverse overflows: "
                             "a decay rate is lost below rounding")
        high = spectral_radius_bound(a)
        eye = np.eye(a.shape[0])
        factor = np.empty((a.shape[0], 0))
        phi_t, steps = eye, []  # the cycle's Phi^T = Phi_1^T Phi_2^T ...
        for i in range(CYCLE_STEPS):
            frac = (2 * i + 1) / (2 * CYCLE_STEPS)
            # low^(1 - frac) high^frac, exactly high when low is; low / high
            # cannot overflow, since high >= 1/2
            shift = high * (low / high) ** (1.0 - frac)
            try:
                res_t = np.linalg.inv(shift * eye - a).T
            except np.linalg.LinAlgError as exc:
                raise NotHurwitz(
                    f"{kind} system matrix has an eigenvalue at the shift "
                    f"{float(np.ldexp(shift, exponent)):.3g}") from exc
            step_t = 2.0 * shift * res_t - eye  # Phi_i^T
            factor = np.concatenate([step_t @ factor, math.sqrt(2.0 * shift)
                                     * (res_t @ output.T)], axis=1)
            phi_t = phi_t @ step_t
            steps.append(float(np.ldexp(2.0 / shift, -exponent)))
        gram = np.ldexp(factor @ factor.T, -exponent)
        for doublings in range(MAX_DOUBLINGS + 1):
            if not np.isfinite(phi_t).all():
                raise NotHurwitz(f"{kind} system: Phi's powers overflowed")
            contracts = np.linalg.norm(phi_t, np.inf) < 1.0  # ||Phi||_1
            if contracts and not np.isfinite(gram).all():
                raise NonFiniteState(f"{kind} system's Gramian overflowed")
            longer = gram + phi_t @ gram @ phi_t.T
            if contracts and np.array_equal(longer, gram):
                return gram, steps, doublings
            gram, phi_t = longer, phi_t @ phi_t
    raise NotHurwitz(f"{kind} system: Phi's powers did not decay within "
                     f"{MAX_DOUBLINGS} doublings of t = {sum(steps):.3g}")


def noise_step(model: StateSpaceModel, h: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, Q_d) of one exact step h of dx = Ax dt + B dW: Phi = expm(A h)
    (``propagator``, first, so a step with no finite count of halvings is
    InvalidSize) and the covariance the step adds, Q_d = W - Phi W Phi^T,
    W the controllability Gramian: ``_gramian`` of the dual (A^T, B^T),
    whose errors it raises."""
    phi = propagator(model.a, h)
    gram = _gramian(model.a.T, model.b.T, model.kind)[0]
    q_d = gram - phi @ gram @ phi.T
    return phi, 0.5 * (q_d + q_d.T)


def _mean_stderr(values: np.ndarray, what: str) -> tuple[float, float]:
    """Mean and standard error of ``values``, computed on them scaled by
    the power of two that takes their largest |value| into [1/2, 1), so
    no squared deviation underflows, and scaled back (exact in the normal
    range). NonFiniteState, naming ``what``, unless both are finite."""
    exponent = math.frexp(float(np.abs(values).max()))[1]
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        scaled = np.ldexp(values, -exponent)
        mean = float(np.ldexp(scaled.mean(), exponent))
        stderr = float(np.ldexp(np.std(scaled, ddof=1)
                                / np.sqrt(values.size), exponent))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise NonFiniteState(f"{what} or their mean and stderr overflowed")
    return mean, stderr


def monte_carlo_h2(model: StateSpaceModel, samples: int, seed: int = 0
                   ) -> McEstimate:
    """Estimate the expected output energy integral over random initial
    conditions x0 = B xi (``sample_initial``), each sample's energy exactly
    x0^T G x0 (G from ``_gramian``), so sampling is the only error. dt is
    the cycle's shortest trapezoid step and T the cycle's span, the sum of
    its steps, times 2^d for d doublings; always converged. NotHurwitz or
    NonFiniteState as ``_gramian``, and NonFiniteState when the energies
    or their mean and stderr overflow; InvalidSize unless ``samples`` is
    an integer from 2 to the memory budget's bound (``_check_samples``)."""
    _check_samples(model, samples, 2)
    gram, steps, doublings = _gramian(model.a, model.h, model.kind)
    x = sample_initial(model, seed, samples)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        energy = np.sum(x * (gram @ x), axis=0)
    mean, stderr = _mean_stderr(energy, "Monte Carlo energies")
    return McEstimate(mean, stderr, int(samples), "initial_condition",
                      seed, sum(steps) * 2.0**doublings, min(steps), True)


def white_noise_variance(model: StateSpaceModel, T: float, seed: int = 0
                         ) -> McEstimate:
    """Steady-state output variance under white-noise input.

    Runs ``WHITE_NOISE_CHAINS`` independent chains of dx = Ax dt + B dW,
    each from x = 0, stepped exactly as x <- Phi x + w with Phi and
    cov(w) = Q_d from ``noise_step`` at the step h = ``WHITE_NOISE_STEP``
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
    T must be one positive finite number (``positive_real``) and hold at
    least one step per chain, and at most ``WHITE_NOISE_MAX_STEPS``
    (else InvalidSize, before any stepping, as is a step h whose product
    with A's norm bound overflows); NotHurwitz or NonFiniteState as
    ``_gramian`` for W; Q_d must have a Cholesky factor (else
    SingularSystem); NonFiniteState when Q_d, the chains, or the mean and
    stderr overflow.
    """
    tau = slowest_time_constant(model)
    chains = WHITE_NOISE_CHAINS
    h = WHITE_NOISE_STEP * tau
    if not positive_real(T):
        raise InvalidSize(f"horizon T={T!r} must be one positive finite "
                          "number")
    per_chain = T / (chains * h)
    if not per_chain <= WHITE_NOISE_MAX_STEPS:
        raise InvalidSize(f"horizon T={T} needs {per_chain:.3g} steps h={h} "
                          f"per chain, past the budget of "
                          f"{WHITE_NOISE_MAX_STEPS}")
    kept = int(round(per_chain))
    if kept < 1:
        raise InvalidSize(f"horizon T={T} holds less than one step h={h} "
                          f"for each of {chains} chains")
    warmup = int(np.ceil(WARMUP_CONSTANTS / WHITE_NOISE_STEP))
    steps = warmup + kept
    block = max(1, NOISE_BLOCK // (model.dim * chains))
    # overflow shows as a non-finite Q_d or energy, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        phi, q_d = noise_step(model, h)
        if not np.isfinite(q_d).all():
            raise NonFiniteState("white-noise step covariance overflowed")
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
    mean, stderr = _mean_stderr(energy / kept, "white-noise chain means")
    return McEstimate(mean, stderr, chains, "white_noise", seed,
                      kept * chains * h, h, True)


def export_trajectory(traj: Trajectory, node_subset) -> bytes:
    """CSV bytes of selected bus voltages over time, full float precision.

    The header ``t,V_<node>,...`` is followed by one row per recorded
    time. Every value is written as its ``repr``, the shortest text that
    reads back as the same double, and the rows are the ASCII bytes of
    ``",".join(map(repr, row))``; ``shortest.csv_rows`` makes them in
    1024-row blocks with a vectorized Ryu kernel, its scaled products
    formed as certified double-doubles, and hands every value it cannot
    certify to ``repr`` itself. The bytes go to disk as they are.
    IndexOutOfRange unless ``node_subset`` is a sequence of buses, each
    an integer (``integer_in``) with a voltage state in ``traj``.
    """
    label_to_col = {lbl: k for k, lbl in enumerate(traj.state_labels)}
    buses = list(node_subset) if np.iterable(node_subset) else None
    if buses is None or not all(
            integer_in(bus, 0) and f"V{bus}" in label_to_col for bus in buses):
        raise IndexOutOfRange(f"no voltage state for buses {node_subset!r}")
    cols = [label_to_col[f"V{bus}"] for bus in buses]
    header = ",".join(["t"] + [f"V_{bus}" for bus in buses])
    table = np.column_stack([traj.times, traj.states[:, cols]])
    return (header + "\n").encode() + csv_rows(table)
