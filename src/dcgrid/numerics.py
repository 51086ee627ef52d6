"""Symmetric eigenvalues, Laplacian spectra, and Lyapunov solves.

These are the numerical kernels behind the closed-form H2 evaluation and
its independent Lyapunov oracle (Bartels-Stewart on the real Schur form
of the full system matrix, O(dim^3); that one Schur form also decides
whether the matrix is Hurwitz). A Laplacian spectrum is its
eigenvalues plus blocks of its pseudoinverse L^+ on demand; no n x n
eigenvector matrix is ever formed. It comes from one of two sources:
:func:`lattice_spectrum`, the Kronecker-sum formula for a uniform box
lattice (no eigensolve; O(n) work per node of L^+), or
:func:`laplacian_spectrum`, a dense eigenvalue solve (:func:`eig_sym`)
and, for L^+, a banded Cholesky factor of L grounded at node 0, built
from the graph's edge arrays, on any other graph. The dense solve splits
by the symmetries of a row-major box that the caller names as a hint:
each axis whose reversal the edges show to map the graph onto itself
halves the blocks, and on a square box the swap of axes 0 and 1 splits
them again (the dihedral group D_4), so the 2-fuzz of an m x m grid
takes four solves of about n / 8 and one of n / 4, where the reversals
alone gave four of n / 4 (7.1 ms against 12.5 ms at n = 1024, one BLAS
thread). Each block is summed straight from the edge list over the
orbits of the symmetry group, B[o, o'] = sum chi(u) chi(v) L_uv /
sqrt(|O_u| |O_v|) for a character chi, so a symmetric graph's spectrum
makes no n x n array. All routines are pure functions. Of scipy only
LAPACK routines are used, from ``scipy.linalg.lapack``: the Lyapunov
solve's gees and trsyl and the banded factor's pbtrf and pbtrs. Each
kernel imports them on first use, so a box lattice never loads
``scipy.linalg``, and calls them directly, with its input checked here
and a failure's ``info`` mapped to a DCGridError.

The module also holds the library's boundary predicates, one per kind
of input: :func:`integer_in` for every index, seed, count, size and
dimension, :func:`positive_real` for every gain, capacitance and
horizon, :func:`real_array` for the dtype of every array (a state-space
model's A, B and H, a Lyapunov equation's A and Q, an initial state),
and :func:`require_finite` for every computed result.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    DisconnectedGraph,
    InvalidSize,
    NonFiniteState,
    NotHurwitz,
    SingularSystem,
)

@dataclass(frozen=True)
class LaplacianSpectrum:
    """A connected graph's Laplacian spectrum, cached and shared by every
    consumer: ``values`` ascending with the zero mode exactly 0.0 first
    (made read-only), ``pinv(nodes)``, the |nodes| x |nodes| block of
    the pseudoinverse L^+ on those nodes, and ``reff(i, j)``, the
    quadratic form (e_i - e_j)^T L^+ (e_i - e_j), the effective resistance.
    ``reff`` forms the difference e_i - e_j before it applies L^+, so it
    keeps the digits that P_ii + P_jj - 2 P_ij cancels on near pairs."""

    values: np.ndarray
    pinv: Callable[[Sequence[int]], np.ndarray]
    reff: Callable[[int, int], float]

    def __post_init__(self):
        self.values.flags.writeable = False


@dataclass(frozen=True)
class LyapunovSolution:
    """Symmetric solution P of A^T P + P A = -Q with its residual norm."""

    P: np.ndarray
    residual: float


def require_finite(value, what: str) -> float:
    """``value`` as a float; NonFiniteState naming ``what`` when it is not
    finite. The closed forms and resistance indices pass their results
    through it: extreme resistances and gains overflow them to inf or
    leave them undefined (nan)."""
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteState(f"{what} is not finite: {value}")
    return value


def positive_real(value) -> bool:
    """Whether ``value`` is one real number (an int, a float or a numpy
    integer or floating scalar, not a bool) that is positive and finite
    as a float: the check of every gain, capacitance and simulation
    horizon."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and value <= sys.float_info.max and float(value) > 0)


def integer_in(value, low, high=math.inf) -> bool:
    """Whether ``value`` is an int or numpy integer, not a bool, in
    [low, high]: the check of every index, seed, count, size and
    dimension, so a float such as 2.5 or 4.0 is refused, not truncated."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and low <= int(value) <= high)


def real_array(value, what: str) -> np.ndarray:
    """``value`` as a float array if its dtype is bool, integer or floating
    (float64 comes back as it is, not copied), else NonFiniteState naming
    ``what``: the dtype check of every array that enters the library."""
    value = np.asarray(value)
    if value.dtype.kind not in "biuf":
        raise NonFiniteState(f"{what} must be real, got dtype {value.dtype}")
    return value.astype(float, copy=False)


def eig_sym(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (no eigenvectors). Only
    the lower triangle is read; its caller passes the blocks that
    :func:`_character_blocks` sums from the edges, symmetric by
    construction."""
    return np.linalg.eigvalsh(mat)


def _kron_values(sides, conductance: float) -> np.ndarray:
    """A box lattice's Laplacian eigenvalues in Kronecker (row-major mode)
    order: sums of the axes' path eigenvalues 4 sin^2(pi k / 2m) (the sin^2
    form does not cancel at small k, as 2 - 2 cos does). Entry 0 is the
    zero mode."""
    values = np.zeros(1)
    for m in sides:
        lam = 4.0 * np.sin(np.pi * np.arange(m) / (2 * m)) ** 2
        values = np.add.outer(values, lam).ravel()
    return conductance * values


def lattice_spectrum(sides, conductance: float) -> LaplacianSpectrum:
    """Laplacian spectrum of a box lattice with one conductance on every
    edge, nodes in row-major order, with no eigensolve.

    The eigenvalues, sorted, are the Kronecker sum of the axes' path
    Laplacian eigenvalues. L^+_ij is the sum over nonzero modes of
    v_ik v_jk / lambda_k. A node's mode row is the Kronecker product of
    its axes' DCT-II rows sqrt(2/m) cos(pi k (j + 1/2) / m) (sqrt(1/m)
    for k = 0), so a block on |nodes| nodes costs O(|nodes| n). R_eff(i, j)
    is the sum over nonzero modes of (v_ik - v_jk)^2 / lambda_k.
    """

    def mode_rows(nodes):
        """The nodes' nonzero-mode rows and eigenvalues, Kronecker order."""
        nodes = np.asarray(nodes, dtype=np.intp)
        rows = np.ones((nodes.size, 1))
        for m, j in zip(sides, np.unravel_index(nodes, sides)):
            # (2j + 1) k reduced mod 4m exactly keeps the cosine's argument
            # in [0, 2 pi), where it loses no precision at large j k
            phase = np.outer(2 * j + 1, np.arange(m)) % (4 * m)
            axis = np.sqrt(2.0 / m) * np.cos(np.pi * phase / (2 * m))
            axis[:, 0] = np.sqrt(1.0 / m)
            rows = (rows[:, :, None] * axis[:, None, :]).reshape(nodes.size, -1)
        # rows run in Kronecker order, as do these values: no sort needed
        return rows[:, 1:], _kron_values(sides, conductance)[1:]

    def pinv(nodes):
        modes, values = mode_rows(nodes)
        return (modes / values) @ modes.T

    def reff(i, j):
        modes, values = mode_rows([i, j])
        return float(np.sum((modes[0] - modes[1]) ** 2 / values))

    return LaplacianSpectrum(np.sort(_kron_values(sides, conductance)), pinv,
                             reff)


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> LyapunovSolution:
    """Solve A^T P + P A = -Q for symmetric PSD Q and Hurwitz A.

    Bartels-Stewart (CACM 1972), O(dim^3), from one real Schur form
    A^T = U T U^T. LAPACK standardises T's 2 x 2 blocks to equal diagonal
    entries, so diag(T) holds the real parts of A's eigenvalues and
    decides stability (else NotHurwitz). trsyl then solves
    T Y + Y T^T = -U^T Q U, and P = U Y U^T. When an eigenvalue pair of A
    sums to about zero, trsyl would perturb the equation and return a
    wrong P; that raises SingularSystem instead.

    The Schur form comes from LAPACK's gees, called directly with no sort
    and its minimum workspace: scipy's ``schur`` adds a workspace query
    and a finiteness pass, which after a cache flush cost more than gees
    itself at dim 6. So the input is checked here, before LAPACK sees it:
    A and Q must be arrays of one shape n x n, n >= 1 (else InvalidSize),
    real (``real_array``: a complex, string or object one raises
    NonFiniteState, not truncated) and finite (else NonFiniteState: gees
    would spend seconds of QR sweeps on a NaN). A QR iteration that fails
    to converge raises SingularSystem.
    """
    from scipy.linalg.lapack import dgees, dtrsyl

    a, q = np.asarray(a), np.asarray(q)
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] > 0
            and q.shape == a.shape):
        raise InvalidSize(f"A and Q must be one shape n x n with n >= 1, got "
                          f"{a.shape} and {q.shape}")
    a, q = real_array(a, "A"), real_array(q, "Q")
    if not (np.isfinite(a).all() and np.isfinite(q).all()):
        raise NonFiniteState("A or Q has non-finite entries")
    t, _, _, _, u, _, info = dgees(_no_sort, a.T)
    if info != 0:
        raise SingularSystem(
            f"gees returned info {info}: the QR algorithm found no Schur "
            "form of A")
    if not t.diagonal().max() < 0.0:
        raise NotHurwitz("A has an eigenvalue with non-negative real part")
    y, scale, info = dtrsyl(t, t, -(u.T @ q @ u), tranb="T")
    if info != 0:
        raise SingularSystem(
            f"trsyl returned info {info}: an eigenvalue pair of A sums to "
            "about zero")
    p = u @ (y / scale) @ u.T
    p = 0.5 * (p + p.T)
    residual = float(np.linalg.norm(a.T @ p + p @ a + q, "fro"))
    return LyapunovSolution(p, residual)


def _no_sort(wr, wi):
    """gees's eigenvalue selector, never called: the Schur form is not
    sorted."""
    return 0


def _grounded_solver(diagonal: np.ndarray, ends: np.ndarray,
                     resistance: np.ndarray
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """solve(rhs) = G rhs for an n x k block, where G is the inverse of L
    grounded at node 0 padded with zeros at node 0: node 0's row of rhs is
    dropped going in and zero coming out. L is given by its diagonal and
    its edges (m x 2 endpoints i < j, and resistances). One banded
    Cholesky factor of L[1:, 1:] in LAPACK lower band storage (row k holds
    the k-th subdiagonal, so the width is the largest j - i of an edge
    off node 0) serves every solve; a factor that fails (a leading minor
    not positive) raises DisconnectedGraph. LAPACK's pbtrf and pbtrs are
    called directly: scipy's checking wrappers around them cost about
    6 us a call (cholesky_banded takes 10.7 us where pbtrf takes 4.5 us on
    42 nodes). Each solve is refined once against ``product``, which
    brings it to full precision."""
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    n = diagonal.size
    off_ground = ends[:, 0] > 0
    cols, rows = (ends[off_ground] - 1).T  # grounded indices, rows > cols
    conductance = 1.0 / resistance[off_ground]
    to_ground = np.zeros(n - 1)  # each node's conductance to node 0
    to_ground[ends[~off_ground, 1] - 1] = 1.0 / resistance[~off_ground]
    # Fortran order lets the factor overwrite the band in place
    band = np.zeros(((rows - cols).max(initial=0) + 1, n - 1), order="F")
    band[0] = diagonal[1:]
    band[rows - cols, cols] = -conductance
    chol, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info:
        raise DisconnectedGraph(
            "Laplacian is numerically singular beyond its zero mode")

    def product(x):
        """L[1:, 1:] x for an (n - 1) x k block, summed edge by edge as
        c_ij (x_i - x_j). The band's diagonal is a rounded sum of
        conductances, so its rows miss zero sum by a few ulps, an error the
        grounded solve amplifies (4e-13 in L^+_00 at n = 1024); a residual
        formed this way does not carry it."""
        y = to_ground[:, None] * x
        for column, out in zip(x.T, y.T):
            flow = conductance * (column[rows] - column[cols])
            out += (np.bincount(rows, flow, n - 1)
                    - np.bincount(cols, flow, n - 1))
        return y

    def solve(rhs):
        rhs = rhs[1:]
        z = dpbtrs(chol, rhs, lower=1)[0]
        out = np.zeros((n, rhs.shape[1]))
        out[1:] = z + dpbtrs(chol, rhs - product(z), lower=1)[0]
        return out

    return solve


def _symmetries(sides, ends: np.ndarray, resistance: np.ndarray
                ) -> tuple[list[int], bool]:
    """The axes, ascending, of the row-major box ``sides`` whose reversal
    (coordinate x -> m - 1 - x on a side of m) maps the edges (sorted
    endpoint rows i < j) onto themselves with equal resistances, and
    whether the swap of axes 0 and 1 does, tried only when ``sides[0] ==
    sides[1]``. ``sides = (n,)`` tests the whole-graph reversal
    i -> n - 1 - i.

    Decided from the edges, not from L: L's diagonal holds rounded row
    sums, which can differ in the last bit between a node and its image.
    Every candidate's image edge codes are sorted, in one call for all of
    them, and compared with the one sorted array of edge codes."""
    n = math.prod(sides)
    grid = np.arange(n).reshape(sides)
    maps = [grid[(slice(None),) * k + (slice(None, None, -1),)]
            for k in range(len(sides))]
    if len(sides) > 1 and sides[0] == sides[1]:
        maps.append(grid.swapaxes(0, 1))
    maps = np.array(maps).reshape(len(maps), n)
    i, j = ends.T
    code = i * n + j  # ascending, as the edges are sorted
    a, b = maps.take(i, axis=1), maps.take(j, axis=1)
    image = np.minimum(a, b) * n + np.maximum(a, b)
    order = np.argsort(image, axis=1)
    holds = ((image.take(order + code.size * np.arange(len(maps))[:, None])
              == code) & (resistance.take(order) == resistance)
             ).all(axis=1).tolist()
    return ([k for k in range(len(sides)) if holds[k]],
            len(holds) > len(sides) and holds[-1])


def _orbits(sides, axes, swap: bool):
    """The orbits of the group that the reversals of ``axes`` of the
    row-major box ``sides`` generate, and of the larger one that they
    generate with the swap of axes 0 and 1 when ``swap``, each as its
    nodes' orbit indices and its number of orbits: an orbit is numbered by
    its representative in the folded box, where each reversed coordinate
    x is taken to min(x, m - 1 - x), and under the swap then x_0 to
    min(x_0, x_1) and x_1 to max(x_0, x_1). With them two masks of
    generators per node, bit k for the reversal of axis k and bit
    len(sides) for the swap: ``flip``, those that carry the
    representative of the node's orbit onto it, and ``stab``, those
    whose conjugates fix it."""
    d = len(sides)
    x = np.indices(sides).reshape(d, -1)
    top = np.array(sides)[:, None] - 1
    bit = np.array([1 << k if k in axes else 0 for k in range(d)])
    far = (2 * x > top) & (bit[:, None] > 0)
    flip, stab = bit @ far, bit @ (2 * x == top)
    x = np.where(far, top - x, x)
    dims = [(m + 1) // 2 if k in axes else m for k, m in enumerate(sides)]
    orbits = [(np.ravel_multi_index(x, dims), math.prod(dims))]
    if swap:
        lo, hi = np.minimum(x[0], x[1]), np.maximum(x[0], x[1])
        flip |= (x[0] > x[1]) << d
        stab |= (lo == hi) << d
        # axes 0 and 1 are the slowest of the row-major folded box
        rest = math.prod(dims[2:])
        orbits.append(((hi * (hi + 1) // 2 + lo) * rest + orbits[0][0] % rest,
                       dims[0] * (dims[0] + 1) // 2 * rest))
    return orbits, flip, stab


def _character_blocks(ends: np.ndarray, conductance: np.ndarray,
                      degree: np.ndarray, sides, axes, swap: bool
                      ) -> list[tuple[np.ndarray, int]]:
    """The diagonal blocks of the Laplacian of the edges (m x 2 endpoints
    i < j, their conductances, each node's summed conductance ``degree``)
    when it commutes with the reversal of each of ``axes`` of the
    row-major box ``sides`` and, when ``swap``, with the swap of its axes
    0 and 1; each with the number of times its eigenvalues occur. With no
    symmetry, the one block is L itself.

    A one-dimensional character chi of the group (a sign per generator)
    takes the orbits (:func:`_orbits`) on whose stabiliser it is trivial,
    and the unit vector sum_u chi(u) e_u / sqrt(|O|) on each, chi(u) the
    sign of the group element that carries the orbit's representative
    onto u. In that basis L's block is B[o, o'] = sum chi(u) chi(v) L_uv /
    sqrt(|O_u| |O_v|) over u in O_u and v in O_v, which is sqrt(|O_u| /
    |O_v|) sum chi(v) L_rv over v alone, r the representative of O_u: only
    the representatives' rows are read. The swap maps the reversal of axis
    0 onto that of axis 1, so the group's characters are those with equal
    signs on the two axes, each with either sign of the swap; the rest of
    the reversals' characters pair up into D_4's two-dimensional
    irreducible representation, whose spectrum, twice over, is that of
    the reversal subgroup's block of signs (+, -) on axes 0 and 1, solved
    once and counted twice. The orbits and masks are found once, and one
    ``bincount`` over the entries of the representatives' rows sums all
    the blocks of a group. The zero mode is in the first block."""
    d, bits = len(sides), sum(1 << k for k in axes)
    signs = [s for s in range(1 << d) if not s & ~bits]
    orbits, flip, stab = _orbits(sides, axes, swap)
    # (orbits, group's generators, characters, copies); the reversals'
    # characters do not see the swap's bit of the masks
    groups = [(*orbits[-1], bits | swap << d,
               [s | t << d for s in signs if s & 1 == s >> 1 & 1
                for t in (0, 1)] if swap else signs, 1)]
    if swap:
        groups.append((*orbits[0], bits, [s for s in signs if s & 3 == 2], 2))
    # L's entries L_uv: both ways along each edge, then the diagonal
    n = degree.size
    u = np.concatenate((ends.ravel(), np.arange(n)))
    v = np.concatenate((ends[:, ::-1].ravel(), np.arange(n)))
    entry = np.concatenate((np.repeat(-conductance, 2), degree))
    blocks = []
    for orbit, count, group, characters, copies in groups:
        if not characters:
            continue
        chi = np.array(characters)[:, None]
        on = flip[u] & group == 0
        w = v[on]
        row, col = orbit[u[on]], orbit[w]
        size = np.bincount(orbit, minlength=count)
        value = entry[on] * np.sqrt(size[row] / size[col])
        # times chi(w) for every character
        value = np.where(np.bitwise_count(flip[w] & chi) & 1, -value, value)
        # the masks of an orbit's nodes differ at most by the exchange of
        # bits 0 and 1, where each of the group's characters has one sign
        kept = np.zeros(count, np.intp)
        kept[orbit] = stab
        kept = kept & chi == 0
        # each block is summed in a (count + 1)^2 slot; a dropped orbit's
        # entries go to row and column count, cut off below
        at = np.where(kept, kept.cumsum(axis=1) - 1, count)
        sums = np.bincount(
            ((at * (count + 1) + np.arange(0, chi.size * (count + 1) ** 2,
                                           (count + 1) ** 2)[:, None]
              ).take(row, axis=1) + at.take(col, axis=1)).ravel(),
            value.ravel(), chi.size * (count + 1) ** 2
        ).reshape(chi.size, count + 1, count + 1)
        blocks += [(sums[c, :m, :m], copies)
                   for c, m in enumerate(kept.sum(axis=1).tolist()) if m]
    return blocks


def laplacian_spectrum(ends: np.ndarray, resistance: np.ndarray, sides
                       ) -> LaplacianSpectrum:
    """Laplacian spectrum of a connected graph from its edges: m x 2
    endpoints i < j and their resistances. ``sides`` is a row-major box
    of the n nodes whose axis reversals, and whose swap of axes 0 and 1 if
    it is square there, may map the graph onto itself, ``(n,)`` for none
    known.

    The eigenvalues come from :func:`eig_sym` on the blocks of
    :func:`_character_blocks`, assembled from the edges, one per character
    of the group of the symmetries that map the edges onto themselves with
    equal resistances (decided from the edges alone, :func:`_symmetries`):
    B[o, o'] = sum chi(u) chi(v) L_uv / sqrt(|O_u| |O_v|) over the orbits
    on whose stabiliser chi is trivial. That is 2^a blocks of about n / 2^a
    for a reversed axes, and with the swap also four of about n / 8 and
    one of n / 4, solved once and counted twice, in place of the four
    blocks of the first two axes; L itself for none. So on a symmetric
    graph no n x n array is made. A wrong ``sides`` can only leave
    symmetries out, so it costs speed, not values. The graph's
    connectivity is already proven, so the zero mode must pass the
    scale-invariant test |lambda_0| <= n eps lambda_max < lambda_1 (else
    DisconnectedGraph); it is set to exactly 0.0. Blocks of L^+ come from
    the solver of L grounded at node 0 (:func:`_grounded_solver`), made on
    first use from the edges and the same edge-wise degree sums that the
    blocks' diagonals hold. With G its padded inverse, L^+ = P G P for
    P = I - 11^T/n, so column a of L^+ is z - mean(z) for the one solve
    z = G (e_a - 1/n). R_eff(i, j) is z_i - z_j for z = G (e_i - e_j),
    since e_i - e_j is orthogonal to 1. No n x n array is made for L^+;
    the factor holds (b + 1)(n - 1) doubles for bandwidth b.
    """
    n = math.prod(sides)
    conductance = 1.0 / resistance
    degree = np.bincount(ends.ravel(), np.repeat(conductance, 2), n)
    parts = []
    for block, copies in _character_blocks(
            ends, conductance, degree, sides,
            *_symmetries(sides, ends, resistance)):
        parts += [eig_sym(block)] * copies
    values = np.sort(np.concatenate(parts))
    bound = n * sys.float_info.epsilon * values[-1]
    if not abs(values[0]) <= bound < values[1]:
        raise DisconnectedGraph(
            f"expected exactly one zero eigenvalue, got {values[:2]} against "
            f"the bound {bound}")

    solver = cache(lambda: _grounded_solver(degree, ends, resistance))

    def pinv(nodes):
        nodes = np.asarray(nodes, dtype=np.intp)
        centred = np.full((n, nodes.size), -1.0 / n)
        centred[nodes, np.arange(nodes.size)] += 1.0
        z = solver()(centred)
        return z[nodes] - z.mean(axis=0)

    def reff(i, j):
        unit = np.zeros((n, 1))
        unit[i], unit[j] = 1.0, -1.0
        z = solver()(unit)[:, 0]
        return float(z[i] - z[j])

    values[0] = 0.0
    return LaplacianSpectrum(values, pinv, reff)
