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
from the graph's edge arrays, on any other graph. When the edges show
that the node reversal i -> n - 1 - i maps the graph onto itself (every
h-fuzz of a row-major box does), the dense solve splits into two
half-size ones. All routines are pure functions. ``scipy.linalg`` is
imported on first use, inside the two kernels that call it (the Schur
form and the banded factor), so a box lattice never loads it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    DisconnectedGraph,
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


def eig_sym(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (no eigenvectors). Only
    the lower triangle is read; its callers pass ``laplacian`` output,
    which is symmetric by construction."""
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
    """
    from scipy.linalg import schur
    from scipy.linalg.lapack import dtrsyl

    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    t, u = schur(a.T, output="real")
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


def _grounded_solver(diagonal: np.ndarray, ends: np.ndarray,
                     resistance: np.ndarray
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """solve(rhs) = G rhs for an n x k block, where G is the inverse of L
    grounded at node 0 padded with zeros at node 0: node 0's row of rhs is
    dropped going in and zero coming out. L is given by its diagonal and
    its edges (m x 2 endpoints i < j, and resistances). One banded
    Cholesky factor of L[1:, 1:] in LAPACK lower band storage (row k holds
    the k-th subdiagonal, so the width is the largest j - i of an edge
    off node 0) serves every solve; a LinAlgError from it raises
    DisconnectedGraph. Each solve is refined once against ``product``,
    which brings it to full precision."""
    from scipy.linalg import cho_solve_banded, cholesky_banded

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
    try:
        chol = cholesky_banded(band, overwrite_ab=True, lower=True)
    except np.linalg.LinAlgError as exc:
        raise DisconnectedGraph(
            "Laplacian is numerically singular beyond its zero mode"
        ) from exc

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
        z = cho_solve_banded((chol, True), rhs, check_finite=False)
        out = np.zeros((n, rhs.shape[1]))
        out[1:] = z + cho_solve_banded((chol, True), rhs - product(z),
                                       check_finite=False)
        return out

    return solve


def _mirror_symmetric(n: int, ends: np.ndarray,
                      resistance: np.ndarray) -> bool:
    """Whether the reversal i -> n - 1 - i maps the edges (sorted m x 2
    endpoints i < j) onto themselves with equal resistances. Decided from
    the edges, not from L: L's diagonal holds rounded row sums, which can
    differ in the last bit between a node and its mirror image."""
    mirror = n - 1 - ends[:, ::-1]
    order = np.lexsort(mirror.T[::-1])
    return (np.array_equal(mirror[order], ends)
            and np.array_equal(resistance[order], resistance))


def _mirror_blocks(lap: np.ndarray):
    """Eigenvalues of the two blocks of a Laplacian that commutes with the
    reversal J (Cantoni and Butler, LAA 1976), from its top h = n // 2
    rows [A B]: the symmetric modes (u, Ju) see L+ = A + BJ and the
    antisymmetric ones (u, -Ju) see L- = A - BJ. For odd n the middle
    node, a symmetric mode of its own, borders L+ with sqrt(2) L[:h, h]
    and L[h, h]. The zero mode is in L+."""
    n = lap.shape[0]
    h = n // 2
    a = lap[:h, :h]
    bj = lap[:h, ::-1][:, :h]
    plus = np.empty((n - h, n - h))
    plus[:h, :h] = a + bj
    if n % 2:
        plus[:h, h] = plus[h, :h] = np.sqrt(2.0) * lap[:h, h]
        plus[h, h] = lap[h, h]
    return eig_sym(plus), eig_sym(a - bj)


def laplacian_spectrum(lap: np.ndarray, ends: np.ndarray,
                       resistance: np.ndarray) -> LaplacianSpectrum:
    """Laplacian spectrum of a connected graph from its dense Laplacian
    and the edges it was built from: m x 2 endpoints i < j and their
    resistances.

    The eigenvalues come from :func:`eig_sym`: of the two half-size
    blocks of :func:`_mirror_blocks`, about a quarter of the work, when
    the reversal i -> n - 1 - i maps the edges onto themselves with equal
    resistances (decided from the edges alone, :func:`_mirror_symmetric`),
    else of the full ``lap``. The graph's connectivity is
    already proven, so the zero mode must pass the scale-invariant test
    |lambda_0| <= n eps lambda_max < lambda_1 (else DisconnectedGraph); it
    is set to exactly 0.0. Blocks of L^+ come from the solver of L
    grounded at node 0 (:func:`_grounded_solver`), made on first use from
    the edges and ``lap``'s diagonal, the same rounded row sums that the
    eigenvalues see. With G its padded inverse, L^+ = P G P for
    P = I - 11^T/n, so L^+_ab = G_ab - g_a/n - g_b/n + 1^T g/n^2 for
    g = G 1, solved once with the factor. R_eff(i, j) is z_i - z_j for
    z = G (e_i - e_j), since e_i - e_j is orthogonal to 1. No n x n array
    is made for L^+; the factor holds (b + 1)(n - 1) doubles for
    bandwidth b.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if _mirror_symmetric(n, ends, resistance):
        values = np.sort(np.concatenate(_mirror_blocks(lap)))
    else:
        values = eig_sym(lap)
    bound = n * np.finfo(float).eps * values[-1]
    if not abs(values[0]) <= bound < values[1]:
        raise DisconnectedGraph(
            f"expected exactly one zero eigenvalue, got {values[:2]} against "
            f"the bound {bound}")

    @cache
    def grounded():
        """The grounded solver, and g = G 1 solved with it."""
        solve = _grounded_solver(lap.diagonal(), ends, resistance)
        return solve, solve(np.ones((n, 1)))[:, 0]

    def pinv(nodes):
        nodes = np.asarray(nodes, dtype=np.intp)
        solve, g = grounded()
        unit = np.zeros((n, nodes.size))
        unit[nodes, np.arange(nodes.size)] = 1.0
        row_mean = g[nodes] / n
        return (solve(unit)[nodes] - row_mean[:, None] - row_mean[None, :]
                + g.sum() / n**2)

    def reff(i, j):
        unit = np.zeros((n, 1))
        unit[i], unit[j] = 1.0, -1.0
        z = grounded()[0](unit)[:, 0]
        return float(z[i] - z[j])

    return LaplacianSpectrum(np.concatenate(([0.0], values[1:])), pinv, reff)
