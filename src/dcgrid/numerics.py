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
and a Cholesky solve for L^+ on any other graph. All routines are pure
functions.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve, schur
from scipy.linalg.lapack import dtrsyl

from .errors import (
    DisconnectedGraph,
    NoConvergence,
    NotHurwitz,
    NotSymmetric,
    SingularSystem,
)

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues of a symmetric matrix, ascending."""

    values: np.ndarray


@dataclass(frozen=True)
class LaplacianSpectrum(SpectralDecomposition):
    """A connected graph's Laplacian spectrum, cached and shared by every
    consumer: ``values`` ascending with the zero mode exactly 0.0 first
    (made read-only), and ``pinv(nodes)``, the |nodes| x |nodes| block of
    the pseudoinverse L^+ on those nodes."""

    pinv: Callable[[Sequence[int]], np.ndarray]

    def __post_init__(self):
        self.values.flags.writeable = False


@dataclass(frozen=True)
class LyapunovSolution:
    """Symmetric solution P of A^T P + P A = -Q with its residual norm."""

    P: np.ndarray
    residual: float


def eig_sym(mat: np.ndarray) -> SpectralDecomposition:
    """Eigenvalues of a symmetric matrix, ascending (no eigenvectors)."""
    mat = np.asarray(mat, dtype=float)
    scale = np.linalg.norm(mat, ord=np.inf)
    if scale > 0 and np.abs(mat - mat.T).max() > SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        values = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
    return SpectralDecomposition(values)


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


def lattice_eig(sides, conductance: float) -> SpectralDecomposition:
    """Laplacian eigenvalues of a box lattice with one conductance on every
    edge, ascending: the Kronecker sum of the axes' path Laplacians, with
    no eigensolve."""
    return SpectralDecomposition(np.sort(_kron_values(sides, conductance)))


def lattice_spectrum(sides, conductance: float) -> LaplacianSpectrum:
    """Laplacian spectrum of a box lattice, nodes in row-major order.

    L^+_ij is the sum over nonzero modes of v_ik v_jk / lambda_k. A node's
    mode row is the Kronecker product of its axes' DCT-II rows
    sqrt(2/m) cos(pi k (j + 1/2) / m) (sqrt(1/m) for k = 0), so a block on
    |nodes| nodes costs O(|nodes| n) and needs no eigensolve.
    """

    def pinv(nodes):
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
        kron = _kron_values(sides, conductance)
        modes = rows[:, 1:]
        return (modes / kron[1:]) @ modes.T

    return LaplacianSpectrum(lattice_eig(sides, conductance).values, pinv)


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


def laplacian_spectrum(lap: np.ndarray) -> LaplacianSpectrum:
    """Laplacian spectrum of a connected graph from its dense Laplacian.

    The eigenvalues come from :func:`eig_sym`. The graph's connectivity is
    already proven, so the zero mode must pass the scale-invariant test
    |lambda_0| <= n eps lambda_max < lambda_1 (else DisconnectedGraph); it
    is set to exactly 0.0. Blocks of L^+ come from one Cholesky factor,
    made on first use: L + s 11^T/n is positive definite with inverse
    L^+ + 11^T/(s n), and the shift s = tr(L)/n keeps it on L's own scale.
    """
    lap = np.asarray(lap, dtype=float)
    values = eig_sym(lap).values
    n = values.size
    bound = n * np.finfo(float).eps * values[-1]
    if not abs(values[0]) <= bound < values[1]:
        raise DisconnectedGraph(
            f"expected exactly one zero eigenvalue, got {values[:2]} against "
            f"the bound {bound}")
    shift = np.trace(lap) / n

    @cache
    def factor():
        try:
            return cho_factor(lap + shift / n)
        except np.linalg.LinAlgError as exc:
            raise DisconnectedGraph(
                "Laplacian is numerically singular beyond its zero mode"
            ) from exc

    def pinv(nodes):
        nodes = np.asarray(nodes, dtype=np.intp)
        unit = np.zeros((n, nodes.size))
        unit[nodes, np.arange(nodes.size)] = 1.0
        return cho_solve(factor(), unit)[nodes] - 1.0 / (shift * n)

    return LaplacianSpectrum(np.concatenate(([0.0], values[1:])), pinv)
