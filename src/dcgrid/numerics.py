"""Dense symmetric eigendecomposition, closed-form box-lattice spectra,
Laplacian spectra, Lyapunov solves, and the Laplacian pseudoinverse.

These are the numerical kernels behind the closed-form H2 evaluation and
its independent Lyapunov oracle (Bartels-Stewart on the real Schur form
of the full system matrix, O(dim^3)). A Laplacian's eigendecomposition
comes from one of two sources: :func:`lattice_eig`, the Kronecker-sum
formula for a uniform box lattice (O(n^2), no eigensolve), or
:func:`eig_sym`, a dense eigh for any other graph. All routines operate
on dense real matrices and are pure functions; :func:`laplacian_spectrum`
is the one place that decides which eigenvalue is a Laplacian's zero
mode, whichever source produced it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .errors import (
    DisconnectedGraph,
    NoConvergence,
    NotHurwitz,
    NotSymmetric,
    SingularSystem,
)

SYMMETRY_RTOL = 1e-12
# |lambda| below this (relative to the largest eigenvalue) counts as zero
ZERO_EIG_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric
    matrix; column k of ``vectors`` pairs with ``values[k]``."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class LyapunovSolution:
    """Symmetric solution P of A^T P + P A = -Q with its residual norm."""

    P: np.ndarray
    residual: float


def eig_sym(mat: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    mat = np.asarray(mat, dtype=float)
    scale = np.linalg.norm(mat, ord=np.inf)
    if scale > 0 and np.abs(mat - mat.T).max() > SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        values, vectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
    return SpectralDecomposition(values, vectors)


def lattice_eig(sides, conductance: float) -> SpectralDecomposition:
    """Laplacian eigendecomposition of a box lattice with one conductance
    on every edge, nodes in row-major order, eigenvalues ascending.

    The Laplacian is the Kronecker sum of the axes' path Laplacians. A path
    of m nodes has eigenvalues 4 sin^2(pi k / 2m) (the sin^2 form does not
    cancel at small k, as 2 - 2 cos does) and the DCT-II modes
    sqrt(2/m) cos(pi k (j + 1/2) / m), sqrt(1/m) for k = 0. The box's
    eigenvalues are sums and its eigenvectors Kronecker products of these:
    O(n^2) work and no eigensolve.
    """
    values = np.zeros(1)
    axis_modes = []
    for m in sides:
        k = np.arange(m)
        # (2j + 1) k reduced mod 4m exactly: the cosine's argument stays in
        # [0, 2 pi), where it loses no precision at large j k, and takes
        # only 4m values, so the cosines are looked up rather than recomputed
        phase = np.outer(2 * k + 1, k) % (4 * m)
        cosines = np.cos(np.pi * np.arange(4 * m) / (2 * m))
        modes = np.sqrt(2.0 / m) * cosines[phase]
        modes[:, 0] = np.sqrt(1.0 / m)
        axis_modes.append(modes)
        lam = 4.0 * np.sin(np.pi * k / (2 * m)) ** 2
        values = np.add.outer(values, lam).ravel()
    order = np.argsort(values, kind="stable")
    # the Kronecker product of the axes' modes with its columns already in
    # eigenvalue order: column c multiplies the modes that order[c] unravels to
    vectors = np.ones(order.size)
    for modes, k in zip(axis_modes, np.unravel_index(order, sides)):
        vectors = vectors[..., None, :] * modes[:, k]
    return SpectralDecomposition(conductance * values[order],
                                 vectors.reshape(order.size, order.size))


def is_hurwitz(a: np.ndarray) -> bool:
    """True when every eigenvalue of A has negative real part."""
    return bool(np.max(np.linalg.eigvals(a).real) < 0.0)


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> LyapunovSolution:
    """Solve A^T P + P A = -Q for symmetric PSD Q and Hurwitz A.

    Bartels-Stewart (CACM 1972) through LAPACK trsyl, O(dim^3). When an
    eigenvalue pair of A sums to about zero, trsyl would perturb the
    equation and return a wrong P; that raises SingularSystem instead.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if not is_hurwitz(a):
        raise NotHurwitz("A has an eigenvalue with non-negative real part")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            p = solve_continuous_lyapunov(a.T, -q)
        except RuntimeWarning as exc:
            raise SingularSystem(str(exc)) from exc
    p = 0.5 * (p + p.T)
    residual = float(np.linalg.norm(a.T @ p + p @ a + q, "fro"))
    return LyapunovSolution(p, residual)


def laplacian_spectrum(dec: SpectralDecomposition) -> SpectralDecomposition:
    """A connected graph's Laplacian spectrum from its eigendecomposition:
    exactly one eigenvalue may fall below the scale-invariant zero
    threshold (else DisconnectedGraph), and it is set to exactly 0.0. The
    arrays are made read-only because the spectrum is cached and shared.
    """
    cutoff = ZERO_EIG_RTOL * max(1.0, float(dec.values[-1]))
    zeros = int(np.sum(np.abs(dec.values) < cutoff))
    if zeros != 1:
        raise DisconnectedGraph(
            f"expected exactly one zero eigenvalue, found {zeros}")
    values = np.concatenate(([0.0], dec.values[1:]))
    values.flags.writeable = False
    dec.vectors.flags.writeable = False
    return SpectralDecomposition(values, dec.vectors)


def pinv_laplacian(spec: SpectralDecomposition) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a Laplacian from its spectrum."""
    modes = spec.vectors[:, 1:]
    return (modes / spec.values[1:]) @ modes.T
