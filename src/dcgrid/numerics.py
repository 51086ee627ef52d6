"""Dense symmetric eigendecomposition, Laplacian spectra, Lyapunov
solves, and the Laplacian pseudoinverse.

These are the numerical kernels behind the closed-form H2 evaluation and
its independent Lyapunov oracle (Bartels-Stewart on the real Schur form
of the full system matrix, O(dim^3)). All routines operate on dense real
matrices and are pure functions; :func:`laplacian_spectrum` is the one
place that decides which eigenvalue is a Laplacian's zero mode.
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
