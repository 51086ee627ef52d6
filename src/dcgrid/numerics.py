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
thread). All routines are pure functions. ``scipy.linalg`` is
imported on first use, inside the two kernels that call it (the Schur
form and the banded factor), so a box lattice never loads it.
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


def eig_sym(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (no eigenvectors). Only
    the lower triangle is read; its callers pass ``laplacian`` output or
    the blocks that :func:`_symmetry_blocks` folds from it, both symmetric
    by construction."""
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


def _pick(array: np.ndarray, axis: int, index) -> np.ndarray:
    """``array`` at ``index`` on ``axis``: a view for a slice, a copy for
    an index array."""
    if isinstance(index, slice):
        return array[(slice(None),) * axis + (index,)]
    return array.take(index, axis=axis)


def _fold(stack: np.ndarray, grid: int, axis: int, near, far,
          fixed: int) -> list[np.ndarray]:
    """Split every block of ``stack`` by one involution J of its nodes
    into the blocks of J's symmetric and antisymmetric modes (Cantoni and
    Butler, LAA 1976).

    The last 2 ``grid`` axes of ``stack`` hold a block: a matrix over the
    nodes of a grid, with one array axis per grid axis for its rows and
    the same again for its columns. The axes before them index the
    blocks. J acts on grid axis ``axis`` alone: ``near`` (a slice or an
    index array) picks J's representatives on it, the ``fixed`` nodes
    that J maps to themselves last, and ``far`` their images in the same
    order. The symmetric modes (u, Ju) see near + far and the
    antisymmetric ones (u, -Ju) near - far, in the representatives' rows,
    which are all that is read. With no fixed node both come back in one
    stack, with a new last leading axis, the symmetric block first. A
    fixed node borders the symmetric block with sqrt(2) times its
    coupling to the others and keeps its own diagonal; it has no
    antisymmetric mode, and the two come back as two stacks, the second
    without it."""
    lead = stack.ndim - 2 * grid
    rows = _pick(stack, lead + axis, near)
    col = rows.ndim - grid + axis
    near, far = _pick(rows, col, near), _pick(rows, col, far)
    if not fixed:
        out = np.empty(near.shape[:lead] + (2,) + near.shape[lead:])
        np.add(near, far, out=out[(slice(None),) * lead + (0,)])
        np.subtract(near, far, out=out[(slice(None),) * lead + (1,)])
        return [out]
    plus, minus = near + far, near - far
    for at in (lead + axis, col):
        edge = plus[(slice(None),) * at + (slice(-fixed, None),)]
        np.multiply(edge, math.sqrt(0.5), out=edge)
    keep = slice(minus.shape[lead + axis] - fixed)
    return [plus, minus[(slice(None),) * (lead + axis) + (keep,)][
        (slice(None),) * col + (keep,)]]


def _symmetry_blocks(lap: np.ndarray, sides, axes, swap: bool
                     ) -> list[tuple[np.ndarray, int]]:
    """The diagonal blocks of a Laplacian that commutes with the reversal
    of each of ``axes`` of the row-major box ``sides`` and, when ``swap``,
    with the swap of its axes 0 and 1, each with the number of times its
    eigenvalues occur; with no symmetry, ``lap`` once.

    The reversals generate Z_2^a: :func:`_fold` splits the blocks once per
    axis, on the first ceil(m/2) slices of each reversed axis. Only those
    rows are read from ``lap``, as a view, and no n x n array is made.
    The swap maps the reversal of axis 0 onto that of axis 1, so it maps
    the blocks of characters (s, t) on those axes onto those of (t, s).
    It folds the blocks with s = t once more, on the triangle x_0 <= x_1
    of the first two axes with the diagonal x_0 = x_1 last as its fixed
    nodes, and of each pair (+, -), (-, +) only the first is kept, counted
    twice, after the others.

    The blocks come stack by stack, each stack's blocks in the order of
    its leading axes. A fold that fixes nodes (of an odd side, or the
    swap) splits every stack in two, the symmetric blocks first; one that
    fixes none adds to each stack a leading axis, the fastest. The zero
    mode is in the first block."""
    if not axes and not swap:
        return [(lap, 1)]
    grid = len(sides)
    half = [(m + 1) // 2 if k in axes else m for k, m in enumerate(sides)]
    # stacks of blocks, each with the sign of its blocks on every axis
    # folded so far, None for an axis that is a leading axis of the stack
    stacks = [(lap.reshape(tuple(sides) * 2)[tuple(map(slice, half))], ())]
    for k in axes:
        m, folded = sides[k], []
        for stack, signs in stacks:
            parts = _fold(stack, grid, k, slice(half[k]),
                          slice(m - 1, m - half[k] - 1, -1), m % 2)
            folded += [(part, signs + (sign if len(parts) > 1 else None,))
                       for sign, part in enumerate(parts)]
        stacks = folded
    if not swap:
        return _matrices([(stack, grid, 1) for stack, _ in stacks])
    same, pairs = [], []
    for stack, signs in stacks:
        if axes[:1] != [0]:  # axes 0 and 1 are not reversed
            same.append(stack)
        elif signs[0] is None:  # the stack's first two axes are theirs
            four = stack.reshape((4,) + stack.shape[2:])
            same.append(four[::3])
            pairs.append((four[1], grid, 2))
        elif signs[0] == signs[1]:
            same.append(stack)
        elif signs[0] == 0:
            pairs.append((stack, grid, 2))
    swapped = []
    for stack in same:
        lead = stack.ndim - 2 * grid
        side, rest = stack.shape[lead], stack.shape[lead + 2:-grid]
        # the triangle x_0 < x_1, then the diagonal, as flat indices of
        # the side x side grid, and their transposes
        node = np.arange(side * side).reshape(side, side)
        near = np.argsort(node - node.T, axis=None, kind="stable")[
            :side * (side + 1) // 2]
        swapped += [(part, grid - 1, 1) for part in _fold(
            stack.reshape(stack.shape[:lead] + 2 * ((side * side,) + rest)),
            grid - 1, 0, near, node.T.ravel()[near], side)]
    return _matrices(swapped + pairs)


def _matrices(stacks) -> list[tuple[np.ndarray, int]]:
    """Each block of each (stack, grid, copies) of :func:`_fold`'s layout
    as a square matrix, with its copies; a block on no node (the swap's
    antisymmetric modes of a side of 1) is left out."""
    return [(block, copies) for stack, grid, copies in stacks
            if stack.size
            for block in stack.reshape((-1,) + 2 * (
                math.prod(stack.shape[stack.ndim - grid:]),))]


def laplacian_spectrum(lap: np.ndarray, ends: np.ndarray,
                       resistance: np.ndarray, sides) -> LaplacianSpectrum:
    """Laplacian spectrum of a connected graph from its dense Laplacian
    and the edges it was built from: m x 2 endpoints i < j and their
    resistances. ``sides`` is a row-major box of n nodes whose axis
    reversals, and whose swap of axes 0 and 1 if it is square there, may
    map the graph onto itself, ``(n,)`` for none known.

    The eigenvalues come from :func:`eig_sym` on the blocks of
    :func:`_symmetry_blocks`, split by the symmetries that map the edges
    onto themselves with equal resistances (decided from the edges alone,
    :func:`_symmetries`): 2^a blocks of about n / 2^a for a reversed axes,
    and with the swap also four of about n / 8 and one of n / 4, solved
    once and counted twice, in place of the four blocks of the first two
    axes; ``lap`` itself for none. A wrong ``sides`` can only leave
    symmetries out, so it costs speed, not values. The graph's
    connectivity is already proven, so the zero mode must pass the
    scale-invariant test |lambda_0| <= n eps lambda_max < lambda_1 (else
    DisconnectedGraph); it is set to exactly 0.0. Blocks of L^+ come from
    the solver of L grounded at node 0 (:func:`_grounded_solver`), made on
    first use from the edges and ``lap``'s diagonal, the same rounded row
    sums that the eigenvalues see. With G its padded inverse, L^+ = P G P for
    P = I - 11^T/n, so L^+_ab = G_ab - g_a/n - g_b/n + 1^T g/n^2 for
    g = G 1, solved once with the factor. R_eff(i, j) is z_i - z_j for
    z = G (e_i - e_j), since e_i - e_j is orthogonal to 1. No n x n array
    is made for L^+; the factor holds (b + 1)(n - 1) doubles for
    bandwidth b.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    parts = []
    for block, copies in _symmetry_blocks(
            lap, sides, *_symmetries(sides, ends, resistance)):
        parts += [eig_sym(block)] * copies
    values = np.sort(np.concatenate(parts))
    bound = n * sys.float_info.epsilon * values[-1]
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

    values[0] = 0.0
    return LaplacianSpectrum(values, pinv, reff)
