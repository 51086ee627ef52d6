"""Effective resistance, Kirchhoff index, and network-size scaling sweeps.

The spectral quantity K* = (1/n) * sum of reciprocal nonzero Laplacian
eigenvalues controls how slack-bus performance degrades with network
size; it equals K_f / n^2 where K_f is the Kirchhoff index (the sum of
all pairwise effective resistances). This module computes both from the
eigenvalues, one pair's effective resistance from the spectrum's
difference form and all pairs' from the block of L^+, checks Rayleigh
monotonicity under edge removal or resistance increase, and sweeps
lattice families to expose the growth laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network as net_mod
from . import numerics, systems
from .errors import (
    DisconnectedGraph,
    InvalidEdge,
    InvalidSize,
    RayleighViolation,
)
from .network import Network


def reff_matrix(net: Network) -> np.ndarray:
    """All pairwise effective resistances from the block of L^+ over every
    node (O(n^2) memory, so InvalidSize beyond ``DENSE_MAX_NODES``)."""
    net_mod.require_dense(net.node_count)
    pinv = net.spectrum.pinv(np.arange(net.node_count))
    d = np.diag(pinv)
    return d[:, None] + d[None, :] - 2.0 * pinv


# Resistances near the largest float overflow the indices below; each
# raises NonFiniteState for a value that is not finite, so numpy's
# overflow warnings on the way are not shown.

@np.errstate(over="ignore", invalid="ignore")
def effective_resistance(net: Network, i: int, j: int) -> float:
    """Two-terminal equivalent resistance between buses i and j:
    (e_i - e_j)^T L^+ (e_i - e_j), from the spectrum's ``reff``. Defined
    for every pair of buses in range: the difference form is exactly 0.0
    for i = j."""
    i, j = (net_mod.check_index(k, net.node_count) for k in (i, j))
    return numerics.require_finite(net.spectrum.reff(i, j),
                                   "effective resistance")


@np.errstate(over="ignore")
def kirchhoff_index(net: Network) -> float:
    """Sum of effective resistances over all unordered node pairs,
    n times the sum of reciprocal nonzero Laplacian eigenvalues (Gutman and
    Mohar 1996)."""
    return numerics.require_finite(
        net.node_count * float(np.sum(1.0 / net.spectrum.values[1:])),
        "Kirchhoff index")


def kstar(net: Network) -> float:
    """Mean reciprocal nonzero Laplacian eigenvalue, K_f / n^2."""
    return kirchhoff_index(net) / net.node_count**2


@dataclass(frozen=True)
class RayleighReport:
    """Pairwise effective-resistance shifts after an edge perturbation."""

    edge: tuple[int, int]
    new_resistance: float | None  # None means the edge was removed
    min_delta: float
    max_delta: float
    pairs: int


# A decrease past this fraction of the largest effective resistance before
# is a violation. The matrices are formed as d_i + d_j - 2 P_ij, whose
# rounding grows with the resistances: on 200 random networks of 1 Mohm
# lines, a 1e-12 raise of one edge showed "decreases" of order 1e-9 ohm,
# at most 7.4e-16 of the largest entry (3.2e-16 on unit resistances).
RAYLEIGH_RTOL = 1e-12


def rayleigh_check(net: Network, edge: tuple[int, int],
                   new_resistance: float | None = None) -> RayleighReport:
    """Remove an edge (or raise its resistance) and verify that no
    pairwise effective resistance decreases.

    Raises InvalidEdge when the edge is not in the network,
    DisconnectedGraph naming the edge when removal would split it, and
    RayleighViolation when some effective resistance decreases by more
    than ``RAYLEIGH_RTOL`` times the largest one before.
    """
    i, j = min(edge), max(edge)
    before = reff_matrix(net)
    kept = [(a, b, r) for a, b, r in net.edges if (a, b) != (i, j)]
    if len(kept) == net.edge_count:
        raise InvalidEdge(f"edge {edge} not present in network")
    if new_resistance is None:
        try:
            perturbed = net_mod.build_network(net.node_count, kept)
        except DisconnectedGraph as exc:
            raise DisconnectedGraph(f"removing edge {edge} disconnects"
                                    ) from exc
    else:
        perturbed = net_mod.build_network(
            net.node_count, kept + [(i, j, new_resistance)])
    after = reff_matrix(perturbed)
    delta = after - before
    mask = ~np.eye(net.node_count, dtype=bool)
    report = RayleighReport(
        edge=(i, j), new_resistance=new_resistance,
        min_delta=float(delta[mask].min()), max_delta=float(delta[mask].max()),
        pairs=net.node_count * (net.node_count - 1) // 2)
    if report.min_delta < -RAYLEIGH_RTOL * before.max():
        raise RayleighViolation(
            f"effective resistance decreased by {-report.min_delta}")
    return report


# --- scaling sweeps ---

FAMILIES = ("path", "grid2d", "grid3d", "hfuzz")
# hfuzz sweeps use the 2-fuzz of the square grid
HFUZZ_RADIUS = 2


@dataclass(frozen=True)
class ScalingRecord:
    family: str
    n: int
    h2_slack: float
    h2_droop: float
    h2_dapi: float
    kstar: float
    kirchhoff: float


@dataclass(frozen=True)
class FitDiagnostics:
    """Least-squares line of h2_slack against n (paths) or log n (grids)."""

    x_kind: str
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class SweepResult:
    records: tuple[ScalingRecord, ...]
    fit: FitDiagnostics

    def to_csv(self) -> str:
        lines = ["family,n,h2_slack,h2_droop,h2_dapi,kstar,kirchhoff"]
        for r in self.records:
            lines.append(f"{r.family},{r.n},{r.h2_slack!r},{r.h2_droop!r},"
                         f"{r.h2_dapi!r},{r.kstar!r},{r.kirchhoff!r}")
        return "\n".join(lines) + "\n"


def _family_network(family: str, size: int, resistance: float) -> Network:
    if family == "path":
        return net_mod.generate_lattice(1, size, resistance)
    if family == "grid2d":
        return net_mod.generate_lattice(2, size, resistance)
    if family == "grid3d":
        return net_mod.generate_lattice(3, size, resistance)
    if family == "hfuzz":
        base = net_mod.generate_lattice(2, size, resistance)
        return net_mod.generate_hfuzz(base, HFUZZ_RADIUS, resistance)
    raise InvalidSize(f"unknown family {family!r}; expected one of "
                      f"{FAMILIES}")


def sweep_sizes(sizes) -> list[int]:
    """``sizes`` (any sequence, numpy arrays included) as a list of ints;
    InvalidSize unless it holds two or more strictly ascending integers
    of at least 2 (``integer_in``), the smallest side any family builds."""
    listed = list(sizes) if np.iterable(sizes) else []
    if (len(listed) < 2 or not all(numerics.integer_in(s, 2) for s in listed)
            or any(a >= b for a, b in zip(listed, listed[1:]))):
        raise InvalidSize(f"need at least two strictly ascending integer "
                          f"sizes of at least 2, got {sizes!r}")
    return [int(s) for s in listed]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of the least-squares line; NonFiniteState
    when one is not finite (y all zero, all equal, or near overflow)."""
    # r^2 is scale-free, so fit y / max|y| to keep the squares finite
    scale = float(np.max(np.abs(y)))
    y = y / scale
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    r2 = 1.0 - float(resid @ resid / (total @ total))
    return tuple(numerics.require_finite(v, "sweep fit")
                 for v in (slope * scale, intercept * scale, r2))


def scaling_sweep(family: str, sizes, params: systems.ControllerParams,
                  ground: int = 0, resistance: float = 1.0) -> SweepResult:
    """Closed-form H2 norms and resistance indices across network sizes.

    ``sizes`` are at least two strictly ascending side lengths
    (:func:`sweep_sizes`): node counts for paths, grid sides for the
    2-D/3-D/fuzz families. An unknown family is InvalidSize too. Ground
    defaults to node 0, the path end or grid corner.
    """
    sizes = sweep_sizes(sizes)
    records = []
    for size in sizes:
        net = _family_network(family, size, resistance)
        n = net.node_count
        kf = kirchhoff_index(net)
        report = systems.compare_controllers(net, params, ground)
        records.append(ScalingRecord(
            family=family, n=n, h2_slack=report.value_slack,
            h2_droop=report.value_droop, h2_dapi=report.value_dapi,
            kstar=kf / n**2, kirchhoff=kf))

    ns = np.array([r.n for r in records], dtype=float)
    ys = np.array([r.h2_slack for r in records])
    x_kind = "n" if family == "path" else "log_n"
    xs = ns if x_kind == "n" else np.log(ns)
    slope, intercept, r2 = _ols(xs, ys)
    return SweepResult(tuple(records),
                       FitDiagnostics(x_kind, slope, intercept, r2))
