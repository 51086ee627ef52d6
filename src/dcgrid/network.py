"""Resistor-network graphs for multi-terminal DC grids.

A network is an undirected, connected graph of buses joined by purely
resistive lines. This module builds and validates such graphs, generates
finite d-dimensional lattices and their h-fuzzes, and produces their
(reduced) Laplacians and the one cached Laplacian spectrum per network:
its eigenvalues and blocks of L^+ on demand. That spectrum is the
closed-form Kronecker-sum spectrum when the edges are those of a uniform
box lattice in row-major node order (:func:`lattice_box`), however the
network was made, and the dense Laplacian's eigenvalues plus a Cholesky
solve otherwise.

Per-edge work (validation, lattice edges, Laplacian assembly, lattice
detection) runs on numpy arrays of the edge columns; the one Python
loop is the breadth-first search behind the connectivity check and the
h-fuzz.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import (
    DisconnectedGraph,
    IndexOutOfRange,
    InvalidDimension,
    InvalidEdge,
    InvalidFuzzRadius,
    InvalidSize,
)


@dataclass(frozen=True)
class Network:
    """Undirected weighted resistor network.

    ``edges`` holds (i, j, R) triples with i < j, sorted, resistances in
    ohms; they alone decide the network, its equality and its spectrum.
    Instances are validated by :func:`build_network` and immutable.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def spectrum(self) -> numerics.LaplacianSpectrum:
        """Laplacian eigenvalues (zero mode exactly 0.0 first) and blocks of
        L^+ on demand, computed on first use and shared thereafter.

        A uniform box lattice (see :func:`lattice_box`) gets the analytic
        Kronecker-sum spectrum, any other graph the dense route.
        """
        box = lattice_box(self)
        if box is None:
            return numerics.laplacian_spectrum(laplacian(self))
        return numerics.lattice_spectrum(*box)


def _columns(edges):
    """Endpoint index arrays and resistance array of (i, j, R) triples."""
    # one list per column converts about twice as fast as one m x 3 array
    m = len(edges)
    return (np.fromiter([e[0] for e in edges], np.intp, m),
            np.fromiter([e[1] for e in edges], np.intp, m),
            np.fromiter([e[2] for e in edges], float, m))


def _adjacency(n: int, i: np.ndarray, j: np.ndarray):
    """Compressed adjacency of the undirected edges (i, j) as Python lists:
    node u's neighbours are ``nbr[ptr[u]:ptr[u + 1]]``."""
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(np.concatenate((i, j)), minlength=n), out=ptr[1:])
    order = np.argsort(np.concatenate((i, j)), kind="stable")
    return ptr.tolist(), np.concatenate((j, i))[order].tolist()


def _bfs(adj, source: int, radius: int) -> list[int]:
    """Nodes at 1 to ``radius`` hops from ``source``, nearest first."""
    ptr, nbr = adj
    dist = {source: 0}
    queue = [source]
    for u in queue:  # appending while iterating makes the list a queue
        if dist[u] < radius:
            for v in nbr[ptr[u]:ptr[u + 1]]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    return queue[1:]


def _triples(edge_list) -> np.ndarray:
    """The m x 3 float array of a non-empty list of (i, j, R) triples
    (numbers or number strings); InvalidEdge for anything else."""
    try:
        arr = np.asarray(edge_list, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidEdge(f"edges must be (i, j, R) number triples: {exc}"
                          ) from exc
    if arr.ndim != 2 or arr.shape[1] != 3 or len(arr) == 0:
        raise InvalidEdge(f"need a non-empty list of (i, j, R) triples, got "
                          f"an array of shape {arr.shape}")
    return arr


def build_network(node_count, edge_list) -> Network:
    """Validate an edge list and return an immutable Network.

    ``edge_list`` holds (i, j, R) triples, or is an m x 3 array of them;
    each index must be integral (1.0 counts as 1) and ``node_count`` an
    int. Raises InvalidEdge for a malformed list, a non-integer index,
    self-loops, duplicates or R not in (0, inf), IndexOutOfRange for bad
    node indices, and DisconnectedGraph when the graph does not reach
    every node.
    """
    if not isinstance(node_count, (int, np.integer)) or node_count < 2:
        raise InvalidEdge(
            f"need an integer node count of at least 2, got {node_count!r}")
    node_count = int(node_count)
    arr = _triples(edge_list)
    if len(arr) < node_count - 1:  # also bounds n before any O(n) array
        raise DisconnectedGraph(
            f"{len(arr)} edges cannot connect {node_count} nodes")
    ends, r = arr[:, :2], arr[:, 2]
    for bad, error, what in (
            ((ends != np.floor(ends)).any(axis=1), InvalidEdge,
             "has a non-integer index"),
            (~((0 <= ends) & (ends < node_count)).all(axis=1),
             IndexOutOfRange, f"has an index outside [0,{node_count})"),
            (ends[:, 0] == ends[:, 1], InvalidEdge, "is a self-loop"),
            (~((0.0 < r) & (r < math.inf)), InvalidEdge,
             "has a resistance that is not positive and finite")):
        if bad.any():
            raise error(f"edge ({', '.join(f'{x:g}' for x in arr[bad][0])}) "
                        f"{what}")
    i, j = np.sort(ends, axis=1).astype(np.intp).T
    order = np.lexsort((j, i))
    i, j, r = i[order], j[order], r[order]
    duplicate = (i[1:] == i[:-1]) & (j[1:] == j[:-1])
    if duplicate.any():
        k = np.argmax(duplicate)
        raise InvalidEdge(f"duplicate edge ({i[k]}, {j[k]})")
    reached = _bfs(_adjacency(node_count, i, j), 0, node_count)
    if len(reached) != node_count - 1:
        raise DisconnectedGraph(
            f"graph on {node_count} nodes is not connected")
    edges = tuple(zip(i.tolist(), j.tolist(), r.tolist()))
    return Network(node_count, edges)


def generate_lattice(d: int, sides, resistance: float = 1.0) -> Network:
    """Finite box truncation of the d-dimensional integer lattice.

    ``sides`` is a single side length or one per dimension; every
    nearest-neighbor pair gets an edge of the given resistance. Node order
    is row-major over the box.
    """
    if d not in (1, 2, 3):
        raise InvalidDimension(f"lattice dimension must be 1, 2 or 3, got {d}")
    if isinstance(sides, int):
        sides = (sides,) * d
    sides = tuple(int(m) for m in sides)
    if len(sides) != d:
        raise InvalidSize(f"expected {d} side lengths, got {len(sides)}")
    if any(m < 2 for m in sides):
        raise InvalidSize(f"side lengths must be >= 2, got {sides}")
    if not resistance > 0:
        raise InvalidEdge(f"resistance must be positive, got {resistance}")

    # one slice per axis pairs each node with its successor along that axis
    index = np.arange(math.prod(sides)).reshape(sides)
    i = np.concatenate([index.take(range(m - 1), axis=axis).ravel()
                        for axis, m in enumerate(sides)])
    j = np.concatenate([index.take(range(1, m), axis=axis).ravel()
                        for axis, m in enumerate(sides)])
    edges = np.column_stack((i, j, np.full(i.size, resistance, dtype=float)))
    return build_network(index.size, edges)


def generate_hfuzz(base: Network, h: int, r_fuzz: float | None = None) -> Network:
    """Add an edge between every node pair within graph distance h.

    Pairs already adjacent in the base keep their original resistance;
    newly created edges get ``r_fuzz`` (default: the base's maximum edge
    resistance). h = 1 returns a network with the identical edge set.
    """
    if h < 1:
        raise InvalidFuzzRadius(f"fuzz radius must be >= 1, got {h}")
    existing = {(i, j): r for i, j, r in base.edges}
    if r_fuzz is None:
        r_fuzz = max(existing.values())
    if not r_fuzz > 0:
        raise InvalidEdge(f"fuzz resistance must be positive, got {r_fuzz}")

    i, j, _ = _columns(base.edges)
    adj = _adjacency(base.node_count, i, j)
    edges = [(u, v, existing.get((u, v), r_fuzz))
             for u in range(base.node_count) for v in _bfs(adj, u, h) if u < v]
    return build_network(base.node_count, edges)


def lattice_box(net: Network) -> tuple[tuple[int, ...], float] | None:
    """(sides, conductance) when ``net``'s edges are exactly those of a
    row-major box lattice with one resistance on every edge, else None.

    Decided from the edges alone, so a generated lattice and its JSON or
    edge-list file agree. The distinct index gaps j - i are the strides:
    each must divide the next, and the last n, giving sides >= 2 (the
    smallest gap is 1, or the edges could not connect the graph). Every
    edge must step along its axis without wrapping, and the edge count
    must be the box's; with no duplicates, the edges are then the box's.
    A side of 1 adds no edge, so it is not reported.
    """
    r0 = net.edges[0][2]
    if net.edges[-1][2] != r0:  # O(1) exit for most other graphs
        return None
    i, j, r = _columns(net.edges)
    if (r != r0).any():
        return None
    n = net.node_count
    gap = j - i
    strides = np.unique(gap).tolist()
    bounds = strides[1:] + [n]
    if any(b % s for s, b in zip(strides, bounds)):
        return None
    sides = [b // s for s, b in zip(strides, bounds)]  # fastest axis first
    if net.edge_count != sum((m - 1) * (n // m) for m in sides):
        return None
    m = np.array(sides)[np.searchsorted(strides, gap)]
    if ((i // gap) % m == m - 1).any():
        return None
    return tuple(reversed(sides)), 1.0 / r0


# The dense route's largest user, ``sim --kind dapi``, holds about 36 n x n
# doubles at its peak (expm of the 2n x 2n state matrix; 300 MB measured at
# n = 1024). A 2 GiB budget for it admits n <= sqrt(2^31 / (36 * 8)) = 2730.
DENSE_MAX_NODES = 2730


def require_dense(n: int) -> None:
    """InvalidSize when an n x n matrix would pass the dense route's memory
    budget (``DENSE_MAX_NODES``); called before any such allocation."""
    if n > DENSE_MAX_NODES:
        raise InvalidSize(f"{n} buses exceed the dense route's limit of "
                          f"{DENSE_MAX_NODES} (n x n matrices)")


def laplacian(net: Network) -> np.ndarray:
    """Weighted graph Laplacian with conductance (1/R) edge weights; dense,
    so InvalidSize beyond ``DENSE_MAX_NODES`` buses."""
    require_dense(net.node_count)
    i, j, r = _columns(net.edges)
    lap = np.zeros((net.node_count, net.node_count))
    lap[i, j] = lap[j, i] = -1.0 / r
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def reduced_laplacian(lap: np.ndarray, ground: int = 0) -> np.ndarray:
    """Principal submatrix with the grounded node's row and column removed."""
    n = lap.shape[0]
    if not (0 <= ground < n):
        raise IndexOutOfRange(f"ground index {ground} outside [0,{n})")
    keep = [k for k in range(n) if k != ground]
    return lap[np.ix_(keep, keep)]


# --- file formats ---

def parse_edge_list(text: str) -> Network:
    """Parse the "i j R" one-edge-per-line text format (blank and # lines
    skipped); n is one more than the largest index. A malformed row, or
    no row at all, raises InvalidEdge as in :func:`build_network`."""
    arr = _triples([line.split() for line in text.splitlines()
                    if line.strip() and not line.lstrip().startswith("#")])
    top = np.nan_to_num(arr[:, :2].max(), posinf=0.0)
    # n >= 2 leaves a negative or non-finite index to build_network's checks
    return build_network(max(2, int(top) + 1), arr)


def format_edge_list(net: Network) -> str:
    return "\n".join(f"{i} {j} {r!r}" for i, j, r in net.edges) + "\n"


def to_json_dict(net: Network) -> dict:
    return {"n": net.node_count, "edges": [[i, j, r] for i, j, r in net.edges]}


def from_json_dict(doc: dict) -> Network:
    try:
        node_count, edges = doc["n"], doc["edges"]
    except (KeyError, TypeError) as exc:
        raise InvalidEdge("a network document needs the keys 'n' and 'edges'"
                          ) from exc
    return build_network(node_count, edges)


def load_network(path) -> Network:
    """Load a network from a JSON file or an "i j R" edge-list file."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidEdge(f"malformed network JSON: {exc}") from exc
        return from_json_dict(doc)
    return parse_edge_list(text)
