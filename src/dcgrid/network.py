"""Resistor-network graphs for multi-terminal DC grids.

A network is an undirected, connected graph of buses joined by purely
resistive lines. This module builds and validates such graphs, generates
finite d-dimensional lattices and their h-fuzzes, and produces their
(reduced) Laplacians and the one cached Laplacian spectrum per network:
its eigenvalues and blocks of L^+ on demand. That spectrum is the
closed-form Kronecker-sum spectrum when the network is a uniform box
lattice (:func:`lattice_box`, decided from its coords and edges) and the
dense Laplacian's eigenvalues plus a Cholesky solve otherwise.

Per-edge work (validation, lattice edges, Laplacian assembly, lattice
detection) runs on numpy arrays of the edge columns; the one Python
loop is the breadth-first search behind the connectivity check and the
h-fuzz.
"""

from __future__ import annotations

import itertools
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
    ohms. ``coords`` carries integer lattice coordinates when the network
    was produced by a generator. Instances are validated by
    :func:`build_network` and immutable.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    coords: tuple[tuple[int, ...], ...] | None = None

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
    arr = np.array(edges, dtype=float)
    return arr[:, 0].astype(np.intp), arr[:, 1].astype(np.intp), arr[:, 2]


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


def build_network(node_count, edge_list, coords=None) -> Network:
    """Validate an edge list and return an immutable Network.

    ``edge_list`` holds (i, j, R) triples, or is an m x 3 array of them;
    each index must be integral (1.0 counts as 1). ``node_count`` and
    every coordinate must be ints. Raises InvalidEdge for a malformed
    list or coordinates, a non-integer index, self-loops, duplicates or R
    not in (0, inf), IndexOutOfRange for bad node indices, and
    DisconnectedGraph when the graph does not reach every node.
    """
    if not isinstance(node_count, (int, np.integer)) or node_count < 2:
        raise InvalidEdge(
            f"need an integer node count of at least 2, got {node_count!r}")
    node_count = int(node_count)
    try:
        arr = np.array(edge_list, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidEdge(f"edges must be (i, j, R) number triples: {exc}"
                          ) from exc
    if arr.ndim != 2 or arr.shape[1] != 3 or len(arr) == 0:
        raise InvalidEdge(f"need a non-empty list of (i, j, R) triples, got "
                          f"an array of shape {arr.shape}")
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
    if coords is not None:
        try:
            coords = tuple(map(tuple, coords))
        except TypeError as exc:
            raise InvalidEdge(f"coords must be a list of points: {exc}"
                              ) from exc
        if len(coords) != node_count:
            raise InvalidEdge("coords length must equal node_count")
        if set(map(type, itertools.chain.from_iterable(coords))) - {int}:
            raise InvalidEdge("coordinates must be ints")
    edges = tuple(zip(i.tolist(), j.tolist(), r.tolist()))
    return Network(node_count, edges, coords)


def generate_lattice(d: int, sides, resistance: float = 1.0) -> Network:
    """Finite box truncation of the d-dimensional integer lattice.

    ``sides`` is a single side length or one per dimension; every
    nearest-neighbor pair gets an edge of the given resistance. Node order
    is row-major over the box, and lattice coordinates are attached.
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
    coords = tuple(itertools.product(*map(range, sides)))
    return build_network(index.size, edges, coords)


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
    return build_network(base.node_count, edges, coords=base.coords)


def lattice_box(net: Network) -> tuple[tuple[int, ...], float] | None:
    """(sides, conductance) when ``net`` is a full box lattice with one
    resistance on every edge, else None.

    Decided from the network's own data, so equal networks agree: the
    coords list the whole box in row-major order (as
    :func:`generate_lattice` and a JSON file written from it do), the edge
    count is the box's nearest-neighbour count, every edge joins
    coordinates at L1 distance 1, and every edge has the same R.
    """
    if net.coords is None:
        return None
    sides = tuple(c + 1 for c in net.coords[-1])
    if min(sides, default=0) < 1 or math.prod(sides) != net.node_count:
        return None
    pairs = sum((m - 1) * (net.node_count // m) for m in sides)
    if net.edge_count != pairs:
        return None
    if net.coords != tuple(itertools.product(*map(range, sides))):
        return None
    i, j, r = _columns(net.edges)
    hops = np.abs(np.subtract(np.unravel_index(i, sides),
                              np.unravel_index(j, sides))).sum(axis=0)
    r0 = net.edges[0][2]
    if (hops != 1).any() or (r != r0).any():
        return None
    return sides, 1.0 / r0


def laplacian(net: Network) -> np.ndarray:
    """Weighted graph Laplacian with conductance (1/R) edge weights."""
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

def parse_edge_list(text: str, node_count: int | None = None) -> Network:
    """Parse the "i j R" one-edge-per-line text format."""
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InvalidEdge(f"malformed edge line: {line!r}")
        edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if node_count is None:
        node_count = 1 + max(max(i, j) for i, j, _ in edges)
    return build_network(node_count, edges)


def format_edge_list(net: Network) -> str:
    return "\n".join(f"{i} {j} {r!r}" for i, j, r in net.edges) + "\n"


def to_json_dict(net: Network) -> dict:
    doc = {"n": net.node_count, "edges": [[i, j, r] for i, j, r in net.edges]}
    if net.coords is not None:
        doc["coords"] = [list(p) for p in net.coords]
    return doc


def from_json_dict(doc: dict) -> Network:
    try:
        node_count, edges = doc["n"], doc["edges"]
    except (KeyError, TypeError) as exc:
        raise InvalidEdge("a network document needs the keys 'n' and 'edges'"
                          ) from exc
    return build_network(node_count, edges, coords=doc.get("coords"))


def load_network(path) -> Network:
    """Load a network from a JSON file or an "i j R" edge-list file."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_dict(json.loads(text))
    return parse_edge_list(text)
