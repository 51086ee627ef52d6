"""Resistor-network graphs for multi-terminal DC grids.

A network is an undirected, connected graph of buses joined by purely
resistive lines. This module builds and validates such graphs, generates
finite d-dimensional lattices and their h-fuzzes, and produces their
(reduced) Laplacians and the one cached Laplacian spectrum per network:
its eigenvalues and blocks of L^+ on demand. That spectrum is the
closed-form Kronecker-sum spectrum when the network is a uniform box
lattice (:func:`lattice_box`, decided from its coords and edges) and the
dense Laplacian's eigenvalues plus a Cholesky solve otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
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

    ``edges`` holds (i, j, R) triples with i < j, resistances in ohms.
    ``coords`` carries integer lattice coordinates when the network was
    produced by a generator. Instances are validated by
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

    def adjacency_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


def _check_connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def build_network(node_count, edge_list, coords=None) -> Network:
    """Validate an edge list and return an immutable Network.

    Raises InvalidEdge for self-loops, duplicates or R not in (0, inf),
    IndexOutOfRange for bad node indices, and DisconnectedGraph when the
    graph does not reach every node.
    """
    if node_count < 2:
        raise InvalidEdge(f"need at least 2 nodes, got {node_count}")
    if not edge_list:
        raise InvalidEdge("edge list is empty")
    seen: set[tuple[int, int]] = set()
    normalized = []
    for i, j, r in edge_list:
        i, j = int(i), int(j)
        if not (0 <= i < node_count and 0 <= j < node_count):
            raise IndexOutOfRange(f"edge ({i},{j}) outside [0,{node_count})")
        if i == j:
            raise InvalidEdge(f"self-loop at node {i}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InvalidEdge(f"duplicate edge {key}")
        seen.add(key)
        r = float(r)
        if not 0.0 < r < math.inf:
            raise InvalidEdge(
                f"edge {key} resistance {r} is not positive and finite")
        normalized.append((key[0], key[1], r))
    normalized.sort()
    if not _check_connected(node_count, normalized):
        raise DisconnectedGraph(f"graph on {node_count} nodes is not connected")
    if coords is not None:
        coords = tuple(tuple(int(c) for c in p) for p in coords)
        if len(coords) != node_count:
            raise InvalidEdge("coords length must equal node_count")
    return Network(node_count, tuple(normalized), coords)


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

    points = list(itertools.product(*(range(m) for m in sides)))
    index = {p: k for k, p in enumerate(points)}
    edges = []
    for p in points:
        for axis in range(d):
            q = list(p)
            q[axis] += 1
            q = tuple(q)
            if q in index:
                edges.append((index[p], index[q], resistance))
    return build_network(len(points), edges, coords=points)


def _bfs_within(adj, source: int, h: int):
    """Nodes at graph distance in [1, h] from source, with distances."""
    dist = {source: 0}
    queue = deque([source])
    out = []
    while queue:
        u = queue.popleft()
        if dist[u] == h:
            continue
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                out.append(v)
                queue.append(v)
    return out


def generate_hfuzz(base: Network, h: int, r_fuzz: float | None = None) -> Network:
    """Add an edge between every node pair within graph distance h.

    Pairs already adjacent in the base keep their original resistance;
    newly created edges get ``r_fuzz`` (default: the base's maximum edge
    resistance). h = 1 returns a network with the identical edge set.
    """
    if h < 1:
        raise InvalidFuzzRadius(f"fuzz radius must be >= 1, got {h}")
    if r_fuzz is None:
        r_fuzz = max(r for _, _, r in base.edges)
    if not r_fuzz > 0:
        raise InvalidEdge(f"fuzz resistance must be positive, got {r_fuzz}")

    existing = {(i, j): r for i, j, r in base.edges}
    adj = base.adjacency_lists()
    edges = []
    for u in range(base.node_count):
        for v in _bfs_within(adj, u, h):
            if u < v:
                edges.append((u, v, existing.get((u, v), r_fuzz)))
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
    r = net.edges[0][2]
    for i, j, r_ij in net.edges:
        hops = sum(abs(a - b) for a, b in zip(net.coords[i], net.coords[j]))
        if r_ij != r or hops != 1:
            return None
    return sides, 1.0 / r


def laplacian(net: Network) -> np.ndarray:
    """Weighted graph Laplacian with conductance (1/R) edge weights."""
    n = net.node_count
    lap = np.zeros((n, n))
    for i, j, r in net.edges:
        g = 1.0 / r
        lap[i, j] -= g
        lap[j, i] -= g
        lap[i, i] += g
        lap[j, j] += g
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
    return build_network(doc["n"], [tuple(e) for e in doc["edges"]],
                         coords=doc.get("coords"))


def load_network(path) -> Network:
    """Load a network from a JSON file or an "i j R" edge-list file."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_dict(json.loads(text))
    return parse_edge_list(text)
