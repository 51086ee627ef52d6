"""Resistor-network graphs for multi-terminal DC grids.

A network is an undirected, connected graph of buses joined by purely
resistive lines. This module builds and validates such graphs, generates
finite d-dimensional lattices and their h-fuzzes, and produces their
(reduced) Laplacians and the one cached Laplacian spectrum per network:
its eigenvalues and blocks of L^+ on demand. That spectrum is the
closed-form Kronecker-sum spectrum when the edges are those of a uniform
box lattice in row-major node order (:func:`lattice_box`), however the
network was made, and the dense Laplacian's eigenvalues (split into two
half-size solves when the edges are their own mirror image) plus a
banded Cholesky factor of the Laplacian grounded at node 0 otherwise.

A network keeps its validated edges as two read-only arrays, the
endpoints and the resistances, and every per-edge step (validation,
lattice edges, Laplacian assembly, lattice detection, the grounded band)
runs on them; (i, j, R) tuples are made only on request (``edges``). The
h-fuzz gathers its node pairs by h rounds of numpy frontier expansion.

Whether the edges form a box lattice is decided once per network, at
build, and kept (``Network.box``); :func:`generate_lattice` builds its
box's edges already valid and sorted, and knows the box without that
test. A box is connected by construction,
and so is an h-fuzz of a connected base, so the one Python loop, the
breadth-first search behind the connectivity check, runs only when
:func:`build_network` is given any other graph.
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


@dataclass(frozen=True, eq=False)
class Network:
    """Undirected weighted resistor network.

    ``ends`` is the m x 2 intp array of edge endpoints (i, j), i < j,
    sorted, and ``resistance`` the m edge resistances in ohms; both are
    read-only and alone decide the network, its equality, its hash and
    its spectrum. Instances are validated by :func:`build_network`.
    """

    node_count: int
    ends: np.ndarray
    resistance: np.ndarray

    def __post_init__(self):
        self.ends.flags.writeable = False
        self.resistance.flags.writeable = False

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """(i, j, R) tuples of Python numbers, built on each access."""
        return tuple(zip(*self.ends.T.tolist(), self.resistance.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.resistance)

    def _key(self):
        return self.node_count, self.ends.tobytes(), self.resistance.tobytes()

    def __eq__(self, other):
        return isinstance(other, Network) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def box(self) -> tuple[tuple[int, ...], float] | None:
        """:func:`lattice_box` of this network, decided once and kept."""
        return lattice_box(self)

    @cached_property
    def spectrum(self) -> numerics.LaplacianSpectrum:
        """Laplacian eigenvalues (zero mode exactly 0.0 first) and blocks of
        L^+ on demand, computed on first use and shared thereafter.

        A uniform box lattice (see :attr:`box`) gets the analytic
        Kronecker-sum spectrum, any other graph the dense route, whose
        eigensolve splits into two half-size ones when the edges are their
        own mirror image under i -> n - 1 - i (every h-fuzz of a box).
        """
        if self.box is None:
            return numerics.laplacian_spectrum(laplacian(self), self.ends,
                                               self.resistance)
        return numerics.lattice_spectrum(*self.box)


def _adjacency(n: int, i: np.ndarray, j: np.ndarray):
    """Compressed adjacency of the undirected edges (i, j) as intp arrays:
    node u's neighbours are ``nbr[ptr[u]:ptr[u + 1]]``."""
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(np.concatenate((i, j)), minlength=n), out=ptr[1:])
    order = np.argsort(np.concatenate((i, j)), kind="stable")
    return ptr, np.concatenate((j, i))[order]


def _bfs(adj) -> int:
    """The number of nodes that a breadth-first search from node 0 reaches,
    node 0 included."""
    ptr, nbr = (a.tolist() for a in adj)
    seen = [False] * (len(ptr) - 1)
    seen[0] = True
    queue = [0]
    for u in queue:  # appending while iterating makes the list a queue
        for v in nbr[ptr[u]:ptr[u + 1]]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return len(queue)


def _pairs_within(adj, h: int) -> np.ndarray:
    """Sorted codes u n + v of the ordered node pairs (u, v) at most h hops
    apart, u = v included: h rounds of frontier expansion, each pairing
    every newly reached (u, v) with v's neighbours w and keeping the
    (u, w) not reached before."""
    ptr, nbr = adj
    n = ptr.size - 1
    reached = frontier = np.arange(n) * (n + 1)  # the pairs (u, u)
    for _ in range(h):
        u, v = np.divmod(frontier, n)
        degree = ptr[v + 1] - ptr[v]
        # position of each (u, v, w) triple's w in nbr
        offset = np.arange(degree.sum()) - np.repeat(
            np.cumsum(degree) - degree - ptr[v], degree)
        step = np.sort(np.repeat(u, degree) * n + nbr[offset])
        # sort-based dedup: np.unique's hash table is slower here
        step = step[np.concatenate(([True], step[1:] != step[:-1]))]
        frontier = step[~np.isin(step, reached, assume_unique=True)]
        if frontier.size == 0:
            break
        reached = np.concatenate((reached, frontier))
    return np.sort(reached)


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
    self-loops, duplicates, R not in (0, inf) or a node whose conductances
    1/R sum past half the largest float (the Laplacian's eigenvalues,
    at most twice the largest such sum, would not be finite),
    IndexOutOfRange for bad node indices, and DisconnectedGraph when the
    graph does not reach every node. A box lattice (:func:`lattice_box`)
    is connected by construction; only other graphs are searched.
    """
    net = _validated(node_count, edge_list)
    n = net.node_count
    if net.box is None and _bfs(_adjacency(n, *net.ends.T)) != n:
        raise DisconnectedGraph(f"graph on {n} nodes is not connected")
    return net


def _validated(node_count, edge_list) -> Network:
    """:func:`build_network` without the connectivity search: every check
    but that one, then the edges sorted by endpoints."""
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
    ends = ends.astype(np.intp)  # one copy, sorted in place below
    with np.errstate(over="ignore"):
        degree = np.bincount(ends.ravel(), np.repeat(1.0 / r, 2), node_count)
        finite = np.isfinite(2.0 * degree)  # lambda_max <= 2 max degree
    if not finite.all():
        raise InvalidEdge(f"node {np.argmin(finite)}'s conductances 1/R "
                          "sum past half the largest float")
    ends.sort(axis=1)
    order = np.lexsort(ends.T[::-1])
    ends, r = ends[order], r[order]
    duplicate = (ends[1:] == ends[:-1]).all(axis=1)
    if duplicate.any():
        k = np.argmax(duplicate)
        raise InvalidEdge(f"duplicate edge {tuple(ends[k].tolist())}")
    return Network(node_count, ends, r)


def generate_lattice(d: int, sides, resistance: float = 1.0) -> Network:
    """Finite box truncation of the d-dimensional integer lattice.

    ``sides`` is a single side length or one per dimension; every
    nearest-neighbor pair gets an edge of the given resistance. Node order
    is row-major over the box. The edges are made valid, sorted and
    connected, so of :func:`build_network`'s checks only those on the
    resistance remain, and the box is known without :func:`lattice_box`.
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
    if resistance == math.inf:  # named by node 0's edge on the first axis
        raise InvalidEdge(f"edge (0, {math.prod(sides[1:]):g}, inf) has a "
                          "resistance that is not positive and finite")
    n = math.prod(sides)
    ends = _lattice_ends(sides)
    # build_network's conductance check: doubled[k - 1] is twice k
    # conductances 1/R added one at a time, as it adds a node's k edges;
    # the largest degree decides, and the first node past it is named
    with np.errstate(over="ignore", divide="ignore"):
        doubled = 2.0 * np.cumsum(np.full(2 * d, 1.0 / np.float64(resistance)))
    if not np.isfinite(doubled[sum(min(m - 1, 2) for m in sides) - 1]):
        degree = np.bincount(ends.ravel(), minlength=n)
        raise InvalidEdge(
            f"node {np.argmin(np.isfinite(doubled[degree - 1]))}'s "
            "conductances 1/R sum past half the largest float")
    net = Network(n, ends, np.full(len(ends), float(resistance)))
    # fill the cached Network.box: the box is known, so lattice_box need
    # not run over the edges
    net.__dict__["box"] = (sides, 1.0 / float(resistance))
    return net


def _lattice_ends(sides: tuple[int, ...]) -> np.ndarray:
    """The m x 2 endpoints (i, j) of the row-major box's nearest-neighbour
    pairs, sorted as :func:`build_network` sorts them: node i's successors
    are i + stride along each axis on which i is not at the far face, in
    increasing stride order."""
    n = math.prod(sides)
    node = np.arange(n)
    pairs = np.empty((n, len(sides), 2), dtype=np.intp)
    pairs[:, :, 0] = node[:, None]
    inside = np.empty((n, len(sides)), dtype=bool)
    stride = 1
    for axis, m in enumerate(reversed(sides)):  # fastest axis first
        pairs[:, axis, 1] = node + stride
        inside[:, axis] = node // stride % m != m - 1
        stride *= m
    # one 2 * intp-byte element per pair, so the mask moves whole pairs
    whole = pairs.view(np.dtype((np.void, 2 * pairs.itemsize)))[..., 0]
    return whole[inside].view(np.intp).reshape(-1, 2)


def generate_hfuzz(base: Network, h: int, r_fuzz: float | None = None) -> Network:
    """Add an edge between every node pair within graph distance h.

    Pairs already adjacent in the base keep their original resistance;
    newly created edges get ``r_fuzz`` (default: the base's maximum edge
    resistance). h = 1 returns a network with the identical edge set.
    """
    if h < 1:
        raise InvalidFuzzRadius(f"fuzz radius must be >= 1, got {h}")
    if r_fuzz is None:
        r_fuzz = float(base.resistance.max())
    if not r_fuzz > 0:
        raise InvalidEdge(f"fuzz resistance must be positive, got {r_fuzz}")

    n = base.node_count
    code = _pairs_within(_adjacency(n, *base.ends.T), h)
    code = code[code // n < code % n]  # u < v
    # the base edges' codes, ascending as their endpoints are sorted
    base_code = base.ends[:, 0] * n + base.ends[:, 1]
    at = np.searchsorted(base_code, code).clip(max=base.edge_count - 1)
    r = np.where(base_code[at] == code, base.resistance[at], r_fuzz)
    # the edges include the connected base's, so the fuzz is connected
    return _validated(n, np.column_stack((*np.divmod(code, n), r)))


def lattice_box(net: Network) -> tuple[tuple[int, ...], float] | None:
    """(sides, conductance) when ``net``'s edges are exactly those of a
    row-major box lattice with one resistance on every edge, else None.

    Decided from the edges alone, so a generated lattice and its JSON or
    edge-list file agree. The distinct index gaps j - i are the strides:
    the smallest must be 1 and each must divide the next, and the last n,
    giving sides >= 2 whose product is n. Every edge must step along its
    axis without wrapping, and the edge count must be the box's; with no
    duplicates, the edges are then the box's, and a box is connected.
    (Without the stride 1, edges (0, 2) and (1, 3) on 4 nodes would pass
    as a disconnected box of side 2.) A side of 1 adds no edge, so it is
    not reported.
    """
    r0 = float(net.resistance[0])
    if (net.resistance != r0).any():
        return None
    i, j = net.ends.T
    n = net.node_count
    gap = j - i
    strides = np.unique(gap).tolist()
    bounds = strides[1:] + [n]
    if strides[0] != 1 or any(b % s for s, b in zip(strides, bounds)):
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
    i, j = net.ends.T
    lap = np.zeros((net.node_count, net.node_count))
    lap[i, j] = lap[j, i] = -1.0 / net.resistance
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
