"""Resistor-network graphs for multi-terminal DC grids.

A network is an undirected, connected graph of buses joined by purely
resistive lines. This module builds and validates such graphs, generates
finite d-dimensional lattices and their h-fuzzes, and produces their
(reduced) Laplacians and the one cached Laplacian spectrum per network:
its eigenvalues and blocks of L^+ on demand. That spectrum is the
closed-form Kronecker-sum spectrum when the edges are those of a uniform
box lattice in row-major node order (:func:`lattice_box`), however the
network was made, and otherwise the Laplacian's eigenvalues by a dense
eigensolve plus a banded Cholesky factor of the Laplacian grounded at
node 0. The dense eigensolve splits into 2^a blocks of about n / 2^a
when the edges are their own image under the reversal of a axes of
``Network.sides``, a hint that an h-fuzz takes from its base box
(:func:`generate_hfuzz`), and further, into blocks of about n / 8 and one
of n / 4 in place of the four blocks of axes 0 and 1, when they are also
their own image under the swap of those two axes of a square hint. Its
blocks and the factor are built from the edges, with no dense Laplacian.

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
    InvalidEdge,
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
    def sides(self) -> tuple[int, ...]:
        """The row-major box whose axis reversals, and whose swap of axes 0
        and 1 when those sides are equal, the dense eigensolve tries as
        symmetries: the box's own sides for a box lattice, its base's for
        an h-fuzz (:func:`generate_hfuzz` fills it), else ``(n,)``, the
        whole-graph reversal i -> n - 1 - i. A hint only: the edges decide
        which symmetries hold, and the orbits of the group they generate
        index the rows of the eigensolve's blocks."""
        return (self.node_count,) if self.box is None else self.box[0]

    @cached_property
    def spectrum(self) -> numerics.LaplacianSpectrum:
        """Laplacian eigenvalues (zero mode exactly 0.0 first) and blocks of
        L^+ on demand, computed on first use and shared thereafter.

        A uniform box lattice (see :attr:`box`) gets the analytic
        Kronecker-sum spectrum, any other graph the dense route, whose
        eigensolve splits into 2^a blocks of about n / 2^a when the edges
        are their own image under the reversal of a axes of :attr:`sides`
        (all d axes of an h-fuzz of a d-dimensional box), and on a square
        :attr:`sides` also by the swap of axes 0 and 1: the 2-fuzz of an
        m x m grid takes four solves of about n / 8 and one of n / 4.
        Each block is summed from the edges over the group's orbits,
        B[o, o'] = sum chi(u) chi(v) L_uv / sqrt(|O_u| |O_v|) for a
        character chi, with no n x n Laplacian, under the dense limit.
        """
        if self.box is None:
            require_dense(self.node_count)
            return numerics.laplacian_spectrum(self.ends, self.resistance,
                                               self.sides)
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
    if not numerics.integer_in(node_count, 2):
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
    _check_conductance(node_count, ends, r)
    ends.sort(axis=1)
    order = np.lexsort(ends.T[::-1])
    ends, r = ends[order], r[order]
    duplicate = (ends[1:] == ends[:-1]).all(axis=1)
    if duplicate.any():
        k = np.argmax(duplicate)
        raise InvalidEdge(f"duplicate edge {tuple(ends[k].tolist())}")
    net = Network(node_count, ends, r)
    if net.box is None and _bfs(_adjacency(node_count, *ends.T)) != node_count:
        raise DisconnectedGraph(f"graph on {node_count} nodes is not "
                                "connected")
    return net


def _check_conductance(node_count: int, ends: np.ndarray, r: np.ndarray
                       ) -> None:
    """InvalidEdge naming the first node whose conductances 1/R sum past
    half the largest float: the Laplacian's eigenvalues, at most twice the
    largest such sum, would not be finite."""
    with np.errstate(over="ignore"):
        degree = np.bincount(ends.ravel(), np.repeat(1.0 / r, 2), node_count)
        finite = np.isfinite(2.0 * degree)
    if not finite.all():
        raise InvalidEdge(f"node {np.argmin(finite)}'s conductances 1/R "
                          "sum past half the largest float")


def generate_lattice(d: int, sides, resistance: float = 1.0) -> Network:
    """Finite box truncation of the d-dimensional integer lattice.

    ``sides`` is a single side length or one per dimension; every
    nearest-neighbor pair gets an edge of the given resistance. Node order
    is row-major over the box. The edges are made valid, sorted and
    connected, so of :func:`build_network`'s checks only those on the
    resistance remain, and the box is known without :func:`lattice_box`.
    InvalidSize, before any allocation, when the arrays that
    ``_lattice_ends`` builds, the Network's resistances and the spectrum's
    per-node arrays would together pass ``MEMORY_BUDGET_BYTES``.
    """
    if not numerics.integer_in(d, 1, 3):
        raise InvalidSize(f"lattice dimension must be 1, 2 or 3, got {d!r}")
    axes = tuple(sides) if np.iterable(sides) else (sides,) * d
    if len(axes) != d or not all(numerics.integer_in(m, 2) for m in axes):
        raise InvalidSize(f"side lengths must be integers >= 2, one per "
                          f"dimension (d={d}), got {sides!r}")
    if not numerics.positive_real(resistance):
        raise InvalidEdge(f"resistance must be positive and finite, got "
                          f"{resistance!r}")
    sides = tuple(map(int, axes))
    n = math.prod(sides)
    # _lattice_ends holds per node its index, d (i, j) pairs and d inside
    # flags, and keeps fewer than d of the pairs; the Network adds fewer
    # than d resistances, and the spectrum its eigenvalues and the closed
    # forms' temporaries over them, at most seven doubles per node (an L^+
    # entry of a path makes n-long phases, cosines and mode rows). h2 peaks
    # at 80 traced bytes per node on a path and a grid and 107 on a cube,
    # against 105, 146 and 187 counted here.
    per_node = ((1 + 4 * d) * np.dtype(np.intp).itemsize + d
                + (d + 7) * np.dtype(np.float64).itemsize)
    if n * per_node > MEMORY_BUDGET_BYTES:
        raise InvalidSize(f"a box of {n} nodes needs {n * per_node} bytes "
                          f"of edge and spectrum arrays, past the memory "
                          f"budget of {MEMORY_BUDGET_BYTES} bytes")
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
    The edges come out distinct, sorted and connected, with resistances
    already checked, so of :func:`build_network`'s checks only the
    conductance sum (``_check_conductance``) runs.
    """
    if not numerics.integer_in(h, 1):
        raise InvalidSize(f"fuzz radius must be an integer of at least 1, "
                          f"got {h!r}")
    if r_fuzz is None:
        r_fuzz = float(base.resistance.max())
    if not numerics.positive_real(r_fuzz):
        raise InvalidEdge(f"fuzz resistance must be positive and finite, "
                          f"got {r_fuzz!r}")

    n = base.node_count
    code = _pairs_within(_adjacency(n, *base.ends.T), h)
    code = code[code // n < code % n]  # u < v
    # the base edges' codes, ascending as their endpoints are sorted
    base_code = base.ends[:, 0] * n + base.ends[:, 1]
    at = np.searchsorted(base_code, code).clip(max=base.edge_count - 1)
    r = np.where(base_code[at] == code, base.resistance[at], float(r_fuzz))
    # the codes ascend with u < v, so the ends are sorted as build_network
    # sorts them; the edges include the connected base's, so the fuzz is
    # connected
    ends = np.column_stack(np.divmod(code, n))
    _check_conductance(n, ends, r)
    net = Network(n, ends, r)
    # fill the cached Network.sides: an axis reversal or swap of the base
    # keeps hop distance, so it maps the fuzz onto itself wherever it maps
    # the base
    net.__dict__["sides"] = base.sides
    return net


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


# The memory one call may ask for. The dense route's largest user,
# ``sim --kind dapi``, holds about 32 n x n doubles at its peak (the
# propagator's six 2n x 2n arrays beside the state matrix; 270 MB traced at
# n = 1024). Allowing it 36, the budget admits
# n <= sqrt(2^31 / (36 * 8)) = 2730.
MEMORY_BUDGET_BYTES = 2**31
DENSE_MAX_NODES = math.isqrt(MEMORY_BUDGET_BYTES // (36 * 8))


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


def check_index(index, n: int, what: str = "node index") -> int:
    """``index`` as an int when it passes ``integer_in(index, 0, n - 1)``;
    IndexOutOfRange otherwise, so a float such as 1.5 is not truncated.
    Node, ground and bus indices and seeds all pass through it."""
    if not numerics.integer_in(index, 0, n - 1):
        raise IndexOutOfRange(f"{what} {index} outside [0,{n})")
    return int(index)


def reduced_laplacian(lap: np.ndarray, ground: int = 0) -> np.ndarray:
    """Principal submatrix with the grounded node's row and column removed,
    a new C-ordered array picked by one boolean mask; InvalidSize unless
    ``lap`` is a 2-D square array."""
    lap = np.asarray(lap)
    if not (lap.ndim == 2 and lap.shape[0] == lap.shape[1]):
        raise InvalidSize(f"a Laplacian must be a square 2-D array, got "
                          f"shape {lap.shape}")
    n = lap.shape[0]
    ground = check_index(ground, n, "ground index")
    keep = np.arange(n) != ground
    return lap[keep[:, None] & keep].reshape(n - 1, n - 1)


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
    """Load a network from a JSON file or an "i j R" edge-list file. A
    file that does not decode as text is malformed, an InvalidEdge like
    malformed JSON; a file that cannot be opened is an OSError."""
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidEdge(f"network file is not text: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidEdge(f"malformed network JSON: {exc}") from exc
        return from_json_dict(doc)
    return parse_edge_list(text)
