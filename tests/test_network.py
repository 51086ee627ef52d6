import itertools
import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from dcgrid import (
    ControllerParams,
    cli,
    errors,
    network,
    resistance,
    systems,
)
from dcgrid.network import (
    build_network,
    generate_hfuzz,
    generate_lattice,
    laplacian,
    lattice_box,
    reduced_laplacian,
)

from .conftest import block_shapes, dense_twin, random_connected_network


class TestBuildNetwork:
    def test_k2(self):
        net = build_network(2, [(0, 1, 1.0)])
        assert net.node_count == 2
        assert net.edges == ((0, 1, 1.0),)

    def test_p3(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert net.edge_count == 2

    def test_edge_arrays(self):
        net = build_network(4, [(3, 2, 0.5), (1, 0, 2.0), (0, 2, 1.0)])
        assert net.ends.dtype == np.intp
        assert net.ends.tolist() == [[0, 1], [0, 2], [2, 3]]
        assert net.resistance.tolist() == [2.0, 1.0, 0.5]
        assert net != build_network(4, [(3, 2, 0.5), (1, 0, 2.0),
                                        (0, 2, 1.5)])

    @pytest.mark.parametrize("field", ["ends", "resistance"])
    def test_edge_arrays_read_only(self, p3, field):
        with pytest.raises(ValueError):
            getattr(p3, field)[0] = 0

    def test_disconnected(self):
        with pytest.raises(errors.DisconnectedGraph):
            build_network(3, [(0, 1, 1.0)])

    def test_self_loop(self):
        with pytest.raises(errors.InvalidEdge):
            build_network(2, [(0, 0, 1.0), (0, 1, 1.0)])

    def test_duplicate_edge(self):
        with pytest.raises(errors.InvalidEdge):
            build_network(2, [(0, 1, 1.0), (1, 0, 2.0)])

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1.0), (1, 2, 1e-320)],  # 1/R overflows
        [(0, 1, 1e-308), (1, 2, 1e-308)],  # node 1's sum 2e308 overflows
        # node 1's sum 1e308 is finite, but not 2e308, which bounds lambda_max
        [(0, 1, 1.0), (1, 2, 1e-308)],
    ])
    def test_conductance_overflow(self, edges):
        with pytest.raises(errors.InvalidEdge, match="largest float"):
            build_network(3, edges)

    def test_nonpositive_resistance(self):
        with pytest.raises(errors.InvalidEdge):
            build_network(2, [(0, 1, 0.0)])

    @pytest.mark.parametrize("r", [np.inf, np.nan])
    def test_nonfinite_resistance(self, r):
        with pytest.raises(errors.InvalidEdge):
            build_network(2, [(0, 1, r)])

    def test_index_out_of_range(self):
        with pytest.raises(errors.IndexOutOfRange):
            build_network(2, [(0, 2, 1.0)])

    def test_empty_edge_list(self):
        with pytest.raises(errors.InvalidEdge):
            build_network(2, [])

    @pytest.mark.parametrize("node_count, edges", [
        (3, [(0, 1.5, 1.0), (1, 2, 1.0)]),
        (3.0, [(0, 1, 1.0), (1, 2, 1.0)]),
        (3, [(0, 1), (1, 2)]),
        (3, [(0, 1, 1.0), (1, 2, "x")]),
    ], ids=["fractional-index", "float-count", "pairs", "text-resistance"])
    def test_malformed_input(self, node_count, edges):
        with pytest.raises(errors.InvalidEdge):
            build_network(node_count, edges)

    def test_integral_float_index_accepted(self):
        net = build_network(2, [(1.0, 0.0, 2.0)])
        assert net.edges == ((0, 1, 2.0),)
        assert all(type(x) is int for x in net.edges[0][:2])

    def test_too_few_edges_for_node_count(self):
        # rejected before anything of size node_count is allocated
        with pytest.raises(errors.DisconnectedGraph):
            build_network(10**15, [(0, 1, 1.0)])


def brute_force_lattice_edges(sides):
    """Independent oracle: all node pairs at Euclidean distance 1, as
    (i, j) index pairs in row-major node order."""
    points = list(itertools.product(*(range(m) for m in sides)))
    return {(i, j) for (i, a), (j, b) in
            itertools.combinations(enumerate(points), 2)
            if sum((x - y) ** 2 for x, y in zip(a, b)) == 1}


class TestLattice:
    def test_path(self):
        net = generate_lattice(1, 5)
        assert net.node_count == 5
        assert net.edge_count == 4

    def test_grid_3x3(self):
        net = generate_lattice(2, 3)
        assert net.node_count == 9
        assert net.edge_count == 12  # 2m(m-1) for m x m

    def test_cube(self):
        net = generate_lattice(3, 2)
        assert net.node_count == 8
        assert net.edge_count == 12

    @pytest.mark.parametrize("d,sides", [(1, (6,)), (2, (3, 4)), (3, (2, 3, 4))])
    def test_edge_count_vs_brute_force(self, d, sides):
        net = generate_lattice(d, sides)
        expected = brute_force_lattice_edges(sides)
        assert net.edge_count == len(expected)
        assert {(i, j) for i, j, _ in net.edges} == expected

    def test_invalid_dimension(self):
        with pytest.raises(errors.InvalidSize):
            generate_lattice(4, 2)

    def test_invalid_size(self):
        with pytest.raises(errors.InvalidSize):
            generate_lattice(2, (1, 3))

    def test_budget_covers_h2_peak(self, tmp_path, monkeypatch):
        # the budget counts what h2 holds per node, not only the edge
        # arrays: it counted 41 bytes per node on a path, which peaked at 80
        n = 100_000
        cli.run(["h2", "--gen", "path:10", "--out", str(tmp_path / "warm")])
        tracemalloc.start()
        try:
            assert cli.run(["h2", "--gen", f"path:{n}", "--out",
                            str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # refused iff n per_node > peak - 1, that is n per_node >= peak
        monkeypatch.setattr(network, "MEMORY_BUDGET_BYTES", peak - 1)
        with pytest.raises(errors.InvalidSize, match="memory budget"):
            generate_lattice(1, n)

    @pytest.mark.parametrize("sides", [(2,), (7,), (2, 2), (3, 5), (5, 3),
                                       (2, 3, 4), (4, 2, 3), (3, 3, 3)])
    @pytest.mark.parametrize("r", [1.0, 0.25])
    def test_equals_build_network_of_its_triples(self, sides, r):
        # the lattice skips build_network's validation and sort; given the
        # same triples in reverse, build_network must sort them back
        net = generate_lattice(len(sides), sides, r)
        twin = build_network(net.node_count, net.edges[::-1])
        assert net == twin
        assert net.ends.dtype == twin.ends.dtype
        assert not (net.ends.flags.writeable or net.resistance.flags.writeable)
        assert net.box == lattice_box(twin) == (sides, 1.0 / r)

    @pytest.mark.parametrize("sides, r", [
        ((3, 4), 4e-308), ((3, 3, 3), 6e-308), ((2, 3), 1e-320)])
    def test_conductance_overflow_as_build_network(self, sides, r):
        # the same node is named: the first whose degree overflows
        triples = [(i, j, r) for i, j, _ in generate_lattice(
            len(sides), sides).edges]
        with pytest.raises(errors.InvalidEdge) as direct:
            generate_lattice(len(sides), sides, r)
        with pytest.raises(errors.InvalidEdge) as built:
            build_network(math.prod(sides), triples)
        assert str(direct.value) == str(built.value)

    @pytest.mark.parametrize("sides, r_fuzz", [
        ((3, 4), 4e-308), ((3, 3, 3), 1.3e-307), ((2, 3), 1e-320)])
    def test_hfuzz_conductance_overflow_as_build_network(self, sides,
                                                         r_fuzz):
        # generate_hfuzz skips build_network's validation but keeps this
        # check: on the same triples the same node is named
        base = generate_lattice(len(sides), sides)
        kept = set(base.edges)
        triples = [(i, j, r if (i, j, r) in kept else r_fuzz)
                   for i, j, r in generate_hfuzz(base, 2).edges]
        with pytest.raises(errors.InvalidEdge) as direct:
            generate_hfuzz(base, 2, r_fuzz)
        with pytest.raises(errors.InvalidEdge) as built:
            build_network(base.node_count, triples)
        assert str(direct.value) == str(built.value)


def bfs_distances(net, source):
    adj = [[] for _ in range(net.node_count)]
    for i, j, _ in net.edges:
        adj[i].append(j)
        adj[j].append(i)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestHFuzz:
    def test_h1_identity(self):
        base = generate_lattice(2, 3)
        fuzz = generate_hfuzz(base, 1)
        assert fuzz.edges == base.edges

    def test_path4_h2(self):
        base = generate_lattice(1, 4)
        fuzz = generate_hfuzz(base, 2, 1.0)
        added = set((i, j) for i, j, _ in fuzz.edges) - \
            set((i, j) for i, j, _ in base.edges)
        assert added == {(0, 2), (1, 3)}

    def test_grid_3x3_h2_counts(self):
        base = generate_lattice(2, 3)
        fuzz = generate_hfuzz(base, 2, 1.0)
        # distance-2 pairs: 3 row pairs + 3 column pairs + 8 diagonals
        assert fuzz.edge_count == 12 + 14

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_edge_set_vs_bfs_oracle(self, h):
        # equal to the network that a per-node breadth-first search
        # builds, resistances and all
        rng = np.random.default_rng(h)
        bases = [generate_lattice(1, 12, 0.37), generate_lattice(2, (3, 4)),
                 generate_lattice(3, (2, 3, 4), 2.0)] + [
            random_connected_network(rng, n_max=15, edge_prob=0.2)
            for _ in range(4)]
        for base in bases:
            existing = {(i, j): r for i, j, r in base.edges}
            pairs = [(u, v) for u in range(base.node_count)
                     for v, d in bfs_distances(base, u).items()
                     if 1 <= d <= h and u < v]
            for r_fuzz in (0.5, None):
                new = r_fuzz or max(existing.values())
                expected = build_network(base.node_count, [
                    (u, v, existing.get((u, v), new)) for u, v in pairs])
                assert generate_hfuzz(base, h, r_fuzz) == expected

    def test_existing_resistance_preserved(self):
        base = generate_lattice(1, 4, 2.0)
        fuzz = generate_hfuzz(base, 2, 7.0)
        rs = {(i, j): r for i, j, r in fuzz.edges}
        assert rs[(0, 1)] == 2.0
        assert rs[(0, 2)] == 7.0

    def test_invalid_radius(self):
        with pytest.raises(errors.InvalidSize):
            generate_hfuzz(generate_lattice(1, 4), 0)


class TestLaplacian:
    def test_k2(self, k2):
        assert np.array_equal(laplacian(k2), [[1, -1], [-1, 1]])

    def test_p3(self, p3):
        assert np.array_equal(laplacian(p3),
                              [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_k2_half_ohm(self):
        net = build_network(2, [(0, 1, 0.5)])
        assert np.array_equal(laplacian(net), [[2, -2], [-2, 2]])

    def test_zero_row_sums_and_symmetry(self):
        net = generate_hfuzz(generate_lattice(2, 4, 0.7), 2, 1.3)
        lap = laplacian(net)
        assert np.array_equal(lap, lap.T)
        scale = np.abs(lap).max()
        assert np.abs(lap @ np.ones(net.node_count)).max() <= 1e-12 * scale

    def test_dense_limit(self):
        # a lattice past the limit keeps its analytic spectrum, but no
        # dense n x n matrix: Laplacian, assembled model or R_eff table
        network.require_dense(network.DENSE_MAX_NODES)
        net = generate_lattice(1, network.DENSE_MAX_NODES + 1)
        assert net.spectrum.values.size == net.node_count
        for dense in (laplacian, resistance.reff_matrix,
                      lambda n: systems.assemble_dapi(n, ControllerParams())):
            with pytest.raises(errors.InvalidSize,
                               match=str(network.DENSE_MAX_NODES)):
                dense(net)


class TestReducedLaplacian:
    def test_p3_ground0(self, p3):
        red = reduced_laplacian(laplacian(p3), 0)
        assert np.array_equal(red, [[2, -1], [-1, 1]])

    def test_k2(self, k2):
        assert np.array_equal(reduced_laplacian(laplacian(k2), 0), [[1]])

    def test_p3_ground_middle(self, p3):
        red = reduced_laplacian(laplacian(p3), 1)
        assert np.array_equal(red, [[1, 0], [0, 1]])

    def test_positive_definite(self):
        net = generate_lattice(2, 4)
        red = reduced_laplacian(laplacian(net), 5)
        assert np.linalg.eigvalsh(red).min() > 0

    def test_bad_ground(self, p3):
        with pytest.raises(errors.IndexOutOfRange):
            reduced_laplacian(laplacian(p3), 3)


# every caller of the one index check, with the index as its last argument
INDEX_CALLS = {
    "reduced_laplacian": lambda net, i: reduced_laplacian(laplacian(net), i),
    "h2_closed_form_slack": lambda net, i: systems.h2_closed_form_slack(
        net, ControllerParams(c=1.0), i),
    "assemble_slack": lambda net, i: systems.assemble_slack(
        net, ControllerParams(c=1.0), i).a,
    "effective_resistance": lambda net, i: resistance.effective_resistance(
        net, 0, i),
}


class TestIndexCheck:
    """A node index is an int or numpy integer in [0, n). A float was once
    truncated: ground 1.5 gave ground 1's slack norm, a pair (0, 1.5)
    R(0, 1), and assemble_slack a 5 x 5 A with a 4 x 4 B."""

    @pytest.mark.parametrize("index", [1.5, 1.0, np.float64(1.0), True,
                                       "1", None, -1, 5, np.int64(5)])
    @pytest.mark.parametrize("call", sorted(INDEX_CALLS))
    def test_refused(self, call, index):
        with pytest.raises(errors.IndexOutOfRange):
            INDEX_CALLS[call](generate_lattice(1, 5), index)

    @pytest.mark.parametrize("index", [np.int64(1), np.uint8(1)])
    @pytest.mark.parametrize("call", sorted(INDEX_CALLS))
    def test_numpy_integer_as_int(self, call, index):
        net = generate_lattice(1, 5)
        assert np.array_equal(INDEX_CALLS[call](net, index),
                              INDEX_CALLS[call](net, 1))


class TestSpectrum:
    def test_computed_once_and_shared(self, p3):
        assert p3.spectrum is p3.spectrum

    def test_matches_laplacian(self):
        net = generate_lattice(2, 5, 0.5)
        spec = net.spectrum
        assert spec.values[0] == 0.0 and spec.values[1] > 0.0
        lap = laplacian(net)
        assert np.allclose(spec.values, np.linalg.eigvalsh(lap), atol=1e-12)
        pinv = spec.pinv(np.arange(net.node_count))
        assert np.allclose(lap @ pinv @ lap, lap, atol=1e-12)
        assert np.allclose(pinv.sum(axis=1), 0.0, atol=1e-12)

    def test_read_only(self, p3):
        with pytest.raises(ValueError):
            p3.spectrum.values[1] = 0.0

    def test_equality_ignores_cache(self, p3):
        twin = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
        p3.spectrum
        assert twin == p3 and hash(twin) == hash(p3)


class TestLatticeBox:
    @pytest.mark.parametrize("sides, r", [((2,), 1.0), ((9,), 0.5),
                                          ((3, 5), 2.0), ((2, 3, 4), 0.25)])
    def test_generated_lattice(self, sides, r):
        net = generate_lattice(len(sides), sides, r)
        assert lattice_box(net) == (sides, 1.0 / r)

    def test_hfuzz_radius_one_is_a_lattice(self):
        base = generate_lattice(2, 4)
        assert lattice_box(generate_hfuzz(base, 1)) == ((4, 4), 1.0)

    def test_hfuzz(self):
        assert lattice_box(generate_hfuzz(generate_lattice(2, 4), 2)) is None

    def test_edge_removed(self):
        net = generate_lattice(2, 4)
        assert lattice_box(build_network(16, net.edges[1:])) is None

    def test_edge_reweighted(self):
        net = generate_lattice(3, 3)
        edges = list(net.edges)
        edges[5] = (edges[5][0], edges[5][1], 1.0 + 1e-12)
        assert lattice_box(build_network(27, edges)) is None

    def test_permuted_labels(self):
        # the same graph, but nodes 0 and 1 swap places in the box
        swap = {0: 1, 1: 0}
        edges = [(swap.get(i, i), swap.get(j, j), r)
                 for i, j, r in generate_lattice(2, (3, 4)).edges]
        assert lattice_box(build_network(12, edges)) is None

    @pytest.mark.parametrize("n, pairs", [
        (4, [(0, 1), (0, 2), (0, 3)]),
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        (6, [(0, 1), (1, 2), (2, 3), (4, 5), (0, 3), (1, 4), (2, 5)]),
    ], ids=["star", "4-cycle", "2x3-row-wrapped"])
    def test_other_graphs(self, n, pairs):
        net = build_network(n, [(i, j, 1.0) for i, j in pairs])
        assert lattice_box(net) is None

    @pytest.mark.parametrize("sides", [(6,), (2, 4), (3, 4), (2, 2, 3),
                                       (2, 2, 2, 2)])
    def test_matches_brute_force(self, sides):
        # relabelled and rewired variants of each box against the oracle:
        # a box whose nearest-neighbour pairs are exactly the edges
        rng = np.random.default_rng(len(sides))
        n = int(np.prod(sides))
        pairs = sorted(brute_force_lattice_edges(sides))
        variants = [pairs]
        for _ in range(30):
            perm = rng.permutation(n) if rng.random() < 0.5 else np.arange(n)
            edges = [tuple(sorted((int(perm[i]), int(perm[j]))))
                     for i, j in pairs]
            if rng.random() < 0.7:
                i, j = rng.choice(n, size=2, replace=False)
                edges[rng.integers(len(edges))] = (min(i, j), max(i, j))
            variants.append(edges)
        for edges in variants:
            try:
                net = build_network(n, [(i, j, 1.0) for i, j in edges])
            except (errors.InvalidEdge, errors.DisconnectedGraph):
                continue
            found = lattice_box(net)
            assert (found[0] if found else None) == _reference_box(net)

    @pytest.mark.parametrize("coords", [
        [(1,), (2,), (3,)],
        [(-2,), (-1,), (0,)],
        [(0, 0), (0, 1), (1,)],
        [(), (), ()],
    ], ids=["shifted", "negative", "ragged", "empty"])
    def test_other_coords(self, coords):
        # a JSON file may still hold the "coords" key that generated files
        # once carried; whatever it holds, the edges alone decide
        doc = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]], "coords": coords}
        net = network.from_json_dict(doc)
        assert net == build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert lattice_box(net) == ((3,), 1.0)

    def test_unit_side(self):
        # a side of 1 adds no edge, so a 1 x 3 box is the path (3,)
        net = build_network(3, [(0, 1, 2.0), (1, 2, 2.0)])
        assert lattice_box(net) == ((3,), 0.5)
        assert np.allclose(net.spectrum.values, [0.0, 0.5, 1.5], rtol=0.0,
                           atol=1e-15)

    def test_edge_list_load(self):
        net = generate_lattice(2, 4)
        loaded = network.parse_edge_list(network.format_edge_list(net))
        assert loaded.edges == net.edges
        assert lattice_box(loaded) == lattice_box(net) == ((4, 4), 1.0)

    def test_json_roundtrip(self):
        net = generate_lattice(3, (2, 3, 2), 0.5)
        doc = json.loads(json.dumps(network.to_json_dict(net)))
        back = network.from_json_dict(doc)
        assert lattice_box(back) == lattice_box(net) == ((2, 3, 2), 2.0)


def count_calls(monkeypatch, name):
    """Make ``network.<name>`` append its first argument to a list on every
    call, through ``monkeypatch``; returns that list."""
    calls = []
    func = getattr(network, name)

    def counting(*args):
        calls.append(args[0])
        return func(*args)

    monkeypatch.setattr(network, name, counting)
    return calls


# edges with one distinct gap or two, and the edge count of a box, whose
# smallest gap is not 1: disconnected copies of a box on interleaved nodes
INTERLEAVED_BOXES = {
    "two-stride-2-paths": (4, [(0, 2), (1, 3)]),
    "two-stride-2-grids": (8, [(0, 2), (4, 6), (0, 4), (2, 6),
                               (1, 3), (5, 7), (1, 5), (3, 7)]),
}

BOX_SPECS = [(1, (7,), 0.5), (2, (3, 4), 1.0), (3, (2, 3, 4), 2.0)]


class TestConnectivityByConstruction:
    """The connectivity search runs only on graphs that are neither a box
    lattice nor an h-fuzz, and the box is decided once per network."""

    @pytest.mark.parametrize("case", INTERLEAVED_BOXES)
    def test_interleaved_boxes_are_not_boxes(self, case):
        n, pairs = INTERLEAVED_BOXES[case]
        bare = network.Network(n, np.array(pairs, dtype=np.intp),
                               np.ones(len(pairs)))
        assert lattice_box(bare) is None
        with pytest.raises(errors.DisconnectedGraph):
            build_network(n, [(i, j, 1.0) for i, j in pairs])
        with pytest.raises(errors.DisconnectedGraph):
            network.parse_edge_list("".join(f"{i} {j} 1\n" for i, j in pairs))

    @pytest.mark.parametrize("d, sides, r", BOX_SPECS)
    def test_no_search_on_boxes_and_their_files(self, d, sides, r,
                                                 monkeypatch):
        bfs = count_calls(monkeypatch, "_bfs")
        net = generate_lattice(d, sides, r)
        text = network.format_edge_list(net)
        doc = json.loads(json.dumps(network.to_json_dict(net)))
        assert network.parse_edge_list(text) == net
        assert network.from_json_dict(doc) == net
        assert generate_hfuzz(net, 2).box is None
        assert bfs == []
        assert net.box == (sides, 1.0 / r)

    def test_no_search_on_fuzz_of_other_graphs(self, monkeypatch):
        base = random_connected_network(np.random.default_rng(3), n_min=8)
        bfs = count_calls(monkeypatch, "_bfs")
        for h in (1, 2, 3):
            generate_hfuzz(base, h)
        assert bfs == []

    def test_one_search_on_other_graphs(self, monkeypatch):
        rng = np.random.default_rng(5)
        edges = random_connected_network(rng, n_min=8).edges
        bfs = count_calls(monkeypatch, "_bfs")
        net = build_network(1 + max(j for _, j, _ in edges), edges)
        assert net.box is None and len(bfs) == 1

    def test_one_search_on_rayleigh_perturbation(self, monkeypatch):
        # two triangles joined by the bridge (2, 3): without the bridge
        # there are still n - 1 edges, so only the search can tell
        pairs = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        net = build_network(6, [(i, j, 1.0) for i, j in pairs])
        lattice = generate_lattice(2, 3)
        bfs = count_calls(monkeypatch, "_bfs")
        resistance.rayleigh_check(net, (0, 1))
        assert len(bfs) == 1
        with pytest.raises(errors.DisconnectedGraph, match=r"\(2, 3\)"):
            resistance.rayleigh_check(net, (2, 3))
        assert len(bfs) == 2
        resistance.rayleigh_check(lattice, (0, 1), new_resistance=2.0)
        assert len(bfs) == 3

    def test_box_decided_once_per_network(self, monkeypatch):
        decided = count_calls(monkeypatch, "lattice_box")
        lattice = generate_lattice(2, 4)
        other = build_network(3, [(0, 1, 1.0), (1, 2, 2.0)])
        fuzz = generate_hfuzz(lattice, 2)
        # a generated lattice is built with its box, so it is never tested
        assert decided == [other]
        for net in (lattice, other, fuzz, lattice, other, fuzz):
            net.spectrum
            assert net.box is net.box
        assert decided == [other, fuzz]
        assert lattice.box == ((4, 4), 1.0)

    def test_fuzz_resistance_still_checked(self):
        # positive, so only the edge validation can refuse it
        with pytest.raises(errors.InvalidEdge, match="positive and finite"):
            generate_hfuzz(generate_lattice(2, 3), 2, math.inf)

    def test_fuzz_conductance_overflow(self):
        # the path's degrees pass the check, its 2-fuzz's inner ones do not
        base = generate_lattice(1, 5, 3e-308)
        with pytest.raises(errors.InvalidEdge, match="conductances"):
            generate_hfuzz(base, 2)


def _ordered_factorizations(n):
    """Every tuple of factors >= 2 whose product is n, in every order."""
    if n == 1:
        return [()]
    return [(f,) + rest for f in range(2, n + 1) if n % f == 0
            for rest in _ordered_factorizations(n // f)]


def _reference_box(net):
    """Independent oracle for lattice_box's sides: the box whose
    nearest-neighbour pairs are the network's edges, or None."""
    pairs = {(i, j) for i, j, _ in net.edges}
    for sides in _ordered_factorizations(net.node_count):
        if brute_force_lattice_edges(sides) == pairs:
            return sides
    return None


class TestAnalyticSpectrumConsumers:
    """Every quantity read from a lattice's analytic spectrum equals the
    one from its dense twin, whose spectrum comes from eigh."""

    @pytest.mark.parametrize("d, sides, r", [(1, 7, 0.5), (2, (3, 5), 1.0),
                                             (3, (2, 3, 4), 2.0)])
    def test_matches_eigh_twin(self, d, sides, r, monkeypatch):
        net = generate_lattice(d, sides, r)
        twin, calls = dense_twin(net, monkeypatch)
        assert lattice_box(net) is not None
        assert calls == block_shapes(net.box[0])
        params = ControllerParams(c=0.7, k_p=0.3, k=50.0, gamma=200.0)
        for ground in range(net.node_count):
            assert np.isclose(
                systems.h2_closed_form_slack(net, params, ground),
                systems.h2_closed_form_slack(twin, params, ground),
                rtol=1e-9, atol=0.0)
        for h2 in (systems.h2_closed_form_droop,
                   systems.h2_closed_form_dapi):
            assert np.isclose(h2(net, params), h2(twin, params), rtol=1e-9,
                              atol=0.0)
        reff = resistance.reff_matrix(net)
        assert np.allclose(reff, resistance.reff_matrix(twin), rtol=1e-9,
                           atol=1e-12)
        last = net.node_count - 1
        assert np.isclose(resistance.effective_resistance(net, 0, last),
                          resistance.effective_resistance(twin, 0, last),
                          rtol=1e-9, atol=0.0)
        assert np.isclose(resistance.kstar(net), resistance.kstar(twin),
                          rtol=1e-9, atol=0.0)


class TestSpectrumPinv:
    """Blocks of L^+ from either route against the dense pseudoinverse."""

    @staticmethod
    def _check_blocks(net):
        ref = np.linalg.pinv(laplacian(net))
        n = net.node_count
        rng = np.random.default_rng(n)
        subsets = [[0], [n - 1, 0], rng.choice(n, size=min(n, 5),
                                               replace=False), np.arange(n)]
        for nodes in subsets:
            block = net.spectrum.pinv(nodes)
            expected = ref[np.ix_(nodes, nodes)]
            assert block.shape == (len(nodes), len(nodes))
            assert np.allclose(block, expected, rtol=1e-9,
                               atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("d, sides, r", [
        (1, 2, 1.0), (1, 50, 0.5), (2, (3, 5), 2.0), (2, (12, 12), 1.0),
        (3, (2, 3, 4), 0.25), (3, (5, 5, 5), 1.0)])
    def test_lattice_and_twin(self, d, sides, r, monkeypatch):
        net = generate_lattice(d, sides, r)
        twin, calls = dense_twin(net, monkeypatch)
        assert lattice_box(net) is not None
        assert calls == block_shapes(net.box[0])
        self._check_blocks(net)
        self._check_blocks(twin)

    def test_hfuzz(self):
        net = generate_hfuzz(generate_lattice(2, 9), 2)
        assert lattice_box(net) is None
        self._check_blocks(net)

    def test_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            self._check_blocks(random_connected_network(rng, n_max=40))

    def test_large_resistance_is_connected(self, monkeypatch):
        # lambda_1 = 4 sin^2(pi / 2000) / 1e4 = 2.5e-10: a zero-mode rule
        # scaled by max(1, lambda_max) calls this path disconnected
        net, calls = dense_twin(generate_lattice(1, 1000, 1e4), monkeypatch)
        assert calls == block_shapes((1000,))
        params = ControllerParams(c=1.0)
        slack = systems.h2_closed_form_slack(net, params)
        assert np.isclose(slack, 1e4 * 999 / 4, rtol=1e-9, atol=0.0)
        assert np.isclose(resistance.effective_resistance(net, 0, 999),
                          1e4 * 999, rtol=1e-9, atol=0.0)

    def test_spectrum_makes_no_dense_laplacian(self, monkeypatch):
        # the symmetry blocks are summed from the edges: folded out of a
        # dense L, the spectrum and one L^+ entry peaked at 12.7 MB here
        generate_hfuzz(generate_lattice(2, 4), 2).spectrum.pinv([0])
        net = generate_hfuzz(generate_lattice(2, 32), 2)
        n = net.node_count

        def dense(_):
            raise AssertionError("the spectrum route built a dense L")

        monkeypatch.setattr(network, "laplacian", dense)
        tracemalloc.start()
        try:
            net.spectrum.values
            net.spectrum.pinv([0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


class TestFileFormats:
    def test_edge_list_roundtrip(self, tmp_path):
        net = generate_lattice(1, 4, 1.5)
        text = network.format_edge_list(net)
        assert network.parse_edge_list(text).edges == net.edges
        path = tmp_path / "net.edges"
        path.write_text(text)
        assert network.load_network(path).edges == net.edges

    def test_json_roundtrip(self, tmp_path):
        net = generate_lattice(2, 3, 0.25)
        doc = network.to_json_dict(net)
        back = network.from_json_dict(json.loads(json.dumps(doc)))
        assert back.edges == net.edges and set(doc) == {"n", "edges"}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert network.load_network(path).edges == net.edges
