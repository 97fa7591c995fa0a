"""Graphs, weight matrices, Laplacian spectra."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from dalopt.almethods import AlgorithmConfig, run_variant
from dalopt.harness import generate_logistic_data
from dalopt.network import (
    Graph,
    NetworkError,
    NetworkModel,
    build_chain_graph,
    build_complete_graph,
    build_geometric_graph,
    build_network,
    load_network,
    metropolis_weights,
    save_network,
    spectrum,
)


def edge_set(g):
    """The graph's pairs (i, j), i <= j, read one adjacency entry at a time."""
    n = g.node_count
    return {(i, j) for i in range(n) for j in range(i, n) if g.adjacency[i, j]}


def chain_metropolis_lambda2(n):
    # chain Metropolis gives L = (1/3) * path Laplacian, whose second
    # eigenvalue is 4 sin^2(pi/(2n))
    return (4.0 / 3.0) * math.sin(math.pi / (2 * n)) ** 2


class TestGeometricGraph:
    def test_two_nodes_any_radius_complete(self):
        g, attempts = build_geometric_graph(2, radius=10.0, rng_seed=0)
        assert attempts == 1
        assert g.adjacency.all()

    def test_28_link_instance(self):
        g, attempts = build_geometric_graph(10, radius=0.45, rng_seed=668)
        assert attempts == 1
        assert g.link_count == 28

    def test_infeasible_radius_raises(self):
        with pytest.raises(NetworkError, match="radius"):
            build_geometric_graph(5, radius=0.01, rng_seed=0)

    def test_positions_recorded(self):
        g, _ = build_geometric_graph(4, radius=1.5, rng_seed=1)
        assert g.positions is not None and len(g.positions) == 4


class TestChainGraph:
    def test_two_nodes(self):
        g = build_chain_graph(2)
        assert edge_set(g) == {(0, 0), (1, 1), (0, 1)}

    def test_four_nodes(self):
        g = build_chain_graph(4)
        links = {e for e in edge_set(g) if e[0] != e[1]}
        assert links == {(0, 1), (1, 2), (2, 3)}

    def test_chain50_lambda2_oracle(self):
        g = build_chain_graph(50)
        net = NetworkModel(graph=g, weights=metropolis_weights(g))
        assert net.lambda2 == pytest.approx(chain_metropolis_lambda2(50), abs=1e-10)
        # Theta(1/N^2) scaling
        assert 0.1 / 50**2 < net.lambda2 < 10.0 / 50**2


class TestMetropolisWeights:
    def test_two_node(self):
        w = metropolis_weights(build_chain_graph(2))
        assert np.allclose(w, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_three_node_star(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        w = metropolis_weights(g)
        assert w[0, 1] == pytest.approx(1 / 3) and w[0, 2] == pytest.approx(1 / 3)
        assert w[0, 0] == pytest.approx(1 / 3)
        assert w[1, 1] == pytest.approx(2 / 3) and w[2, 2] == pytest.approx(2 / 3)
        assert w[1, 2] == 0.0

    def test_row_sums_one(self):
        g, _ = build_geometric_graph(12, radius=0.6, rng_seed=5)
        w = metropolis_weights(g)
        assert np.max(np.abs(w @ np.ones(12) - 1.0)) <= 1e-12


class TestScaleWeights:
    """build_network's W = 0.55 I + 0.45 M, M the Metropolis weights."""

    def test_default_scaling_positive_definite(self):
        g, _ = build_geometric_graph(10, radius=0.45, rng_seed=668)
        w = build_network(g).weights
        m = metropolis_weights(g)
        assert np.array_equal(w, 1.1 / 2.0 * np.eye(10) + 0.9 / 2.0 * m)
        assert np.linalg.eigvalsh(w)[0] > 0.0

    @pytest.mark.parametrize("graph", [
        build_chain_graph(2), build_chain_graph(30), build_complete_graph(2),
        build_complete_graph(25), build_geometric_graph(40, radius=0.3, rng_seed=1)[0],
        build_geometric_graph(60, radius=1.5, rng_seed=2)[0],
    ], ids=["chain2", "chain30", "complete2", "complete25", "geometric40", "geometric60"])
    def test_smallest_eigenvalue_at_least_a_tenth(self, graph):
        # M has its eigenvalues in [-1, 1], so W has them in [0.1, 1]
        assert np.linalg.eigvalsh(build_network(graph).weights)[0] >= 0.1 - 1e-12

    def test_one_eigendecomposition_per_network(self, monkeypatch):
        # build_network runs eigh once, for the spectrum, and never eigvalsh
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        g, _ = build_geometric_graph(10, radius=0.45, rng_seed=668)
        build_network(g)
        assert len(calls) == 1


class TestWeightValidation:
    """A NetworkModel checks its W before it computes the spectrum."""

    def test_asymmetric_rejected(self):
        m = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(NetworkError, match="weight matrix not symmetric"):
            NetworkModel(graph=build_complete_graph(2), weights=m)

    def test_bad_row_sum_rejected(self):
        m = np.array([[0.5, 0.4], [0.4, 0.5]])
        with pytest.raises(NetworkError, match="weight matrix rows do not sum to 1"):
            NetworkModel(graph=build_complete_graph(2), weights=m)

    def test_negative_entry_rejected(self):
        m = np.array([[1.2, -0.2], [-0.2, 1.2]])
        with pytest.raises(NetworkError, match="weight matrix has negative entries"):
            NetworkModel(graph=build_complete_graph(2), weights=m)

    @pytest.mark.parametrize("weights", [np.ones((2, 3)) / 3, np.ones(3) / 3, np.array(1.0)],
                             ids=["2x3", "vector", "scalar"])
    def test_non_square_rejected(self, weights):
        with pytest.raises(NetworkError, match="weight matrix must be square"):
            NetworkModel(graph=build_complete_graph(3), weights=weights)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_non_finite_rejected(self, value, at):
        # each NaN comparison is False, so a NaN would pass every other check
        w = build_network(build_complete_graph(3)).weights.copy()
        w[at] = w[at[::-1]] = value
        with pytest.raises(NetworkError, match="weight matrix has non-finite entries"):
            NetworkModel(graph=build_complete_graph(3), weights=w)

    @pytest.mark.parametrize("weights", [[["a", 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5]],
                                         [[None, 0.5], [0.5, 0.5]], [[True, False], [False, True]],
                                         [[2**70, 0], [0, 1]], [[0.0, True], [True, 0.0]]],
                             ids=["string", "ragged", "none", "bool", "past_int64",
                                  "bool_beside_numbers"])
    def test_not_real_numbers_rejected(self, weights):
        with pytest.raises(NetworkError, match="weights must be equal-length rows of real numbers"):
            NetworkModel(graph=build_complete_graph(2), weights=weights)

    def test_integer_entries_are_read_as_floats(self):
        net = NetworkModel(graph=build_complete_graph(2), weights=[[0, 1], [1, 0]])
        assert net.weights.dtype == np.float64 and net.lambda2 == pytest.approx(2.0, abs=1e-12)


class TestSpectrum:
    def test_ideal_consensus_matrix(self):
        n = 4
        eigvals, q = spectrum(np.full((n, n), 1.0 / n))
        assert np.allclose(eigvals, 1.0, atol=1e-12)
        assert q.shape == (n, n - 1)

    def test_two_node_metropolis(self):
        eigvals, _ = spectrum(metropolis_weights(build_chain_graph(2)))
        assert eigvals == pytest.approx([1.0], abs=1e-12)

    def test_chain10_scaled_lambda2_oracle(self):
        net = build_network(build_chain_graph(10))
        expected = 0.45 * chain_metropolis_lambda2(10)
        assert net.lambda2 == pytest.approx(expected, abs=1e-10)

    def test_eigen_invariants(self):
        g, _ = build_geometric_graph(9, radius=0.55, rng_seed=4)
        net = build_network(g)
        lap, q, lam = np.eye(9) - net.weights, net.q_reduced, net.eigvals_reduced
        assert np.max(np.abs(lap @ q - q * lam)) <= 1e-10
        assert np.max(np.abs(q.T @ np.ones(9))) <= 1e-10
        assert np.max(np.abs(q.T @ q - np.eye(8))) <= 1e-10
        w_eigs = np.linalg.eigvalsh(net.weights)
        assert net.lambda2 + w_eigs[-2] == pytest.approx(1.0, abs=1e-12)
        assert net.lambda_max + w_eigs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(lap @ np.ones(9))) <= 1e-12

    @pytest.mark.parametrize("graph", [
        lambda: build_chain_graph(7),
        lambda: build_complete_graph(6),
        lambda: build_geometric_graph(30, radius=0.4, rng_seed=1)[0],
        lambda: build_geometric_graph(200, radius=0.45, rng_seed=2)[0],  # dense_n200's
    ], ids=["chain", "complete", "geometric", "dense_n200"])
    def test_is_eigh_of_eye_minus_w_bit_for_bit(self, graph):
        # spectrum forms L without np.eye; -0.0 off the links (as from
        # np.negative) would move eigh's output bits
        w = build_network(graph()).weights
        vals, vecs = np.linalg.eigh(np.eye(len(w)) - w)
        eigvals, q = spectrum(w)
        assert np.array_equal(eigvals, vals[1:]) and np.array_equal(q, vecs[:, 1:])

    def test_degenerate_lambda2_rejected(self):
        # block-diagonal (disconnected) stochastic matrix on a connected graph
        m = np.zeros((4, 4))
        m[:2, :2] = 0.5
        m[2:, 2:] = 0.5
        with pytest.raises(NetworkError, match="lambda_2 = .* <= tol; graph degenerate"):
            NetworkModel(graph=build_complete_graph(4), weights=m)
        with pytest.raises(NetworkError, match="lambda_2"):
            spectrum(m)

    def test_edge_removal_never_increases_lambda2(self):
        g = build_complete_graph(5)
        base = build_network(g).lambda2
        for i, j in [(0, 1), (1, 2), (2, 3)]:
            adj = g.adjacency.copy()
            adj[i, j] = adj[j, i] = False
            assert build_network(Graph(adj)).lambda2 <= base + 1e-10


class TestGraphValidation:
    """Every Graph is valid: a bad one fails when it is made."""

    def test_disconnected_rejected(self):
        with pytest.raises(NetworkError, match="disconnected"):
            Graph.from_edges(4, [(0, 1), (2, 3)])

    def test_missing_self_loop_rejected(self):
        with pytest.raises(NetworkError, match="missing self-loop at node 1"):
            Graph(np.array([[True, True], [True, False]]))

    def test_single_node_rejected(self):
        with pytest.raises(NetworkError, match="graph needs at least 2 nodes"):
            Graph(np.ones((1, 1), dtype=bool))

    @pytest.mark.parametrize("adjacency", [np.ones((2, 3), dtype=bool), np.ones(4, dtype=bool),
                                           np.array(True)], ids=["2x3", "vector", "scalar"])
    def test_non_square_adjacency_rejected(self, adjacency):
        with pytest.raises(NetworkError, match="adjacency must be square"):
            Graph(adjacency)

    def test_asymmetric_adjacency_rejected(self):
        adj = np.eye(3, dtype=bool)
        adj[0, 1] = adj[1, 2] = adj[2, 1] = True
        with pytest.raises(NetworkError, match="adjacency not symmetric"):
            Graph(adj)

    @pytest.mark.parametrize("positions, message", [
        (((0.0, 0.0),) * 2, "positions must be one (x, y) per node: 2 for 3 nodes"),
        (((0.0, 0.0),) * 4, "positions must be one (x, y) per node: 4 for 3 nodes"),
        (((0.0, 0.0), (1.0,), (0.5, 0.5)), "positions[1] = (1.0,) is not two real numbers"),
        (5, "positions must be a list of (x, y), not int"),
        (False, "positions must be a list of (x, y), not bool"),
        ("", "positions must be a list of (x, y), not str"),
        ({}, "positions must be a list of (x, y), not dict"),
        ([], "positions must be one (x, y) per node: 0 for 3 nodes"),
        ([(0.0, 0.0), ("a", 0.0), (1.0, 1.0)], "positions[1] = ('a', 0.0) is not two real"),
        ([(0.0, 0.0), (1.0, 1.0), [0.5, None]], "positions[2] = [0.5, None] is not two real"),
        ([[0.0, [1.0]], (1.0, 1.0), (0.5, 0.5)], "positions[0] = [0.0, [1.0]] is not two real"),
        ([(0.0, 0.0), (True, 1.0), (0.5, 0.5)], "positions[1] = (True, 1.0) is not two real"),
        ([(0.0, 0.0), 5, (0.5, 0.5)], "positions[1] = 5 is not two real numbers"),
        ([(0.0, 0.0), (np.nan, 1.0), (0.5, 0.5)], "positions[1] = (nan, 1.0) is not two real"),
        ([(0.0, -np.inf), (1.0, 1.0), (0.5, 0.5)], "positions[0] = (0.0, -inf) is not two real"),
    ], ids=["too_few", "too_many", "not_a_pair", "int", "bool", "empty_string", "object",
            "empty_list", "string_coordinate", "none_coordinate", "list_coordinate",
            "bool_coordinate", "int_point", "nan_coordinate", "infinite_coordinate"])
    def test_positions_not_one_pair_per_node_rejected(self, positions, message):
        with pytest.raises(NetworkError, match=re.escape(message)):
            Graph(np.ones((3, 3), dtype=bool), positions=positions)

    @pytest.mark.parametrize("build", [build_chain_graph, build_complete_graph,
                                       lambda n: build_geometric_graph(n)[0],
                                       lambda n: Graph.from_edges(n, [(0, 0)])],
                             ids=["chain", "complete", "geometric", "from_edges"])
    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_builders_need_two_nodes(self, build, n):
        with pytest.raises(NetworkError, match="graph needs at least 2 nodes"):
            build(n)

    @pytest.mark.parametrize("edge, shown", [((0.5, 1), r"\(0\.5,1\)"),
                                             ((0, 2.0), r"\(0,2\.0\)"),
                                             (("0", "2"), r"\(0,2\)"),
                                             ((None, 1), r"\(None,1\)")],
                             ids=["fraction", "float", "string", "none"])
    def test_non_integer_node_id_rejected(self, edge, shown):
        # a fractional id would otherwise be cast to an array index: 0.5 -> 0
        with pytest.raises(NetworkError, match=shown + " does not join two integer node ids"):
            Graph.from_edges(3, [(0, 1), (1, 2), edge])

    @pytest.mark.parametrize("edge, shown", [((False, True), r"\(False,True\)"),
                                             ((np.False_, 1), r"\(False,1\)")],
                             ids=["bool", "numpy_bool"])
    def test_boolean_node_id_rejected(self, edge, shown):
        # an int64 array reads False, True as 0, 1
        with pytest.raises(NetworkError, match=shown + " does not join two integer node ids"):
            Graph.from_edges(3, [(1, 2), edge])

    @pytest.mark.parametrize("edge", [(0, 2**63), (0, 2**70), (-2**64, 1)])
    def test_id_past_int64_is_out_of_range(self, edge):
        with pytest.raises(NetworkError, match=r"\) out of range$"):
            Graph.from_edges(3, [(0, 1), (1, 2), edge])

    @pytest.mark.parametrize("pair", [[1], [0, 1, 2], (), 5, "01"])
    def test_edge_not_a_pair_rejected(self, pair):
        message = f"edge {pair!r} is not a pair of node ids"
        with pytest.raises(NetworkError, match=re.escape(message)):
            Graph.from_edges(3, [(0, 1), pair, (1, 2)])

    def test_numpy_integer_ids(self):
        pairs = [(np.int64(i), np.int32(i)) for i in range(3)] + [(0, 1), (np.int64(1), 2)]
        g = Graph.from_edges(3, pairs)
        assert g.link_count == 2 and g.adjacency[1, 2]

    def test_a_pair_in_either_order_is_one_link(self):
        # (j, i) is the link (i, j); a repeated pair or a self-loop adds nothing
        g = Graph.from_edges(4, [(1, 0), (2, 1), (1, 2), (3, 2), (3, 3)])
        assert np.array_equal(g.adjacency, build_chain_graph(4).adjacency)

class TestNetworkModel:
    def test_w_of_another_size_rejected(self):
        complete = build_network(build_complete_graph(4))
        with pytest.raises(NetworkError, match="W is 4 x 4 but the graph has 3 nodes"):
            NetworkModel(graph=build_chain_graph(3), weights=complete.weights)

    def test_spectrum_is_that_of_its_w(self):
        # W moved off build_network's scaling: the spectrum follows W
        net = build_network(build_complete_graph(4))
        w = 0.5 * net.weights + 0.5 * np.eye(4)
        model = NetworkModel(graph=net.graph, weights=w)
        oracle, _ = spectrum(w)
        assert np.array_equal(model.eigvals_reduced, oracle)
        x = np.random.default_rng(0).standard_normal(12)
        assert np.array_equal(model.laplacian_apply(x, 3),
                              ((np.eye(4) - w) @ x.reshape(4, 3)).reshape(-1))
        assert model.lambda2 == pytest.approx(net.lambda2 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["weights", "eigvals_reduced", "q_reduced"])
    def test_arrays_are_read_only(self, name):
        # a write would leave lambda2 describing another W
        array = getattr(build_network(build_chain_graph(4)), name)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 7.0

    def test_w_is_a_private_copy(self):
        w = build_network(build_chain_graph(4)).weights.copy()
        net = NetworkModel(graph=build_chain_graph(4), weights=w)
        w[0, 0] = 7.0
        assert net.weights[0, 0] != 7.0 and w.flags.writeable

    def test_build_network_hands_its_w_over(self):
        # a read-only float64 array that owns its data is held, not copied
        w = build_network(build_chain_graph(4)).weights
        assert w.flags.owndata and not w.flags.writeable
        w = w.copy()
        w.flags.writeable = False
        assert NetworkModel(graph=build_chain_graph(4), weights=w).weights is w

    @pytest.mark.parametrize("read_only, handed", [
        (False, lambda w: w),
        (True, lambda w: w[:]),
        (True, lambda w: w.astype(np.int64)),
        (True, lambda w: w.astype(">f8")),
        (False, lambda w: w.tolist()),
    ], ids=["writable", "view_of_writable_base", "int", "byte_swapped", "list"])
    def test_any_other_w_is_copied(self, read_only, handed):
        weights = handed(np.array([[0.0, 1.0], [1.0, 0.0]]))
        if read_only:
            weights.flags.writeable = False  # a view's base stays writable
        net = NetworkModel(graph=build_complete_graph(2), weights=weights)
        assert net.weights is not weights and not np.shares_memory(net.weights, weights)
        assert net.weights.dtype == np.float64 and net.weights.flags.owndata


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g, _ = build_geometric_graph(7, radius=0.7, rng_seed=2)
        net = build_network(g, meta={"seed": 2})
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        assert np.array_equal(loaded.graph.adjacency, net.graph.adjacency)
        assert loaded.graph.positions == net.graph.positions
        assert np.array_equal(loaded.weights, net.weights)
        assert loaded.lambda2 == pytest.approx(net.lambda2, abs=1e-14)
        assert loaded.meta == {"seed": 2}


    @staticmethod
    def negative_zeros(net):
        """net with W's zeros above the diagonal stored as -0.0: each row
        then holds 0.0, -0.0 and repeated weights."""
        w = net.weights.copy()
        w[np.triu(w == 0.0)] = -0.0
        assert np.signbit(w).any() and (np.signbit(w) & (w == 0.0)).sum() < (w == 0.0).sum()
        return NetworkModel(graph=net.graph, weights=w, meta=net.meta)

    @pytest.mark.parametrize("make", [
        lambda: build_network(build_chain_graph(6), meta={"type": "chain"}),
        lambda: build_network(build_complete_graph(4)),
        lambda: build_network(build_geometric_graph(9, radius=0.6, rng_seed=4)[0],
                              meta={"radius": 0.6, "seed": 4}),
        lambda: TestSerialization.negative_zeros(build_network(build_chain_graph(6))),
    ], ids=["chain", "complete", "geometric", "negative_zeros"])
    def test_same_bytes_as_json_dump(self, tmp_path, make):
        net = make()
        path = tmp_path / "net.json"
        save_network(net, path)
        doc = {
            "node_count": net.node_count,
            "positions": net.graph.positions,
            "edges": sorted(list(e) for e in edge_set(net.graph)),
            "weights": net.weights.tolist(),
            "meta": net.meta,
        }
        with open(tmp_path / "dump.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()


def metropolis_oracle(g):
    """Per-edge Metropolis rule, one Python step per edge and per row."""
    n = g.node_count
    hoods = [{i} for i in range(n)]
    for i, j in edge_set(g):
        hoods[i].add(j)
        hoods[j].add(i)
    deg = [len(h) - 1 for h in hoods]
    w = np.zeros((n, n))
    for i, j in edge_set(g):
        if i != j:
            w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        w[i, i] = 1.0 - np.sum(w[i])
    return w


def geometric_oracle(n, radius, rng_seed, max_attempts=100):
    """(edge set, attempts) of the pairwise-norm geometric graph, or None
    when no draw is connected."""
    radius = min(radius, np.sqrt(2.0) + 1e-9)
    for attempt in range(max_attempts):
        pts = np.random.default_rng(rng_seed + attempt).uniform(0.0, 1.0, size=(n, 2))
        edges = {(i, i) for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                if np.linalg.norm(pts[i] - pts[j]) < radius:
                    edges.add((i, j))
        hoods = [set() for _ in range(n)]
        for i, j in edges:
            hoods[i].add(j)
            hoods[j].add(i)
        seen, todo = {0}, [0]
        while todo:
            for j in hoods[todo.pop()] - seen:
                seen.add(j)
                todo.append(j)
        if len(seen) == n:
            return frozenset(edges), attempt + 1
    return None


def geometric_by_norm(n, radius, rng_seed, max_attempts=100):
    """build_geometric_graph as it was, distances from np.linalg.norm over all
    pairs: (edges, positions, attempts), or None when no draw is connected."""
    radius = min(radius, np.sqrt(2.0) + 1e-9)
    for attempt in range(max_attempts):
        pts = np.random.default_rng(rng_seed + attempt).uniform(0.0, 1.0, size=(n, 2))
        close = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1) < radius
        seen = np.eye(n, dtype=bool)[0]
        for _ in range(n):
            seen = seen | close[seen].any(axis=0)
        if seen.all():
            i, j = np.nonzero(np.triu(close, 1))
            edges = {(k, k) for k in range(n)} | set(zip(i.tolist(), j.tolist()))
            return frozenset(edges), tuple(map(tuple, pts)), attempt + 1
    return None


# (n, radius, seeds): seed 2 of (40, 0.2) is connected on its 9th draw,
# seed 9 of (12, 0.45) on its 3rd; (12, 0.2) never is
GEOMETRIC_GRID = [(n, radius, seed) for n, radius, seeds in [
    (2, 0.3, (0, 1)), (12, 0.45, (0, 5, 9)), (12, 0.2, (0,)), (40, 0.2, (0, 2, 3)),
    (40, 0.3, (8,)), (200, 0.12, (0, 8)), (200, 0.45, (2,)), (60, 1.5, (4,))]
    for seed in seeds]


def star_graph(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def oracle_graphs():
    for n in (2, 10, 50, 200):
        yield f"chain{n}", build_chain_graph(n)
        yield f"complete{n}", build_complete_graph(n)
        yield f"star{n}", star_graph(n)
        for seed in (0, 3, 17):
            yield f"geometric{n}_s{seed}", build_geometric_graph(n, 1.5 if n == 2 else 0.45,
                                                                 rng_seed=seed)[0]


ORACLE_GRAPHS = dict(oracle_graphs())


class TestNetworkOracles:
    """The array forms of the graph and the weights against per-edge loops."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_metropolis_matches_per_edge_loop(self, name):
        g = ORACLE_GRAPHS[name]
        assert np.array_equal(metropolis_weights(g), metropolis_oracle(g))

    @pytest.mark.parametrize("radius", [0.2, 0.45, 1.5])
    @pytest.mark.parametrize("n, seed", [(12, 0), (12, 5), (40, 1), (40, 8)])
    def test_geometric_matches_pairwise_norms(self, n, seed, radius):
        expected = geometric_oracle(n, radius, seed)
        if expected is None:
            with pytest.raises(NetworkError, match="radius"):
                build_geometric_graph(n, radius=radius, rng_seed=seed)
            return
        g, attempts = build_geometric_graph(n, radius=radius, rng_seed=seed)
        assert (edge_set(g), attempts) == expected

    @pytest.mark.parametrize("n, radius, seed", GEOMETRIC_GRID)
    def test_geometric_matches_the_norm_builder(self, n, radius, seed):
        expected = geometric_by_norm(n, radius, seed)
        if expected is None:
            with pytest.raises(NetworkError, match="radius"):
                build_geometric_graph(n, radius=radius, rng_seed=seed)
            return
        g, attempts = build_geometric_graph(n, radius=radius, rng_seed=seed)
        assert (edge_set(g), g.positions, attempts) == expected

    def test_geometric_grid_has_redraws(self):
        attempts = [geometric_by_norm(*case) for case in GEOMETRIC_GRID]
        assert None in attempts
        assert max(a[2] for a in attempts if a) == 9

    @pytest.mark.parametrize("name", ["star10", "geometric50_s3", "chain2", "complete10"])
    def test_degree_links_and_neighborhoods_follow_the_edges(self, name):
        links = {e for e in edge_set(ORACLE_GRAPHS[name]) if e[0] != e[1]}
        n = ORACLE_GRAPHS[name].node_count
        g = Graph.from_edges(n, sorted(links))
        assert g.link_count == len(links)
        for i in range(n):
            hood = {i} | {b for a, b in links if a == i} | {a for a, b in links if b == i}
            assert np.flatnonzero(g.adjacency[i]).tolist() == sorted(hood)
        with pytest.raises(ValueError):
            g.adjacency[0, 0] = False

    @pytest.mark.parametrize("edge", [(0, 5), (-1, 0)])
    def test_bad_edge_is_a_network_error(self, edge):
        with pytest.raises(NetworkError, match=r"edge \(%d,%d\) out of range$" % edge):
            Graph.from_edges(3, [(0, 1), (1, 2), edge])


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes, after one untraced warm-up
    call (lazy imports and first-call caches)."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuildMemory:
    """A run holds one copy of each N x N array: the geometric builder sums
    its squared distances in place, a network does not keep L and takes
    build_network's W without a copy, save_network writes its edges one
    node row at a time, and the Gauss-Seidel ticks form rho W's rows from
    W's."""

    def test_geometric_builder_peak(self):
        n = 400
        radius = 1.5 * math.sqrt(math.log(n) / n)
        peak = traced_peak(lambda: build_geometric_graph(n, radius=radius))
        # two N x N floats and the booleans: 2.13 arrays of floats
        assert peak < 2.5 * n * n * 8

    def test_network_step_peak(self):
        # 3.00 N x N arrays of floats; 4.00 while the model copied
        # build_network's W and decomposed the copy
        n = 400
        graph, _ = build_geometric_graph(n, radius=1.5 * math.sqrt(math.log(n) / n))
        assert traced_peak(lambda: build_network(graph)) < 3.5 * n * n * 8

    def test_save_network_peak_does_not_grow_with_the_links(self, tmp_path):
        # at N=200 the chain has 199 links and the complete graph 19,900;
        # their peaks differed by 4.8 N x N floats when the edges were one
        # string. The sorted bit patterns and their bools are 1.30 arrays of
        # floats; 2.20 while they stayed alive beside the text codes
        n = 200
        nets = [build_network(build_chain_graph(n)), build_network(build_complete_graph(n))]
        chain, complete = (traced_peak(lambda: save_network(net, tmp_path / "net.json"))
                           for net in nets)
        assert abs(complete - chain) < 0.1 * n * n * 8
        assert chain < 1.6 * n * n * 8

    def test_gauss_seidel_run_holds_no_copy_of_rho_w(self):
        # 0.36 N x N floats at N=400; 1.40 with rho W's rows copied per run
        n = 400
        graph, _ = build_geometric_graph(n, radius=1.5 * math.sqrt(math.log(n) / n), rng_seed=2)
        net, stack = build_network(graph), generate_logistic_data(n, 2, reg=0.5, seed=1)
        cfg = AlgorithmConfig(variant="rand_gauss_seidel", alpha=0.1, rho=1.0, tau=1, seed=3)
        assert traced_peak(lambda: run_variant(stack, net, cfg, 2)) < n * n * 8

    def test_model_holds_no_other_square_float_array(self):
        n = 60
        net = build_network(build_geometric_graph(n, radius=0.35, rng_seed=1)[0])
        held = {name for part in (net, net.graph) for name, value in vars(part).items()
                if isinstance(value, np.ndarray) and value.dtype.kind == "f"
                and value.size >= n * (n - 1)}
        assert held == {"weights", "q_reduced"}
