"""Graphs, weight matrices, Laplacian spectra."""

import json
import math

import numpy as np
import pytest

from dalopt.network import (
    Graph,
    NetworkError,
    NetworkModel,
    WeightMatrix,
    build_chain_graph,
    build_complete_graph,
    build_geometric_graph,
    build_network,
    load_network,
    metropolis_weights,
    save_network,
    scale_weights,
    spectrum,
)


def chain_metropolis_lambda2(n):
    # chain Metropolis gives L = (1/3) * path Laplacian, whose second
    # eigenvalue is 4 sin^2(pi/(2n))
    return (4.0 / 3.0) * math.sin(math.pi / (2 * n)) ** 2


class TestGeometricGraph:
    def test_two_nodes_any_radius_complete(self):
        g, attempts = build_geometric_graph(2, radius=10.0, rng_seed=0)
        assert attempts == 1
        assert (0, 1) in g.edges and (0, 0) in g.edges and (1, 1) in g.edges

    def test_28_link_instance(self):
        g, attempts = build_geometric_graph(10, radius=0.45, rng_seed=668)
        assert attempts == 1
        assert g.link_count == 28
        assert g.is_connected()

    def test_infeasible_radius_raises(self):
        with pytest.raises(NetworkError, match="radius"):
            build_geometric_graph(5, radius=0.01, rng_seed=0, max_attempts=20)

    def test_positions_recorded(self):
        g, _ = build_geometric_graph(4, radius=1.5, rng_seed=1)
        assert g.positions is not None and len(g.positions) == 4


class TestChainGraph:
    def test_two_nodes(self):
        g = build_chain_graph(2)
        assert g.edges == frozenset({(0, 0), (1, 1), (0, 1)})

    def test_four_nodes(self):
        g = build_chain_graph(4)
        links = {e for e in g.edges if e[0] != e[1]}
        assert links == {(0, 1), (1, 2), (2, 3)}

    def test_chain50_lambda2_oracle(self):
        w = metropolis_weights(build_chain_graph(50))
        spec = spectrum(w)
        assert spec.lambda2 == pytest.approx(chain_metropolis_lambda2(50), abs=1e-10)
        # Theta(1/N^2) scaling
        assert 0.1 / 50**2 < spec.lambda2 < 10.0 / 50**2


class TestMetropolisWeights:
    def test_two_node(self):
        w = metropolis_weights(build_chain_graph(2))
        assert np.allclose(w.entries, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_three_node_star(self):
        g = Graph(node_count=3, edges=frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}))
        w = metropolis_weights(g).entries
        assert w[0, 1] == pytest.approx(1 / 3) and w[0, 2] == pytest.approx(1 / 3)
        assert w[0, 0] == pytest.approx(1 / 3)
        assert w[1, 1] == pytest.approx(2 / 3) and w[2, 2] == pytest.approx(2 / 3)
        assert w[1, 2] == 0.0

    def test_row_sums_one(self):
        g, _ = build_geometric_graph(12, radius=0.6, rng_seed=5)
        w = metropolis_weights(g)
        assert np.max(np.abs(w.entries @ np.ones(12) - 1.0)) <= 1e-12


class TestScaleWeights:
    def test_identity_scaling(self):
        w = metropolis_weights(build_chain_graph(3))
        out = scale_weights(w, a=1.0, b=0.0)
        assert np.allclose(out.entries, np.eye(3), atol=1e-15)

    def test_default_scaling_positive_definite(self):
        g, _ = build_geometric_graph(10, radius=0.45, rng_seed=668)
        out = scale_weights(metropolis_weights(g))
        assert np.linalg.eigvalsh(out.entries)[0] > 0.0

    def test_indefinite_rejected(self):
        # 2-node Metropolis has eigenvalues {0, 1}: a=0 keeps the zero mode
        with pytest.raises(NetworkError, match="definite"):
            build_network(build_chain_graph(2), scale=(0.0, 1.0))

    def test_one_eigendecomposition_per_network(self, monkeypatch):
        # positive definiteness is read off the spectrum of L = I - W, so
        # build_network runs eigh once and never eigvalsh
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        g, _ = build_geometric_graph(10, radius=0.45, rng_seed=668)
        build_network(g)
        assert len(calls) == 1
        with pytest.raises(NetworkError, match="definite"):
            build_network(build_chain_graph(2), scale=(0.0, 1.0))

    def test_nonstochastic_scaling_rejected(self):
        w = metropolis_weights(build_chain_graph(3))
        with pytest.raises(NetworkError, match="stochastic"):
            scale_weights(w, a=0.7, b=0.5)


class TestWeightMatrixValidation:
    def test_asymmetric_rejected(self):
        m = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(NetworkError, match="symmetric"):
            WeightMatrix(m)

    def test_bad_row_sum_rejected(self):
        m = np.array([[0.5, 0.4], [0.4, 0.5]])
        with pytest.raises(NetworkError, match="sum"):
            WeightMatrix(m)

    def test_negative_entry_rejected(self):
        m = np.array([[1.2, -0.2], [-0.2, 1.2]])
        with pytest.raises(NetworkError, match="negative"):
            WeightMatrix(m)


class TestSpectrum:
    def test_ideal_consensus_matrix(self):
        n = 4
        spec = spectrum(WeightMatrix(np.full((n, n), 1.0 / n)))
        assert np.allclose(spec.eigvals_reduced, 1.0, atol=1e-12)

    def test_two_node_metropolis(self):
        spec = spectrum(metropolis_weights(build_chain_graph(2)))
        assert spec.eigvals_reduced == pytest.approx([1.0], abs=1e-12)

    def test_chain10_scaled_lambda2_oracle(self):
        net = build_network(build_chain_graph(10))
        expected = 0.45 * chain_metropolis_lambda2(10)
        assert net.lambda2 == pytest.approx(expected, abs=1e-10)

    def test_eigen_invariants(self):
        g, _ = build_geometric_graph(9, radius=0.55, rng_seed=4)
        net = build_network(g)
        spec, w = net.spec, net.weights
        lap, q, lam = spec.laplacian, spec.q_reduced, spec.eigvals_reduced
        assert np.max(np.abs(lap @ q - q * lam)) <= 1e-10
        assert np.max(np.abs(q.T @ np.ones(9))) <= 1e-10
        assert np.max(np.abs(q.T @ q - np.eye(8))) <= 1e-10
        w_eigs = np.linalg.eigvalsh(w.entries)
        assert spec.lambda2 + w_eigs[-2] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(lap @ np.ones(9))) <= 1e-12

    def test_degenerate_lambda2_rejected(self):
        # block-diagonal (disconnected) stochastic matrix
        m = np.zeros((4, 4))
        m[:2, :2] = 0.5
        m[2:, 2:] = 0.5
        with pytest.raises(NetworkError, match="lambda_2"):
            spectrum(WeightMatrix(m))

    def test_edge_removal_never_increases_lambda2(self):
        g = build_complete_graph(5)
        base = build_network(g).lambda2
        for edge in [(0, 1), (1, 2), (2, 3)]:
            g2 = Graph(node_count=5, edges=frozenset(set(g.edges) - {edge}))
            assert build_network(g2).lambda2 <= base + 1e-10


class TestGraphValidation:
    def test_disconnected_rejected(self):
        g = Graph(node_count=4, edges=frozenset({(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 3)}))
        with pytest.raises(NetworkError, match="disconnected"):
            build_network(g)

    def test_missing_self_loop_rejected(self):
        g = Graph(node_count=2, edges=frozenset({(0, 0), (0, 1)}))
        with pytest.raises(NetworkError, match="self-loop"):
            build_network(g)


class TestNetworkModel:
    def test_w_of_another_size_rejected(self):
        complete = build_network(build_complete_graph(4))
        with pytest.raises(NetworkError, match="W is 4 x 4 but the graph has 3 nodes"):
            NetworkModel(graph=build_chain_graph(3), weights=complete.weights,
                         spec=complete.spec)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g, _ = build_geometric_graph(7, radius=0.7, rng_seed=2)
        net = build_network(g, meta={"seed": 2})
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.graph.edges == net.graph.edges
        assert np.allclose(loaded.weights.entries, net.weights.entries, atol=0)
        assert loaded.lambda2 == pytest.approx(net.lambda2, abs=1e-14)
        assert loaded.meta == {"seed": 2}


    @pytest.mark.parametrize("make", [
        lambda: build_network(build_chain_graph(6), meta={"type": "chain"}),
        lambda: build_network(build_complete_graph(4)),
        lambda: build_network(build_geometric_graph(9, radius=0.6, rng_seed=4)[0],
                              meta={"radius": 0.6, "seed": 4}),
        lambda: NetworkModel(graph=Graph(node_count=1, edges=frozenset({(0, 0)})),
                             weights=WeightMatrix(np.ones((1, 1))), spec=None),
    ], ids=["chain", "complete", "geometric", "single_node"])
    def test_same_bytes_as_json_dump(self, tmp_path, make):
        net = make()
        path = tmp_path / "net.json"
        save_network(net, path)
        doc = {
            "node_count": net.node_count,
            "positions": net.graph.positions,
            "edges": sorted(list(e) for e in net.graph.edges),
            "weights": net.weights.entries.tolist(),
            "meta": net.meta,
        }
        with open(tmp_path / "dump.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()


def metropolis_oracle(g):
    """Per-edge Metropolis rule, one Python step per edge and per row."""
    n = g.node_count
    hoods = [{i} for i in range(n)]
    for i, j in g.edges:
        hoods[i].add(j)
        hoods[j].add(i)
    deg = [len(h) - 1 for h in hoods]
    w = np.zeros((n, n))
    for i, j in g.edges:
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


def star_graph(n):
    edges = {(i, i) for i in range(n)} | {(0, i) for i in range(1, n)}
    return Graph(node_count=n, edges=frozenset(edges))


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
        assert np.array_equal(metropolis_weights(g).entries, metropolis_oracle(g))

    @pytest.mark.parametrize("radius", [0.2, 0.45, 1.5])
    @pytest.mark.parametrize("n, seed", [(12, 0), (12, 5), (40, 1), (40, 8)])
    def test_geometric_matches_pairwise_norms(self, n, seed, radius):
        expected = geometric_oracle(n, radius, seed)
        if expected is None:
            with pytest.raises(NetworkError, match="radius"):
                build_geometric_graph(n, radius=radius, rng_seed=seed)
            return
        g, attempts = build_geometric_graph(n, radius=radius, rng_seed=seed)
        assert (g.edges, attempts) == expected

    @pytest.mark.parametrize("name", ["star10", "geometric50_s3", "chain2", "complete10"])
    def test_degree_links_and_neighborhoods_follow_the_edges(self, name):
        g = ORACLE_GRAPHS[name]
        n = g.node_count
        links = {e for e in g.edges if e[0] != e[1]}
        assert g.link_count == len(links)
        for i in range(n):
            hood = {i} | {b for a, b in links if a == i} | {a for a, b in links if b == i}
            assert np.flatnonzero(g.adjacency[i]).tolist() == sorted(hood)
        with pytest.raises(ValueError):
            g.adjacency[0, 0] = False

    @pytest.mark.parametrize("edge", [(0, 5), (-1, 0), (2, 1)])
    def test_bad_edge_is_a_network_error(self, edge):
        edges = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), edge}
        g = Graph(node_count=3, edges=frozenset(edges))
        with pytest.raises(NetworkError, match="out of range or unordered"):
            metropolis_weights(g)
        with pytest.raises(NetworkError, match="out of range or unordered"):
            build_network(g)
