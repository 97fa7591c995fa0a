"""Communication graphs, weight matrices, and Laplacian spectral objects.

All downstream algorithm and rate computations consume the objects built
here: an undirected connected graph with self-loops, a symmetric stochastic
weight matrix W, and the eigendecomposition of the weighted Laplacian
L = I - W.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "WeightMatrix",
    "LaplacianSpectrum",
    "NetworkModel",
    "NetworkError",
    "build_geometric_graph",
    "build_chain_graph",
    "build_complete_graph",
    "metropolis_weights",
    "scale_weights",
    "spectrum",
    "build_network",
    "save_network",
    "load_network",
]

SYMMETRY_TOL = 1e-12
STOCHASTIC_TOL = 1e-12
LAMBDA2_TOL = 1e-12


class NetworkError(ValueError):
    """Invalid graph or weight-matrix construction."""


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph with explicit self-loops.

    ``edges`` holds unordered pairs (i, j) with i <= j, including every
    self-loop (i, i). The adjacency is built once, on first use, and
    assumes in-range edges (``_validate_graph`` checks them).
    """

    node_count: int
    edges: frozenset
    positions: tuple | None = None

    @cached_property
    def adjacency(self):
        """Read-only boolean N x N adjacency; the diagonal holds the self-loops."""
        flat = itertools.chain.from_iterable(self.edges)
        ij = np.fromiter(flat, dtype=np.intp, count=2 * len(self.edges)).reshape(-1, 2)
        adj = np.zeros((self.node_count, self.node_count), dtype=bool)
        adj[ij[:, 0], ij[:, 1]] = True
        adj[ij[:, 1], ij[:, 0]] = True
        adj.flags.writeable = False
        return adj

    @property
    def link_count(self):
        """Number of edges excluding self-loops."""
        return int(np.count_nonzero(np.triu(self.adjacency, 1)))

    def is_connected(self):
        # level-synchronous breadth-first traversal from node 0; deliberately
        # independent of any eigensolver tolerance
        adj = self.adjacency
        seen = np.zeros(self.node_count, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())


def _validate_graph(g: Graph):
    if g.node_count < 2:
        raise NetworkError("graph needs at least 2 nodes")
    for i in range(g.node_count):
        if (i, i) not in g.edges:
            raise NetworkError(f"missing self-loop at node {i}")
    for i, j in g.edges:
        if not (0 <= i <= j < g.node_count):
            raise NetworkError(f"edge ({i},{j}) out of range or unordered")
    if not g.is_connected():
        raise NetworkError("graph is disconnected")


def _make_graph(n, pair_edges, positions=None):
    edges = {(i, i) for i in range(n)}
    edges.update((i, j) if i <= j else (j, i) for i, j in pair_edges)
    return Graph(node_count=n, edges=frozenset(edges), positions=positions)


def build_geometric_graph(n, radius=0.45, rng_seed=0, max_attempts=100):
    """Random geometric graph on the unit square.

    Nodes are placed uniformly at random in [0,1]^2 and joined when their
    Euclidean distance is below ``radius``. If the draw is disconnected,
    the placement is resampled with the next seed; the seed that succeeded
    is recorded in ``Graph.positions`` metadata via the returned attempts.

    Returns (graph, attempts_used). Raises NetworkError after
    ``max_attempts`` failed draws (infeasible radius).
    """
    if n < 2:
        raise NetworkError("need n >= 2")
    if not (0.0 < radius):
        raise NetworkError("radius must be positive")
    radius = min(radius, np.sqrt(2.0) + 1e-9)
    for attempt in range(max_attempts):
        rng = np.random.default_rng(rng_seed + attempt)
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        close = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1) < radius
        i, j = np.nonzero(np.triu(close, 1))
        g = _make_graph(n, zip(i.tolist(), j.tolist()), positions=tuple(map(tuple, pts)))
        if g.is_connected():
            return g, attempt + 1
    raise NetworkError(
        f"no connected geometric graph in {max_attempts} attempts "
        f"(n={n}, radius={radius}); radius likely infeasible"
    )


def build_chain_graph(n):
    """Path graph 0-1-...-(n-1) with self-loops."""
    if n < 2:
        raise NetworkError("need n >= 2")
    return _make_graph(n, [(i, i + 1) for i in range(n - 1)])


def build_complete_graph(n):
    if n < 2:
        raise NetworkError("need n >= 2")
    return _make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Symmetric stochastic weight matrix with support on the graph edges.

    Positive definiteness is not enforced here: the plain Metropolis matrix
    of e.g. a 2-node graph is singular. ``scale_weights`` produces the
    matrix the algorithms require, and ``build_network`` checks it is
    positive definite.
    """

    entries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", w)
        n = w.shape[0]
        if w.shape != (n, n):
            raise NetworkError("weight matrix must be square")
        if np.max(np.abs(w - w.T)) > SYMMETRY_TOL:
            raise NetworkError("weight matrix not symmetric")
        if np.max(np.abs(w @ np.ones(n) - 1.0)) > STOCHASTIC_TOL:
            raise NetworkError("weight matrix rows do not sum to 1")
        if np.min(w) < -STOCHASTIC_TOL:
            raise NetworkError("weight matrix has negative entries")

    @property
    def node_count(self):
        return self.entries.shape[0]


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Metropolis rule: W_ij = 1/(1+max(deg_i,deg_j)) on edges, diagonal
    fills the row to 1. Degrees count neighbors excluding the self-loop."""
    _validate_graph(g)
    adj = g.adjacency
    deg = adj.sum(axis=1) - 1
    links = adj & ~np.eye(g.node_count, dtype=bool)
    w = np.where(links, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    w[np.diag_indices_from(w)] = 1.0 - w.sum(axis=1)
    return WeightMatrix(w)


def scale_weights(w: WeightMatrix, a=1.1 / 2.0, b=0.9 / 2.0) -> WeightMatrix:
    """Return a*I + b*W, validated stochastic.

    The default (a, b) = (0.55, 0.45) is the scaling used throughout the
    experiment harness; it keeps the matrix stochastic (a + b = 1) and
    pushes the spectrum strictly above zero. ``build_network`` checks the
    result is positive definite on the spectrum it computes anyway.
    """
    if abs(a + b - 1.0) > 1e-12:
        raise NetworkError("scaling must satisfy a + b = 1 to stay stochastic")
    return WeightMatrix(a * np.eye(w.node_count) + b * w.entries)


@dataclass(frozen=True, eq=False)
class LaplacianSpectrum:
    """Eigendecomposition of L = I - W with the zero mode split off.

    ``eigvals_reduced`` holds lambda_2 <= ... <= lambda_N and ``q_reduced``
    the matching eigenvectors (N x (N-1)); the excluded pair is
    (0, 1/sqrt(N)).
    """

    laplacian: np.ndarray
    eigvals_reduced: np.ndarray
    q_reduced: np.ndarray

    @property
    def lambda2(self):
        return float(self.eigvals_reduced[0])

    @property
    def lambda_max(self):
        return float(self.eigvals_reduced[-1])


def spectrum(w: WeightMatrix, tol=LAMBDA2_TOL) -> LaplacianSpectrum:
    """Full symmetric eigendecomposition of L = I - W.

    The smallest eigenvalue is analytically 0 (the all-ones vector) and is
    clamped to exact 0; the remaining eigenpairs form the reduced spectrum.
    Raises if lambda_2 <= tol (disconnected or numerically degenerate).
    """
    n = w.node_count
    lap = np.eye(n) - w.entries
    vals, vecs = np.linalg.eigh(lap)
    # the smallest eigenvalue is analytically 0 (all-ones eigenvector)
    if vals[1] <= tol:
        raise NetworkError(f"lambda_2 = {vals[1]:.3e} <= tol; graph degenerate")
    return LaplacianSpectrum(
        laplacian=lap,
        eigvals_reduced=vals[1:].copy(),
        q_reduced=vecs[:, 1:].copy(),
    )


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Bundle of graph, weight matrix, and Laplacian spectrum.

    W lives on its graph: it has the graph's size and vanishes off the
    links and self-loops, so a node reads only its neighbors' blocks.
    Construction raises NetworkError otherwise, naming the first off-graph
    pair. Immutable after construction; safe to share read-only across
    threads.
    """

    graph: Graph
    weights: WeightMatrix
    spec: LaplacianSpectrum
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        w, n = self.weights.entries, self.graph.node_count
        if len(w) != n:
            raise NetworkError(f"W is {len(w)} x {len(w)} but the graph has {n} nodes")
        off_graph = np.argwhere((w != 0) & ~self.graph.adjacency)
        if off_graph.size:
            i, j = off_graph[0].tolist()
            raise NetworkError(f"W[{i}, {j}] = {float(w[i, j])!r} but ({i}, {j}) is not a link "
                               f"of the graph: a node reads only its neighbors' blocks")

    @property
    def node_count(self):
        return self.graph.node_count

    @property
    def lambda2(self):
        return self.spec.lambda2

    def laplacian_apply(self, x, d):
        """(L (x) I) x for stacked x in R^{N d}."""
        xm = np.asarray(x).reshape(self.node_count, d)
        return (self.spec.laplacian @ xm).reshape(-1)

    def weights_apply(self, x, d):
        """(W (x) I) x, i.e. per-node neighbor averages."""
        xm = np.asarray(x).reshape(self.node_count, d)
        return (self.weights.entries @ xm).reshape(-1)


def build_network(graph: Graph, scale=(1.1 / 2.0, 0.9 / 2.0), meta=None) -> NetworkModel:
    """Metropolis weights + scaling + spectrum for a validated graph.

    metropolis_weights validates the graph first. With a scale, the scaled
    W must be positive definite: its smallest eigenvalue is 1 - lambda_max
    of L = I - W, read off the one eigendecomposition ``spectrum`` runs."""
    wm = metropolis_weights(graph)
    w = scale_weights(wm, *scale) if scale is not None else wm
    spec = spectrum(w)
    if scale is not None and spec.lambda_max >= 1.0:
        raise NetworkError("scaled weight matrix lost positive definiteness")
    return NetworkModel(graph=graph, weights=w, spec=spec, meta=dict(meta or {}))


def save_network(net: NetworkModel, path):
    """Serialize node positions, edge list, and W entries to a JSON file.

    The file is byte for byte what json.dump(doc, fh, indent=1,
    sort_keys=True) writes. "edges" is the first key and "weights" the
    last: the pairs (i <= j, sorted) and the N x N weights go out one row
    at a time, each float as its repr, as json writes it, and the keys
    between them are one json.dumps. The pure-Python encoder that indent
    selects is several times slower, and the whole document as one string
    would cost its size in memory.
    """
    head = json.dumps({"meta": net.meta, "node_count": net.node_count,
                       "positions": net.graph.positions}, indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write('{\n "edges": [')
        for k, (i, j) in enumerate(np.argwhere(np.triu(net.graph.adjacency)).tolist()):
            fh.write(("," if k else "") + f"\n  [\n   {i},\n   {j}\n  ]")
        fh.write("\n ],\n" + head[2:-2])  # head without its "{\n" and "\n}"
        fh.write(',\n "weights": [')
        for k, row in enumerate(net.weights.entries):
            fh.write(("," if k else "") + "\n  [\n   " + ",\n   ".join(map(repr, row.tolist()))
                     + "\n  ]")
        fh.write("\n ]\n}")


def load_network(path) -> NetworkModel:
    with open(path) as fh:
        doc = json.load(fh)
    n = doc["node_count"]
    positions = doc.get("positions")
    g = _make_graph(
        n,
        [(i, j) for i, j in doc["edges"] if i != j],
        positions=tuple(map(tuple, positions)) if positions else None,
    )
    _validate_graph(g)
    w = WeightMatrix(np.array(doc["weights"], dtype=float))
    return NetworkModel(graph=g, weights=w, spec=spectrum(w), meta=doc.get("meta", {}))
