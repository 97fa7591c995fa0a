"""Communication graphs, their weight matrices and Laplacian spectra.

All downstream algorithm and rate computations consume the objects built
here: an undirected connected graph with self-loops, and the network on it,
a symmetric stochastic weight matrix W with the eigendecomposition of the
weighted Laplacian L = I - W.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "NetworkModel",
    "NetworkError",
    "build_geometric_graph",
    "build_chain_graph",
    "build_complete_graph",
    "metropolis_weights",
    "spectrum",
    "build_network",
    "save_network",
    "load_network",
]

SYMMETRY_TOL = 1e-12
STOCHASTIC_TOL = 1e-12
LAMBDA2_TOL = 1e-12
GEOMETRIC_ATTEMPTS = 100  # draws of a geometric graph before its radius is deemed infeasible


class NetworkError(ValueError):
    """Invalid graph or weight-matrix construction."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected connected graph with explicit self-loops.

    ``adjacency`` is the read-only boolean N x N adjacency; its diagonal
    holds the self-loops. Every Graph is valid: construction raises
    NetworkError unless the adjacency is square with N >= 2, has a self-loop
    at every node, is symmetric and connected, and ``positions`` is None or
    one (x, y) of two real numbers per node, kept as a tuple of tuples.
    ``Graph.from_edges`` makes one from node-id pairs.
    """

    adjacency: np.ndarray
    positions: tuple | None = None

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise NetworkError("adjacency must be square")
        n = _node_count(len(adj))
        if not adj.diagonal().all():
            raise NetworkError(f"missing self-loop at node {np.argmin(adj.diagonal())}")
        if not np.array_equal(adj, adj.T):
            raise NetworkError("adjacency not symmetric")
        if not _connected(adj):
            raise NetworkError("graph is disconnected")
        if self.positions is not None:
            object.__setattr__(self, "positions", _points(self.positions, n))
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @classmethod
    def from_edges(cls, n, pairs, positions=None):
        """The graph with a self-loop at each of n nodes and a link for each
        (i, j) or (j, i) in the sequence pairs; NetworkError names a bad pair."""
        adj = np.eye(_node_count(n), dtype=bool)
        if fault := _edge_fault(pairs, n):
            raise NetworkError(fault)
        i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        adj[i, j] = adj[j, i] = True
        return cls(adj, positions)

    @property
    def node_count(self):
        return len(self.adjacency)

    @property
    def link_count(self):
        """Number of edges excluding self-loops."""
        return int(np.count_nonzero(np.triu(self.adjacency, 1)))


def _node_count(n):
    if n < 2:
        raise NetworkError("graph needs at least 2 nodes")
    return n


def _points(pts, n):
    """pts as n (x, y) tuples of two finite real numbers; NetworkError names the first fault."""
    if not isinstance(pts, (list, tuple, np.ndarray)):
        raise NetworkError(f"positions must be a list of (x, y), not {type(pts).__name__}")
    if len(pts) != n:
        raise NetworkError(f"positions must be one (x, y) per node: {len(pts)} for {n} nodes")
    for i, p in enumerate(pts):
        if not (isinstance(p, (list, tuple, np.ndarray)) and len(p) == 2 and _real(p[0])
                and _real(p[1])):
            raise NetworkError(f"positions[{i}] = {p!r} is not two real numbers")
    return tuple(map(tuple, pts))


def _real(v):
    return (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            or isinstance(v, (float, np.floating)) and math.isfinite(v))


def _edge_fault(pairs, n):
    """The message naming the first pair that is not two integer ids in [0, n)."""
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            return f"edge {pair!r} is not a pair of node ids"
        i, j = pair
        if (not isinstance(i, (int, np.integer)) or not isinstance(j, (int, np.integer))
                or isinstance(i, bool) or isinstance(j, bool)):
            return f"edge ({i},{j}) does not join two integer node ids"
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i},{j}) out of range"


def _connected(adj):
    # level-synchronous breadth-first traversal from node 0 of a boolean
    # adjacency; deliberately independent of any eigensolver tolerance
    seen = np.zeros(len(adj), dtype=bool)
    seen[:1] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def build_geometric_graph(n, radius=0.45, rng_seed=0):
    """Random geometric graph on the unit square.

    Nodes are placed uniformly at random in [0,1]^2 and joined when their
    Euclidean distance is below ``radius``. A disconnected draw is redrawn
    with the next seed; ``Graph.positions`` holds the connected one.

    Returns (graph, attempts_used). Raises NetworkError after
    GEOMETRIC_ATTEMPTS failed draws (infeasible radius).
    """
    if not (0.0 < radius):
        raise NetworkError("radius must be positive")
    radius = min(radius, np.sqrt(2.0) + 1e-9)
    for attempt in range(GEOMETRIC_ATTEMPTS):
        rng = np.random.default_rng(rng_seed + attempt)
        pts = rng.uniform(0.0, 1.0, size=(_node_count(n), 2))
        dx, dy = (pts[:, None, k] - pts[None, :, k] for k in (0, 1))
        dx *= dx
        dy *= dy
        dx += dy  # the squares summed in place, so two N x N floats are live
        close = np.sqrt(dx, out=dx) < radius  # bit for bit np.linalg.norm's
        del dx, dy  # before a redraw makes its own
        if _connected(close):
            return Graph(close, positions=pts), attempt + 1
    raise NetworkError(
        f"no connected geometric graph in {GEOMETRIC_ATTEMPTS} attempts "
        f"(n={n}, radius={radius}); radius likely infeasible"
    )


def build_chain_graph(n):
    """Path graph 0-1-...-(n-1) with self-loops."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def build_complete_graph(n):
    return Graph(np.ones((_node_count(n),) * 2, dtype=bool))


def metropolis_weights(g: Graph) -> np.ndarray:
    """Metropolis rule: W_ij = 1/(1+max(deg_i,deg_j)) on edges, diagonal
    fills the row to 1. Degrees count neighbors excluding the self-loop."""
    adj = g.adjacency
    deg = adj.sum(axis=1) - 1
    links = adj & ~np.eye(g.node_count, dtype=bool)
    w = np.where(links, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    w[np.diag_indices_from(w)] = 1.0 - w.sum(axis=1)
    return w


def spectrum(w):
    """(eigvals_reduced, q_reduced): the full symmetric eigendecomposition
    of L = I - W with the zero mode split off.

    The smallest eigenvalue is analytically 0 (the all-ones vector) and is
    dropped: ``eigvals_reduced`` holds lambda_2 <= ... <= lambda_N and
    ``q_reduced`` the matching eigenvectors (N x (N-1)); the excluded pair
    is (0, 1/sqrt(N)). Raises if lambda_2 <= LAMBDA2_TOL (disconnected or
    numerically degenerate).
    """
    lap = np.subtract(0.0, w)  # np.eye(N) - W bit for bit; np.negative would write -0.0
    lap[np.diag_indices_from(lap)] += 1.0
    vals, vecs = np.linalg.eigh(lap)
    del lap  # before the eigenvectors are copied
    if vals[1] <= LAMBDA2_TOL:
        raise NetworkError(f"lambda_2 = {vals[1]:.3e} <= tol; graph degenerate")
    return vals[1:].copy(), vecs[:, 1:].copy()


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """A graph, its weight matrix W and the spectrum of L = I - W.

    Construction raises NetworkError unless ``weights`` is a square W of the
    graph's size, finite and symmetric, with rows that sum to 1 and no
    negative entry, vanishing off the links and self-loops (a node reads
    only its neighbors' blocks); ``build_network`` makes the positive
    definite W the algorithms require. ``eigvals_reduced`` and ``q_reduced``
    are ``spectrum(W)``; L is not stored. W is a private copy unless it is
    handed over: a read-only float64 ndarray that owns its data is held as
    it is, as ``build_network`` hands over its W. W and the spectrum are
    read-only, so a network is safe to share across threads.
    """

    graph: Graph
    weights: np.ndarray
    meta: dict = field(default_factory=dict)
    eigvals_reduced: np.ndarray = field(init=False)
    q_reduced: np.ndarray = field(init=False)

    def __post_init__(self):
        w, n = _square(self.weights), self.graph.node_count
        if len(w) != n:
            raise NetworkError(f"W is {len(w)} x {len(w)} but the graph has {n} nodes")
        if not np.isfinite(w).all():
            raise NetworkError("weight matrix has non-finite entries")
        if np.max(np.abs(w - w.T)) > SYMMETRY_TOL:
            raise NetworkError("weight matrix not symmetric")
        if np.max(np.abs(w @ np.ones(len(w)) - 1.0)) > STOCHASTIC_TOL:
            raise NetworkError("weight matrix rows do not sum to 1")
        if np.min(w) < -STOCHASTIC_TOL:
            raise NetworkError("weight matrix has negative entries")
        off_graph = np.argwhere((w != 0) & ~self.graph.adjacency)
        if off_graph.size:
            i, j = off_graph[0].tolist()
            raise NetworkError(f"W[{i}, {j}] = {float(w[i, j])!r} but ({i}, {j}) is not a link "
                               f"of the graph: a node reads only its neighbors' blocks")
        fields = ("weights", "eigvals_reduced", "q_reduced")
        for name, value in zip(fields, (w, *spectrum(w))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def node_count(self):
        return self.graph.node_count

    @property
    def lambda2(self):
        return float(self.eigvals_reduced[0])

    @property
    def lambda_max(self):
        return float(self.eigvals_reduced[-1])

    def laplacian_apply(self, x, d):
        """(L (x) I) x for stacked x in R^{N d}, with L = I - W formed here."""
        xm = np.asarray(x).reshape(self.node_count, d)
        return ((np.eye(self.node_count) - self.weights) @ xm).reshape(-1)

    def weights_apply(self, x, d):
        """(W (x) I) x, i.e. per-node neighbor averages."""
        xm = np.asarray(x).reshape(self.node_count, d)
        return (self.weights @ xm).reshape(-1)


def _square(weights):
    """weights as a float array: a read-only float64 ndarray that owns its
    data is taken as handed over, anything else is copied; NetworkError
    unless it is square, in equal-length rows of real numbers."""
    handed_over = (type(weights) is np.ndarray and weights.dtype == np.float64
                   and weights.flags.owndata and not weights.flags.writeable)
    try:
        w = weights if handed_over else np.array(weights)
    except ValueError:  # rows of unequal length
        w = None
    if isinstance(weights, list) and w is not None and w.ndim == 2 and any(
            type(v) is bool for row in weights for v in row):
        w = None  # numpy reads a bool beside numbers as 0 or 1
    if w is None or w.dtype.kind not in "iuf":
        raise NetworkError("weights must be equal-length rows of real numbers")
    if w.ndim != 2 or len(w) != w.shape[1]:
        raise NetworkError("weight matrix must be square")
    return w.astype(float, copy=False)


def build_network(graph: Graph, meta=None) -> NetworkModel:
    """The network the algorithms run on: W = 0.55 I + 0.45 M, with M the
    Metropolis weights of the graph.

    M has its eigenvalues in [-1, 1], so W has them in [0.1, 1]: it is
    positive definite, as the rate analysis assumes."""
    w = metropolis_weights(graph)
    w *= 0.9 / 2.0  # in place: 0.55 I + 0.45 M bit for bit
    w[np.diag_indices_from(w)] += 1.1 / 2.0
    w.flags.writeable = False  # handed over to the model, not copied
    return NetworkModel(graph=graph, weights=w, meta=dict(meta or {}))


def save_network(net: NetworkModel, path):
    """Serialize node positions, edge list, and W entries to a JSON file.

    The file is byte for byte what json.dump(doc, fh, indent=1,
    sort_keys=True) writes: "edges" first, one node row at a time, each a
    join of texts made once per node, "weights" last, one row at a time
    with each float as its repr, made once per bit pattern (by value, 0.0
    and -0.0 would merge), and the keys between them as one json.dumps.
    The pure-Python encoder that indent selects is several times slower,
    and the whole document, or all its edges, as one string would cost
    their size in memory.
    """
    head = json.dumps({"meta": net.meta, "node_count": net.node_count,
                       "positions": net.graph.positions}, indent=1, sort_keys=True)
    ends = np.array([f"{j}\n  ]" for j in range(net.node_count)], dtype=object)
    bits = net.weights.view(np.uint64)
    ranked = np.sort(bits, axis=None)  # np.unique would import numpy.ma, 1 MB of RSS
    distinct = ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
    del ranked  # before the codes: one N x N array at a time
    codes = np.searchsorted(distinct, bits)  # W's entries as indices into texts
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    with open(path, "w") as fh:
        fh.write('{\n "edges": [')
        for i, links in enumerate(net.graph.adjacency):
            start = f"\n  [\n   {i},\n   "  # pairs (i, j), j >= i: the self-loop first
            fh.write(("," if i else "") + start
                     + ("," + start).join(ends[i:][links[i:]].tolist()))
        fh.write("\n ],\n" + head[2:-2])  # head without its "{\n" and "\n}"
        fh.write(',\n "weights": [')
        for k, row in enumerate(codes):
            fh.write(("," if k else "") + "\n  [\n   " + ",\n   ".join(texts[row].tolist())
                     + "\n  ]")
        fh.write("\n ]\n}")


def load_network(path) -> NetworkModel:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise NetworkError(f"a network file must be a JSON object, not {type(doc).__name__}")
    for key in ("node_count", "edges", "weights"):
        if key not in doc:
            raise NetworkError(f"missing key {key!r}")
    n, edges, meta = doc["node_count"], doc["edges"], doc.get("meta", {})
    if type(n) is not int:
        raise NetworkError(f"node_count must be an integer >= 2, not {n!r}")
    w = _square(doc["weights"])
    if n > len(w):  # before an n x n adjacency is made
        raise NetworkError(f"node_count {n} is more than the {len(w)} rows of W")
    if not isinstance(edges, list):
        raise NetworkError("edges must be a list of pairs of node ids")
    if not isinstance(meta, dict):
        raise NetworkError(f"meta must be an object, not {type(meta).__name__}")
    g = Graph.from_edges(n, edges, positions=doc.get("positions"))
    return NetworkModel(graph=g, weights=w, meta=meta)
