"""Per-node convex costs with gradient access and certified Hessian bounds.

A node cost is a QuadraticCost or a LogisticCost, the two classes an
ObjectiveStack accepts. A stack of N node costs of common dimension d
defines the block-separable objective F(x_1,...,x_N) = sum_i f_i(x_i) on
R^{Nd} and the aggregate f(x) = sum_i f_i(x) on R^d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "QuadraticCost",
    "LogisticCost",
    "ObjectiveStack",
    "grad_stack",
    "save_dataset",
]


@dataclass(frozen=True, eq=False)
class QuadraticCost:
    """f(x) = 0.5 x'Ax + b'x + c with A symmetric positive definite.

    Test instrument: the Hessian bounds are the exact extreme eigenvalues
    of A.
    """

    matrix: np.ndarray
    linear: np.ndarray
    constant: float = 0.0
    h_min: float = field(init=False)
    h_max: float = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.linear, dtype=float)
        if a.shape != (b.size, b.size):
            raise ValueError("matrix/linear dimension mismatch")
        if np.max(np.abs(a - a.T)) > 1e-12:
            raise ValueError("quadratic matrix must be symmetric")
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] <= 0.0:
            raise ValueError("quadratic matrix must be positive definite")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "linear", b)
        object.__setattr__(self, "h_min", float(eigs[0]))
        object.__setattr__(self, "h_max", float(eigs[-1]))

    @property
    def dimension(self):
        return self.linear.size

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.matrix @ x + self.linear @ x + self.constant)

    def grad(self, x):
        return self.matrix @ np.asarray(x, dtype=float) + self.linear


def _stable_logloss(z):
    # log(1 + exp(-z)) without overflow
    return float(np.log1p(np.exp(-abs(z))) + max(0.0, -z))


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    ez = np.exp(z)
    return ez / (1.0 + ez)


@dataclass(frozen=True, eq=False)
class LogisticCost:
    """l2-regularized logistic loss of a single labeled sample.

    f(x) = log(1 + exp(-c'x)) + (reg/(2 N)) ||x||^2 where
    c = (b*a, b) stacks the labeled feature vector with an intercept slot,
    b in {-1,+1}, and reg > 0 is shared across the N nodes. Its Hessian
    bounds are h_min = reg/N and h_max = reg/N + ||c||^2 / 4: the rank-one
    sample term c c' has norm ||c||^2, and the logistic curvature factor
    never exceeds 1/4.
    """

    feature: np.ndarray
    label: int
    reg: float
    n_nodes: int
    stacked_sample: np.ndarray = field(init=False)  # c = (b*a, b), dimension d
    h_min: float = field(init=False)
    h_max: float = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.feature, dtype=float)
        if self.label not in (-1, 1):
            raise ValueError("label must be -1 or +1")
        if self.reg <= 0 or self.n_nodes < 1:
            raise ValueError("need reg > 0 and n_nodes >= 1")
        c = np.concatenate([self.label * a, [float(self.label)]])
        h_min = self.reg / self.n_nodes
        object.__setattr__(self, "feature", a)
        object.__setattr__(self, "stacked_sample", c)
        object.__setattr__(self, "h_min", h_min)
        object.__setattr__(self, "h_max", h_min + 0.25 * float(c @ c))

    @property
    def dimension(self):
        return self.feature.size + 1

    def value(self, x):
        x = np.asarray(x, dtype=float)
        z = float(self.stacked_sample @ x)
        return _stable_logloss(z) + 0.5 * self.reg / self.n_nodes * float(x @ x)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        c = self.stacked_sample
        z = float(c @ x)
        return -_sigmoid(-z) * c + (self.reg / self.n_nodes) * x


def _row_products(x, m):
    """x @ m.T as a C-ordered array, summed feature by feature in a fixed order.

    Entry (r, j) depends only on x[r] and m[j], bit for bit, however many
    rows x has. A BLAS product does not promise that (one row goes to gemv,
    several to gemm), and f(x*) must reproduce f* exactly.
    """
    out = np.multiply.outer(x[:, 0], m[:, 0])
    for k in range(1, x.shape[1]):
        out += np.multiply.outer(x[:, k], m[:, k])
    return out


@dataclass(frozen=True, eq=False)
class ObjectiveStack:
    """N node costs of common dimension d, all logistic or all quadratic.

    Construction also builds the array form that the algorithms and the
    metrics read instead of the per-node objects:

    - logistic: ``samples`` C in R^{N x d} (row j is node j's c) and
      ``node_reg`` (reg/N per node);
    - quadratic: ``matrices`` A in R^{N x d x d} and ``linears`` B in
      R^{N x d}, plus the per-node constants;
    - both: ``node_h_min`` and ``node_h_max``.
    """

    costs: tuple
    kind: str = field(init=False)  # "logistic" or "quadratic"
    node_h_min: np.ndarray = field(init=False)
    node_h_max: np.ndarray = field(init=False)
    samples: np.ndarray | None = field(init=False, default=None)
    node_reg: np.ndarray | None = field(init=False, default=None)
    matrices: np.ndarray | None = field(init=False, default=None)
    linears: np.ndarray | None = field(init=False, default=None)
    constants: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        costs = tuple(self.costs)
        if not costs:
            raise ValueError("empty stack")
        d = costs[0].dimension
        if any(c.dimension != d for c in costs):
            raise ValueError("node costs must share a common dimension")
        put = partial(object.__setattr__, self)
        put("costs", costs)
        if all(isinstance(c, LogisticCost) for c in costs):
            put("kind", "logistic")
            put("samples", np.array([c.stacked_sample for c in costs]))
            put("node_reg", np.array([c.h_min for c in costs]))
        elif all(isinstance(c, QuadraticCost) for c in costs):
            put("kind", "quadratic")
            put("matrices", np.array([c.matrix for c in costs]))
            put("linears", np.array([c.linear for c in costs]))
            put("constants", np.array([float(c.constant) for c in costs]))
        else:
            raise ValueError("a stack holds only logistic or only quadratic costs")
        put("node_h_min", np.array([c.h_min for c in costs]))
        put("node_h_max", np.array([c.h_max for c in costs]))

    @property
    def n_nodes(self):
        return len(self.costs)

    @property
    def dimension(self):
        return self.costs[0].dimension

    @property
    def h_min(self):
        return float(self.node_h_min.min())

    @property
    def h_max(self):
        return float(self.node_h_max.max())

    def node_grads(self, x):
        """Row i of the result is grad f_i(x[i]); x is (N, d)."""
        if self.kind == "logistic":
            # sigmoid(-c'x) = exp(-log(1 + exp(c'x))), overflow-free
            s = np.exp(-np.logaddexp(0.0, (self.samples * x).sum(axis=1)))
            return self.node_reg[:, None] * x - s[:, None] * self.samples
        return np.matmul(self.matrices, x[:, :, None])[:, :, 0] + self.linears

    def node_grad(self, i, x):
        """grad f_i(x) at one block x, from row i of the array form."""
        if self.kind == "logistic":
            c = self.samples[i]
            return self.node_reg[i] * x - _sigmoid(-float(c @ x)) * c
        return self.matrices[i] @ x + self.linears[i]

    def aggregate_values(self, x):
        """f(x[r]) = sum_j f_j(x[r]) for every row r of x.

        Every array here is C-ordered, so that each row sum runs in the same
        order whatever the number of rows.
        """
        x = np.ascontiguousarray(x, dtype=float)
        if self.kind == "logistic":
            loss = np.logaddexp(0.0, -_row_products(x, self.samples)).sum(axis=1)
            return loss + 0.5 * self.node_reg.sum() * (x * x).sum(axis=1)
        a = self.matrices.sum(axis=0)
        quad = (_row_products(x, a) * x).sum(axis=1)
        lin = (x * self.linears.sum(axis=0)).sum(axis=1)
        return 0.5 * quad + lin + self.constants.sum()

    def aggregate_value(self, x):
        """f(x) = sum_i f_i(x), common argument."""
        return float(self.aggregate_values(np.asarray(x, dtype=float)[None, :])[0])

    def aggregate_grad(self, x):
        x = np.broadcast_to(np.asarray(x, dtype=float), (self.n_nodes, self.dimension))
        return self.node_grads(x).sum(axis=0)


def grad_stack(stack: ObjectiveStack, x) -> np.ndarray:
    """Block-stacked gradient (grad f_1(x_1), ..., grad f_N(x_N))."""
    x = np.asarray(x, dtype=float)
    n, d = stack.n_nodes, stack.dimension
    if x.size != n * d:
        raise ValueError(f"expected stacked vector of size {n * d}, got {x.size}")
    return stack.node_grads(x.reshape(n, d)).reshape(-1)


def save_dataset(stack: ObjectiveStack, path):
    """Write per-node rows ``label,feature_1,...,feature_{d-1}`` (CSV).

    Only defined for logistic stacks; quadratic stacks are synthetic test
    instruments and are regenerated from seeds.
    """
    with open(path, "w") as fh:
        fh.write("# label, then d-1 feature entries per row\n")
        for c in stack.costs:
            if not isinstance(c, LogisticCost):
                raise TypeError("dataset files hold logistic costs only")
            row = [f"{c.label:d}"] + [f"{v:.17g}" for v in c.feature]
            fh.write(",".join(row) + "\n")

