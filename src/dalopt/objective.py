"""Per-node convex costs with gradient access and certified Hessian bounds.

An ObjectiveStack holds N node costs of common dimension d, all logistic
or all quadratic, as arrays; QuadraticCost and LogisticCost are one node's
cost as an object, a reference for the array form. The stack defines the
block-separable objective F(x_1,...,x_N) = sum_i f_i(x_i) on R^{Nd} and
the aggregate f(x) = sum_i f_i(x) on R^d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "QuadraticCost",
    "LogisticCost",
    "ObjectiveStack",
    "grad_stack",
    "save_dataset",
]


def _put(obj, **values):
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class QuadraticCost:
    """f(x) = 0.5 x'Ax + b'x with A symmetric positive definite.

    Test instrument: the Hessian bounds are the exact extreme eigenvalues
    of A.
    """

    matrix: np.ndarray
    linear: np.ndarray
    h_min: float = field(init=False)
    h_max: float = field(init=False)

    def __post_init__(self):
        row = ObjectiveStack.quadratic([self.matrix], [self.linear])  # its checks and bounds
        _put(self, matrix=row.matrices[0], linear=row.linears[0], h_min=row.h_min, h_max=row.h_max)

    @property
    def dimension(self):
        return self.linear.size

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.matrix @ x + self.linear @ x)

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
        reg = self.reg / self.n_nodes if self.n_nodes >= 1 else 0.0  # 0 fails the reg check
        row = ObjectiveStack.logistic([np.append(self.label * a, float(self.label))], [reg])
        _put(self, feature=a, stacked_sample=row.samples[0], h_min=row.h_min, h_max=row.h_max)

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


def row_dots(a, b):
    """a[i].dot(b[i]) for every row i, bit for bit: a stacked matmul, where
    einsum and (a * b).sum(1) sum in another order."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


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
    """N node costs of common dimension d, all logistic or all quadratic,
    as the arrays that the algorithms and the metrics read:

    - logistic: ``samples`` C in R^{N x d} (row j is node j's c) and
      ``node_reg`` (reg/N per node);
    - quadratic: ``matrices`` A in R^{N x d x d} and ``linears`` B in R^{N x d};
    - both: ``node_h_min`` and ``node_h_max``.

    Make one with ``logistic`` or ``quadratic``. Each runs the checks of
    every row at once and works out the bounds.
    """

    kind: str  # "logistic" or "quadratic"
    node_h_min: np.ndarray
    node_h_max: np.ndarray
    samples: np.ndarray | None = None
    node_reg: np.ndarray | None = None
    matrices: np.ndarray | None = None
    linears: np.ndarray | None = None

    @classmethod
    def logistic(cls, samples, node_reg):
        """h_min = reg/N and h_max = reg/N + ||c||^2 / 4 per row, as in LogisticCost."""
        c, reg = np.asarray(samples, dtype=float), np.asarray(node_reg, dtype=float)
        if not len(c):
            raise ValueError("empty stack")
        if c.ndim != 2 or reg.shape != c.shape[:1]:
            raise ValueError("samples/node_reg dimension mismatch")
        if not np.isin(c[:, -1], (-1.0, 1.0)).all():
            raise ValueError("label must be -1 or +1")
        if (reg <= 0).any():
            raise ValueError("need reg > 0 and n_nodes >= 1")
        # one dot per row: a batched sum of squares may round differently
        h_max = reg + 0.25 * np.array([row @ row for row in c])
        return cls("logistic", reg, h_max, samples=c, node_reg=reg)

    @classmethod
    def quadratic(cls, matrices, linears):
        """The bounds are the extreme eigenvalues of each A_i."""
        a, b = np.asarray(matrices, dtype=float), np.asarray(linears, dtype=float)
        if not len(a):
            raise ValueError("empty stack")
        if b.ndim != 2 or a.shape != b.shape + b.shape[1:]:
            raise ValueError("matrix/linear dimension mismatch")
        if np.max(np.abs(a - a.transpose(0, 2, 1))) > 1e-12:
            raise ValueError("quadratic matrix must be symmetric")
        eigs = np.linalg.eigvalsh(a)  # eigh's values differ from these in the last bits
        if (eigs[:, 0] <= 0.0).any():
            raise ValueError("quadratic matrix must be positive definite")
        return cls("quadratic", eigs[:, 0].copy(), eigs[:, -1].copy(), matrices=a, linears=b)

    @property
    def n_nodes(self):
        return len(self.node_h_min)

    @property
    def dimension(self):
        return (self.samples if self.kind == "logistic" else self.linears).shape[1]

    @property
    def h_min(self):
        return float(self.node_h_min.min())

    @property
    def h_max(self):
        return float(self.node_h_max.max())

    @cached_property
    def eigen(self):
        """(values, vectors) of a quadratic stack's A_i, one batched eigh:
        A_i = Q_i diag(values[i]) Q_i' with Q_i = vectors[i]."""
        return np.linalg.eigh(self.matrices)

    def node_grads(self, x):
        """Row i of the result is grad f_i(x[i]) for x of shape (N, d), and
        grad f_i(x) for one block x of shape (d,), bit for bit as that block
        repeated N times."""
        if self.kind == "logistic":
            # sigmoid(-c'x) = exp(-log(1 + exp(c'x))), overflow-free
            s = np.exp(-np.logaddexp(0.0, np.add.reduce(self.samples * x, axis=1)))
            return self.node_reg[:, None] * x - s[:, None] * self.samples
        return np.matmul(self.matrices, x[..., None])[..., 0] + self.linears

    def node_grad_rows(self, x):
        """Row i is node_grad(i, x[i]) bit for bit; node_grads' logistic form
        rounds otherwise, and the gradient sweeps' traces are made with it."""
        if self.kind == "quadratic":
            return self.node_grads(x)
        u = row_dots(self.samples, x)
        e = np.exp(-np.abs(u))  # _sigmoid(-u) on either branch
        s = np.where(u <= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        return self.node_reg[:, None] * x - s[:, None] * self.samples

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
        return 0.5 * quad + lin

    def aggregate_value(self, x):
        """f(x) = sum_i f_i(x), common argument."""
        return float(self.aggregate_values(np.asarray(x, dtype=float)[None, :])[0])

    def aggregate_grad(self, x):
        """grad f(x) = sum_i grad f_i(x), common argument."""
        return np.add.reduce(self.node_grads(np.asarray(x, dtype=float)), axis=0)


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
    if stack.kind != "logistic":
        raise TypeError("dataset files hold logistic costs only")
    with open(path, "w") as fh:
        fh.write("# label, then d-1 feature entries per row\n")
        for c in stack.samples.tolist():  # c = (b*a, b) and b*b = 1, so a = b*(b*a) exactly
            row = [f"{int(c[-1]):d}"] + [f"{c[-1] * v:.17g}" for v in c[:-1]]
            fh.write(",".join(row) + "\n")

