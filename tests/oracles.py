"""Test-only reference forms: per-node cost objects of a stack's rows, the
stack of such objects, the outer loop run with any primal policy, a stop
that records a run's iterates, and the accelerated-gradient loop that
evaluates the gradient at y on every pass."""

import math

import numpy as np

from dalopt.almethods import _outer_loop
from dalopt.objective import LogisticCost, ObjectiveStack, QuadraticCost


def node_costs(stack):
    """Row i of the stack as node i's QuadraticCost or LogisticCost, whose
    values, gradients and bounds are the row's bit for bit. A logistic row
    takes reg = node_reg[i] over one node, so that reg/N is node_reg[i]."""
    if stack.kind == "quadratic":
        return tuple(QuadraticCost(matrix=a, linear=b)
                     for a, b in zip(stack.matrices, stack.linears))
    return tuple(LogisticCost(feature=c[-1] * c[:-1], label=int(c[-1]), reg=float(r), n_nodes=1)
                 for c, r in zip(stack.samples, stack.node_reg))


def stack_of(costs):
    """The stack of a sequence of all-QuadraticCost or all-LogisticCost node
    costs, the inverse of node_costs."""
    if isinstance(costs[0], QuadraticCost):
        return ObjectiveStack.quadratic([c.matrix for c in costs], [c.linear for c in costs])
    return ObjectiveStack.logistic([c.stacked_sample for c in costs], [c.h_min for c in costs])


def run_policy(stack, net, cfg, policy, k_max, x0=None, stop=None):
    """The outer loop with policy(x, mu) -> x_next as its primal phase, whose
    transmissions and gradient evaluations the trace does not count."""
    def inner(x, mu, xbar):
        return np.asarray(policy(x, mu), dtype=float), 0, 0
    return _outer_loop(stack, net, cfg, k_max, inner, x0, stop)


def record_iterates(stop=None):
    """(xs, mus, record): record is a run's stop that appends a copy of each
    row's x and mu to the lists xs and mus, then defers to stop, if given.
    It copies because the run may overwrite the arrays it passes: the tick
    phase updates x in place."""
    xs, mus = [], []

    def record(x, mu, k):
        xs.append(x.copy())
        mus.append(mu.copy())
        return stop is not None and stop(x, mu, k)

    return xs, mus, record


def accelerated_gradient_reference(grad, x0, m, lip, tol, max_iterations):
    """The accelerated-gradient loop in its plainest form: grad(y) on every
    pass, the pass that returns included, and the norm from np.linalg.norm.
    local_solve.accelerated_gradient must give its iterates and its result
    bit for bit."""
    sq = math.sqrt(m / lip)
    momentum = (1.0 - sq) / (1.0 + sq)
    x = x0.copy()
    y = x0.copy()
    for it in range(max_iterations):
        g = grad(y)
        if it % 10 == 0 and float(np.linalg.norm(grad(x))) <= tol:
            return x
        x_new = y - g / lip
        y = x_new + momentum * (x_new - x)
        x = x_new
    return x if float(np.linalg.norm(grad(x))) <= tol else None
