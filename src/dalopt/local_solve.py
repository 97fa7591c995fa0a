"""Local subproblem solvers.

Three pieces: the per-node proximal problem solved by an accelerated
gradient method with a precomputed iteration budget, the single gradient
step used by the gradient-type algorithm variants, and a high-accuracy
minimizer of the full augmented objective used as a test oracle. That
minimizer and harness.reference_solve run one accelerated-gradient loop,
accelerated_gradient. The
runs use array-form kernels of the first two. One prox kernel,
node_prox_solver, solves one node at a time for both the Jacobi sweeps
and the Gauss-Seidel ticks. The gradient step runs on all nodes at once
for the synchronized sweeps and one node at a time for the randomized
ticks, where a tick is one row product over the current blocks. The
per-node forms, prox_local_info and gradient_step_local, are the kernels'
reference oracles.
"""

from __future__ import annotations

import math

import numpy as np

from .network import NetworkModel
from .objective import ObjectiveStack, grad_stack

__all__ = [
    "SolverError",
    "prox_local_info",
    "node_prox_solver",
    "node_gradient_step",
    "gradient_step",
    "gradient_step_local",
    "accelerated_gradient",
    "exact_al_minimizer",
    "exact_al_minimizer_direct",
]


MAX_ITERATIONS = 200_000  # default iteration cap of one prox solve


class SolverError(RuntimeError):
    """Inner solver exceeded its iteration cap."""


def _planned_iterations(eps, r_dist, lip, q):
    """ceil(|log(2 eps / (R'^2 L')) / log(1 - sqrt(nu'/L'))|).

    q = nu'/L' in (0, 1]. The log(1 - sqrt(.)) factor is read with the
    inverse condition number under the root; with q = 1 one step suffices.
    """
    arg = 2.0 * eps / (r_dist * r_dist * lip)
    if arg >= 1.0:
        return 1
    if q >= 1.0:
        return 1
    return int(math.ceil(abs(math.log(arg) / math.log(1.0 - math.sqrt(q)))))


def prox_local_info(cost, rho, v, x0, epsilon=1e-5, max_iterations=MAX_ITERATIONS):
    """Accelerated gradient solve of min_y f(y) + v'y + (rho/2)||y||^2 from
    the warm start x0.

    Inside the algorithms v = mu_i - rho * xbar_i; the objective is
    (h_min + rho)-strongly convex. Returns (y, gradient_evaluations). The
    iteration count is planned from the distance estimate R' at the warm
    start; afterwards the gradient norm is polished below
    sqrt(2 nu' epsilon), which certifies an optimality gap <= epsilon by
    strong convexity. Raises SolverError at the iteration cap.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    v = np.asarray(v, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    nu = cost.h_min + rho
    lip = cost.h_max + cost.h_min + rho  # mirrors the harness Lipschitz recipe

    def grad(y):
        return cost.grad(y) + v + rho * y

    grads = 1
    # distance-to-solution estimate from the warm start
    r_dist = float(np.linalg.norm(cost.grad(x0) + nu * x0 + v)) / nu
    if r_dist == 0.0:
        return x0.copy(), grads

    planned = min(_planned_iterations(epsilon, r_dist, lip, nu / lip), max_iterations)

    sq = math.sqrt(nu / lip)
    momentum = (1.0 - sq) / (1.0 + sq)
    target = math.sqrt(2.0 * nu * epsilon)

    x = x0.copy()
    y = x0.copy()
    it = 0
    while True:
        for _ in range(planned):
            g = grad(y)
            grads += 1
            x_new = y - g / lip
            y = x_new + momentum * (x_new - x)
            x = x_new
            it += 1
        # strong-convexity certificate: gap <= ||grad||^2 / (2 nu)
        gn = float(np.linalg.norm(grad(x)))
        grads += 1
        if gn <= target:
            return x, grads
        if it >= max_iterations:
            raise SolverError(
                f"prox solve exceeded {max_iterations} iterations "
                f"(gradient norm {gn:.3e} > {target:.3e}); Hessian bounds suspect"
            )
        planned = min(max(planned, 8), max_iterations - it)


def node_prox_solver(stack: ObjectiveStack, rho, epsilon, max_iterations=MAX_ITERATIONS):
    """The prox kernel of the Jacobi sweeps and of the Gauss-Seidel ticks:
    prox_local_info for one node of the stack at a time, from its array form.

    Returns solve(i, v, x0) -> (y, gradient evaluations): node i's prox
    problem min_y f_i(y) + v'y + (rho/2)||y||^2 solved from the warm start
    x0 on prox_local_info's schedule (R' from the warm start, the planned
    step count, polish rounds of max(planned, 8) steps, SolverError naming
    the node at the iteration cap). Each Nesterov step y -> y - g(y)/L_i is
    one affine map built once here, with a_i = 1 - (reg_i + rho)/L_i and
    M_i = I - (A_i + rho I)/L_i:

    - logistic: y -> a_i y - v/L_i + (sigma(-c_i'y)/L_i) c_i. Every iterate
      is p x0 + q v/L_i + r c_i, with c_i'y from c_i'x0, c_i'v/L_i and
      c_i'c_i. p and q depend on the node alone, so they are computed once
      per node and shared by its solves; a step updates r in float
      arithmetic;
    - quadratic: y -> M_i y - (b_i + v)/L_i. On [x - x0; y - x0; 1], a
      step and its momentum update are one (2d+1)-square homogeneous map
      T_i whose last column holds g/L_i, g the prox gradient at x0, so a
      node at its optimum stays there exactly. T_i is built here but for
      that column, which each solve fills in, and the n steps between two
      checks are one product with T_i^n.
    """
    nu = stack.node_h_min + rho
    lip = stack.node_h_max + stack.node_h_min + rho  # as in prox_local_info
    q = nu / lip
    sq = np.sqrt(q)
    momentum = (1.0 - sq) / (1.0 + sq)
    target = np.sqrt(2.0 * nu * epsilon).tolist()
    if stack.kind == "logistic":
        samples = stack.samples
        a = (1.0 - (stack.node_reg + rho) / lip).tolist()
        cc = (samples * samples).sum(axis=1).tolist()
        walks = {}  # node -> rows p_y, q_y, p_x, q_x after 0, 1, ... steps

        def walk(i, n, mom):
            """p and q of node i's iterates after up to n steps. They do not
            depend on v or x0, so every solve of the node shares them."""
            rows = walks.get(i)
            if rows is None or rows.shape[1] <= n:
                # recomputed from step 0, at least doubling, so the cost amortizes
                steps = n if rows is None else max(n, 2 * rows.shape[1])
                a_i = a[i]
                px = py = 1.0
                qx = qy = 0.0
                seq = [py, qy, px, qx]  # flat: a list of tuples costs more peak memory
                for _ in range(steps):
                    pn, qn = a_i * py, a_i * qy - 1.0
                    py, qy = pn + mom * (pn - px), qn + mom * (qn - qx)
                    px, qx = pn, qn
                    seq += py, qy, px, qx
                rows = walks[i] = np.array(seq).reshape(-1, 4).T
            return rows

        def path(i, v, x0, lip_i, mom):
            a_i, c, w = a[i], samples[i], v / lip_i
            cx0, cw, cc_i = float(c @ x0), float(c @ w), cc[i]
            k, rx, ry = 0, 0.0, 0.0
            exp = math.exp
            n = yield
            while True:
                py, qy, px, qx = walk(i, k + n, mom)
                for z in (py[k:k + n] * cx0 + qy[k:k + n] * cw).tolist():
                    u = z + ry * cc_i  # c_i'y; sigma(-u) without overflow
                    if u <= 0.0:
                        s = 1.0 / (1.0 + exp(u))
                    else:
                        e = exp(-u)
                        s = e / (1.0 + e)
                    rn = a_i * ry + s / lip_i
                    ry = rn + mom * (rn - rx)
                    rx = rn
                k += n
                n = yield px[k] * x0 + qx[k] * w + rx * c
    else:
        d = stack.dimension
        eye = np.eye(d)
        m = eye - (stack.matrices + rho * eye) / lip[:, None, None]
        # x <- M y - g/L, y <- (1 + m)(M y - g/L) - m x
        maps = np.zeros((stack.n_nodes, 2 * d + 1, 2 * d + 1))
        maps[:, :d, d:-1] = m
        maps[:, d:-1, :d] = -momentum[:, None, None] * eye
        maps[:, d:-1, d:-1] = (1.0 + momentum[:, None, None]) * m
        maps[:, -1, -1] = 1.0
        matrices, linears = stack.matrices, stack.linears

        def path(i, v, x0, lip_i, mom):
            t = maps[i].copy()
            step = (matrices[i] @ x0 + linears[i] + v + rho * x0) / lip_i  # g(x0)/L_i
            t[:d, -1] = -step
            t[d:-1, -1] = -(1.0 + mom) * step
            z = np.zeros(2 * d + 1)
            z[-1] = 1.0
            powers = {}  # T_i^n by n: the polish rounds repeat one n
            n = yield
            while True:
                if n not in powers:
                    powers[n] = np.linalg.matrix_power(t, n)
                z = powers[n] @ z
                n = yield x0 + z[:d]
    nu, lip, q, momentum = nu.tolist(), lip.tolist(), q.tolist(), momentum.tolist()
    node_grad = stack.node_grad

    def solve(i, v, x0):
        """Node i's prox solve: (y, gradient evaluations)."""
        nu_i, lip_i = nu[i], lip[i]
        grads = 1
        r_dist = float(np.linalg.norm(node_grad(i, x0) + nu_i * x0 + v)) / nu_i
        if r_dist == 0.0:
            return x0.copy(), grads
        planned = min(_planned_iterations(epsilon, r_dist, lip_i, q[i]), max_iterations)
        steps = path(i, v, x0, lip_i, momentum[i])
        next(steps)
        it = 0
        while True:
            x = steps.send(planned)
            it += planned
            grads += planned + 1
            # strong-convexity certificate: gap <= ||grad||^2 / (2 nu)
            gn = float(np.linalg.norm(node_grad(i, x) + v + rho * x))
            if gn <= target[i]:
                return x, grads
            if it >= max_iterations:
                raise SolverError(
                    f"prox solve at node {i} exceeded {max_iterations} iterations "
                    f"(gradient norm {gn:.3e} > {target[i]:.3e}); Hessian bounds suspect"
                )
            planned = min(max(planned, 8), max_iterations - it)

    return solve


def node_gradient_step(stack: ObjectiveStack, weights, beta, rho):
    """gradient_step for one node of the stack at a time: a tick gathers
    what it reads from the current blocks, and keeps no other state.

    weights is the (N, N) W the ticks read: W's entries on the graph's
    links and self-loops, 0 elsewhere. Within a tick phase mu is fixed, so
    node i's step x_i <- (1 - beta rho) x_i + beta rho (W x)_i
    - beta (mu_i + grad f_i(x_i)) is one row product k_i @ z, with z the
    array a phase builds and k_i a coefficient row built once here:

    - logistic: z = [x; -beta mu; C] and k_i holds beta rho W_i on the x
      block plus a_i = 1 - beta (reg_i + rho) at x_i, 1 on node i's offset
      row, and beta sigma(-c_i'x_i) at c_i, which the tick sets first;
    - quadratic: z = [x; -beta (mu + b)] and k_i holds beta rho W_i on the
      x block and 1 on node i's offset row; the tick adds P_i x_i, with
      P_i = (1 - beta rho) I - beta A_i.

    Returns ticks(nodes, x, mu): the ticks of nodes in order, in place on
    the (N, d) blocks x.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    n = stack.n_nodes
    beta_rho = beta * rho
    logistic = stack.kind == "logistic"
    rows = np.zeros((n, (3 if logistic else 2) * n))
    np.multiply(beta_rho, weights, out=rows[:, :n])
    rows[range(n), range(n, 2 * n)] = 1.0
    coefficients = list(rows)  # indexing a list is cheaper than an array
    if logistic:
        rows[range(n), range(n)] += 1.0 - beta * (stack.node_reg + rho)
        samples = stack.samples
        sample_rows = list(samples)
        exp = math.exp

        def ticks(nodes, x, mu):
            z = np.concatenate((x, -beta * mu, samples))
            blocks = list(z[:n])  # row views of z's x block
            for i in nodes:
                k_i = coefficients[i]
                u = float(sample_rows[i].dot(blocks[i]))  # .dot costs less than @ here
                # k_i's entry at c_i: beta sigma(-u), without overflow
                if u <= 0.0:
                    k_i[2 * n + i] = beta * (1.0 / (1.0 + exp(u)))
                else:
                    e = exp(-u)
                    k_i[2 * n + i] = beta * (e / (1.0 + e))
                z[i] = k_i.dot(z)
            x[...] = z[:n]
    else:
        linears = stack.linears
        maps = list((1.0 - beta_rho) * np.eye(stack.dimension) - beta * stack.matrices)

        def ticks(nodes, x, mu):
            z = np.concatenate((x, -beta * (mu + linears)))
            blocks = list(z[:n])
            for i in nodes:
                z[i] = coefficients[i].dot(z) + maps[i].dot(blocks[i])
            x[...] = z[:n]

    return ticks


def gradient_step(x, xbar, mu, grad, beta, rho):
    """x <- (1 - beta rho) x + beta rho xbar - beta (mu + grad), on one block
    or on an (N, d) array of blocks; grad is grad f at x."""
    return (1.0 - beta * rho) * x + beta * rho * xbar - beta * (mu + grad)


def gradient_step_local(cost, x_i, xbar_i, mu_i, beta, rho) -> np.ndarray:
    """One gradient step on the node's augmented objective:

    x_i <- (1 - beta rho) x_i + beta rho xbar_i - beta (mu_i + grad f_i(x_i)).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    x_i = np.asarray(x_i, dtype=float)
    xbar_i = np.asarray(xbar_i, dtype=float)
    return gradient_step(x_i, xbar_i, np.asarray(mu_i, dtype=float), cost.grad(x_i), beta, rho)


def accelerated_gradient(grad, x0, m, lip, tol, max_iterations):
    """Nesterov's method for an m-strongly convex objective with an
    lip-Lipschitz gradient grad, from x0: steps y - grad(y)/lip with momentum
    (1 - sqrt(m/lip)) / (1 + sqrt(m/lip)), the gradient norm at the iterate
    checked against tol every 10 steps and after the last. Returns the
    first iterate that passes the check, or None if none does within
    max_iterations steps.
    """
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


def al_objective_grad(stack: ObjectiveStack, net: NetworkModel, x, mu, rho):
    """Gradient of the augmented objective: grad F(x) + mu + rho (L (x) I) x."""
    d = stack.dimension
    return grad_stack(stack, x) + np.asarray(mu, dtype=float) + rho * net.laplacian_apply(x, d)


def exact_al_minimizer(
    stack: ObjectiveStack,
    net: NetworkModel,
    mu,
    rho,
    tol=1e-12,
    x0=None,
    max_iterations=2_000_000,
) -> np.ndarray:
    """High-accuracy minimizer of the augmented objective over R^{Nd}.

    Accelerated gradient until the stacked gradient norm is <= tol. Test
    oracle for the exact primal update; not used inside the distributed
    algorithms.
    """
    n, d = stack.n_nodes, stack.dimension
    mu = np.asarray(mu, dtype=float)
    x = np.zeros(n * d) if x0 is None else np.asarray(x0, dtype=float)
    x = accelerated_gradient(lambda z: al_objective_grad(stack, net, z, mu, rho), x,
                             stack.h_min, stack.h_max + rho * net.spec.lambda_max, tol,
                             max_iterations)
    if x is None:
        raise SolverError(f"augmented-objective solve did not reach tol={tol}")
    return x


def exact_al_minimizer_direct(stack: ObjectiveStack, net: NetworkModel, mu, rho) -> np.ndarray:
    """Closed-form oracle for all-quadratic stacks: solve
    (blockdiag(A_i) + rho L (x) I) x = -(b_stack + mu)."""
    if stack.kind != "quadratic":
        raise TypeError("direct solve applies to all-quadratic stacks only")
    n, d = stack.n_nodes, stack.dimension
    mu = np.asarray(mu, dtype=float)
    h = np.zeros((n, d, n, d))
    h[np.arange(n), :, np.arange(n), :] = stack.matrices
    h = h.reshape(n * d, n * d) + rho * np.kron(net.spec.laplacian, np.eye(d))
    return np.linalg.solve(h, -(stack.linears.reshape(-1) + mu))
