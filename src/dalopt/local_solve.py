"""Local subproblem solvers.

Three pieces: the per-node proximal problem solved by an accelerated
gradient method with a precomputed iteration budget, the single gradient
step used by the gradient-type algorithm variants, and a high-accuracy
minimizer of the full augmented objective used as a test oracle. That
minimizer and harness.reference_solve run one accelerated-gradient loop,
accelerated_gradient. The
runs use array-form kernels of the first two. One prox kernel,
node_prox_solver, solves all nodes at once for the Jacobi sweeps and one
node at a time for the Gauss-Seidel ticks. The gradient step runs on all nodes at once
for the synchronized sweeps and one node at a time for the randomized
ticks, where a tick is one row product over the current blocks. The
per-node forms, prox_local_info and gradient_step_local, are the kernels'
reference oracles.
"""

from __future__ import annotations

import math

import numpy as np

from .network import NetworkModel
from .objective import ObjectiveStack, grad_stack, row_dots

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
    lip = cost.h_max + cost.h_min + rho  # looser than h_max + rho; every trace is made with it

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


_STEP = np.array([[0.0], [1.0]])  # a step takes (p, q) to (a p, a q) - _STEP


def _x_after(a, y):
    """The x-iterate row (a p_y, a q_y - 1) that a step takes y to."""
    return a * y - _STEP


def _grown(rows, n, a, mom):
    """rows, the y rows p_y, q_y of modes with step factors a and momentum
    mom after 0, ..., m steps, walked on to at least n and 2m steps, so
    that repeated growth amortizes. A step takes y to the x-iterate
    _x_after(a, y) and that to the y-iterate x + mom (x - x_before),
    elementwise in float arithmetic."""
    end = len(rows) - 1
    grown = np.empty((max(n, 2 * end) + 1,) + rows.shape[1:])
    grown[:end + 1] = rows
    x = _x_after(a, rows[end - 1]) if end else rows[0].copy()
    step = np.empty_like(x)
    for y, after in zip(grown[end:-1], grown[end + 1:]):
        np.multiply(a, y, out=step)
        step -= _STEP
        np.subtract(step, x, out=after)
        after *= mom
        after += step
        x, step = step, x
    return grown


BAND = 1e-12  # a polish check decides from scalars outside BAND * S^2 of target^2


def node_prox_solver(stack: ObjectiveStack, rho, epsilon, max_iterations=MAX_ITERATIONS):
    """The prox kernel of the Jacobi sweeps and of the Gauss-Seidel ticks:
    prox_local_info for the nodes of the stack, from its array form.

    Returns solve(i, v, x0) -> (y, gradient evaluations): node i's prox
    problem min_y f_i(y) + v'y + (rho/2)||y||^2 solved from the warm start
    x0 on prox_local_info's schedule (R' from the warm start, the planned
    step count, polish rounds of max(planned, 8) steps, SolverError naming
    the node at the iteration cap). solve.sweep(v, x0) solves every node
    from (N, d) rows, bit for bit as solve would. A Nesterov step y -> y - g(y)/L_i
    splits into modes with step factors a, each iterate p times the mode's
    start plus q times its step, where p and q depend on a and the step
    count alone. Walk tables, built here and shared by every solve, hold p
    and q of the y-iterates of the modes, from which those of the
    x-iterates follow (_x_after): one table per band of nodes that plan
    alike. A solve's planned steps grow its band's table, all the band's
    modes at once; its polish rounds past the table walk rows of the
    node's own. Both grow by doubling (_grown), and a solve that runs on to
    the iteration cap walks its node's modes alone that far.

    - logistic: one mode per node, a_i = 1 - (reg_i + rho)/L_i, and
      y -> a_i y - w + (sigma(-c_i'y)/L_i) c_i with w = v/L_i. Every
      iterate is p x0 + q w + r c_i; a step updates r in float arithmetic,
      with c_i'y from c_i'x0, c_i'w and c_i'c_i;
    - quadratic: the d eigenvectors Q_i of A_i are the modes, with
      a = 1 - (lambda_ij + rho)/L_i. With sigma_i = Q_i'g(x0)/L_i the
      iterate is x0 + Q_i (q o sigma_i) and its prox gradient
      L_i Q_i (p o sigma_i), so a node at its optimum stays there exactly.

    A polish check takes the gradient norm from scalars: a quadratic form
    in the Gram matrix of x0, w and c_i, or L_i ||p o sigma_i||. Within
    BAND * S^2 of the target, S bounding the terms the vector gradient
    sums, it forms x and checks node_grad(i, x) + v + rho x instead, so
    every decision is the one that vector check takes.
    """
    nu = stack.node_h_min + rho
    lip = stack.node_h_max + stack.node_h_min + rho  # as in prox_local_info
    q = nu / lip
    sq = np.sqrt(q)
    momentum = (1.0 - sq) / (1.0 + sq)
    target = np.sqrt(2.0 * nu * epsilon).tolist()
    if stack.kind == "logistic":
        a = 1.0 - (stack.node_reg + rho) / lip
        mom, width = momentum, 1
    else:
        values, vectors = stack.eigen
        a = (1.0 - (values + rho) / lip[:, None]).reshape(-1)
        mom, width = np.repeat(momentum, stack.dimension), stack.dimension
    # a solve plans about l / r_i steps, with r_i = |log(1 - sqrt(q_i))| and
    # l the log of a distance ratio, alike across nodes. The nodes whose
    # 1/r_i lie within one power of 2 share a table: grown to one node's
    # planned steps, it about fits the others of its band, and a node that
    # plans far more steps than most grows its own band's table alone
    bands = {}  # band -> its nodes; np.unique would import numpy.ma, 1 MB of RSS
    for i, b in enumerate(np.frexp(-1.0 / np.log1p(-sq))[1].tolist()):
        bands.setdefault(b, []).append(i)
    where = [None] * len(sq)  # node -> its band's [rows, a, mom], its modes there
    for nodes in bands.values():
        cols = (np.array(nodes)[:, None] * width + np.arange(width)).reshape(-1)
        entry = [np.array([[[1.0] * len(cols), [0.0] * len(cols)]]), a[cols], mom[cols]]
        for k, i in enumerate(nodes):
            where[i] = entry, slice(k * width, (k + 1) * width)
    node_a, node_mom = list(a.reshape(-1, width)), list(mom.reshape(-1, width))
    polish = {}  # node -> its rows past its band's table

    def walk(i, n, first):
        """(n' + 1, 2, width), n' >= n: the y rows of node i's modes after
        0, ..., n' steps; first says that a solve's planned steps ask."""
        entry, own = where[i]
        if first and n >= len(entry[0]):
            entry[0] = _grown(entry[0], n, entry[1], entry[2])
        if n < len(entry[0]):
            return entry[0][:, :, own]
        rows = polish.get(i)
        if rows is None or len(rows) <= n:
            rows = polish[i] = _grown(entry[0][:, :, own] if rows is None else rows, n,
                                      node_a[i], node_mom[i])
        return rows

    nus, lips, targets = nu, lip, np.array(target)
    nu, lip, q, momentum = nu.tolist(), lip.tolist(), q.tolist(), momentum.tolist()
    node_grad = stack.node_grad
    # a solve keeps its state in one list, not in closures made per solve:
    # CPython 3.11 keeps up to 2000 freed closure tuples of each size up to
    # 20 on a free list, 0.4 MB for the logistic walk's

    if stack.kind == "logistic":
        samples = stack.samples
        factors, nr = a.tolist(), (stack.node_reg + rho).tolist()
        cc = (samples * samples).sum(axis=1).tolist()
        norms = [math.sqrt(v) for v in cc]
        exp = math.exp

        def begin(i, v, x0, ng):
            """Node i's walk from x0: steps, r_x, r_y, p_x and q_x, x0, w,
            then c_i'x0, c_i'w and the Gram entries and norms of x0 and w."""
            c, w = samples[i], v / lip[i]
            x0x0, x0w, ww = float(x0.dot(x0)), float(x0.dot(w)), float(w.dot(w))
            return [0, 0.0, 0.0, 1.0, 0.0, x0, w, float(c @ x0), float(c @ w),
                    x0x0, x0w, ww, math.sqrt(x0x0), math.sqrt(ww)]

        def advance(i, state, n):
            """n more steps of node i's walk: (|g|^2, S^2) at the x-iterate."""
            k, rx, ry, _, _, _, _, cx0, cw, x0x0, x0w, ww, nx0, nw = state
            lip_i, m_i, a_i, nr_i, cc_i = lip[i], momentum[i], factors[i], nr[i], cc[i]
            rows = walk(i, k + n - 1, not k)[k:k + n, :, 0]  # y after k, ..., k + n - 1 steps
            for z in (rows[:, 0] * cx0 + rows[:, 1] * cw).tolist():
                u = z + ry * cc_i  # c_i'y; sigma(-u) without overflow
                if u <= 0.0:
                    s = 1.0 / (1.0 + exp(u))
                else:
                    e = exp(-u)
                    s = e / (1.0 + e)
                rn = a_i * ry + s / lip_i
                ry = rn + m_i * (rn - rx)
                rx = rn
            py, qy = rows[-1].tolist()
            px, qx = a_i * py, a_i * qy - 1.0
            state[:5] = k + n, rx, ry, px, qx
            u = px * cx0 + qx * cw + rx * cc_i  # c_i'x
            e = exp(-abs(u))
            s = 1.0 / (1.0 + e) if u <= 0.0 else e / (1.0 + e)
            # g = (reg_i + rho) x - sigma(-c_i'x) c_i + L_i w
            al, be, ga = nr_i * px, nr_i * qx + lip_i, nr_i * rx - s
            g2 = (al * al * x0x0 + be * be * ww + ga * ga * cc_i
                  + 2.0 * (al * be * x0w + al * ga * cx0 + be * ga * cw))
            # L_i >= reg_i + rho + |c_i|^2/4 bounds sigma's slope too
            nc = norms[i]
            terms = lip_i * (abs(px) * nx0 + (abs(qx) + 1.0) * nw + abs(rx) * nc) + nc
            return g2, terms * terms

        def point(i, state):
            _, rx, _, px, qx, x0, w = state[:7]
            return px * x0 + qx * w + rx * samples[i]

        def first_round(plans, v, x0, ng):
            """begin and advance for every node: (|g|^2, S^2, x) rows."""
            w = v / lips[:, None]
            dots = [row_dots(a, b).tolist() for a, b in
                    ((samples, x0), (samples, w), (x0, x0), (x0, w), (w, w))]
            rows = []
            for i, (n, cx0, cw, x0x0, x0w, ww) in enumerate(zip(plans.tolist(), *dots)):
                state = [0, 0.0, 0.0, 1.0, 0.0, None, None, cx0, cw, x0x0, x0w, ww,
                         math.sqrt(x0x0), math.sqrt(ww)]
                rows.append(advance(i, state, n) + tuple(state[1:5]))
            g2, s2, rx, _, px, qx = np.array(rows).T[:, :, None]
            return g2[:, 0], s2[:, 0], px * x0 + qx * w + rx * samples
    else:
        bases = list(vectors)
        scaled = vectors.transpose(0, 2, 1) / lips[:, None, None]  # Q_i'/L_i
        coordinates = list(scaled)
        matrices, linears = list(stack.matrices), list(stack.linears)

        def node_grad(i, x):  # stack.node_grad's arithmetic, without its dispatch
            return matrices[i] @ x + linears[i]

        def begin(i, v, x0, ng):
            """Node i's walk from x0: steps, x0, sigma_i, 2|x0| + |sigma_i|
            and q o sigma_i."""
            sigma = coordinates[i] @ (ng + v + rho * x0)
            reach = 2.0 * math.sqrt(x0.dot(x0)) + math.sqrt(sigma.dot(sigma))
            return [0, x0, sigma, reach, None]

        def advance(i, state, n):
            """n more steps of node i's walk: (|g|^2, S^2) at the x-iterate."""
            k, _, sigma, reach, _ = state
            p, e = _x_after(node_a[i], walk(i, k + n - 1, not k)[k + n - 1]) * sigma
            state[0], state[4] = k + n, e
            lip_i = lip[i]
            # the vector check sums terms of size L_i (|x0| + |x - x0|) and |b_i + v|
            terms = lip_i * (reach + math.sqrt(e.dot(e)))
            return lip_i * lip_i * p.dot(p), terms * terms

        def point(i, state):
            return state[1] + bases[i] @ state[4]

        def first_round(plans, v, x0, ng):
            """begin and advance for every node: (|g|^2, S^2, x) rows."""
            sigma = np.matmul(scaled, (ng + v + rho * x0)[:, :, None])[:, :, 0]  # stacked, exact
            reach = 2.0 * np.sqrt(row_dots(x0, x0)) + np.sqrt(row_dots(sigma, sigma))
            ys = np.empty((len(plans), 2, width))
            for nodes in bands.values():  # each node's row from its band's table
                steps = plans[nodes] - 1
                walk(nodes[0], steps.max(), True)  # grows the band's table
                rows = where[nodes[0]][0][0]
                ys[nodes] = rows.reshape(len(rows), 2, -1, width)[steps, :, range(len(nodes))]
            p, e = (_x_after(a.reshape(-1, 1, width), ys) * sigma[:, None]).swapaxes(0, 1)
            terms = lips * (reach + np.sqrt(row_dots(e, e)))
            y = x0 + np.matmul(vectors, e[:, :, None])[:, :, 0]
            return lips * lips * row_dots(p, p), terms * terms, y

    def solve(i, v, x0):
        """Node i's prox solve: (y, gradient evaluations)."""
        nu_i, target_i = nu[i], target[i]
        ng = node_grad(i, x0)
        g = ng + nu_i * x0 + v
        r_dist = math.sqrt(g.dot(g)) / nu_i
        if r_dist == 0.0:
            return x0.copy(), 1
        planned = min(_planned_iterations(epsilon, r_dist, lip[i], q[i]), max_iterations)
        state = begin(i, v, x0, ng)
        it, grads = 0, 1
        while True:
            g2, s2 = advance(i, state, planned)
            it += planned
            grads += planned + 1
            # strong-convexity certificate: gap <= ||grad||^2 / (2 nu)
            if abs(g2 - target_i * target_i) > BAND * s2:
                gn = math.sqrt(max(g2, 0.0))
            else:
                x = point(i, state)
                g = node_grad(i, x) + v + rho * x
                gn = math.sqrt(g.dot(g))
            if gn <= target_i:
                return point(i, state), grads
            if it >= max_iterations:
                raise SolverError(
                    f"prox solve at node {i} exceeded {max_iterations} iterations "
                    f"(gradient norm {gn:.3e} > {target_i:.3e}); Hessian bounds suspect"
                )
            planned = min(max(planned, 8), max_iterations - it)

    def sweep(v, x0):
        """solve for every node, from (N, d) rows v and x0: (y, gradient
        evaluations). Every solve's first round and polish check run as array
        work that rounds as solve does; a node at its optimum, with a check
        inside the band or one that fails, takes solve, in node order."""
        ng = stack.node_grad_rows(x0)
        g = ng + nus[:, None] * x0 + v
        r_dist = np.sqrt(row_dots(g, g)) / nus
        plans = np.array([min(_planned_iterations(epsilon, r, lip[i], q[i]), max_iterations)
                          if r else 1 for i, r in enumerate(r_dist.tolist())])
        g2, s2, y = first_round(plans, v, x0, ng)
        done = ((np.abs(g2 - targets * targets) > BAND * s2) & (r_dist != 0.0)
                & (np.sqrt(np.maximum(g2, 0.0)) <= targets))
        grads = int((plans[done] + 2).sum())
        for i in np.flatnonzero(~done).tolist():
            y[i], g_i = solve(i, v[i], x0[i])
            grads += g_i
        return y, grads

    solve.sweep = sweep
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
    checked against tol before every 10th step and after the last. Returns
    (x, g): the first iterate that passes the check, or None if none does
    within max_iterations steps, and the gradient of the last check. grad
    runs once per step and once per check, but for the first step, which
    takes the first check's gradient at y = x0.
    """
    sq = math.sqrt(m / lip)
    momentum = (1.0 - sq) / (1.0 + sq)
    x = x0.copy()
    y = x0.copy()
    for it in range(max_iterations):
        if it % 10 == 0:
            g = grad(x)
            if math.sqrt(g.dot(g)) <= tol:  # np.linalg.norm of a 1-D vector
                return x, g
        x_new = y - (g if it == 0 else grad(y)) / lip
        y = x_new + momentum * (x_new - x)
        x = x_new
    g = grad(x)
    return (x if math.sqrt(g.dot(g)) <= tol else None), g


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
    x, _ = accelerated_gradient(lambda z: al_objective_grad(stack, net, z, mu, rho), x,
                                stack.h_min, stack.h_max + rho * net.lambda_max, tol,
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
    h = h.reshape(n * d, n * d) + rho * np.kron(np.eye(n) - net.weights, np.eye(d))
    return np.linalg.solve(h, -(stack.linears.reshape(-1) + mu))
