"""Per-node prox solver, gradient step, exact augmented-objective oracle."""

import numpy as np
import pytest

from dalopt.local_solve import (
    SolverError,
    al_objective_grad,
    exact_al_minimizer,
    exact_al_minimizer_direct,
    gradient_step_local,
    node_gradient_step,
    node_prox_solver,
    prox_local_info,
)
from dalopt.almethods import jacobi_sweeps
from dalopt.harness import generate_logistic_data
from dalopt.network import build_chain_graph, build_network
from dalopt.objective import LogisticCost, ObjectiveStack, QuadraticCost, grad_stack
from dalopt.theory import saddle_point


def scalar_quadratic(center, curvature=1.0):
    return QuadraticCost(matrix=np.array([[curvature]]), linear=np.array([-curvature * center]))


class TestProxLocal:
    def test_already_optimal_short_circuits(self):
        y, grads = prox_local_info(scalar_quadratic(0.0), 1.0, np.zeros(1), np.zeros(1))
        assert y == pytest.approx(0.0)
        assert grads == 1  # only the distance-estimate evaluation

    def test_quadratic_closed_form(self):
        # min 0.5 (y-3)^2 + 0.5 y^2 -> y = 3/2
        cost, rho, eps = scalar_quadratic(3.0), 1.0, 1e-8
        y, _ = prox_local_info(cost, rho, np.zeros(1), np.zeros(1), epsilon=eps)
        nu = cost.h_min + rho
        assert abs(float(y[0]) - 1.5) <= np.sqrt(2 * eps / nu)

    def test_matches_linear_solve_oracle(self, rng):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        cost = QuadraticCost(matrix=a, linear=rng.standard_normal(2))
        v = rng.standard_normal(2)
        rho = 0.7
        y, _ = prox_local_info(cost, rho, v, np.zeros(2), epsilon=1e-12)
        oracle = np.linalg.solve(a + rho * np.eye(2), -(cost.linear + v))
        assert np.allclose(y, oracle, atol=1e-5)

    def test_logistic_gradient_norm_certificate(self, rng):
        cost = LogisticCost(feature=rng.standard_normal(4), label=1, reg=1.0, n_nodes=3)
        v = rng.standard_normal(5)
        rho = 0.5
        eps = 1e-6
        y, _ = prox_local_info(cost, rho, v, np.zeros(5), epsilon=eps)
        gn = np.linalg.norm(cost.grad(y) + v + rho * y)
        assert gn <= np.sqrt(2 * (cost.h_max + rho) * eps)

    def test_iteration_cap_raises(self):
        with pytest.raises(SolverError, match="exceeded"):
            prox_local_info(scalar_quadratic(100.0), 0.0, np.zeros(1), np.zeros(1),
                            epsilon=1e-14, max_iterations=2)

    @pytest.mark.parametrize("rho, epsilon, match", [(-1.0, 1e-5, "rho"), (1.0, 0.0, "epsilon")])
    def test_rejects_bad_parameters(self, rho, epsilon, match):
        with pytest.raises(ValueError, match=match):
            prox_local_info(scalar_quadratic(0.0), rho, np.zeros(1), np.ones(1), epsilon)


def per_node_prox(stack, rho, v, x0, epsilon, max_iterations=200_000):
    """prox_local_info node by node: the oracle of node_prox_solver and of
    the Jacobi sweeps."""
    out = [
        prox_local_info(c, rho, vi, xi, epsilon, max_iterations)
        for c, vi, xi in zip(stack.costs, v, x0)
    ]
    return np.array([y for y, _ in out]), np.array([g for _, g in out])


def jacobi_sweep(stack, rho, v, x0, epsilon):
    """One sweep of jacobi_sweeps on a chain of the stack's nodes, with mu
    set so that node i's linear term mu_i - rho xbar_i is v_i up to
    rounding (exactly, when v is 0). Returns (y, gradient evaluations, the
    linear terms the sweep used), y and the terms as (N, d)."""
    n, d = stack.n_nodes, stack.dimension
    net = build_network(build_chain_graph(n))
    xbar = net.weights_apply(x0.reshape(-1), d)
    mu = v.reshape(-1) + rho * xbar
    solve = node_prox_solver(stack, rho, epsilon)
    y, _, grads = jacobi_sweeps(stack, net, x0.reshape(-1), mu, rho, 1, solve, xbar)
    return y.reshape(n, d), grads, (mu - rho * xbar).reshape(n, d)


class TestJacobiSweepSolves:
    """A Jacobi sweep solves every node's prox problem on node_prox_solver,
    as prox_local_info would, node by node."""

    def test_matches_per_node_solves(self, rng, quad5_stack):
        for stack in (quad5_stack, generate_logistic_data(7, 4, reg=0.5, seed=3)):
            n, d = stack.n_nodes, stack.dimension
            x0 = rng.standard_normal((n, d))
            y, grads, v = jacobi_sweep(stack, 0.8, rng.standard_normal((n, d)), x0, 1e-9)
            y_ref, grads_ref = per_node_prox(stack, 0.8, v, x0, 1e-9)
            assert np.abs(y - y_ref).max() <= 1e-12
            assert grads == grads_ref.sum()

    def test_polish_round_counts_match(self):
        from dalopt.local_solve import _planned_iterations

        # node 0's warm start understates its distance, so its planned
        # steps fall short and it needs polish rounds; nodes 1 and 2 do not
        stack = ObjectiveStack(tuple(scalar_quadratic(c) for c in (1.0, -0.5, -2.0)))
        rho, eps = 0.1, 1e-3
        v = np.zeros((3, 1))
        x0 = np.array([[0.5], [0.0], [1.0]])
        y, total, v_used = jacobi_sweep(stack, rho, v, x0, eps)
        assert np.array_equal(v_used, v)
        y_ref, grads_ref = per_node_prox(stack, rho, v, x0, eps)
        assert np.abs(y - y_ref).max() <= 1e-12
        solve = node_prox_solver(stack, rho, eps)
        grads = [solve(i, v[i], x0[i])[1] for i in range(3)]
        assert grads == grads_ref.tolist() and total == sum(grads)
        nu, lip = 1.0 + rho, 2.0 + rho
        r_dist = abs(float(stack.costs[0].grad(x0[0])[0]) + nu * 0.5) / nu
        planned = _planned_iterations(eps, r_dist, lip, nu / lip)
        assert grads[0] > planned + 2  # the initial gradient, planned steps, one check

    def test_iteration_cap_raises_like_per_node(self, quad5_stack, rng):
        n, d = quad5_stack.n_nodes, quad5_stack.dimension
        v = rng.standard_normal((n, d))
        x0 = np.zeros((n, d))
        with pytest.raises(SolverError, match="exceeded 3 iterations"):
            per_node_prox(quad5_stack, 1.0, v, x0, 1e-14, max_iterations=3)
        # no gradient norm reaches sqrt(2 nu 1e-300): the sweep's solve of
        # node 0 runs into the default cap
        with pytest.raises(SolverError, match="at node 0 exceeded 200000 iterations"):
            jacobi_sweep(quad5_stack, 1.0, v, x0, 1e-300)

    def test_node_at_its_optimum_costs_one_gradient(self):
        stack = ObjectiveStack((scalar_quadratic(0.0), scalar_quadratic(3.0)))
        v, x0 = np.zeros((2, 1)), np.zeros((2, 1))
        y, grads, _ = jacobi_sweep(stack, 1.0, v, x0, 1e-8)
        _, grads_1 = prox_local_info(stack.costs[1], 1.0, v[1], x0[1], 1e-8)
        assert y[0, 0] == 0.0 and grads == 1 + grads_1
        assert grads_1 > 1


class TestNodeProxSolver:
    """node_prox_solver against prox_local_info, node by node, on a
    logistic and a quadratic stack."""

    @staticmethod
    def stacks(quad5_stack):
        return quad5_stack, generate_logistic_data(7, 4, reg=0.5, seed=3)

    @staticmethod
    def solve_all(stack, rho, v, x0, epsilon, max_iterations=200_000):
        solve = node_prox_solver(stack, rho, epsilon, max_iterations)
        out = [solve(i, v[i], x0[i]) for i in range(stack.n_nodes)]
        return np.array([y for y, _ in out]), np.array([g for _, g in out])

    def check(self, stack, rho, v, x0, epsilon, tol=1e-12):
        y, grads = self.solve_all(stack, rho, v, x0, epsilon)
        y_ref, grads_ref = per_node_prox(stack, rho, v, x0, epsilon)
        assert np.all(np.isfinite(y))
        assert np.abs(y - y_ref).max() <= tol
        assert grads.tolist() == grads_ref.tolist()
        return grads

    @pytest.mark.parametrize("rho, epsilon", [(0.8, 1e-9), (0.1, 1e-5), (3.0, 1e-12)])
    def test_matches_prox_local_info(self, rng, quad5_stack, rho, epsilon):
        for stack in self.stacks(quad5_stack):
            n, d = stack.n_nodes, stack.dimension
            self.check(stack, rho, rng.standard_normal((n, d)), rng.standard_normal((n, d)),
                       epsilon)

    def test_polish_rounds_match(self, quad5_stack):
        from dalopt.local_solve import _planned_iterations

        # v nearly cancels the distance estimate at x0, which then understates
        # the distance to the solution: every node's planned steps fall short
        rho, eps = 0.8, 1e-9
        for stack in self.stacks(quad5_stack):
            n, d = stack.n_nodes, stack.dimension
            nu = stack.node_h_min + rho
            lip = stack.node_h_max + stack.node_h_min + rho
            x0 = np.tile(np.linspace(-2.0, 2.0, d), (n, 1))
            v = -(stack.node_grads(x0) + nu[:, None] * x0) + 1e-3
            grads = self.check(stack, rho, v, x0, eps)
            for i in range(n):
                r_dist = np.linalg.norm(stack.node_grad(i, x0[i]) + nu[i] * x0[i] + v[i]) / nu[i]
                planned = _planned_iterations(eps, r_dist, lip[i], nu[i] / lip[i])
                assert grads[i] > planned + 2  # the initial gradient, planned steps, one check

    def test_optimal_warm_start_short_circuits(self):
        stack = ObjectiveStack((scalar_quadratic(0.0), scalar_quadratic(3.0)))
        solve = node_prox_solver(stack, 1.0, 1e-8)
        x0 = np.zeros(1)
        y, grads = solve(0, np.zeros(1), x0)
        assert grads == 1 and y[0] == 0.0 and y is not x0
        assert solve(1, np.zeros(1), x0)[1] > 1

    def test_iteration_cap_raises_like_prox_local_info(self, quad5_stack, rng):
        for stack in self.stacks(quad5_stack):
            n, d = stack.n_nodes, stack.dimension
            v = 10.0 * rng.standard_normal((n, d))
            x0 = np.zeros((n, d))
            with pytest.raises(SolverError, match="exceeded 3 iterations"):
                per_node_prox(stack, 1.0, v, x0, 1e-14, max_iterations=3)
            with pytest.raises(SolverError, match="at node 0 exceeded 3 iterations"):
                self.solve_all(stack, 1.0, v, x0, 1e-14, max_iterations=3)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_large_arguments_stay_finite(self, quad5_stack, sign):
        # c'x0 and v reach the hundreds, where exp(-c'y) overflows unless the
        # logistic sigmoid is taken in its stable branch
        for stack in self.stacks(quad5_stack):
            n, d = stack.n_nodes, stack.dimension
            x0 = np.full((n, d), 500.0 * sign)
            v = np.full((n, d), -500.0 * sign)
            self.check(stack, 0.5, v, x0, 1e-6, tol=1e-12 * 500.0)


class TestNodeGradientStep:
    """node_gradient_step's ticks against gradient_step_local, one tick at a
    time, with the neighbor averages recomputed as W x before every tick."""

    @pytest.mark.parametrize("scale", [1.0, 500.0])
    def test_matches_gradient_step_local(self, rng, quad5_stack, scale):
        beta, rho = 0.05, 1.3
        for stack in TestNodeProxSolver.stacks(quad5_stack):
            n, d = stack.n_nodes, stack.dimension
            w = build_network(build_chain_graph(n)).weights.entries
            x0, mu = (scale * rng.standard_normal((n, d)) for _ in range(2))
            ticks = node_gradient_step(stack, w, beta, rho)
            nodes = [*range(n), 2, 2, 0, n - 1, 2]
            x, ref, mu_given = x0.copy(), x0.copy(), mu.copy()
            for i in nodes:
                ticks([i], x, mu)
                ref[i] = gradient_step_local(stack.costs[i], ref[i], (w @ ref)[i], mu[i],
                                             beta, rho)
                assert np.all(np.isfinite(x))
                assert np.abs(x - ref).max() <= 1e-13 * scale
            assert np.array_equal(mu, mu_given)
            # one call with every tick does what one call per tick did
            x_all = x0.copy()
            ticks(nodes, x_all, mu)
            assert np.array_equal(x_all, x)

    def test_rejects_nonpositive_beta(self, chain5_net, quad5_stack):
        with pytest.raises(ValueError, match="beta"):
            node_gradient_step(quad5_stack, chain5_net.weights.entries, 0.0, 1.0)


class TestGradientStepLocal:
    def test_fixed_point(self, rng):
        cost = scalar_quadratic(2.0)
        x = rng.standard_normal(1)
        mu = -cost.grad(x)
        out = gradient_step_local(cost, x, x, mu, beta=1.0, rho=1.0)
        assert np.allclose(out, x, atol=1e-15)

    def test_direct_arithmetic(self):
        cost = scalar_quadratic(0.0)
        out = gradient_step_local(
            cost, np.array([1.0]), np.array([1.0]), np.zeros(1), beta=0.1, rho=1.0
        )
        assert out == pytest.approx(0.9)

    def test_matches_stacked_al_gradient(self, rng, chain5_net, quad5_stack):
        net, stack = chain5_net, quad5_stack
        n, d = stack.n_nodes, stack.dimension
        x = rng.standard_normal(n * d)
        mu = rng.standard_normal(n * d)
        beta, rho = 0.05, 1.3
        xbar = net.weights_apply(x, d)
        stepped = np.concatenate([
            gradient_step_local(
                stack.costs[i],
                x[i * d : (i + 1) * d],
                xbar[i * d : (i + 1) * d],
                mu[i * d : (i + 1) * d],
                beta,
                rho,
            )
            for i in range(n)
        ])
        oracle = x - beta * al_objective_grad(stack, net, x, mu, rho)
        assert np.allclose(stepped, oracle, atol=1e-12)


class TestExactAlMinimizer:
    def test_rho_zero_decouples(self, chain5_net, quad5_stack, rng):
        net, stack = chain5_net, quad5_stack
        n, d = stack.n_nodes, stack.dimension
        mu = rng.standard_normal(n * d)
        x = exact_al_minimizer(stack, net, mu, rho=0.0, tol=1e-12)
        for i, c in enumerate(stack.costs):
            block = np.linalg.solve(c.matrix, -(c.linear + mu[i * d : (i + 1) * d]))
            assert np.allclose(x[i * d : (i + 1) * d], block, atol=1e-9)

    def test_matches_direct_solve(self, chain5_net, quad5_stack, rng):
        net, stack = chain5_net, quad5_stack
        mu = rng.standard_normal(stack.n_nodes * stack.dimension)
        rho = 2.0
        x_it = exact_al_minimizer(stack, net, mu, rho, tol=1e-12)
        x_direct = exact_al_minimizer_direct(stack, net, mu, rho)
        assert np.allclose(x_it, x_direct, atol=1e-9)

    def test_saddle_dual_returns_consensus(self, chain5_net, quad5_stack, quad5_ref):
        net, stack, ref = chain5_net, quad5_stack, quad5_ref
        saddle = saddle_point(stack, ref.x_star)
        x = exact_al_minimizer(stack, net, saddle.mu_bullet, rho=1.0, tol=1e-12)
        assert np.allclose(x, saddle.x_bullet, atol=1e-9)

    def test_stationarity_residual(self, chain5_net, quad5_stack, rng):
        net, stack = chain5_net, quad5_stack
        mu = rng.standard_normal(stack.n_nodes * stack.dimension)
        rho, tol = 1.5, 1e-11
        x = exact_al_minimizer(stack, net, mu, rho, tol=tol)
        g = grad_stack(stack, x) + mu + rho * net.laplacian_apply(x, stack.dimension)
        assert np.linalg.norm(g) <= tol

    def test_logistic_iteration_cap(self, chain5_net):
        stack = generate_logistic_data(5, 3, reg=2.0, seed=1)
        with pytest.raises(SolverError, match="did not reach tol=1e-12"):
            exact_al_minimizer(stack, chain5_net, np.zeros(15), rho=1.0, tol=1e-12,
                               max_iterations=3)


class TestJacobiSweepContraction:
    def test_single_sweep_bound(self, chain5_net, quad5_stack, rng):
        # one full sweep of exact-ish prox solves contracts the distance to
        # the exact augmented-objective minimizer by <= rho/(rho+h_min)
        from dalopt.almethods import jacobi_sweeps

        net, stack = chain5_net, quad5_stack
        n, d = stack.n_nodes, stack.dimension
        rho = stack.h_min
        eps = 1e-12
        mu = rng.standard_normal(n * d)
        mu = mu - np.tile(mu.reshape(n, d).mean(axis=0), n)  # zero block sum
        x = rng.standard_normal(d)
        x = np.tile(x, n) + rng.standard_normal(n * d)
        x_prime = exact_al_minimizer_direct(stack, net, mu, rho)
        solve = node_prox_solver(stack, rho, eps)
        x_new, _, _ = jacobi_sweeps(stack, net, x, mu, rho, 1, solve, net.weights_apply(x, d))
        delta = rho / (rho + stack.h_min)
        c_slack = 2 * np.sqrt(2 * (stack.h_max + rho)) / (stack.h_min + rho)
        num = np.linalg.norm(x_new - x_prime)
        den = np.linalg.norm(x - x_prime)
        assert num <= (delta + c_slack * np.sqrt(eps)) * den
