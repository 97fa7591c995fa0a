"""Algorithm drivers: dual ascent, sweeps, Poisson schedules, traces."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dalopt import almethods
from dalopt.almethods import (
    AlgorithmConfig,
    ConfigError,
    PoissonSchedule,
    TRACE_HEADER,
    VARIANTS,
    gradient_sweeps,
    jacobi_sweeps,
    read_trace_csv,
    run_variant,
    sample_poisson_schedule,
    write_trace_csv,
)
from dalopt.harness import (
    generate_logistic_data,
    generate_quadratic_stack,
    reference_solve,
    trace_metrics,
)
from dalopt.local_solve import (
    exact_al_minimizer_direct,
    gradient_step_local,
    node_prox_solver,
    prox_local_info,
)
from dalopt.network import (
    NetworkModel,
    build_chain_graph,
    build_complete_graph,
    build_geometric_graph,
    NetworkError,
    build_network,
    metropolis_weights,
    Graph,
)
from dalopt.objective import ObjectiveStack, QuadraticCost
from dalopt.theory import saddle_point

from oracles import node_costs, record_iterates, run_policy, stack_of


def scalar_quadratic(center):
    return QuadraticCost(matrix=np.array([[1.0]]), linear=np.array([-center]))


@pytest.fixture(scope="module")
def geo10_net():
    g, _ = build_geometric_graph(10, radius=0.6, rng_seed=1)
    return build_network(g)


@pytest.fixture(scope="module")
def quad10_stack():
    return generate_quadratic_stack(10, 3, seed=4, h_lo=1.0, h_hi=3.0)


class TestDualUpdate:
    """The dual step of the outer loop, mu <- mu + alpha (L (x) I) x, run
    through the outer loop with a policy that returns given iterates."""

    @staticmethod
    def dual_iterates(net, d, alpha, xs):
        stack = generate_quadratic_stack(net.node_count, d, seed=0)
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=alpha, rho=1.0, tau=1)
        given = iter(xs)
        _, mus, record = record_iterates()
        run_policy(stack, net, cfg, lambda x, mu: next(given), len(xs), stop=record)
        return mus

    def test_consensus_leaves_dual_unchanged(self, chain5_net, rng):
        x = np.tile(rng.standard_normal(2), 5)
        mus = self.dual_iterates(chain5_net, 2, 0.7, [x])
        assert np.allclose(mus[1], 0.0, atol=1e-14)

    def test_two_node_direct_arithmetic(self):
        g = build_chain_graph(2)
        net = NetworkModel(graph=g, weights=metropolis_weights(g))  # W off-diagonal 1/2
        mus = self.dual_iterates(net, 1, 1.0, [np.array([1.0, 0.0])])
        assert np.allclose(mus[1], [0.5, -0.5], atol=1e-15)

    def test_matches_stacked_laplacian_product(self, chain5_net, rng):
        d = 3
        x1, x2 = rng.standard_normal(15), rng.standard_normal(15)
        mus = self.dual_iterates(chain5_net, d, 0.3, [x1, x2])
        lap = np.kron(np.eye(5) - chain5_net.weights, np.eye(d))
        assert np.allclose(mus[1], 0.3 * lap @ x1, atol=1e-12)
        # the second step starts from the nonzero dual the first one left
        assert np.allclose(mus[2], mus[1] + 0.3 * lap @ x2, atol=1e-12)


class TestDetJacobi:
    def test_identical_quadratics_stationary(self):
        net = build_network(build_chain_graph(3))
        stack = stack_of(tuple(scalar_quadratic(2.5) for _ in range(3)))
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=1.0, rho=1.0, tau=2)
        xs, mus, record = record_iterates()
        run_variant(stack, net, cfg, 4, x0=np.full(3, 2.5), stop=record)
        assert len(xs) == 5
        for x, mu in zip(xs, mus):
            assert np.array_equal(x, np.full(3, 2.5))
            assert np.array_equal(mu, np.zeros(3))

    def test_chain3_converges_to_consensus_optimum(self):
        net = build_network(build_chain_graph(3))
        stack = stack_of(tuple(scalar_quadratic(c) for c in (0.0, 3.0, 6.0)))
        rho = stack.h_max
        alpha = stack.h_min + rho
        from dalopt.theory import resolve_recipe

        tau = resolve_recipe("section4_jacobi", stack.h_min, stack.h_max, net.lambda2)[4]
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=alpha, rho=rho, tau=tau, epsilon=1e-12)
        xs, _, record = record_iterates()
        run_variant(stack, net, cfg, 100, stop=record)
        x_star = 3.0  # mean of the centers for identical curvatures
        errs = np.array([np.linalg.norm(x - x_star) for x in xs])
        assert errs[-1] <= 1e-8 * errs[0]
        # geometric decrease: every 10 outer iterations shrink the error
        assert errs[20] < 0.5 * errs[10] and errs[30] < 0.5 * errs[20]

    def test_rho_zero_tau_one_decouples(self):
        net = build_network(build_chain_graph(3))
        stack = stack_of(tuple(scalar_quadratic(c) for c in (1.0, -2.0, 5.0)))
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=0.5, rho=0.0, tau=1, epsilon=1e-14)
        xs, _, record = record_iterates()
        run_variant(stack, net, cfg, 1, stop=record)
        assert np.allclose(xs[1], [1.0, -2.0, 5.0], atol=1e-6)

    def test_one_sweep_matches_per_node_solves(self, geo10_net, rng):
        stack, net = generate_logistic_data(10, 4, reg=2.0, seed=5), geo10_net
        rho, eps = 0.7, 1e-10
        x = rng.standard_normal(40)
        mu = rng.standard_normal(40)
        solve = node_prox_solver(stack, rho, eps)
        xbar = net.weights_apply(x, 4)
        out, grads = jacobi_sweeps(stack, net, x, mu, rho, 1, solve, xbar)
        v = mu - rho * net.weights_apply(x, 4)
        solves = [
            prox_local_info(c, rho, v[4 * i : 4 * i + 4], x[4 * i : 4 * i + 4], eps)
            for i, c in enumerate(node_costs(stack))
        ]
        assert np.abs(out - np.concatenate([y for y, _ in solves])).max() <= 1e-12
        assert grads == sum(g for _, g in solves)

    def test_transmission_counter(self, chain5_net, quad5_stack):
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=0.5, rho=1.0, tau=3)
        tr = run_variant(quad5_stack, chain5_net, cfg, 4)
        assert tr.transmissions == [0, 15, 30, 45, 60]

    @pytest.mark.parametrize("variant", ["det_jacobi", "rand_gauss_seidel"])
    def test_one_prox_solver_per_run(self, chain5_net, quad5_stack, monkeypatch, variant):
        built = []

        def counting(*args):
            built.append(args[1:])
            return node_prox_solver(*args)

        monkeypatch.setattr(almethods, "node_prox_solver", counting)
        cfg = AlgorithmConfig(variant=variant, alpha=0.5, rho=1.0, tau=2, epsilon=1e-8)
        run_variant(quad5_stack, chain5_net, cfg, 4)
        assert built == [(1.0, 1e-8)]

    def test_unequal_initialization_rejected(self, chain5_net, quad5_stack):
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=0.5, rho=1.0, tau=1)
        bad = np.arange(15.0)
        with pytest.raises(ConfigError, match="equal"):
            run_variant(quad5_stack, chain5_net, cfg, 1, x0=bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_initialization_rejected(self, chain5_net, quad5_stack, value):
        # equal non-finite blocks pass the equal-blocks test, as |x - x_0| is
        # nan there, and failed later, deep in the prox kernel
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=0.5, rho=1.0, tau=1)
        with pytest.raises(ConfigError, match="primal initialization must be finite"):
            run_variant(quad5_stack, chain5_net, cfg, 1, x0=np.full(15, value))

    def test_schedule_rejected(self, chain5_net, quad5_stack):
        # tick schedules drive the randomized variants only
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=0.5, rho=1.0, tau=1)
        sched = [PoissonSchedule(nodes=np.array([0]))]
        with pytest.raises(ConfigError, match="det_jacobi takes no tick schedule"):
            run_variant(quad5_stack, chain5_net, cfg, 1, schedule=sched)


class TestDetGradient:
    def test_saddle_point_is_fixed(self, chain5_net, quad5_stack, quad5_ref):
        saddle = saddle_point(quad5_stack, quad5_ref.x_star)
        beta = 1.0 / (quad5_stack.h_max + 1.0)
        x, _ = gradient_sweeps(
            quad5_stack, chain5_net, saddle.x_bullet, saddle.mu_bullet, 1.0, 3, beta,
            chain5_net.weights_apply(saddle.x_bullet, 3),
        )
        assert np.allclose(x, saddle.x_bullet, atol=1e-12)
        assert np.allclose(x - chain5_net.weights_apply(x, 3), 0.0, atol=1e-12)

    def test_one_sweep_equals_stacked_step(self, chain5_net, quad5_stack, rng):
        from dalopt.local_solve import al_objective_grad

        stack, net = quad5_stack, chain5_net
        x = np.tile(rng.standard_normal(3), 5)
        mu = rng.standard_normal(15)
        rho, beta = 1.2, 1.0 / (stack.h_max + 1.2)
        out, _ = gradient_sweeps(stack, net, x, mu, rho, 1, beta, net.weights_apply(x, 3))
        oracle = x - beta * al_objective_grad(stack, net, x, mu, rho)
        assert np.allclose(out, oracle, atol=1e-12)

    def test_inner_contraction_per_step(self, chain5_net, quad5_stack, rng):
        stack, net = quad5_stack, chain5_net
        rho = stack.h_min
        beta = 1.0 / (stack.h_max + rho)
        mu = rng.standard_normal(15)
        mu -= np.tile(mu.reshape(5, 3).mean(axis=0), 5)
        x = rng.standard_normal(15)
        x_prime = exact_al_minimizer_direct(stack, net, mu, rho)
        for _ in range(5):
            x_new, _ = gradient_sweeps(stack, net, x, mu, rho, 1, beta, net.weights_apply(x, 3))
            num = np.linalg.norm(x_new - x_prime)
            den = np.linalg.norm(x - x_prime)
            assert num <= (1 - beta * stack.h_min) * den + 1e-12
            x = x_new

    def test_beta_out_of_range_rejected(self, chain5_net, quad5_stack):
        cfg = AlgorithmConfig(variant="det_gradient", alpha=0.5, rho=1.0, tau=1, beta=10.0)
        with pytest.raises(ConfigError, match="beta"):
            run_variant(quad5_stack, chain5_net, cfg, 1)


class TestAlgorithmConfig:
    def test_fractional_tau_rejected(self):
        with pytest.raises(ConfigError, match="tau must be an integer"):
            AlgorithmConfig(variant="det_jacobi", alpha=0.5, rho=1.0, tau=2.7)

    @pytest.mark.parametrize("name, value, match", [
        ("alpha", float("nan"), "alpha must be finite"),
        ("alpha", float("inf"), "alpha must be finite"),
        ("rho", float("nan"), "rho must be finite"),
        ("rho", float("inf"), "rho must be finite"),
        ("beta", float("nan"), "beta must be finite"),
        ("beta", float("-inf"), "beta must be finite"),
        ("epsilon", float("nan"), "epsilon must be finite"),
        ("epsilon", float("inf"), "epsilon must be finite"),
        ("epsilon", 0.0, "epsilon must be > 0"),
        ("epsilon", -1e-5, "epsilon must be > 0"),
    ], ids=["alpha=nan", "alpha=inf", "rho=nan", "rho=inf", "beta=nan", "beta=-inf",
            "epsilon=nan", "epsilon=inf", "epsilon=0", "epsilon=negative"])
    def test_bad_numeric_parameter_rejected(self, name, value, match):
        # unchecked, these fail late: a nan rho in a cast, epsilon = 0 after 200,000 steps
        params = dict(variant="rand_gradient", alpha=0.5, rho=1.0, tau=1, beta=0.1,
                      epsilon=1e-5)
        params[name] = value
        with pytest.raises(ConfigError, match=match):
            AlgorithmConfig(**params)


class TestPoissonSchedule:
    def test_empirical_mean(self):
        scheds = sample_poisson_schedule(10, 5.0, 10_000, seed=0)
        mean = np.mean([s.tick_count for s in scheds])
        assert abs(mean - 50.0) / 50.0 <= 0.01

    def test_node_histogram_uniform(self):
        scheds = sample_poisson_schedule(10, 5.0, 2_500, seed=1)
        picks = np.concatenate([s.nodes for s in scheds])[:100_000]
        assert picks.size == 100_000
        counts = np.bincount(picks, minlength=10)
        expected = picks.size / 10.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 <= 16.919  # chi-square 95% critical value, 9 dof

    def test_zero_tick_probability_and_determinism(self):
        scheds = sample_poisson_schedule(2, 0.5, 20_000, seed=3)
        frac_empty = np.mean([s.tick_count == 0 for s in scheds])
        assert frac_empty == pytest.approx(np.exp(-1.0), abs=0.02)
        again = sample_poisson_schedule(2, 0.5, 20_000, seed=3)
        assert all(np.array_equal(a.nodes, b.nodes) for a, b in zip(scheds, again))


class TestLazyTicks:
    """Without a schedule, each outer iteration draws its ticks when the
    loop reaches it, from the stream sample_poisson_schedule draws."""

    @pytest.mark.parametrize("variant", ["rand_gauss_seidel", "rand_gradient"])
    @pytest.mark.parametrize("stop_at", [3, None], ids=["early_stop", "full_length"])
    def test_same_trace_as_the_sampled_schedule(self, geo10_net, quad10_stack, variant, stop_at):
        beta = 1.0 / (quad10_stack.h_max + 1.0) if variant == "rand_gradient" else None
        cfg = AlgorithmConfig(variant=variant, alpha=0.5, rho=1.0, tau=2, beta=beta, seed=7)
        k_max = 8
        stop = None if stop_at is None else (lambda x, mu, k: k == stop_at)
        sched = sample_poisson_schedule(10, cfg.tau, k_max, cfg.seed)
        lazy_xs, lazy_mus, record = record_iterates(stop)
        lazy = run_variant(quad10_stack, geo10_net, cfg, k_max, stop=record)
        given_xs, given_mus, record = record_iterates(stop)
        given = run_variant(quad10_stack, geo10_net, cfg, k_max, schedule=sched, stop=record)
        assert lazy.outer_iterations == (stop_at or k_max)
        assert len(lazy_xs) == lazy.outer_iterations + 1
        assert all(np.array_equal(a, b) for a, b in zip(lazy_xs, given_xs, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(lazy_mus, given_mus, strict=True))
        assert lazy.transmissions == given.transmissions
        assert lazy.grad_evals == given.grad_evals


class TestStop:
    """stop(x, mu, k) sees every row as it is recorded, row 0 first, and the
    run ends at the first row for which it holds."""

    @staticmethod
    def config():
        return AlgorithmConfig(variant="det_jacobi", alpha=0.5, rho=1.0, tau=1)

    def test_sees_every_row(self, chain5_net, quad5_stack):
        # each row seen is the loop's: row 0 the start, and row k one sweep
        # and one dual step on from row k - 1
        net, stack, cfg = chain5_net, quad5_stack, self.config()
        seen = []
        tr = run_variant(stack, net, cfg, 3,
                         stop=lambda x, mu, k: seen.append((k, x.copy(), mu.copy())))
        assert [k for k, _, _ in seen] == [0, 1, 2, 3]
        assert len(seen) == len(tr.transmissions)
        assert not seen[0][1].any() and not seen[0][2].any()
        solve = node_prox_solver(stack, cfg.rho, cfg.epsilon)
        for (_, x_prev, mu_prev), (_, x, mu) in zip(seen, seen[1:]):
            x_next, _ = jacobi_sweeps(stack, net, x_prev, mu_prev, cfg.rho, 1, solve,
                                      net.weights_apply(x_prev, 3))
            assert np.array_equal(x, x_next)
            assert np.array_equal(mu, mu_prev + cfg.alpha * (x_next - net.weights_apply(x_next, 3)))

    def test_stop_at_row_zero(self, chain5_net, quad5_stack):
        tr = run_variant(quad5_stack, chain5_net, self.config(), 3, stop=lambda x, mu, k: True)
        assert tr.outer_iterations == 0
        assert tr.transmissions == [0]

    def test_trace_rows_align(self, chain5_net, quad5_stack):
        # one entry per row in every counter, with the clock at 0 at row 0
        for stop, rows in ((lambda x, mu, k: True, 1), (None, 7)):
            tr = run_variant(quad5_stack, chain5_net, self.config(), 6, stop=stop)
            assert len(tr.transmissions) == len(tr.grad_evals) == len(tr.wall_clock) == rows
            assert tr.outer_iterations == rows - 1
            assert tr.wall_clock[0] == 0.0
            assert all(a <= b for a, b in zip(tr.wall_clock, tr.wall_clock[1:]))

    def test_divergent_iterates_name_k(self, chain5_net):
        # without a stop test a diverging dual step runs until x or mu overflows
        stack = generate_quadratic_stack(5, 2, seed=0)
        cfg = AlgorithmConfig(variant="det_gradient", alpha=5000, rho=0, tau=1, beta=0.15)
        with pytest.raises(FloatingPointError,
                           match=r"^iterates are not finite at outer iteration k=119$"):
            run_variant(stack, chain5_net, cfg, 300)


class TestRunState:
    """A run holds only its current iterates; a stop that wants every row's
    iterates records copies of them."""

    def test_recorder_copies(self, geo10_net, quad10_stack):
        # the tick phase updates x in place, so a recorder that kept x itself
        # would hold the last row's x once per row
        cfg = AlgorithmConfig(variant="rand_gauss_seidel", alpha=0.5, rho=1.0, tau=2, seed=9)
        xs, mus, record = record_iterates()
        run_variant(quad10_stack, geo10_net, cfg, 5, stop=record)
        assert len(xs) == len(mus) == 6
        assert not xs[0].any() and not mus[0].any()
        assert all(not np.array_equal(a, b) for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("variant", ["det_gradient", "det_jacobi"])
    def test_peak_memory_does_not_grow_with_the_rows(self, variant):
        # tracemalloc sees numpy's buffers: 390 more rows of (x, mu) would
        # add 390 * 2 N d * 8 bytes, 1.25 MB, where the counters add 40 KB
        n, d = 50, 4
        graph, _ = build_geometric_graph(n, radius=1.5 * np.sqrt(np.log(n) / n), rng_seed=2)
        net, stack = build_network(graph), generate_quadratic_stack(n, d, seed=0)
        beta = 1.0 / (stack.h_max + 1.0) if variant == "det_gradient" else None
        cfg = AlgorithmConfig(variant=variant, alpha=0.1, rho=1.0, tau=1, beta=beta)

        def peak(k_max):
            tracemalloc.start()
            try:
                run_variant(stack, net, cfg, k_max)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400) - peak(10) < 390 * 2 * n * d * 8 / 10


class TestRelabeling:
    """A run does not depend on how the nodes are numbered: relabeling the
    graph, the stack's rows and the tick schedule by a permutation keeps
    every row's counters and permutes the blocks of its x and mu, up to the
    rounding of sums taken in another order; the trace's metric columns
    agree to the same rounding. A row written back to the wrong node breaks
    this."""

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(["chain", "complete", "geometric"]), st.integers(5, 30),
           st.sampled_from(["quadratic", "logistic"]), st.sampled_from(VARIANTS), st.data())
    def test_relabeled_run_permutes_the_iterates(self, graph_kind, n, cost_kind, variant, data):
        # node j of the relabeled problem is node perm[j] of the original
        d, k_max, seed = 3, 10, data.draw(st.integers(0, 999))
        perm = np.array(data.draw(st.permutations(range(n))))
        if graph_kind == "geometric":
            graph, _ = build_geometric_graph(n, radius=1.5 * np.sqrt(np.log(n) / n),
                                             rng_seed=seed)
        else:
            graph = (build_chain_graph if graph_kind == "chain" else build_complete_graph)(n)
        if cost_kind == "quadratic":
            # spectra this wide spread the nodes over several of the prox
            # kernel's bands, each a table walked for its own nodes
            stack = generate_quadratic_stack(n, d, seed=seed, h_lo=0.1, h_hi=10.0)
            relabeled = ObjectiveStack.quadratic(stack.matrices[perm], stack.linears[perm])
        else:
            stack = generate_logistic_data(n, d, reg=0.5, seed=seed)
            relabeled = ObjectiveStack.logistic(stack.samples[perm], stack.node_reg[perm])
        beta = 1.0 / (stack.h_max + 1.0) if variant.endswith("_gradient") else None
        cfg = AlgorithmConfig(variant=variant, alpha=0.3, rho=1.0, tau=2, beta=beta,
                              seed=seed, epsilon=1e-9)
        schedules = [None, None]
        if variant.startswith("rand_"):
            schedule = sample_poisson_schedule(n, cfg.tau, k_max, seed)
            label = np.argsort(perm)  # node i of the original is node label[i]
            schedules = [schedule, [PoissonSchedule(nodes=label[s.nodes]) for s in schedule]]
        runs = []
        for problem, net, schedule in zip(
                (stack, relabeled),
                (build_network(graph), build_network(Graph(graph.adjacency[np.ix_(perm, perm)]))),
                schedules):
            ref = reference_solve(problem)
            saddle = saddle_point(problem, ref.x_star)
            xs, mus, record = record_iterates()
            trace = run_variant(problem, net, cfg, k_max, schedule=schedule, stop=record)
            metrics = [trace_metrics(problem, net, ref, saddle, x, mu) for x, mu in zip(xs, mus)]
            runs.append((trace, np.reshape(xs, (-1, n, d)), np.reshape(mus, (-1, n, d)),
                         np.array(metrics)))
        (trace, xs, mus, metrics), (relabeled_trace, relabeled_xs, relabeled_mus,
                                    relabeled_metrics) = runs
        assert relabeled_trace.transmissions == trace.transmissions
        assert relabeled_trace.grad_evals == trace.grad_evals
        assert len(xs) == len(relabeled_xs) == k_max + 1
        for ours, theirs in ((relabeled_xs, xs[:, perm]), (relabeled_mus, mus[:, perm])):
            assert np.abs(ours - theirs).max() <= 1e-13 * np.abs(theirs).max()
        # the metric columns, each labelling with its own reference solve,
        # saddle point and spectrum; the dual sum's exact value is 0, so its
        # rounding residue is held to the scale of mu
        for j in (0, 1, 3):
            assert np.all(np.abs(relabeled_metrics[:, j] - metrics[:, j])
                          <= 1e-12 * np.abs(metrics[:, j]))
        assert np.abs(relabeled_metrics[:, 2] - metrics[:, 2]).max() <= 1e-13 * np.abs(mus).max()


class TestSweepsReuseXbar:
    """The deterministic variants hand the loop's xbar to the sweeps, which
    apply W between sweeps; the loop applies it once after them and once at
    the start, so an outer iteration applies W once per sweep."""

    @pytest.mark.parametrize("variant", ["det_jacobi", "det_gradient"])
    def test_one_weights_apply_per_sweep(self, chain5_net, quad5_stack, monkeypatch, variant):
        beta = 1.0 / (quad5_stack.h_max + 1.0) if variant == "det_gradient" else None
        cfg = AlgorithmConfig(variant=variant, alpha=0.5, rho=1.0, tau=3, beta=beta)
        expected_xs, expected_mus, record = record_iterates()
        run_variant(quad5_stack, chain5_net, cfg, 4, stop=record)
        calls = []
        original = NetworkModel.weights_apply
        monkeypatch.setattr(NetworkModel, "weights_apply",
                            lambda net, x, d: calls.append(1) or original(net, x, d))
        xs, mus, record = record_iterates()
        run_variant(quad5_stack, chain5_net, cfg, 4, stop=record)
        assert len(calls) == 1 + 4 * cfg.tau
        assert all(np.array_equal(a, b) for a, b in zip(xs, expected_xs, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(mus, expected_mus, strict=True))

    def test_given_xbar_matches_recomputed(self, chain5_net, quad5_stack, rng):
        # a call applies W between its sweeps only, so two one-sweep calls,
        # the second fed (W (x) I) x1 of the first one's result, equal one
        # call with both sweeps
        net, stack = chain5_net, quad5_stack
        x, mu = rng.standard_normal(15), rng.standard_normal(15)
        beta = 1.0 / (stack.h_max + 1.0)
        solve = node_prox_solver(stack, 1.0, 1e-9)
        for sweeps, last in ((jacobi_sweeps, solve), (gradient_sweeps, beta)):
            both, g_both = sweeps(stack, net, x, mu, 1.0, 2, last, net.weights_apply(x, 3))
            x1, g1 = sweeps(stack, net, x, mu, 1.0, 1, last, net.weights_apply(x, 3))
            x2, g2 = sweeps(stack, net, x1, mu, 1.0, 1, last, net.weights_apply(x1, 3))
            assert np.array_equal(both, x2)
            assert g1 + g2 == g_both


class TestTicksResyncXbar:
    """A randomized run applies W once at the start and once per outer
    iteration, after its ticks, for the dual step; the ticks read the
    current blocks and add no call."""

    @pytest.mark.parametrize("variant", ["rand_gauss_seidel", "rand_gradient"])
    def test_one_weights_apply_per_outer_iteration(self, geo10_net, quad10_stack, monkeypatch,
                                                   variant):
        beta = 1.0 / (quad10_stack.h_max + 1.0) if variant == "rand_gradient" else None
        cfg = AlgorithmConfig(variant=variant, alpha=0.5, rho=1.0, tau=2, beta=beta, seed=5)
        expected_xs, expected_mus, record = record_iterates()
        run_variant(quad10_stack, geo10_net, cfg, 6, stop=record)
        original = NetworkModel.weights_apply
        calls = []
        monkeypatch.setattr(NetworkModel, "weights_apply",
                            lambda net, x, d: calls.append(1) or original(net, x, d))
        xs, mus, record = record_iterates()
        run_variant(quad10_stack, geo10_net, cfg, 6, stop=record)
        assert len(calls) == 1 + 6
        assert all(np.array_equal(a, b) for a, b in zip(xs, expected_xs, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(mus, expected_mus, strict=True))

    @pytest.mark.parametrize("variant", ["rand_gauss_seidel", "rand_gradient"])
    def test_off_graph_w_fails_once_per_run(self, variant):
        # the ticks of either variant would read chain neighborhoods, but the
        # weights are the complete graph's; the model fails naming the first
        # off-graph pair when it is built, so no run of the variant can start
        complete = build_network(build_complete_graph(5))
        with pytest.raises(NetworkError, match=r"W\[0, 2\] = 0\.09.* \(0, 2\) is not a link"):
            NetworkModel(graph=build_chain_graph(5), weights=complete.weights)


class TestRandGaussSeidel:
    def test_empty_schedule_holds_primal_updates_dual(self, geo10_net, quad10_stack):
        cfg = AlgorithmConfig(variant="rand_gauss_seidel", alpha=0.5, rho=1.0, tau=1)
        x0 = np.tile(np.ones(3), 10)
        sched = [
            PoissonSchedule(nodes=np.array([2, 5, 7])),
            PoissonSchedule(nodes=np.array([], dtype=int)),
        ]
        xs, mus, record = record_iterates()
        tr = run_variant(quad10_stack, geo10_net, cfg, 2, x0=x0, schedule=sched, stop=record)
        # empty second interval: primal frozen, dual still advances
        assert np.array_equal(xs[2], xs[1])
        expected_mu = mus[1] + 0.5 * geo10_net.laplacian_apply(xs[1], 3)
        assert np.allclose(mus[2], expected_mu, atol=1e-12)
        assert not np.allclose(mus[2], mus[1], atol=1e-15)
        assert tr.transmissions == [0, 3, 3]

    def test_single_tick_locality(self, geo10_net, quad10_stack):
        cfg = AlgorithmConfig(variant="rand_gauss_seidel", alpha=0.5, rho=1.0, tau=1)
        x0 = np.tile(np.ones(3), 10)
        sched = [PoissonSchedule(nodes=np.array([4]))]
        xs, _, record = record_iterates()
        tr = run_variant(quad10_stack, geo10_net, cfg, 1, x0=x0, schedule=sched, stop=record)
        changed = np.abs(xs[1] - x0).reshape(10, 3).sum(axis=1) > 0
        assert changed[4] and changed.sum() == 1
        assert tr.transmissions == [0, 1]

    def test_seed_reproducibility(self, geo10_net, quad10_stack):
        cfg = AlgorithmConfig(variant="rand_gauss_seidel", alpha=0.5, rho=1.0, tau=2, seed=9)
        a_xs, a_mus, record = record_iterates()
        a = run_variant(quad10_stack, geo10_net, cfg, 5, stop=record)
        b_xs, b_mus, record = record_iterates()
        b = run_variant(quad10_stack, geo10_net, cfg, 5, stop=record)
        assert all(np.array_equal(x, y) for x, y in zip(a_xs, b_xs, strict=True))
        assert all(np.array_equal(x, y) for x, y in zip(a_mus, b_mus, strict=True))
        assert a.transmissions == b.transmissions


class TestRandGradient:
    def test_stationary_node_block_unchanged(self, geo10_net, quad10_stack, quad5_ref):
        from dalopt.harness import reference_solve

        ref = reference_solve(quad10_stack)
        saddle = saddle_point(quad10_stack, ref.x_star)
        beta = 1.0 / (quad10_stack.h_max + 1.0)
        out = gradient_step_local(
            node_costs(quad10_stack)[0],
            saddle.x_bullet[:3],
            saddle.x_bullet[:3],
            saddle.mu_bullet[:3],
            beta,
            1.0,
        )
        assert np.allclose(out, saddle.x_bullet[:3], atol=1e-14)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_single_tick_locality(self, geo10_net, quad10_stack, kind):
        # only the ticking node's block moves, although its tick reads all of
        # its neighbors' blocks
        stack = quad10_stack if kind == "quadratic" else generate_logistic_data(10, 3, seed=6)
        beta = 1.0 / (stack.h_max + 1.0)
        cfg = AlgorithmConfig(variant="rand_gradient", alpha=0.5, rho=1.0, tau=1, beta=beta)
        x0 = np.tile(np.array([2.0, -1.0, 0.5]), 10)
        sched = [PoissonSchedule(nodes=np.array([4]))]
        xs, _, record = record_iterates()
        tr = run_variant(stack, geo10_net, cfg, 1, x0=x0, schedule=sched, stop=record)
        changed = np.abs(xs[1] - x0).reshape(10, 3).sum(axis=1) > 0
        assert changed[4] and changed.sum() == 1
        assert tr.transmissions == [0, 1] and tr.grad_evals == [0, 1]

    def test_seed_reproducibility(self, geo10_net, quad10_stack):
        beta = 1.0 / (quad10_stack.h_max + 1.0)
        cfg = AlgorithmConfig(
            variant="rand_gradient", alpha=0.3, rho=1.0, tau=2, beta=beta, seed=4
        )
        a_xs, _, record = record_iterates()
        run_variant(quad10_stack, geo10_net, cfg, 5, stop=record)
        b_xs, _, record = record_iterates()
        run_variant(quad10_stack, geo10_net, cfg, 5, stop=record)
        assert all(np.array_equal(x, y) for x, y in zip(a_xs, b_xs, strict=True))


class TestSequentialReplay:
    """Both randomized variants against a node-by-node replay through the
    per-node oracles (prox_local_info for rand_gauss_seidel,
    gradient_step_local for rand_gradient), with the neighbor averages
    recomputed as (W (x) I) x before every tick. The schedule repeats
    nodes within and across four outer iterations; rho = 0 leaves the
    averages out of the primal steps. The geometric40 case draws its ticks
    on a 40-node graph at radius 1.5 sqrt(log N / N)."""

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "geometric40"])
    @pytest.mark.parametrize("variant", ["rand_gauss_seidel", "rand_gradient"])
    def test_sequential_replay_oracle(self, geo10_net, quad10_stack, variant, kind):
        net, d = geo10_net, 3
        sched = [PoissonSchedule(nodes=np.arange(10)),
                 PoissonSchedule(nodes=np.array([3, 3, 7, 0, 9, 3, 1])),
                 PoissonSchedule(nodes=np.array([5, 5, 5, 2, 3])),
                 PoissonSchedule(nodes=np.array([8, 0, 0, 6, 3, 3, 9]))]
        if kind == "quadratic":
            stack = quad10_stack
        elif kind == "logistic":
            stack = generate_logistic_data(10, 3, reg=0.5, seed=6)
        else:
            graph, _ = build_geometric_graph(40, radius=1.5 * np.sqrt(np.log(40) / 40), rng_seed=2)
            net, stack = build_network(graph), generate_logistic_data(40, d, reg=0.5, seed=6)
            sched = sample_poisson_schedule(40, 1, 4, seed=3)
        n, costs = stack.n_nodes, node_costs(stack)
        x0 = np.tile(np.array([2.0, -1.0, 0.5]), n)
        for rho in (1.0, 0.0):
            beta = 1.0 / (stack.h_max + rho)
            cfg = AlgorithmConfig(variant=variant, alpha=0.1, rho=rho, tau=1, beta=beta,
                                  epsilon=1e-9)
            xs, mus, record = record_iterates()
            tr = run_variant(stack, net, cfg, len(sched), x0=x0, schedule=sched, stop=record)
            x, mu = x0.copy(), np.zeros(n * d)
            tx = grads = 0
            for k, s in enumerate(sched, start=1):
                for i in s.nodes:
                    xbar = net.weights_apply(x, d)
                    sl = slice(d * i, d * i + d)
                    cost = costs[i]
                    if variant == "rand_gauss_seidel":
                        x[sl], g = prox_local_info(cost, rho, mu[sl] - rho * xbar[sl], x[sl],
                                                   cfg.epsilon)
                    else:
                        x[sl], g = gradient_step_local(cost, x[sl], xbar[sl], mu[sl], beta,
                                                       rho), 1
                    tx += 1
                    grads += g
                mu = mu + cfg.alpha * (x - net.weights_apply(x, d))
                assert tr.transmissions[k] == tx
                assert tr.grad_evals[k] == grads
                assert np.abs(xs[k] - x).max() <= 1e-12
                assert np.abs(mus[k] - mu).max() <= 1e-12


class TestJacobiReplay:
    """det_jacobi against a sweep-by-sweep replay through prox_local_info,
    node by node: each sweep's prox problems take mu_i - rho xbar_i from the
    previous sweep's state. Three sweeps per outer iteration, four outer
    iterations; rho = 0 leaves the averages out of the prox problems. In the
    polish case node 0 starts where its distance estimate nearly vanishes, so
    its first solve needs polish rounds: more than one T_i^n product."""

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "quadratic_polish"])
    def test_sweep_replay_oracle(self, geo10_net, quad10_stack, kind):
        from dalopt.local_solve import _planned_iterations

        net, tau, k_max = geo10_net, 3, 4
        if kind == "quadratic":
            stack, x0 = quad10_stack, np.tile(np.array([2.0, -1.0, 0.5]), 10)
        elif kind == "logistic":
            stack = generate_logistic_data(10, 3, reg=0.5, seed=6)
            x0 = np.tile(np.array([2.0, -1.0, 0.5]), 10)
        else:
            # f_0 = (y - c)^2 / 2 with c = 2 x0 + 1e-3: R' = |2 x0 - c| / (1 + rho)
            centers = [2.0 + 1e-3, -3.0, 0.5, 4.0, -1.0, 2.5, 0.0, -2.0, 1.5, 3.0]
            stack, x0 = stack_of(tuple(scalar_quadratic(c) for c in centers)), np.ones(10)
        d, costs = stack.dimension, node_costs(stack)
        for rho in (1.0, 0.0):
            cfg = AlgorithmConfig(variant="det_jacobi", alpha=0.1, rho=rho, tau=tau,
                                  epsilon=1e-9)
            xs, mus, record = record_iterates()
            tr = run_variant(stack, net, cfg, k_max, x0=x0, stop=record)
            x, mu = x0.copy(), np.zeros(10 * d)
            tx = grads = polished = 0
            for k in range(1, k_max + 1):
                for _ in range(tau):
                    v = mu - rho * net.weights_apply(x, d)
                    x_next = x.copy()
                    for i, cost in enumerate(costs):
                        sl = slice(d * i, d * i + d)
                        x_next[sl], g = prox_local_info(cost, rho, v[sl], x[sl], cfg.epsilon)
                        nu, lip = cost.h_min + rho, cost.h_max + cost.h_min + rho
                        r_dist = np.linalg.norm(cost.grad(x[sl]) + nu * x[sl] + v[sl]) / nu
                        planned = _planned_iterations(cfg.epsilon, r_dist, lip, nu / lip)
                        polished += r_dist > 0 and g > planned + 2
                        grads += g
                    x = x_next
                    tx += 10
                mu = mu + cfg.alpha * (x - net.weights_apply(x, d))
                assert tr.transmissions[k] == tx
                assert tr.grad_evals[k] == grads
                assert np.abs(xs[k] - x).max() <= 1e-12
                assert np.abs(mus[k] - mu).max() <= 1e-12
            if kind == "quadratic_polish":
                assert polished > 0


class TestInexactAlDriver:
    def test_exact_policy_is_classical_al(self, chain5_net, quad5_stack, quad5_ref):
        stack, net = quad5_stack, chain5_net
        rho, alpha = 1.0, 2.0  # alpha <= h_min + rho
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=alpha, rho=rho, tau=1)

        def policy(x, mu):
            return exact_al_minimizer_direct(stack, net, mu, rho)

        xs, _, record = record_iterates()
        tr = run_policy(stack, net, cfg, policy, 1000, stop=record)
        saddle = saddle_point(stack, quad5_ref.x_star)
        assert tr.outer_iterations == 1000 and len(xs) == 1001
        assert np.linalg.norm(xs[-1] - saddle.x_bullet) <= 1e-8

    def test_identity_policy_from_consensus_is_stationary(self, chain5_net, quad5_stack, quad5_ref):
        saddle = saddle_point(quad5_stack, quad5_ref.x_star)
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=0.5, rho=1.0, tau=1)
        xs, mus, record = record_iterates()
        run_policy(quad5_stack, chain5_net, cfg, lambda x, mu: x, 3, x0=saddle.x_bullet,
                   stop=record)
        assert len(xs) == 4
        for x, mu in zip(xs, mus):
            assert np.allclose(x, saddle.x_bullet, atol=0)
            assert np.allclose(mu, 0.0, atol=1e-12)

    def test_one_sweep_policy_matches_det_jacobi(self, chain5_net, quad5_stack):
        stack, net = quad5_stack, chain5_net
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=0.8, rho=1.0, tau=1, epsilon=1e-10)

        solve = node_prox_solver(stack, cfg.rho, cfg.epsilon)

        def policy(x, mu):
            return jacobi_sweeps(stack, net, x, mu, cfg.rho, 1, solve,
                                 net.weights_apply(x, stack.dimension))[0]

        a_xs, a_mus, record = record_iterates()
        run_policy(stack, net, cfg, policy, 10, stop=record)
        b_xs, b_mus, record = record_iterates()
        run_variant(stack, net, cfg, 10, stop=record)
        for xa, xb in zip(a_xs, b_xs, strict=True):
            assert np.array_equal(xa, xb)
        for ma, mb in zip(a_mus, b_mus, strict=True):
            assert np.array_equal(ma, mb)


class TestDualSumInvariant:
    @pytest.mark.parametrize("variant", ["det_jacobi", "det_gradient",
                                         "rand_gauss_seidel", "rand_gradient"])
    def test_block_sum_stays_zero(self, geo10_net, quad10_stack, variant):
        beta = 1.0 / (quad10_stack.h_max + 1.0) if "gradient" in variant else None
        cfg = AlgorithmConfig(variant=variant, alpha=0.5, rho=1.0, tau=2, beta=beta, seed=7)
        _, mus, record = record_iterates()
        run_variant(quad10_stack, geo10_net, cfg, 8, stop=record)
        assert len(mus) == 9
        for mu in mus:
            s = np.linalg.norm(mu.reshape(10, 3).sum(axis=0))
            scale = max(1.0, np.linalg.norm(mu))
            assert s <= 1e-10 * scale


    def test_randomized_runs_at_the_deterministic_level(self, geo10_net):
        # the randomized runs resynchronize xbar = (W (x) I) x after each
        # tick phase, so hundreds of incremental updates per outer iteration
        # leave no more rounding in the dual's block sum than the sweeps do
        stack = generate_logistic_data(10, 3, reg=0.5, seed=6)
        beta = 1.0 / (stack.h_max + 1.0)
        level = {}
        for variant in ("det_jacobi", "det_gradient", "rand_gauss_seidel", "rand_gradient"):
            cfg = AlgorithmConfig(variant=variant, alpha=0.5, rho=1.0, tau=50,
                                  beta=beta if "gradient" in variant else None, seed=3)
            _, mus, record = record_iterates()
            run_variant(stack, geo10_net, cfg, 20, stop=record)
            level[variant] = max(np.linalg.norm(mu.reshape(10, 3).sum(axis=0)) for mu in mus)
        deterministic = max(level["det_jacobi"], level["det_gradient"])
        assert 0.0 < deterministic < 1e-13
        assert level["rand_gauss_seidel"] <= 4.0 * deterministic
        assert level["rand_gradient"] <= 4.0 * deterministic


class TestTraceCsv:
    def test_roundtrip(self, tmp_path, chain5_net, quad5_stack):
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=0.5, rho=1.0, tau=1)
        tr = run_variant(quad5_stack, chain5_net, cfg, 3)
        n = len(tr.transmissions)
        rel = np.linspace(1.0, 0.1, n)
        prim = np.linspace(2.0, 0.2, n)
        dual = np.linspace(4.0, 0.4, n)
        lyap = np.linspace(3.0, 0.3, n)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, tr, rel, prim, dual, lyap)
        data = read_trace_csv(path)
        assert list(data.keys()) == TRACE_HEADER.split(",")
        assert np.array_equal(data["k"], np.arange(n))
        assert np.allclose(data["rel_cost_error"], rel, atol=0)
        assert np.allclose(data["dual_sum_norm"], dual, atol=0)
        assert np.array_equal(data["transmissions_total"], tr.transmissions)

    def test_non_finite_metric_rejected(self, tmp_path, chain5_net, quad5_stack):
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=0.5, rho=1.0, tau=1)
        tr = run_variant(quad5_stack, chain5_net, cfg, 3)
        lyap = np.array([3.0, 2.0, np.inf, np.nan])
        rel = np.array([1.0, 0.5, 0.2, np.nan])
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=r"lyapunov_value is not finite in trace row k=2"):
            write_trace_csv(path, tr, rel, np.ones(4), np.zeros(4), lyap)
        assert not path.exists()

    def test_header_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("k,wrong\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(p)
