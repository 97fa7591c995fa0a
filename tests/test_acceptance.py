"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (visible with
`pytest -s`). Tolerances here are contractual; do not loosen them.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from dalopt.almethods import AlgorithmConfig, read_trace_csv, run_variant
from dalopt.harness import (
    ExperimentConfig,
    generate_logistic_data,
    generate_quadratic_stack,
    reference_solve,
    run_experiment,
)
from dalopt.local_solve import exact_al_minimizer, exact_al_minimizer_direct
from dalopt.network import build_chain_graph, build_geometric_graph, build_network
from dalopt.theory import (
    eta_rand_gradient,
    eta_rand_gs,
    certificate,
    error_bounds,
    inner_contraction,
    lyapunov_value,
    resolve_recipe,
    saddle_point,
    saddle_residuals,
)

from oracles import record_iterates


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL — {desc}", flush=True)
        raise
    print(f"ACCEPTANCE {num}: PASS — {desc}", flush=True)


# ----------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def contraction_instance():
    """5-node chain with random quadratics: the criterion 2/3 instance."""
    net = build_network(build_chain_graph(5))
    stack = generate_quadratic_stack(5, 3, seed=2, h_lo=1.0, h_hi=2.0)
    return net, stack


@pytest.fixture(scope="module")
def rate_instance():
    """Seeded 10-node logistic instance with both deterministic variants
    run under their recipe parameters (criteria 5 and 6)."""
    g, _ = build_geometric_graph(10, radius=0.45, rng_seed=668)
    net = build_network(g)
    stack = generate_logistic_data(10, 8, reg=10.0, seed=11)
    ref = reference_solve(stack)
    saddle = saddle_point(stack, ref.x_star)
    runs = {}
    for recipe in ("section5_jacobi", "section5_gradient"):
        variant, alpha, rho, beta, tau = resolve_recipe(
            recipe, stack.h_min, stack.h_max, net.lambda2, 10
        )
        cfg = AlgorithmConfig(
            variant=variant, alpha=alpha, rho=rho, tau=tau, beta=beta, epsilon=1e-9
        )
        xs, mus, record = record_iterates()
        run_variant(stack, net, cfg, 400, stop=record)
        runs[recipe] = (cfg, xs, mus)
    return net, stack, ref, saddle, runs


def replication_config(out_dir):
    return ExperimentConfig.from_dict({
        "network": {"type": "geometric", "n": 10, "radius": 0.45, "seed": 668},
        "objective": {"type": "logistic", "d": 15, "reg": 3.0, "seed": 11},
        "algorithms": [
            {"recipe": "section5_jacobi", "label": "jacobi"},
            {"recipe": "section5_gradient", "label": "gradient"},
            {"recipe": "section5_rand_gs", "label": "rand_gs", "seed": 5},
            {"recipe": "section5_rand_gradient", "label": "rand_gradient", "seed": 5},
            {"recipe": "section5_jacobi", "tau": 1, "label": "jacobi_tau1"},
            {"recipe": "section5_gradient", "tau": 1, "alpha": 0.15,
             "label": "gradient_tau1"},
        ],
        "k_max": 1500,
        "epsilon": 1e-7,
        "stop_rel_cost": 1e-7,
        "output_dir": str(out_dir),
    })


# ---------------------------------------------------------------- criteria


def test_criterion_1_saddle_characterization():
    with criterion(1, "saddle-point residuals vanish on 20 random instances"):
        master = np.random.default_rng(2024)
        for trial in range(20):
            n = int(master.integers(2, 11))
            d = int(master.integers(2, 16))
            seed = int(master.integers(0, 10_000))
            if trial % 2 == 0:
                stack = generate_quadratic_stack(n, d, seed=seed, h_lo=0.5, h_hi=3.0)
            else:
                stack = generate_logistic_data(n, d, reg=2.0, seed=seed)
            g, _ = build_geometric_graph(n, radius=0.9, rng_seed=seed)
            net = build_network(g)
            ref = reference_solve(stack)
            s = saddle_point(stack, ref.x_star)
            res = saddle_residuals(stack, net, s.x_bullet, s.mu_bullet, rho=1.0)
            assert max(res) <= 1e-8, (trial, res)


def measure_inner_ratios(net, stack, cfg, k_max=100, x0_scale=8.0):
    """Per-outer-iteration ‖x(k+1)-x'(k+1)‖ / ‖x(k)-x'(k+1)‖ along a run,
    with x'(k+1) the exact augmented-objective minimizer at mu(k)."""
    n, d = stack.n_nodes, stack.dimension
    xs, mus, record = record_iterates()
    run_variant(stack, net, cfg, k_max, x0=np.full(n * d, x0_scale), stop=record)
    assert len(xs) == k_max + 1
    ratios = []
    for k in range(k_max):
        xp = exact_al_minimizer(
            stack, net, mus[k], cfg.rho, tol=1e-12, x0=xs[k + 1]
        )
        num = np.linalg.norm(xs[k + 1] - xp)
        den = np.linalg.norm(xs[k] - xp)
        ratios.append(num / den)
    return np.array(ratios)


def test_criterion_2_jacobi_inner_contraction(contraction_instance):
    with criterion(2, "Jacobi inner phase contracts at (1/2)^tau + C*sqrt(eps)"):
        net, stack = contraction_instance
        rho = stack.h_min
        eps = 1e-5
        c_slack = 2.0 * math.sqrt(2.0 * (stack.h_max + rho)) / (stack.h_min + rho)
        for tau in (1, 2, 4):
            cfg = AlgorithmConfig(
                variant="det_jacobi", alpha=0.05, rho=rho, tau=tau, epsilon=eps
            )
            ratios = measure_inner_ratios(net, stack, cfg)
            bound = (rho / (rho + stack.h_min)) ** tau + c_slack * math.sqrt(eps)
            assert ratios.max() <= bound, (tau, ratios.max(), bound)


def test_criterion_3_gradient_inner_contraction(contraction_instance):
    with criterion(3, "gradient inner phase contracts at (1-beta*h_min)^tau"):
        net, stack = contraction_instance
        rho = stack.h_min
        beta = 1.0 / (stack.h_max + rho)
        for tau in (1, 2, 4):
            cfg = AlgorithmConfig(
                variant="det_gradient", alpha=0.05, rho=rho, tau=tau, beta=beta
            )
            ratios = measure_inner_ratios(net, stack, cfg)
            bound = (1.0 - beta * stack.h_min) ** tau + 1e-9
            assert ratios.max() <= bound, (tau, ratios.max(), bound)


def test_criterion_4_randomized_expectation_bounds():
    with criterion(4, "randomized one-step mean distance obeys exp(-eta*tau)"):
        g, _ = build_geometric_graph(10, radius=0.6, rng_seed=1)
        net = build_network(g)
        stack = generate_quadratic_stack(10, 3, seed=4, h_lo=1.0, h_hi=3.0)
        rho = stack.h_min
        beta = 1.0 / (stack.h_max + rho)
        x0 = np.full(30, 5.0)
        xp = exact_al_minimizer_direct(stack, net, np.zeros(30), rho)
        pre = np.linalg.norm(x0 - xp)
        cases = {
            "rand_gauss_seidel": (None, eta_rand_gs(10, rho, stack.h_min)),
            "rand_gradient": (beta, eta_rand_gradient(10, beta, stack.h_min)),
        }
        for variant, (b, eta) in cases.items():
            post = []
            for seed in range(300):
                cfg = AlgorithmConfig(
                    variant=variant, alpha=0.1, rho=rho, tau=1, beta=b,
                    seed=seed, epsilon=1e-10,
                )
                xs, _, record = record_iterates()
                run_variant(stack, net, cfg, 1, x0=x0, stop=record)
                post.append(np.linalg.norm(xs[1] - xp))
            post = np.array(post)
            mean = post.mean()
            se = post.std(ddof=1) / math.sqrt(post.size)
            bound = math.exp(-eta * cfg.tau) * pre * (1.0 + 3.0 * se / mean)
            assert mean <= bound, (variant, mean, bound)


def test_criterion_5_global_linear_rate(rate_instance):
    with criterion(5, "deterministic recipes satisfy the global linear rate"):
        net, stack, ref, saddle, runs = rate_instance
        bounds = error_bounds(stack, net, ref.x_star)
        for recipe, (cfg, xs, mus) in runs.items():
            cert = certificate(cfg, stack, net, bounds)
            assert cert.alpha_ok and cert.xi_ok, recipe
            assert len(xs) == 401, recipe
            lyap = np.array([
                lyapunov_value(x, mu, saddle, net, stack.h_min)
                for x, mu in zip(xs, mus)
            ])
            floor = lyap.min()
            for k in range(len(lyap) - 1):
                if lyap[k] >= 100.0 * floor:
                    assert lyap[k + 1] / lyap[k] <= cert.r + 0.01, (recipe, k)
            d = stack.dimension
            for k, x in enumerate(xs):
                worst = np.max(np.linalg.norm(
                    x.reshape(stack.n_nodes, d) - ref.x_star, axis=1
                ))
                assert worst <= cert.r ** k * cert.bound_constant, (recipe, k)


def test_criterion_6_epsilon_iteration_count(rate_instance):
    with criterion(6, "iterations to 1e-6 relative primal error within the bound"):
        net, stack, ref, saddle, runs = rate_instance
        bounds = error_bounds(stack, net, ref.x_star)
        for recipe, (cfg, xs, _) in runs.items():
            cert = certificate(cfg, stack, net, bounds)
            errs = np.array([
                np.linalg.norm(x - saddle.x_bullet) for x in xs
            ])
            rel = errs / errs[0]
            hits = np.nonzero(rel <= 1e-6)[0]
            assert hits.size, f"{recipe} never reached 1e-6 within {len(rel)-1}"
            k_eps = int(hits[0])
            cap = math.ceil(
                math.log(1e-6 * errs[0] / cert.bound_constant) / math.log(cert.r)
            )
            assert k_eps <= cap, (recipe, k_eps, cap)


def test_criterion_7_qualitative_replication(tmp_path_factory):
    with criterion(7, "recipe Jacobi beats recipe gradient on transmissions; "
                      "curves monotone after 5 iterations"):
        out = run_experiment(replication_config(tmp_path_factory.mktemp("rep")))
        assert (out / "error_vs_transmissions.svg").exists()
        assert (out / "error_vs_computation.svg").exists()

        def tx_to_reach(label, level=1e-6):
            data = read_trace_csv(out / f"trace_{label}.csv")
            hits = np.nonzero(data["rel_cost_error"] <= level)[0]
            return data["transmissions_total"][hits[0]] if hits.size else math.inf

        assert tx_to_reach("jacobi") < tx_to_reach("gradient")
        for label in ("jacobi", "gradient", "rand_gs", "rand_gradient",
                      "jacobi_tau1", "gradient_tau1"):
            rel = read_trace_csv(out / f"trace_{label}.csv")["rel_cost_error"]
            assert np.all(np.diff(rel[5:]) <= 0.0), label


def test_criterion_8_recipe_self_consistency():
    with criterion(8, "every recipe's tau meets the strict rate inequality"):
        from dalopt.theory import RECIPES

        h_min, n = 1.0, 10
        for recipe in RECIPES:
            for gamma in (1.0, 2.0, 5.0, 10.0, 30.0, 100.0):
                for lam2 in (0.01, 0.05, 0.1, 0.3, 0.5, 1.0):
                    variant, alpha, rho, beta, tau = resolve_recipe(
                        recipe, h_min, gamma, lam2, n
                    )
                    xi = inner_contraction(
                        variant, rho=rho, h_min=h_min, tau=tau, beta=beta, n=n
                    )
                    assert xi < lam2 * h_min / (3.0 * (rho + gamma)), (
                        recipe, gamma, lam2
                    )


def test_criterion_9_determinism(tmp_path_factory):
    with criterion(9, "re-running a config yields byte-identical CSVs"):
        def small_config(out_dir):
            return ExperimentConfig.from_dict({
                "network": {"type": "geometric", "n": 6, "radius": 0.7, "seed": 3},
                "objective": {"type": "quadratic", "d": 2, "seed": 5,
                              "h_lo": 1.0, "h_hi": 2.0},
                "algorithms": [
                    {"recipe": "section5_jacobi"},
                    {"recipe": "section5_gradient"},
                    {"recipe": "section5_rand_gs", "seed": 2},
                    {"recipe": "section5_rand_gradient", "seed": 2},
                ],
                "k_max": 25,
                "epsilon": 1e-8,
                "output_dir": str(out_dir),
            })

        out_a = run_experiment(small_config(tmp_path_factory.mktemp("det_a")))
        out_b = run_experiment(small_config(tmp_path_factory.mktemp("det_b")))
        csvs = sorted(p.name for p in out_a.glob("*.csv"))
        assert csvs == sorted(p.name for p in out_b.glob("*.csv"))
        for name in csvs:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
