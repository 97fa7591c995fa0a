"""Contraction factors, tau recipes, certificates, diagnostics."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dalopt.almethods import AlgorithmConfig, ConfigError, run_variant
from dalopt.harness import generate_logistic_data, generate_quadratic_stack, reference_solve
from dalopt.network import (build_chain_graph, build_complete_graph, build_geometric_graph,
                            build_network)
from dalopt.objective import QuadraticCost
from dalopt.theory import (
    RECIPES,
    certificate,
    eta_rand_gradient,
    eta_rand_gs,
    inner_contraction,
    lyapunov_value,
    resolve_recipe,
    saddle_point,
    saddle_residuals,
    xi_det_gradient,
    xi_det_jacobi,
    xi_threshold,
)

from oracles import record_iterates, stack_of

getcontext().prec = 50


def decimal_ceil_log_ratio(num, den):
    """High-precision oracle for ceil(ln(num)/ln(den))."""
    val = Decimal(str(num)).ln() / Decimal(str(den)).ln()
    return int(math.ceil(float(val)))


class TestXiDetJacobi:
    def test_rho_zero(self):
        for tau in (1, 3, 10):
            assert xi_det_jacobi(0.0, 1.0, tau) == 0.0

    def test_half_cubed(self):
        assert xi_det_jacobi(1.0, 1.0, 3) == pytest.approx(0.125, abs=1e-15)

    def test_monotone_decreasing_in_tau(self):
        vals = [xi_det_jacobi(2.0, 1.0, t) for t in range(1, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # log-linear decay
        logs = np.log(vals)
        diffs = np.diff(logs)
        assert np.allclose(diffs, diffs[0], atol=1e-10)

    def test_monotone_in_h_min_and_rho(self):
        assert xi_det_jacobi(1.0, 2.0, 2) < xi_det_jacobi(1.0, 1.0, 2)
        assert xi_det_jacobi(2.0, 1.0, 2) > xi_det_jacobi(1.0, 1.0, 2)


class TestXiDetGradient:
    def test_near_unit_step(self):
        assert xi_det_gradient(1.0 - 1e-16, 1.0, 2) == pytest.approx(0.0, abs=1e-15)

    def test_quarter(self):
        assert xi_det_gradient(0.5, 1.0, 2) == pytest.approx(0.25, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            xi_det_gradient(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            xi_det_gradient(2.0, 1.0, 2)

    def test_recipe_beta_meets_threshold(self):
        gamma, lam2 = 49.55, 0.1
        h_min = 1.0
        beta = 1.0 / (h_min * (1.0 + gamma))
        tau = resolve_recipe("section5_gradient", h_min, gamma * h_min, lam2)[4]
        xi = xi_det_gradient(beta, h_min, tau)
        assert xi < lam2 / (3.0 * (1.0 + gamma))


class TestEtaRandGs:
    def test_rho_zero(self):
        n = 7
        assert eta_rand_gs(n, 0.0, 1.0) == pytest.approx(
            n * (1 - math.sqrt(1 - 1 / n)), abs=1e-15
        )

    def test_high_precision_value(self):
        # rho = h_min, N = 10: 10 (1 - sqrt(1 - 0.075))
        oracle = Decimal(10) * (1 - (1 - Decimal("0.075")).sqrt())
        assert eta_rand_gs(10, 1.0, 1.0) == pytest.approx(float(oracle), rel=1e-14)

    def test_large_n_asymptote(self):
        # N (1 - sqrt(1 - a/N)) -> a/2 with a = 1 - delta^2 = 0.75
        assert eta_rand_gs(10**6, 1.0, 1.0) == pytest.approx(0.375, abs=1e-6)

    def test_monotone_decreasing_in_rho(self):
        vals = [eta_rand_gs(10, r, 1.0) for r in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestEtaRandGradient:
    def test_vanishes_as_step_saturates(self):
        assert eta_rand_gradient(5, 1.0 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_high_precision_value(self):
        # beta h_min = 1/2, N = 4: 4 (1 - sqrt(1 - 1/16))
        oracle = Decimal(4) * (1 - (1 - Decimal(1) / Decimal(16)).sqrt())
        assert eta_rand_gradient(4, 0.5, 1.0) == pytest.approx(float(oracle), rel=1e-14)

    def test_recipe_argument_simplification(self):
        # beta = 1/(rho + h_max) with rho = h_min: the inner argument is
        # gamma/(1+gamma)^2
        h_min, gamma, n = 1.0, 7.0, 10
        beta = 1.0 / (h_min + gamma * h_min)
        direct = eta_rand_gradient(n, beta, h_min)
        arg = gamma / (1.0 + gamma) ** 2
        assert direct == pytest.approx(n * (1 - math.sqrt(1 - arg / n)), rel=1e-14)


def closed_form_tau(recipe, gamma, lam2, n):
    """tau of a recipe from the paper's simplified contraction rates: each
    is -log xi at tau = 1 with h_min normalized out."""
    if recipe.startswith("section4"):
        target = math.log(6.0 * gamma / lam2)
        rate = {"section4_jacobi": math.log(1.0 + 1.0 / gamma),
                "section4_gradient": math.log(1.0 + 1.0 / (2.0 * gamma - 1.0))}[recipe]
        return target / rate
    target = math.log(3.0 * (1.0 + gamma) / lam2)
    rate = {
        "section5_jacobi": math.log(2.0),
        "section5_gradient": math.log((gamma + 1.0) / gamma),
        "section5_rand_gs": n * (1.0 - math.sqrt(1.0 - 3.0 / (4.0 * n))),
        "section5_rand_gradient": n * (1.0 - math.sqrt(1.0 - gamma / (n * (1.0 + gamma) ** 2))),
    }[recipe]
    return target / rate


class TestSelectTau:
    """tau as resolve_recipe selects it."""

    def test_section5_jacobi_identity_case(self):
        assert resolve_recipe("section5_jacobi", 1.0, 1.0, 1.0)[4] == 3

    def test_section4_jacobi_high_precision(self):
        gamma, lam2 = 49.55, 0.1059592943986809
        oracle = decimal_ceil_log_ratio(6 * gamma / lam2, 1 + 1 / gamma)
        assert resolve_recipe("section4_jacobi", 1.0, gamma, lam2)[4] == oracle

    @pytest.mark.parametrize("recipe, h_min, h_max, lam2, quotient", [
        ("section4_jacobi", 5.0, 4048.0, 0.5011674072582931, 7436),
        ("section4_gradient", 2.0, 1718.0, 0.5005417332084736, 15869),
    ])
    def test_exact_ceiling_where_the_quotient_rounds_below(self, recipe, h_min, h_max, lam2,
                                                          quotient):
        # section 4 takes rho = h_max; lam2 puts xi^quotient about 9 ulps above
        # the threshold, and the float quotient of logs rounds to quotient
        h, rho = Decimal(h_min), Decimal(h_max)
        if recipe.endswith("jacobi"):
            xi = rho / (rho + h)
        else:
            xi = 1 - Decimal(1.0 / (h_max + h_max)) * h
        threshold = Decimal(lam2) * h / (3 * (rho + rho))
        exact = math.ceil(threshold.ln() / xi.ln())
        rate = -math.log(inner_contraction(RECIPES[recipe][0], rho=h_max, h_min=h_min, tau=1,
                                           beta=1.0 / (h_max + h_max)))
        assert math.ceil(math.log(6.0 * (h_max / h_min) / lam2) / rate) == quotient == exact - 1
        tau = resolve_recipe(recipe, h_min, h_max, lam2)[4]
        assert tau == exact
        xi_tau = inner_contraction(RECIPES[recipe][0], rho=h_max, h_min=h_min, tau=tau,
                                   beta=1.0 / (h_max + h_max))
        assert xi_tau < xi_threshold(lam2, h_min, h_max, h_max)

    def test_randomized_need_node_count(self):
        with pytest.raises(ValueError, match="node count"):
            resolve_recipe("section5_rand_gs", 1.0, 2.0, 0.5)

    def test_unknown_recipe(self):
        with pytest.raises(ValueError, match="unknown"):
            resolve_recipe("bogus", 1.0, 2.0, 0.5)

    @pytest.mark.parametrize("h_min, h_max, lam2", [(2.0, 1.0, 0.5), (1.0, 2.0, 0.0),
                                                    (1.0, 2.0, 1.5)])
    def test_out_of_range_gamma_or_lambda2(self, h_min, h_max, lam2):
        with pytest.raises(ValueError, match="gamma >= 1 and lambda2"):
            resolve_recipe("section5_jacobi", h_min, h_max, lam2)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(recipe=st.sampled_from(list(RECIPES)),
           log_h_min=st.floats(-3.0, 2.0), log_gamma=st.floats(0.0, 5.0),
           log_lam2=st.floats(-5.0, 0.0), n=st.integers(2, 5000))
    def test_matches_closed_forms(self, recipe, log_h_min, log_gamma, log_lam2, n):
        h_min, gamma, lam2 = 10.0 ** log_h_min, 10.0 ** log_gamma, 10.0 ** log_lam2
        tau = resolve_recipe(recipe, h_min, gamma * h_min, lam2, n)[4]
        quotient = closed_form_tau(recipe, (gamma * h_min) / h_min, lam2, n)
        # the two roundings may part only where the quotient is within
        # rounding of an integer
        assert tau == math.ceil(quotient) or abs(quotient - round(quotient)) <= 1e-9 * quotient

    @pytest.mark.parametrize("recipe", RECIPES)
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 5.0, 10.0, 30.0, 100.0])
    @pytest.mark.parametrize("lam2", [0.01, 0.05, 0.1, 0.3, 0.5, 1.0])
    def test_recipes_satisfy_rate_condition(self, recipe, gamma, lam2):
        h_min = 1.0
        h_max = gamma
        n = 10
        variant, alpha, rho, beta, tau = resolve_recipe(recipe, h_min, h_max, lam2, n)
        xi = inner_contraction(variant, rho=rho, h_min=h_min, tau=tau, beta=beta, n=n)
        threshold = lam2 * h_min / (3.0 * (rho + h_max))
        assert xi < threshold
        assert alpha <= h_min + rho + 1e-12


class TestCertificate:
    def quad_pair(self):
        g, _ = build_geometric_graph(6, radius=0.7, rng_seed=3)
        net = build_network(g)
        stack = generate_quadratic_stack(6, 2, seed=5, h_lo=1.0, h_hi=2.0)
        return net, stack

    def test_identical_costs_zero_bound(self):
        net = build_network(build_geometric_graph(4, radius=1.5, rng_seed=0)[0])
        center = np.array([1.0, -2.0])
        cost = QuadraticCost(matrix=np.eye(2), linear=-center)
        stack = stack_of(tuple(cost for _ in range(4)))
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=1.0, rho=1.0, tau=3)
        cert = certificate(cfg, stack, net, center, x_init=center)
        assert cert.d_x == 0.0 and cert.d_mu == pytest.approx(0.0, abs=1e-14)
        assert cert.bound_constant == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_d_mu_is_the_rms_of_node_gradient_norms(self, kind):
        # bit for bit, as the certificate files print it to 17 digits
        net, stack = self.quad_pair()
        if kind == "logistic":
            stack = generate_logistic_data(6, 3, reg=1.0, seed=2)
        x_star = reference_solve(stack).x_star
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=1.0, rho=1.0, tau=3)
        norms = [np.linalg.norm(stack.node_grad(i, x_star)) for i in range(stack.n_nodes)]
        assert certificate(cfg, stack, net, x_star).d_mu == math.sqrt(np.mean(
            [g ** 2 for g in norms]))

    def test_xi_zero_limit_of_r(self):
        net, stack = self.quad_pair()
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=1.0, rho=1.0, tau=200)
        ref = reference_solve(stack)
        cert = certificate(cfg, stack, net, ref.x_star)
        expected = max(0.5, 1.0 - cfg.alpha * net.lambda2 / (cfg.rho + stack.h_max))
        assert cert.r == pytest.approx(expected, abs=1e-9)

    def test_recipe_config_passes_flags(self):
        net, stack = self.quad_pair()
        variant, alpha, rho, beta, tau = resolve_recipe(
            "section5_jacobi", stack.h_min, stack.h_max, net.lambda2, 6
        )
        cfg = AlgorithmConfig(variant=variant, alpha=alpha, rho=rho, tau=tau)
        ref = reference_solve(stack)
        cert = certificate(cfg, stack, net, ref.x_star)
        assert cert.alpha_ok and cert.xi_ok and cert.r < 1.0

    @pytest.mark.parametrize("variant", ["det_gradient", "rand_gradient"])
    def test_beta_above_limit_rejected(self, variant):
        # contraction is not guaranteed, so no certificate is made
        net, stack = self.quad_pair()
        ref = reference_solve(stack)
        beta = 1.01 / (stack.h_max + 1.0)
        cfg = AlgorithmConfig(variant=variant, alpha=0.5, rho=1.0, tau=1, beta=beta)
        # the message names the entry: its label, else its variant
        with pytest.raises(ConfigError, match=rf"^{variant}: beta=.* exceeds "
                                              r"1/\(h_max\+rho\)=.*; contraction not guaranteed"):
            certificate(cfg, stack, net, ref.x_star)

    def test_report_contains_fields(self):
        net, stack = self.quad_pair()
        ref = reference_solve(stack)
        cfg = AlgorithmConfig(variant="det_jacobi", alpha=1.0, rho=1.0, tau=5)
        text = certificate(cfg, stack, net, ref.x_star).report()
        for key in ("xi", "alpha_ok", "xi_ok", "r", "D_x", "D_mu", "bound_constant"):
            assert key in text


@st.composite
def small_instances(draw):
    """(net, stack): a chain, complete or radius-0.7 geometric graph on 3 to 8
    nodes, with quadratic d=2 costs of spectra in [1, h_hi <= 4] or logistic
    d=3 costs of per-node reg in [1, 10], condition numbers up to about 4."""
    graph = draw(st.sampled_from(["chain", "complete", "geometric"]))
    n, seed = draw(st.integers(3, 8)), draw(st.integers(0, 999))
    if graph == "geometric":
        g = build_geometric_graph(n, radius=0.7, rng_seed=seed)[0]
    else:
        g = (build_chain_graph if graph == "chain" else build_complete_graph)(n)
    if draw(st.booleans()):
        stack = generate_quadratic_stack(n, 2, seed=seed, h_lo=1.0, h_hi=draw(st.floats(1.0, 4.0)))
    else:
        stack = generate_logistic_data(n, 3, reg=n * draw(st.floats(1.0, 10.0)), seed=seed)
    return build_network(g), stack


class TestCertificateOnDrawnInstances:
    """The deterministic recipes' certificates hold on drawn instances, run
    from zero: max_i ||x_i(k) - x*|| <= r^k bound_constant at every k, and
    every Lyapunov step from a value above 100x its floor contracts by at
    most r. Criterion 5 checks one instance, with slack."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(small_instances(), st.sampled_from(["section4_jacobi", "section4_gradient",
                                               "section5_jacobi", "section5_gradient"]))
    def test_bound_and_lyapunov_step(self, instance, recipe):
        net, stack = instance
        ref = reference_solve(stack)
        variant, alpha, rho, beta, tau = resolve_recipe(recipe, stack.h_min, stack.h_max,
                                                        net.lambda2)
        cfg = AlgorithmConfig(variant=variant, alpha=alpha, rho=rho, tau=tau, beta=beta,
                              epsilon=1e-10)
        cert = certificate(cfg, stack, net, ref.x_star)
        assert cert.alpha_ok and cert.xi_ok
        xs, mus, record = record_iterates()
        run_variant(stack, net, cfg, 80, stop=record)
        assert len(xs) == 81
        worst = np.linalg.norm(np.reshape(xs, (len(xs), stack.n_nodes, -1)) - ref.x_star,
                               axis=2).max(axis=1)
        assert (worst <= cert.r ** np.arange(len(worst)) * cert.bound_constant).all()
        saddle = saddle_point(stack, ref.x_star)
        lyap = np.array([lyapunov_value(x, mu, saddle, net, stack.h_min)
                         for x, mu in zip(xs, mus)])
        above = lyap[:-1] >= 100.0 * lyap.min()
        assert (lyap[1:][above] <= cert.r * lyap[:-1][above]).all()


class TestSaddleResiduals:
    def test_saddle_point_residuals_vanish(self, chain5_net, quad5_stack, quad5_ref):
        saddle = saddle_point(quad5_stack, quad5_ref.x_star)
        r1, r2, r3 = saddle_residuals(
            quad5_stack, chain5_net, saddle.x_bullet, saddle.mu_bullet, rho=1.0
        )
        assert r1 <= 1e-10 and r2 <= 1e-10 and r3 <= 1e-10

    def test_consensus_violation_matches_dense_product(self, chain5_net, quad5_stack, rng):
        x = rng.standard_normal(15)
        mu = rng.standard_normal(15)
        _, r2, _ = saddle_residuals(quad5_stack, chain5_net, x, mu, rho=0.5)
        dense = np.kron(np.eye(5) - chain5_net.weights, np.eye(3)) @ x
        assert r2 == pytest.approx(np.linalg.norm(dense), rel=1e-12)

    def test_block_sum_residual_exact(self, chain5_net, quad5_stack, rng):
        mu = rng.standard_normal(15)
        _, _, r3 = saddle_residuals(quad5_stack, chain5_net, np.zeros(15), mu, rho=0.0)
        assert r3 == pytest.approx(np.linalg.norm(mu.reshape(5, 3).sum(axis=0)), rel=1e-14)


class TestLyapunovValue:
    def test_zero_at_saddle(self, chain5_net, quad5_stack, quad5_ref):
        saddle = saddle_point(quad5_stack, quad5_ref.x_star)
        v = lyapunov_value(
            saddle.x_bullet, saddle.mu_bullet, saddle, chain5_net, quad5_stack.h_min
        )
        assert v == 0.0

    def test_dual_term_vanishes(self, chain5_net, quad5_stack, quad5_ref, rng):
        saddle = saddle_point(quad5_stack, quad5_ref.x_star)
        x = rng.standard_normal(15)
        v = lyapunov_value(x, saddle.mu_bullet, saddle, chain5_net, quad5_stack.h_min)
        assert v == pytest.approx(np.linalg.norm(x - saddle.x_bullet), rel=1e-14)

    def test_matches_dense_evaluation(self, chain5_net, quad5_stack, quad5_ref, rng):
        net = chain5_net
        saddle = saddle_point(quad5_stack, quad5_ref.x_star)
        x = rng.standard_normal(15)
        mu = rng.standard_normal(15)
        h_min = quad5_stack.h_min
        v = lyapunov_value(x, mu, saddle, net, h_min)
        t = np.kron(np.diag(net.eigvals_reduced ** -0.5) @ net.q_reduced.T, np.eye(3))
        dual = 2.0 / h_min * np.linalg.norm(t @ (mu - saddle.mu_bullet))
        oracle = max(np.linalg.norm(x - saddle.x_bullet), dual)
        assert v == pytest.approx(oracle, rel=1e-12)
