"""Data generation, reference solver, metrics, pipeline orchestration."""

import json
import re

import numpy as np
import pytest

from dalopt.harness import (
    ExperimentConfig,
    OUTPUT_DIR_ENV,
    StageError,
    generate_logistic_data,
    generate_quadratic_stack,
    reference_solve,
    relative_cost_error,
    render_plots,
    resolve_algorithm,
    run_experiment,
    trace_metrics,
)
from dalopt.network import build_chain_graph, build_network
from dalopt.objective import ObjectiveStack, QuadraticCost


def scalar_quadratic(center, curvature=1.0):
    return QuadraticCost(matrix=np.array([[curvature]]), linear=np.array([-curvature * center]))


def minimal_config(tmp_path, **overrides):
    doc = {
        "network": {"type": "complete", "n": 2},
        "objective": {"type": "quadratic", "d": 2, "seed": 1, "h_lo": 1.0, "h_hi": 2.0},
        "algorithms": [{"recipe": "section4_jacobi"}],
        "k_max": 50,
        "epsilon": 1e-12,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


class TestGenerateLogisticData:
    def test_deterministic(self):
        a = generate_logistic_data(5, 4, reg=2.0, seed=7)
        b = generate_logistic_data(5, 4, reg=2.0, seed=7)
        for ca, cb in zip(a.costs, b.costs):
            assert np.array_equal(ca.feature, cb.feature)
            assert ca.label == cb.label

    def test_rng_replay_oracle(self):
        n, d, seed = 4, 6, 3
        stack = generate_logistic_data(n, d, seed=seed)
        rng = np.random.default_rng(seed)
        x_true = rng.standard_normal(d)
        for cost in stack.costs:
            a = rng.standard_normal(d - 1)
            eps = rng.normal(0.0, 0.001)
            score = float(x_true[:-1] @ a + x_true[-1] + eps)
            assert np.array_equal(cost.feature, a)
            assert cost.label == (1 if score >= 0 else -1)

    def test_label_sign_property(self):
        # labels mostly match the noiseless score's sign (noise sd 0.001)
        stack = generate_logistic_data(200, 5, seed=0)
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(5)
        agree = 0
        for cost in stack.costs:
            score = float(x_true[:-1] @ cost.feature + x_true[-1])
            agree += cost.label == (1 if score >= 0 else -1)
        assert agree >= 198

    def test_d1_rejected(self):
        with pytest.raises(ValueError, match="d >= 2"):
            generate_logistic_data(3, 1)


class TestGenerateQuadraticStack:
    def test_spectra_within_bounds(self):
        stack = generate_quadratic_stack(6, 4, seed=9, h_lo=1.5, h_hi=3.0)
        for cost in stack.costs:
            eigs = np.linalg.eigvalsh(cost.matrix)
            assert eigs.min() >= 1.5 - 1e-10
            assert eigs.max() <= 3.0 + 1e-10

    def test_deterministic(self):
        a = generate_quadratic_stack(3, 2, seed=4)
        b = generate_quadratic_stack(3, 2, seed=4)
        for ca, cb in zip(a.costs, b.costs):
            assert np.array_equal(ca.matrix, cb.matrix)
            assert np.array_equal(ca.linear, cb.linear)


class TestReferenceSolve:
    def test_identical_scalar_quadratics(self):
        stack = ObjectiveStack(tuple(scalar_quadratic(2.5) for _ in range(4)))
        ref = reference_solve(stack)
        assert ref.x_star == pytest.approx([2.5], abs=1e-12)
        # each block's value at its minimizer 2.5 is -2.5^2/2
        assert ref.f_star == pytest.approx(-12.5, abs=1e-12)

    def test_distinct_quadratics_match_dense_solve(self):
        stack = generate_quadratic_stack(5, 3, seed=2, h_lo=1.0, h_hi=2.0)
        ref = reference_solve(stack)
        a = sum(c.matrix for c in stack.costs)
        b = sum(c.linear for c in stack.costs)
        assert np.allclose(ref.x_star, np.linalg.solve(a, -b), atol=1e-12)

    def test_logistic_gradient_norm(self):
        stack = generate_logistic_data(6, 4, reg=2.0, seed=1)
        ref = reference_solve(stack)
        g = stack.aggregate_grad(ref.x_star)
        assert np.linalg.norm(g) <= 1e-12 * max(
            1.0, np.linalg.norm(stack.aggregate_grad(np.zeros(4)))
        )
        assert ref.grad_norm_at_solution == pytest.approx(np.linalg.norm(g))

    def test_logistic_iteration_cap(self):
        stack = generate_logistic_data(6, 4, reg=2.0, seed=1)
        with pytest.raises(StageError, match=r"\[reference\] did not reach gradient norm"):
            reference_solve(stack, max_iterations=3)


class TestRelativeCostError:
    def setup_method(self):
        self.stack = generate_quadratic_stack(3, 2, seed=6, h_lo=1.0, h_hi=2.0)
        self.ref = reference_solve(self.stack)

    def test_consensus_optimum_gives_zero(self):
        x = np.tile(self.ref.x_star, 3)
        assert relative_cost_error(self.stack, self.ref, x) == 0.0

    def test_zero_point_gives_one(self):
        assert relative_cost_error(self.stack, self.ref, np.zeros(6)) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_matches_termwise_oracle(self, rng):
        x = rng.standard_normal(6)
        f0 = self.stack.aggregate_value(np.zeros(2))
        oracle = np.mean([
            (self.stack.aggregate_value(xi) - self.ref.f_star) / (f0 - self.ref.f_star)
            for xi in x.reshape(3, 2)
        ])
        assert relative_cost_error(self.stack, self.ref, x) == pytest.approx(oracle, rel=1e-12)

    def test_never_negative(self):
        # tiny perturbations around the optimum can round below f*
        x = np.tile(self.ref.x_star, 3) + 1e-16
        assert relative_cost_error(self.stack, self.ref, x) >= 0.0

    def test_degenerate_instance_rejected(self):
        stack = ObjectiveStack(tuple(scalar_quadratic(0.0) for _ in range(2)))
        ref = reference_solve(stack)
        with pytest.raises(StageError, match="degenerate"):
            relative_cost_error(stack, ref, np.ones(2))


class TestResolveAlgorithm:
    def setup_method(self):
        self.net = build_network(build_chain_graph(4))
        self.stack = generate_quadratic_stack(4, 2, seed=0, h_lo=1.0, h_hi=2.0)

    def test_recipe_entry(self):
        cfg = resolve_algorithm({"recipe": "section5_jacobi"}, self.stack, self.net)
        assert cfg.variant == "det_jacobi"
        assert cfg.alpha == cfg.rho == self.stack.h_min
        assert cfg.name == "section5_jacobi"

    def test_recipe_overrides(self):
        cfg = resolve_algorithm(
            {"recipe": "section5_gradient", "tau": 1, "alpha": 0.15, "label": "g1"},
            self.stack, self.net,
        )
        assert cfg.tau == 1 and cfg.alpha == 0.15 and cfg.name == "g1"

    def test_explicit_entry(self):
        cfg = resolve_algorithm(
            {"variant": "det_jacobi", "alpha": 0.5, "rho": 1.0, "tau": 2},
            self.stack, self.net,
        )
        assert cfg.name == "det_jacobi" and cfg.tau == 2

    def test_unknown_recipe(self):
        with pytest.raises(ValueError, match="unknown recipe"):
            resolve_algorithm({"recipe": "nope"}, self.stack, self.net)

    def test_missing_explicit_keys(self):
        with pytest.raises(StageError, match="missing"):
            resolve_algorithm({"variant": "det_jacobi", "alpha": 0.5}, self.stack, self.net)

    def test_unknown_keys_rejected(self):
        with pytest.raises(StageError, match="unknown algorithm keys"):
            resolve_algorithm(
                {"recipe": "section5_jacobi", "momentum": 0.9}, self.stack, self.net
            )

    @pytest.mark.parametrize("entry, message", [
        ({"recipe": "section5_jacobi", "tau": 0}, "tau must be an integer >= 1, got 0"),
        ({"variant": "det_jacobi", "alpha": 0.5, "rho": -1.0, "tau": 1},
         "rho must be a finite number >= 0, got -1.0"),
        ({"variant": "det_gradient", "alpha": 0.5, "rho": 1.0, "tau": 1, "beta": "x"},
         "beta must be a finite number > 0, got 'x'"),
    ], ids=["recipe_tau", "explicit_rho", "explicit_beta"])
    def test_values_checked_as_in_a_config(self, entry, message):
        with pytest.raises(StageError, match=re.escape(f"[config] {message}")):
            resolve_algorithm(entry, self.stack, self.net)

    def test_epsilon_defaults_to_the_given_one(self):
        entry = {"variant": "det_jacobi", "alpha": 0.5, "rho": 1.0, "tau": 2}
        assert resolve_algorithm(entry, self.stack, self.net, 1e-3).epsilon == 1e-3
        assert resolve_algorithm(dict(entry, epsilon=1e-4), self.stack, self.net,
                                 1e-3).epsilon == 1e-4


class TestExperimentConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(StageError, match="unknown config keys"):
            ExperimentConfig.from_dict({
                "network": {}, "objective": {}, "algorithms": [], "kmax": 10,
            })

    def test_missing_section(self):
        with pytest.raises(StageError, match="missing config key"):
            ExperimentConfig.from_dict({"network": {}, "objective": {}})

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "network": {"type": "chain", "n": 3},
            "objective": {"type": "quadratic", "d": 2},
            "algorithms": [{"recipe": "section5_jacobi"}],
        }))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.network["n"] == 3 and cfg.k_max == 300

    @pytest.mark.parametrize("k_max", [-3, 0, 2.5, True, "10"])
    def test_bad_k_max_rejected(self, tmp_path, k_max):
        with pytest.raises(StageError, match=r"\[config\] k_max must be an integer >= 1"):
            minimal_config(tmp_path, k_max=k_max)

    @pytest.mark.parametrize("tau", [2.7, 0, -1, "2"])
    def test_bad_tau_rejected(self, tmp_path, tau):
        algorithms = [{"recipe": "section4_jacobi", "tau": tau}]
        with pytest.raises(StageError, match=r"\[config\] algorithms\[0\]\.tau must be"):
            minimal_config(tmp_path, algorithms=algorithms)

    @pytest.mark.parametrize("epsilon", [0, -1e-5, float("nan"), "1e-5"])
    def test_bad_epsilon_rejected(self, tmp_path, epsilon):
        with pytest.raises(StageError, match=r"\[config\] epsilon must be a finite number > 0"):
            minimal_config(tmp_path, epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [0, -1e-5])
    def test_bad_entry_epsilon_rejected(self, tmp_path, epsilon):
        algorithms = [{"recipe": "section4_jacobi"}, {"recipe": "section5_jacobi",
                                                       "epsilon": epsilon}]
        with pytest.raises(StageError, match=r"\[config\] algorithms\[1\]\.epsilon must be"):
            minimal_config(tmp_path, algorithms=algorithms)

    @pytest.mark.parametrize("change, message", [
        ({"network": {"type": "chain", "n": 4, "foo": 1}},
         "unknown config keys: ['network.foo']"),
        ({"network": {"type": "geometric", "n": 4, "raduis": 0.5}},
         "unknown config keys: ['network.raduis']"),
        ({"objective": {"type": "quadratic", "d": 2, "h_low": 1.0, "reg2": 0}},
         "unknown config keys: ['objective.h_low', 'objective.reg2']"),
        ({"network": 5}, "network must be an object, got 5"),
        ({"objective": ["type", "quadratic"]}, "objective must be an object"),
        ({"network": {"type": "chain", "n": 0}}, "network.n must be an integer >= 2, got 0"),
        ({"network": {"type": "geometric", "n": 4, "radius": "x"}},
         "network.radius must be a finite number > 0, got 'x'"),
        ({"network": {"type": "geometric", "n": 4, "radius": float("inf")}},
         "network.radius must be a finite number > 0, got inf"),
        ({"objective": {"type": "quadratic", "d": "2"}}, "objective.d must be an integer >= 1"),
        ({"objective": {"type": "quadratic", "d": 2, "n": True}},
         "objective.n must be an integer >= 2, got True"),
        ({"objective": {"type": "logistic", "d": 2, "reg": 0}},
         "objective.reg must be a finite number > 0, got 0"),
        ({"objective": {"type": "quadratic", "d": 2, "h_lo": float("nan")}},
         "objective.h_lo must be a finite number > 0, got nan"),
        ({"objective": {"type": "quadratic", "d": 2, "h_hi": -1.0}},
         "objective.h_hi must be a finite number > 0, got -1.0"),
        ({"objective": {"type": "quadratic", "d": 2, "h_lo": 6.0}},
         "objective.h_lo must be <= objective.h_hi = 5.0, got 6.0"),
        ({"objective": {"type": "linear", "d": 2}},
         "objective.type must be 'logistic' or 'quadratic', got 'linear'"),
    ], ids=["network_key", "network_typo", "objective_keys", "network_number", "objective_list",
            "n_zero", "radius_string", "radius_infinite", "d_string", "objective_n_bool",
            "reg_zero", "h_lo_nan", "h_hi_negative", "h_lo_above_default_h_hi",
            "objective_type"])
    def test_bad_network_or_objective_rejected(self, tmp_path, change, message):
        with pytest.raises(StageError, match=re.escape(f"[config] {message}")):
            minimal_config(tmp_path, **change)

    def test_defaults_filled_in(self):
        cfg = ExperimentConfig.from_dict({
            "network": {"n": 3}, "objective": {}, "algorithms": [{"recipe": "section5_jacobi"}],
        })
        assert cfg.network == {"type": "geometric", "n": 3, "radius": 0.45, "seed": 0}
        assert cfg.objective == {"type": "logistic", "n": None, "d": 15, "reg": 1.0, "seed": 0,
                                 "h_lo": 0.5, "h_hi": 5.0}
        assert (cfg.k_max, cfg.epsilon, cfg.stop_rel_cost, cfg.output_dir) == (
            300, 1e-5, None, "dalopt_out")
        assert cfg.algorithms == [{"recipe": "section5_jacobi"}]

    @pytest.mark.parametrize("algorithms, message", [
        ([{"recipe": "section4_jacobi"}, {"variant": "det_jacobi", "alpha": 1.0, "rho": 1.0}],
         "missing algorithm key 'algorithms[1].tau'"),
        ([{"alpha": 1.0}], "missing algorithm key 'algorithms[0].variant'"),
        ([{"variant": "det_newton", "alpha": 1.0, "rho": 1.0, "tau": 1}],
         "algorithms[0].variant must be 'det_jacobi', 'det_gradient', 'rand_gauss_seidel' or "
         "'rand_gradient', got 'det_newton'"),
        ([{"recipe": "section4_jacobi"}, 5], "algorithms[1] must be an object, got 5"),
        ([{"variant": "det_jacobi", "alpha": 1.0, "rho": 1.0, "tau": 1},
          {"variant": "det_jacobi", "alpha": 2.0, "rho": 1.0, "tau": 1}],
         "duplicate algorithm labels: ['det_jacobi', 'det_jacobi']"),
        ([{"recipe": "section4_jacobi", "label": "x"}, {"recipe": "section5_jacobi",
                                                        "label": "x"}],
         "duplicate algorithm labels: ['x', 'x']"),
    ], ids=["missing_key", "neither_recipe_nor_variant", "unknown_variant", "entry_number",
            "duplicate_variant_names", "duplicate_given_labels"])
    def test_bad_entry_rejected(self, tmp_path, algorithms, message):
        # checked when the config is made, before a network is built
        with pytest.raises(StageError, match=re.escape(f"[config] {message}")):
            minimal_config(tmp_path, algorithms=algorithms)

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(StageError, match="cannot read"):
            ExperimentConfig.from_file(path)


class TestRunExperiment:
    def test_minimal_two_node(self, tmp_path):
        cfg = minimal_config(tmp_path)
        out = run_experiment(cfg)
        for name in (
            "network.json",
            "trace_section4_jacobi.csv",
            "certificate_section4_jacobi.txt",
            "error_vs_transmissions.svg",
            "error_vs_computation.svg",
        ):
            assert (out / name).exists(), name
        rows = (out / "trace_section4_jacobi.csv").read_text().strip().splitlines()
        final_rel = float(rows[-1].split(",")[3])
        assert 0.0 <= final_rel <= 1e-10

    def test_certificate_cost_translation_lines(self, tmp_path):
        out = run_experiment(minimal_config(tmp_path))
        text = (out / "certificate_section4_jacobi.txt").read_text()
        assert "cost_factor" in text and "rate certificate" in text

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(override))
        out = run_experiment(minimal_config(tmp_path))
        assert out == override
        assert (override / "network.json").exists()
        assert not (tmp_path / "out").exists()

    def test_duplicate_labels_rejected(self, tmp_path):
        # the default label is the recipe name, so the config itself fails
        with pytest.raises(StageError, match=r"\[config\] duplicate"):
            minimal_config(
                tmp_path,
                algorithms=[{"recipe": "section4_jacobi"}, {"recipe": "section4_jacobi"}],
            )
        assert not (tmp_path / "out").exists()

    def test_stage_named_on_network_failure(self, tmp_path):
        # a valid config whose graph cannot be built (an unknown type now
        # fails earlier, at [config])
        cfg = minimal_config(tmp_path, network={"type": "geometric", "n": 8, "radius": 0.01})
        with pytest.raises(StageError, match=r"\[network\] no connected geometric graph"):
            run_experiment(cfg)

    def test_stop_rel_cost_truncates(self, tmp_path):
        full = run_experiment(minimal_config(tmp_path / "a"))
        cfg = minimal_config(tmp_path / "b", stop_rel_cost=1e-3)
        out = run_experiment(cfg)
        n_full = len((full / "trace_section4_jacobi.csv").read_text().splitlines())
        n_stop = len((out / "trace_section4_jacobi.csv").read_text().splitlines())
        assert n_stop < n_full
        rows = (out / "trace_section4_jacobi.csv").read_text().strip().splitlines()
        assert float(rows[-1].split(",")[3]) <= 1e-3

    def test_logistic_pipeline_writes_dataset(self, tmp_path):
        cfg = minimal_config(
            tmp_path,
            network={"type": "chain", "n": 3},
            objective={"type": "logistic", "d": 3, "reg": 2.0, "seed": 0},
            algorithms=[{"recipe": "section5_gradient"}],
            k_max=5,
            epsilon=1e-6,
        )
        out = run_experiment(cfg)
        assert (out / "dataset.csv").exists()

    @pytest.mark.parametrize("k_max, message", [
        (300, "iterates are not finite at outer iteration k=119"),
        (100, "lyapunov_value is not finite in trace row k=59"),
    ])
    def test_divergent_run_stops_at_its_run_stage(self, tmp_path, k_max, message):
        # alpha far above h_min + rho: the dual step diverges; the Lyapunov
        # value overflows at k=59, the iterates at k=119
        cfg = minimal_config(
            tmp_path,
            network={"type": "chain", "n": 5},
            objective={"type": "quadratic", "d": 2, "seed": 0},
            algorithms=[{"variant": "det_gradient", "alpha": 5000, "rho": 0,
                         "beta": 0.15, "tau": 1}],
            k_max=k_max,
        )
        with np.errstate(all="ignore"), pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "run:det_gradient"
        assert message in str(err.value)
        assert not list((tmp_path / "out").glob("*.csv"))


class TestDeterminism:
    def all_variant_config(self, tmp_path):
        return minimal_config(
            tmp_path,
            network={"type": "geometric", "n": 6, "radius": 0.7, "seed": 3},
            objective={"type": "quadratic", "d": 2, "seed": 5, "h_lo": 1.0, "h_hi": 2.0},
            algorithms=[
                {"recipe": "section5_jacobi"},
                {"recipe": "section5_gradient"},
                {"recipe": "section5_rand_gs", "seed": 2},
                {"recipe": "section5_rand_gradient", "seed": 2},
            ],
            k_max=20,
            epsilon=1e-8,
        )

    def test_repeated_runs_byte_identical(self, tmp_path):
        out_a = run_experiment(self.all_variant_config(tmp_path / "a"))
        out_b = run_experiment(self.all_variant_config(tmp_path / "b"))
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_plots_regenerate_byte_identical(self, tmp_path):
        out = run_experiment(self.all_variant_config(tmp_path))
        svgs = {
            p.name: p.read_bytes() for p in out.glob("*.svg")
        }
        for p in out.glob("*.svg"):
            p.unlink()
        render_plots(out)
        for name, blob in svgs.items():
            assert (out / name).read_bytes() == blob, name

    def test_render_plots_empty_dir_raises(self, tmp_path):
        with pytest.raises(StageError, match="no trace CSVs"):
            render_plots(tmp_path)


class TestTraceMetrics:
    def test_columns_consistent_with_run(self, tmp_path):
        from dalopt.almethods import read_trace_csv

        out = run_experiment(minimal_config(tmp_path))
        data = read_trace_csv(out / "trace_section4_jacobi.csv")
        assert (data["rel_cost_error"] >= 0.0).all()
        assert (np.diff(data["k"]) == 1.0).all()
        assert data["k"][0] == 0.0
        # the k = 0 row reflects the all-zero initialization
        assert data["rel_cost_error"][0] == pytest.approx(1.0, rel=1e-12)
        assert data["transmissions_total"][0] == 0.0
