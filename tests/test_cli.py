"""Command-line entry points."""

import json

import pytest

from dalopt.cli import main
from dalopt.network import build_chain_graph, build_network, save_network


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "network": {"type": "complete", "n": 2},
        "objective": {"type": "quadratic", "d": 2, "seed": 1, "h_lo": 1.0, "h_hi": 2.0},
        "algorithms": [{"recipe": "section4_jacobi"}],
        "k_max": 10,
        "epsilon": 1e-10,
        "output_dir": str(tmp_path / "out"),
    }))
    return path


class TestRun:
    def test_success(self, tiny_config, tmp_path, capsys):
        assert main(["run", str(tiny_config)]) == 0
        assert (tmp_path / "out" / "trace_section4_jacobi.csv").exists()
        assert "experiment complete" in capsys.readouterr().out

    def test_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert "error [config]" in err

    def test_bad_algorithm_entry(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "network": {"type": "complete", "n": 2},
            "objective": {"type": "quadratic", "d": 2},
            "algorithms": [{"recipe": "wat"}],
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", str(path)]) == 1
        assert "error [config]" in capsys.readouterr().err


class TestCertify:
    def test_prints_reports(self, tiny_config, capsys):
        assert main(["certify", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        assert "rate certificate" in out
        assert "section4_jacobi" in out
        assert "r " in out or "r  " in out


BAD_VALUES = {"string": "a", "negative": -1, "fraction": 1.5, "true": True,
              "inf": float("inf"), "nan": float("nan")}


class TestBadConfig:
    """run and certify build the problem in one stage and fail alike."""

    @pytest.mark.parametrize("command", ["run", "certify"])
    @pytest.mark.parametrize("change, stage, names", [
        ({"objective": {"type": "quadratic", "d": 2, "n": 5}}, "objective", "node count"),
        ({"algorithms": [{"recipe": "section4_jacobi", "label": "a"},
                         {"recipe": "section5_jacobi", "label": "a"}]}, "config",
         "duplicate algorithm labels"),
        ({"algorithms": [{"variant": "nope", "alpha": 1.0, "rho": 1.0, "tau": 1}]},
         "config", "nope"),
        ({"algorithms": [{"recipe": "section5_gradient", "beta": 100, "label": "steep"}]},
         "{command}:steep", "beta"),
        # below 1/h_min, so the certificate's formulas hold, but above 1/(h_max+rho)
        ({"algorithms": [{"recipe": "section5_gradient", "beta": 0.6, "label": "mild"}]},
         "{command}:mild", "beta"),
        # a change that is not an object is the whole config document
        (5, "config", "top level"),
        (None, "config", "top level"),
        ([["network", 1]], "config", "top level"),
        ({"output_dir": 5}, "config", "output_dir"),
        ({"stop_rel_cost": -1}, "config", "stop_rel_cost"),
        ({"stop_rel_cost": float("inf")}, "config", "stop_rel_cost"),
        ({"stop_rel_cost": "x"}, "config", "stop_rel_cost"),
        ({"algorithms": []}, "config", "algorithms"),
        ({"algorithms": [{"recipe": "section4_jacobi", "label": "a/b"}]}, "config",
         "algorithms[0].label"),
        ({"network": {"type": "chain", "n": "3"}}, "config", "network.n must be"),
        ({"network": {"type": "chain", "n": 2.5}}, "config", "network.n must be"),
        ({"network": {"type": "ring", "n": 3}}, "config", "network.type must be"),
        ({"objective": {"type": "quadratic", "d": 0}}, "config", "objective.d must be"),
        ({"objective": {"type": "quadratic", "d": 2, "h_lo": 3, "h_hi": 1}}, "config",
         "objective.h_lo must be <= objective.h_hi"),
        ({"network": {"type": "chain", "n": 1}}, "config", "network.n must be an integer >= 2"),
        ({"objective": {"type": "quadratic", "d": 2, "n": 1}}, "config",
         "objective.n must be an integer >= 2"),
        ({"objective": {"type": "logistic", "d": 1}}, "config",
         "objective.d must be >= 2 for a logistic objective, got 1"),
        ({"objective": {"d": 1}}, "config", "objective.d must be >= 2 for a logistic"),
    ], ids=["node_count", "duplicate_labels", "unknown_variant", "beta_too_large",
            "beta_above_contraction_limit", "top_level_number", "top_level_null",
            "top_level_pairs", "output_dir_number", "stop_rel_cost_negative",
            "stop_rel_cost_infinite", "stop_rel_cost_string", "no_algorithms",
            "label_with_slash", "network_n_string", "network_n_fraction", "network_type",
            "objective_d_zero", "objective_h_lo_above_h_hi", "network_n_one", "objective_n_one",
            "logistic_d_one", "default_type_d_one"])
    def test_fails_with_stage(self, tmp_path, capsys, command, change, stage, names):
        path = tmp_path / "cfg.json"
        doc = change
        if isinstance(change, dict):
            doc = {
                "network": {"type": "chain", "n": 3},
                "objective": {"type": "quadratic", "d": 2, "h_lo": 1.0, "h_hi": 2.0},
                "algorithms": [{"recipe": "section4_jacobi"}],
                "k_max": 5,
                "output_dir": str(tmp_path / "out"),
                **change,
            }
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error [{stage.format(command=command)}]" in err
        assert names in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("key, value", [
        pytest.param(key, value, id=f"{key.replace('[0]', '')}={name}")
        for key in ("network.seed", "objective.seed", "algorithms[0].seed",
                    "algorithms[0].alpha", "algorithms[0].rho", "algorithms[0].beta")
        for name, value in BAD_VALUES.items()
        if key.endswith("seed") or name != "fraction"  # 1.5 is a valid step parameter
    ])
    def test_clock_and_step_parameters(self, tmp_path, capsys, key, value):
        doc = {
            "network": {"type": "chain", "n": 3},
            "objective": {"type": "quadratic", "d": 2, "h_lo": 1.0, "h_hi": 2.0},
            "algorithms": [{"recipe": "section5_gradient"}],
            "k_max": 5,
            "output_dir": str(tmp_path / "out"),
        }
        where, _, name = key.replace("[0]", "").partition(".")
        spec = doc[where][0] if where == "algorithms" else doc[where]
        spec[name] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error [config] {key} must be" in err
        assert not (tmp_path / "out").exists()


class TestSpectrum:
    def test_success(self, tmp_path, capsys):
        net = build_network(build_chain_graph(4))
        path = tmp_path / "net.json"
        save_network(net, path)
        assert main(["spectrum", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 4" in out
        assert "lambda2:" in out
        assert "reduced eigenvalues:" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["spectrum", str(tmp_path / "nope.json")]) == 1
        assert "error [network]" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[], {"node_count": "x", "edges": [], "weights": []}],
                             ids=["top_level_list", "node_count_string"])
    def test_malformed_file(self, tmp_path, capsys, doc):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error [network]" in err
        assert "Traceback" not in err
